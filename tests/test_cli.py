"""End-to-end tests for the command-line pipeline.

Each test drives ``decisionlab.cli.main`` in process with a throwaway run
directory, so exit codes, stderr diagnostics, and on-disk artifacts are all
exercised exactly as a shell invocation would see them.
"""

import json
import socket

import pytest

from decisionlab.cli import main

# Small enough that the whole pipeline runs in well under a second per test.
FAST_CONFIG = {
    "setting": "mdp",
    "seed": 5,
    "num_tasks": 3,
    "env": {"energy_cap": 4, "horizon": 4},
    "dataset": {"trajectories_per_task": 2},
    "eval": {"policy": "oracle", "rollouts_per_task": 4},
}


def write_config(tmp_path, name="config.json", **overrides):
    cfg = json.loads(json.dumps(FAST_CONFIG))  # deep copy
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def artifact_bytes(root):
    """Map of relative path -> bytes, excluding the per-command manifests.

    Only the root-level ``<command>.manifest.json`` files carry a wall-clock
    timestamp; everything else (task files, solutions, corpora and their
    sibling manifests, reports) must be byte-stable across reruns.
    """
    out = {}
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        rel = path.relative_to(root)
        if len(rel.parts) == 1 and rel.name.endswith(".manifest.json"):
            continue
        out[str(rel)] = path.read_bytes()
    return out


# ---------------------------------------------------------------------------
# exit codes and config validation


def test_usage_errors_exit_1():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_unknown_nested_config_key_names_path(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"env": {"horison": 5}}))
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert "env." in err and "horison" in err


def test_unknown_top_level_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"settings": "mdp"}))
    assert main(["gen", "--config", str(cfg)]) == 1
    assert "settings" in capsys.readouterr().err


def test_invalid_config_value(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"setting": "bandit"}))
    assert main(["gen", "--config", str(cfg)]) == 1
    assert "setting" in capsys.readouterr().err


@pytest.mark.parametrize("override, field", [
    ({"ambiguity": {"num_models": "3"}}, "ambiguity.num_models"),
    ({"env": {"horizon": "5"}}, "env.horizon"),
    ({"env": {"horizon": 5.0}}, "env.horizon"),
    ({"env": {"discount": True}}, "env.discount"),
    ({"env": {"p_range": ["0.5", 1.0]}}, "env.p_range"),
    ({"env": {"p_range": 0.5}}, "env.p_range"),
    ({"num_tasks": True}, "num_tasks"),
    ({"solver": {"node_budget": None}}, "solver.node_budget"),
    ({"eval": {"rollouts_per_task": "30"}}, "eval.rollouts_per_task"),
    ({"setting": "darkroom", "darkroom": {"size": "10"}}, "darkroom.size"),
    ({"solver": {"expansion_chunk": 10.5}}, "solver.expansion_chunk"),
    ({"dataset": {"format": "dpt", "records_per_task": "4"}}, "dataset.records_per_task"),
    ({"theory": {"tasks_per_cell": "5"}}, "theory.tasks_per_cell"),
])
def test_wrong_typed_config_value_names_field(tmp_path, capsys, override, field):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(override))
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert repr(field) in err


def test_config_file_missing_or_malformed(tmp_path, capsys):
    assert main(["gen", "--config", str(tmp_path / "absent.json")]) == 1
    assert "not found" in capsys.readouterr().err
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["gen", "--config", str(broken)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_child_transport_requires_argv(tmp_path, capsys):
    cfg = write_config(tmp_path, eval={"policy": "external",
                                       "external": {"transport": "child"}})
    assert main(["eval", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    assert "argv" in capsys.readouterr().err


def test_unreachable_external_policy_exits_2(tmp_path, capsys):
    # Reserve a port, then close it so the connection is refused.
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
    cfg = write_config(
        tmp_path,
        eval={"policy": "external",
              "external": {"transport": "tcp", "port": dead_port,
                           "timeout": 2.0}})
    assert main(["eval", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert "error:" in capsys.readouterr().err


def test_qmdp_rejected_for_darkroom(tmp_path, capsys):
    cfg = write_config(tmp_path, setting="darkroom",
                       darkroom={"size": 5, "horizon": 10},
                       eval={"policy": "qmdp"})
    assert main(["eval", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    assert "qmdp" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the gen -> solve -> export -> eval pipeline


def test_full_pipeline_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"

    assert main(["gen", "--config", cfg, "--out", str(out)]) == 0
    task_files = sorted((out / "tasks").glob("task_*.json"))
    assert [p.name for p in task_files] == [f"task_{i:04d}.json" for i in range(3)]
    manifest = json.loads((out / "gen.manifest.json").read_text())
    assert manifest["command"] == "gen"
    assert manifest["config"]["seed"] == 5
    assert manifest["artifacts"] == sorted(manifest["artifacts"])
    assert len(manifest["artifacts"]) == 3

    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    sol = json.loads((out / "solutions" / "solution_0000.json").read_text())
    assert sol["kind"] == "mdp" and sol["reference"] == "exact"
    assert isinstance(sol["expected_return"], float)
    assert len(sol["policy"]) == 4  # one row per period

    assert main(["export", "--config", cfg, "--out", str(out)]) == 0
    corpus = out / "corpus" / "sft.jsonl"
    lines = corpus.read_text().splitlines()
    assert len(lines) == 3  # one record per task
    corpus_meta = json.loads(
        (out / "corpus" / "sft.jsonl.manifest.json").read_text())
    assert corpus_meta["kind"] == "sft" and corpus_meta["num_records"] == 3

    assert main(["eval", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "reports" / "eval.json").read_text())
    assert report["policy"] == "oracle" and report["setting"] == "mdp"
    assert report["mean_gap"] == 0.0
    assert report["reference"] == "exact"
    assert report["task_gaps"] == [0.0, 0.0, 0.0]

    stdout = capsys.readouterr().out
    assert "gen: wrote 3 mdp task(s)" in stdout
    assert "solve: wrote 3 solution record(s)" in stdout
    assert "export: wrote 3 sft record(s)" in stdout
    assert "eval: mdp/oracle mean gap 0.0000" in stdout


def test_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    for out in (run_a, run_b):
        for command in ("gen", "solve", "export", "eval"):
            assert main([command, "--config", cfg, "--out", str(out)]) == 0
    files_a, files_b = artifact_bytes(run_a), artifact_bytes(run_b)
    assert set(files_a) == set(files_b)
    assert files_a  # the comparison is not vacuous
    for rel in files_a:
        assert files_a[rel] == files_b[rel], f"{rel} differs between reruns"


def test_solve_from_saved_tasks_matches_rederived(tmp_path):
    """solve works from gen's task files or straight from (config, seed)."""
    cfg = write_config(tmp_path)
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    assert main(["gen", "--config", cfg, "--out", str(run_a)]) == 0
    assert main(["solve", "--config", cfg, "--out", str(run_a)]) == 0
    assert main(["solve", "--config", cfg, "--out", str(run_b)]) == 0  # no gen
    for name in ("solution_0000.json", "solution_0001.json", "solution_0002.json"):
        assert (run_a / "solutions" / name).read_bytes() == \
            (run_b / "solutions" / name).read_bytes()


def test_seed_override_changes_tasks(tmp_path):
    cfg = write_config(tmp_path)
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    assert main(["gen", "--config", cfg, "--out", str(run_a), "--seed", "7"]) == 0
    assert main(["gen", "--config", cfg, "--out", str(run_b)]) == 0
    manifest = json.loads((run_a / "gen.manifest.json").read_text())
    assert manifest["config"]["seed"] == 7
    assert (run_a / "tasks" / "task_0000.json").read_bytes() != \
        (run_b / "tasks" / "task_0000.json").read_bytes()


def test_export_dpt_format(tmp_path):
    cfg = write_config(tmp_path, dataset={"format": "dpt", "records_per_task": 3,
                                          "context_trajectories": 1})
    out = tmp_path / "run"
    assert main(["export", "--config", cfg, "--out", str(out)]) == 0
    records = [json.loads(line)
               for line in (out / "corpus" / "dpt.jsonl").read_text().splitlines()]
    assert len(records) == 3 * 3
    for rec in records:
        assert {"task_id", "context", "query_step", "query_obs", "label"} <= set(rec)


def test_eval_grid_writes_csv(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        grid={"settings": ["mdp"], "horizons": [3], "obs_probs": [0.8],
              "model_counts": [1], "alphas": [0.5], "policies": ["random"],
              "num_tasks": 2})
    out = tmp_path / "run"
    assert main(["eval", "--grid", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "reports" / "grid.csv").read_text().splitlines()
    assert len(lines) == 2  # header + one cell
    header = lines[0].split(",")
    assert header[:3] == ["setting", "policy", "horizon"]
    row = dict(zip(header, lines[1].split(",")))
    assert row["setting"] == "mdp" and row["policy"] == "random"
    assert row["obs_prob"] == ""  # axis does not apply to fully observed tasks
    assert "eval: wrote 1 grid row(s)" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# replication checks (--check)


def test_theory_sim_check_passes(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        theory={"dim": 3, "num_actions": 3, "horizon": 4,
                "prompt_lengths": [10, 50], "train_lengths": [100],
                "condition_numbers": [1, 5], "tasks_per_cell": 200})
    out = tmp_path / "run"
    assert main(["theory-sim", "--check", "--config", cfg,
                 "--out", str(out)]) == 0
    lines = (out / "reports" / "theory_e2.csv").read_text().splitlines()
    assert len(lines) == 5  # header + 2x1x2 cells
    header = lines[0].split(",")
    violated_col = header.index("violated")
    assert all(line.split(",")[violated_col] == "0" for line in lines[1:])
    stdout = capsys.readouterr().out
    assert "theory check: pass" in stdout
    assert "0 bound violation(s)" in stdout


def test_darkroom_check_oracle(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        darkroom={"size": 8, "horizon": 24, "rollouts_per_goal": 2},
        eval={"policy": "oracle"})
    out = tmp_path / "run"
    assert main(["darkroom", "--check", "--config", cfg, "--out", str(out)]) == 0
    assert "darkroom check: pass" in capsys.readouterr().out
    summary = json.loads((out / "reports" / "darkroom.json").read_text())
    assert summary["num_goals"] == 13  # test split of an 8x8 grid at 80/20
    assert summary["mean_return"] > 0.0
    csv_lines = (out / "reports" / "darkroom.csv").read_text().splitlines()
    assert len(csv_lines) == 1 + summary["num_goals"]


def test_darkroom_check_random(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        darkroom={"size": 8, "horizon": 24, "rollouts_per_goal": 2},
        eval={"policy": "random"})
    out = tmp_path / "run"
    assert main(["darkroom", "--check", "--policy", "random", "--config", cfg,
                 "--out", str(out)]) == 0
    assert "darkroom check: pass" in capsys.readouterr().out
