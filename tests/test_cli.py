"""End-to-end tests for the command-line pipeline.

Each test drives ``decisionlab.cli.main`` in process with a throwaway run
directory, so exit codes, stderr diagnostics, and on-disk artifacts are all
exercised exactly as a shell invocation would see them.
"""

import hashlib
import json
import math
import resource
import socket
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import decisionlab
from decisionlab import evaluation
from decisionlab.cli import main
from decisionlab.envs import load_task
from decisionlab.solvers import BeliefSolverConfig, BudgetExceeded, solve_pomdp

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


@pytest.mark.parametrize("command, override, field", [
    (["gen"], {"env": {"success_prob": 1.5}}, "env.success_prob"),
    (["solve"], {"setting": "pomdp", "solver": {"expansion_chunk": 0}},
     "solver.expansion_chunk"),
    (["gen"], {"setting": "darkroom", "darkroom": {"size": 0}}, "darkroom.size"),
    (["gen"], {"setting": "darkroom", "darkroom": {"horizon": 0}}, "darkroom.horizon"),
    (["darkroom"], {"darkroom": {"rollouts_per_goal": 0}}, "darkroom.rollouts_per_goal"),
    (["darkroom"], {"darkroom": {"train_fraction": 1.5}}, "darkroom.train_fraction"),
    (["export"], {"dataset": {"format": "dpt", "records_per_task": 0}},
     "dataset.records_per_task"),
    (["export"], {"dataset": {"format": "dpt", "context_trajectories": -1}},
     "dataset.context_trajectories"),
    (["theory-sim"], {"theory": {"tasks_per_cell": 1}}, "theory.tasks_per_cell"),
    (["theory-sim"], {"theory": {"dim": 0}}, "theory.dim"),
    (["theory-sim"], {"theory": {"prompt_lengths": [0]}}, "theory.prompt_lengths"),
    (["eval", "--grid"], {"grid": {"horizons": [0]}}, "grid.horizons"),
    (["eval", "--grid"], {"grid": {"num_tasks": 0}}, "grid.num_tasks"),
    (["eval", "--grid"], {"grid": {"policies": ["greedy"]}}, "grid.policies"),
    (["eval", "--grid"], {"grid": {"settings": ["darkroom"]}}, "grid.settings"),
])
def test_out_of_range_config_value_names_field(tmp_path, capsys, command, override,
                                               field):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(override))
    assert main([*command, "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err.startswith(f"config error: field {field!r}: ")


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
    # QMDP acts on beliefs, so neither fully observed setting takes it
    for setting in ("darkroom", "mdp"):
        cfg = write_config(tmp_path, setting=setting,
                           darkroom={"size": 5, "horizon": 10},
                           eval={"policy": "qmdp"})
        assert main(["eval", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
        assert f"qmdp does not apply to {setting}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["gen", "--jobs", "2"], "unrecognized arguments: --jobs 2"),
    (["solve", "--jobs", "2"], "unrecognized arguments: --jobs 2"),
    (["export", "--jobs", "2"], "unrecognized arguments: --jobs 2"),
    (["eval", "--grid", "--policy", "oracle"], "grid.policies decides"),
])
def test_no_option_is_accepted_and_then_ignored(tmp_path, capsys, argv, message):
    cfg = write_config(tmp_path)
    try:
        code = main([*argv, "--config", cfg, "--out", str(tmp_path / "run")])
    except SystemExit as exc:  # a usage error, raised by the parser
        code = exc.code
    assert code == 1
    assert message in capsys.readouterr().err


def test_eval_exits_2_when_every_oracle_value_is_non_positive(tmp_path, capsys):
    cfg = write_config(tmp_path, seed=4, num_tasks=1, env={"horizon": 1},
                       eval={"policy": "random", "rollouts_per_task": 1})
    assert main(["eval", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert "error: all tasks have non-positive oracle value" in capsys.readouterr().err


def _edit_task(path):
    data = json.loads(path.read_text())
    data["reward"][0][0] -= 0.01
    path.write_text(json.dumps(data, sort_keys=True, indent=1) + "\n")


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-8])


def test_task_files_of_another_setting_are_rejected(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["gen", "--config", write_config(tmp_path), "--out", out]) == 0
    pomdp = write_config(tmp_path, "pomdp.json", setting="pomdp")
    for command in ("solve", "export", "eval"):
        assert main([command, "--config", pomdp, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "task_0000.json has kind 'mdp', but (config, seed) builds 'pomdp'" in err
    # the checks run before any output directory is made
    for name in ("solutions", "corpus", "reports"):
        assert not (tmp_path / "run" / name).exists()
    # darkroom derives its goals from the config, whatever the task files hold
    dark = write_config(tmp_path, "dark.json", setting="darkroom",
                        darkroom={"size": 3, "horizon": 6})
    assert main(["darkroom", "--check", "--policy", "oracle", "--config", dark,
                 "--out", out]) == 0
    dark_out = str(tmp_path / "dark")
    assert main(["gen", "--config", dark, "--out", dark_out]) == 0
    two = write_config(tmp_path, "two.json", num_tasks=2)  # as many tasks as goals
    assert main(["solve", "--config", two, "--out", dark_out]) == 1
    assert ("task_0000.json has kind 'darkroom', but (config, seed) builds 'mdp'"
            in capsys.readouterr().err)


def _gen_run(tmp_path, name, **config):
    """``<tmp_path>/<name>``, where ``gen`` has written the tasks of ``config``."""
    out = tmp_path / name
    cfg = write_config(tmp_path, f"{name}.json", **config)
    assert main(["gen", "--config", cfg, "--out", str(out)]) == 0
    return out


def _meta(out):
    return load_task(out / "tasks" / "task_0000.json")[1]


def _assert_rejected(tmp_path, capsys, base, cases, commands):
    """Each ``(out, override, want)`` case: every command exits 1 with ``want``
    in its message and makes no output directory."""
    for out, override, want in cases:
        cfg = write_config(tmp_path, "case.json", **dict(base, **override))
        for command in commands:
            assert main([command, "--config", cfg, "--out", str(out)]) == 1
            assert want in capsys.readouterr().err
        for name in ("solutions", "corpus", "reports"):
            assert not (out / name).exists()


def test_task_files_of_another_config_are_rejected(tmp_path, capsys):
    gen = {"setting": "pomdp", "seed": 0, "num_tasks": 3,
           "env": {"energy_cap": 3, "horizon": 4}}
    fixed = {"env": {"energy_cap": 3, "horizon": 4, "success_prob": 0.75}}
    run, gapped, truncated, edited = (_gen_run(tmp_path, name, **gen)
                                      for name in ("run", "gapped", "truncated", "edited"))
    fixed_run = _gen_run(tmp_path, "fixed", **dict(gen, **fixed))
    # what gen writes at seed 7, for the expected messages
    seed7 = _gen_run(tmp_path, "seed7", **dict(gen, seed=7))
    fixed7 = _gen_run(tmp_path, "fixed7", **dict(gen, seed=7, **fixed))
    (gapped / "tasks" / "task_0001.json").unlink()
    _truncate(truncated / "tasks" / "task_0001.json")
    _edit_task(edited / "tasks" / "task_0001.json")
    _assert_rejected(tmp_path, capsys, gen, [
        (run, {"num_tasks": 5, "seed": 7, "env": {"energy_cap": 3, "horizon": 6}},
         f"{run / 'tasks'} holds 3 task file(s), task_0000.json to task_0002.json, "
         "but (config, seed) builds 5, task_0000.json to task_0004.json"),
        (run, {"env": {"energy_cap": 3, "horizon": 6}},
         "task_0000.json has horizon 4, but (config, seed) builds 6"),
        (run, {"env": {"energy_cap": 4, "horizon": 4}},
         "task_0000.json has num_obs 4, but (config, seed) builds 5"),
        (run, {"seed": 7},
         f"task_0000.json has meta {_meta(run)!r}, but (config, seed) builds {_meta(seed7)!r}"),
        (run, {"env": {"energy_cap": 3, "horizon": 4, "obs_prob": 0.6}},
         "task_0000.json has another observation than (config, seed) builds"),
        (fixed_run, dict(fixed, seed=7),
         f"task_0000.json has meta {_meta(fixed_run)!r}, "
         f"but (config, seed) builds {_meta(fixed7)!r}"),
        (gapped, {"num_tasks": 2},
         f"{gapped / 'tasks'} holds 2 task file(s), task_0000.json to task_0002.json, "
         "but (config, seed) builds 2, task_0000.json to task_0001.json"),
        (truncated, {}, f"task file {truncated / 'tasks' / 'task_0001.json'} cannot be "
                        "read: JSONDecodeError: "),
        (edited, {}, "task_0001.json has another reward than (config, seed) builds"),
    ], ("solve", "export", "eval"))
    # the config the files were made with still runs
    assert main(["solve", "--config", write_config(tmp_path, "gen.json", **gen),
                 "--out", str(run)]) == 0


def test_darkroom_task_files_of_another_config_are_rejected(tmp_path, capsys):
    gen = {"setting": "darkroom", "seed": 0, "darkroom": {"size": 3, "horizon": 6}}
    run, truncated = _gen_run(tmp_path, "run", **gen), _gen_run(tmp_path, "truncated", **gen)
    _truncate(truncated / "tasks" / "task_0001.json")
    _assert_rejected(tmp_path, capsys, gen, [
        (run, {"darkroom": {"size": 4, "horizon": 9}},
         f"{run / 'tasks'} holds 2 task file(s), task_0000.json to task_0001.json, "
         "but (config, seed) builds 3, task_0000.json to task_0002.json"),
        (run, {"darkroom": {"size": 3, "horizon": 9}},
         "task_0000.json has horizon 6, but (config, seed) builds 9"),
        (run, {"darkroom": {"size": 3, "horizon": 6, "subset": "all"}},
         f"{run / 'tasks'} holds 2 task file(s), task_0000.json to task_0001.json, "
         "but (config, seed) builds 9, task_0000.json to task_0008.json"),
        (run, {"seed": 2}, "task_0001.json has goal [0, 2], but (config, seed) builds [2, 1]"),
        (truncated, {}, f"task file {truncated / 'tasks' / 'task_0001.json'} cannot be "
                        "read: JSONDecodeError: "),
    ], ("solve", "export"))
    assert main(["solve", "--config", write_config(tmp_path, "gen.json", **gen),
                 "--out", str(run)]) == 0


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
    assert set(sol) == {"task_index", "reference", "kind", "expected_return"}

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


def test_every_command_manifest_records_wall_time_and_peak_rss(tmp_path):
    cfg = write_config(tmp_path, theory={
        "dim": 2, "num_actions": 2, "horizon": 3, "prompt_lengths": [10],
        "train_lengths": [100], "condition_numbers": [1], "tasks_per_cell": 20})
    out = tmp_path / "run"
    for command in ("gen", "solve", "export", "eval", "theory-sim"):
        start = time.perf_counter()
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        elapsed = time.perf_counter() - start
        manifest = json.loads((out / f"{command}.manifest.json").read_text())
        assert set(manifest) == {"command", "package_version", "created_unix", "wall_s",
                                 "peak_rss_mb", "config", "artifacts"}
        assert 0.0 < manifest["wall_s"] <= elapsed  # this command's time alone
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        assert 0.0 < manifest["peak_rss_mb"] <= peak_mb


SCIPY_FREE_PIPELINE = """\
import sys
sys.path.insert(0, sys.argv[1])
import decisionlab, decisionlab.cli
def scipy_modules():
    return sorted(key for key in sys.modules if key.startswith("scipy"))[:5]
assert not scipy_modules(), ("import", scipy_modules())
for command in (["gen"], ["solve"], ["export"], ["eval"], ["eval", "--grid"],
                ["darkroom", "--check", "--policy", "oracle"], ["theory-sim", "--check"]):
    args = command + ["--config", sys.argv[2], "--out", sys.argv[3]]
    assert decisionlab.cli.main(args) == 0
    assert not scipy_modules(), (command, scipy_modules())
from decisionlab import (LinearTaskFamily, LsaLayer, LsaPredictor, Rng, lsa_predict,
                         sample_prompt, train_lsa)
cov = [[2.0, 0.6], [0.6, 1.0]]
family, rng = LinearTaskFamily(dim=2, feature_cov=cov), Rng(0)
train_lsa(LsaLayer.initialized(2, rng.split(0)), family, rng.split(1), prompt_length=10,
          steps=20, batch_size=16)
lsa_predict(LsaPredictor.from_covariance(cov, 50),
            sample_prompt(family.sample_task(rng), 10, rng.split(2)))
assert not scipy_modules(), ("train_lsa", scipy_modules())
"""


def test_pipeline_before_eval_never_loads_scipy(tmp_path):
    """A fresh interpreter imports only numpy for the package and the CLI,
    and gen, solve, export, eval, eval --grid, darkroom and theory-sim load no
    scipy module (the grid's 129 tasks read the last stored t quantile, df
    128), nor do train_lsa, sample_prompt and the closed-form predictor."""
    cfg = write_config(tmp_path, setting="pomdp", num_tasks=2,
                       grid={"settings": ["mdp"], "horizons": [3], "policies": ["random"],
                             "num_tasks": 129},
                       darkroom={"size": 3, "horizon": 6, "subset": "all"},
                       theory={"dim": 3, "num_actions": 2, "horizon": 3,
                               "prompt_lengths": [10], "train_lengths": [100],
                               "condition_numbers": [1, 5], "tasks_per_cell": 20})
    src = str(Path(decisionlab.__file__).resolve().parent.parent)
    run = subprocess.run([sys.executable, "-c", SCIPY_FREE_PIPELINE, src, cfg,
                          str(tmp_path / "run")], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    reports = tmp_path / "run" / "reports"
    assert (reports / "eval.json").exists() and (reports / "darkroom.json").exists()
    assert len((reports / "grid.csv").read_text().splitlines()) == 2
    assert len((reports / "theory_e2.csv").read_text().splitlines()) == 3


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


def test_gen_removes_the_task_files_it_does_not_write(tmp_path):
    out = tmp_path / "run"
    for num_tasks in (3, 2):
        cfg = write_config(tmp_path, num_tasks=num_tasks)
        assert main(["gen", "--config", cfg, "--out", str(out)]) == 0
        (out / "tasks" / "notes.txt").write_text("not a task file")
    names = sorted(p.name for p in (out / "tasks").glob("task_*.json"))
    assert names == ["task_0000.json", "task_0001.json"]
    manifest = json.loads((out / "gen.manifest.json").read_text())
    assert manifest["artifacts"] == [f"tasks/{name}" for name in names]
    assert (out / "tasks" / "notes.txt").exists()
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0


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


def test_eval_grid_skips_qmdp_for_mdp(tmp_path):
    cfg = write_config(
        tmp_path,
        grid={"settings": ["mdp", "pomdp"], "horizons": [3], "obs_probs": [0.8],
              "policies": ["random", "qmdp"], "num_tasks": 2})
    out = tmp_path / "run"
    assert main(["eval", "--grid", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "reports" / "grid.csv").read_text().splitlines()
    cells = [tuple(line.split(",")[:2]) for line in lines[1:]]
    assert cells == [("mdp", "random"), ("pomdp", "random"), ("pomdp", "qmdp")]


# Replies with current_obs mod num_actions, so every action is valid.
ECHO_POLICY = """\
import json, sys
for line in sys.stdin:
    request = json.loads(line)
    print(json.dumps({"action": request["current_obs"] % request["num_actions"]}),
          flush=True)
"""


# On a 5x5 Darkroom: wastes step 1 on "left", then walks down and right to
# the goal its task_id names ("darkroom_<row>_<col>") and stays there.
SEEK_POLICY = """\
import json, sys
for line in sys.stdin:
    request = json.loads(line)
    row, col = map(int, request["task_id"].split("_")[1:])
    here_row, here_col = divmod(request["current_obs"], 5)
    if request["step"] == 1:
        action = 2
    elif here_row < row:
        action = 1
    elif here_col < col:
        action = 3
    else:
        action = 4
    print(json.dumps({"action": action}), flush=True)
"""


def external_config(tmp_path, policy=ECHO_POLICY, **overrides):
    script = tmp_path / "policy.py"
    script.write_text(policy)
    return write_config(tmp_path, eval={
        "policy": "external", "rollouts_per_task": 4,
        "external": {"transport": "child", "argv": [sys.executable, str(script)],
                     "timeout": 30.0}}, **overrides)


def test_eval_external_policy_over_child_transport(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["eval", "--config", external_config(tmp_path),
                 "--out", str(out)]) == 0
    report = json.loads((out / "reports" / "eval.json").read_text())
    assert report["policy"] == "external" and report["reference"] == "exact"
    assert report["invalid_actions"] == 0
    assert report["num_tasks"] + report["degenerate_count"] == 3
    assert "eval: mdp/external mean gap" in capsys.readouterr().out


def test_eval_grid_runs_an_external_policy(tmp_path):
    cfg = external_config(tmp_path, grid={
        "settings": ["mdp"], "horizons": [3], "policies": ["random", "external"],
        "num_tasks": 2})
    out = tmp_path / "run"
    # the grid opens one client and evaluates serially whatever --jobs says
    assert main(["eval", "--grid", "--jobs", "2", "--config", cfg,
                 "--out", str(out)]) == 0
    lines = (out / "reports" / "grid.csv").read_text().splitlines()
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    assert [row["policy"] for row in rows] == ["random", "external"]
    assert all(row["invalid_actions"] == "0" for row in rows)


# ---------------------------------------------------------------------------
# golden report digests


# SHA-256 of the report files.  Reruns only prove determinism within one
# version; these fixed values pin the bytes of eval.json, grid.csv and
# darkroom.csv/.json across versions.
GOLDEN_REPORT_DIGESTS = {
    "pomdp/random/eval.json":
        "31e024d91f42b96ccd556d1175b2c10fea8e3f02ec15b514dbfe45c55c1641de",
    "pomdp/oracle/eval.json":
        "ccf2b3182e6bc414d11bed0cbf6aeb903d522ae8e1e42387f208aa1774d0194a",
    "pomdp/qmdp/eval.json":
        "17100cbc9d73b88f4f6bf9f8ccf196060da819b9a71b8e0a00eda6c066bd3f88",
    "fallback/random/eval.json":
        "87e1e28b729e569d847865d8a18ac30d73ca68469da43fdef14ae59a08de2f62",
    "fallback/oracle/eval.json":
        "445ddb87b06573b736a5784ae9c946a0f626e883d8499d5fd5b6d0b0af73ff09",
    "fallback/qmdp/eval.json":
        "ff1f10d7f366b30ef60799620a279e684d795520548f6aacb34b5257a3f4a724",
    "grid.csv":
        "172f528e1105609a6a6d234d5fb4de334bc3e057c0ae471bf3e674bd9c5d640a",
    "darkroom/oracle/darkroom.csv":
        "a05d6ccb187cb5eb29220f29c08b115c3fb45e79b2a041549a4f38ee98bba84f",
    "darkroom/oracle/darkroom.json":
        "f5e41bf6b98ab79f70e25fe0df4574fef45290d327a097953e55de79193c2cc0",
    "darkroom/random/darkroom.csv":
        "a537d70b26fae650a49ed363ebe8086cd03313c36c47977a3d58a918a98af609",
    "darkroom/random/darkroom.json":
        "5b2d1a599af968f7aecafbc49a0f6ca1fc527ef1e4b19e99df081c8a52e67bf6",
}


# SHA-256 of ``darkroom --policy external`` reports over the child transport
# (size 5, T 12, all goals, 2 episodes each), per policy script.
DARKROOM_EXTERNAL_DIGESTS = {
    "echo/darkroom.csv":
        "6d8aafb46a1ac50159b2dd08ca798b939c4806e73be694e8fd83f1356a940470",
    "echo/darkroom.json":
        "047b5567c7b2f8931d805fcc5ac74722c931cf9bdfce3e1e5d1d3ac3199a1a42",
    "seek/darkroom.csv":
        "a8cbc53e38e1a3a0ef2c50c49186f3e7fea4ef4fb4c85a15c4f6f24c94e8a923",
    "seek/darkroom.json":
        "e864aa5fa4afb62e2cf441260eef5ffe9fd6ef8821049b3e7cbf6e7866d65fe8",
}


@pytest.mark.parametrize("name, policy", [("echo", ECHO_POLICY), ("seek", SEEK_POLICY)])
def test_darkroom_external_golden_digests(tmp_path, name, policy):
    cfg = external_config(tmp_path, policy, darkroom={
        "size": 5, "horizon": 12, "subset": "all", "rollouts_per_goal": 2})
    out = tmp_path / "run"
    assert main(["darkroom", "--policy", "external", "--config", cfg,
                 "--out", str(out)]) == 0
    digests = {f"{name}/{n}": hashlib.sha256((out / "reports" / n).read_bytes()).hexdigest()
               for n in ("darkroom.csv", "darkroom.json")}
    assert digests == {k: v for k, v in DARKROOM_EXTERNAL_DIGESTS.items()
                       if k.startswith(f"{name}/")}


def test_report_golden_digests(tmp_path):
    reports = {}
    for name, extra in (("pomdp", {}), ("fallback", {"solver": {"node_budget": 50}})):
        cfg = write_config(tmp_path, f"{name}.json", setting="pomdp", **extra)
        for policy in ("random", "oracle", "qmdp"):
            out = tmp_path / name / policy
            assert main(["eval", "--policy", policy, "--config", cfg,
                         "--out", str(out)]) == 0
            reports[f"{name}/{policy}/eval.json"] = out / "reports" / "eval.json"
    fallback = json.loads(reports["fallback/random/eval.json"].read_text())
    assert fallback["reference"] == "qmdp-fallback"
    cfg = write_config(tmp_path, "grid.json", grid={
        "settings": ["mdp", "pomdp", "apomdp"], "horizons": [3], "obs_probs": [0.8],
        "model_counts": [2], "policies": ["random", "oracle"], "num_tasks": 2})
    assert main(["eval", "--grid", "--config", cfg, "--out", str(tmp_path / "grid")]) == 0
    reports["grid.csv"] = tmp_path / "grid" / "reports" / "grid.csv"
    cfg = write_config(tmp_path, "darkroom.json",
                       darkroom={"size": 5, "horizon": 12, "rollouts_per_goal": 2})
    for policy in ("oracle", "random"):
        out = tmp_path / "darkroom" / policy
        assert main(["darkroom", "--policy", policy, "--config", cfg,
                     "--out", str(out)]) == 0
        for name in ("darkroom.csv", "darkroom.json"):
            reports[f"darkroom/{policy}/{name}"] = out / "reports" / name
    digests = {key: hashlib.sha256(path.read_bytes()).hexdigest()
               for key, path in reports.items()}
    assert digests == GOLDEN_REPORT_DIGESTS


# SHA-256 of ``export``'s corpus and its sibling manifest, per setting and
# format; "fallback" is the pomdp with a node budget that forces qmdp-fallback
# oracles, noisy enough that they label some steps unlike the exact ones.
GOLDEN_CORPUS_DIGESTS = {
    "mdp/sft/sft.jsonl":
        "d4a69538da9886e4d7a3f83d1e404c7f8f6118f861b7a87e77f728cfef02d941",
    "mdp/sft/sft.jsonl.manifest.json":
        "5d6584c690bd9e38097ff357e7f4b530960836c4b8d1b17ca9f5d265d3a3032f",
    "mdp/dpt/dpt.jsonl":
        "bf594d1787533e7aaa61d82945fa313ac6ed2d5ad7a86a4cd8aa7dbfc1faad96",
    "mdp/dpt/dpt.jsonl.manifest.json":
        "d4712282b109fcb39faf86c428d076f76174153c087a6037cedcb0fdd3b16584",
    "pomdp/sft/sft.jsonl":
        "2cf3640759b303e970ad35b31e1f5febe0985487e61066855f1140a9db448d34",
    "pomdp/sft/sft.jsonl.manifest.json":
        "b7bc6e249b34e4204e398255ba28fdf3dcb39ed7bbde9f4766361a1087fdc8eb",
    "pomdp/dpt/dpt.jsonl":
        "ccd0fcdb393f863efa4d94f52d1809aee921f4eaf77e0a8db6131ab2b120f143",
    "pomdp/dpt/dpt.jsonl.manifest.json":
        "4cda601770f9777b6d978517d94960e6b08e894cabea063e44288ddf604a5ba6",
    "apomdp/sft/sft.jsonl":
        "d905c0d32738a5284ad1a8ad778da324199042085e9a2debfceab293bd498638",
    "apomdp/sft/sft.jsonl.manifest.json":
        "dd8661ad58c43a69e7b0d52b9b32f26753bda40996b7556d8d1b3db2c5e4bca2",
    "apomdp/dpt/dpt.jsonl":
        "a960e957a2f3fc50e4ffbfc543bc90bc2517406e3d5393d7a8e7eab45f9e14ff",
    "apomdp/dpt/dpt.jsonl.manifest.json":
        "a77b24ee918d5ce32ca1a40f73ee4abb5ecba855d63eb488ce1f8dfd205e2e31",
    "fallback/sft/sft.jsonl":
        "534ad7fc7413eb2410f94929ef2c06df0e76e78fbd63edbb6b43493d272f1796",
    "fallback/sft/sft.jsonl.manifest.json":
        "2b07b72aaaa2ce2b863710923f69dc3736e72915e90473a658f856631b5c36ba",
    "fallback/dpt/dpt.jsonl":
        "9fb9beb56f67dac881b23dc50ff1c09cbedc74e21eec8db37582965d2cb74527",
    "fallback/dpt/dpt.jsonl.manifest.json":
        "076febbf0b2caa6ec09344fb48340541431ced767cbeca8a16a56a98b808fbac",
}

NOISY_ENV = {"energy_cap": 4, "horizon": 4, "obs_prob": 0.6}
CORPUS_CASES = {
    "mdp": {"setting": "mdp"},
    "pomdp": {"setting": "pomdp", "env": NOISY_ENV},
    "apomdp": {"setting": "apomdp", "env": {"energy_cap": 3, "horizon": 3},
               "ambiguity": {"num_models": 2}},
    "fallback": {"setting": "pomdp", "env": NOISY_ENV, "solver": {"node_budget": 50}},
}


def test_corpus_golden_digests(tmp_path):
    digests = {}
    for name, case in CORPUS_CASES.items():
        for fmt in ("sft", "dpt"):
            cfg = write_config(tmp_path, f"{name}-{fmt}.json", **case, dataset={
                "format": fmt, "trajectories_per_task": 3, "records_per_task": 4,
                "context_trajectories": 2})
            out = tmp_path / name / fmt
            _run(cfg, out, "gen", "export")
            labels = json.loads((out / "corpus" / f"{fmt}.jsonl.manifest.json").read_text())
            assert labels["reference_labels"] == {
                "qmdp-fallback" if name == "fallback" else "exact": 3}
            for path in (out / "corpus" / f"{fmt}.jsonl",
                         out / "corpus" / f"{fmt}.jsonl.manifest.json"):
                digests[f"{name}/{fmt}/{path.name}"] = hashlib.sha256(
                    path.read_bytes()).hexdigest()
    assert digests == GOLDEN_CORPUS_DIGESTS


# Appends every request line it reads to the file named by argv[1], then
# replies as ECHO_POLICY does.
RECORD_POLICY = """\
import json, sys
with open(sys.argv[1], "ab") as log:
    for line in sys.stdin.buffer:
        log.write(line)
        log.flush()
        request = json.loads(line)
        print(json.dumps({"action": request["current_obs"] % request["num_actions"]}),
              flush=True)
"""

# SHA-256 of every byte ``eval --policy external`` sends over the child
# transport, in order (3 tasks, 4 episodes each; within a task, period 1's
# request of every episode, then period 2's, and so on).
GOLDEN_REQUEST_STREAM_DIGESTS = {
    "mdp":
        "d18d2edf4189220c78880e45eae3305fc465fcae549338a11ec49d96e4aca73c",
    "pomdp":
        "6ed63d750a3dce4a998ed1693312098aaca440bd2784d28818e57adc1a2b7a7d",
}
# SHA-256 of the same request lines sorted: the bytes of each request,
# whatever order they go out in
GOLDEN_SORTED_REQUEST_DIGESTS = {
    "mdp":
        "e141948c72eab94f423a094ae770c3664b72bd0f58c2ad9cbf4315e4369b7733",
    "pomdp":
        "333d8a62e5cbfd5656d2ff124aedfc0c8d2d268714aafe3361c6b51e7978e64f",
}


@pytest.fixture(scope="module")
def external_request_logs(tmp_path_factory):
    """Every byte ``eval --policy external`` sends over the child transport,
    logged by a child that replies ``current_obs % num_actions``."""
    tmp_path = tmp_path_factory.mktemp("requests")
    script = tmp_path / "policy.py"
    script.write_text(RECORD_POLICY)
    logs = {}
    for setting in ("mdp", "pomdp"):
        log = tmp_path / f"{setting}.ndjson"
        cfg = write_config(tmp_path, f"{setting}.json", setting=setting, eval={
            "policy": "external", "rollouts_per_task": 4,
            "external": {"transport": "child", "timeout": 30.0,
                         "argv": [sys.executable, str(script), str(log)]}})
        _run(cfg, tmp_path / setting, "gen", "eval")
        logs[setting] = log.read_bytes()
    return logs


def test_external_request_stream_golden_digests(external_request_logs):
    digests = {}
    for setting, stream in external_request_logs.items():
        requests = [json.loads(line) for line in stream.splitlines()]
        horizon = FAST_CONFIG["env"]["horizon"]
        assert [(r["task_id"], r["step"]) for r in requests] == [
            (f"task_{i:04d}", t) for i in range(3) for t in range(1, horizon + 1)
            for _ in range(4)]
        digests[setting] = hashlib.sha256(stream).hexdigest()
    assert digests == GOLDEN_REQUEST_STREAM_DIGESTS


def test_external_request_lines_golden_digests(external_request_logs):
    digests = {setting: hashlib.sha256(b"\n".join(sorted(stream.splitlines()))).hexdigest()
               for setting, stream in external_request_logs.items()}
    assert digests == GOLDEN_SORTED_REQUEST_DIGESTS


# ---------------------------------------------------------------------------
# oracles that solve stored, loaded by export and eval

STORED_CASES = {
    "pomdp": {"setting": "pomdp", "num_tasks": 2},
    "apomdp": {"setting": "apomdp", "num_tasks": 2, "env": {"energy_cap": 3, "horizon": 3},
               "ambiguity": {"num_models": 2},
               "dataset": {"format": "dpt", "records_per_task": 2}},
    "fallback": {"setting": "pomdp", "num_tasks": 2, "solver": {"node_budget": 50}},
}


@pytest.fixture
def belief_solves(monkeypatch):
    """Counts the belief-tree solves that ``reference_policy`` starts."""
    calls = []
    for name in ("solve_pomdp", "solve_apomdp"):
        solve = getattr(evaluation, name)
        monkeypatch.setattr(evaluation, name,
                            lambda *a, _solve=solve, **k: calls.append(1) or _solve(*a, **k))
    return calls


def _run(cfg, out, *commands):
    for command in commands:
        assert main([command, "--config", cfg, "--out", str(out)]) == 0


def _outputs(out):
    """Corpus and report bytes, the artifacts a stored oracle must not move."""
    return {rel: data for rel, data in artifact_bytes(out).items()
            if rel.startswith(("corpus", "reports"))}


@pytest.mark.parametrize("case, label", [("pomdp", "exact"), ("apomdp", "exact"),
                                         ("fallback", "qmdp-fallback")])
def test_export_and_eval_load_what_solve_stored(tmp_path, belief_solves, case, label):
    cfg = write_config(tmp_path, **STORED_CASES[case])
    stored, fresh = tmp_path / "stored", tmp_path / "fresh"
    _run(cfg, stored, "gen", "solve")
    assert len(belief_solves) == 2
    _run(cfg, stored, "export", "eval")
    assert len(belief_solves) == 2  # export and eval solved nothing again
    _run(cfg, fresh, "gen", "export", "eval")
    assert len(belief_solves) == 6
    assert _outputs(stored) == _outputs(fresh)
    assert len(_outputs(stored)) == 3
    manifest = next((stored / "corpus").glob("*.manifest.json"))
    assert json.loads(manifest.read_text())["reference_labels"] == {label: 2}
    assert json.loads((stored / "reports" / "eval.json").read_text())["reference"] == label


def test_fallback_records_say_why(tmp_path):
    cfg = write_config(tmp_path, **STORED_CASES["fallback"])
    out = tmp_path / "run"
    _run(cfg, out, "gen", "solve")
    record = json.loads((out / "solutions" / "solution_0000.json").read_text())
    assert set(record) == {"task_index", "reference", "reason", "period", "nodes",
                           "inputs_sha256"}
    assert record["reference"] == "qmdp-fallback" and record["reason"] == "node_budget"
    task, _ = load_task(out / "tasks" / "task_0000.json")
    with pytest.raises(BudgetExceeded) as exc:
        solve_pomdp(task, BeliefSolverConfig(node_budget=50))
    assert (record["period"], record["nodes"]) == (exc.value.period, exc.value.nodes)
    assert record["nodes"] > 50
    assert not list((out / "solutions").glob("*.npy"))


def test_solve_summary_counts_fallbacks_by_reason(tmp_path, capsys):
    cfg = write_config(tmp_path, **STORED_CASES["fallback"])
    _run(cfg, tmp_path / "fallback", "gen", "solve")
    assert "(2 fell back to qmdp: node_budget 2)\n" in capsys.readouterr().out
    _run(write_config(tmp_path, "exact.json", **STORED_CASES["pomdp"]),
         tmp_path / "exact", "solve")
    assert "fell back" not in capsys.readouterr().out


def test_exact_belief_records_name_their_arrays(tmp_path):
    cfg = write_config(tmp_path, **STORED_CASES["pomdp"])
    out = tmp_path / "run"
    _run(cfg, out, "gen", "solve")
    record = json.loads((out / "solutions" / "solution_0001.json").read_text())
    keys, values = (out / "solutions" / f"solution_0001.{name}.npy"
                    for name in ("keys", "values"))
    both = keys.read_bytes() + values.read_bytes()
    assert record["arrays_sha256"] == hashlib.sha256(both).hexdigest()
    nodes = sum(record["level_sizes"])
    assert nodes == record["node_count"]
    assert np.load(keys).shape == (nodes, 5) and np.load(keys).dtype == ">i4"
    assert np.load(values).shape == (nodes,) and np.load(values).dtype == np.float64
    manifest = json.loads((out / "solve.manifest.json").read_text())
    assert "solutions/solution_0001.keys.npy" in manifest["artifacts"]
    rerun = tmp_path / "rerun"
    _run(cfg, rerun, "solve")  # from (config, seed), without task files
    assert artifact_bytes(rerun / "solutions") == artifact_bytes(out / "solutions")


@pytest.mark.parametrize("damage", ["task", "keys", "values", "record"])
def test_stale_or_damaged_stored_oracle_is_solved_again(tmp_path, belief_solves, damage):
    """A record for another task, a damaged array or a damaged record is solved
    again, once per command, and the outputs equal a fresh directory's.  (An
    edited task file stops the command: see the task-file rejection tests.)"""
    cfg = write_config(tmp_path, **STORED_CASES["pomdp"])
    stored, fresh = tmp_path / "stored", tmp_path / "fresh"
    if damage == "task":  # both records are for seed 7's tasks, and no gen ran
        _run(write_config(tmp_path, "seed7.json", **STORED_CASES["pomdp"], seed=7),
             stored, "solve")
    else:
        _run(cfg, stored, "gen", "solve")
        sol = stored / "solutions"
        {"keys": lambda: _truncate(sol / "solution_0001.keys.npy"),
         "values": lambda: (sol / "solution_0001.values.npy").unlink(),
         "record": lambda: _truncate(sol / "solution_0001.json")}[damage]()
    del belief_solves[:]
    _run(cfg, stored, "export", "eval")
    stale = 2 if damage == "task" else 1  # tasks 0 and 1, or task 1
    assert len(belief_solves) == 2 * stale  # each stale task, once per command
    _run(cfg, fresh, "gen", "export", "eval")
    assert _outputs(stored) == _outputs(fresh)


def test_solver_section_change_makes_records_stale(tmp_path, belief_solves):
    out = tmp_path / "run"
    _run(write_config(tmp_path, **STORED_CASES["pomdp"]), out, "gen", "solve")
    coarse = write_config(tmp_path, "coarse.json", **STORED_CASES["pomdp"],
                          solver={"quantization": 0.01})
    del belief_solves[:]
    _run(coarse, out, "eval")
    assert len(belief_solves) == 2


def test_eval_jobs_over_loaded_oracles_equals_serial(tmp_path, belief_solves):
    cfg = write_config(tmp_path, **dict(STORED_CASES["pomdp"], num_tasks=3),
                       eval={"policy": "random", "rollouts_per_task": 6})
    out = tmp_path / "run"
    _run(cfg, out, "gen", "solve", "eval")
    serial = (out / "reports" / "eval.json").read_bytes()
    assert main(["eval", "--jobs", "2", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "reports" / "eval.json").read_bytes() == serial
    assert len(belief_solves) == 3  # solve's only


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


def test_theory_sim_check_fails_without_coverage(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        theory={"dim": 3, "num_actions": 3, "horizon": 4, "prompt_lengths": [10],
                "train_lengths": [100], "condition_numbers": [1],
                "tasks_per_cell": 200, "coverage": 0.0})
    assert main(["theory-sim", "--check", "--config", cfg,
                 "--out", str(tmp_path / "run")]) == 3
    assert "theory check: FAIL" in capsys.readouterr().out


def test_theory_sim_prompts_shorter_than_the_dimension(tmp_path):
    cfg = write_config(tmp_path, theory={"dim": 10, "prompt_lengths": [2, 5]})
    csv = {}
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["theory-sim", "--jobs", jobs, "--config", cfg, "--out", str(out)]) == 0
        csv[jobs] = (out / "reports" / "theory_e2.csv").read_bytes()
    assert csv["2"] == csv["1"]
    lines = csv["1"].decode().splitlines()
    assert len(lines) == 1 + 3 * 3 * 2  # header + default kappa x N, two M
    for line in lines[1:]:
        assert all(math.isfinite(float(cell)) for cell in line.split(","))


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


@pytest.mark.parametrize("horizon, subset", [(5, "test"), (18, "all"), (19, "all")])
def test_darkroom_check_oracle_at_short_horizons(tmp_path, capsys, horizon, subset):
    # at 18 the far corner (9, 9) is just out of reach, at 19 just in reach
    cfg = write_config(
        tmp_path,
        darkroom={"horizon": horizon, "subset": subset, "rollouts_per_goal": 2})
    out = tmp_path / "run"
    assert main(["darkroom", "--check", "--policy", "oracle", "--config", cfg,
                 "--out", str(out)]) == 0
    assert "darkroom check: pass" in capsys.readouterr().out
    lines = (out / "reports" / "darkroom.csv").read_text().splitlines()
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    assert len(rows) == (100 if subset == "all" else 20)
    for row in rows:
        distance = int(row["goal_row"]) + int(row["goal_col"])
        assert float(row["oracle_return"]) == max(0, horizon - distance)
        assert row["mean_return"] == row["oracle_return"]


def test_darkroom_check_random(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        darkroom={"size": 8, "horizon": 24, "rollouts_per_goal": 2},
        eval={"policy": "random"})
    out = tmp_path / "run"
    assert main(["darkroom", "--check", "--policy", "random", "--config", cfg,
                 "--out", str(out)]) == 0
    assert "darkroom check: pass" in capsys.readouterr().out


def test_darkroom_check_fails_when_random_scores_too_well(tmp_path, capsys):
    # on a 1x1 grid the start is the goal: each step's uniform action is
    # stay, earning 1, one time in five, so the mean is near 4, not below 2
    cfg = write_config(tmp_path, darkroom={"size": 1, "subset": "all", "horizon": 20,
                                           "rollouts_per_goal": 2})
    assert main(["darkroom", "--check", "--policy", "random", "--config", cfg,
                 "--out", str(tmp_path / "run")]) == 3
    assert "darkroom check: FAIL" in capsys.readouterr().out


def test_darkroom_jobs_write_the_serial_bytes(tmp_path):
    cfg = write_config(tmp_path, darkroom={"size": 5, "horizon": 12, "subset": "all",
                                           "rollouts_per_goal": 2})
    for policy in ("random", "oracle"):
        reports = {}
        for jobs in ("1", "2"):
            out = tmp_path / policy / f"jobs{jobs}"
            assert main(["darkroom", "--policy", policy, "--jobs", jobs, "--config", cfg,
                         "--out", str(out)]) == 0
            reports[jobs] = [(out / "reports" / name).read_bytes()
                             for name in ("darkroom.csv", "darkroom.json")]
        assert reports["1"] == reports["2"]
