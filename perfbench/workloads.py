"""The benchmark's three workloads, each a round of operations over a seed.

Each workload is a function ``(p, seed, rounds)`` that builds its configs
from the seed alone and, for each index ``rounds`` yields, runs every one of
its operations once through ``p`` (a ``harness.Pass``), checking every
output.  Why each workload exists, and what each one measures, is in
``perfbench/README.md``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

import decisionlab as dl
from decisionlab.dataset import decode, encode, read_jsonl

from harness import CheckFailed, Command

HERE = Path(__file__).resolve().parent

# The README quick start is quoted verbatim at its own seed.
README_SEED = 0
README_GAP_LINE = "random-policy gap 0.535 [0.454, 0.616]"
README_ENCODING_PREFIX = "<O_1> 1, <A_1> 0, <R_1> -0.02, <O_2> 2, <A_2> 0, <R_2> -0.02, "

# acceptance-8 trainer settings; the step count is sized for the run length
TRAIN_DIM, TRAIN_PROMPT_LENGTH, TRAIN_STEPS = 2, 50, 500


def _require(cond: bool, why: str):
    if not cond:
        raise CheckFailed(why)


def _write_config(path: Path, cfg: dict) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg, sort_keys=True, indent=1) + "\n")
    return str(path)


def _solutions(cmd: Command, num_tasks: int, label: str) -> dict:
    """Seed-independent label check plus the values a seed records: per belief
    task its label, level sizes and root value; for mdp tasks the sum of their
    expected returns."""
    paths = sorted((cmd.out / "solutions").glob("solution_*.json"))
    _require(len(paths) == num_tasks, f"{len(paths)} solution records, want {num_tasks}")
    values, returns = {}, []
    for path in paths:
        rec = json.loads(path.read_text())
        _require(rec["reference"] == label,
                 f"{path.name}: reference {rec['reference']!r}, want {label!r}")
        if rec.get("kind") == "mdp":
            returns.append(rec["expected_return"])
            continue
        key = path.stem
        values[f"{key}.reference"] = rec["reference"]
        if rec.get("kind") == "belief":
            _require(rec["level_sizes"][0] == 1,
                     f"{path.name}: root level is not one belief")
            values[f"{key}.level_sizes"] = rec["level_sizes"]
            values[f"{key}.root_value"] = rec["root_value"]
    if returns:
        values["expected_return_sum"] = math.fsum(returns)
    return values


def _eval_report(cmd: Command, num_tasks: int, reference: str) -> dict:
    report = json.loads((cmd.out / "reports" / "eval.json").read_text())
    _require(report["invalid_actions"] == 0,
             f"{report['invalid_actions']} invalid action(s)")
    _require(report["reference"] == reference,
             f"reference {report['reference']!r}, want {reference!r}")
    _require(report["num_tasks"] + report["degenerate_count"] == num_tasks,
             "task count does not add up")
    _require(math.isfinite(report["mean_gap"]), "mean gap is not finite")
    return {"mean_gap": report["mean_gap"], "reference": report["reference"]}


# ---------------------------------------------------------------------------
# belief-large: the largest trees that still solve exactly in seconds


# How many lazy nodes (a)'s one oracle episode adds depends on the task and the
# draws (3,400 to 6,600 over seeds 0-9; it leaves the solved tree at every one
# of them), so (a) runs at this seed whatever the run's seed: its oracle
# queries miss the tree, adding 5,194 nodes, on every run.
A_SEED = 0


def belief_large_configs(seed: int) -> dict[str, dict]:
    return {
        "a": {"setting": "pomdp", "seed": A_SEED, "num_tasks": 1,
              "env": {"energy_cap": 9, "horizon": 5, "obs_prob": 0.8},
              "eval": {"policy": "random", "rollouts_per_task": 1}},
        "b": {"setting": "apomdp", "seed": seed, "num_tasks": 1,
              "env": {"energy_cap": 9, "horizon": 4},
              "ambiguity": {"num_models": 3, "alpha": 0.5},
              "dataset": {"format": "dpt", "records_per_task": 1}},
        # the time to overflow the budget depends on the drawn success
        # probability (2.1 s to 3.5 s over ten seeds), so (c) fixes it at the
        # middle of the default range, which leaves nothing for the seed to draw
        "c": {"setting": "pomdp", "seed": seed, "num_tasks": 1,
              "env": {"energy_cap": 6, "horizon": 6, "success_prob": 0.75},
              "solver": {"node_budget": 200_000}},
    }


def belief_large(p, seed: int, rounds):
    configs = belief_large_configs(seed)
    args = {}
    for name, cfg in configs.items():
        args[name] = ["--config", _write_config(p.out / f"{name}.json", cfg),
                      "--out", str(p.out / name)]

    def dpt_corpus(cmd: Command):
        ds = configs["b"]["dataset"]
        records = read_jsonl(cmd.out / "corpus" / "dpt.jsonl")
        want = configs["b"]["num_tasks"] * ds["records_per_task"]
        _require(len(records) == want, f"{len(records)} DPT records, want {want}")
        for rec in records:
            _require(0 <= rec["label"] < 3, f"label {rec['label']} out of range")
            _require(1 <= rec["query_step"] <= configs["b"]["env"]["horizon"],
                     "query step outside the horizon")
        return {"labels": [rec["label"] for rec in records]}

    for _ in rounds:
        for name in configs:
            p.cli("setup", f"{name}.gen", ["gen", *args[name]])
        p.cli("solve", "a.solve", ["solve", *args["a"]],
              lambda cmd: _solutions(cmd, 1, "exact"))
        p.cli("solve", "b.solve", ["solve", *args["b"]],
              lambda cmd: _solutions(cmd, 1, "exact"))
        p.cli("solve", "c.solve", ["solve", *args["c"]],
              lambda cmd: _solutions(cmd, 1, "qmdp-fallback"))
        p.cli("eval", "a.eval", ["eval", "--policy", "random", *args["a"]],
              lambda cmd: _eval_report(cmd, 1, "exact"))
    # The DPT export's oracle episode depends on the seed's draws (it may stay
    # on the solved tree or leave it), so it runs once, after the rounds, in
    # the "queries" phase, which pipeline_s leaves out.
    p.cli("queries", "b.export", ["export", *args["b"]], dpt_corpus)


# ---------------------------------------------------------------------------
# quickstart: the README quick start, verbatim, through the public API


# The quick start runs at the README's seed whatever the run's seed: its oracle
# queries depend on the five tasks it draws (31,000 to 43,000 lazily added
# nodes over seeds 0-9), which would move its time from seed to seed more than
# a change to the program might.


def quickstart(p, _seed: int, rounds):
    for _ in rounds:
        _quickstart_once(p)


def _quickstart_once(p):
    rng = dl.Rng(README_SEED)
    tasks = p.run("setup", "generate_tasks", lambda: dl.generate_tasks(
        "pomdp", 5, dl.EnergyParams(energy_cap=5, horizon=5), dl.AmbiguityConfig(),
        rng.split(0)))
    if tasks is None:
        return

    def solved(oracles):
        values = {}
        for i, handle in enumerate(oracles):
            sol = handle.solution
            _require(handle.kind == "oracle", f"task {i} has no exact oracle")
            values[f"task_{i}.level_sizes"] = sol.level_sizes
            values[f"task_{i}.root_value"] = sol.root_value
        return values

    oracles = p.run("solve", "reference_policy",
                    lambda: [dl.reference_policy(task)[0] for task in tasks], solved)
    if oracles is None:
        return

    def gap(report):
        line = (f"random-policy gap {report.mean_gap:.3f} "
                f"[{report.ci_low:.3f}, {report.ci_high:.3f}]")
        p.artifact("gap_line", line.encode())
        p.artifact("task_gaps", repr(report.task_gaps).encode())
        _require(report.invalid_actions == 0, "invalid actions from the random policy")
        _require(report.num_tasks + report.degenerate_count == 5, "task count")
        _require(line == README_GAP_LINE, f"printed {line!r}, README says "
                                          f"{README_GAP_LINE!r}")
        return {"mean_gap": report.mean_gap}

    p.run("eval", "optimality_gap", lambda: dl.optimality_gap(
        tasks, oracles, dl.PolicyHandle.random(), rng.split(1),
        rollouts_per_task=30), gap)
    result = p.run("eval", "rollout",
                   lambda: dl.rollout(tasks[0], oracles[0], rng.split(2)))
    if result is None:
        return

    def encoding(text):
        p.artifact("encoding", text.encode())
        _require(encode(decode(text)) == text, "encoding does not round-trip")
        _require(len(decode(text)) == 5, "episode is not five periods long")
        _require(text.startswith(README_ENCODING_PREFIX),
                 f"printed {text[:70]!r}..., README says {README_ENCODING_PREFIX!r}")
        return {"encoding": text}

    p.run("eval", "encode", lambda: dl.encode(result.trajectory), encoding)


# ---------------------------------------------------------------------------
# observed-theory: everything that never enters the belief-tree solver


def observed_theory_config(seed: int) -> dict:
    # 100 tasks make gen and solve long enough to time; 6 rollouts and 3
    # trajectories per task keep eval, the external eval and export at the
    # episode counts of 20 tasks with the default 30 and 15
    return {
        "setting": "mdp", "seed": seed, "num_tasks": 100,
        "env": {"energy_cap": 9, "horizon": 10},
        "dataset": {"format": "sft", "trajectories_per_task": 3},
        "eval": {"policy": "random", "rollouts_per_task": 6,
                 "external": {"transport": "child", "timeout": 60.0,
                              "argv": [sys.executable, str(HERE / "policy_child.py")]}},
        "grid": {"settings": ["mdp"], "horizons": [5, 10, 15], "num_tasks": 20},
        "darkroom": {"subset": "all"},
    }


def observed_theory(p, seed: int, rounds):
    cfg = observed_theory_config(seed)
    path = _write_config(p.out / "mdp.json", cfg)
    args = ["--config", path, "--out", str(p.out / "mdp")]
    n = cfg["num_tasks"]

    def sft_corpus(cmd: Command):
        records = read_jsonl(cmd.out / "corpus" / "sft.jsonl")
        k = cfg["dataset"]["trajectories_per_task"]
        _require(len(records) == n, f"{len(records)} SFT records, want {n}")
        for rec in records:
            _require(len(rec["trajectories"]) == k,
                     f"{rec['task_id']}: {len(rec['trajectories'])} trajectories, want {k}")
            for text in rec["trajectories"]:
                _require(encode(decode(text)) == text,
                         f"{rec['task_id']}: trajectory does not re-encode to its bytes")
        return None

    def grid(cmd: Command):
        lines = (cmd.out / "reports" / "grid.csv").read_text().splitlines()
        header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
        _require(len(rows) == len(cfg["grid"]["horizons"]), f"{len(rows)} grid rows")
        col = {name: i for i, name in enumerate(header)}
        for row in rows:
            _require(row[col["invalid_actions"]] == "0", "invalid actions in the grid")
        return {f"T{row[col['horizon']]}.mean_gap": float(row[col["mean_gap"]])
                for row in rows}

    def darkroom(cmd: Command):
        _require("darkroom check: pass" in cmd.stdout, "darkroom check did not pass")
        summary = json.loads((cmd.out / "reports" / "darkroom.json").read_text())
        _require(summary["num_goals"] == 100, f"{summary['num_goals']} goals, want 100")
        return {"mean_return": summary["mean_return"]}

    def theory(cmd: Command):
        _require(" 0 bound violation(s)" in cmd.stdout, "theory-sim reports violations")
        lines = (cmd.out / "reports" / "theory_e2.csv").read_text().splitlines()
        _require(len(lines) == 1 + 63, f"{len(lines) - 1} E2 cells, want 63")
        _require(all(line.endswith(",0") for line in lines[1:]), "a cell is violated")
        return None

    def trained(result):
        losses = result.epoch_losses
        p.artifact("train_lsa", np.concatenate(
            [np.asarray(losses), result.layer.w_kq.ravel(), result.layer.w_pv.ravel()]
        ).tobytes())
        _require(all(math.isfinite(x) for x in losses), "a training loss is not finite")
        _require(all(b <= a for a, b in zip(losses, losses[1:])),
                 "an epoch loss increased")
        return {"final_loss": losses[-1], "epochs": len(losses)}

    def train():
        rng = dl.Rng(seed)
        return dl.train_lsa(
            dl.LsaLayer.initialized(TRAIN_DIM, rng.split(0), scheme="structured"),
            dl.LinearTaskFamily(dim=TRAIN_DIM, feature_cov=np.eye(TRAIN_DIM)),
            rng.split(1), prompt_length=TRAIN_PROMPT_LENGTH, steps=TRAIN_STEPS)

    for _ in rounds:
        p.cli("setup", "gen", ["gen", *args])
        p.cli("solve", "solve", ["solve", *args],
              lambda cmd: _solutions(cmd, n, "exact"))
        p.cli("export", "export", ["export", *args], sft_corpus)
        p.cli("eval", "eval", ["eval", "--policy", "random", *args],
              lambda cmd: _eval_report(cmd, n, "exact"))
        p.cli("wire_eval", "eval_external", ["eval", "--policy", "external", *args],
              lambda cmd: _eval_report(cmd, n, "exact"))
        p.cli("theory", "theory_sim", ["theory-sim", "--check", *args], theory)
        p.cli("grid", "eval_grid", ["eval", "--grid", *args], grid)
        for policy in ("random", "oracle"):
            p.cli("darkroom", f"darkroom_{policy}",
                  ["darkroom", "--check", "--policy", policy, *args], darkroom)
        p.run("train", "train_lsa", train, trained)


WORKLOADS = {
    "belief-large": belief_large,
    "quickstart": quickstart,
    "observed-theory": observed_theory,
}
