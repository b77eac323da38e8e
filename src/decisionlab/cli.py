"""Command-line pipeline: generate, solve, export, evaluate, and check theory.

Every command derives its inputs from (config, seed) alone, so a rerun with
the same config and seed reproduces every artifact byte for byte; only the
per-command manifests differ (they carry a wall-clock timestamp, the
command's wall time and the process's peak RSS).  Run
directories are laid out as

    <out>/tasks/task_0000.json ...      (gen)
    <out>/solutions/solution_0000.json  (solve)
    <out>/solutions/solution_0000.{keys,values}.npy  (solve, exact belief tasks)
    <out>/corpus/{sft,dpt}.jsonl[+manifest]  (export)
    <out>/reports/*.json|*.csv          (eval, theory-sim, darkroom)
    <out>/<command>.manifest.json       (every command)

``solve``, ``export`` and ``eval`` build their tasks from (config, seed) too;
the task files ``gen`` writes are an audit trail, which they check against
the tasks they build and never read a task from.  ``gen`` removes the task
files of an earlier run that it does not write again.

``eval``, ``theory-sim`` and ``darkroom`` take ``--jobs N``: tasks (Darkroom
goals) or E2 cells are spread over N processes, with the serial run's bytes;
an external policy is always evaluated in one.  No other command has the
flag, and ``eval --grid`` takes no ``--policy`` (``grid.policies`` decides).

``export`` and ``eval`` take a belief task's reference from what ``solve``
stored for it when the record's digests match the task, the ``solver``
section and the arrays, and solve the task again otherwise.

Exit codes: 0 success, 1 configuration error, 2 runtime failure, 3 a
--check'd replication test failed.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import resource
import sys
import time
from collections import Counter
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .core import Rng
from .dataset import (build_dpt_dataset, build_sft_corpus, corpus_manifest,
                      save_corpus, write_csv)
from .envs import (AmbiguityConfig, DarkroomTask, EnergyParams, all_darkroom_goals,
                   load_task, save_task, split_goals, task_to_dict)
from .evaluation import (DARKROOM_CSV_COLUMNS, GRID_CSV_COLUMNS, DegenerateOptimum,
                         GridSpec, darkroom_eval, evaluation_policy, generate_tasks,
                         optimality_gap, reference_policy, run_experiment_grid)
from .rollout import ExternalPolicyClient, PolicyHandle
from .solvers import BeliefSolverConfig, RobustSolution, solve_mdp
from .theory import E2_CSV_COLUMNS, E2Config, run_e2_simulation

# stream indices hung off the root generator, one per pipeline stage
STREAM_TASKS, STREAM_EVAL, STREAM_CORPUS, STREAM_THEORY, STREAM_DARKROOM = range(5)


class ConfigError(Exception):
    pass


def _section(cls, *skip: str) -> dict:
    """The defaults of dataclass ``cls`` as a config section, tuples as lists."""
    return {f.name: list(f.default) if isinstance(f.default, tuple) else f.default
            for f in fields(cls) if f.name not in skip}


def _from_section(cls, section: dict, **extra):
    """``cls`` built from a config section, lists as tuples, plus ``extra``."""
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in section.items()},
               **extra)


DEFAULT_CONFIG = {
    "setting": "mdp",
    "seed": 0,
    "out": "runs/default",
    "num_tasks": 20,
    "env": _section(EnergyParams),
    "ambiguity": _section(AmbiguityConfig),
    "solver": _section(BeliefSolverConfig),
    "dataset": {
        "format": "sft", "trajectories_per_task": 15, "records_per_task": 15,
        "context_trajectories": 2,
    },
    "eval": {
        "policy": "random", "rollouts_per_task": None,
        "external": {"transport": "tcp", "host": "127.0.0.1", "port": 0,
                     "argv": [], "timeout": 60.0},
    },
    "grid": _section(GridSpec, "params", "ambiguity", "solver", "rollouts_mdp",
                     "rollouts_apomdp"),
    "theory": _section(E2Config, "seed"),
    "darkroom": {
        "size": 10, "horizon": 100, "subset": "test", "train_fraction": 0.8,
        "rollouts_per_goal": 5,
    },
}

_SETTINGS = ("mdp", "pomdp", "apomdp", "darkroom")
_POLICIES = ("oracle", "random", "qmdp", "external")


# default's type -> (accepted value types, description); a bool is rejected
# everywhere, since no field is boolean and Python counts bools as ints
_ACCEPTS = {int: (int, "an integer"), float: ((int, float), "a number"),
            type(None): ((int, float, type(None)), "null or a number"),
            str: (str, "a string"), list: (list, "a list"), dict: (dict, "an object")}


def _merge_section(base: dict, override: dict, path: str) -> dict:
    """``base`` updated from ``override``, each value checked against the
    type of its default (``_ACCEPTS``)."""
    out = dict(base)
    for key, value in override.items():
        if key not in base:
            raise ConfigError(f"unknown field {path}{key!r}")
        if isinstance(base[key], dict) and isinstance(value, dict):
            out[key] = _merge_section(base[key], value, f"{path}{key}.")
            continue
        allowed, what = _ACCEPTS[type(base[key])]
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise ConfigError(f"field {path + key!r}: must be {what}")
        out[key] = value
    return out


def _validate_config(cfg: dict):
    def require(cond, field, why):
        if not cond:
            raise ConfigError(f"field {field!r}: {why}")

    def get(path):
        return functools.reduce(dict.__getitem__, path.split("."), cfg)

    def number(value):  # bools are ints to Python, not here
        return isinstance(value, (int, float)) and not isinstance(value, bool)

    def integer(value):  # >= 1; list elements escape the merge's type check
        return isinstance(value, int) and not isinstance(value, bool) and value >= 1

    require(cfg["setting"] in _SETTINGS, "setting", f"must be one of {_SETTINGS}")
    for low, paths in ((0, ("dataset.context_trajectories",)),
                       (1, ("num_tasks", "env.energy_cap", "env.horizon",
                            "ambiguity.num_models", "dataset.trajectories_per_task",
                            "dataset.records_per_task", "grid.num_tasks", "theory.dim",
                            "theory.num_actions", "theory.horizon", "darkroom.size",
                            "darkroom.horizon", "darkroom.rollouts_per_goal")),
                       (2, ("theory.tasks_per_cell",))):
        for path in paths:
            require(get(path) >= low, path, f"must be an integer >= {low}")
    for path in ("env.discount", "env.obs_prob", "theory.discount"):
        require(0.0 < get(path) <= 1.0, path, "must be a number in (0, 1]")
    env = cfg["env"]
    require(env["success_prob"] is None or 0.0 < env["success_prob"] <= 1.0,
            "env.success_prob", "must be null or a number in (0, 1]")
    p_range = env["p_range"]
    require(len(p_range) == 2 and all(map(number, p_range))
            and 0.0 < p_range[0] <= p_range[1] <= 1.0,
            "env.p_range", "must be numbers [lo, hi] with 0 < lo <= hi <= 1")
    amb = cfg["ambiguity"]
    require(amb["kl_radius"] > 0.0, "ambiguity.kl_radius", "must be a positive number")
    require(0.0 <= amb["alpha"] <= 1.0, "ambiguity.alpha", "must be a number in [0, 1]")
    require(cfg["dataset"]["format"] in ("sft", "dpt"), "dataset.format", "must be sft or dpt")
    ev = cfg["eval"]
    require(ev["policy"] in _POLICIES, "eval.policy", f"must be one of {_POLICIES}")
    rollouts = ev["rollouts_per_task"]
    require(rollouts is None or integer(rollouts),
            "eval.rollouts_per_task", "must be null or an integer >= 1")
    require(ev["external"]["transport"] in ("tcp", "child"),
            "eval.external.transport", "must be tcp or child")
    for path, ok, what in (
            ("grid.settings", lambda v: v in _SETTINGS[:3], f"settings from {_SETTINGS[:3]}"),
            ("grid.policies", lambda v: v in _POLICIES, f"policies from {_POLICIES}"),
            ("grid.horizons", integer, "integers >= 1"),
            ("grid.obs_probs", lambda v: number(v) and 0.0 < v <= 1.0, "numbers in (0, 1]"),
            ("grid.model_counts", integer, "integers >= 1"),
            ("grid.alphas", lambda v: number(v) and 0.0 <= v <= 1.0, "numbers in [0, 1]"),
            ("theory.prompt_lengths", integer, "integers >= 1"),
            ("theory.train_lengths", integer, "integers >= 1"),
            ("theory.condition_numbers", lambda v: number(v) and v >= 1.0, "numbers >= 1")):
        values = get(path)
        require(values and all(map(ok, values)), path, f"must be a non-empty list of {what}")
    require(cfg["theory"]["coverage"] >= 0.0, "theory.coverage", "must be a number >= 0")
    dk = cfg["darkroom"]
    require(dk["subset"] in ("train", "test", "all"), "darkroom.subset",
            "must be train, test, or all")
    cells = dk["size"] ** 2
    require(dk["subset"] == "all" or 0 < round(dk["train_fraction"] * cells) < cells,
            "darkroom.train_fraction", "must leave both goal sets non-empty")


def load_config(path: str | None, overrides: dict) -> dict:
    user = {}
    if path is not None:
        try:
            user = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}")
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
    cfg = _merge_section(DEFAULT_CONFIG, user, "")
    for key, value in overrides.items():
        if value is not None:
            if key == "policy":
                cfg["eval"] = dict(cfg["eval"], policy=value)
            else:
                cfg[key] = value
    _validate_config(cfg)
    try:
        _solver(cfg)
    except ValueError as exc:  # "field '<name>': ..." of the solver section
        raise ConfigError(str(exc).replace("field '", "field 'solver.", 1)) from None
    return cfg


# ---------------------------------------------------------------------------
# shared plumbing


def _energy_params(cfg: dict) -> EnergyParams:
    return _from_section(EnergyParams, cfg["env"])


def _ambiguity(cfg: dict) -> AmbiguityConfig:
    return _from_section(AmbiguityConfig, cfg["ambiguity"])


def _solver(cfg: dict) -> BeliefSolverConfig:
    return _from_section(BeliefSolverConfig, cfg["solver"])


def _darkroom_goals(cfg: dict) -> list[tuple[int, int]]:
    dk = cfg["darkroom"]
    if dk["subset"] == "all":
        return all_darkroom_goals(dk["size"])
    rng = Rng(cfg["seed"]).split(STREAM_DARKROOM)
    train, test = split_goals(rng, dk["size"], dk["train_fraction"])
    return train if dk["subset"] == "train" else test


def _build_tasks(cfg: dict) -> tuple[list, list[dict]]:
    """Tasks plus per-task audit metadata, derived from (config, seed)."""
    rng = Rng(cfg["seed"]).split(STREAM_TASKS)
    if cfg["setting"] == "darkroom":
        dk = cfg["darkroom"]
        tasks = [DarkroomTask(goal, dk["size"], dk["horizon"])
                 for goal in _darkroom_goals(cfg)]
        metas = [{"setting": "darkroom", "goal": list(t.goal)} for t in tasks]
        return tasks, metas
    tasks = generate_tasks(cfg["setting"], cfg["num_tasks"], _energy_params(cfg),
                           _ambiguity(cfg), rng)
    metas = []
    for i, task in enumerate(tasks):
        child = rng.split(i)
        metas.append({"setting": cfg["setting"], "stream": [child.seed, child.stream],
                      "success_prob": float(task.models[0].transition[0, 0, 1])})
    return tasks, metas


def _checked_tasks(cfg: dict, out: Path) -> tuple[list, list[dict]]:
    """``_build_tasks``' tasks, a Darkroom spec as its tabular task, once any
    files in ``<out>/tasks`` are found to be exactly what ``gen`` writes."""
    tasks, metas = _build_tasks(cfg)
    tasks_dir = out / "tasks"
    names = sorted(p.name for p in tasks_dir.glob("task_*.json"))
    expected = [f"task_{i:04d}.json" for i in range(len(tasks))]
    if names and names != expected:
        raise ConfigError(f"{tasks_dir} holds {len(names)} task file(s), {names[0]} to "
                          f"{names[-1]}, but (config, seed) builds {len(expected)}, "
                          f"{expected[0]} to {expected[-1]}")
    for name, task, meta in zip(names, tasks, metas):
        path = tasks_dir / name
        try:
            have = task_to_dict(*load_task(path))
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ConfigError(f"task file {path} cannot be read: "
                              f"{type(exc).__name__}: {exc}") from None
        if have != (want := task_to_dict(task, meta)):
            raise ConfigError(f"task file {path} {_first_difference(have, want)}")
    return [t.to_mdp() if isinstance(t, DarkroomTask) else t for t in tasks], metas


def _first_difference(have: dict, want: dict) -> str:
    """The first key where two task dicts differ, with both values unless one
    is an array (a list of non-ints; a goal is none).  ``kind`` comes first, as
    it decides the other keys, and arrays last, each group in sorted order."""
    def array(key):
        return any(isinstance(v, list) and not all(type(x) is int for x in v)
                   for v in (have.get(key), want.get(key)))

    key = min((k for k in have.keys() | want.keys() if have.get(k) != want.get(k)),
              key=lambda k: (k != "kind", array(k), k))
    if array(key):
        return f"has another {key} than (config, seed) builds"
    return f"has {key} {have.get(key)!r}, but (config, seed) builds {want.get(key)!r}"


def _inputs_sha256(cfg: dict, task) -> str:
    """SHA-256 of the canonical JSON of a task (without meta) and the solver section."""
    text = json.dumps({"task": task_to_dict(task), "solver": cfg["solver"]},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _tree_paths(sol_dir: Path, index: int) -> list[Path]:
    return [sol_dir / f"solution_{index:04d}.{name}.npy" for name in ("keys", "values")]


def _stored_reference(cfg: dict, sol_dir: Path, index: int, task):
    """The reference ``solve`` stored for a belief task, as ``reference_policy``
    returns it, or None unless the record's digests match the task, the solver
    section and the arrays, and the arrays have the record's shapes."""
    if task.kind == "mdp":
        return None
    try:
        record = json.loads((sol_dir / f"solution_{index:04d}.json").read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(record, dict) or record.get("inputs_sha256") != _inputs_sha256(cfg, task):
        return None
    if record.get("reference") == "qmdp-fallback":
        return PolicyHandle.qmdp(solve_mdp(task)), "qmdp-fallback"
    try:
        digest, arrays = hashlib.sha256(), []
        for path in _tree_paths(sol_dir, index):  # hashed and parsed from one read
            data = path.read_bytes()
            digest.update(data)
            head = io.BytesIO(data)
            np.lib.format.read_magic(head)
            shape, _, dtype = np.lib.format.read_array_header_1_0(head)
            arrays.append(np.frombuffer(data, dtype, offset=head.tell()).reshape(shape))
        if digest.hexdigest() != record.get("arrays_sha256"):
            return None
        solution = RobustSolution.from_arrays(task, _solver(cfg), *arrays,
                                              record["level_sizes"])
    except (OSError, ValueError):
        return None
    return PolicyHandle.oracle(solution), "exact"


def _reference_handles(cfg: dict, out: Path, tasks: list) -> list[tuple[PolicyHandle, str]]:
    """Each task's reference handle and label: what ``solve`` stored for it
    when that matches (``_stored_reference``), else ``reference_policy``'s."""
    return [_stored_reference(cfg, out / "solutions", i, task)
            or reference_policy(task, _solver(cfg)) for i, task in enumerate(tasks)]


def _write_manifest(out: Path, command: str, cfg: dict, artifacts: list[str], args):
    """``<out>/<command>.manifest.json``.  ``wall_s`` is the time since ``main``
    started (``args.started``); ``peak_rss_mb`` is ``ru_maxrss`` (KiB on
    Linux), the peak resident size of the whole process so far, worker
    processes excluded, which for a command run in-process includes whatever
    ran before it."""
    manifest = {
        "command": command,
        "package_version": __version__,
        "created_unix": time.time(),
        "wall_s": time.perf_counter() - args.started,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "config": cfg,
        "artifacts": sorted(artifacts),
    }
    path = out / f"{command}.manifest.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    return path


def _policy_client(cfg: dict, kinds) -> ExternalPolicyClient | contextlib.nullcontext:
    """The configured external-policy client if ``kinds`` holds "external",
    else a context that yields None; ``with`` closes either."""
    if "external" not in kinds:
        return contextlib.nullcontext()
    ext = cfg["eval"]["external"]
    if ext["transport"] == "tcp":
        return ExternalPolicyClient.tcp(ext["host"], int(ext["port"]),
                                        timeout=float(ext["timeout"]))
    if not ext["argv"]:
        raise ConfigError("eval.external.argv must be set for the child transport")
    return ExternalPolicyClient.child_process(list(ext["argv"]),
                                              timeout=float(ext["timeout"]))


# ---------------------------------------------------------------------------
# commands


def cmd_gen(cfg: dict, args) -> int:
    out = Path(cfg["out"])
    tasks_dir = out / "tasks"
    tasks_dir.mkdir(parents=True, exist_ok=True)
    tasks, metas = _build_tasks(cfg)
    paths = [tasks_dir / f"task_{i:04d}.json" for i in range(len(tasks))]
    for stale in set(tasks_dir.glob("task_*.json")) - set(paths):  # of an earlier gen
        stale.unlink()
    for path, task, meta in zip(paths, tasks, metas):
        save_task(path, task, meta)
    artifacts = [str(path.relative_to(out)) for path in paths]
    _write_manifest(out, "gen", cfg, artifacts, args)
    print(f"gen: wrote {len(tasks)} {cfg['setting']} task(s) to {tasks_dir}")
    return 0


def cmd_solve(cfg: dict, args) -> int:
    out = Path(cfg["out"])
    sol_dir = out / "solutions"
    tasks, _ = _checked_tasks(cfg, out)
    sol_dir.mkdir(parents=True, exist_ok=True)
    artifacts = []
    fallbacks = Counter()
    for i, task in enumerate(tasks):
        handle, ref = reference_policy(task, _solver(cfg))
        record = {"task_index": i, "reference": ref}
        if task.kind == "mdp":
            record.update(kind="mdp", expected_return=handle.solution.expected_return())
        elif ref == "exact":
            paths = _tree_paths(sol_dir, i)
            digest = handle.solution.save_arrays(*paths)
            artifacts += [str(path.relative_to(out)) for path in paths]
            record.update(kind="belief", **handle.solution.to_summary(),
                          inputs_sha256=_inputs_sha256(cfg, task), arrays_sha256=digest)
        else:
            record.update(reason="node_budget", period=handle.fallback.period,
                          nodes=handle.fallback.nodes,
                          inputs_sha256=_inputs_sha256(cfg, task))
            fallbacks[record["reason"]] += 1
        path = sol_dir / f"solution_{i:04d}.json"
        path.write_text(json.dumps(record, sort_keys=True, indent=1) + "\n")
        artifacts.append(str(path.relative_to(out)))
    _write_manifest(out, "solve", cfg, artifacts, args)
    reasons = ", ".join(f"{reason} {count}" for reason, count in sorted(fallbacks.items()))
    note = f" ({fallbacks.total()} fell back to qmdp: {reasons})" if fallbacks else ""
    print(f"solve: wrote {len(tasks)} solution record(s) to {sol_dir}{note}")
    return 0


def cmd_export(cfg: dict, args) -> int:
    out = Path(cfg["out"])
    corpus_dir = out / "corpus"
    tasks, metas = _checked_tasks(cfg, out)
    corpus_dir.mkdir(parents=True, exist_ok=True)
    references = _reference_handles(cfg, out, tasks)
    oracles = [handle for handle, _ in references]
    rng = Rng(cfg["seed"]).split(STREAM_CORPUS)
    ds = cfg["dataset"]
    if ds["format"] == "sft":
        records = build_sft_corpus(tasks, oracles, rng,
                                   trajectories_per_task=ds["trajectories_per_task"],
                                   metas=metas)
        path = corpus_dir / "sft.jsonl"
        extra = {"trajectories_per_task": ds["trajectories_per_task"],
                 "setting": cfg["setting"]}
    else:
        records = build_dpt_dataset(tasks, oracles, rng,
                                    records_per_task=ds["records_per_task"],
                                    context_trajectories=ds["context_trajectories"],
                                    metas=metas)
        path = corpus_dir / "dpt.jsonl"
        extra = {"records_per_task": ds["records_per_task"],
                 "context_trajectories": ds["context_trajectories"],
                 "setting": cfg["setting"]}
    extra["reference_labels"] = dict(Counter(label for _, label in references))
    manifest = corpus_manifest(records, ds["format"], cfg["seed"], extra)
    manifest_path = save_corpus(path, records, manifest)
    _write_manifest(out, "export", cfg, [str(path.relative_to(out)),
                                         str(manifest_path.relative_to(out))], args)
    print(f"export: wrote {len(records)} {ds['format']} record(s) to {path}")
    return 0


def cmd_eval(cfg: dict, args) -> int:
    out = Path(cfg["out"])
    reports = out / "reports"
    rng = Rng(cfg["seed"]).split(STREAM_EVAL)
    grid = getattr(args, "grid", False)  # the darkroom command has no --grid
    if grid and args.policy is not None:
        raise ConfigError("--policy does not apply to --grid: grid.policies decides")
    policy_kind = cfg["eval"]["policy"]
    if not grid and policy_kind == "qmdp" and cfg["setting"] in ("mdp", "darkroom"):
        raise ConfigError(f"field 'eval.policy': qmdp does not apply to {cfg['setting']}")
    if not grid and cfg["setting"] != "darkroom":
        tasks, _ = _checked_tasks(cfg, out)
    kinds = cfg["grid"]["policies"] if grid else [policy_kind]
    jobs = 1 if "external" in kinds else args.jobs or 1
    with _policy_client(cfg, kinds) as client:
        reports.mkdir(parents=True, exist_ok=True)
        if grid:
            spec = _from_section(GridSpec, cfg["grid"], params=_energy_params(cfg),
                                 ambiguity=_ambiguity(cfg), solver=_solver(cfg))
            rows = run_experiment_grid(spec, rng, client, jobs)
            path = reports / "grid.csv"
            write_csv(rows, GRID_CSV_COLUMNS, path)
            _write_manifest(out, "eval", cfg, [str(path.relative_to(out))], args)
            print(f"eval: wrote {len(rows)} grid row(s) to {path}")
            return 0
        if cfg["setting"] == "darkroom":
            return _eval_darkroom(cfg, args, reports, out, rng, client, jobs)
        oracles = [handle for handle, _ in _reference_handles(cfg, out, tasks)]
        handles = [evaluation_policy(policy_kind, task, oracle, client)
                   for task, oracle in zip(tasks, oracles)]
        rollouts = cfg["eval"]["rollouts_per_task"] or (
            GridSpec.rollouts_apomdp if cfg["setting"] == "apomdp" else GridSpec.rollouts_mdp)
        report = optimality_gap(tasks, oracles, handles, rng, rollouts, jobs=jobs)
    path = reports / "eval.json"
    payload = {"setting": cfg["setting"], "policy": policy_kind, **asdict(report)}
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    _write_manifest(out, "eval", cfg, [str(path.relative_to(out))], args)
    print(f"eval: {cfg['setting']}/{policy_kind} mean gap {report.mean_gap:.4f} "
          f"[{report.ci_low:.4f}, {report.ci_high:.4f}] "
          f"({report.reference}) -> {path}")
    return 0


def _eval_darkroom(cfg: dict, args, reports: Path, out: Path, rng: Rng,
                   client: ExternalPolicyClient | None, jobs: int) -> int:
    dk = cfg["darkroom"]
    policy_kind = cfg["eval"]["policy"]
    summary = darkroom_eval(_darkroom_goals(cfg), policy_kind, rng,
                            rollouts_per_goal=dk["rollouts_per_goal"], size=dk["size"],
                            horizon=dk["horizon"], client=client, jobs=jobs)
    csv_path = reports / "darkroom.csv"
    write_csv(summary["rows"], DARKROOM_CSV_COLUMNS, csv_path)
    json_path = reports / "darkroom.json"
    json_path.write_text(json.dumps(
        {k: v for k, v in summary.items() if k != "rows"},
        sort_keys=True, indent=1) + "\n")
    _write_manifest(out, "eval", cfg, [str(csv_path.relative_to(out)),
                                       str(json_path.relative_to(out))], args)
    print(f"eval: darkroom/{policy_kind} mean return {summary['mean_return']:.3f} "
          f"over {summary['num_goals']} goal(s) -> {csv_path}")
    if getattr(args, "check", False):
        ok = True
        if policy_kind == "oracle":
            ok = all(abs(r["mean_return"] - r["oracle_return"]) == 0.0
                     for r in summary["rows"])
        elif policy_kind == "random":
            ok = summary["mean_return"] < 2.0
        print(f"darkroom check: {'pass' if ok else 'FAIL'}")
        if not ok:
            return 3
    return 0


def cmd_theory_sim(cfg: dict, args) -> int:
    out = Path(cfg["out"])
    reports = out / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    e2 = _from_section(E2Config, cfg["theory"], seed=cfg["seed"])
    rows = run_e2_simulation(e2, jobs=args.jobs or 1)
    path = reports / "theory_e2.csv"
    write_csv(rows, E2_CSV_COLUMNS, path)
    _write_manifest(out, "theory-sim", cfg, [str(path.relative_to(out))], args)
    violations = sum(1 for r in rows if r["violated"])
    print(f"theory-sim: {len(rows)} cell(s), {violations} bound violation(s) -> {path}")
    if args.check and violations:
        print("theory check: FAIL (suboptimality bound violated)")
        return 3
    if args.check:
        print("theory check: pass")
    return 0


def cmd_darkroom(cfg: dict, args) -> int:
    return cmd_eval(dict(cfg, setting="darkroom"), args)


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    """argparse that exits with the config-error code on bad usage."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="decisionlab",
                     description="tasks, oracles, corpora, and theory checks "
                                 "for in-context decision-making")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, jobs: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="JSON config file (defaults applied)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="override the output directory")
        if jobs:  # only the commands that spread their work over processes
            p.add_argument("--jobs", type=int, help="worker processes (default 1)")
        return p

    command("gen", "write task files", jobs=False)
    command("solve", "write solution records", jobs=False)
    command("export", "write an SFT or DPT corpus", jobs=False)
    p_eval = command("eval", "optimality-gap evaluation")
    p_eval.add_argument("--policy", choices=_POLICIES,
                        help="override eval.policy from the config")
    p_eval.add_argument("--grid", action="store_true",
                        help="run the full experiment grid from the config")
    p_theory = command("theory-sim", "suboptimality bound grid")
    p_theory.add_argument("--check", action="store_true",
                          help="exit 3 if any cell violates the bound")
    p_dark = command("darkroom", "darkroom goal-set evaluation")
    p_dark.add_argument("--policy", choices=("oracle", "random", "external"),
                        help="override eval.policy from the config")
    p_dark.add_argument("--check", action="store_true",
                        help="exit 3 if the policy misses its expected value")
    return parser


_COMMANDS = {
    "gen": cmd_gen,
    "solve": cmd_solve,
    "export": cmd_export,
    "eval": cmd_eval,
    "theory-sim": cmd_theory_sim,
    "darkroom": cmd_darkroom,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.started = time.perf_counter()
    try:
        overrides = {"seed": args.seed, "out": args.out,
                     "policy": getattr(args, "policy", None)}
        cfg = load_config(args.config, overrides)
        Path(cfg["out"]).mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DegenerateOptimum as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
