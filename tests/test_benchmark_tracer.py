"""The benchmark's span tracer still finds every name it wraps.

``perfbench/tracing.py`` wraps public functions by name on the package and on
its modules; a renamed or removed name there breaks traced benchmark runs
with an ``AttributeError``, so this installs and uninstalls the tracer.  Its
notes also read return shapes (``reference_policy`` returns a pair whose
second item is the label), so a traced command must still yield its counts.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import decisionlab
from decisionlab import cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = ("core", "solvers", "rollout", "dataset", "evaluation", "cli")


def _namespaces():
    mods = [decisionlab] + [importlib.import_module(f"decisionlab.{name}")
                            for name in MODULES]
    core, solvers, rollout = mods[1:4]
    return mods + [core.Rng, solvers.RobustSolution, rollout.ExternalPolicyClient]


def test_tracer_installs_and_restores_every_original():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    before = [dict(vars(ns)) for ns in _namespaces()]
    tracer = tracing.Tracer("test")
    try:
        tracer.install()
        wrapped = 0
        for ns, names in zip(_namespaces(), before):
            for name, value in names.items():
                if vars(ns)[name] is not value:
                    assert vars(ns)[name].__wrapped__ is value
                    wrapped += 1
        assert wrapped
    finally:
        tracer.uninstall()
    for ns, names in zip(_namespaces(), before):
        after = vars(ns)
        assert all(after[name] is value for name, value in names.items()), ns


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_solve_counts_a_forced_fallback(tmp_path):
    tracing = _load_tracing()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"setting": "pomdp", "num_tasks": 1,
                                  "env": {"energy_cap": 3, "horizon": 4},
                                  "solver": {"node_budget": 30}}))
    tracer = tracing.Tracer("test")
    tracer.install()
    try:
        for command in ("gen", "solve"):
            assert cli.main([command, "--config", str(config),
                             "--out", str(tmp_path / "run")]) == 0
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.spans, tracer.lazy_nodes)
    assert metrics["evaluation.reference.fallback"] == 1
    assert metrics["solvers.budget.exceeded"] == 1
    assert metrics["solvers.exact_ratio"] == 0.0
    # the failed belief-tree solve, then the MDP solve that QMDP acts through
    assert metrics["solvers.solve.calls"] == 2
    assert metrics["envs.task_io.calls"] == 2  # gen saves the task, solve loads it


def test_traced_eval_loads_the_oracle_that_solve_stored(tmp_path):
    tracing = _load_tracing()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"setting": "pomdp", "num_tasks": 1,
                                  "env": {"energy_cap": 3, "horizon": 4},
                                  "eval": {"policy": "oracle", "rollouts_per_task": 2}}))
    tracer = tracing.Tracer("test")
    tracer.install()
    try:
        for command in ("gen", "solve", "eval"):
            assert cli.main([command, "--config", str(config),
                             "--out", str(tmp_path / "run")]) == 0
            tracer.settle()
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.spans, tracer.lazy_nodes)
    # solve's exact solve is the only one: eval loads what solve stored
    assert metrics["solvers.solve.calls"] == 1
    assert metrics["evaluation.reference.calls"] == 1
    assert metrics["solvers.exact_ratio"] == 1.0
    assert metrics["envs.task_io.calls"] == 3  # gen saves, solve and eval load
