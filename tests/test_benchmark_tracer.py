"""The benchmark's span tracer still finds every name it wraps.

``perfbench/tracing.py`` wraps public functions by name on the package and on
its modules; a renamed or removed name there breaks traced benchmark runs
with an ``AttributeError``, so this installs and uninstalls the tracer.
"""

import importlib
import importlib.util
from pathlib import Path

import decisionlab

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
