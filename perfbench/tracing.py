"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded by wrappers that the benchmark installs around calls into
each decisionlab module's public functions; nothing under ``src/`` changes.
Modules bind names at import time (``from .solvers import solve_pomdp``), so a
wrapper is installed on every module attribute that holds the function and,
for methods, on the class.  Names a module looks up as its own globals at call
time (``decisionlab.solvers.quantize_batch``) need only the one wrapper.

Each span is ``[name, start, end, parent, attrs]``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``attrs`` holds the counts a layer
reports (rows, bytes, nodes, policy kind, ...).  Spans stay in memory until
the run ends and are then written out as JSON lines, one per span.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """Records spans for one pass; ``run_id`` tags every span it writes."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._solutions: list[list] = []  # [solution, node_count last seen]
        self.lazy_nodes = 0

    # -- recording -----------------------------------------------------------

    def call(self, name: str, fn, args, kwargs, note=None):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, None]
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span[4] = {"error": type(exc).__name__}
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if note is not None:
            span[4] = note(result, *args, **kwargs)
        return result

    def wrap(self, owner, attr: str, name: str, note=None):
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, note)

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def settle(self):
        """Charge nodes that queries added to solved trees since the last call."""
        for entry in self._solutions:
            solution, seen = entry
            self.lazy_nodes += solution.node_count - seen
            entry[1] = solution.node_count

    # -- installation ----------------------------------------------------------

    def install(self):
        """Wrap every layer boundary the per-layer metrics are read from."""
        m = {name: importlib.import_module(f"decisionlab.{name}") for name in
             ("core", "solvers", "rollout", "dataset", "evaluation", "cli")}
        pkg = importlib.import_module("decisionlab")
        core, ev, cli = m["core"], m["evaluation"], m["cli"]

        for gen in ("gen_energy_mdp", "gen_energy_pomdp", "gen_energy_apomdp"):
            self.wrap(ev, gen, "envs.gen")
        self.wrap(cli, "save_task", "envs.task_io",
                  note=lambda _r, path, *a, **k: {"bytes": _file_size(path)})
        self.wrap(cli, "load_task", "envs.task_io",
                  note=lambda _r, path, *a, **k: {"bytes": _file_size(path)})

        def solved(solution, *a, **k):
            self._solutions.append([solution, solution.node_count])
            return {"nodes": solution.node_count}

        for owner in (ev, m["solvers"]):
            self.wrap(owner, "solve_mdp", "solvers.solve")
        for fn in ("solve_pomdp", "solve_apomdp"):
            self.wrap(ev, fn, "solvers.solve", note=solved)
        self.wrap(m["solvers"], "quantize_batch", "solvers.quantize_batch",
                  note=lambda _r, probs, *a, **k: {"rows": len(probs)})
        self.wrap(m["solvers"].RobustSolution, "action", "solvers.action")

        self.wrap(core.Rng, "__init__", "core.rng.new")
        self.wrap(core.Rng, "draw_index", "core.draw_index")
        self.wrap(m["rollout"], "belief_update", "core.belief_update")

        def episode(result, task, policy, *a, **k):
            return {"kind": policy.kind, "steps": len(result.trajectory)}

        for owner in (ev, m["dataset"], pkg):
            self.wrap(owner, "rollout", "rollout.episode", note=episode)
        self.wrap(m["rollout"].ExternalPolicyClient, "query", "rollout.external",
                  note=lambda _r, _self, request, *a, **k: {
                      "bytes": len(json.dumps(request, separators=(",", ":"))) + 1})

        for owner in (m["dataset"], pkg):
            self.wrap(owner, "encode", "dataset.encode",
                      note=lambda text, *a, **k: {"bytes": len(text)})
        for fn in ("build_sft_corpus", "build_dpt_dataset"):
            self.wrap(cli, fn, "dataset.build")
        self.wrap(m["dataset"], "write_jsonl", "dataset.jsonl",
                  note=lambda _r, path, *a, **k: {"bytes": _file_size(path)})

        for owner in (cli, ev, pkg):
            self.wrap(owner, "reference_policy", "evaluation.reference",
                      note=lambda result, *a, **k: {"label": result[1]})
            self.wrap(owner, "optimality_gap", "evaluation.gap")
        self.wrap(cli, "run_experiment_grid", "evaluation.grid",
                  note=lambda rows, *a, **k: {"cells": len(rows)})
        self.wrap(cli, "darkroom_eval", "evaluation.darkroom")

        self.wrap(cli, "run_e2_simulation", "theory.e2",
                  note=lambda rows, *a, **k: {"cells": len(rows)})
        self.wrap(pkg, "train_lsa", "theory.train",
                  note=lambda _r, *a, **k: {"steps": k.get("steps", 8000)})

    # -- output ----------------------------------------------------------------

    def write(self, fh):
        for name, start, end, parent, attrs in self.spans:
            fh.write(json.dumps({"run": self.run_id, "name": name, "start": start,
                                 "end": end, "parent": parent, "attrs": attrs},
                                separators=(",", ":")) + "\n")


def _file_size(path) -> int:
    try:
        return Path(path).stat().st_size
    except OSError:
        return 0


def tail(values: list[float]) -> tuple[float | None, float | None]:
    """Highest order statistic with at least ten samples beyond it.

    Returns the value and the percentile it sits at, or ``(None, None)`` when
    there are ten samples or fewer.
    """
    n = len(values)
    if n <= 10:
        return None, None
    ordered = sorted(values)
    return ordered[n - 11], 100.0 * (n - 10) / n


def layer_metrics(spans: list[list], lazy_nodes: int) -> dict:
    """Per-layer counts and times for one traced pass (times in s or ms)."""
    child = [0.0] * len(spans)
    for _name, start, end, parent, _attrs in spans:
        if parent >= 0:
            child[parent] += end - start
    dur = defaultdict(list)
    self_s = defaultdict(float)
    attrs = defaultdict(list)
    for i, (name, start, end, _parent, a) in enumerate(spans):
        dur[name].append(end - start)
        self_s[name] += end - start - child[i]
        attrs[name].append(a or {})

    def total(name):
        return sum(dur[name])

    def summed(name, key):
        return sum(a.get(key, 0) for a in attrs[name])

    def per_call_ms(name, prefix, out):
        ms = [1e3 * d for d in dur[name]]
        value, pct = tail(ms)
        out[f"{prefix}.p50_ms"] = statistics.median(ms) if ms else 0.0
        out[f"{prefix}.tail_ms"] = value
        out[f"{prefix}.tail_pct"] = pct

    out: dict = {}
    out["envs.gen.calls"] = len(dur["envs.gen"])
    out["envs.gen.s"] = total("envs.gen")
    out["envs.task_io.calls"] = len(dur["envs.task_io"])
    out["envs.task_io.s"] = total("envs.task_io")
    out["envs.task_io.bytes"] = summed("envs.task_io", "bytes")

    solves = list(zip(dur["solvers.solve"], attrs["solvers.solve"]))
    exceeded = [d for d, a in solves if a.get("error") == "BudgetExceeded"]
    out["solvers.solve.calls"] = len(solves)
    out["solvers.solve.s"] = total("solvers.solve")
    out["solvers.solve.nodes"] = summed("solvers.solve", "nodes")
    out["solvers.quantize_batch.calls"] = len(dur["solvers.quantize_batch"])
    out["solvers.quantize_batch.rows"] = summed("solvers.quantize_batch", "rows")
    out["solvers.quantize_batch.s"] = total("solvers.quantize_batch")
    out["solvers.budget.exceeded"] = len(exceeded)
    out["solvers.budget.wasted_s"] = sum(exceeded)
    refs = [a.get("label") for a in attrs["evaluation.reference"]]
    out["solvers.exact_ratio"] = (refs.count("exact") / len(refs)) if refs else 0.0
    actions = len(dur["solvers.action"])
    out["solvers.action.calls"] = actions
    per_call_ms("solvers.action", "solvers.action", out)
    out["solvers.lazy_nodes"] = lazy_nodes
    out["solvers.lazy_per_action"] = lazy_nodes / actions if actions else 0.0

    out["core.rng.new"] = len(dur["core.rng.new"])
    out["core.rng.new_s"] = total("core.rng.new")
    out["core.draw_index.calls"] = len(dur["core.draw_index"])
    out["core.draw_index.s"] = total("core.draw_index")
    out["core.belief_update.calls"] = len(dur["core.belief_update"])
    out["core.belief_update.s"] = total("core.belief_update")

    for kind in ("random", "oracle", "qmdp", "external"):
        out[f"rollout.episodes.{kind}"] = sum(
            1 for a in attrs["rollout.episode"] if a.get("kind") == kind)
    out["rollout.steps"] = summed("rollout.episode", "steps")
    out["rollout.self_s"] = self_s["rollout.episode"]
    out["rollout.external.calls"] = len(dur["rollout.external"])
    per_call_ms("rollout.external", "rollout.external", out)
    out["rollout.external.bytes"] = summed("rollout.external", "bytes")

    out["dataset.encode.calls"] = len(dur["dataset.encode"])
    out["dataset.encode.bytes"] = summed("dataset.encode", "bytes")
    out["dataset.encode.s"] = total("dataset.encode")
    out["dataset.build.self_s"] = self_s["dataset.build"]
    out["dataset.jsonl.bytes"] = summed("dataset.jsonl", "bytes")
    out["dataset.jsonl.s"] = total("dataset.jsonl")

    out["evaluation.reference.calls"] = len(refs)
    out["evaluation.reference.s"] = total("evaluation.reference")
    out["evaluation.reference.fallback"] = refs.count("qmdp-fallback")
    out["evaluation.gap.self_s"] = self_s["evaluation.gap"]
    out["evaluation.grid.cells"] = summed("evaluation.grid", "cells")
    out["evaluation.grid.s"] = total("evaluation.grid")
    out["evaluation.darkroom.s"] = total("evaluation.darkroom")

    out["theory.e2.cells"] = summed("theory.e2", "cells")
    out["theory.e2.s"] = total("theory.e2")
    steps = summed("theory.train", "steps")
    out["theory.train.steps"] = steps
    out["theory.train.s"] = total("theory.train")
    out["theory.train.step_ms"] = 1e3 * total("theory.train") / steps if steps else 0.0
    return out
