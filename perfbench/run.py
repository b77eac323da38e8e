"""Benchmark for the decisionlab pipeline.

    python3 perfbench/run.py --workload belief-large --seed 0 --seconds 25 --trace 0

Run from the root of a checkout.  The program is imported from ``src/`` of
that checkout, never from an installed copy; without it the benchmark exits
with code 2 and prints no result.  One process does all the work, with
``jobs=1`` everywhere and BLAS pinned to one thread; the only other processes
are the set-up and reference timing children (run one at a time, between
rounds) and, in ``observed-theory``, the one external-policy child.

A run repeats the workload's round, every step of the workload once, until
``--seconds`` have passed, and charges each step the median of its runs.
End-to-end times are scaled to a reference host speed (see REFERENCE_CODE);
the details line also holds them unscaled.  With ``--trace 1`` the untraced
rounds are followed by one traced round, and the run reports the per-layer
metrics of that round, with the tracing overhead.  The last line of standard
output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the line before it holds the details (every phase, every per-layer
figure, the environment, digests and failures).  Work files, traces and
results go under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
IMPORT_CODE = f"import sys; sys.path.insert(0, {str(SRC)!r}); import decisionlab"
# The reference: a fresh interpreter that imports decisionlab's dependencies
# but not decisionlab, so no change to the program changes its work.  On a
# shared host the same work runs a third slower or faster from one minute to
# the next; the reference slows with it, so end-to-end times are multiplied
# by REFERENCE_S over the reference's median time in the run: they are
# seconds at the host speed at which the reference takes REFERENCE_S.
REFERENCE_CODE = "import numpy, scipy.stats"
REFERENCE_S = 1.5
# the set-up and reference interpreters are timed, one after the other,
# before the first round and then before the first round that starts at
# least this many seconds after the last pair, and at least MIN_HOST_SAMPLES
# times in all; each is charged its median
HOST_SAMPLE_EVERY_S = 10.0
MIN_HOST_SAMPLES = 3

# phases that make up the end-to-end pipeline time: everything but set-up and
# belief-large's DPT export, whose oracle queries depend on the seed's draws
PIPELINE_PHASES = ("solve", "eval", "export", "wire_eval", "grid", "darkroom",
                   "theory", "train")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("belief-large", "quickstart", "observed-theory"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_seconds(code: str) -> float:
    """Wall time from starting a fresh interpreter to the end of ``code``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
    return time.perf_counter() - start


def sample_host(host: dict[str, list[float]]):
    host["import"].append(child_seconds(IMPORT_CODE))
    host["reference"].append(child_seconds(REFERENCE_CODE))


def timed_rounds(seconds: float, host: dict[str, list[float]]):
    """Round indices until ``seconds`` have passed, at least one; set-up and
    reference samples go into ``host`` between rounds."""
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        if len(host["import"]) * HOST_SAMPLE_EVERY_S <= time.perf_counter() - start:
            sample_host(host)
        yield index
        index += 1


def source_fingerprint() -> str:
    """Digest of the program's and the benchmark's sources; runs of one commit
    share it."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas.get("version", "unknown"),
        "blas_threads": blas_threads(),
        "jobs": 1,
        "cpu_affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                        else None,
        "processes": "one benchmark process; set-up and reference timing children "
                     "run one at a time between rounds; at most one external-policy child; all "
                     "on the CPUs in cpu_affinity",
    }


def blas_threads():
    """Thread count numpy's OpenBLAS reports, or the pinned setting if unreadable."""
    import ctypes
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return fn()
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def step_times(p) -> dict[str, float]:
    """Median run of each step in a pass.

    On a shared host the same work runs up to twice as slow, in spells from
    seconds to minutes long.  A step's fastest run depends on whether a run
    happened to fall in a quiet moment, which swung more from one run of the
    benchmark to the next than the median of its runs did.
    """
    return {step: statistics.median(times) for step, times in p.samples.items()}


def phase_times(p) -> dict[str, float]:
    phases: dict[str, float] = {}
    for step, elapsed in step_times(p).items():
        phases[p.phase_of[step]] = phases.get(p.phase_of[step], 0.0) + elapsed
    return phases


def step_digests(digests: dict[str, str]) -> dict[str, str]:
    """One digest per step over the digests of the files it wrote."""
    steps: dict = {}
    for key in sorted(digests):
        step = key.split(":", 1)[0]
        steps.setdefault(step, hashlib.sha256()).update(f"{key}={digests[key]}\n".encode())
    return {step: h.hexdigest() for step, h in steps.items()}


def differing(a: dict, b: dict) -> list[str]:
    return sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))


def differs_from_stored(path: Path, current: dict) -> list[str] | None:
    """Keys where ``current`` differs from what an earlier run of the same
    sources and seed stored at ``path``; None, and ``current`` is stored, when
    no earlier run did."""
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(current, sort_keys=True, indent=1) + "\n")
        return None
    return differing(json.loads(path.read_text()), current)


def run(args) -> tuple[dict, dict]:
    from harness import Pass
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}"
    expected_all = json.loads((Path(__file__).parent / "expected.json").read_text())
    recorded = expected_all["values"].get(args.workload, {}).get(str(args.seed))
    work = STATE / "work" / tag
    host: dict[str, list[float]] = {"import": [], "reference": []}

    # the timed rounds, then with --trace 1 one traced round, whose counts
    # are the same on every run because its work is
    passes, tracer = [], None
    for trace in ((False, True) if args.trace else (False,)):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        tracer = Tracer(f"{tag}-pass{len(passes)}") if trace else None
        p = Pass(work, recorded, tracer)
        if tracer is not None:
            tracer.install()
        try:
            workload(p, args.seed, range(1) if trace else
                     timed_rounds(args.seconds, host))
        finally:
            if tracer is not None:
                tracer.uninstall()
        passes.append(p)
    while len(host["import"]) < MIN_HOST_SAMPLES:
        sample_host(host)
    first = passes[0]

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]

    # determinism: both passes of a traced run, and every earlier run of the
    # same sources at this seed, must produce the same artifact bytes
    if len(passes) == 2:
        attempted += 1
        moved = differing(first.digests, passes[1].digests)
        if moved:
            failures.append("artifact digests differ between passes of one run: "
                            + ", ".join(moved))
    stored = STATE / "digests" / source_fingerprint()
    moved = differs_from_stored(stored / f"{tag}.json", first.digests)
    if moved is not None:
        attempted += 1
        if moved:
            failures.append("artifact digests differ from an earlier run of the same "
                            "sources: " + ", ".join(moved))
    recorded_digests = expected_all["digests"].get(args.workload, {}).get(str(args.seed))
    moved_since_recorded = (None if recorded_digests is None else
                            differing(recorded_digests, step_digests(first.digests)))

    phases = phase_times(first)
    setup_import = statistics.median(host["import"])
    pipeline_s = sum(t for ph, t in phases.items() if ph in PIPELINE_PHASES)
    wall = {"setup_s": setup_import + phases.get("setup", 0.0), "pipeline_s": pipeline_s}
    scale = REFERENCE_S / statistics.median(host["reference"])
    end_to_end = {
        "setup_s": (wall["setup_s"] * scale, "s"),
        "pipeline_s": (wall["pipeline_s"] * scale, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }

    layers = {}
    if tracer is not None:
        layers = layer_metrics(tracer.spans, tracer.lazy_nodes)
        # counts repeat exactly between traced runs of the same sources and seed
        counts = {name: v for name, v in layers.items()
                  if v is not None and not name.endswith(("_s", "_ms", "_pct", ".s"))}
        moved = differs_from_stored(stored / f"{tag}-counts.json", counts)
        if moved is not None:
            attempted += 1
            if moved:
                failures.append("traced counts differ from an earlier traced run of "
                                "the same sources: " + ", ".join(moved))
        traced_pipeline = sum(t for ph, t in phase_times(passes[1]).items()
                              if ph in PIPELINE_PHASES)
        layers["trace.overhead_s"] = traced_pipeline - pipeline_s
        trace_path = STATE / "trace" / f"{tag}.jsonl"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        with open(trace_path, "w") as fh:
            tracer.write(fh)

    # the result carries the metrics BENCHMARK.json names; the details line
    # carries every figure, including per-layer times that are zero on a
    # workload whose steps never enter that layer
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in bench["per_layer"]}
    else:
        metrics = {m["name"]: {"value": end_to_end[m["name"]][0], "unit": m["unit"]}
                   for m in bench["end_to_end"]}

    observed = {"values": first.values, "digests": step_digests(first.digests)}
    obs_path = STATE / "observed" / f"{tag}.json"
    obs_path.parent.mkdir(parents=True, exist_ok=True)
    obs_path.write_text(json.dumps(observed, sort_keys=True, indent=1) + "\n")

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes),
        # every step runs once a round, bar belief-large's export
        "rounds": max(map(len, first.samples.values()), default=0),
        "environment": environment(args.seed),
        "setup_import_s": setup_import,
        "import_samples_s": host["import"],
        "reference_samples_s": host["reference"],
        "host_scale": scale,
        "wall_s": wall,
        "phases_s": {f"{ph}_s": t for ph, t in phases.items()},
        "steps_s": step_times(first),
        "samples_s": dict(first.samples),
        "end_to_end": {name: v for name, (v, _u) in end_to_end.items()},
        "per_layer": layers,
        "digests": {"artifacts": len(first.digests),
                    "seed_checked": recorded is not None,
                    "moved_since_recorded": moved_since_recorded},
        "failures": failures,
    }
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    return detail, result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "decisionlab" / "__init__.py").is_file():
        print(f"error: no decisionlab sources under {SRC}", file=sys.stderr)
        return 2
    # one BLAS thread: the benchmark measures a single process doing the work
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    # one CPU for the benchmark and the children it starts, which run only
    # while it waits for them: a pipe round trip to the external policy then
    # takes 25-30 us, where across two vCPUs it took 30 us to 200 us,
    # depending on how long the host took to wake the other one
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import decisionlab

    if Path(decisionlab.__file__).resolve().parent != (SRC / "decisionlab").resolve():
        print(f"error: imported decisionlab from {decisionlab.__file__}", file=sys.stderr)
        return 2
    detail, result = run(args)
    out = STATE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"detail": detail, "result": result}, indent=1) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
