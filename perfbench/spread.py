"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload quickstart --seeds 0-9
    python3 perfbench/spread.py --workload belief-large --seeds 0-4 --trace 1

Runs ``perfbench/run.py`` once per seed, one run at a time, from the root of
the checkout and with ``run_seconds`` from BENCHMARK.json.  For each metric it
prints the median and quartiles of the values (``statistics.quantiles`` with
``n=4``) and the spread: the distance between the quartiles as a share of the
median, next to the metric's bound.

``--record`` makes these runs the reference point: it stores each seed's
checked values and artifact digests in ``perfbench/expected.json`` (later
runs at those seeds must match them) and the summary in
``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def record(workload: str, trace: int, runs: list[dict], summary: dict):
    expected_path, baseline_path = HERE / "expected.json", HERE / "baseline.json"
    expected = json.loads(expected_path.read_text())
    for run in runs:
        tag = f"{workload}-seed{run['seed']}"
        observed = json.loads((ROOT / ".perfbench" / "observed" / f"{tag}.json")
                              .read_text())
        for key in ("values", "digests"):
            expected[key].setdefault(workload, {})[str(run["seed"])] = observed[key]
    expected_path.write_text(json.dumps(expected, sort_keys=True, indent=1) + "\n")
    baseline = json.loads(baseline_path.read_text()) if baseline_path.exists() else {}
    baseline.setdefault(workload, {})[f"trace{trace}"] = {
        "seeds": [r["seed"] for r in runs],
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {name: {k: v for k, v in s.items() if k != "values"}
                    for name, s in summary.items()},
    }
    baseline_path.write_text(json.dumps(baseline, sort_keys=True, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 0,3,7")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store values, digests and the summary as the reference")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    runs = []
    for seed in seed_list(args.seeds):
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run([sys.executable if c == "python3" else c for c in cmd],
                              cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        if len(values) < 2 or any(v is None for v in values):
            continue
        summary[name] = summarize(values)
        s = summary[name]
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
        print(f"{name:32s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  "
              f"q3 {s['q3']:12.6g}  spread {spread:>6s}  bound {bounds.get(name)}")
    if args.record:
        record(args.workload, args.trace, runs, summary)
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
