"""Repeat perfbench/run.py over seeds and summarise run-to-run spread.

    python3 perfbench/spread.py --workloads grid oracle fit --seeds 1-10 \
        --out set1.json [--compare set0.json] [--trace 1]

Every run lasts run_seconds from BENCHMARK.json.  For every workload and
metric it prints the median, the quartiles (statistics.quantiles, n=4) and
the spread (Q3 - Q1) / median next to the metric's bound from
BENCHMARK.json, and fails when a spread exceeds its bound.  With
``--compare`` it also prints how far each median moved against an earlier
set, in the metric's worse direction, and checks that count and byte
metrics match seed by seed.  Runs go one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXACT_UNITS = ("count", "bytes")


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=HERE.parent, capture_output=True, text=True,
        timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(proc.stdout, file=sys.stderr)
    return result


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def worse_by(metric: dict, new: float, old: float) -> float:
    if not old:
        return 0.0
    change = (new - old) / old
    return -change if metric["better"] == "higher" else change


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=["grid", "oracle", "fit"])
    ap.add_argument("--seeds", default="1-10", help="first-last")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", required=True, help="JSON file for the raw runs")
    ap.add_argument("--compare", default=None, help="earlier --out file")
    args = ap.parse_args()

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    spec = bench["per_layer"] if args.trace else bench["end_to_end"]
    seconds = bench["run_seconds"]
    old = json.loads(Path(args.compare).read_text()) if args.compare else None

    record = {"seconds": seconds, "trace": args.trace,
              "load_before": os.getloadavg(), "runs": {}}
    for workload in args.workloads:
        runs = {}
        for seed in seeds(args.seeds):
            result = run_one(workload, seed, seconds, args.trace)
            runs[str(seed)] = result
            shown = " ".join(f"{name}={m['value']:.6g}" for name, m
                             in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {shown}",
                  flush=True)
        record["runs"][workload] = runs
    record["load_after"] = os.getloadavg()
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")

    ok = True
    for workload, runs in record["runs"].items():
        print(f"\n{workload}: {len(runs)} runs")
        for m in spec:
            values = [r["metrics"][m["name"]]["value"] for r in runs.values()]
            line = f"  {m['name']:<42}"
            if len(values) >= 2 and statistics.median(values):
                s = summary(values)
                line += (f" median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                         f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f}")
                if "bound" in m:
                    line += f" bound {m['bound']}"
                    if s["spread"] > m["bound"]:
                        ok = False
                        line += " SPREAD>BOUND"
            else:
                line += f" values {sorted(set(values))[:3]}"
            if old and workload in old["runs"]:
                before = old["runs"][workload]
                prev = [r["metrics"][m["name"]]["value"]
                        for r in before.values()]
                if m["unit"] in EXACT_UNITS:
                    same = all(before.get(k, {}).get("metrics", {})
                               .get(m["name"], {}).get("value") ==
                               r["metrics"][m["name"]]["value"]
                               for k, r in runs.items())
                    line += " exact-match" if same else " COUNTS DIFFER"
                    ok &= same
                elif prev and statistics.median(prev):
                    w = worse_by(m, statistics.median(values),
                                 statistics.median(prev))
                    line += f" worse-by {w:+.4f}"
                    if "bound" in m and w > m["bound"]:
                        ok = False
                        line += " REGRESSION"
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
