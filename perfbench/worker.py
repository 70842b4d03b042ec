"""One benchmark worker: a fresh interpreter that sets up, then runs a
session of mesonosc CLI calls in process.

Set-up is everything before the ``@ready`` line: importing mesonosc,
building the registry, generating the workload's inputs and one small
untimed warm-up call per subcommand.  In ``run`` mode the worker then
repeats the workload's round of calls until ``--seconds`` have passed.
In ``trace`` mode it does that once untraced and once with spans
installed.  The result is one ``@result`` JSON line on stdout.

Run by perfbench/run.py; not meant to be started by hand.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import mesonosc  # noqa: E402
import mesonosc.cli as cli  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class Checker:
    """Checks each call's output against the reference the first time it
    is seen, and for byte identity with that first output afterwards."""

    def __init__(self):
        self.digest: dict[int, str] = {}
        self.docs: dict[str, dict] = {}

    def check(self, idx: int, call: workloads.Call) -> tuple[int, str]:
        """Return (bytes written, error message or '')."""
        paths = (call.out,) + call.extra_files
        try:
            blobs = []
            for path in paths:
                with open(path, "rb") as fh:
                    blobs.append(fh.read())
        except OSError as exc:
            return 0, f"missing output: {exc}"
        size = sum(len(b) for b in blobs)
        digest = hashlib.sha256(b"\0".join(blobs)).hexdigest()
        known = self.digest.get(idx)
        if known is not None:
            return size, "" if digest == known else "output changed on rerun"
        text = blobs[0].decode("utf-8")
        try:
            if call.kind == "fit" and "pair_of" in call.params:
                written = self.docs.get(call.params["pair_of"])
                if written is None:
                    return size, "its write-side fit failed, nothing to compare"
                reference.check_fit_read(text, call.params, written)
            elif call.kind == "fit":
                self.docs[call.out] = reference.check_fit_write(
                    text, call.params)
            else:
                reference.CHECKS[call.kind](text, call.params)
        except (reference.CheckError, ValueError) as exc:
            return size, f"{type(exc).__name__}: {exc}"
        self.digest[idx] = digest
        return size, ""


def session(calls, seconds: float, checker: Checker, tracer=None) -> dict:
    """Repeat the round of calls until ``seconds`` have passed."""
    call_times: list[float] = []
    call_ok: list[bool] = []
    rounds: list[list] = []     # [items, busy_s, bytes]
    round_counts: list[dict] = []
    errors: list[str] = []
    failed = 0
    started = time.perf_counter()
    deadline = started + seconds
    while True:
        items, busy, written = 0, 0.0, 0
        for idx, call in enumerate(calls):
            # a call must write its files afresh every round: a stale file
            # left from an earlier round would pass the byte-identity check
            for path in (call.out, call.out + ".manifest.json",
                         *call.extra_files):
                try:
                    os.remove(path)
                except FileNotFoundError:
                    pass
            t0 = time.perf_counter()
            try:
                rc = cli.main(call.argv)
            except SystemExit as exc:  # argparse rejected the argv
                rc = exc.code
            except Exception as exc:  # a crash is a failed call, not a stop
                rc = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            call_times.append(elapsed)
            busy += elapsed
            size, err = checker.check(idx, call) if rc == 0 else (0, f"exit {rc}")
            written += size
            call_ok.append(not err)
            if err:
                failed += 1
                if len(errors) < 5:
                    errors.append(f"{call.kind} {' '.join(call.argv)}: {err}")
            else:
                items += call.items
        rounds.append([items, busy, written])
        if tracer is not None:
            round_counts.append(tracer.calls())
        if time.perf_counter() >= deadline:
            break
    return {
        "wall_s": time.perf_counter() - started,
        "call_times": call_times,
        "call_ok": call_ok,
        "rounds": rounds,
        "round_counts": round_counts,
        "attempted": len(call_times),
        "failed": failed,
        "errors": errors,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["run", "trace"], required=True)
    ap.add_argument("--tmp", required=True)
    args = ap.parse_args()

    mesonosc.default_registry()
    warmup, calls = workloads.build(args.workload, args.seed, args.tmp,
                                    mesonosc.DEFAULT_CONFIG)
    for call in warmup:
        rc = cli.main(call.argv)
        if rc != 0:
            print(f"warm-up call failed with exit {rc}: {call.argv}",
                  file=sys.stderr)
            return 1
    print("@ready", flush=True)

    # one checker for both phases, so traced outputs must also be
    # byte-identical to untraced ones
    checker = Checker()
    result = {"session": session(calls, args.seconds, checker)}
    if args.mode == "trace":
        tracer = tracing.Tracer()
        tracing.install(tracer, mesonosc)
        result["traced"] = session(calls, args.seconds, checker, tracer)
        result["spans"] = [[name, parent, *rec] for (name, parent), rec
                           in sorted(tracer.stats.items(), key=str)]
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["call_items"] = [c.items for c in calls]
    kind_items: dict[str, int] = {}
    for c in calls:
        kind_items[c.kind] = kind_items.get(c.kind, 0) + c.items
    result["kind_items"] = kind_items
    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": sys.modules["numpy"].__version__,
        "scipy": sys.modules["scipy"].__version__,
        "mesonosc": mesonosc.__version__,
    }
    print("@result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
