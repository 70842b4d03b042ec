"""mesonosc benchmark: one workload run, end-to-end or traced.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 10 --trace 0

Run from the root of a checkout (or anywhere: paths are taken relative to
this file).  ``--trace 0`` measures the end-to-end metrics: set-up time of
fresh interpreters and a timed session of in-process ``mesonosc.cli.main``
calls.  ``--trace 1`` measures the per-layer metrics: ``-X importtime``
import costs and a session with spans around each layer, next to an
untraced session for the tracing overhead.  Metric names, units and
directions come from BENCHMARK.json.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it are a readable report.  Exits 2 when the checkout holds no
mesonosc sources, 1 when a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("grid", "oracle", "fit")
SESSIONS = 8
IMPORT_SAMPLES = 3
IMPORT_MODULES = {"mesonosc": "import.mesonosc_s",
                  "scipy.signal": "import.scipy_signal_s",
                  "scipy.optimize": "import.scipy_optimize_s",
                  "scipy.integrate": "import.scipy_integrate_s"}
# span name -> which per-round figures become metrics
SPAN_METRICS = {
    "cli.main": ("calls", "self_s"),
    "constants.load_config": ("calls", "busy_s"),
    "kernels.growth_integral.White": ("calls", "self_s"),
    "kernels.growth_integral.Exponential": ("calls", "self_s"),
    "kernels.growth_integral.Gaussian": ("calls", "self_s"),
    "kernels.quad": ("calls",),
    "oscillation.pkj": ("calls", "self_s"),
    "oscillation.damping_exponent": ("calls", "self_s"),
    "oscillation.transition_probability": ("calls", "self_s"),
    "entangle.joint_probability": ("calls", "self_s"),
    "wavepackets.suppression_ratio": ("calls", "busy_s"),
    "oracle.simulate_damping": ("calls", "self_s"),
    "oracle.lfilter": ("busy_s",),
    "inference.generate_events": ("calls", "self_s"),
    "inference.events_to_csv": ("calls", "self_s"),
    "inference.events_from_csv": ("calls", "self_s"),
    "inference.fit_zeta": ("calls", "self_s"),
    "inference.minimize_scalar": ("busy_s",),
    "inference.brentq": ("busy_s",),
}


class BenchError(Exception):
    pass


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _env() -> dict:
    env = dict(os.environ)
    threads = str(_nproc())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, mode: str, seconds: float, tmp: str) -> tuple[float, dict]:
    """Start one fresh worker; return (seconds until ready, result)."""
    os.makedirs(tmp)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           repr(seconds), "--mode", mode, "--tmp", tmp]
    limit = 120.0 + 2 * seconds
    with open(os.path.join(tmp, "stderr.txt"), "w+", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), text=True,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(limit, proc.kill)
        timer.start()
        ready, result = None, None
        try:
            for line in proc.stdout:
                if line.startswith("@ready") and ready is None:
                    ready = time.perf_counter() - start
                elif line.startswith("@result "):
                    result = json.loads(line[len("@result "):])
            code = proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if code != 0 or ready is None or result is None:
            err.seek(0)
            tail = err.read()[-2000:]
            raise BenchError(f"{mode} worker exited {code}:\n{tail}")
    return ready, result


def import_times() -> dict:
    """Cumulative import time of each module in IMPORT_MODULES during
    ``import mesonosc``, median over fresh ``-X importtime`` interpreters.

    scipy loads some subpackages through its module ``__getattr__``, and
    then importtime prints no line for the subpackage itself; its time is
    taken as the sum over its shallowest submodule lines.  A module that
    is not imported at all reads 0.
    """
    env = _env()
    env["PYTHONPATH"] = str(ROOT / "src")
    pattern = re.compile(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|( +)(\S+)\s*$")
    samples = {name: [] for name in IMPORT_MODULES}
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import mesonosc"],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"import failed:\n{proc.stderr[-2000:]}")
        lines = [(int(m.group(1)) * 1e-6, len(m.group(2)), m.group(3))
                 for m in map(pattern.match, proc.stderr.splitlines()) if m]
        for target in IMPORT_MODULES:
            own = [cum for cum, _, name in lines if name == target]
            if not own:
                subs = [(depth, cum) for cum, depth, name in lines
                        if name.startswith(target + ".")]
                top = min((d for d, _ in subs), default=None)
                own = [sum(cum for d, cum in subs if d == top)]
            samples[target].append(own[0])
    return {IMPORT_MODULES[n]: statistics.median(v) for n, v in samples.items()}


def per_call(sessions: list[dict], key: str, n: int) -> list[list]:
    """Regroup the flat per-call ``key`` lists of sessions by call index."""
    grouped: list[list] = [[] for _ in range(n)]
    for sess in sessions:
        for j, value in enumerate(sess[key]):
            grouped[j % n].append(value)
    return grouped


def items_per_s(sessions: list[dict], items: list[int]) -> float:
    """Work items per second of ``cli.main`` time for one round, with each
    call's time the median over all its repeats.  Items of a call that
    ever failed are not counted."""
    n = len(items)
    times = per_call(sessions, "call_times", n)
    ok = per_call(sessions, "call_ok", n)
    done = sum(k for k, flags in zip(items, ok) if all(flags))
    return done / sum(statistics.median(t) for t in times)


def tail(times: list[float]) -> tuple[float, float]:
    """Highest call time with at least ten calls above it, and the
    percentile that makes it."""
    if len(times) < 11:
        raise BenchError(f"only {len(times)} calls; the tail needs 11")
    return sorted(times)[-11], 100.0 * (1.0 - 10.0 / len(times))


def _same(values, what: str, problems: list[str]) -> None:
    if any(v != values[0] for v in values):
        problems.append(f"{what} differs between rounds: "
                        f"{sorted(set(map(str, values)))[:4]}")


def end_to_end(args, tmp: str) -> tuple[dict, dict, list[str]]:
    """SESSIONS fresh workers one after another, each timing its set-up
    and then running 1/SESSIONS of the session time."""
    setups, results = [], []
    for i in range(SESSIONS):
        ready, result = run_worker(args, "run", args.seconds / SESSIONS,
                                   os.path.join(tmp, f"run{i}"))
        setups.append(ready)
        results.append(result)
    sessions = [r["session"] for r in results]
    items = results[0]["call_items"]
    rounds = [rnd for sess in sessions for rnd in sess["rounds"]]
    times = [t for sess in sessions for t in sess["call_times"]]
    attempted = sum(sess["attempted"] for sess in sessions)
    failed = sum(sess["failed"] for sess in sessions)
    problems = []
    _same([r[0] for r in rounds], "items per round", problems)
    _same([r[2] for r in rounds], "bytes per round", problems)
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": statistics.median(setups),
        "items_per_s": items_per_s(sessions, items),
        "call_p50_s": statistics.median(times),
        "call_tail_s": tail_s,
        "ok_ratio": 1.0 - failed / attempted,
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in results)
                       / 1024.0,
    }
    notes = {
        "setup_samples_s": setups,
        "fail_ratio": failed / attempted,
        "tail_percentile": tail_pct,
        "rounds": len(rounds),
        "items_per_round": sum(items),
        "calls_per_round": len(items),
        "bytes_per_round": rounds[0][2],
        "errors": [e for sess in sessions for e in sess["errors"]][:5],
        "versions": results[0]["versions"],
        "attempted": attempted,
        "failed": failed,
    }
    return metrics, notes, problems


def traced(args, tmp: str) -> tuple[dict, dict, list[str]]:
    metrics = import_times()
    # half the time untraced, half traced
    _, result = run_worker(args, "trace", args.seconds / 2,
                           os.path.join(tmp, "trace"))
    plain, tr = result["session"], result["traced"]
    problems = []
    rounds = plain["rounds"] + tr["rounds"]
    _same([r[0] for r in rounds], "items per round", problems)
    _same([r[2] for r in rounds], "bytes per round", problems)
    n_rounds = len(tr["rounds"])
    cumulative = [{}] + tr["round_counts"]
    per_round = [{k: v - prev.get(k, 0) for k, v in cur.items()}
                 for prev, cur in zip(cumulative, cumulative[1:])]
    _same(per_round, "span calls per round", problems)

    totals: dict[str, list] = {}
    for name, _parent, calls, busy, own in result["spans"]:
        rec = totals.setdefault(name, [0, 0.0, 0.0])
        rec[0] += calls
        rec[1] += busy
        rec[2] += own
    for name, wanted in SPAN_METRICS.items():
        calls, busy, own = totals.get(name, (0, 0.0, 0.0))
        values = {"calls": per_round[0].get(name, 0),
                  "busy_s": busy / n_rounds, "self_s": own / n_rounds}
        for key in wanted:
            metrics[f"{name}.{key}"] = values[key]
    metrics["cli.bytes_written"] = tr["rounds"][0][2]
    kind_items = result["kind_items"]
    metrics["oracle.trajectory_steps"] = kind_items.get("mc", 0)
    metrics["inference.events"] = kind_items.get("fit", 0)
    metrics["trace.overhead_ratio"] = (
        items_per_s([tr], result["call_items"])
        / items_per_s([plain], result["call_items"]))
    notes = {
        "spans": result["spans"],
        "rounds": n_rounds,
        "traced_wall_s": tr["wall_s"],
        "main_busy_s": totals.get("cli.main", [0, 0.0])[1],
        "errors": plain["errors"] + tr["errors"],
        "versions": result["versions"],
        "attempted": plain["attempted"] + tr["attempted"],
        "failed": plain["failed"] + tr["failed"],
    }
    return metrics, notes, problems


def report(args, spec: dict, metrics: dict, notes: dict, machine: dict) -> None:
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    if args.trace:
        n = notes["rounds"]
        print(f"traced session: {n} rounds; per-round figures below")
        print(f"  {'span':<38} {'parent':<34} {'calls':>8} {'busy_s':>11} "
              f"{'self_s':>11}")
        for name, parent, calls, busy, own in notes["spans"]:
            print(f"  {name:<38} {str(parent):<34} {calls // n:>8} "
                  f"{busy / n:>11.6f} {own / n:>11.6f}")
        main_busy = notes["main_busy_s"]
        layers: dict[str, float] = {}
        for name, _parent, _calls, _busy, own in notes["spans"]:
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + own
        print("self time by layer, share of cli.main time: " + ", ".join(
            f"{k}={v / main_busy:.3f}" for k, v in sorted(layers.items())))
        print(f"cli.main time is {main_busy / notes['traced_wall_s']:.3f} of "
              f"the traced session wall time; the rest is the benchmark loop "
              f"and output checks")
    else:
        print(f"session: {SESSIONS} workers, {notes['rounds']} rounds, "
              f"{notes['attempted']} calls, "
              f"{notes['calls_per_round']} calls and "
              f"{notes['items_per_round']} items per round, "
              f"{notes['bytes_per_round']} data bytes per round "
              f"(from file sizes)")
        print("setup samples (s): " + ", ".join(
            f"{x:.4f}" for x in notes["setup_samples_s"]))
        print(f"call_tail_s is p{notes['tail_percentile']:.2f} of "
              f"{notes['attempted']} calls")
        print(f"  {'fail_ratio':<38} {notes['fail_ratio']:>14.6g} "
              f"{'ratio':<8} lower")
    for m in spec:
        value = metrics[m["name"]]
        shown = f"{value:>14}" if isinstance(value, int) else f"{value:>14.6g}"
        print(f"  {m['name']:<38} {shown} {m['unit']:<8} {m['better']}")
    for line in notes["errors"]:
        print(f"error: {line}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "mesonosc" / "__init__.py").is_file():
        print(f"no mesonosc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    spec = bench["per_layer"] if args.trace else bench["end_to_end"]

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    machine = {"cpu": _cpu_model(), "nproc": _nproc(),
               "load_before": "%.2f/%.2f/%.2f" % os.getloadavg()}
    try:
        measure = traced if args.trace else end_to_end
        metrics, notes, problems = measure(args, tmp)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    machine["load_after"] = "%.2f/%.2f/%.2f" % os.getloadavg()
    machine.update(notes["versions"])

    missing = [m["name"] for m in spec if m["name"] not in metrics]
    if missing:
        print(f"benchmark computes no {missing}", file=sys.stderr)
        return 1
    notes["errors"] += problems
    report(args, spec, metrics, notes, machine)
    print(json.dumps({
        "correct": notes["failed"] == 0 and not problems,
        "attempted": notes["attempted"],
        "failed": notes["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
