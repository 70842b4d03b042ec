"""Seeded workload sessions for the mesonosc benchmark.

A workload is one round of CLI calls, built once from the seed and then
repeated until the run's time is up, so every round does identical work.
Each call carries its argv, the data file it writes, the number of work
items it completes and the parameters its reference check needs.  The
program only ever sees the argv.
"""

from __future__ import annotations

import copy
import json
import math
import os
import random
from dataclasses import dataclass, field

SPECIES = ("K0", "B0", "Bs", "D0")
FIT_SPECIES = ("K0", "Bs")
WORKLOADS = ("grid", "oracle", "fit")

# Collapse length and reference mass of the benchmark's own CSL presets.
BENCH_R_C = 1e-5
BENCH_M0 = 940.0

GRID_SINGLE_POINTS = 61
GRID_JOINT_SIDE = 15
# One Gaussian-kernel joint surface per round is finer than the rest, so
# the slowest calls form a small group of equal calls and call_tail_s sits
# inside it instead of at the extreme of a large group.
GRID_JOINT_FINE = 25
GRID_OVERLAP_POINTS = 21
GRID_QUICK_EACH = 10          # rates, diag and overlap calls per round each
MC_STEPS = 64
# Call sizes are chosen so the median call sits inside one group of
# equal calls, not on the edge between two, and the tail inside the
# largest group.
MC_ROUND = (("exp", 8192), ("white", 8192), ("exp", 16384))
FIT_EVENTS = 10000
FIT_EVENTS_LARGE = 20000      # one K0 file: the slowest calls
FIT_FILES = 4
FIT_READS = 3                 # fit --events calls per saved file


@dataclass
class Call:
    kind: str
    argv: list[str]
    out: str
    items: int
    params: dict = field(default_factory=dict)
    extra_files: tuple[str, ...] = ()


def _f(x: float) -> str:
    return repr(float(x))


def _species_data(entry: dict) -> dict:
    return {
        "name": entry["name"],
        "m_light": float(entry["m_light_mev"]),
        "delta_m": float(entry["delta_m_mev"]),
        "tau_light": float(entry["tau_light_s"]),
        "tau_heavy": float(entry["tau_heavy_s"]),
    }


def bench_gamma(species: dict, rate: float) -> float:
    """Collapse strength whose white-noise damping rate for ``species`` is
    ``rate`` [1/s]: rate = gamma (dm/m0)^2 F(0) / 2 with
    F(0) = (4 pi)^-3/2 / r_C^3."""
    f0 = (4.0 * math.pi) ** -1.5 / BENCH_R_C**3
    return 2.0 * rate / ((species["delta_m"] / BENCH_M0) ** 2 * f0)


def _grid(rng: random.Random, tmp: str, base_config: dict):
    config = copy.deepcopy(base_config)
    species = {e["name"]: _species_data(e) for e in config["species"]}
    presets = {p["name"]: {"gamma": float(p["gamma_cm3_per_s"]),
                           "r_c": float(p["r_c_cm"]),
                           "m0": float(p["m0_mev"])} for p in config["csl"]}
    for name in SPECIES:
        sp = species[name]
        gamma = bench_gamma(sp, rng.uniform(0.3, 1.0) / sp["tau_light"])
        presets[f"bench_{name}"] = {"gamma": gamma, "r_c": BENCH_R_C,
                                    "m0": BENCH_M0}
        config["csl"].append({"name": f"bench_{name}",
                              "gamma_cm3_per_s": gamma,
                              "r_c_cm": BENCH_R_C, "m0_mev": BENCH_M0})
    cfg_path = os.path.join(tmp, "config.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    order = [s["name"] for s in config["species"]]
    common = {"species_table": species, "presets": presets,
              "species_order": order}

    def out(idx: int, ext: str) -> str:
        return os.path.join(tmp, f"g{idx:03d}.{ext}")

    def model(name: str, sp: dict, tmax: float, relativistic: bool = False):
        if name == "none":
            return ["--model", "none"], {"model": "none"}
        if name == "lindblad":
            lam = rng.uniform(0.3, 1.0) / sp["tau_light"]
            return (["--model", "lindblad", "--lambda-single", _f(lam)],
                    {"model": "lindblad", "lambda": lam})
        flags = ["--model", "csl", "--csl-preset", f"bench_{sp['name']}"]
        spec = {"model": "csl", "preset": f"bench_{sp['name']}",
                "kernel": name, "tau": None}
        if name != "white":
            tau = rng.uniform(0.2, 1.0) * tmax
            flags += ["--kernel", f"{name}:{_f(tau)}"]
            spec["tau"] = tau
        if relativistic:
            # momentum 0 only: at p > 0 the program's oscillation phase
            # loses precision (see README), so only the relativistic
            # damping branch is exercised and checked here
            flags += ["--relativistic", "--momentum", "0"]
            spec["momentum"] = 0.0
        return flags, spec

    calls: list[Call] = []
    names = list(SPECIES)
    rng.shuffle(names)
    for name in names:
        sp = species[name]
        for kernel in ("none", "lindblad", "white", "exp", "gauss"):
            tmax = rng.uniform(2.0, 4.0) * sp["tau_light"]
            flags, spec = model(kernel, sp, tmax, relativistic=(
                kernel == "exp" and name == names[0]))
            path = out(len(calls), "csv")
            grid = f"0:{_f(tmax)}:{GRID_SINGLE_POINTS}"
            calls.append(Call(
                "single",
                ["--config", cfg_path, "--out", path, "single",
                 "--species", name, "--t-grid", grid] + flags,
                path, 4 * GRID_SINGLE_POINTS,
                {**common, **spec, "species": name, "tmax": tmax,
                 "n": GRID_SINGLE_POINTS}))

            tmax = rng.uniform(2.0, 4.0) * sp["tau_light"]
            flags, spec = model(kernel, sp, tmax)
            # like flavours without damping, so the EPR zero is checked
            if kernel == "none":
                pl = pr = rng.choice("PA")
            else:
                pl, pr = rng.choice("PA"), rng.choice("PA")
            side = (GRID_JOINT_FINE if kernel == "gauss" and name == names[0]
                    else GRID_JOINT_SIDE)
            path = out(len(calls), "csv")
            grid = f"0:{_f(tmax)}:{side}"
            calls.append(Call(
                "joint",
                ["--config", cfg_path, "--out", path, "joint",
                 "--species", name, "--t-left", grid, "--t-right", grid,
                 "--proj-left", pl, "--proj-right", pr] + flags,
                path, side**2,
                {**common, **spec, "species": name, "tmax": tmax,
                 "n": side, "proj": pl + pr}))

    preset_names = sorted(presets)
    for _ in range(GRID_QUICK_EACH):
        preset = rng.choice(preset_names)
        path = out(len(calls), "csv")
        calls.append(Call(
            "rates",
            ["--config", cfg_path, "--out", path, "rates",
             "--csl-preset", preset],
            path, len(order), {**common, "preset": preset}))

        name = rng.choice(SPECIES)
        r_c = 10 ** rng.uniform(-6.0, -4.0)
        t = 10 ** rng.uniform(-9.0, -6.0)
        path = out(len(calls), "json")
        calls.append(Call(
            "diag",
            ["--config", cfg_path, "--out", path, "diag", "--species",
             name, "--r-c", _f(r_c), "--t", _f(t)],
            path, 0, {**common, "species": name, "r_c": r_c, "t": t}))

        sigma = 10 ** rng.uniform(-6.0, -4.0)
        r_c = 10 ** rng.uniform(-6.0, -4.0)
        speed = 0.2 * 2.99792458e10
        # largest separation a few combined widths, so the ratio spans
        # order one down to ~1e-4
        width = 2.0 * math.sqrt(r_c * r_c + sigma * sigma)
        tmax = rng.uniform(1.0, 3.0) * width / (2.0 * speed)
        path = out(len(calls), "csv")
        calls.append(Call(
            "overlap",
            ["--config", cfg_path, "--out", path, "overlap", "--sigma",
             _f(sigma), "--r-c", _f(r_c),
             "--t-grid", f"0:{_f(tmax)}:{GRID_OVERLAP_POINTS}"],
            path, GRID_OVERLAP_POINTS,
            {"sigma": sigma, "r_c": r_c, "speed": speed, "tmax": tmax,
             "n": GRID_OVERLAP_POINTS}))
    rng.shuffle(calls)

    def warm(kind: str, argv: list[str], ext: str) -> Call:
        path = os.path.join(tmp, f"warm_{kind}.{ext}")
        return Call(kind, ["--config", cfg_path, "--out", path] + argv,
                    path, 0)

    warmup = [
        warm("single", ["single", "--species", "K0", "--t-grid",
                        "0:1e-10:3", "--model", "csl", "--csl-preset",
                        "bench_K0", "--kernel", "gauss:5e-11"], "csv"),
        warm("joint", ["joint", "--species", "B0", "--t-left",
                       "0:1e-12:2", "--t-right", "0:1e-12:2", "--model",
                       "csl", "--csl-preset", "bench_B0", "--kernel",
                       "exp:1e-12"], "csv"),
        warm("rates", ["rates"], "csv"),
        warm("diag", ["diag"], "json"),
        warm("overlap", ["overlap", "--t-grid", "0:1e-12:3"], "csv"),
    ]
    return warmup, calls


def _oracle(rng: random.Random, tmp: str):
    calls = []
    for idx, (kernel, n) in enumerate(MC_ROUND):
        seed = rng.randrange(1, 2**31)
        t = rng.uniform(0.5, 2.0)
        f0 = rng.uniform(0.5, 2.0)
        gamma_k = rng.uniform(0.5, 2.0)
        exponent = rng.uniform(0.3, 1.2)
        tau = None
        if kernel == "white":
            growth = 0.5 * t
            kernel_arg = "white"
        else:
            # dt = t/64 stays below tau/10 for tau >= 0.3 t
            tau = rng.uniform(0.3, 1.0) * t
            growth = 0.5 * (t + tau * math.expm1(-t / tau))
            kernel_arg = f"exp:{_f(tau)}"
        gamma_j = (math.sqrt(gamma_k) + math.sqrt(exponent / (f0 * growth))) ** 2
        path = os.path.join(tmp, f"mc{idx}.json")
        calls.append(Call(
            "mc",
            ["--seed", str(seed), "--out", path, "mc", "--gamma-j",
             _f(gamma_j), "--gamma-k", _f(gamma_k), "--f0", _f(f0),
             "--t", _f(t), "--n-trajectories", str(n), "--n-steps",
             str(MC_STEPS), "--kernel", kernel_arg],
            path, n * MC_STEPS,
            {"gamma_j": gamma_j, "gamma_k": gamma_k, "f0": f0, "t": t,
             "tau": tau, "n": n}))
    path = os.path.join(tmp, "warm_mc.json")
    warmup = [Call("mc", ["--seed", "1", "--out", path, "mc", "--gamma-j",
                          "4", "--gamma-k", "1", "--f0", "1", "--t", "1",
                          "--n-trajectories", "200", "--n-steps", "20",
                          "--kernel", "exp:0.5"], path, 0)]
    return warmup, calls


def _fit(rng: random.Random, tmp: str):
    calls = []
    names = [FIT_SPECIES[i % len(FIT_SPECIES)] for i in range(FIT_FILES)]
    rng.shuffle(names)
    for idx, name in enumerate(names):
        # always a K0 file, so the 10000-event group that holds the median
        # call has the same species mix at every seed
        n = FIT_EVENTS_LARGE if idx == names.index("K0") else FIT_EVENTS
        seed = rng.randrange(1, 2**31)
        zeta = rng.uniform(0.05, 0.5)
        events = os.path.join(tmp, f"events{idx}.csv")
        written = os.path.join(tmp, f"fit{idx}_write.json")
        calls.append(Call(
            "fit",
            ["--seed", str(seed), "--out", written, "fit", "--species",
             name, "--zeta-true", _f(zeta), "--n-events", str(n),
             "--save-events", events],
            written, n,
            {"species": name, "zeta_true": zeta, "n": n, "events": events},
            extra_files=(events,)))
        for rep in range(FIT_READS):
            read = os.path.join(tmp, f"fit{idx}_read{rep}.json")
            calls.append(Call(
                "fit",
                ["--out", read, "fit", "--species", name, "--events", events],
                read, n, {"species": name, "n": n, "pair_of": written}))
    ev = os.path.join(tmp, "warm_events.csv")
    warmup = [
        Call("fit", ["--seed", "1", "--out", os.path.join(tmp, "warm_w.json"),
                     "fit", "--zeta-true", "0.2", "--n-events", "200",
                     "--save-events", ev], "", 0),
        Call("fit", ["--out", os.path.join(tmp, "warm_r.json"), "fit",
                     "--events", ev], "", 0),
    ]
    return warmup, calls


def build(workload: str, seed: int, tmp: str, base_config: dict):
    """Return (warm-up calls, session round) for ``workload`` at ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "grid":
        return _grid(rng, tmp, base_config)
    if workload == "oracle":
        return _oracle(rng, tmp)
    if workload == "fit":
        return _fit(rng, tmp)
    raise ValueError(f"unknown workload '{workload}'")
