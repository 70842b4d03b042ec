"""Command-line front end.

Every command emits plot-ready CSV or JSON data plus a run manifest (JSON,
stable key order) describing the command, parameters, config hash, seed and
wall-clock duration.  Outputs are deterministic given (config, flags, seed);
rerunning reproduces byte-identical data files.  Each ``cmd_*`` returns its
outputs and writes nothing; ``_write_run`` writes every file of a run.

Exit codes: 0 success, 2 usage, 3 config or file error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import gc
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .constants import CONSTANTS, ConfigError, DEFAULT_CONFIG, Registry, load_config
from .entangle import (
    JointQuery,
    antisymmetric_state,
    flavor_projection,
    joint_probability,
)
from .inference import (
    events_from_csv,
    events_to_csv,
    fit_zeta,
    generate_events,
    lambda_ratio,
)
from .kernels import ExponentialKernel, GaussianKernel, KernelError, WhiteKernel
from .oracle import PlanError, SimulationPlan, simulate_damping
from .oscillation import (
    CslDamping,
    FlavorState,
    LindbladDamping,
    NoDamping,
    csl_damping_rate,
    momentum_spread_diagnostic,
    phase_magnitude_diagnostic,
    transition_probability,
)
from .wavepackets import GaussianPacket, separation, suppression_ratio

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4

_FLAVOR = {"P": FlavorState.PARTICLE, "A": FlavorState.ANTIPARTICLE}

# Importing the package leaves some 40 000 objects that no full garbage
# collection has scanned.  CPython would run that first full collection
# (about 15 ms) at its hundredth young collection, in the middle of the
# first commands of a process that calls main repeatedly; run it at import.
gc.collect()


def _load_registry(args) -> tuple[Registry, str]:
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = json.dumps(DEFAULT_CONFIG)
    return load_config(text), text


def _kernel_from_arg(spec: str):
    if spec == "white":
        return WhiteKernel()
    kind, _, arg = spec.partition(":")
    if kind == "exp":
        return ExponentialKernel(tau=float(arg))
    if kind == "gauss":
        return GaussianKernel(tau=float(arg))
    raise ConfigError(f"unknown kernel spec '{spec}'")


def _damping_from_args(args, reg: Registry):
    if args.model == "csl":
        return CslDamping(
            params=reg.get_csl(args.csl_preset),
            kernel=_kernel_from_arg(args.kernel),
            relativistic=args.relativistic,
        )
    if args.model == "lindblad":
        return LindbladDamping(lambda_single=args.lambda_single)
    return NoDamping()


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_run(args, files, text: str, manifest: str) -> None:
    """The one writer of a run: the command's (path, text) files, then the
    data and manifest to --out and --out.manifest.json, else to stdout and
    stderr.  A failed write removes every file opened so far, then raises."""
    if args.out:
        files = [*files, (args.out, text),
                 (args.out + ".manifest.json", manifest)]
    opened = []
    try:
        for path, body in files:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                opened.append(path)
                fh.write(body)
        if not args.out:
            # flushed here, so a failed write is caught while files exist
            for name, body in (("stdout", text), ("stderr", manifest)):
                stream = getattr(sys, name)
                if stream is None:  # its file descriptor was closed
                    raise OSError(errno.EBADF, f"{name} is closed")
                stream.write(body)
                stream.flush()
    except BaseException:
        for path in opened:
            os.remove(path)
        raise


def _release(stream) -> None:
    """Flush a standard stream.  If that fails, point its file descriptor
    at os.devnull, so that the interpreter's flush at exit drops what the
    buffer still holds instead of failing again and exiting 120 (Python's
    recipe for SIGPIPE).  None (fd closed at startup) holds nothing."""
    try:
        stream.flush()
    except (AttributeError, OSError, ValueError):
        try:
            fd = stream.fileno()
        except (AttributeError, OSError, ValueError):
            return  # None, or a stream without a file descriptor
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)


def _report(message: str) -> None:
    """Write message to stderr; main's release flushes it."""
    try:
        sys.stderr.write(message)
    except (AttributeError, OSError):  # None, or an unwritable file
        pass


def _manifest(args, config_text: str, started: float) -> dict:
    params = {
        k: v for k, v in sorted(vars(args).items()) if not callable(v)
    }
    return {
        "command": args.command,
        "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
        "duration_s": time.monotonic() - started,
        "parameters": params,
        "seed": args.seed,
        "version": __version__,
    }


def _csv(header: list[str], rows) -> str:
    """Rows as CSV: strings verbatim, numbers %.12e, one template per table."""
    rows = list(rows)
    lines = [",".join(header)]
    if rows:
        template = ",".join(
            "%s" if isinstance(x, str) else "%.12e" for x in rows[0])
        lines += [template % row for row in rows]
    return "\n".join(lines) + "\n"


def _grid(spec: str) -> np.ndarray:
    """Parse 'start:stop:n' into a linspace of finite times >= 0."""
    try:
        start, stop, n = spec.split(":")
        start, stop, n = float(start), float(stop), int(n)
    except ValueError:
        raise ValueError(f"bad grid spec '{spec}'") from None
    if not (math.isfinite(start) and math.isfinite(stop)) or n < 1 \
            or min(start, stop) < 0:
        raise ValueError(f"bad grid spec '{spec}'")
    return np.linspace(start, stop, n)


def cmd_rates(args, reg: Registry) -> tuple[str, tuple]:
    params = reg.get_csl(args.csl_preset)
    rows = []
    for name, sp in reg.species.items():
        lam = csl_damping_rate(params, sp)
        rows.append((name, lam, lambda_ratio(lam, sp)))
    return _csv(["species", "lambda_csl_per_s", "lambda_over_width"], rows), ()


def cmd_single(args, reg: Registry) -> tuple[str, tuple]:
    sp = reg.get_species(args.species)
    spec = _damping_from_args(args, reg)
    grid = _grid(args.t_grid)
    decay = not args.no_decay
    p_surv, p_flip = (
        transition_probability(FlavorState.PARTICLE, final, sp, grid, spec,
                               args.momentum, decay)
        for final in FlavorState)
    # CP is conserved, so the anti-particle columns repeat the particle ones
    columns = (grid, p_surv, p_flip, p_surv, p_flip, p_surv + p_flip)
    return _csv(
        ["t_s", "p_survive", "p_flip", "p_survive_anti", "p_flip_anti",
         "sum_check"],
        zip(*(c.tolist() for c in columns)),
    ), ()


def cmd_joint(args, reg: Registry) -> tuple[str, tuple]:
    sp = reg.get_species(args.species)
    spec = _damping_from_args(args, reg)
    state = antisymmetric_state()
    proj = flavor_projection(_FLAVOR[args.proj_left], _FLAVOR[args.proj_right])
    t_l, t_r = _grid(args.t_left), _grid(args.t_right)
    q = JointQuery(t_l[:, None], t_r[None, :], sp, spec, args.momentum)
    prob = joint_probability(state, proj, q)
    return _csv(["t_left_s", "t_right_s", "probability"],
                zip(np.repeat(t_l, t_r.size).tolist(),
                    np.tile(t_r, t_l.size).tolist(), prob.ravel().tolist())), ()


def cmd_mc(args, reg: Registry) -> tuple[str, tuple]:
    plan = SimulationPlan(
        n_trajectories=args.n_trajectories,
        n_steps=args.n_steps,
        dt=args.t / args.n_steps,
        seed=args.seed,
        kernel=_kernel_from_arg(args.kernel),
    )
    res = simulate_damping(args.gamma_j, args.gamma_k, args.f0, args.t, plan)
    return _json(dataclasses.asdict(res)), ()


def cmd_fit(args, reg: Registry) -> tuple[str, tuple]:
    sp = reg.get_species(args.species)
    if args.events:
        with open(args.events, "r", encoding="utf-8") as fh:
            events = events_from_csv(fh.read())
    else:
        if args.zeta_true is None:
            raise ConfigError("provide --events or --zeta-true/--n-events")
        events = generate_events(sp, args.zeta_true, args.n_events, args.seed)
    result = fit_zeta(events, sp)
    if not result.converged:
        raise PlanError("fit did not converge")
    saved = ()  # --save-events applies to generated events only
    if args.save_events and not args.events:
        saved = ((args.save_events, events_to_csv(events)),)
    return _json(dataclasses.asdict(result)), saved


def cmd_overlap(args, reg: Registry) -> tuple[str, tuple]:
    left = GaussianPacket(0.0, args.sigma, -args.speed)
    right = GaussianPacket(0.0, args.sigma, args.speed)
    rows = [(t, separation(t, left, right),
             suppression_ratio(t, left, right, args.r_c))
            for t in _grid(args.t_grid)]
    return _csv(["t_s", "separation_cm", "suppression_ratio"], rows), ()


def cmd_diag(args, reg: Registry) -> tuple[str, tuple]:
    sp = reg.get_species(args.species)
    return _json({
        "momentum_spread": momentum_spread_diagnostic(args.r_c),
        "phase_magnitude": phase_magnitude_diagnostic(sp, args.t),
    }), ()


def _add_model_flags(p):
    p.add_argument("--model", choices=["none", "csl", "lindblad"], default="none")
    p.add_argument("--csl-preset", default="adler")
    p.add_argument("--kernel", default="white",
                   help="white | exp:TAU | gauss:TAU")
    p.add_argument("--lambda-single", type=float, default=0.0)
    p.add_argument("--momentum", type=float, default=0.0)
    p.add_argument("--relativistic", action="store_true")


@functools.cache  # parse_args never mutates the parser; build it once
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mesonosc",
        description="Neutral-meson oscillation probabilities under collapse "
                    "and decoherence models",
    )
    ap.add_argument("--config", default=None, help="JSON config path")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None, help="output file path")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rates", help="collapse damping-rate table")
    p.add_argument("--csl-preset", default="adler")
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("single", help="single-particle probability curves")
    p.add_argument("--species", default="K0")
    p.add_argument("--t-grid", default="0:1e-9:201", help="start:stop:n")
    p.add_argument("--no-decay", action="store_true")
    _add_model_flags(p)
    p.set_defaults(func=cmd_single)

    p = sub.add_parser("joint", help="two-particle probability surface")
    p.add_argument("--species", default="K0")
    p.add_argument("--t-left", default="0:5e-10:21")
    p.add_argument("--t-right", default="0:5e-10:21")
    p.add_argument("--proj-left", choices=["P", "A"], default="P")
    p.add_argument("--proj-right", choices=["P", "A"], default="P")
    _add_model_flags(p)
    p.set_defaults(func=cmd_joint)

    p = sub.add_parser("mc", help="stochastic damping oracle")
    p.add_argument("--gamma-j", type=float, required=True)
    p.add_argument("--gamma-k", type=float, required=True)
    p.add_argument("--f0", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--n-trajectories", type=int, default=100000)
    p.add_argument("--n-steps", type=int, default=64)
    p.add_argument("--kernel", default="white")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("fit", help="zeta maximum-likelihood fit")
    p.add_argument("--species", default="K0")
    p.add_argument("--events", default=None, help="event CSV path")
    p.add_argument("--zeta-true", type=float, default=None)
    p.add_argument("--n-events", type=int, default=20000)
    p.add_argument("--save-events", default=None)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("overlap", help="wave-packet cross-term suppression")
    p.add_argument("--sigma", type=float, default=1e-4)
    p.add_argument("--r-c", type=float, default=1e-5)
    p.add_argument("--speed", type=float, default=0.2 * CONSTANTS.c_cm_s)
    p.add_argument("--t-grid", default="0:1e-12:21")
    p.set_defaults(func=cmd_overlap)

    p = sub.add_parser("diag", help="momentum-spread and phase diagnostics")
    p.add_argument("--species", default="K0")
    p.add_argument("--r-c", type=float, default=1e-5)
    p.add_argument("--t", type=float, default=1.6e-7)
    p.set_defaults(func=cmd_diag)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        started = time.monotonic()
        reg, config_text = _load_registry(args)
        text, files = args.func(args, reg)
        _write_run(args, files, text,
                   _json(_manifest(args, config_text, started)))
    except (ConfigError, KernelError, OSError) as exc:
        _report(f"config or file error: {exc}\n")
        return EXIT_CONFIG
    except (PlanError, ArithmeticError, MemoryError) as exc:
        _report(f"numeric failure: {exc}\n")
        return EXIT_NUMERIC
    except ValueError as exc:
        _report(f"usage error: {exc}\n")
        return EXIT_USAGE
    finally:  # however the run ends, argparse's exit included
        for stream in (sys.stdout, sys.stderr):
            _release(stream)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
