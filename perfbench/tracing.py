"""In-memory spans around mesonosc's layer boundaries, installed from the
benchmark's side without editing the package.

Each public function is wrapped at the name its caller looks it up by (a
module global of the calling module, or a method on a kernel class).  A
span records its duration and the part of it covered by child spans; the
tracer aggregates calls, busy time and self time per (function, parent).
Missing names are skipped, so a later refactor that removes a function
reports zero calls instead of failing.
"""

from __future__ import annotations

import functools
import time
import types


class Tracer:
    def __init__(self):
        self.stack: list[list] = []
        # (name, parent) -> [calls, busy_s, self_s]
        self.stats: dict[tuple[str, str | None], list] = {}

    def wrap(self, name: str, fn):
        stack, stats, clock = self.stack, self.stats, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                rec = stats.get((name, parent))
                if rec is None:
                    rec = stats[(name, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]

        return span

    def patch(self, owner, attr: str, name: str) -> None:
        fn = getattr(owner, attr, None)
        if fn is not None:
            setattr(owner, attr, self.wrap(name, fn))

    def calls(self) -> dict[str, int]:
        """name -> calls so far, summed over parents."""
        out: dict[str, int] = {}
        for (name, _), rec in self.stats.items():
            out[name] = out.get(name, 0) + rec[0]
        return out


# (module, attribute the caller looks up, span name)
FUNCTION_SPANS = (
    ("cli", "main", "cli.main"),
    ("cli", "load_config", "constants.load_config"),
    ("cli", "transition_probability", "oscillation.transition_probability"),
    ("oscillation", "pkj", "oscillation.pkj"),
    ("entangle", "pkj", "oscillation.pkj"),
    ("oscillation", "damping_exponent", "oscillation.damping_exponent"),
    ("cli", "joint_probability", "entangle.joint_probability"),
    ("cli", "suppression_ratio", "wavepackets.suppression_ratio"),
    ("cli", "simulate_damping", "oracle.simulate_damping"),
    ("oracle", "lfilter", "oracle.lfilter"),
    ("cli", "generate_events", "inference.generate_events"),
    ("cli", "events_to_csv", "inference.events_to_csv"),
    ("cli", "events_from_csv", "inference.events_from_csv"),
    ("cli", "fit_zeta", "inference.fit_zeta"),
    ("inference", "minimize_scalar", "inference.minimize_scalar"),
    ("inference", "brentq", "inference.brentq"),
)

KERNEL_CLASSES = ("White", "Exponential", "Gaussian")


def install(tracer: Tracer, package) -> None:
    """Wrap every layer boundary of the imported ``package`` (mesonosc)."""
    modules = {name: getattr(package, name) for name in
               ("cli", "oscillation", "entangle", "oracle", "inference")}
    for module, attr, name in FUNCTION_SPANS:
        tracer.patch(modules[module], attr, name)
    kernels = package.kernels
    for short in KERNEL_CLASSES:
        cls = getattr(kernels, f"{short}Kernel", None)
        if cls is not None:
            tracer.patch(cls, "growth_integral",
                         f"kernels.growth_integral.{short}")
    integrate = getattr(kernels, "integrate", None)
    if integrate is not None and hasattr(integrate, "quad"):
        kernels.integrate = types.SimpleNamespace(
            quad=tracer.wrap("kernels.quad", integrate.quad))
