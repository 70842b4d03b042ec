"""Time-correlation functions of the collapse noise and their kernel integrals.

All kernels are even functions of the time lag normalized to unit integral
over the full line, so every parametric family interpolates to the white
(delta-correlated) limit as its correlation time goes to zero.  Any overall
noise strength lives in the collapse coupling, never in the kernel.

The integral that drives every damping exponent is the growth integral

    D(t) = int_0^t f(s) (t - s) ds

with the one-sided delta carrying weight 1/2, so that the white-noise
limit is D(t) = t/2 exactly.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy.special import erf

_QUAD_RTOL = 1e-10
_QUAD_ATOL = 1e-16

# x + expm1(-x) = (x^2/2) sum_k 2 (-x)^k / (k+2)!; below _SERIES_X the
# direct form loses about 2e-16/x of relative accuracy to cancellation, and
# the terms left out of the series are below 1e-18 relative
_SERIES_X = 0.1
_EXP_SERIES = [2.0 * (-1) ** k / math.factorial(k + 2) for k in range(10)][::-1]


def _quad(*args, **kwargs):
    from scipy.integrate import quad
    return quad(*args, **kwargs)


# scipy.integrate (and the optimizer package it imports) adds about 0.3 s
# to the package import and only the quad fallback uses it, so it is
# imported on its first call
integrate = SimpleNamespace(quad=_quad)


class KernelError(ValueError):
    pass


def _times(t, error: type[ValueError] = KernelError) -> np.ndarray:
    """Times as a float array; NaN, infinite and negative times raise."""
    t = np.asarray(t, dtype=float)
    # a NaN anywhere makes min and max NaN, which fails the comparison
    if t.size and not 0.0 <= t.min() <= t.max() < math.inf:
        raise error("times must be finite and >= 0")
    return t


class NoiseKernel:
    """Base class; concrete kernels implement ``correlation`` and may
    override the growth integral with a closed form."""

    def correlation(self, s: float) -> float:
        """Pointwise value f(|s|) in s^-1."""
        raise NotImplementedError

    def growth_integral(self, t):
        """D(t) = int_0^t f(s)(t-s) ds, in seconds, for a time or an array
        of times; evaluated one element at a time."""
        t = _times(t)
        d = np.fromiter((self._growth_at(x) for x in t.flat), float, t.size)
        return d.reshape(t.shape) if t.ndim else float(d[0])

    def _growth_at(self, t: float) -> float:
        if t == 0.0:
            return 0.0
        val, _ = integrate.quad(
            lambda s: self.correlation(s) * (t - s), 0.0, t,
            epsrel=_QUAD_RTOL, epsabs=_QUAD_ATOL, limit=200,
        )
        return val


class WhiteKernel(NoiseKernel):
    """Delta-correlated noise.  Exists only through its growth integral."""

    def correlation(self, s: float) -> float:
        raise KernelError("white kernel has no pointwise correlation value")

    def growth_integral(self, t):
        d = 0.5 * _times(t)
        return d if d.ndim else float(d)

    def __repr__(self):
        return "WhiteKernel()"


@dataclass(frozen=True, repr=True)
class ExponentialKernel(NoiseKernel):
    """f(s) = exp(-|s|/tau) / (2 tau)."""

    tau: float

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise KernelError("tau must be positive and finite")

    def correlation(self, s: float) -> float:
        if not math.isfinite(s):
            raise KernelError("non-finite lag")
        return math.exp(-abs(s) / self.tau) / (2.0 * self.tau)

    def growth_integral(self, t):
        t = _times(t)
        # D = (tau/2)(x + expm1(-x)) with x = t/tau; the series, written as
        # (t x / 4) P(x), keeps full relative accuracy at small x
        x = t / self.tau
        series = 0.25 * t * x * np.polyval(_EXP_SERIES, np.minimum(x, _SERIES_X))
        d = np.where(x < _SERIES_X, series, 0.5 * (t + self.tau * np.expm1(-x)))
        return d if d.ndim else float(d)


@dataclass(frozen=True, repr=True)
class GaussianKernel(NoiseKernel):
    """f(s) = exp(-s^2 / (2 tau^2)) / (sqrt(2 pi) tau)."""

    tau: float

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise KernelError("tau must be positive and finite")

    def correlation(self, s: float) -> float:
        if not math.isfinite(s):
            raise KernelError("non-finite lag")
        x = s / self.tau
        return math.exp(-0.5 * x * x) / (math.sqrt(2.0 * math.pi) * self.tau)

    def growth_integral(self, t):
        t = _times(t)
        # D = (t/2) erf(t / sqrt(2) tau) + tau/sqrt(2 pi) (e^{-t^2/2tau^2} - 1);
        # expm1 keeps small t/tau accurate
        x = t / self.tau
        d = (0.5 * t * erf(x / math.sqrt(2.0))
             + self.tau / math.sqrt(2.0 * math.pi) * np.expm1(-0.5 * x * x))
        return d if d.ndim else float(d)


class TabulatedKernel(NoiseKernel):
    """Kernel given by samples (s_i, f_i) for s >= 0, linearly interpolated
    and treated as an even extension about s = 0.  Values outside the last
    sample are zero."""

    def __init__(self, s: np.ndarray, f: np.ndarray):
        s = np.asarray(s, dtype=float)
        f = np.asarray(f, dtype=float)
        if s.ndim != 1 or s.shape != f.shape or s.size < 2:
            raise KernelError("need two equal-length 1-d sample arrays")
        if np.any(np.diff(s) <= 0):
            raise KernelError("sample lags must be strictly increasing")
        if np.any(f < 0):
            raise KernelError("kernel values must be nonnegative")
        self.s = s
        self.f = f

    def correlation(self, s: float) -> float:
        if not math.isfinite(s):
            raise KernelError("non-finite lag")
        return float(np.interp(abs(s), self.s, self.f, left=self.f[0], right=0.0))

    def _growth_at(self, t: float) -> float:
        if t == 0.0:
            return 0.0
        # f is piecewise linear, so f(s)(t-s) is piecewise quadratic and
        # per-segment Simpson is exact; f = 0 past the last sample, so the
        # integral ends there
        end = min(t, self.s[-1])
        edges = np.concatenate(
            ([0.0], self.s[(self.s > 0.0) & (self.s < end)], [end]))
        a, b = edges[:-1], edges[1:]
        mid = 0.5 * (a + b)
        def g(x):
            return np.interp(x, self.s, self.f, left=self.f[0], right=0.0) * (t - x)
        return float(np.sum((b - a) / 6.0 * (g(a) + 4.0 * g(mid) + g(b))))

    def __repr__(self):
        return f"TabulatedKernel(n={self.s.size})"


def tabulated_from_csv(text: str) -> TabulatedKernel:
    """Load a tabulated kernel from two-column CSV (s_seconds, f_per_second).

    A header line is required.
    """
    lines = [ln for ln in io.StringIO(text).read().splitlines() if ln.strip()]
    if len(lines) < 3:
        raise KernelError("CSV must have a header and at least two samples")
    try:
        data = np.loadtxt(io.StringIO("\n".join(lines[1:])), delimiter=",")
    except ValueError as exc:
        raise KernelError(f"bad CSV data: {exc}") from exc
    if data.ndim != 2 or data.shape[1] != 2:
        raise KernelError("CSV must have exactly two columns")
    return TabulatedKernel(data[:, 0], data[:, 1])


def spatial_zero(r_c: float) -> float:
    """Zero-separation value of the spatial noise correlator, in cm^-3.

    F(0) = (sqrt(4 pi) r_C)^-3, the effective noise power seen by a
    localized particle.
    """
    if r_c <= 0:
        raise KernelError("r_c must be positive")
    return (4.0 * math.pi) ** -1.5 / r_c**3
