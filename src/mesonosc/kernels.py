"""Time-correlation functions of the collapse noise and their kernel integrals.

All kernels are even functions of the time lag.  The parametric families
are normalized to unit integral over the full line, so each interpolates to
the white (delta-correlated) limit as its correlation time goes to zero,
and any overall noise strength lives in the collapse coupling.  A tabulated
kernel is used as given: past its last sample D(t) grows with slope I/2,
where I is its full-line integral, in place of the white limit's 1/2.

The integral that drives every damping exponent is the growth integral

    D(t) = int_0^t f(s) (t - s) ds

with the one-sided delta carrying weight 1/2, so that the white-noise
limit is D(t) = t/2 exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

# x + expm1(-x) = (x^2/2) sum_k 2 (-x)^k / (k+2)!; below _SERIES_X the
# direct form loses about 2e-16/x of relative accuracy to cancellation, and
# the terms left out of the series are below 1e-18 relative
_SERIES_X = 0.1
_EXP_SERIES = [2.0 * (-1) ** k / math.factorial(k + 2) for k in range(10)][::-1]


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
    """Base class; every concrete kernel implements ``correlation`` and
    evaluates its growth integral in closed form on whole arrays."""

    def correlation(self, s: float) -> float:
        """Pointwise value f(|s|) in s^-1."""
        raise NotImplementedError

    def growth_integral(self, t):
        """D(t) = int_0^t f(s)(t-s) ds, in seconds, for a time (a float
        back) or an array of times (an array of the same shape back)."""
        raise NotImplementedError


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
        # (t x / 4) P(x), keeps full relative accuracy at small x.  At a
        # tiny tau x overflows to inf, where the direct form gives the exact
        # limit (t - tau)/2
        with np.errstate(over="ignore"):
            x = t / self.tau
            series = 0.25 * t * x * np.polyval(_EXP_SERIES,
                                               np.minimum(x, _SERIES_X))
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
        # expm1 keeps small t/tau accurate.  At a tiny tau x or x*x overflows
        # to inf, where the form gives the exact limit t/2 - tau/sqrt(2 pi)
        with np.errstate(over="ignore"):
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
        if not (np.isfinite(s).all() and np.isfinite(f).all()):
            raise KernelError("samples must be finite")
        if np.any(np.diff(s) <= 0):
            raise KernelError("sample lags must be strictly increasing")
        if s[0] < 0:
            raise KernelError("sample lags must be >= 0")
        if np.any(f < 0):
            raise KernelError("kernel values must be nonnegative")
        self.s = s
        self.f = f

    def correlation(self, s: float) -> float:
        if not math.isfinite(s):
            raise KernelError("non-finite lag")
        return float(np.interp(abs(s), self.s, self.f, left=self.f[0], right=0.0))

    def growth_integral(self, t):
        t = _times(t)
        # f is linear between the knots a = [0, s_i > 0] and 0 past the
        # last, so D'' = f gives, at a time u past knot a on a segment of
        # slope m, D = D(a) + u F(a) + u^2 (3 f(a) + m u)/6 with F = D' the
        # integral of f; every term is >= 0, so nothing cancels
        a = np.concatenate(([0.0], self.s[self.s > 0.0]))
        fa = np.interp(a, self.s, self.f, left=self.f[0], right=0.0)
        h = np.diff(a)
        big_f = np.concatenate(([0.0], np.cumsum(0.5 * h * (fa[:-1] + fa[1:]))))
        big_d = np.concatenate(([0.0], np.cumsum(
            h * big_f[:-1] + h * h * (2.0 * fa[:-1] + fa[1:]) / 6.0)))
        start = np.append(fa[:-1], 0.0)
        slope = np.append(np.diff(fa) / h, 0.0)
        i = np.searchsorted(a, t, side="right") - 1
        u = t - a[i]
        d = big_d[i] + u * big_f[i] + u * u * (3.0 * start[i] + slope[i] * u) / 6.0
        return d if d.ndim else float(d)

    def __repr__(self):
        return f"TabulatedKernel(n={self.s.size})"


def spatial_zero(r_c: float) -> float:
    """Zero-separation value of the spatial noise correlator, in cm^-3.

    F(0) = (sqrt(4 pi) r_C)^-3, the effective noise power seen by a
    localized particle.  Raises OverflowError where it is infinite.
    """
    if r_c <= 0:
        raise KernelError("r_c must be positive")
    try:
        f0 = (4.0 * math.pi) ** -1.5 / r_c**3
    except ZeroDivisionError:  # r_c**3 underflows to 0
        f0 = math.inf
    except OverflowError:
        # r_c**3 overflows from r_c ~ 5.6e102 cm although F(0), subnormal
        # or 0, does not; staged only here, so other values stay bitwise
        f0 = (4.0 * math.pi) ** -1.5 / r_c / r_c / r_c
    if math.isinf(f0):
        raise OverflowError(f"F(0) overflows at r_C = {r_c:g} cm")
    return f0
