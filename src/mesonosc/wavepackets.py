"""Suppression of left-right noise cross-terms for separated wave packets.

Two Gaussian packet densities of width sigma separated by d, averaged over
the Gaussian spatial noise correlator of width ~r_C, give a per-dimension
overlap

    r_C / sqrt(r_C^2 + sigma^2) * exp(-d^2 / (4 (r_C^2 + sigma^2)))

normalized so coincident point packets give 1.  For realistic meson
kinematics the separation grows to many correlation lengths essentially
instantly, which is what justifies dropping the mixed noise terms from the
two-particle probabilities.  Packet dispersion is ignored; spreading only
strengthens the suppression at these scales.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

# the range of s2 = r_C^2 + sigma^2 in which the overlap is evaluated
# unscaled: a normal float whose 4 s2 is finite
_S2_MIN = sys.float_info.min
_S2_MAX = sys.float_info.max / 4.0


@dataclass(frozen=True)
class GaussianPacket:
    center: float   # cm
    sigma: float    # cm
    speed: float    # cm/s, signed

    def __post_init__(self):
        if not all(map(math.isfinite, (self.center, self.sigma, self.speed))):
            raise ValueError("center, sigma and speed must be finite")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")


def _overlap_factors(d: float, sigma: float, r_c: float) -> tuple[float, float]:
    """The overlap's prefactor r_C/sqrt(s2) and separation factor
    exp(-d^2/(4 s2)), s2 = r_C^2 + sigma^2.  Where s2 or 4 s2 is not a
    finite normal float, d, sigma and r_C are first divided by
    max(r_C, sigma), which leaves both factors unchanged."""
    if not (0 < sigma < math.inf and 0 < r_c < math.inf):
        raise ValueError("sigma and r_c must be finite and positive")
    if d < 0:
        raise ValueError("separation must be >= 0")
    s2 = r_c * r_c + sigma * sigma
    if not _S2_MIN <= s2 <= _S2_MAX:
        scale = max(r_c, sigma)
        d, sigma, r_c = d / scale, sigma / scale, r_c / scale
        s2 = r_c * r_c + sigma * sigma
    return r_c / math.sqrt(s2), math.exp(-d * d / (4.0 * s2))


def cross_term_kernel_overlap(d: float, sigma: float, r_c: float) -> float:
    """Overlap of two packet densities through the spatial noise correlator,
    along the axis of their separation d.  The transverse factors equal
    this at d = 0 and cancel in `suppression_ratio`."""
    prefactor, factor = _overlap_factors(d, sigma, r_c)
    return prefactor * factor


def separation(t: float, left: GaussianPacket, right: GaussianPacket) -> float:
    """Packet separation d(t) = |(c_l - c_r) + (v_l - v_r) t| [cm].

    Raises OverflowError when the relative speed or d is not finite.
    """
    if not 0.0 <= t < math.inf:  # NaN fails the comparison too
        raise ValueError("times must be finite and >= 0")
    speed = left.speed - right.speed
    if not math.isfinite(speed):
        raise OverflowError("relative packet speed overflows")
    # float(t): a numpy time would warn where the product overflows
    d = abs((left.center - right.center) + speed * float(t))
    if not math.isfinite(d):
        raise OverflowError(f"packet separation at t = {t:g} s overflows")
    return d


def suppression_ratio(
    t: float, left: GaussianPacket, right: GaussianPacket, r_c: float
) -> float:
    """Cross-term overlap at time t relative to coincident packets.

    Constant widths; packets must share a width for the ratio to be a pure
    separation factor, so the mean width is used.
    """
    d = separation(t, left, right)
    sigma = left.sigma + 0.5 * (right.sigma - left.sigma)  # cannot overflow
    prefactor, factor = _overlap_factors(d, sigma, r_c)
    if prefactor < sys.float_info.min:  # it underflows, and it cancels
        return factor
    return prefactor * factor / prefactor
