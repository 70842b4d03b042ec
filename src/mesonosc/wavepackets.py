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
from dataclasses import dataclass


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


def cross_term_kernel_overlap(d: float, sigma: float, r_c: float) -> float:
    """Overlap of two packet densities through the spatial noise correlator,
    along the axis of their separation d.  The transverse factors equal
    this at d = 0 and cancel in `suppression_ratio`."""
    if not (sigma > 0 and 0 < r_c < math.inf):
        raise ValueError("sigma must be positive and r_c finite and positive")
    if d < 0:
        raise ValueError("separation must be >= 0")
    s2 = r_c * r_c + sigma * sigma
    return r_c / math.sqrt(s2) * math.exp(-d * d / (4.0 * s2))


def separation(t: float, left: GaussianPacket, right: GaussianPacket) -> float:
    """Packet separation d(t) = |(c_l - c_r) + (v_l - v_r) t| [cm].

    Raises OverflowError when the relative speed or d is not finite.
    """
    if t < 0:
        raise ValueError("negative time")
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
    sigma = 0.5 * (left.sigma + right.sigma)
    return (
        cross_term_kernel_overlap(d, sigma, r_c)
        / cross_term_kernel_overlap(0.0, sigma, r_c)
    )
