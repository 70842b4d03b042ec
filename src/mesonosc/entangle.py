"""Two-particle joint probabilities for entangled neutral-meson pairs.

The general factorization over mass-basis coefficients (one einsum) is the
single source of truth; the phenomenological closed forms (zeta model,
min-time Lindblad model, equal-width formula) are validated against it.
The zeta and min-time forms scale one interference weight,
a = cos(phase) / cosh((G_l - G_h)(t_r - t_l)/2 hbar), against one
envelope; the event generator and the zeta fit use the same weight.  At
equal times a = 1, so undamped like-flavor pairs come out exactly 0.

Sign note: expanding the factorization for the antisymmetric state with
like-flavor projections yields a MINUS sign in front of the interference
term, restoring the equal-time EPR anti-correlation.  Published expansions
sometimes print a plus sign there; this module keeps the sign that follows
from the state's coefficients, and the zeta/equal-width forms inherit it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .constants import MesonSpecies
from .kernels import _times
from .oscillation import (
    DampingSpec,
    FlavorState,
    NoDamping,
    _mass_factors,
    _phase,
)


class ImaginaryResidueError(RuntimeError):
    """Joint probability came out with a non-negligible imaginary part;
    signals an implementation bug, not bad user input."""


@dataclass(frozen=True)
class TwoParticleState:
    """Mass-basis coefficients alpha[j, k], indexed (light, heavy) = (0, 1)."""

    alpha: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=complex)
        if a.shape != (2, 2):
            raise ValueError("alpha must be a 2x2 array")
        norm = float(np.sum(np.abs(a) ** 2))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state not normalized: sum |alpha|^2 = {norm}")
        object.__setattr__(self, "alpha", a)


@dataclass(frozen=True)
class FinalProjection:
    """Projection coefficients in the mass basis for the left (beta) and
    right (gamma) detections; each pair is unit-normalized."""

    beta: tuple[complex, complex]
    gamma: tuple[complex, complex]

    def __post_init__(self):
        for pair, name in ((self.beta, "beta"), (self.gamma, "gamma")):
            norm = abs(pair[0]) ** 2 + abs(pair[1]) ** 2
            if abs(norm - 1.0) > 1e-12:
                raise ValueError(f"{name} not normalized")


@dataclass(frozen=True)
class JointQuery:
    """Detection times: scalars, or arrays broadcast against each other."""

    t_left: float | np.ndarray
    t_right: float | np.ndarray
    species: MesonSpecies
    spec: DampingSpec = field(default_factory=NoDamping)
    momentum: float = 0.0
    include_decay: bool = True

    def __post_init__(self):
        _times(self.t_left, ValueError)
        _times(self.t_right, ValueError)


def antisymmetric_state() -> TwoParticleState:
    """The Bell-type state (|light heavy> - |heavy light>) / sqrt(2)."""
    a = np.zeros((2, 2), dtype=complex)
    s = 1.0 / math.sqrt(2.0)
    a[0, 1] = s
    a[1, 0] = -s
    return TwoParticleState(a)


def flavor_coefficients(flavor: FlavorState) -> tuple[complex, complex]:
    """Mass-basis coefficients (light, heavy) of a flavor eigenstate."""
    s = 1.0 / math.sqrt(2.0)
    if flavor is FlavorState.PARTICLE:
        return (s, s)
    return (-s, s)


def flavor_projection(left: FlavorState, right: FlavorState) -> FinalProjection:
    return FinalProjection(
        beta=flavor_coefficients(left), gamma=flavor_coefficients(right)
    )


def joint_probability(
    state: TwoParticleState, proj: FinalProjection, q: JointQuery
):
    """Joint detection probability: a float for scalar times, else an
    array shaped like t_left broadcast against t_right.

    sum c[j,k] conj(c[p,q]) P_left[j,p] P_right[k,q] over the mass indices,
    with c = alpha conj(beta) (x) conj(gamma), as one einsum.
    """
    c = state.alpha * np.multiply.outer(np.conj(proj.beta), np.conj(proj.gamma))
    left, right = (_mass_factors(q.species, t, q.spec, q.momentum,
                                 q.include_decay)
                   for t in (q.t_left, q.t_right))
    total = np.einsum("jk,pq,...jp,...kq->...", c, c.conj(), left, right)
    if np.any(np.abs(total.imag) > 1e-12 * np.maximum(1.0, np.abs(total.real))):
        raise ImaginaryResidueError(
            f"joint probability has imaginary residue {np.max(np.abs(total.imag))}"
        )
    prob = np.maximum(total.real, 0.0)
    return prob if prob.ndim else float(prob)


def _interference_fraction(species: MesonSpecies, t_l, t_r, p: float = 0.0):
    """a = cos(phase) / cosh(x), the antisymmetric pair's interference
    weight at momentum p, with phase = (E_heavy - E_light)(t_r - t_l)/hbar
    and x = (G_l - G_h)(t_r - t_l)/2 hbar; times broadcast.

    It equals 2 cos(phase) e_int / (e1 + e2), since e1 + e2 = 2 e_int
    cosh(x), and stays finite where both envelopes underflow.  The
    conditional like-flavor probability is (1 - a (1-zeta))/4 and the
    unlike-flavor one (1 + a (1-zeta))/4.  Raises OverflowError where the
    phase overflows.
    """
    dt = t_r - t_l
    cos = np.cos(_phase(species, dt, p))
    with np.errstate(over="ignore"):  # a = 0 where cosh(x) overflows
        x = 0.5 * (species.rate_light() - species.rate_heavy()) * dt
        a = cos / np.cosh(x)
    # |a| <= 1; clip away cosh round-off so log1p(-a) stays defined
    return np.clip(a, -1.0, 1.0)


def _zeta_terms(species: MesonSpecies, t_l, t_r, p: float = 0.0):
    """(e1 + e2, a): the envelope e1 + e2 = exp(-G_l t_l - G_h t_r) +
    exp(-G_h t_l - G_l t_r) of the antisymmetric pair and its interference
    weight a (see _interference_fraction), times broadcast against each
    other.  The like-flavor probability is (e1 + e2)(1 - (1 - zeta) a)/8,
    the unlike one has a plus; like flavors at equal times give exactly 0
    at zeta = 0."""
    g_l, g_h = species.rate_light(), species.rate_heavy()
    # a decay exponent that overflows to -inf gives exp(...) = 0 exactly
    with np.errstate(over="ignore"):
        e1 = np.exp(-g_l * t_l - g_h * t_r)
        e2 = np.exp(-g_h * t_l - g_l * t_r)
    return e1 + e2, _interference_fraction(species, t_l, t_r, p)


def _damped_pair(t_left, t_right, species, momentum, like_flavor, damping):
    """Zeta-form probability with the interference weight scaled by
    damping(t_l, t_r); a float for scalar times."""
    t_l, t_r = _times(t_left, ValueError), _times(t_right, ValueError)
    envelope, a = _zeta_terms(species, t_l, t_r, momentum)
    with np.errstate(over="ignore"):
        damp = damping(t_l, t_r)
    sign = -1.0 if like_flavor else 1.0
    prob = 0.125 * envelope * (1.0 + sign * a * damp)
    return prob if prob.ndim else float(prob)


def zeta_joint_probability(
    t_left: float | np.ndarray,
    t_right: float | np.ndarray,
    species: MesonSpecies,
    zeta: float,
    momentum: float = 0.0,
    like_flavor: bool = True,
):
    """Antisymmetric-state joint probability with the interference term
    multiplied by (1 - zeta).  zeta = 0 is undamped quantum mechanics,
    zeta = 1 total decoherence.  Times are scalars or arrays as in
    joint_probability.

    ``like_flavor`` selects same-flavor projections on both sides (minus
    interference sign) versus opposite flavors (plus sign).
    """
    if not 0.0 <= zeta <= 1.0:
        raise ValueError("zeta must be in [0, 1]")
    return _damped_pair(t_left, t_right, species, momentum, like_flavor,
                        lambda t_l, t_r: 1.0 - zeta)


def min_time_joint_probability(
    t_left: float | np.ndarray,
    t_right: float | np.ndarray,
    species: MesonSpecies,
    lambda_two: float,
    momentum: float = 0.0,
    like_flavor: bool = True,
):
    """Same structure as the zeta model with (1 - zeta) replaced by
    exp(-lambda_two * min(t_left, t_right))."""
    if not (math.isfinite(lambda_two) and lambda_two >= 0):
        raise ValueError("lambda_two must be finite and >= 0")
    return _damped_pair(
        t_left, t_right, species, momentum, like_flavor,
        lambda t_l, t_r: np.exp(-lambda_two * np.minimum(t_l, t_r)))


def equal_width_joint_probability(
    t_left: float | np.ndarray,
    t_right: float | np.ndarray,
    species: MesonSpecies,
    momentum: float = 0.0,
    like_flavor: bool = True,
):
    """Undamped joint probability for species with (nearly) equal widths.

    (exp(-Gbar (t_l + t_r)/hbar) / 4) * {1 -+ cos[...(t_r - t_l)]} with
    Gbar the mean width; the interference sign follows the general
    factorization (minus for like flavors, EPR zero at equal times), and
    the formula is cross-checked against joint_probability in the tests.
    """
    t_l, t_r = _times(t_left, ValueError), _times(t_right, ValueError)
    rel = abs(species.gamma_light - species.gamma_heavy) / max(
        species.gamma_light, species.gamma_heavy, 1e-300
    )
    if rel > 0.01:
        warnings.warn(
            f"{species.name}: widths differ by {rel:.1%}; equal-width formula "
            "is a poor approximation",
            stacklevel=2,
        )
    gbar = 0.5 * (species.rate_light() + species.rate_heavy())
    cos = np.cos(_phase(species, t_r - t_l, momentum))
    with np.errstate(over="ignore"):
        envelope = np.exp(-gbar * (t_l + t_r))
    sign = -1.0 if like_flavor else 1.0
    prob = 0.25 * envelope * (1.0 + sign * cos)
    return prob if prob.ndim else float(prob)
