"""Two-particle joint probabilities for entangled neutral-meson pairs.

The general factorization over mass-basis coefficients (one einsum) is the
single source of truth; the phenomenological closed forms (zeta model,
min-time Lindblad model, equal-width formula) are validated against it.

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

from .constants import CONSTANTS, MesonSpecies
from .kernels import _times
from .oscillation import (
    DampingSpec,
    Eigenstate,
    FlavorState,
    NoDamping,
    energy_difference,
    pkj,
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


def _mass_factors(t, q: JointQuery) -> np.ndarray:
    """P[..., j, k] = pkj(j, k, t) over the mass basis (light, heavy)."""
    light, heavy = Eigenstate.LIGHT, Eigenstate.HEAVY
    args = (t, q.spec, q.momentum, q.include_decay)
    off = pkj(q.species, light, heavy, *args)
    return np.stack(
        [pkj(q.species, light, light, *args), off,
         np.conj(off), pkj(q.species, heavy, heavy, *args)], axis=-1,
    ).reshape(np.shape(t) + (2, 2))


def joint_probability(
    state: TwoParticleState, proj: FinalProjection, q: JointQuery
):
    """Joint detection probability: a float for scalar times, else an
    array shaped like t_left broadcast against t_right.

    sum c[j,k] conj(c[p,q]) P_left[j,p] P_right[k,q] over the mass indices,
    with c = alpha conj(beta) (x) conj(gamma), as one einsum.
    """
    c = state.alpha * np.multiply.outer(np.conj(proj.beta), np.conj(proj.gamma))
    total = np.einsum("jk,pq,...jp,...kq->...", c, c.conj(),
                      _mass_factors(q.t_left, q), _mass_factors(q.t_right, q))
    if np.any(np.abs(total.imag) > 1e-12 * np.maximum(1.0, np.abs(total.real))):
        raise ImaginaryResidueError(
            f"joint probability has imaginary residue {np.max(np.abs(total.imag))}"
        )
    prob = np.maximum(total.real, 0.0)
    return prob if prob.ndim else float(prob)


def _decay_envelopes(species: MesonSpecies, t_l: float, t_r: float):
    hbar = CONSTANTS.hbar_mev_s
    g_l = species.gamma_light / hbar
    g_h = species.gamma_heavy / hbar
    e1 = math.exp(-g_l * t_l - g_h * t_r)
    e2 = math.exp(-g_h * t_l - g_l * t_r)
    e_int = math.exp(-0.5 * (g_l + g_h) * (t_l + t_r))
    return e1, e2, e_int


def _oscillation_phase(species: MesonSpecies, dt: float, p: float) -> float:
    de = energy_difference(species, Eigenstate.HEAVY, Eigenstate.LIGHT, p)
    return de * dt / CONSTANTS.hbar_mev_s


def zeta_joint_probability(
    t_left: float,
    t_right: float,
    species: MesonSpecies,
    zeta: float,
    momentum: float = 0.0,
    like_flavor: bool = True,
) -> float:
    """Antisymmetric-state joint probability with the interference term
    multiplied by (1 - zeta).  zeta = 0 is undamped quantum mechanics,
    zeta = 1 total decoherence.

    ``like_flavor`` selects same-flavor projections on both sides (minus
    interference sign) versus opposite flavors (plus sign).
    """
    if not 0.0 <= zeta <= 1.0:
        raise ValueError("zeta must be in [0, 1]")
    if t_left < 0 or t_right < 0:
        raise ValueError("times must be >= 0")
    e1, e2, e_int = _decay_envelopes(species, t_left, t_right)
    cos = math.cos(_oscillation_phase(species, t_right - t_left, momentum))
    sign = -1.0 if like_flavor else 1.0
    return 0.125 * (e1 + e2 + sign * 2.0 * cos * e_int * (1.0 - zeta))


def min_time_joint_probability(
    t_left: float,
    t_right: float,
    species: MesonSpecies,
    lambda_two: float,
    momentum: float = 0.0,
    like_flavor: bool = True,
) -> float:
    """Same structure as the zeta model with (1 - zeta) replaced by
    exp(-lambda_two * min(t_left, t_right))."""
    if lambda_two < 0:
        raise ValueError("lambda_two must be >= 0")
    if t_left < 0 or t_right < 0:
        raise ValueError("times must be >= 0")
    e1, e2, e_int = _decay_envelopes(species, t_left, t_right)
    cos = math.cos(_oscillation_phase(species, t_right - t_left, momentum))
    damp = math.exp(-lambda_two * min(t_left, t_right))
    sign = -1.0 if like_flavor else 1.0
    return 0.125 * (e1 + e2 + sign * 2.0 * cos * e_int * damp)


def equal_width_joint_probability(
    t_left: float,
    t_right: float,
    species: MesonSpecies,
    momentum: float = 0.0,
    like_flavor: bool = True,
) -> float:
    """Undamped joint probability for species with (nearly) equal widths.

    (exp(-Gbar (t_l + t_r)/hbar) / 4) * {1 -+ cos[...(t_r - t_l)]} with
    Gbar the mean width; the interference sign follows the general
    factorization (minus for like flavors, EPR zero at equal times), and
    the formula is cross-checked against joint_probability in the tests.
    """
    if t_left < 0 or t_right < 0:
        raise ValueError("times must be >= 0")
    rel = abs(species.gamma_light - species.gamma_heavy) / max(
        species.gamma_light, species.gamma_heavy, 1e-300
    )
    if rel > 0.01:
        warnings.warn(
            f"{species.name}: widths differ by {rel:.1%}; equal-width formula "
            "is a poor approximation",
            stacklevel=2,
        )
    gbar = 0.5 * (species.gamma_light + species.gamma_heavy) / CONSTANTS.hbar_mev_s
    cos = math.cos(_oscillation_phase(species, t_right - t_left, momentum))
    sign = -1.0 if like_flavor else 1.0
    return 0.25 * math.exp(-gbar * (t_left + t_right)) * (1.0 + sign * cos)
