"""Single-particle oscillation probabilities with decay and damping.

The collapse noise multiplies each mass-basis interference factor by
exp(-L_jk(t)) where

    L_jk(t) = (gamma / m0^2) F(0) (meff_j - meff_k)^2 D(t)

with meff the mass (or m^2 c^4 / E at finite momentum when the
relativistic correction is enabled) and D(t) the kernel growth integral.
For white noise this is the familiar linear-in-time exponent, and a
mass-basis Lindblad dephasing with the same rate is exactly equivalent.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .constants import CONSTANTS, CslParams, MesonSpecies
from .kernels import NoiseKernel, WhiteKernel, _times, spatial_zero


class Eigenstate(enum.Enum):
    LIGHT = "light"
    HEAVY = "heavy"


class FlavorState(enum.Enum):
    PARTICLE = "particle"
    ANTIPARTICLE = "antiparticle"


class DampingSpec:
    """Which damping mechanism suppresses the mass-basis interference."""


@dataclass(frozen=True)
class NoDamping(DampingSpec):
    pass


@dataclass(frozen=True)
class CslDamping(DampingSpec):
    params: CslParams
    kernel: NoiseKernel = field(default_factory=WhiteKernel)
    momentum: float = 0.0        # MeV/c
    relativistic: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.momentum) and self.momentum >= 0):
            raise ValueError("momentum must be finite and >= 0")


@dataclass(frozen=True)
class LindbladDamping(DampingSpec):
    lambda_single: float         # s^-1

    def __post_init__(self):
        if not (math.isfinite(self.lambda_single) and self.lambda_single >= 0):
            raise ValueError("lambda_single must be finite and >= 0")


def energy_difference(species: MesonSpecies, j: Eigenstate, k: Eigenstate,
                      p: float = 0.0) -> float:
    """E_j - E_k [MeV] with nonrelativistic kinetic terms, built from the
    exact mass splitting so the near-degenerate masses never cancel:
    1/m_heavy - 1/m_light is written as -delta_m / (m_light m_heavy)."""
    if not math.isfinite(p):
        raise ValueError("momentum must be finite")
    if j is k:
        return 0.0
    de = species.delta_m - 0.5 * p * p * species.delta_m / (
        species.m_light * species.m_heavy
    )
    return de if j is Eigenstate.HEAVY else -de


def _width_of(species: MesonSpecies, j: Eigenstate) -> float:
    return species.gamma_light if j is Eigenstate.LIGHT else species.gamma_heavy


def csl_damping_rate(params: CslParams, species: MesonSpecies) -> float:
    """White-noise interference damping rate in s^-1.

    gamma (m_heavy - m_light)^2 / (16 pi^{3/2} r_C^3 m0^2), equal to
    gamma (dm/m0)^2 F(0)/2.
    """
    dm = species.delta_m
    return params.gamma * (dm / params.m0) ** 2 * spatial_zero(params.r_c) / 2.0


def _effective_mass_difference(species: MesonSpecies, p: float) -> float:
    """Splitting of the effective mass m^2 c^4 / E at momentum p.

    Evaluated to first order in the exact mass splitting; subtracting the
    two m^2/E values directly would cancel catastrophically since the
    splitting sits ~15 orders below the masses.
    """
    mass = species.m_light
    e2 = mass * mass + p * p
    return species.delta_m * mass * (mass * mass + 2.0 * p * p) / e2**1.5


def csl_damping_rate_relativistic(
    params: CslParams, species: MesonSpecies, p: float
) -> float:
    """Damping rate at momentum p [MeV/c], with the m^2 c^4 / E corrections
    of the perturbative kernel factors.  Reduces to csl_damping_rate at p=0.
    """
    dm_eff = _effective_mass_difference(species, p)
    return params.gamma * (dm_eff / params.m0) ** 2 * spatial_zero(params.r_c) / 2.0


def damping_exponent(
    spec: DampingSpec,
    species: MesonSpecies,
    j: Eigenstate,
    k: Eigenstate,
    t,
):
    """Dimensionless exponent suppressing the (j,k) interference at time t,
    a scalar or an array of times."""
    t = _times(t, ValueError)
    if j is k or isinstance(spec, NoDamping):
        exponent = np.zeros_like(t)
    elif isinstance(spec, LindbladDamping):
        exponent = spec.lambda_single * t
    elif isinstance(spec, CslDamping):
        rate = (csl_damping_rate_relativistic(spec.params, species, spec.momentum)
                if spec.relativistic else csl_damping_rate(spec.params, species))
        # the white-noise rate is the exponent's slope, coefficient of D = t/2
        exponent = 2.0 * rate * spec.kernel.growth_integral(t)
    else:
        raise TypeError(f"unknown damping spec {spec!r}")
    return exponent if t.ndim else float(exponent)


def pkj(
    species: MesonSpecies,
    j: Eigenstate,
    k: Eigenstate,
    t,
    spec: DampingSpec = NoDamping(),
    p: float = 0.0,
    include_decay: bool = True,
):
    """Mass-basis interference factor P_kj(t) for a time or an array of
    times.

    exp(-(Gamma_k+Gamma_j) t / 2 hbar) * exp(+i (E_j - E_k) t / hbar)
    * exp(-damping_exponent).  Satisfies pkj(k, j) = conj(pkj(j, k)) and
    pkj(j, j, t) = exp(-Gamma_j t / hbar).  Raises OverflowError for times
    so large that the phase overflows; where only the decay exponent
    overflows, the factor is exactly 0.

    The sign convention of the phase is fixed to +(E_j - E_k); only its
    cosine is observable in the assembled probabilities.
    """
    t = _times(t, ValueError)
    hbar = CONSTANTS.hbar_mev_s
    # from about 1e295 s on (by species) the phase overflows, and 1j * inf
    # would make every probability NaN
    try:
        with np.errstate(over="raise"):
            phase = energy_difference(species, j, k, p) * t / hbar
    except FloatingPointError:
        raise OverflowError(
            f"times up to {np.max(t):g} s overflow the oscillation "
            "phase") from None
    log_mag = -damping_exponent(spec, species, j, k, t)
    if include_decay:
        # a decay exponent that overflows to -inf gives exp(...) = 0 exactly
        with np.errstate(over="ignore"):
            log_mag = log_mag - (_width_of(species, j)
                                 + _width_of(species, k)) * t / (2.0 * hbar)
    val = np.exp(log_mag + 1j * phase)
    return val if t.ndim else complex(val)


def transition_probability(
    initial: FlavorState,
    final: FlavorState,
    species: MesonSpecies,
    t,
    spec: DampingSpec = NoDamping(),
    p: float = 0.0,
    include_decay: bool = True,
):
    """Probability to observe ``final`` at time t starting from ``initial``;
    a float for a scalar t, an array for an array of times.

    Assembled as P = 1/4 [P_ll +- 2 Re P_hl + P_hh] with the minus sign
    for a flavor flip.  CP violation is neglected, so the result depends
    only on whether the flavor flips, not on which flavor starts.
    """
    sign = 1.0 if initial is final else -1.0
    light, heavy = Eigenstate.LIGHT, Eigenstate.HEAVY
    args = (t, spec, p, include_decay)
    return 0.25 * (
        pkj(species, light, light, *args).real
        + 2.0 * sign * pkj(species, heavy, light, *args).real
        + pkj(species, heavy, heavy, *args).real
    )


def lindblad_density_matrix(
    species: MesonSpecies, t: float, lambda_single: float
) -> np.ndarray:
    """2x2 density matrix in the mass basis (light, heavy) at time t, for a
    flavor-particle initial state (all entries 1/2) dephasing at rate
    lambda_single under mass-basis Lindblad generators.
    """
    if t < 0:
        raise ValueError("negative time")
    if lambda_single < 0:
        raise ValueError("lambda_single must be >= 0")
    g_l, g_h = species.rate_light(), species.rate_heavy()
    phase = -species.delta_m * t / CONSTANTS.hbar_mev_s
    off = 0.5 * np.exp(
        1j * phase - 0.5 * (g_l + g_h) * t - lambda_single * t
    )
    rho = np.array(
        [
            [0.5 * math.exp(-g_l * t), off],
            [np.conj(off), 0.5 * math.exp(-g_h * t)],
        ],
        dtype=complex,
    )
    return rho


def momentum_spread_diagnostic(r_c: float) -> dict:
    """Width of the momentum-space noise correlator for documentation.

    Direct evaluation of hbar/r_C gives ~2 eV/c for r_C = 1e-5 cm; the
    often-quoted 12 eV/c matches h/r_C instead.  Both are reported; the
    factor-2pi discrepancy is surfaced, not resolved.
    """
    if not r_c > 0:
        raise ValueError("r_c must be positive")
    hbar_c_mev_cm = CONSTANTS.hbar_mev_s * CONSTANTS.c_cm_s  # MeV cm
    p_hbar_ev = hbar_c_mev_cm / r_c * 1e6
    p_h_ev = 2.0 * math.pi * p_hbar_ev
    if not math.isfinite(p_h_ev):
        raise OverflowError(f"r_c = {r_c:g} cm overflows h/r_C")
    return {
        "hbar_over_rc_ev_per_c": p_hbar_ev,
        "h_over_rc_ev_per_c": p_h_ev,
        "note": "quoted literature value ~12 eV/c matches h/r_C, not hbar/r_C",
    }


def phase_magnitude_diagnostic(species: MesonSpecies, t: float) -> dict:
    """Coefficient (t/2 hbar) dm/(m_l m_h) of the oscillatory phase in the
    momentum integral, in (eV/c)^-2.  The literature estimate for kaons at
    t = 1.6e-7 s is ~2.7e-16; direct evaluation differs by a factor of
    several, which is flagged as an order-of-magnitude comparison only.
    """
    if not t >= 0:
        raise ValueError("t must be >= 0")
    coeff_ev = t / (2.0 * CONSTANTS.hbar_mev_s) * species.delta_m / (
        species.m_light * species.m_heavy
    ) * 1e-12
    if not math.isfinite(coeff_ev):
        raise OverflowError(f"t = {t:g} s overflows the phase coefficient")
    return {
        "coefficient_per_ev2": coeff_ev,
        "reference_order_per_ev2": 2.7e-16,
        "note": "order-of-magnitude comparison only",
    }
