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
    relativistic: bool = False


@dataclass(frozen=True)
class LindbladDamping(DampingSpec):
    lambda_single: float         # s^-1

    def __post_init__(self):
        if not (math.isfinite(self.lambda_single) and self.lambda_single >= 0):
            raise ValueError("lambda_single must be finite and >= 0")


def _check_momentum(p: float) -> None:
    if not (math.isfinite(p) and p >= 0):
        raise ValueError("momentum must be finite and >= 0")


def energy_difference(species: MesonSpecies, j: Eigenstate, k: Eigenstate,
                      p: float = 0.0) -> float:
    """E_j - E_k [MeV] with nonrelativistic kinetic terms, built from the
    exact mass splitting so the near-degenerate masses never cancel:
    1/m_heavy - 1/m_light is written as -delta_m / (m_light m_heavy).

    Valid for p well below the masses.  Against the exact splitting
    delta_m (m_light + m_heavy) / (E_light + E_heavy) it reads, for K0,
    0.999 of it at 110 MeV/c, 0.70 at 500 and 0.018 at 700, and it changes
    sign at p = sqrt(2 m_light m_heavy) (703.7 MeV/c for K0)."""
    _check_momentum(p)
    if j is k:
        return 0.0
    de = species.delta_m - 0.5 * p * p * species.delta_m / (
        species.m_light * species.m_heavy
    )
    if not math.isfinite(de):
        raise OverflowError(f"momentum {p:g} MeV/c overflows the energy splitting")
    return de if j is Eigenstate.HEAVY else -de


def _csl_rate(params: CslParams, species: MesonSpecies, dm: float) -> float:
    """gamma (dm/m0)^2 F(0)/2 for the mass splitting dm; a preset whose
    F(0) or rate is not finite raises OverflowError."""
    f0 = spatial_zero(params.r_c)
    try:
        rate = params.gamma * (dm / params.m0) ** 2 * f0 / 2.0
    except OverflowError:  # (dm/m0)**2 is out of range
        rate = math.inf
    if not math.isfinite(rate):
        raise OverflowError(f"the CSL damping rate of {species.name} overflows")
    return rate


def csl_damping_rate(params: CslParams, species: MesonSpecies) -> float:
    """White-noise interference damping rate in s^-1.

    gamma (m_heavy - m_light)^2 / (16 pi^{3/2} r_C^3 m0^2), equal to
    gamma (dm/m0)^2 F(0)/2.  Raises OverflowError where it is not finite.
    """
    return _csl_rate(params, species, species.delta_m)


def _effective_mass_difference(species: MesonSpecies, p: float) -> float:
    """Splitting of the effective mass m^2 c^4 / E at momentum p.

    Evaluated to first order in the exact mass splitting; subtracting the
    two m^2/E values directly would cancel catastrophically since the
    splitting sits ~15 orders below the masses.
    """
    _check_momentum(p)
    mass = species.m_light
    e2 = mass * mass + p * p
    num = species.delta_m * mass * (mass * mass + 2.0 * p * p)
    try:
        dm_eff = num / e2**1.5
    except OverflowError:
        # e2**1.5 overflows from p ~ 1e102 MeV/c although the splitting,
        # ~2 delta_m m / p, is finite; staged only here, since at p = 0 it
        # moves the value by one ulp
        dm_eff = num / e2 / math.sqrt(e2)
    if not math.isfinite(dm_eff):
        raise OverflowError(
            f"momentum {p:g} MeV/c overflows the effective mass splitting")
    return dm_eff


def csl_damping_rate_relativistic(
    params: CslParams, species: MesonSpecies, p: float
) -> float:
    """Damping rate at momentum p [MeV/c], with the m^2 c^4 / E corrections
    of the perturbative kernel factors.  Reduces to csl_damping_rate at p=0,
    and like it raises OverflowError where it is not finite.
    """
    return _csl_rate(params, species, _effective_mass_difference(species, p))


def damping_exponent(
    spec: DampingSpec,
    species: MesonSpecies,
    j: Eigenstate,
    k: Eigenstate,
    t,
    p: float = 0.0,
):
    """Dimensionless exponent suppressing the (j,k) interference at time t,
    a scalar or an array of times; relativistic CSL uses the momentum p."""
    t = _times(t, ValueError)
    if j is k or isinstance(spec, NoDamping):
        slope, growth = 0.0, np.zeros_like(t)
    elif isinstance(spec, LindbladDamping):
        slope, growth = spec.lambda_single, t
    elif isinstance(spec, CslDamping):
        rate = (csl_damping_rate_relativistic(spec.params, species, p)
                if spec.relativistic else csl_damping_rate(spec.params, species))
        # the white-noise rate is the exponent's slope, coefficient of D = t/2
        slope, growth = 2.0 * rate, spec.kernel.growth_integral(t)
    else:
        raise TypeError(f"unknown damping spec {spec!r}")
    # an exponent that overflows to inf damps the factor to exactly 0
    with np.errstate(over="ignore"):
        exponent = slope * growth
    return exponent if t.ndim else float(exponent)


def _phase(species: MesonSpecies, t, p: float):
    """The oscillation phase (E_heavy - E_light) t / hbar at momentum p, for
    times or time differences t of either sign.

    From about 1e295 s on (by species) the phase overflows, and 1j * inf
    would make every probability NaN, so that raises OverflowError.
    """
    de = energy_difference(species, Eigenstate.HEAVY, Eigenstate.LIGHT, p)
    try:
        with np.errstate(over="raise"):
            return de * t / CONSTANTS.hbar_mev_s
    except FloatingPointError:
        raise OverflowError(
            f"times up to {np.max(np.abs(t)):g} s overflow the oscillation "
            "phase") from None


def _mass_factors(species: MesonSpecies, t, spec: DampingSpec, p: float,
                  include_decay: bool) -> np.ndarray:
    """P[..., j, k] = pkj(j, k, t) over the mass basis (light, heavy): one
    phase, one damping exponent and one exp serve all four factors."""
    t = _times(t, ValueError)
    hbar = CONSTANTS.hbar_mev_s
    light, heavy = Eigenstate.LIGHT, Eigenstate.HEAVY
    phase = _phase(species, t, p)
    exponent = damping_exponent(spec, species, light, heavy, t, p)
    zero = np.zeros_like(t)
    # entries (ll, lh, hl, hh) on a last axis, reshaped to [..., j, k]
    phase = np.stack([zero, -phase, phase, zero], axis=-1)
    log_mag = -np.stack([zero, exponent, exponent, zero], axis=-1)
    if include_decay:
        widths = np.array([species.gamma_light, species.gamma_heavy])
        # a decay exponent that overflows to -inf gives exp(...) = 0 exactly
        with np.errstate(over="ignore"):
            log_mag = log_mag - (np.add.outer(widths, widths).ravel()
                                 * t[..., None] / (2.0 * hbar))
    return np.exp(log_mag + 1j * phase).reshape(t.shape + (2, 2))


_AXIS = {Eigenstate.LIGHT: 0, Eigenstate.HEAVY: 1}


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
    so large that the phase overflows (on the diagonal too); where only
    the decay exponent overflows, the factor is exactly 0.

    The sign convention of the phase is fixed to +(E_j - E_k); only its
    cosine is observable in the assembled probabilities.
    """
    val = _mass_factors(species, t, spec, p, include_decay)[
        ..., _AXIS[j], _AXIS[k]]
    return val if val.ndim else complex(val)


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
    f = _mass_factors(species, t, spec, p, include_decay).real
    prob = 0.25 * (f[..., 0, 0] + 2.0 * sign * f[..., 1, 0] + f[..., 1, 1])
    return prob if prob.ndim else float(prob)


def lindblad_density_matrix(
    species: MesonSpecies, t: float, lambda_single: float
) -> np.ndarray:
    """2x2 density matrix in the mass basis (light, heavy) at time t, for a
    flavor-particle initial state (all entries 1/2) dephasing at rate
    lambda_single under mass-basis Lindblad generators.
    """
    _times(t, ValueError)  # the time and the rate checked where they are owned
    LindbladDamping(lambda_single)
    g_l, g_h = species.rate_light(), species.rate_heavy()
    phase = -species.delta_m * t / CONSTANTS.hbar_mev_s
    off = 0.5 * np.exp(
        1j * phase - 0.5 * (g_l + g_h) * t - lambda_single * t
    )
    return np.array(
        [
            [0.5 * math.exp(-g_l * t), off],
            [np.conj(off), 0.5 * math.exp(-g_h * t)],
        ],
        dtype=complex,
    )


def momentum_spread_diagnostic(r_c: float) -> dict:
    """Width of the momentum-space noise correlator for documentation.

    Direct evaluation of hbar/r_C gives ~2 eV/c for r_C = 1e-5 cm; the
    often-quoted 12 eV/c matches h/r_C instead.  Both are reported; the
    factor-2pi discrepancy is surfaced, not resolved.
    """
    if not 0 < r_c < math.inf:
        raise ValueError("r_c must be finite and positive")
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
    if not 0 <= t < math.inf:
        raise ValueError("t must be finite and >= 0")
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
