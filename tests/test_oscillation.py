import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mesonosc as m
from mesonosc.oscillation import Eigenstate, FlavorState

REG = m.default_registry()
K0 = REG.get_species("K0")
B0 = REG.get_species("B0")
SPECIES = [REG.get_species(name) for name in ("K0", "B0", "Bs", "D0")]
HBAR = m.CONSTANTS.hbar_mev_s

# rescaled collapse strength so damping is O(1) on laboratory time scales;
# the physical presets give exponents ~1e-48 that no float test can see
STRONG = m.CslParams(gamma=1e-22 * 1e47, r_c=1e-5, m0=9.4e2)


def survival_envelope(species, t):
    return 0.5 * (
        math.exp(-species.gamma_light * t / HBAR)
        + math.exp(-species.gamma_heavy * t / HBAR)
    )


def test_damping_rate_formula():
    params = REG.get_csl("adler")
    lam = m.csl_damping_rate(params, K0)
    direct = (
        params.gamma
        * K0.delta_m**2
        / (16.0 * math.pi**1.5 * params.r_c**3 * params.m0**2)
    )
    assert lam == pytest.approx(direct, rel=1e-14)


def test_relativistic_rate_reduces_at_zero_momentum():
    params = REG.get_csl("adler")
    assert m.csl_damping_rate_relativistic(params, K0, 0.0) == pytest.approx(
        m.csl_damping_rate(params, K0), rel=1e-12
    )


def test_relativistic_rate_suppressed_at_high_momentum():
    params = REG.get_csl("adler")
    at_rest = m.csl_damping_rate(params, K0)
    boosted = m.csl_damping_rate_relativistic(params, K0, 10.0 * K0.m_light)
    assert boosted < at_rest


def test_pkj_diagonal_is_pure_decay():
    t = 3e-10
    val = m.pkj(K0, Eigenstate.LIGHT, Eigenstate.LIGHT, t)
    assert val.imag == 0.0
    assert val.real == pytest.approx(math.exp(-K0.gamma_light * t / HBAR))


def test_pkj_conjugate_symmetry():
    t = 2e-10
    spec = m.CslDamping(params=STRONG)
    a = m.pkj(K0, Eigenstate.LIGHT, Eigenstate.HEAVY, t, spec)
    b = m.pkj(K0, Eigenstate.HEAVY, Eigenstate.LIGHT, t, spec)
    assert a == pytest.approx(np.conj(b), rel=1e-14)


def test_transition_probabilities_at_zero_time():
    for f in FlavorState:
        assert m.transition_probability(f, f, K0, 0.0) == 1.0
    assert m.transition_probability(
        FlavorState.PARTICLE, FlavorState.ANTIPARTICLE, K0, 0.0
    ) == 0.0


def test_trace_identity_under_all_damping_specs():
    rng = np.random.default_rng(11)
    specs = [
        m.NoDamping(),
        m.CslDamping(params=STRONG),
        m.CslDamping(params=STRONG, kernel=m.ExponentialKernel(tau=1e-10)),
        m.LindbladDamping(lambda_single=3e9),
    ]
    for _ in range(200):
        t = float(rng.uniform(0.0, 1e-9))
        spec = specs[rng.integers(len(specs))]
        total = m.transition_probability(
            FlavorState.PARTICLE, FlavorState.PARTICLE, K0, t, spec
        ) + m.transition_probability(
            FlavorState.PARTICLE, FlavorState.ANTIPARTICLE, K0, t, spec
        )
        assert total == pytest.approx(survival_envelope(K0, t), abs=1e-12)


def test_cp_symmetry_of_transition_probabilities():
    t = 4e-10
    spec = m.CslDamping(params=STRONG)
    assert m.transition_probability(
        FlavorState.PARTICLE, FlavorState.ANTIPARTICLE, K0, t, spec
    ) == pytest.approx(
        m.transition_probability(
            FlavorState.ANTIPARTICLE, FlavorState.PARTICLE, K0, t, spec
        ),
        rel=1e-14,
    )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(SPECIES), st.lists(st.floats(0.0, 6.0), min_size=1,
                                          max_size=6),
       st.floats(-2.0, 1.0), st.sampled_from(list(FlavorState)))
def test_csl_white_equals_lindblad(sp, units, log_rate, final):
    # collapse strength whose white-noise rate is 10**log_rate light widths
    r_c, m0 = 1e-5, 940.0
    gamma = 10.0**log_rate * sp.rate_light() * 2.0 / (
        (sp.delta_m / m0) ** 2 * m.spatial_zero(r_c))
    params = m.CslParams(gamma=gamma, r_c=r_c, m0=m0)
    csl = m.CslDamping(params=params)
    lin = m.LindbladDamping(lambda_single=m.csl_damping_rate(params, sp))
    t = np.array(units) / sp.rate_light()
    for times in (t, float(t[0])):
        assert m.transition_probability(
            FlavorState.PARTICLE, final, sp, times, csl
        ) == pytest.approx(
            m.transition_probability(FlavorState.PARTICLE, final, sp, times,
                                     lin),
            abs=1e-12,
        )


def test_damping_exponent_zero_on_diagonal():
    spec = m.CslDamping(params=STRONG)
    assert m.damping_exponent(spec, K0, Eigenstate.LIGHT, Eigenstate.LIGHT, 1e-9) == 0.0
    assert m.damping_exponent(m.NoDamping(), K0, Eigenstate.LIGHT, Eigenstate.HEAVY, 1e-9) == 0.0


def test_exponential_kernel_damping_approaches_white():
    t = 1e-9
    white = m.damping_exponent(
        m.CslDamping(params=STRONG), K0, Eigenstate.LIGHT, Eigenstate.HEAVY, t
    )
    colored = m.damping_exponent(
        m.CslDamping(params=STRONG, kernel=m.ExponentialKernel(tau=1e-4 * t)),
        K0, Eigenstate.LIGHT, Eigenstate.HEAVY, t,
    )
    assert colored == pytest.approx(white, rel=1.1e-4)
    assert colored < white


def test_energy_difference_uses_exact_splitting():
    de = m.energy_difference(K0, Eigenstate.HEAVY, Eigenstate.LIGHT)
    assert de == K0.delta_m
    assert m.energy_difference(K0, Eigenstate.LIGHT, Eigenstate.HEAVY) == -de
    assert m.energy_difference(K0, Eigenstate.LIGHT, Eigenstate.LIGHT) == 0.0
    # at p = 100 MeV the kinetic terms lower the splitting by about 2%;
    # sqrt(m_h^2 + p^2) - sqrt(m_l^2 + p^2) = dm (m_h + m_l) / (E_h + E_l),
    # which the nonrelativistic form matches up to its O((p/m)^4) remainder
    p = 100.0
    m_l, m_h = K0.m_light, K0.m_light + K0.delta_m
    exact = K0.delta_m * (m_h + m_l) / (math.hypot(m_h, p) + math.hypot(m_l, p))
    de_p = m.energy_difference(K0, Eigenstate.HEAVY, Eigenstate.LIGHT, p=p)
    assert de_p == pytest.approx(exact, rel=1e-3, abs=0.0)


def test_oscillation_pattern_matches_textbook_form():
    # flip probability without decay: sin^2(dm t / 2 hbar)
    spec = m.NoDamping()
    for t in (1e-10, 3e-10, 6e-10):
        expected = math.sin(K0.delta_m * t / (2.0 * HBAR)) ** 2
        got = m.transition_probability(
            FlavorState.PARTICLE, FlavorState.ANTIPARTICLE, K0, t, spec,
            include_decay=False,
        )
        assert got == pytest.approx(expected, abs=1e-12)


def test_lindblad_density_matrix_matches_transition_probability():
    lam = 2e9
    t = 5e-10
    rho = m.lindblad_density_matrix(K0, t, lam)
    assert rho[0, 0].real == pytest.approx(0.5 * math.exp(-K0.gamma_light * t / HBAR))
    assert rho[1, 0] == pytest.approx(np.conj(rho[0, 1]))
    # flavor-survival probability <P|rho|P> with P = (light+heavy)/sqrt(2)
    p_surv = 0.5 * float(np.real(rho[0, 0] + rho[1, 1] + rho[0, 1] + rho[1, 0]))
    direct = m.transition_probability(
        FlavorState.PARTICLE, FlavorState.PARTICLE, K0, t,
        m.LindbladDamping(lambda_single=lam),
    )
    assert p_surv == pytest.approx(direct, abs=1e-14)


def test_diagnostics_report_documented_scales():
    d = m.momentum_spread_diagnostic(1e-5)
    assert d["hbar_over_rc_ev_per_c"] == pytest.approx(1.97, rel=0.01)
    assert d["h_over_rc_ev_per_c"] == pytest.approx(12.4, rel=0.01)
    ph = m.phase_magnitude_diagnostic(K0, 1.6e-7)
    assert 1e-17 < ph["coefficient_per_ev2"] < 1e-14


def test_negative_time_raises():
    with pytest.raises(ValueError):
        m.transition_probability(FlavorState.PARTICLE, FlavorState.PARTICLE, K0, -1.0)
    with pytest.raises(ValueError):
        m.pkj(K0, Eigenstate.LIGHT, Eigenstate.HEAVY, -1.0)


def test_energy_difference_matches_exact_rational_reference():
    # E_h - E_l = dm + p^2/2 (1/(m_l + dm) - 1/m_l), evaluated in exact
    # rationals from the stored floats
    for name in ("K0", "B0", "Bs", "D0"):
        sp = REG.get_species(name)
        m_l, dm = Fraction(sp.m_light), Fraction(sp.delta_m)
        for scale in (0.2, 1.0):
            p = scale * sp.m_light
            exact = dm + Fraction(p) ** 2 / 2 * (1 / (m_l + dm) - 1 / m_l)
            got = m.energy_difference(sp, Eigenstate.HEAVY, Eigenstate.LIGHT, p)
            assert got == pytest.approx(float(exact), rel=1e-12, abs=0.0)


def test_non_finite_inputs_raise():
    for t in (math.nan, math.inf):
        with pytest.raises(ValueError):
            m.transition_probability(
                FlavorState.PARTICLE, FlavorState.PARTICLE, K0, t)
    with pytest.raises(ValueError):
        m.transition_probability(
            FlavorState.PARTICLE, FlavorState.PARTICLE, K0,
            np.array([0.0, math.nan]))
    with pytest.raises(ValueError):
        m.LindbladDamping(math.nan)
    with pytest.raises(ValueError):
        m.LindbladDamping(math.inf)
    with pytest.raises(ValueError):
        m.CslDamping(params=STRONG, momentum=math.nan)
    with pytest.raises(ValueError):
        m.energy_difference(K0, Eigenstate.HEAVY, Eigenstate.LIGHT, p=math.inf)


@pytest.mark.parametrize("p", [1e100, 1e120, 1e150])
def test_effective_mass_splitting_has_its_ultrarelativistic_limit(p):
    # delta_m m (m^2 + 2 p^2) / E^3 -> 2 delta_m m / p for p >> m, also
    # where E^3 itself overflows (p >~ 1e102 MeV/c)
    from mesonosc.oscillation import _effective_mass_difference
    limit = 2.0 * K0.delta_m * K0.m_light / p
    assert _effective_mass_difference(K0, p) == pytest.approx(limit, rel=1e-14)


def test_momentum_whose_splitting_overflows_raises():
    # a finite momentum whose square overflows gives no finite splitting
    with pytest.raises(OverflowError):
        m.energy_difference(K0, Eigenstate.HEAVY, Eigenstate.LIGHT, p=1e200)
    with pytest.raises(OverflowError):
        m.csl_damping_rate_relativistic(STRONG, K0, 1e200)
