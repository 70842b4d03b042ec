import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mesonosc as m
from mesonosc.oscillation import FlavorState

REG = m.default_registry()
K0 = REG.get_species("K0")
B0 = REG.get_species("B0")
HBAR = m.CONSTANTS.hbar_mev_s

PSI_MINUS = m.antisymmetric_state()
LIKE_PP = m.flavor_projection(FlavorState.PARTICLE, FlavorState.PARTICLE)
LIKE_AA = m.flavor_projection(FlavorState.ANTIPARTICLE, FlavorState.ANTIPARTICLE)
UNLIKE = m.flavor_projection(FlavorState.PARTICLE, FlavorState.ANTIPARTICLE)

STRONG = m.CslParams(gamma=1e-22 * 1e47, r_c=1e-5, m0=9.4e2)


def test_state_normalization_enforced():
    with pytest.raises(ValueError):
        m.TwoParticleState(np.ones((2, 2)))
    with pytest.raises(ValueError):
        m.FinalProjection(beta=(1.0, 1.0), gamma=(1.0, 0.0))


def test_epr_anticorrelation_at_equal_times():
    rng = np.random.default_rng(5)
    for _ in range(100):
        t = float(rng.uniform(0.0, 2e-9))
        for proj in (LIKE_PP, LIKE_AA):
            for decay in (True, False):
                q = m.JointQuery(t, t, K0, include_decay=decay)
                assert m.joint_probability(PSI_MINUS, proj, q) < 1e-12


def test_zeta_zero_matches_quadruple_sum():
    rng = np.random.default_rng(9)
    for _ in range(50):
        tl = float(rng.uniform(0.0, 1e-9))
        tr = float(rng.uniform(0.0, 1e-9))
        for proj, like in ((LIKE_PP, True), (UNLIKE, False)):
            general = m.joint_probability(PSI_MINUS, proj, m.JointQuery(tl, tr, K0))
            closed = m.zeta_joint_probability(tl, tr, K0, 0.0, like_flavor=like)
            assert general == pytest.approx(closed, abs=1e-15)


def test_white_csl_like_flavor_equal_time_value():
    # decay-free like-flavor probability (1 - e^{-2 Lambda t}) / 4
    lam = m.csl_damping_rate(STRONG, K0)
    spec = m.CslDamping(params=STRONG)
    for t in (1e-10, 5e-10, 2e-9):
        q = m.JointQuery(t, t, K0, spec=spec, include_decay=False)
        val = m.joint_probability(PSI_MINUS, LIKE_PP, q)
        assert val == pytest.approx((1.0 - math.exp(-2.0 * lam * t)) / 4.0, rel=1e-10)


def test_damping_factorizes_over_the_two_sides():
    # interference suppression is exactly e^{-Lambda (t_l + t_r)}
    lam = m.csl_damping_rate(STRONG, K0)
    spec = m.CslDamping(params=STRONG)
    tl, tr = 3e-10, 7e-10
    free = m.joint_probability(PSI_MINUS, UNLIKE, m.JointQuery(tl, tr, K0))
    damped = m.joint_probability(
        PSI_MINUS, UNLIKE, m.JointQuery(tl, tr, K0, spec=spec)
    )
    envelope, _ = m.entangle._zeta_terms(K0, tl, tr)
    interference_free = free - 0.125 * envelope
    interference_damped = damped - 0.125 * envelope
    assert interference_damped == pytest.approx(
        interference_free * math.exp(-lam * (tl + tr)), rel=1e-9
    )


def test_outcome_completeness_sum():
    # summing the four flavor-pair outcomes removes all interference,
    # leaving sum_jk |alpha_jk|^2 e^{-G_j t_l/hbar} e^{-G_k t_r/hbar}
    g_l = K0.gamma_light / HBAR
    g_h = K0.gamma_heavy / HBAR
    rng = np.random.default_rng(21)
    for _ in range(25):
        tl = float(rng.uniform(0.0, 1e-9))
        tr = float(rng.uniform(0.0, 1e-9))
        total = sum(
            m.joint_probability(
                PSI_MINUS, m.flavor_projection(fl, fr), m.JointQuery(tl, tr, K0)
            )
            for fl in FlavorState
            for fr in FlavorState
        )
        expected = 0.5 * (
            math.exp(-g_l * tl - g_h * tr) + math.exp(-g_h * tl - g_l * tr)
        )
        assert total == pytest.approx(expected, abs=1e-15)


def test_zeta_one_kills_interference():
    tl, tr = 2e-10, 6e-10
    envelope, _ = m.entangle._zeta_terms(K0, tl, tr)
    assert m.zeta_joint_probability(tl, tr, K0, 1.0) == pytest.approx(
        0.125 * envelope, rel=1e-14
    )


def test_min_time_model_limits():
    tl, tr = 2e-10, 6e-10
    assert m.min_time_joint_probability(tl, tr, K0, 0.0) == pytest.approx(
        m.zeta_joint_probability(tl, tr, K0, 0.0), rel=1e-14
    )
    huge = m.min_time_joint_probability(tl, tr, K0, 1e30)
    assert huge == pytest.approx(m.zeta_joint_probability(tl, tr, K0, 1.0), rel=1e-14)


def test_min_time_model_uses_smaller_time():
    lam = 3e9
    a = m.min_time_joint_probability(2e-10, 8e-10, K0, lam)
    b = m.min_time_joint_probability(8e-10, 2e-10, K0, lam)
    assert a == pytest.approx(b, rel=1e-12)


def test_equal_width_formula_matches_general_sum():
    # B0 has equal widths, so the closed form should agree exactly
    rng = np.random.default_rng(2)
    for _ in range(25):
        tl = float(rng.uniform(0.0, 5e-12))
        tr = float(rng.uniform(0.0, 5e-12))
        for proj, like in ((LIKE_PP, True), (UNLIKE, False)):
            general = m.joint_probability(PSI_MINUS, proj, m.JointQuery(tl, tr, B0))
            closed = m.equal_width_joint_probability(tl, tr, B0, like_flavor=like)
            assert general == pytest.approx(closed, abs=1e-15)


def test_equal_width_warns_for_kaons():
    with pytest.warns(UserWarning, match="widths differ"):
        m.equal_width_joint_probability(1e-10, 1e-10, K0)


def test_interference_sign_convention():
    # like flavors are suppressed below, unlike enhanced above, the
    # incoherent level when the oscillation phase vanishes
    tl = tr = 3e-10
    envelope, _ = m.entangle._zeta_terms(K0, tl, tr)
    base = 0.125 * envelope
    assert m.zeta_joint_probability(tl, tr, K0, 0.0, like_flavor=True) < base
    assert m.zeta_joint_probability(tl, tr, K0, 0.0, like_flavor=False) > base


def test_invalid_inputs_raise():
    with pytest.raises(ValueError):
        m.JointQuery(-1.0, 0.0, K0)
    with pytest.raises(ValueError):
        m.zeta_joint_probability(1e-10, 1e-10, K0, 1.5)
    with pytest.raises(ValueError):
        m.min_time_joint_probability(1e-10, 1e-10, K0, -1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            m.min_time_joint_probability(1e-10, 1e-10, K0, bad)
        with pytest.raises(ValueError):
            m.zeta_joint_probability(bad, 0.0, K0, 0.0)
        with pytest.raises(ValueError):
            m.min_time_joint_probability(0.0, [1e-10, bad], K0, 0.0)
        with pytest.raises(ValueError):
            m.equal_width_joint_probability(bad, 0.0, B0)
    with pytest.raises(ValueError):
        m.zeta_joint_probability([1e-10, -1e-10], 0.0, K0, 0.0)


def test_closed_forms_at_huge_times():
    # an overflowing decay exponent gives 0 without a RuntimeWarning; an
    # overflowing phase raises, as in pkj
    big = [1e300, 1e308]
    for form, args in ((m.zeta_joint_probability, (0.0,)),
                       (m.min_time_joint_probability, (1e300,)),
                       (m.equal_width_joint_probability, ())):
        assert form(1e300, 1e300, B0, *args) == 0.0
        assert np.array_equal(form(big, big, B0, *args), [0.0, 0.0])
        with pytest.raises(OverflowError):
            form(1e300, 0.0, B0, *args)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    sp=st.sampled_from([REG.get_species(n) for n in ("K0", "B0", "Bs", "D0")]),
    p_frac=st.sampled_from([0.0, 0.2, 1.0]),
    pairs=st.lists(st.tuples(st.floats(0.0, 12.0), st.floats(0.0, 12.0)),
                   min_size=1, max_size=8),
    zeta=st.floats(0.0, 1.0),
)
def test_closed_forms_are_array_native(sp, p_frac, pairs, zeta):
    # times up to 12 light lifetimes, momenta up to the light mass
    tau = HBAR / sp.gamma_light
    tl, tr = (tau * np.array(col) for col in zip(*pairs))
    p = p_frac * sp.m_light
    lam = zeta / tau
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # equal-width on K0
        for proj, like in ((LIKE_PP, True), (UNLIKE, False)):
            zeta0 = m.zeta_joint_probability(tl, tr, sp, 0.0, p, like)
            general = m.joint_probability(
                PSI_MINUS, proj, m.JointQuery(tl, tr, sp, momentum=p))
            np.testing.assert_allclose(zeta0, general, rtol=0.0, atol=1e-15)
            assert np.array_equal(
                m.min_time_joint_probability(tl, tr, sp, 0.0, p, like), zeta0)
            for form, args in ((m.zeta_joint_probability, (zeta,)),
                               (m.min_time_joint_probability, (lam,)),
                               (m.equal_width_joint_probability, ())):
                scalars = [form(a, b, sp, *args, p, like)
                           for a, b in zip(tl.tolist(), tr.tolist())]
                assert all(type(x) is float for x in scalars)
                assert np.array_equal(form(tl, tr, sp, *args, p, like), scalars)
