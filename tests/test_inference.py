import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mesonosc as m
from mesonosc import inference

REG = m.default_registry()
K0 = REG.get_species("K0")
SPECIES = [REG.get_species(name) for name in ("K0", "B0", "Bs", "D0")]
CHI2_90 = 2.706


def signed_interference(events, sp):
    """sa: the interference weight a, negated for like-flavor pairs."""
    a = inference._interference_fraction(sp, events.t_left, events.t_right)
    return np.where(events.anti_left == events.anti_right, -a, a)


def nll(sa, zeta):
    with np.errstate(divide="ignore"):
        return -float(np.sum(np.log1p(sa * (1.0 - zeta))))


def reference_fit(events, sp):
    """The fit by scipy's bounded Brent minimizer, snapping to a boundary
    that is at least as good, and brentq for the interval edges."""
    from scipy.optimize import brentq, minimize_scalar

    sa = signed_interference(events, sp)
    res = minimize_scalar(lambda z: nll(sa, z), bounds=(0.0, 1.0),
                          method="bounded",
                          options={"xatol": 1e-6, "maxiter": 500})
    zeta_hat = float(np.clip(res.x, 0.0, 1.0))
    for edge in (0.0, 1.0):
        if nll(sa, edge) <= nll(sa, zeta_hat):
            zeta_hat = edge
    nll_min = nll(sa, zeta_hat)

    def excess(z):
        return 2.0 * (nll(sa, z) - nll_min) - CHI2_90

    ci_low, ci_high = 0.0, 1.0
    if excess(0.0) > 0.0 and zeta_hat > 0.0:
        ci_low = brentq(excess, 0.0, zeta_hat, xtol=1e-8)
    if excess(1.0) > 0.0 and zeta_hat < 1.0:
        ci_high = brentq(excess, zeta_hat, 1.0, xtol=1e-8)
    return zeta_hat, ci_low, ci_high


def assert_solved(res, events, sp):
    """The estimate is a root of the likelihood's slope (or a boundary
    where the slope points outward) and each interior edge sits on the
    likelihood-ratio threshold."""
    sa = signed_interference(events, sp)
    r = sa / (1.0 + sa * (1.0 - res.zeta_hat))
    slope = -r.sum()  # of -log L in x = 1 - zeta
    if res.zeta_hat == 0.0:
        assert slope <= 0.0
    elif res.zeta_hat == 1.0:
        assert slope >= 0.0
    else:
        assert abs(slope) <= 1e-9 * np.abs(r).sum()
    nll_min = nll(sa, res.zeta_hat)
    assert -nll_min == pytest.approx(res.log_likelihood, rel=1e-12, abs=1e-12)
    for edge in (res.ci_low, res.ci_high):
        if 0.0 < edge < 1.0:
            assert abs(2.0 * (nll(sa, edge) - nll_min) - CHI2_90) <= 1e-8


def test_generation_deterministic():
    a = m.generate_events(K0, 0.2, 500, seed=42)
    b = m.generate_events(K0, 0.2, 500, seed=42)
    assert a == b
    c = m.generate_events(K0, 0.2, 500, seed=43)
    assert a != c


def test_generated_flavor_fractions_track_zeta():
    # full decoherence leaves equal like/unlike fractions; quantum mechanics
    # suppresses like-flavor pairs
    def like_fraction(zeta):
        events = m.generate_events(K0, zeta, 20000, seed=1)
        like = events.anti_left == events.anti_right
        return np.count_nonzero(like) / len(events)

    assert like_fraction(1.0) == pytest.approx(0.5, abs=0.02)
    assert like_fraction(0.0) < like_fraction(1.0) - 0.05


def test_fit_recovers_truth_within_interval():
    events = m.generate_events(K0, 0.5, 20000, seed=7)
    res = m.fit_zeta(events, K0)
    assert res.converged
    assert res.ci_low <= 0.5 <= res.ci_high
    assert res.zeta_hat == pytest.approx(0.5, abs=0.1)


def test_likelihood_prefers_truth_over_zero():
    events = m.generate_events(K0, 0.5, 20000, seed=11)
    t_l, t_r = events.t_left, events.t_right
    like = events.anti_left == events.anti_right
    a = m.inference._interference_fraction(K0, t_l, t_r)
    s = np.where(like, -1.0, 1.0)

    def loglik(z):
        with np.errstate(divide="ignore"):
            return float(np.sum(np.log1p(s * a * (1.0 - z))))

    assert loglik(0.5) > loglik(0.0)


def test_interval_shrinks_with_statistics():
    widths = []
    for n in (2000, 20000):
        events = m.generate_events(K0, 0.3, n, seed=5)
        res = m.fit_zeta(events, K0)
        widths.append(res.ci_high - res.ci_low)
    # roughly 1/sqrt(n): a factor 10 in events shrinks by ~3
    assert widths[1] < widths[0] / 2.0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    sp=st.sampled_from(SPECIES),
    zeta_true=st.floats(0.0, 1.0),
    n=st.integers(200, 5000),
    seed=st.integers(0, 2**64 - 1),
)
def test_fit_matches_scipy_reference(sp, zeta_true, n, seed):
    events = m.generate_events(sp, zeta_true, n, seed)
    res = m.fit_zeta(events, sp)
    assert res.converged
    zeta_hat, ci_low, ci_high = reference_fit(events, sp)
    assert abs(res.zeta_hat - zeta_hat) <= 2e-6
    assert abs(res.ci_low - ci_low) <= 1e-6
    assert abs(res.ci_high - ci_high) <= 1e-6
    assert_solved(res, events, sp)


def flavors_by_sign(events, sign):
    """The events' times with flavors chosen so that sa = sign * |a|."""
    a = inference._interference_fraction(K0, events.t_left, events.t_right)
    like = (a > 0) == (sign < 0)
    return m.EventTable(events.t_left, events.t_right, events.anti_left,
                        events.anti_left == like)


def test_estimate_exactly_zero_has_upper_interval_only():
    # sa >= 0 everywhere: the likelihood rises all the way to zeta = 0
    events = flavors_by_sign(m.generate_events(K0, 0.3, 2000, seed=12), +1)
    res = m.fit_zeta(events, K0)
    assert res.converged
    assert res.zeta_hat == 0.0 and res.ci_low == 0.0
    assert 0.0 < res.ci_high < 1.0
    assert_solved(res, events, K0)


def test_estimate_exactly_one_has_lower_interval_only():
    # sa <= 0 everywhere: the likelihood rises all the way to zeta = 1
    events = flavors_by_sign(m.generate_events(K0, 0.3, 2000, seed=12), -1)
    res = m.fit_zeta(events, K0)
    assert res.converged
    assert res.zeta_hat == 1.0 and res.ci_high == 1.0
    assert 0.0 < res.ci_low < 1.0
    assert_solved(res, events, K0)


def test_fit_with_infinite_likelihood_at_zero():
    # like-flavor pairs at equal grid times have sa = -1, so zeta = 0 is
    # impossible: the negative log-likelihood and its slope are +inf there
    b0 = REG.get_species("B0")
    events = m.generate_events(b0, 0.2, 5000, seed=21)
    sa = signed_interference(events, b0)
    assert np.any(sa == -1.0)
    assert nll(sa, 0.0) == math.inf
    res = m.fit_zeta(events, b0)
    assert res.converged
    assert 0.0 < res.ci_low < res.zeta_hat < res.ci_high < 1.0
    assert_solved(res, events, b0)
    assert reference_fit(events, b0) == pytest.approx(
        (res.zeta_hat, res.ci_low, res.ci_high), abs=2e-6)


def test_boundary_estimate_gives_one_sided_interval():
    events = m.generate_events(K0, 0.0, 5000, seed=3)
    res = m.fit_zeta(events, K0)
    if res.zeta_hat == 0.0:
        assert res.ci_low == 0.0
    assert res.ci_low <= res.zeta_hat <= res.ci_high


def test_fit_input_validation():
    events = m.generate_events(K0, 0.2, 99, seed=0)
    with pytest.raises(ValueError):
        m.fit_zeta(events, K0)
    with pytest.raises(ValueError):
        m.generate_events(K0, 1.5, 100, seed=0)
    with pytest.raises(ValueError):
        m.generate_events(K0, 0.5, 0, seed=0)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**100])
def test_generation_rejects_seed_outside_64_bits(seed):
    with pytest.raises(OverflowError, match="seed"):
        m.generate_events(K0, 0.2, 200, seed=seed)


def test_degenerate_dataset_raises():
    n = 200
    events = m.EventTable([1e-10] * n, [1e-10] * n, [False] * n, [True] * n)
    with pytest.raises(ValueError, match="degenerate"):
        m.fit_zeta(events, K0)


def test_zeta_lambda_conversion_round_trip():
    t_min = 3.9e-11
    for zeta in (0.05, 0.29, 0.9):
        lam = m.zeta_to_lambda(zeta, t_min)
        assert m.lambda_to_zeta(lam, t_min) == pytest.approx(zeta, rel=1e-12)
    with pytest.raises(ValueError):
        m.zeta_to_lambda(1.0, t_min)
    with pytest.raises(ValueError):
        m.zeta_to_lambda(0.5, 0.0)


def test_lambda_ratio_dimensionless():
    lam = 8.8e9
    ratio = m.lambda_ratio(lam, K0)
    assert ratio == pytest.approx(lam * 8.95e-11, rel=1e-9)


def test_interference_fraction_where_envelopes_underflow():
    # at K_L decay times both decay envelopes underflow, but their ratio
    # to the interference term is cos(phase) / cosh(...), which does not
    mpmath = pytest.importorskip("mpmath")
    t_l = np.array([1e-7, 1e-7, 2e-7, 0.0, 1e-5])
    t_r = np.array([1e-7, 1.0000001e-7, 1e-7, 1e-7, 3e-8])
    got = inference._interference_fraction(K0, t_l, t_r)
    g_l, g_h = K0.rate_light(), K0.rate_heavy()
    omega = K0.delta_m / m.CONSTANTS.hbar_mev_s
    assert got[0] == 1.0
    with mpmath.workdps(40):
        for tl, tr, a in zip(t_l.tolist(), t_r.tolist(), got.tolist()):
            e1 = mpmath.exp(-g_l * mpmath.mpf(tl) - g_h * mpmath.mpf(tr))
            e2 = mpmath.exp(-g_h * mpmath.mpf(tl) - g_l * mpmath.mpf(tr))
            e_int = mpmath.exp(-(g_l + g_h) * (mpmath.mpf(tl) + tr) / 2)
            ref = 2 * mpmath.cos(omega * (tr - tl)) * e_int / (e1 + e2)
            assert abs(a - ref) <= 1e-10 * abs(ref) + 1e-300


def test_event_csv_round_trip():
    events = m.generate_events(K0, 0.2, 250, seed=9)
    text = m.events_to_csv(events)
    back = m.events_from_csv(text)
    assert len(back) == len(events)
    assert np.array_equal(events.anti_left, back.anti_left)
    assert np.array_equal(events.anti_right, back.anti_right)
    assert events.t_left == pytest.approx(back.t_left, rel=1e-11)
    assert text.splitlines()[0] == "t_left_s,t_right_s,flavor_left,flavor_right"


def test_event_csv_rejects_bad_input():
    with pytest.raises(ValueError):
        m.events_from_csv("wrong,header\n1,2\n")
    with pytest.raises(ValueError):
        m.events_from_csv(
            "t_left_s,t_right_s,flavor_left,flavor_right\n1e-10,1e-10,X,P\n"
        )
