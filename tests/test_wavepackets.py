import math

import pytest
from scipy import integrate

import mesonosc as m


def overlap_by_double_quadrature(d, sigma, r_c):
    """Independent evaluation: average of the Gaussian noise correlator
    exp(-(x-y)^2/(4 r_C^2)) over two normalized packet densities."""

    def integrand(y, x):
        n1 = math.exp(-x * x / (2 * sigma**2)) / (math.sqrt(2 * math.pi) * sigma)
        n2 = math.exp(-((y - d) ** 2) / (2 * sigma**2)) / (
            math.sqrt(2 * math.pi) * sigma
        )
        return n1 * n2 * math.exp(-((x - y) ** 2) / (4 * r_c**2))

    lo, hi = -10 * sigma, 10 * sigma + d
    val, _ = integrate.dblquad(integrand, lo, hi, lo, hi, epsabs=1e-13, epsrel=1e-11)
    return val


def test_closed_form_matches_double_quadrature():
    for d, sigma, r_c in [(0.0, 1.0, 0.5), (1.3, 1.0, 0.5), (2.0, 0.7, 1.1)]:
        closed = m.cross_term_kernel_overlap(d, sigma, r_c)
        quad = overlap_by_double_quadrature(d, sigma, r_c)
        assert closed == pytest.approx(quad, rel=1e-8)


def test_point_packet_limit_is_unity():
    assert m.cross_term_kernel_overlap(0.0, 1e-12, 1e-5) == pytest.approx(1.0)


def test_kaon_like_suppression_is_total():
    c = m.CONSTANTS.c_cm_s
    left = m.GaussianPacket(0.0, 1e-4, -0.2 * c)
    right = m.GaussianPacket(0.0, 1e-4, 0.2 * c)
    ratio = m.suppression_ratio(1e-12, left, right, 1e-5)
    assert ratio < 1e-100


def test_suppression_monotone_for_diverging_packets():
    c = m.CONSTANTS.c_cm_s
    left = m.GaussianPacket(0.0, 1e-4, -0.2 * c)
    right = m.GaussianPacket(0.0, 1e-4, 0.2 * c)
    times = [0.0, 1e-16, 1e-15, 1e-14]
    ratios = [m.suppression_ratio(t, left, right, 1e-5) for t in times]
    assert ratios[0] == 1.0
    assert all(a >= b for a, b in zip(ratios, ratios[1:]))


@pytest.mark.parametrize("sigma, r_c", [
    (1e-5, 1e200), (1e300, 1e-5), (1e-170, 1e-170), (1e299, 1e-300),
    (1e-170, 1.3e154), (1e-4, 1e-5),
])
def test_overlap_at_the_edges_of_the_float_range(sigma, r_c):
    # r_C^2 + sigma^2 overflows, underflows, or quadruples past the largest
    # float; math.hypot scales by itself
    h = math.hypot(r_c, sigma)
    for d in (0.0, 0.5 * h, 3.0 * h):
        assert m.cross_term_kernel_overlap(d, sigma, r_c) == pytest.approx(
            r_c / h * math.exp(-(d / h) ** 2 / 4.0), rel=1e-14)
    left = m.GaussianPacket(0.0, sigma, -1.0)
    right = m.GaussianPacket(0.0, sigma, 1.0)
    assert m.suppression_ratio(0.0, left, right, r_c) == 1.0
    # d = 2t = 2h
    assert m.suppression_ratio(h, left, right, r_c) == pytest.approx(
        math.exp(-1.0), rel=1e-14)


def test_mean_width_near_the_largest_float_does_not_overflow():
    p = m.GaussianPacket(0.0, 1.5e308, 0.0)
    q = m.GaussianPacket(0.0, 1.7e308, 0.0)
    assert m.suppression_ratio(1.0, p, q, 1.0) == 1.0


def test_coincident_identical_packets_have_unit_ratio():
    p = m.GaussianPacket(0.0, 1e-4, 0.0)
    assert m.suppression_ratio(5e-10, p, p, 1e-5) == 1.0


def test_separation_that_overflows_raises():
    from mesonosc.wavepackets import separation
    left = m.GaussianPacket(0.0, 1.0, -1e308)
    right = m.GaussianPacket(0.0, 1.0, 1e308)
    assert separation(0.5, left, m.GaussianPacket(1.0, 1.0, 0.0)) == 5e307
    with pytest.raises(OverflowError):
        separation(0.0, left, right)  # the relative speed, even at t = 0
    with pytest.raises(OverflowError):
        separation(2.0, left, m.GaussianPacket(0.0, 1.0, 0.0))
    with pytest.raises(OverflowError):
        m.suppression_ratio(0.0, left, right, 1e-5)


def test_validation():
    from mesonosc.wavepackets import separation
    with pytest.raises(ValueError):
        m.GaussianPacket(0.0, -1.0, 0.0)
    with pytest.raises(ValueError):
        m.cross_term_kernel_overlap(-1.0, 1.0, 1.0)
    for bad in (math.nan, math.inf, 0.0):
        with pytest.raises(ValueError):
            m.cross_term_kernel_overlap(1.0, 1.0, bad)
        with pytest.raises(ValueError):
            m.cross_term_kernel_overlap(1.0, bad, 1.0)
    p = m.GaussianPacket(0.0, 1.0, 0.0)
    for t in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            separation(t, p, p)
        with pytest.raises(ValueError):
            m.suppression_ratio(t, p, p, 1.0)


def test_packet_rejects_non_finite_fields():
    for args in [(math.nan, 1.0, 0.0), (0.0, math.inf, 0.0),
                 (0.0, math.nan, 0.0), (0.0, 1.0, math.inf)]:
        with pytest.raises(ValueError):
            m.GaussianPacket(*args)
