import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mesonosc.kernels import (
    ExponentialKernel,
    GaussianKernel,
    KernelError,
    NoiseKernel,
    TabulatedKernel,
    WhiteKernel,
    spatial_zero,
)


def test_white_integrals_exact():
    w = WhiteKernel()
    assert w.growth_integral(2.0) == 1.0
    assert w.growth_integral(0.0) == 0.0


def test_white_has_no_pointwise_value():
    with pytest.raises(KernelError):
        WhiteKernel().correlation(0.1)


def growth_by_quadrature(kernel, t):
    from scipy import integrate

    if t == 0.0:
        return 0.0
    val, _ = integrate.quad(lambda s: kernel.correlation(s) * (t - s), 0.0, t,
                            epsrel=1e-10, epsabs=1e-16, limit=200)
    return val


def test_base_kernel_has_no_growth_integral():
    # every concrete kernel brings its own closed form
    with pytest.raises(NotImplementedError):
        NoiseKernel().growth_integral(1.0)


def test_exponential_closed_form_matches_quadrature():
    k = ExponentialKernel(tau=0.3)
    for t in (0.05, 0.3, 2.0, 10.0):
        closed = k.growth_integral(t)
        quad = growth_by_quadrature(k, t)
        assert closed == pytest.approx(quad, rel=1e-9)


@pytest.mark.parametrize("tau", [1e-12, 1e-10, 0.3, 4.0e5])
def test_exponential_growth_integral_matches_mpmath(tau):
    # D = (tau/2)(x + expm1(-x)) cancels at small x = t/tau unless summed
    # as a series; the reference takes the float t and tau as given
    mpmath = pytest.importorskip("mpmath")
    x = np.concatenate((np.logspace(-8, 1, 901),
                        np.nextafter(0.1, [0.0, 1.0]), [0.1]))
    t = x * tau
    got = ExponentialKernel(tau=tau).growth_integral(t)
    with mpmath.workdps(40):
        for ti, di in zip(t.tolist(), got.tolist()):
            xm = mpmath.mpf(ti) / mpmath.mpf(tau)
            ref = mpmath.mpf(tau) / 2 * (xm + mpmath.expm1(-xm))
            assert abs(di - ref) <= 1e-14 * ref
            assert ExponentialKernel(tau=tau).growth_integral(ti) == di


@settings(max_examples=300, deadline=None, derandomize=True)
@given(log_tau=st.floats(-300.0, 300.0), log_ratio=st.floats(-8.0, 30.0),
       gauss=st.booleans())
@example(log_tau=-4.0, log_ratio=4.0, gauss=False)
def test_kernel_white_limits(log_tau, log_ratio, gauss):
    # D(t) tends to t/2 with a relative error below tau/t: with x = t/tau it
    # is (tau/t)(1 - e^-x) for the exponential kernel, and for the Gaussian
    # (tau/t)(x erfc(x/sqrt 2) + sqrt(2/pi)(1 - e^(-x^2/2))) <= 0.8 tau/t;
    # 4.5e-16 allows for rounding where tau/t is below the float epsilon
    tau = 10.0 ** log_tau
    t = tau * 10.0 ** log_ratio
    assume(math.isfinite(t))
    kernel = GaussianKernel(tau) if gauss else ExponentialKernel(tau)
    assert abs(kernel.growth_integral(t) / (0.5 * t) - 1.0) <= tau / t + 4.5e-16


@pytest.mark.parametrize("tau", [1e-300, 1e-310])
def test_closed_forms_reach_their_limits_when_t_over_tau_overflows(tau):
    # t/tau (or its square) overflows to inf, where the closed forms give
    # their exact t >> tau limits; no overflow warning escapes
    t = np.array([1e-10, 1.0, 1e300])
    exp_d = ExponentialKernel(tau).growth_integral(t)
    gauss_d = GaussianKernel(tau).growth_integral(t)
    assert exp_d.tolist() == ((t - tau) / 2).tolist()
    assert gauss_d.tolist() == (t / 2 - tau / math.sqrt(2 * math.pi)).tolist()
    assert ExponentialKernel(tau).growth_integral(1.0) == (1.0 - tau) / 2
    assert GaussianKernel(tau).growth_integral(1e-10) == 5e-11


def test_gaussian_kernel_normalized():
    tau = 0.2
    k = GaussianKernel(tau=tau)
    # for t >> tau, D(t) -> t/2 - tau/sqrt(2 pi) exactly (unit-normalized f)
    expected = 2.5 - tau / math.sqrt(2.0 * math.pi)
    assert k.growth_integral(5.0) == pytest.approx(expected, rel=1e-8)


def test_tabulated_matches_sampled_exponential():
    tau = 0.5
    exact = ExponentialKernel(tau=tau)
    s = np.linspace(0.0, 10.0 * tau, 4001)
    tab = TabulatedKernel(s, np.exp(-s / tau) / (2.0 * tau))
    for t in (0.2, 1.0, 3.0):
        assert tab.growth_integral(t) == pytest.approx(
            exact.growth_integral(t), rel=1e-5
        )


def test_tabulated_growth_stops_at_last_sample():
    # f = 0 past the table, so D(2) = int_0^1 (2 - s) ds
    assert TabulatedKernel([0.0, 1.0], [1.0, 1.0]).growth_integral(2.0) == 1.5


@st.composite
def tables_and_times(draw):
    """A table of 2-20 knots, the first at 0 or past it and the last value
    0 or not, with times inside it, at its knots and past its end."""
    n = draw(st.integers(2, 20))
    start = draw(st.one_of(st.just(0.0), st.floats(0.01, 2.0)))
    gaps = draw(st.lists(st.floats(0.01, 2.0), min_size=n - 1, max_size=n - 1))
    s = start + np.concatenate(([0.0], np.cumsum(gaps)))
    f = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 2.0)),
                      min_size=n, max_size=n))
    if draw(st.booleans()):
        f[-1] = 0.0
    # D(t) ~ t^3 underflows below t ~ 1e-103, so inside times are 0 or
    # at least a thousandth of the table
    inside = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
                           min_size=1, max_size=4))
    past = draw(st.lists(st.floats(1.0, 100.0), min_size=1, max_size=3))
    times = np.concatenate((np.array(inside) * s[-1], s, np.array(past) * s[-1]))
    return s, np.array(f), times


@settings(max_examples=40, deadline=None, derandomize=True)
@given(tables_and_times())
def test_tabulated_growth_integral_matches_mpmath(table):
    mpmath = pytest.importorskip("mpmath")
    s, f, times = table
    kernel = TabulatedKernel(s, f)
    got = kernel.growth_integral(times)
    assert got.tolist() == [kernel.growth_integral(t) for t in times.tolist()]
    with mpmath.workdps(30):
        knots = [mpmath.mpf(x) for x in s.tolist()]
        values = [mpmath.mpf(x) for x in f.tolist()]

        def correlation(x):
            if x <= knots[0]:
                return values[0]
            for a, b, fa, fb in zip(knots, knots[1:], values, values[1:]):
                if x <= b:
                    return fa + (fb - fa) * (x - a) / (b - a)
            return mpmath.mpf(0)

        for t, d in zip(times.tolist(), got.tolist()):
            end = min(mpmath.mpf(t), knots[-1])
            ref = mpmath.quad(lambda x: correlation(x) * (t - x),
                              [0, *[k for k in knots if 0 < k < end], end],
                              method="gauss-legendre")
            assert abs(d - ref) <= 1e-13 * ref


def test_tabulated_even_extension_and_cutoff():
    tab = TabulatedKernel([0.0, 1.0, 2.0], [1.0, 0.5, 0.0])
    assert tab.correlation(-1.0) == tab.correlation(1.0) == 0.5
    assert tab.correlation(5.0) == 0.0


def test_tabulated_validation():
    with pytest.raises(KernelError):
        TabulatedKernel([0.0], [1.0])
    with pytest.raises(KernelError):
        TabulatedKernel([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(KernelError):
        TabulatedKernel([0.0, 1.0], [1.0, -1.0])
    # f is sampled for s >= 0 only; the even extension covers s < 0
    with pytest.raises(KernelError, match=">= 0"):
        TabulatedKernel([-2.0, -1.0], [1.0, 1.0])
    with pytest.raises(KernelError, match=">= 0"):
        TabulatedKernel([-1.0, 1.0], [1.0, 1.0])
    for s, f in (([0.0, math.nan], [1.0, 1.0]), ([0.0, 1.0], [math.inf, 1.0])):
        with pytest.raises(KernelError, match="finite"):
            TabulatedKernel(s, f)


def test_negative_time_raises():
    for k in (WhiteKernel(), ExponentialKernel(0.1), GaussianKernel(0.1)):
        with pytest.raises(KernelError):
            k.growth_integral(-1.0)


def test_nonpositive_tau_raises():
    with pytest.raises(KernelError):
        ExponentialKernel(0.0)
    with pytest.raises(KernelError):
        GaussianKernel(-1.0)


def test_spatial_zero_identities():
    r_c = 1e-5
    f0 = spatial_zero(r_c)
    assert f0 == pytest.approx(1.0 / (8.0 * math.pi**1.5 * r_c**3), rel=1e-14)
    # same quantity written as the momentum integral prefactor
    alt = (1.0 / (2.0 * math.pi) ** 3) * math.pi**1.5 / r_c**3
    assert f0 == pytest.approx(alt, rel=1e-14)
    with pytest.raises(KernelError):
        spatial_zero(0.0)
    # r_c**3 out of range: F(0) staged where it is tiny, an error where
    # it is infinite
    wide = 1e103
    assert spatial_zero(wide) == (4.0 * math.pi) ** -1.5 / wide / wide / wide
    assert 0.0 < spatial_zero(wide) < 1e-310
    for r_c in (1e-105, 1e-110):
        with pytest.raises(OverflowError, match="r_C"):
            spatial_zero(r_c)


def test_non_finite_tau_and_time_raise():
    for bad in (math.nan, math.inf):
        with pytest.raises(KernelError):
            ExponentialKernel(bad)
        with pytest.raises(KernelError):
            GaussianKernel(bad)
        for k in (WhiteKernel(), ExponentialKernel(0.1), GaussianKernel(0.1)):
            with pytest.raises(KernelError):
                k.growth_integral(bad)
