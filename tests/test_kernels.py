import math

import numpy as np
import pytest

from mesonosc.kernels import (
    ExponentialKernel,
    GaussianKernel,
    KernelError,
    NoiseKernel,
    TabulatedKernel,
    WhiteKernel,
    spatial_zero,
    tabulated_from_csv,
)


def test_white_integrals_exact():
    w = WhiteKernel()
    assert w.growth_integral(2.0) == 1.0
    assert w.growth_integral(0.0) == 0.0


def test_white_has_no_pointwise_value():
    with pytest.raises(KernelError):
        WhiteKernel().correlation(0.1)


def test_exponential_closed_form_matches_quadrature():
    k = ExponentialKernel(tau=0.3)
    for t in (0.05, 0.3, 2.0, 10.0):
        closed = k.growth_integral(t)
        quad = NoiseKernel.growth_integral(k, t)
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


def test_exponential_white_limit():
    t = 1.0
    k = ExponentialKernel(tau=1e-4 * t)
    assert k.growth_integral(t) == pytest.approx(0.5 * t, rel=1.1e-4)


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


def test_tabulated_from_csv():
    text = "s_seconds,f_per_second\n0.0,1.0\n1.0,0.5\n2.0,0.0\n"
    k = tabulated_from_csv(text)
    assert k.correlation(1.0) == 0.5
    with pytest.raises(KernelError):
        tabulated_from_csv("s,f\n0.0,1.0\n")
    with pytest.raises(KernelError):
        tabulated_from_csv("s,f\n0.0,1.0,9.0\n1.0,0.5,9.0\n")


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


def test_non_finite_tau_and_time_raise():
    for bad in (math.nan, math.inf):
        with pytest.raises(KernelError):
            ExponentialKernel(bad)
        with pytest.raises(KernelError):
            GaussianKernel(bad)
        for k in (WhiteKernel(), ExponentialKernel(0.1), GaussianKernel(0.1)):
            with pytest.raises(KernelError):
                k.growth_integral(bad)
