"""Property tests of the array-native forward model.

Array calls must agree element by element with scalar calls, the Gaussian
kernel's closed form with quadrature, and the mass-basis factors with
their conjugate symmetry, across species, damping models and times drawn
by hypothesis.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mesonosc as m
from mesonosc.oscillation import Eigenstate, FlavorState

REG = m.default_registry()
SPECIES = [REG.get_species(name) for name in ("K0", "B0", "Bs", "D0")]
HBAR = m.CONSTANTS.hbar_mev_s
EIG = (Eigenstate.LIGHT, Eigenstate.HEAVY)
PSI_MINUS = m.antisymmetric_state()

SPEC_KINDS = ("none", "lindblad", "white", "exp", "gauss", "relativistic")


def lifetime(sp):
    return HBAR / sp.gamma_light


def damping(kind, sp):
    """A damping spec of the given kind whose interference exponent is O(1)
    over one light-state lifetime of ``sp``."""
    tau = lifetime(sp)
    if kind == "none":
        return m.NoDamping()
    if kind == "lindblad":
        return m.LindbladDamping(lambda_single=0.7 / tau)
    # collapse strength whose white-noise rate is 0.7 / tau
    r_c, m0 = 1e-5, 940.0
    gamma = 2.0 * 0.7 / tau / ((sp.delta_m / m0) ** 2 * m.spatial_zero(r_c))
    params = m.CslParams(gamma=gamma, r_c=r_c, m0=m0)
    if kind == "white":
        return m.CslDamping(params=params)
    if kind == "exp":
        return m.CslDamping(params=params, kernel=m.ExponentialKernel(0.4 * tau))
    if kind == "gauss":
        return m.CslDamping(params=params, kernel=m.GaussianKernel(0.4 * tau))
    return m.CslDamping(params=params, kernel=m.ExponentialKernel(0.4 * tau),
                        momentum=0.5 * sp.m_light, relativistic=True)


species_st = st.sampled_from(SPECIES)
kind_st = st.sampled_from(SPEC_KINDS)
# times in units of the light-state lifetime; 0 included
units_st = st.lists(st.floats(0.0, 6.0), min_size=1, max_size=7)
momentum_st = st.sampled_from([0.0, 0.2, 1.0])   # in units of m_light

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def reference_pkj(sp, j, k, t, spec, p, decay):
    """pkj's docstring formula for one scalar time, entry by entry:
    exp(-(G_j + G_k) t / 2 hbar) exp(+i (E_j - E_k) t / hbar) exp(-L_jk)."""
    width = {Eigenstate.LIGHT: sp.gamma_light, Eigenstate.HEAVY: sp.gamma_heavy}
    decay_exp = (width[j] + width[k]) * t / (2.0 * HBAR) if decay else 0.0
    phase = m.energy_difference(sp, j, k, p) * t / HBAR
    return cmath.exp(-decay_exp + 1j * phase
                     - m.damping_exponent(spec, sp, j, k, t))


def loop_single(final, sp, t, spec, p, decay):
    """Reference: 1/4 [P_ll +- P_hl +- P_lh + P_hh] term by term."""
    sign = 1.0 if final is FlavorState.PARTICLE else -1.0
    terms = sum((1.0 if j is k else sign) * m.pkj(sp, j, k, t, spec, p, decay)
                for j in EIG for k in EIG)
    return 0.25 * terms.real


def loop_joint(proj, q):
    """Reference: the sum over all four mass indices, one term at a time."""
    alpha, beta, gamma = PSI_MINUS.alpha, proj.beta, proj.gamma
    total = 0.0
    for j, k, jp, kp in np.ndindex(2, 2, 2, 2):
        total += (alpha[j, k] * np.conj(beta[j] * gamma[k])
                  * np.conj(alpha[jp, kp]) * beta[jp] * gamma[kp]
                  * m.pkj(q.species, EIG[j], EIG[jp], q.t_left, q.spec)
                  * m.pkj(q.species, EIG[k], EIG[kp], q.t_right, q.spec))
    return max(total.real, 0.0)


@SETTINGS
@given(species_st, kind_st, units_st, momentum_st, st.booleans())
def test_array_single_equals_scalar_calls(sp, kind, units, p_units, decay):
    spec = damping(kind, sp)
    t = np.array(units) * lifetime(sp)
    p = p_units * sp.m_light
    for final in FlavorState:
        arr = m.transition_probability(
            FlavorState.PARTICLE, final, sp, t, spec, p, decay)
        scalars = [m.transition_probability(
            FlavorState.PARTICLE, final, sp, float(x), spec, p, decay)
            for x in t]
        assert all(type(s) is float for s in scalars)
        np.testing.assert_allclose(arr, scalars, rtol=1e-12, atol=0.0)
        loop = [loop_single(final, sp, float(x), spec, p, decay) for x in t]
        np.testing.assert_allclose(arr, loop, rtol=1e-12, atol=1e-15)
    for j in EIG:
        for k in EIG:
            arr = m.pkj(sp, j, k, t, spec, p, decay)
            scalars = [m.pkj(sp, j, k, float(x), spec, p, decay) for x in t]
            assert all(type(s) is complex for s in scalars)
            np.testing.assert_allclose(arr, scalars, rtol=1e-12, atol=0.0)
            arr = m.damping_exponent(spec, sp, j, k, t)
            scalars = [m.damping_exponent(spec, sp, j, k, float(x)) for x in t]
            np.testing.assert_allclose(arr, scalars, rtol=1e-12, atol=0.0)


@SETTINGS
@given(species_st, kind_st, units_st, units_st,
       st.sampled_from(list(FlavorState)), st.sampled_from(list(FlavorState)))
def test_array_joint_equals_scalar_calls(sp, kind, left, right, fl, fr):
    spec = damping(kind, sp)
    t_l = np.array(left) * lifetime(sp)
    t_r = np.array(right) * lifetime(sp)
    proj = m.flavor_projection(fl, fr)
    surface = m.joint_probability(
        PSI_MINUS, proj, m.JointQuery(t_l[:, None], t_r[None, :], sp, spec))
    assert surface.shape == (t_l.size, t_r.size)
    queries = [[m.JointQuery(float(a), float(b), sp, spec) for b in t_r]
               for a in t_l]
    scalars = [[m.joint_probability(PSI_MINUS, proj, q) for q in row]
               for row in queries]
    assert all(type(s) is float for row in scalars for s in row)
    # like flavours vanish at equal times; there only round-off remains
    np.testing.assert_allclose(surface, scalars, rtol=1e-12, atol=1e-15)
    loop = [[loop_joint(proj, q) for q in row] for row in queries]
    np.testing.assert_allclose(surface, loop, rtol=1e-12, atol=1e-15)


@SETTINGS
@given(species_st, kind_st, units_st, momentum_st, st.booleans())
def test_mass_factors_match_docstring_formula(sp, kind, units, p_units, decay):
    # loop_single and loop_joint check the contraction; this checks the
    # entries themselves against a scalar formula written out separately
    spec = damping(kind, sp)
    t = np.array(units) * lifetime(sp)
    p = p_units * sp.m_light
    for j in EIG:
        for k in EIG:
            ref = [reference_pkj(sp, j, k, float(x), spec, p, decay)
                   for x in t]
            np.testing.assert_allclose(m.pkj(sp, j, k, t, spec, p, decay),
                                       ref, rtol=1e-14, atol=0.0)


@SETTINGS
@given(species_st, units_st, st.floats(0.0, 3.0))
def test_mass_factors_are_twice_the_lindblad_density_matrix(sp, units, rate):
    lam = rate / lifetime(sp)
    spec = m.LindbladDamping(lambda_single=lam)
    for x in np.array(units) * lifetime(sp):
        rho = m.lindblad_density_matrix(sp, float(x), lam)
        factors = [[m.pkj(sp, j, k, float(x), spec) for k in EIG] for j in EIG]
        # rates in s^-1 instead of widths over hbar: a few ulps apart
        np.testing.assert_allclose(2.0 * rho, factors, rtol=1e-13, atol=0.0)


@SETTINGS
@given(species_st, kind_st, units_st)
def test_trace_and_epr_zero_on_arrays(sp, kind, units):
    spec = damping(kind, sp)
    t = np.array(units) * lifetime(sp)
    total = sum(m.transition_probability(
        FlavorState.PARTICLE, final, sp, t, spec) for final in FlavorState)
    envelope = 0.5 * (np.exp(-sp.gamma_light * t / HBAR)
                      + np.exp(-sp.gamma_heavy * t / HBAR))
    np.testing.assert_allclose(total, envelope, rtol=1e-12, atol=1e-15)
    if kind == "none":
        like = m.flavor_projection(FlavorState.PARTICLE, FlavorState.PARTICLE)
        assert np.all(m.joint_probability(
            PSI_MINUS, like, m.JointQuery(t, t, sp)) < 1e-12)


@SETTINGS
@given(species_st, kind_st, units_st, momentum_st)
def test_pkj_conjugate_symmetry_on_arrays(sp, kind, units, p_units):
    spec = damping(kind, sp)
    t = np.array(units) * lifetime(sp)
    p = p_units * sp.m_light
    for j in EIG:
        for k in EIG:
            np.testing.assert_allclose(
                m.pkj(sp, j, k, t, spec, p),
                np.conj(m.pkj(sp, k, j, t, spec, p)), rtol=1e-14, atol=0.0)


def growth_by_quadrature(kernel, t):
    from scipy import integrate

    if t == 0.0:
        return 0.0
    val, _ = integrate.quad(lambda s: kernel.correlation(s) * (t - s), 0.0, t,
                            epsrel=1e-10, epsabs=1e-16, limit=200)
    return val


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.floats(-4.0, 3.0), st.floats(1e-2, 1e2))
def test_gaussian_closed_form_matches_quadrature(log_ratio, tau):
    kernel = m.GaussianKernel(tau)
    t = 10.0**log_ratio * tau
    closed = kernel.growth_integral(t)
    assert type(closed) is float
    assert closed == pytest.approx(growth_by_quadrature(kernel, t), rel=1e-9)


def test_gaussian_closed_form_small_time_series():
    # D(t) = t^2 / (2 sqrt(2 pi) tau) (1 - t^2/(12 tau^2) + ...) for t << tau
    tau = 1e-10
    t = np.array([1e-8, 1e-6, 1e-4]) * tau
    series = t * t / (2.0 * math.sqrt(2.0 * math.pi) * tau) * (
        1.0 - t * t / (12.0 * tau * tau))
    np.testing.assert_allclose(
        m.GaussianKernel(tau).growth_integral(t), series, rtol=1e-12)


def test_growth_integrals_keep_array_shape():
    t = np.linspace(0.0, 3.0, 6).reshape(2, 3)
    s = np.linspace(0.0, 5.0, 101)
    kernels = (m.WhiteKernel(), m.ExponentialKernel(0.5),
               m.GaussianKernel(0.5), m.TabulatedKernel(s, np.exp(-s)))
    for kernel in kernels:
        d = kernel.growth_integral(t)
        assert d.shape == t.shape
        assert d[0, 0] == 0.0
        # one closed form serves both, so they agree bit for bit
        assert d.ravel().tolist() == [kernel.growth_integral(float(x))
                                      for x in t.flat]
