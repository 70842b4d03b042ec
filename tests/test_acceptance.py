"""Acceptance gate: one test per shipped guarantee, each printing a single
pass/fail line.  These pin the headline numbers and properties the package
promises; the unit-test modules cover the implementation details."""

import json
import math
import time

import numpy as np
import pytest

import mesonosc as m
from mesonosc import cli
from mesonosc.oscillation import Eigenstate, FlavorState

REG = m.default_registry()
K0 = REG.get_species("K0")
HBAR = m.CONSTANTS.hbar_mev_s

STRONG = m.CslParams(gamma=1e-22 * 1e47, r_c=1e-5, m0=9.4e2)


def report(capsys, number, name, ok):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] acceptance {number}: {name}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def test_criterion_1_damping_rate_table(tmp_path, capsys):
    # published values; the Bs ratio is corrected to be consistent with the
    # published rate and lifetime (rate * tau), see the repo decision notes
    expected = {
        "K0": (1.5e-38, 1.3e-48, 0.05, 0.10),
        "B0": (1.4e-34, 2.1e-46, 0.20, 0.20),
        "Bs": (1.7e-31, 2.6e-43, 0.20, 0.20),
        "D0": (3.2e-37, 1.3e-49, 0.20, 0.20),
    }
    out = tmp_path / "rates.csv"
    start = time.monotonic()
    rc = cli.main(["--out", str(out), "rates", "--csl-preset", "adler"])
    elapsed = time.monotonic() - start
    ok = rc == 0 and elapsed < 1.0
    for line in out.read_text().splitlines()[1:]:
        name, lam, ratio = line.split(",")
        ref_lam, ref_ratio, tol_lam, tol_ratio = expected[name]
        ok = ok and abs(float(lam) / ref_lam - 1.0) < tol_lam
        ok = ok and abs(float(ratio) / ref_ratio - 1.0) < tol_ratio
    report(capsys, 1, "collapse damping-rate table", ok)


def test_criterion_2_bound_conversion(capsys):
    # 90% CL upper edge zeta <= 0.13 + 0.16 = 0.29 corresponds to the
    # published Lambda <= 8.8e9 1/s; t_min back-solved from that pair and
    # recorded as derived, not ground truth
    zeta_edge = 0.29
    t_min = -math.log1p(-zeta_edge) / 8.8e9
    lam = m.zeta_to_lambda(zeta_edge, t_min)
    ratio = m.lambda_ratio(8.8e9, K0)
    ok = abs(lam / 8.8e9 - 1.0) < 0.02
    ok = ok and abs(ratio / 0.79 - 1.0) < 0.02
    report(capsys, 2, "zeta-to-rate bound conversion", ok)


def test_criterion_3_stochastic_oracle(capsys):
    start = time.monotonic()
    ok = True
    # white noise at three exponent magnitudes
    for expo in (0.25, 1.0, 3.0):
        plan = m.SimulationPlan(
            n_trajectories=100000, n_steps=16, dt=1.0 / 16, seed=100
        )
        f0 = expo / ((math.sqrt(4.0) - 1.0) ** 2 * 0.5)
        res = m.simulate_damping(4.0, 1.0, f0, 1.0, plan)
        ok = ok and math.isclose(res.analytic_prediction, math.exp(-expo))
        ok = ok and abs(res.mean_interference - res.analytic_prediction) \
            < 3.0 * res.std_error
    # colored noise at two correlation times
    for tau in (0.01, 0.1):
        plan = m.SimulationPlan(
            n_trajectories=100000, n_steps=1000, dt=1e-3, seed=200,
            kernel=m.ExponentialKernel(tau=tau),
        )
        d = m.ExponentialKernel(tau).growth_integral(1.0)
        res = m.simulate_damping(4.0, 1.0, 1.0 / d, 1.0, plan)
        ok = ok and abs(res.mean_interference - res.analytic_prediction) \
            < 3.0 * res.std_error
    ok = ok and (time.monotonic() - start) < 60.0
    report(capsys, 3, "stochastic oracle agreement", ok)


def test_criterion_4_trace_preservation(capsys):
    rng = np.random.default_rng(77)
    specs = [
        m.NoDamping(),
        m.CslDamping(params=STRONG),
        m.LindbladDamping(lambda_single=2e9),
        m.CslDamping(params=STRONG, kernel=m.ExponentialKernel(tau=1e-10)),
    ]
    ok = True
    for _ in range(10000):
        t = float(rng.uniform(0.0, 2e-9))
        spec = specs[rng.integers(len(specs))]
        total = m.transition_probability(
            FlavorState.PARTICLE, FlavorState.PARTICLE, K0, t, spec
        ) + m.transition_probability(
            FlavorState.PARTICLE, FlavorState.ANTIPARTICLE, K0, t, spec
        )
        envelope = 0.5 * (
            math.exp(-K0.gamma_light * t / HBAR)
            + math.exp(-K0.gamma_heavy * t / HBAR)
        )
        ok = ok and abs(total - envelope) < 1e-12
        if not ok:
            break
    report(capsys, 4, "trace preservation", ok)


def test_criterion_5_epr_anticorrelation(capsys):
    state = m.antisymmetric_state()
    rng = np.random.default_rng(31)
    ok = True
    for _ in range(1000):
        t = float(rng.uniform(0.0, 5e-9))
        for fl in FlavorState:
            proj = m.flavor_projection(fl, fl)
            for decay in (True, False):
                q = m.JointQuery(t, t, K0, include_decay=decay)
                ok = ok and m.joint_probability(state, proj, q) < 1e-12
        if not ok:
            break
    report(capsys, 5, "EPR anti-correlation", ok)


def test_criterion_6_csl_lindblad_equivalence(capsys):
    lam = m.csl_damping_rate(STRONG, K0)
    csl = m.CslDamping(params=STRONG)
    lin = m.LindbladDamping(lambda_single=lam)
    rng = np.random.default_rng(13)
    ok = True
    for _ in range(500):
        t = float(rng.uniform(0.0, 2e-9))
        for final in FlavorState:
            a = m.transition_probability(FlavorState.PARTICLE, final, K0, t, csl)
            b = m.transition_probability(FlavorState.PARTICLE, final, K0, t, lin)
            ok = ok and abs(a - b) < 1e-12
        if not ok:
            break
    report(capsys, 6, "white-noise collapse equals Lindblad dephasing", ok)


def _growth_by_quadrature(kernel, t):
    from scipy import integrate

    if t == 0.0:
        return 0.0
    val, _ = integrate.quad(lambda s: kernel.correlation(s) * (t - s), 0.0, t,
                            epsrel=1e-10, epsabs=1e-16, limit=200)
    return val


def test_criterion_7_kernel_limits(capsys):
    t = 1.0
    k = m.ExponentialKernel(tau=1e-4 * t)
    white = m.WhiteKernel().growth_integral(t)
    ok = abs(k.growth_integral(t) / white - 1.0) <= 1e-4
    # closed form against direct quadrature
    for tau in (0.01, 0.3, 2.0):
        kk = m.ExponentialKernel(tau=tau)
        closed = kk.growth_integral(t)
        quad = _growth_by_quadrature(kk, t)
        ok = ok and abs(closed - quad) <= 1e-9 * max(abs(closed), 1.0)
    report(capsys, 7, "colored-kernel white limit and closed forms", ok)


def test_criterion_8_fit_round_trip(capsys):
    zeta_true = 0.13
    covered = 0
    max_fit = 0.0
    for seed in range(50):
        events = m.generate_events(K0, zeta_true, 20000, seed=seed)
        start = time.monotonic()
        res = m.fit_zeta(events, K0)
        max_fit = max(max_fit, time.monotonic() - start)
        if res.ci_low <= zeta_true <= res.ci_high:
            covered += 1
    ok = covered >= 40 and max_fit < 10.0
    report(capsys, 8, f"fit round trip (coverage {covered}/50)", ok)


def _overlap_by_double_quadrature(d, sigma, r_c):
    from scipy import integrate

    def integrand(y, x):
        n1 = math.exp(-x * x / (2 * sigma**2)) / (math.sqrt(2 * math.pi) * sigma)
        n2 = math.exp(-((y - d) ** 2) / (2 * sigma**2)) / (
            math.sqrt(2 * math.pi) * sigma
        )
        return n1 * n2 * math.exp(-((x - y) ** 2) / (4 * r_c**2))

    lo, hi = -10 * sigma, 10 * sigma + d
    val, _ = integrate.dblquad(integrand, lo, hi, lo, hi, epsabs=1e-13, epsrel=1e-11)
    return val


def test_criterion_9_wave_packet_suppression(capsys):
    ok = True
    for d, sigma, r_c in [(0.0, 1.0, 0.5), (1.3, 1.0, 0.5)]:
        closed = m.cross_term_kernel_overlap(d, sigma, r_c)
        quad = _overlap_by_double_quadrature(d, sigma, r_c)
        ok = ok and abs(closed / quad - 1.0) < 1e-8
    c = m.CONSTANTS.c_cm_s
    left = m.GaussianPacket(0.0, 1e-4, -0.2 * c)
    right = m.GaussianPacket(0.0, 1e-4, 0.2 * c)
    ok = ok and m.suppression_ratio(1e-12, left, right, 1e-5) < 1e-100
    report(capsys, 9, "wave-packet cross-term suppression", ok)
