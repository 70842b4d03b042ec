import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mesonosc as m
from mesonosc import oracle


def white_plan(seed=0, n_traj=4000, n_steps=32, dt=1.0 / 32):
    return m.SimulationPlan(
        n_trajectories=n_traj, n_steps=n_steps, dt=dt, seed=seed
    )


def test_plan_rejects_seeds_outside_64_bits():
    for seed in (-1, 2**64):
        with pytest.raises(m.PlanError, match="seed"):
            white_plan(seed=seed)
    assert white_plan(seed=2**64 - 1).seed == 2**64 - 1


def test_plan_validation():
    with pytest.raises(m.PlanError):
        m.SimulationPlan(n_trajectories=10, n_steps=32, dt=0.1, seed=0)
    with pytest.raises(m.PlanError):
        m.SimulationPlan(n_trajectories=1000, n_steps=5, dt=0.1, seed=0)
    with pytest.raises(m.PlanError):
        m.SimulationPlan(n_trajectories=1000, n_steps=32, dt=-0.1, seed=0)
    with pytest.raises(m.PlanError):
        # dt too coarse for the correlation time
        m.SimulationPlan(
            n_trajectories=1000, n_steps=32, dt=0.1, seed=0,
            kernel=m.ExponentialKernel(tau=0.2),
        )
    with pytest.raises(m.PlanError):
        m.SimulationPlan(
            n_trajectories=1000, n_steps=32, dt=0.001, seed=0,
            kernel=m.GaussianKernel(tau=0.2),
        )


def test_time_must_match_plan():
    with pytest.raises(m.PlanError):
        m.simulate_damping(4.0, 1.0, 1.0, 0.5, white_plan())


def test_equal_couplings_cancel_exactly():
    res = m.simulate_damping(2.0, 2.0, 1.0, 1.0, white_plan())
    assert res.mean_interference == 1.0
    assert res.std_error == 0.0
    assert res.analytic_prediction == 1.0


def test_white_noise_matches_gaussian_dephasing_identity():
    res = m.simulate_damping(4.0, 1.0, 1.0, 1.0, white_plan(n_traj=20000))
    assert res.analytic_prediction == pytest.approx(math.exp(-0.5), rel=1e-12)
    assert abs(res.mean_interference - res.analytic_prediction) < 3.0 * res.std_error


def test_ou_noise_matches_exponential_kernel_prediction():
    tau = 0.05
    plan = m.SimulationPlan(
        n_trajectories=20000, n_steps=500, dt=1.0 / 500, seed=4,
        kernel=m.ExponentialKernel(tau=tau),
    )
    res = m.simulate_damping(4.0, 1.0, 2.0, 1.0, plan)
    expected = math.exp(-2.0 * m.ExponentialKernel(tau).growth_integral(1.0))
    assert res.analytic_prediction == pytest.approx(expected, rel=1e-12)
    assert abs(res.mean_interference - res.analytic_prediction) < 3.0 * res.std_error


def test_deterministic_for_fixed_seed():
    a = m.simulate_damping(4.0, 1.0, 1.0, 1.0, white_plan(seed=7))
    b = m.simulate_damping(4.0, 1.0, 1.0, 1.0, white_plan(seed=7))
    assert a.mean_interference == b.mean_interference
    assert a.std_error == b.std_error


def test_different_seeds_differ():
    a = m.simulate_damping(4.0, 1.0, 1.0, 1.0, white_plan(seed=1))
    b = m.simulate_damping(4.0, 1.0, 1.0, 1.0, white_plan(seed=2))
    assert a.mean_interference != b.mean_interference


def test_trajectory_rows_come_from_block_keyed_philox():
    # the documented seed-to-value map: trajectory i is row i % BLOCK of
    # Philox(key=[seed, i // BLOCK]), summed with weight sqrt(f0 dt)
    plan = white_plan(seed=11, n_traj=300, n_steps=10, dt=0.1)
    res = m.simulate_damping(4.0, 1.0, 1.0, 1.0, plan)
    rows = [np.random.Generator(np.random.Philox(key=[11, b])).standard_normal(
        (min(oracle.BLOCK, 300 - b * oracle.BLOCK), 10)) for b in (0, 1)]
    phase = np.concatenate(rows).sum(axis=1) * math.sqrt(0.1)
    assert res.mean_interference == pytest.approx(np.cos(phase).mean(), rel=1e-13)


def record_block_threads(monkeypatch):
    """Wrap the oracle's Philox construction; return {block: thread ident}."""
    philox, seen = np.random.Philox, {}

    def spy(key):
        seen[int(key[1])] = threading.get_ident()
        return philox(key=key)

    monkeypatch.setattr(oracle.np.random, "Philox", spy)
    return seen


def test_results_do_not_depend_on_workers_or_chunk_size(monkeypatch):
    # every worker count gives the same bits; white and OU plans whose last
    # block is partial, a plan of two blocks and a seed that needs the top
    # bit of its uint64 key word
    ou = m.SimulationPlan(n_trajectories=5000, n_steps=64, dt=1.0 / 64,
                          seed=3, kernel=m.ExponentialKernel(tau=0.2))
    plans = (white_plan(seed=3, n_traj=5000), ou,
             white_plan(seed=5, n_traj=300, n_steps=16, dt=1.0 / 16),
             white_plan(seed=2**63 + 5, n_traj=1300, n_steps=16, dt=1.0 / 16))
    for plan in plans:
        results = set()
        for workers in (1, 2, 3):
            monkeypatch.setattr(oracle, "_WORKERS", workers)
            threads = record_block_threads(monkeypatch)
            res = m.simulate_damping(4.0, 1.0, 1.0, 1.0, plan)
            results.add((res.mean_interference, res.std_error))
            # one worker, or a plan of one block, stays on the caller
            on_caller = set(threads.values()) == {threading.get_ident()}
            single = plan.n_trajectories <= oracle.BLOCK
            assert on_caller == (workers == 1 or single)
        assert len(results) == 1


def test_single_chunk_run_starts_no_thread(monkeypatch):
    monkeypatch.setattr(oracle, "_WORKERS", 2)
    threads = record_block_threads(monkeypatch)
    m.simulate_damping(4.0, 1.0, 1.0, 1.0, white_plan(n_traj=200))
    assert threads == {0: threading.get_ident()}


def test_threaded_rows_follow_the_documented_row_map(monkeypatch):
    # trajectory i is row i % BLOCK of Philox(key=[seed, i // BLOCK]) times
    # the phase weights, across six blocks on two workers
    monkeypatch.setattr(oracle, "_WORKERS", 2)
    seed, n = 2**63 + 11, 1300
    plan = m.SimulationPlan(n_trajectories=n, n_steps=20, dt=1.0 / 20,
                            seed=seed, kernel=m.ExponentialKernel(tau=0.5))
    threads = record_block_threads(monkeypatch)
    res = m.simulate_damping(4.0, 1.0, 1.0, 1.0, plan)
    assert len(set(threads.values())) == 2
    w = oracle._phase_weights(plan, 1.0)
    rows = np.concatenate([
        np.random.Generator(np.random.Philox(
            key=np.array([seed, b], dtype=np.uint64))).standard_normal(
                (min(oracle.BLOCK, n - b * oracle.BLOCK), w.size))
        for b in range(-(-n // oracle.BLOCK))])
    cos_vals = np.cos((math.sqrt(4.0) - 1.0) * np.einsum("ij,j->i", rows, w))
    assert res.mean_interference == float(np.mean(cos_vals))
    assert res.std_error == float(np.std(cos_vals, ddof=1) / math.sqrt(n))


def test_more_workers_than_cores_with_frequent_switches(monkeypatch):
    # 20 blocks on 4 threads that switch every microsecond: a block lost or
    # written twice into another's slice changes the bits
    plan = white_plan(seed=13, n_traj=5000, n_steps=16, dt=1.0 / 16)
    monkeypatch.setattr(oracle, "_WORKERS", 1)
    serial = m.simulate_damping(4.0, 1.0, 1.0, 1.0, plan)
    monkeypatch.setattr(oracle, "_WORKERS", 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = m.simulate_damping(4.0, 1.0, 1.0, 1.0, plan)
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def test_failing_worker_raises(monkeypatch):
    monkeypatch.setattr(oracle, "_WORKERS", 2)
    philox = np.random.Philox

    def failing(key):
        if int(key[1]) == 9:
            raise RuntimeError("block 9 failed")
        return philox(key=key)

    monkeypatch.setattr(oracle.np.random, "Philox", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="block 9 failed"):
        m.simulate_damping(4.0, 1.0, 1.0, 1.0, white_plan(n_traj=5000))
    assert threading.active_count() == before


def two_growth(x):
    """2 D(t)/tau = x + expm1(-x) at x = t/tau, by its Taylor series where
    the closed form cancels."""
    if x >= 0.1:
        return x + math.expm1(-x)
    return x * x * sum((-x) ** k / math.factorial(k + 2) for k in range(12))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(h=st.floats(1e-8, 0.1), n_steps=st.integers(10, 2000),
       tau=st.floats(1e-3, 1e3), f0=st.floats(1e-3, 1e3),
       white=st.booleans())
def test_phase_variance_is_exact_at_every_step_size(h, n_steps, tau, f0, white):
    # no step-size bias: the weights' variance is 2 f0 D(t) to rounding
    kernel = m.WhiteKernel() if white else m.ExponentialKernel(tau=tau)
    dt = min(h * tau, tau / 10.0)  # h * tau can round past tau/10
    plan = m.SimulationPlan(n_trajectories=100, n_steps=n_steps, dt=dt,
                            seed=0, kernel=kernel)
    w = oracle._phase_weights(plan, f0)
    assert w.size >= n_steps
    t = plan.total_time
    expected = f0 * t if white else f0 * tau * two_growth(t / tau)
    assert float(np.sum(w * w)) == pytest.approx(expected, rel=1e-12, abs=0.0)
    if h >= 1e-4:  # where the kernel's own closed form is this accurate
        assert expected == pytest.approx(
            2.0 * f0 * kernel.growth_integral(t), rel=1e-12, abs=0.0)


def test_non_finite_plan_rejected():
    for dt in (math.nan, math.inf):
        with pytest.raises(m.PlanError):
            m.SimulationPlan(n_trajectories=1000, n_steps=32, dt=dt, seed=0)
    kernel = m.ExponentialKernel(tau=1.0)
    object.__setattr__(kernel, "tau", math.inf)  # bypass the kernel's check
    with pytest.raises(m.PlanError):
        m.SimulationPlan(n_trajectories=1000, n_steps=32, dt=0.1, seed=0,
                         kernel=kernel)


@pytest.mark.parametrize("bad", [
    dict(gamma_j=math.nan), dict(gamma_k=math.inf), dict(f0=math.inf),
    dict(f0=math.nan), dict(t=math.nan), dict(t=math.inf),
])
def test_non_finite_arguments_rejected(bad):
    args = dict(gamma_j=4.0, gamma_k=1.0, f0=1.0, t=1.0) | bad
    with pytest.raises(m.PlanError):
        m.simulate_damping(plan=white_plan(), **args)


def test_import_leaves_scipy_signal_out():
    # scipy.signal costs about half a second of import time
    src = str(Path(oracle.__file__).resolve().parents[1])
    code = ("import sys, mesonosc; "
            "raise SystemExit('scipy.signal' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0


def test_import_leaves_scipy_optimize_and_integrate_out():
    # neither the fit nor the kernels use them, and together they cost
    # about 0.3 s of import time; this guards against bringing them back
    src = str(Path(oracle.__file__).resolve().parents[1])
    code = ("import sys, mesonosc; raise SystemExit(bool("
            "{'scipy.optimize', 'scipy.integrate'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0


def test_zero_time_returns_unity():
    plan = white_plan()
    res = m.simulate_damping(4.0, 1.0, 1.0, 0.0, plan)
    assert res.mean_interference == 1.0
    assert res.analytic_prediction == 1.0


def test_invalid_couplings_raise():
    with pytest.raises(m.PlanError):
        m.simulate_damping(-1.0, 1.0, 1.0, 1.0, white_plan())
    with pytest.raises(m.PlanError):
        m.simulate_damping(1.0, 1.0, 0.0, 1.0, white_plan())

