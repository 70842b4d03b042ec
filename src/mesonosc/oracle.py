"""Monte Carlo dephasing oracle for the interference damping law.

Two phases driven by ONE shared scalar Gaussian noise path with couplings
sqrt(gamma_j), sqrt(gamma_k) accumulate a Gaussian phase difference, so the
averaged interference E[cos(theta_j - theta_k)] must equal

    exp(-(sqrt(gamma_j) - sqrt(gamma_k))^2 F0 D(t))

non-perturbatively, with D(t) the kernel growth integral.  This verifies
the exponential form of the damping independently of the perturbative
derivation.  Physical couplings give unmeasurably small exponents, so the
oracle is meant to run at rescaled couplings with the exponent O(1).

Each trajectory is a per-step noise path: a row of standard normals, at
least one per step, times exact weights (``_phase_weights``): white noise
sums its increments, exponential noise integrates a stationary
Ornstein-Uhlenbeck path exactly, so the phase variance is 2 F0 D(t) at any
step size.

Trajectories come in fixed blocks of BLOCK; block b fills its rows in order
from one counter-based Philox substream keyed by (seed, b) (Salmon et al.,
SC 2011), and each row is reduced on its own.  The blocks are dealt to one
thread per usable CPU, which cannot change a bit: a block's normals depend
only on its key, not on the thread or the order it is drawn in; each thread
writes the cosines of its own rows into a disjoint slice; and the mean and
standard error are taken over the whole array in the calling thread.  A
thread holds one block of normals at a time; one block starts no thread.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .kernels import ExponentialKernel, NoiseKernel, WhiteKernel

BLOCK = 256  # trajectories per Philox key
# worker threads: one per CPU this process may run on
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


class PlanError(ValueError):
    pass


@dataclass(frozen=True)
class SimulationPlan:
    n_trajectories: int
    n_steps: int
    dt: float
    seed: int
    kernel: NoiseKernel = field(default_factory=WhiteKernel)

    def __post_init__(self):
        # the seed is one 64-bit word of the Philox key
        if not 0 <= self.seed < 2**64:
            raise PlanError("seed must be in [0, 2**64)")
        if self.n_trajectories < 100:
            raise PlanError("need at least 100 trajectories")
        if self.n_steps < 10:
            raise PlanError("need at least 10 steps")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise PlanError("dt must be positive and finite")
        if isinstance(self.kernel, ExponentialKernel):
            tau = self.kernel.tau
            if not (math.isfinite(tau) and self.dt <= tau / 10.0):
                raise PlanError("dt must resolve a finite correlation time "
                                "(dt <= tau/10)")
        elif not isinstance(self.kernel, WhiteKernel):
            raise PlanError("oracle supports white or exponential kernels only")

    @property
    def total_time(self) -> float:
        return self.n_steps * self.dt


@dataclass(frozen=True)
class OracleResult:
    mean_interference: float
    std_error: float
    analytic_prediction: float

    def __post_init__(self):
        if abs(self.mean_interference) > 1.0 + 3.0 * self.std_error:
            raise PlanError("mean interference outside physical range")


def _block_rng(seed: int, block: int) -> np.random.Generator:
    # uint64 words: from a Python list numpy changes seeds >= 2**63
    key = np.array([seed, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _phase_weights(plan: SimulationPlan, f0: float) -> np.ndarray:
    """Weights w such that a row z of iid standard normals gives the
    integrated noise z @ w of one trajectory; sum(w**2) = 2 f0 D(t).

    White: n_steps increments of variance f0 dt.  Exponential (Gillespie,
    Phys. Rev. E 54, 2084, 1996): columns X0, the n_steps innovations of
    X_k = rho X_{k-1} + sigma sqrt(1 - rho^2) eps_k (sigma^2 = f0/(2 tau))
    and one bridge normal.  Given its endpoints a step integral has mean
    b (X_k + X_{k+1}), b = tau (1 - rho)/(1 + rho), and variance v_c; the
    n_steps residuals add up to one normal of variance n_steps v_c.
    """
    n, dt = plan.n_steps, plan.dt
    if isinstance(plan.kernel, WhiteKernel):
        return np.full(n, math.sqrt(f0 * dt))
    tau = plan.kernel.tau
    sigma = math.sqrt(f0 / (2.0 * tau))
    one_minus_rho = -math.expm1(-dt / tau)
    one_plus_rho = 2.0 - one_minus_rho
    # u[m] = 1 - rho^m; innovation j moves the mean of the n - j + 1 step
    # integrals after it, which sums to innov * (u[n-j] + u[n-j+1])
    u = -np.expm1(-np.arange(n + 1) * (dt / tau))
    innov = sigma * tau * math.sqrt(one_minus_rho / one_plus_rho)
    # v_c = f0 tau (h - 2 tanh(h/2)), h = dt/tau, cancels as h^3/12; its
    # series through h^9 is exact to rounding for h <= 0.1 (plan-enforced)
    h2 = (dt / tau) ** 2
    v_c = f0 * dt * h2 / 12.0 * (
        1.0 - h2 / 10.0 + 17.0 * h2 * h2 / 1680.0 - 31.0 * h2**3 / 30240.0)
    return np.concatenate(([sigma * tau * u[n]], innov * (u[:-1] + u[1:])[::-1],
                           [math.sqrt(n * v_c)]))


def simulate_damping(gamma_j: float, gamma_k: float, f0: float, t: float,
                     plan: SimulationPlan) -> OracleResult:
    """Sample mean and standard error of cos(theta_j - theta_k) at time t,
    plus the analytic exponential prediction.

    Trajectory i takes its normals from row i % BLOCK of the Philox
    substream keyed by (plan.seed, i // BLOCK); its phase noise is that row
    times ``_phase_weights``.
    """
    if not all(map(math.isfinite, (gamma_j, gamma_k, f0, t))):
        raise PlanError("couplings, f0 and t must be finite")
    if min(gamma_j, gamma_k, f0) <= 0 or t < 0:
        raise PlanError("couplings and f0 must be positive, t non-negative")
    if not math.isclose(t, plan.total_time, rel_tol=1e-9, abs_tol=0.0) and t != 0.0:
        raise PlanError(f"t = {t} does not match plan n_steps*dt = {plan.total_time}")

    coupling = math.sqrt(gamma_j) - math.sqrt(gamma_k)
    prediction = math.exp(-(coupling**2) * f0 * plan.kernel.growth_integral(t))
    if t == 0.0 or coupling == 0.0:
        # identical phases cancel exactly; no sampling noise
        return OracleResult(1.0, 0.0, prediction)
    w = _phase_weights(plan, f0)
    n = plan.n_trajectories
    blocks = -(-n // BLOCK)
    workers = min(_WORKERS, blocks)
    cos_vals = np.empty(n, dtype=float)
    errors = []

    def fill(first):
        # numpy releases the GIL while it fills and reduces a block
        try:
            z = np.empty((BLOCK, w.size))
            for b in range(first, blocks, workers):
                if errors:
                    return
                lo, hi = b * BLOCK, min((b + 1) * BLOCK, n)
                rows = z[:hi - lo]
                _block_rng(plan.seed, b).standard_normal(out=rows)
                # einsum reduces each row on its own; a threaded BLAS matmul
                # splits rows by their count and can change the last bits
                cos_vals[lo:hi] = np.cos(
                    coupling * np.einsum("ij,j->i", rows, w))
        except BaseException as exc:
            errors.append(exc)

    # worker k takes blocks k, k + workers, ...; the caller is worker 0
    threads = [threading.Thread(target=fill, args=(k,))
               for k in range(1, workers)]
    for thread in threads:
        thread.start()
    fill(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]

    mean = float(np.mean(cos_vals))
    std_err = float(np.std(cos_vals, ddof=1) / math.sqrt(n))
    return OracleResult(mean, std_err, prediction)
