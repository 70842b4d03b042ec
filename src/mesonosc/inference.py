"""Synthetic two-time decay events and maximum-likelihood bounds on the
interference-decoherence parameter zeta.

The generator and fitter share one forward model: times carry no zeta
information (they are drawn from the product of single-particle survival
envelopes), so the likelihood uses the conditional flavor-pair probability
given the observed times.  This sidesteps absolute detection efficiency.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .constants import CONSTANTS, MesonSpecies
from .oscillation import FlavorState

# 90% quantile of chi^2 with one degree of freedom, for the
# likelihood-ratio interval Delta(-2 logL) <= threshold
_CHI2_90 = 2.706


@dataclass(frozen=True)
class EventRecord:
    t_left: float
    t_right: float
    flavor_left: FlavorState
    flavor_right: FlavorState

    def __post_init__(self):
        if self.t_left < 0 or self.t_right < 0:
            raise ValueError("times must be >= 0")


@dataclass(frozen=True)
class FitResult:
    zeta_hat: float
    ci_low: float
    ci_high: float
    log_likelihood: float
    n_events: int
    converged: bool

    def __post_init__(self):
        if not (self.ci_low <= self.zeta_hat <= self.ci_high):
            raise ValueError("confidence interval does not bracket the estimate")


def default_time_grid(species: MesonSpecies, n: int = 400) -> np.ndarray:
    """Grid of candidate decay times spanning several light-state lifetimes."""
    tau = CONSTANTS.hbar_mev_s / species.gamma_light
    return np.linspace(0.0, 12.0 * tau, n)


def _interference_fraction(
    species: MesonSpecies, t_l: np.ndarray, t_r: np.ndarray
) -> np.ndarray:
    """a = 2 cos(phase) e_int / (e1 + e2), the per-event interference weight.

    The conditional like-flavor probability is (1 - a (1-zeta))/4 and the
    unlike-flavor one (1 + a (1-zeta))/4.
    """
    hbar = CONSTANTS.hbar_mev_s
    g_l = species.gamma_light / hbar
    g_h = species.gamma_heavy / hbar
    e1 = np.exp(-g_l * t_l - g_h * t_r)
    e2 = np.exp(-g_h * t_l - g_l * t_r)
    e_int = np.exp(-0.5 * (g_l + g_h) * (t_l + t_r))
    dm = species.delta_m / hbar
    cos = np.cos(dm * (t_r - t_l))
    # |a| <= 1 by AM-GM; clip away float round-off so log1p(-a) stays defined
    return np.clip(2.0 * cos * e_int / (e1 + e2), -1.0, 1.0)


def generate_events(
    species: MesonSpecies,
    zeta_true: float,
    n: int,
    seed: int,
    time_grid: np.ndarray | None = None,
) -> list[EventRecord]:
    """Draw n synthetic events, deterministic for a fixed seed.

    Times are inverse-CDF sampled on the grid from the survival envelope
    (exp(-G_l t/hbar) + exp(-G_h t/hbar))/2; the flavor pair is then drawn
    from the conditional four-outcome distribution of the zeta model.
    Randomness comes from one counter-based Philox stream; row i of the
    uniform block belongs to event i.
    """
    if not 0.0 <= zeta_true <= 1.0:
        raise ValueError("zeta_true must be in [0, 1]")
    if n < 1:
        raise ValueError("need at least one event")
    if time_grid is None:
        time_grid = default_time_grid(species)
    time_grid = np.asarray(time_grid, dtype=float)
    if time_grid.size == 0:
        raise ValueError("empty time grid")

    hbar = CONSTANTS.hbar_mev_s
    g_l = species.gamma_light / hbar
    g_h = species.gamma_heavy / hbar
    weights = 0.5 * (np.exp(-g_l * time_grid) + np.exp(-g_h * time_grid))
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]

    rng = np.random.Generator(np.random.Philox(key=seed))
    u = rng.random((n, 3))
    t_l = time_grid[np.searchsorted(cdf, u[:, 0], side="left")]
    t_r = time_grid[np.searchsorted(cdf, u[:, 1], side="left")]

    a = _interference_fraction(species, t_l, t_r)
    p_like_each = 0.25 * (1.0 - a * (1.0 - zeta_true))     # PP and AA
    p_unlike_each = 0.25 * (1.0 + a * (1.0 - zeta_true))   # PA and AP
    # outcome order: PP, PA, AP, AA
    cum1 = p_like_each
    cum2 = cum1 + p_unlike_each
    cum3 = cum2 + p_unlike_each
    idx = (
        (u[:, 2] >= cum1).astype(int)
        + (u[:, 2] >= cum2).astype(int)
        + (u[:, 2] >= cum3).astype(int)
    )
    flavors = [
        (FlavorState.PARTICLE, FlavorState.PARTICLE),
        (FlavorState.PARTICLE, FlavorState.ANTIPARTICLE),
        (FlavorState.ANTIPARTICLE, FlavorState.PARTICLE),
        (FlavorState.ANTIPARTICLE, FlavorState.ANTIPARTICLE),
    ]
    return [
        EventRecord(t_l[i], t_r[i], *flavors[idx[i]]) for i in range(n)
    ]


def _event_arrays(events: list[EventRecord]):
    t_l = np.array([e.t_left for e in events])
    t_r = np.array([e.t_right for e in events])
    like = np.array(
        [e.flavor_left is e.flavor_right for e in events], dtype=bool
    )
    return t_l, t_r, like


def fit_zeta(
    events: list[EventRecord],
    species: MesonSpecies,
    cl: float = 0.90,
) -> FitResult:
    """Maximize the conditional flavor-pair log-likelihood over zeta in [0,1].

    The confidence interval is the likelihood-ratio set
    Delta(-2 logL) <= 2.706 (90% CL); a boundary MLE yields a one-sided
    interval.  Raises on a degenerate dataset (no likelihood curvature).
    """
    if len(events) < 100:
        raise ValueError("need at least 100 events")
    if not math.isclose(cl, 0.90):
        raise ValueError("only the 90% CL threshold is tabulated")

    t_l, t_r, like = _event_arrays(events)
    a = _interference_fraction(species, t_l, t_r)
    # conditional prob = (1 + s a (1-zeta))/4 with s = -1 like, +1 unlike
    s = np.where(like, -1.0, 1.0)
    sa = s * a
    if (
        np.all(t_l == t_l[0])
        and np.all(t_r == t_r[0])
        and (np.all(like) or not np.any(like))
    ):
        raise ValueError("degenerate dataset: all identical times and flavors")

    def nll(zeta: float) -> float:
        # arg = -1 (a like-flavor pair at exactly equal times under zeta = 0)
        # legitimately gives a -inf log-likelihood
        arg = sa * (1.0 - zeta)
        with np.errstate(divide="ignore"):
            return -float(np.sum(np.log1p(arg)))

    res = minimize_scalar(nll, bounds=(0.0, 1.0), method="bounded",
                          options={"xatol": 1e-6, "maxiter": 500})
    zeta_hat = float(np.clip(res.x, 0.0, 1.0))
    converged = bool(res.success)
    # snap to the boundary when it is at least as good
    for edge in (0.0, 1.0):
        if nll(edge) <= nll(zeta_hat):
            zeta_hat = edge
    nll_min = nll(zeta_hat)

    def excess(zeta: float) -> float:
        return 2.0 * (nll(zeta) - nll_min) - _CHI2_90

    ci_low, ci_high = 0.0, 1.0
    if excess(0.0) > 0.0 and zeta_hat > 0.0:
        ci_low = brentq(excess, 0.0, zeta_hat, xtol=1e-8)
    if excess(1.0) > 0.0 and zeta_hat < 1.0:
        ci_high = brentq(excess, zeta_hat, 1.0, xtol=1e-8)

    return FitResult(
        zeta_hat=zeta_hat,
        ci_low=ci_low,
        ci_high=ci_high,
        log_likelihood=-nll_min,
        n_events=len(events),
        converged=converged,
    )


def zeta_to_lambda(zeta: float, t_min: float) -> float:
    """Convert zeta to the min-time damping rate via 1 - zeta = e^{-L t_min}."""
    if not 0.0 <= zeta < 1.0:
        raise ValueError("zeta must be in [0, 1)")
    if t_min <= 0:
        raise ValueError("t_min must be positive")
    return -math.log1p(-zeta) / t_min


def lambda_to_zeta(lam: float, t_min: float) -> float:
    if lam < 0 or t_min <= 0:
        raise ValueError("inputs must be positive")
    return -math.expm1(-lam * t_min)


def lambda_ratio(lam: float, species: MesonSpecies) -> float:
    """Damping rate divided by the light-eigenstate decay rate (dimensionless)."""
    if lam < 0:
        raise ValueError("rate must be >= 0")
    return lam * CONSTANTS.hbar_mev_s / species.gamma_light


_FLAVOR_CODE = {FlavorState.PARTICLE: "P", FlavorState.ANTIPARTICLE: "A"}
_CODE_FLAVOR = {v: k for k, v in _FLAVOR_CODE.items()}


def events_to_csv(events: list[EventRecord]) -> str:
    lines = ["t_left_s,t_right_s,flavor_left,flavor_right"]
    for e in events:
        lines.append(
            f"{e.t_left:.12e},{e.t_right:.12e},"
            f"{_FLAVOR_CODE[e.flavor_left]},{_FLAVOR_CODE[e.flavor_right]}"
        )
    return "\n".join(lines) + "\n"


def events_from_csv(text: str) -> list[EventRecord]:
    reader = io.StringIO(text)
    header = reader.readline().strip()
    if header != "t_left_s,t_right_s,flavor_left,flavor_right":
        raise ValueError("bad event file header")
    events = []
    for line in reader:
        line = line.strip()
        if not line:
            continue
        tl, tr, fl, fr = line.split(",")
        try:
            events.append(
                EventRecord(float(tl), float(tr), _CODE_FLAVOR[fl], _CODE_FLAVOR[fr])
            )
        except KeyError as exc:
            raise ValueError(f"bad flavor code {exc}") from None
    return events
