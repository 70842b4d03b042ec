"""Synthetic two-time decay events and maximum-likelihood bounds on the
interference-decoherence parameter zeta.

The generator and fitter share one forward model: times carry no zeta
information (they are drawn from the product of single-particle survival
envelopes), so the likelihood uses the conditional flavor-pair probability
given the observed times.  This sidesteps absolute detection efficiency.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .constants import CONSTANTS, MesonSpecies
from .oscillation import FlavorState

# 90% quantile of chi^2 with one degree of freedom, for the
# likelihood-ratio interval Delta(-2 logL) <= threshold
_CHI2_90 = 2.706

_HEADER = "t_left_s,t_right_s,flavor_left,flavor_right"
# indexed by the anti-particle flag
_FLAVOR = (FlavorState.PARTICLE, FlavorState.ANTIPARTICLE)
_COLUMNS = ("t_left", "t_right", "anti_left", "anti_right")


# scipy.optimize adds about 0.3 s to the package import and only the fit
# uses it, so these two stand-ins import it on their first call
def minimize_scalar(*args, **kwargs):
    from scipy.optimize import minimize_scalar
    return minimize_scalar(*args, **kwargs)


def brentq(*args, **kwargs):
    from scipy.optimize import brentq
    return brentq(*args, **kwargs)


@dataclass(frozen=True)
class EventRecord:
    """One event: the two decay times in seconds and the two flavors."""

    t_left: float
    t_right: float
    flavor_left: FlavorState
    flavor_right: FlavorState

    def __post_init__(self):
        if not (math.isfinite(self.t_left) and math.isfinite(self.t_right)):
            raise ValueError("non-finite event time")
        if self.t_left < 0 or self.t_right < 0:
            raise ValueError("times must be >= 0")


@dataclass(frozen=True, eq=False)
class EventTable:
    """Events as read-only columns: float64 decay times in seconds and a
    bool per side that is True where that side decayed as the
    anti-particle.  ``table[i]`` and iteration give EventRecord rows."""

    t_left: np.ndarray
    t_right: np.ndarray
    anti_left: np.ndarray
    anti_right: np.ndarray

    def __post_init__(self):
        cols = [np.array(getattr(self, name), dtype=dtype)
                for name, dtype in zip(_COLUMNS, (float, float, bool, bool))]
        if cols[0].ndim != 1 or any(c.shape != cols[0].shape for c in cols):
            raise ValueError("event columns must be 1-d and of equal length")
        for name, col in zip(_COLUMNS, cols):
            col.flags.writeable = False
            object.__setattr__(self, name, col)
        for t in cols[:2]:
            if not np.isfinite(t).all():
                raise ValueError("non-finite event time")
            if t.size and t.min() < 0:
                raise ValueError("times must be >= 0")

    @classmethod
    def from_records(cls, records: Iterable[EventRecord]) -> EventTable:
        records = list(records)
        return cls(
            [e.t_left for e in records],
            [e.t_right for e in records],
            [e.flavor_left is FlavorState.ANTIPARTICLE for e in records],
            [e.flavor_right is FlavorState.ANTIPARTICLE for e in records],
        )

    def __len__(self) -> int:
        return self.t_left.size

    def __getitem__(self, i: int) -> EventRecord:
        i = operator.index(i)
        return EventRecord(
            float(self.t_left[i]), float(self.t_right[i]),
            _FLAVOR[bool(self.anti_left[i])], _FLAVOR[bool(self.anti_right[i])],
        )

    def __iter__(self):
        rows = zip(*(getattr(self, name).tolist() for name in _COLUMNS))
        return (EventRecord(tl, tr, _FLAVOR[al], _FLAVOR[ar])
                for tl, tr, al, ar in rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventTable):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name))
                   for name in _COLUMNS)

    def __repr__(self) -> str:
        return f"EventTable(n={len(self)})"


def _table(events: EventTable | Iterable[EventRecord]) -> EventTable:
    if isinstance(events, EventTable):
        return events
    return EventTable.from_records(events)


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
) -> EventTable:
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
    return EventTable(t_l, t_r, idx >= 2, idx % 2 == 1)


def fit_zeta(
    events: EventTable | Iterable[EventRecord],
    species: MesonSpecies,
    cl: float = 0.90,
) -> FitResult:
    """Maximize the conditional flavor-pair log-likelihood over zeta in [0,1].

    The confidence interval is the likelihood-ratio set
    Delta(-2 logL) <= 2.706 (90% CL); a boundary MLE yields a one-sided
    interval.  Raises on a degenerate dataset (no likelihood curvature).
    """
    events = _table(events)
    if len(events) < 100:
        raise ValueError("need at least 100 events")
    if not math.isclose(cl, 0.90):
        raise ValueError("only the 90% CL threshold is tabulated")

    t_l, t_r = events.t_left, events.t_right
    like = events.anti_left == events.anti_right
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


# flavor pair suffix of a row, indexed by 2 anti_left + anti_right
_PAIR_CELLS = (",P,P", ",P,A", ",A,P", ",A,A")


def events_to_csv(events: EventTable | Iterable[EventRecord]) -> str:
    """The event file: a header, then one row per event with both times as
    %.12e and both flavors as P or A.

    Each distinct time is formatted once.  Generated events draw their
    times from a grid (400 points by default), so a file of any length
    holds a few hundred distinct times.
    """
    events = _table(events)
    n = len(events)
    times = np.concatenate((events.t_left, events.t_right))
    # unique by bit pattern, so -0.0 keeps its sign
    bits, inverse = np.unique(times.view(np.int64), return_inverse=True)
    cells = [f"{x:.12e}" for x in bits.view(np.float64).tolist()]
    left_cells = [cell + "," for cell in cells]
    index = inverse.tolist()
    pairs = (2 * events.anti_left + events.anti_right).tolist()
    lines = [_HEADER]
    lines += map("".join, zip(map(left_cells.__getitem__, index[:n]),
                              map(cells.__getitem__, index[n:]),
                              map(_PAIR_CELLS.__getitem__, pairs)))
    lines.append("")
    return "\n".join(lines)


def events_from_csv(text: str) -> EventTable:
    """Parse an event file; blank lines are skipped.

    Raises ValueError on a bad header, a row without exactly four columns,
    a time that does not parse or is non-finite or negative, and a flavor
    code other than P or A.  Times parse as ``float()`` does, correctly
    rounded.
    """
    header, _, body = text.partition("\n")
    if header.strip() != _HEADER:
        raise ValueError("bad event file header")
    rows = [line for line in map(str.strip, body.split("\n")) if line]
    if set(map(str.count, rows, repeat(","))) - {3}:
        raise ValueError("event rows need exactly four columns")
    cells = ",".join(rows).split(",") if rows else []
    codes = {*cells[2::4], *cells[3::4]}
    if not codes <= {"P", "A"}:
        raise ValueError(f"bad flavor code {min(codes - {'P', 'A'})!r}")
    return EventTable(
        np.array(cells[0::4], dtype=float),
        np.array(cells[1::4], dtype=float),
        [code == "A" for code in cells[2::4]],
        [code == "A" for code in cells[3::4]],
    )
