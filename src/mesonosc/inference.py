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

import numpy as np

from .constants import CONSTANTS, MesonSpecies
from .entangle import _zeta_terms
from .oscillation import FlavorState

# 90% quantile of chi^2 with one degree of freedom, for the
# likelihood-ratio interval Delta(-2 logL) <= threshold
_CHI2_90 = 2.706
# root tolerance in x = 1 - zeta and step cap of the fit's Newton solver;
# bisection alone narrows [0, 1] below the tolerance in 34 steps
_XTOL = 1e-10
_MAX_STEPS = 100

_HEADER = "t_left_s,t_right_s,flavor_left,flavor_right"
# indexed by the anti-particle flag
_FLAVOR = (FlavorState.PARTICLE, FlavorState.ANTIPARTICLE)
_COLUMNS = ("t_left", "t_right", "anti_left", "anti_right")


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
    envelope, interference = _zeta_terms(species, t_l, t_r)
    # |a| <= 1 by AM-GM; clip away float round-off so log1p(-a) stays defined
    return np.clip(interference / envelope, -1.0, 1.0)


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
    uniform block belongs to event i.  The seed is one 64-bit word of the
    Philox key, as in the oracle: a seed outside [0, 2**64) raises
    OverflowError.
    """
    if not 0 <= seed < 2**64:
        raise OverflowError("seed must be in [0, 2**64)")
    if not 0.0 <= zeta_true <= 1.0:
        raise ValueError("zeta_true must be in [0, 1]")
    if n < 1:
        raise ValueError("need at least one event")
    if time_grid is None:
        time_grid = default_time_grid(species)
    time_grid = np.asarray(time_grid, dtype=float)
    if time_grid.size == 0:
        raise ValueError("empty time grid")

    g_l, g_h = species.rate_light(), species.rate_heavy()
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


def _newton_root(fun, neg: float, pos: float, x: float) -> tuple[float, bool]:
    """A root of fun between neg and pos, where fun(neg) < 0 < fun(pos)
    (neg may lie on either side of pos), and whether it was located to
    _XTOL within _MAX_STEPS steps.

    fun(x) returns (value, slope).  Newton steps start at x; every value
    narrows the bracket, and a step that would leave it, or that starts
    from an infinite value or slope, is replaced by bisection.
    """
    lo, hi = sorted((neg, pos))
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    for _ in range(_MAX_STEPS):
        value, slope = fun(x)
        if value == 0.0:
            return x, True
        if value < 0.0:
            neg = x
        elif value > 0.0:
            pos = x
        lo, hi = sorted((neg, pos))
        finite = math.isfinite(value) and math.isfinite(slope) and slope != 0.0
        new = x - value / slope if finite else math.nan
        # a step that rounds away leaves new == x, an end of the bracket
        if new != x and not lo < new < hi:
            new = 0.5 * (lo + hi)
        if abs(new - x) <= _XTOL:
            return new, True
        x = new
    return x, False


def fit_zeta(
    events: EventTable | Iterable[EventRecord],
    species: MesonSpecies,
    cl: float = 0.90,
) -> FitResult:
    """Maximize the conditional flavor-pair log-likelihood over zeta in [0,1].

    The confidence interval is the likelihood-ratio set
    Delta(-2 logL) <= 2.706 (90% CL); a boundary MLE yields a one-sided
    interval.  Raises on a degenerate dataset (no likelihood curvature).

    In x = 1 - zeta the negative log-likelihood -sum log1p(sa x) is convex
    on [0, 1]; with r = sa/(1 + sa x) its slope is -sum r and its
    curvature sum r^2.  The slope's signs at x = 0 and x = 1 decide a
    boundary estimate exactly; otherwise the estimate is the slope's root,
    and each interval edge the root of the likelihood ratio minus 2.706,
    all found by safeguarded Newton steps.
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

    def nll(x: float) -> float:
        return -float(np.log1p(sa * x).sum())

    def gradient(x: float) -> tuple[float, float]:
        r = sa / (1.0 + sa * x)
        return -float(r.sum()), float(r @ r)

    def excess(x: float) -> tuple[float, float]:
        r = sa / (1.0 + sa * x)
        return 2.0 * (nll(x) - nll_min) - _CHI2_90, -2.0 * float(r.sum())

    # sa = -1 (a like-flavor pair at exactly equal times) legitimately makes
    # the negative log-likelihood and its slope +inf at x = 1 (zeta = 0)
    with np.errstate(divide="ignore"):
        slope_0, curvature_0 = gradient(0.0)
        converged = True
        if slope_0 >= 0.0:
            x_hat = 0.0
        elif gradient(1.0)[0] <= 0.0:
            x_hat = 1.0
        else:
            x_hat, converged = _newton_root(gradient, 0.0, 1.0,
                                            -slope_0 / curvature_0)
        nll_min = nll(x_hat)
        curvature = gradient(x_hat)[1]
        # x_low and x_high are the edges of the interval in x, where the
        # likelihood ratio reaches the threshold or the range ends; each
        # search starts at the quadratic approximation's edge
        edges = [0.0, 1.0]
        for i, end in enumerate(edges):
            if x_hat != end and excess(end)[0] > 0.0:
                half_width = math.sqrt(_CHI2_90 / curvature)
                edges[i], ok = _newton_root(
                    excess, x_hat, end,
                    x_hat + math.copysign(half_width, end - x_hat))
                converged &= ok
        x_low, x_high = edges

    return FitResult(
        zeta_hat=1.0 - x_hat,
        ci_low=1.0 - x_high,
        ci_high=1.0 - x_low,
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


# the characters other than "\n" that str.strip removes from an ASCII line
_ASCII_WHITESPACE = "\t\x0b\x0c\r\x1c\x1d\x1e\x1f "
# the separators of a row, in order
_ROW_SEPARATORS = np.frombuffer(b",,,\n", np.uint8)
# A time cell of at most _KEY_BYTES bytes is keyed by those bytes, taken
# from the window of _KEY_BYTES bytes that ends where the cell ends and
# masked by _KEY_MASKS[n], which keeps the last n bytes of a window.
_KEY_BYTES = 24
_KEY_MASKS = np.frombuffer(
    b"".join(bytes(_KEY_BYTES - n) + b"\xff" * n
             for n in range(_KEY_BYTES + 1)), f"V{_KEY_BYTES}")
# odd multipliers that hash a key's words; the top _SLOT_BITS bits of the
# hash pick a slot of the table that pairs equal keys
_KEY_MIX = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F,
                     0x165667B19E3779F9], dtype=np.uint64)
_SLOT_BITS = 16


def _row_bounds(buf: np.ndarray, offset: int) -> np.ndarray:
    """Positions in buf of each non-blank line's start, its three commas
    and its closing newline, one row per line.

    buf[offset - 1] is the header's newline, and every line ends with a
    newline.  Raises ValueError unless each non-blank line holds exactly
    three commas.
    """
    tail = buf[offset - 1:]
    is_sep = tail == ord(",")
    is_sep |= tail == ord("\n")
    sep = np.flatnonzero(is_sep) + (offset - 1)
    del is_sep
    kind = buf[sep]
    # skip the header's newline (the first separator) and each newline
    # right after a newline, which ends a blank line
    rows = np.flatnonzero((kind != ord("\n")) | (buf[sep - 1] != ord("\n")))[1:]
    if rows.size % 4 or np.any(kind[rows].reshape(-1, 4) != _ROW_SEPARATORS):
        raise ValueError("event rows need exactly four columns")
    bounds = np.empty((rows.size // 4, 5), np.intp)
    # the separator before a row's first comma is the newline that ends
    # the line above
    bounds[:, 0] = sep[rows[0::4] - 1] + 1
    bounds[:, 1:] = sep[rows].reshape(-1, 4)
    return bounds


def _first_equal_cell(buf: np.ndarray, end: np.ndarray,
                      length: np.ndarray) -> np.ndarray:
    """For each cell buf[end - length:end], a cell with the same bytes
    that maps to itself.

    A cell longer than a key maps to itself.  Cells that share a hash slot
    are compared key against key, so a collision leaves a cell mapping to
    itself, never to a different cell.  Every window lies inside buf,
    because the header line is longer than a key.
    """
    count = end.size
    windows = np.ndarray((buf.size - _KEY_BYTES + 1,), f"V{_KEY_BYTES}",
                         buf, strides=(1,))
    keys = windows[end - _KEY_BYTES]
    words = keys.view(np.uint64).reshape(count, 3)
    words &= _KEY_MASKS[np.minimum(length, _KEY_BYTES)].view(
        np.uint64).reshape(count, 3)
    mixed = length.astype(np.uint64)
    for word, mix in zip(words.T, _KEY_MIX):
        mixed ^= word * mix
    mixed >>= np.uint64(64 - _SLOT_BITS)
    slot = mixed.view(np.int64)
    index = np.arange(count)
    table = np.empty(1 << _SLOT_BITS, np.intp)
    table[slot] = index
    other = table[slot]
    same = (length <= _KEY_BYTES) & (length == length[other])
    for word in words.T:
        same &= word == word[other]
    return np.where(same, other, index)


def _parse_cells(buf: np.ndarray, end: np.ndarray,
                 length: np.ndarray) -> np.ndarray:
    """``float()`` of each cell ``buf[end - length:end]``, as one array,
    with equal cells parsed once.

    The cells are the time cells of the rows in file order, each row's
    left cell before its right one, and a comma follows each.  If a cell
    does not parse, the first such cell of the left column, or else of
    the right one, raises float()'s error.
    """
    source = _first_equal_cell(buf, end, length)
    parsed = source == np.arange(source.size)
    which = (np.cumsum(parsed) - 1)[source]
    # keep the bytes of each cell parsed and the comma after it, and split
    # them as text in one call; runs of bytes dropped and kept alternate
    last = end[parsed]
    edges = np.empty(2 * last.size + 2, np.intp)
    edges[0], edges[-1] = 0, buf.size
    edges[1:-1:2] = last - length[parsed]
    edges[2:-1:2] = last + 1
    kept = np.zeros(edges.size - 1, bool)
    kept[1::2] = True
    keep = np.repeat(kept, np.diff(edges))
    del last, edges, kept  # free each temporary before the next is made
    text = buf[keep].tobytes().decode("utf-8", "surrogatepass")
    del keep
    cells = text.split(",")
    del text, cells[-1]
    try:
        values = np.array(cells, dtype=float)
    except ValueError:
        # the first cell that fails, left column before right, raises
        for i in which.reshape(-1, 2).T.ravel().tolist():
            float(cells[i])
        raise
    return values[which]


def events_from_csv(text: str) -> EventTable:
    """Parse an event file; blank lines are skipped.

    Raises ValueError on a bad header, a row without exactly four columns,
    a flavor code other than P or A, and a time that does not parse or is
    non-finite or negative.  Each line is stripped as ``str.strip`` strips
    it, and times parse as ``float()`` does, correctly rounded; the first
    time that does not parse, left column before right, is named.

    The file is read as bytes: one pass finds the commas and newlines and
    checks every row, and the distinct time cells are gathered and
    converted in one call, each once.
    """
    cut = text.find("\n")
    header = text[:cut] if cut >= 0 else text
    if header.strip() != _HEADER:
        raise ValueError("bad event file header")
    if text.isascii() and not any(c in text for c in _ASCII_WHITESPACE):
        if not text.endswith("\n"):
            text += "\n"  # every line, the last too, ends with a newline
        raw = text.encode("ascii")
        offset = len(header) + 1
    else:
        # str.strip also removes Unicode whitespace; strip lines as text
        body = text[len(header) + 1:]
        body = "\n".join(map(str.strip, body.split("\n")))
        raw = f"{_HEADER}\n{body}\n".encode("utf-8", "surrogatepass")
        offset = len(_HEADER) + 1
    buf = np.frombuffer(raw, np.uint8)
    bounds = _row_bounds(buf, offset)
    code_at = bounds[:, 2:4] + 1
    code_end = bounds[:, 3:]
    code = buf[code_at]
    good = ((code_end - code_at == 1)
            & ((code == ord("P")) | (code == ord("A"))))
    if not good.all():
        bad = {raw[s:e].decode("utf-8", "surrogatepass") for s, e in
               zip(code_at[~good].tolist(), code_end[~good].tolist())}
        raise ValueError(f"bad flavor code {min(bad)!r}")
    # the two time cells of each row, in file order
    end = bounds[:, 1:3].ravel()
    length = end - (bounds[:, :2] + (0, 1)).ravel()
    times = _parse_cells(buf, end, length)
    anti = code == ord("A")
    return EventTable(times[0::2], times[1::2], anti[:, 0], anti[:, 1])
