"""Synthetic two-time decay events and maximum-likelihood bounds on the
interference-decoherence parameter zeta.

The generator and fitter share one forward model: times carry no zeta
information (they are drawn from the product of single-particle survival
envelopes), so the likelihood uses the conditional flavor-pair probability
given the observed times.  This sidesteps absolute detection efficiency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .constants import CONSTANTS, MesonSpecies
from .entangle import _interference_fraction
from .oracle import _block_rng

# 90% quantile of chi^2 with one degree of freedom, for the
# likelihood-ratio interval Delta(-2 logL) <= threshold
_CHI2_90 = 2.706
# root tolerance in x = 1 - zeta and step cap of the fit's Newton solver;
# bisection alone narrows [0, 1] below the tolerance in 34 steps
_XTOL = 1e-10
_MAX_STEPS = 100

_TIME_GRID_POINTS = 400  # candidate decay times of the event generator

_HEADER = "t_left_s,t_right_s,flavor_left,flavor_right"
_COLUMNS = ("t_left", "t_right", "anti_left", "anti_right")


@dataclass(frozen=True, eq=False)
class EventTable:
    """Events as read-only columns: float64 decay times in seconds and a
    bool per side that is True where that side decayed as the
    anti-particle."""

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

    def __len__(self) -> int:
        return self.t_left.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventTable):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name))
                   for name in _COLUMNS)

    def __repr__(self) -> str:
        return f"EventTable(n={len(self)})"


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


def default_time_grid(species: MesonSpecies) -> np.ndarray:
    """The event generator's candidate decay times: 400 equally spaced
    times from 0 to twelve light-state lifetimes."""
    tau = CONSTANTS.hbar_mev_s / species.gamma_light
    return np.linspace(0.0, 12.0 * tau, _TIME_GRID_POINTS)


def generate_events(
    species: MesonSpecies, zeta_true: float, n: int, seed: int
) -> EventTable:
    """Draw n synthetic events, deterministic for a fixed seed.

    Times are inverse-CDF sampled on `default_time_grid` from the survival
    envelope (exp(-G_l t/hbar) + exp(-G_h t/hbar))/2; the flavor pair is
    then drawn from the conditional four-outcome distribution of the zeta
    model.  Randomness comes from the oracle's Philox block 0 for this
    seed; row i of the (n, 3) uniforms belongs to event i.  The seed is one
    64-bit word of the Philox key: a seed outside [0, 2**64) raises
    OverflowError.
    """
    if not 0 <= seed < 2**64:
        raise OverflowError("seed must be in [0, 2**64)")
    if not 0.0 <= zeta_true <= 1.0:
        raise ValueError("zeta_true must be in [0, 1]")
    if n < 1:
        raise ValueError("need at least one event")
    time_grid = default_time_grid(species)
    g_l, g_h = species.rate_light(), species.rate_heavy()
    weights = 0.5 * (np.exp(-g_l * time_grid) + np.exp(-g_h * time_grid))
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]

    u = _block_rng(seed, 0).random((n, 3))
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


def fit_zeta(events: EventTable, species: MesonSpecies) -> FitResult:
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
    if len(events) < 100:
        raise ValueError("need at least 100 events")

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
    """Damping rate over the light state's decay rate; OverflowError if inf."""
    if lam < 0:
        raise ValueError("rate must be >= 0")
    ratio = lam * CONSTANTS.hbar_mev_s / species.gamma_light
    if not math.isfinite(ratio):
        raise OverflowError(f"{lam:g}/s over {species.name}'s width overflows")
    return ratio


# the end of a row after its right time, indexed by 2 anti_left + anti_right
_PAIR_CELLS = np.array([",P,P\n", ",P,A\n", ",A,P\n", ",A,A\n"], dtype=object)


def events_to_csv(events: EventTable) -> str:
    """The event file: a header, then one row per event with both times as
    %.12e and both flavors as P or A.

    Each distinct time is formatted once, and rows are joined from shared
    pieces (left time and comma, right time, flavor pair and newline).
    Generated events draw their times from a grid (400 points by default),
    so a file of any length holds a few hundred distinct times.
    """
    n = len(events)
    times = np.concatenate((events.t_left, events.t_right))
    # unique by bit pattern, so -0.0 keeps its sign
    bits, inverse = np.unique(times.view(np.int64), return_inverse=True)
    cells = np.array([f"{x:.12e}" for x in bits.view(np.float64).tolist()],
                     dtype=object)
    pieces = np.empty(3 * n, dtype=object)
    pieces[0::3] = (cells + ",")[inverse[:n]]
    pieces[1::3] = cells[inverse[n:]]
    pieces[2::3] = _PAIR_CELLS[2 * events.anti_left + events.anti_right]
    return _HEADER + "\n" + "".join(pieces.tolist())


# A time cell of at most _KEY_BYTES bytes is keyed by those bytes, read as
# little-endian uint64 words that end where the cell ends; the bytes of a
# word that lie before the cell are set to 0xFF.
_KEY_BYTES = 24
# odd multipliers that hash a key's words; the top _SLOT_BITS bits of the
# hash pick a slot of the table that pairs equal keys
_KEY_MIX = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F,
                     0x165667B19E3779F9], dtype=np.uint64)
_SLOT_BITS = 16


def _first_equal_key(words: list[np.ndarray]) -> np.ndarray:
    """For each key, the index of a key with the same words that maps to
    itself.

    A key is one entry of each array in words (uint64, at most three).
    Keys that share a hash slot are compared word by word, so a collision
    leaves a key mapping to itself, never to a different key.
    """
    mixed = words[0] * _KEY_MIX[0]
    for word, mix in zip(words[1:], _KEY_MIX[1:]):
        mixed ^= word * mix
    mixed >>= np.uint64(64 - _SLOT_BITS)
    slot = mixed.view(np.int64)
    index = np.arange(slot.size)
    table = np.empty(1 << _SLOT_BITS, np.intp)
    table[slot] = index
    other = table[slot]
    same = words[0] == words[0][other]
    for word in words[1:]:
        same &= word == word[other]
    return np.where(same, other, index)


def _uniform_columns(text: str, offset: int) -> tuple | None:
    """The event columns of text, an ASCII file whose header ends at
    text[offset - 1]; None unless every row has one layout and parses.

    That layout is two time cells of one width w, 1 <= w <= _KEY_BYTES,
    and two one-byte flavor codes P or A: w + 1 + w + 4 bytes and a
    newline, with w set by the first comma.  The separators and codes are
    columns of the (rows, width) view of the body, and each time cell is
    keyed by strided words.  Equal keys are equal cells, so checking that
    the distinct cells hold no comma or newline checks them all.
    """
    raw = text.encode("ascii")
    if not raw.endswith(b"\n"):
        raw += b"\n"  # every row, the last too, ends with a newline
    w = raw.find(b",", offset) - offset
    width = 2 * w + 6
    n, rest = divmod(len(raw) - offset, width)
    if not 0 < w <= _KEY_BYTES or rest or n == 0:
        return None
    body = np.frombuffer(raw, np.uint8, n * width, offset)
    rows = body.reshape(n, width)
    code = rows[:, 2 * w + 2::2]
    if not ((rows[:, w] == ord(",")).all()
            and (rows[:, 2 * w + 1:-1:2] == ord(",")).all()
            and (rows[:, -1] == ord("\n")).all()
            and ((code == ord("P")) | (code == ord("A"))).all()):
        return None
    # word k of a cell ends 8 k bytes before the cell does; the left and
    # right cells of a row lie w + 1 bytes apart
    words = []
    for k in range(-(-w // 8)):
        view = np.ndarray((2, n), "<u8", raw, offset + w - 8 * (k + 1),
                          (w + 1, width))
        pad = (1 << 8 * max(0, 8 * (k + 1) - w)) - 1
        words.append((view | np.uint64(pad)).ravel())
    source = _first_equal_key(words)
    del words
    parsed = source == np.arange(2 * n)
    side, row = np.divmod(np.flatnonzero(parsed), n)
    # the bytes of each distinct cell and the comma after it
    cells = np.ndarray((2, n, w + 1), np.uint8, raw, offset,
                       (w + 1, width, 1))
    joined = cells[side, row].tobytes()
    if joined.count(b",") != side.size or b"\n" in joined:
        return None
    strings = joined.decode("ascii").split(",")
    del strings[-1]  # every cell ends with a comma
    try:
        values = np.array(strings, dtype=float)
    except ValueError:
        return None
    times = values[(np.cumsum(parsed) - 1)[source]]
    anti = code == ord("A")
    return times[:n], times[n:], anti[:, 0], anti[:, 1]


def events_from_csv(text: str) -> EventTable:
    """Parse an event file; blank lines are skipped.

    Raises ValueError on a bad header, a row without exactly four columns,
    a flavor code other than P or A, and a time that does not parse or is
    non-finite or negative.  Each line is stripped as ``str.strip`` strips
    it, and times parse as ``float()`` does, correctly rounded; the first
    time that does not parse, left column before right, is named.

    Rows are read by stride when the text is ASCII and every row has the
    layout events_to_csv writes: two time cells of one width (at most 24
    bytes) and two one-byte codes; float() reads or rejects whitespace
    that starts a row, in its left cell.  Any other file, or one that does
    not parse so, is parsed line by line, and only that parse raises.
    """
    cut = text.find("\n")
    header = text[:cut] if cut >= 0 else text
    if header.strip() != _HEADER:
        raise ValueError("bad event file header")
    if text.isascii():
        columns = _uniform_columns(text, len(header) + 1)
        if columns is not None:
            return EventTable(*columns)
    lines = text[len(header) + 1:].split("\n")
    rows = [line for line in map(str.strip, lines) if line]
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
