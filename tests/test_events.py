"""The columnar event table: generation, CSV write and parse, fit input."""

import hashlib
from itertools import repeat

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mesonosc as m
from mesonosc import inference

REG = m.default_registry()
K0 = REG.get_species("K0")
HEADER = "t_left_s,t_right_s,flavor_left,flavor_right"
COLUMNS = ("t_left", "t_right", "anti_left", "anti_right")

# sha256 of events_to_csv(generate_events(sp, 0.27, 20000, 987654321)),
# recorded while events were still a list of row records written one
# f-string at a time: the seed-to-bytes map must not change
GOLDEN_SHA256 = {
    "K0": "feee0bcd1f5deacd658e2723f3aa631852c7ef25475e9abaa75f91e340789165",
    "B0": "e35061c179dfe34f83a110eac2aec08ae3305f68b0403de8312f98d2753c2fef",
    "Bs": "b47b52728a1ffc4542f54aa43f53cc85967429896113c7b58734d3c931842bcb",
    "D0": "b04dd309d87256f430610f564e337cc0b14e4b45c3efcef68468d1dff5c41942",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_generated_event_file_bytes_are_pinned(name):
    events = m.generate_events(REG.get_species(name), 0.27, 20000, 987654321)
    text = m.events_to_csv(events)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256[name]


BUCKETS = inference._GUIDE_BUCKETS

# cdf values on a bucket edge b/M, anywhere in [0, 1], or next to 0 or 1
CDF_VALUES = st.one_of(
    st.integers(0, BUCKETS).map(lambda b: b / BUCKETS),
    st.floats(0.0, 1.0),
    st.sampled_from([5e-324, 1.0 - 2**-53]),
)
# several values in one bucket make it crowded
CROWDS = st.integers(0, BUCKETS - 1).flatmap(lambda b: st.lists(
    st.floats(b / BUCKETS, (b + 1) / BUCKETS), min_size=2, max_size=6))
WEIGHTS = st.one_of(st.sampled_from([0.0, 5e-324, 1.0]),
                    st.floats(0.0, 1e300))


@st.composite
def cdfs(draw):
    """A non-decreasing cdf whose last value is 1.0: sorted values, or the
    normalized cumulative sum of weights that hold zeros and repeats and
    then decay until they underflow to 0, so the cdf repeats 1.0."""
    if draw(st.booleans()):
        values = draw(st.lists(CDF_VALUES, max_size=40))
        for crowd in draw(st.lists(CROWDS, max_size=3)):
            values += crowd
        return np.array(sorted(values) + [1.0])
    decay = np.exp(-draw(st.floats(0.0, 2000.0))
                   * np.linspace(0.0, 1.0, draw(st.integers(1, 400))))
    cdf = np.cumsum(np.concatenate([draw(st.lists(WEIGHTS, max_size=20)),
                                    decay]))
    return cdf / cdf[-1]


def probes(cdf: np.ndarray) -> np.ndarray:
    """Every bucket edge and every cdf value with its 1-ulp neighbours,
    and uniform draws, all in [0, 1)."""
    points = np.concatenate([np.arange(BUCKETS) / BUCKETS, cdf])
    u = np.concatenate([points, np.nextafter(points, 0.0),
                        np.nextafter(points, 1.0),
                        np.random.default_rng(0).random(2000)])
    return u[u < 1.0]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cdfs())
@example(np.array([0.5, 0.5, 1.0]))  # a repeated value on a bucket edge
@example(np.array([0.1, 0.1 + 1e-9, 0.1 + 2e-9, 1.0]))  # a crowded bucket
@example(np.array([0.0, 0.0, 1.0, 1.0, 1.0]))  # zero weights, a flat tail
def test_guide_lookup_equals_searchsorted(cdf):
    u = probes(cdf)
    assert np.array_equal(inference._cdf_index(cdf, u),
                          np.searchsorted(cdf, u, side="left"))


def row_writer(t_left, t_right, anti_left, anti_right) -> str:
    """The row-at-a-time writer that the table replaced."""
    code = {False: "P", True: "A"}
    lines = [HEADER]
    for tl, tr, al, ar in zip(t_left, t_right, anti_left, anti_right):
        lines.append(f"{tl:.12e},{tr:.12e},{code[al]},{code[ar]}")
    return "\n".join(lines) + "\n"


# a few fixed times make repeated values, which the writer formats once
TIMES = st.one_of(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 5e-324, 1e-10, 2.5e-10, 1.7976931348623157e308]),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(TIMES, TIMES, st.booleans(), st.booleans()),
                max_size=40))
@example([(-0.0, 0.0, True, False), (0.0, -0.0, False, True)])
def test_csv_matches_row_writer_and_parses_like_float(rows):
    cols = [list(c) for c in zip(*rows)] or [[], [], [], []]
    text = m.events_to_csv(m.EventTable(*cols))
    assert text == row_writer(*cols)
    back = m.events_from_csv(text)
    for got, written in ((back.t_left, cols[0]), (back.t_right, cols[1])):
        expect = np.array([float(f"{x:.12e}") for x in written], dtype=float)
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.int64), expect.view(np.int64))
    assert back.anti_left.tolist() == cols[2]
    assert back.anti_right.tolist() == cols[3]


# times that survive %.12e unchanged: 3-digit exponents, signed zeros,
# subnormals, and any float once rounded to 13 significant digits
EXACT_TIMES = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, 1e150, 5e-324, 2.5e-310,
                     1.797693134862e308]),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(
        lambda x: float(f"{x:.12e}")),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(EXACT_TIMES, EXACT_TIMES, st.booleans(),
                          st.booleans()), max_size=40))
@example([(1e-300, 1e150, False, True), (-0.0, 0.0, True, True),
          (1e150, -0.0, False, False)])
def test_csv_round_trip_is_bitwise(rows):
    cols = [list(c) for c in zip(*rows)] or [[], [], [], []]
    table = m.EventTable(*cols)
    back = m.events_from_csv(m.events_to_csv(table))
    for name in COLUMNS:
        got, want = getattr(back, name), getattr(table, name)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_table_rows_behave_like_records():
    table = m.generate_events(K0, 0.3, 300, seed=4)
    cols = [getattr(table, name) for name in COLUMNS]
    assert len(table) == 300
    assert all(c.shape == (300,) for c in cols)
    assert [c.dtype for c in cols] == [np.float64, np.float64, bool, bool]
    assert m.EventTable(*cols) == table
    assert m.generate_events(K0, 0.3, 300, seed=5) != table
    with pytest.raises(ValueError):
        table.t_left[0] = 1.0  # columns are read-only
    with pytest.raises(TypeError):
        table[0]  # events are columns, not rows


def test_table_validation():
    with pytest.raises(ValueError, match="non-finite"):
        m.EventTable([1e-10, np.nan], [0.0, 0.0], [0, 0], [0, 0])
    with pytest.raises(ValueError, match="non-finite"):
        m.EventTable([1e-10], [np.inf], [0], [0])
    with pytest.raises(ValueError, match=">= 0"):
        m.EventTable([1e-10], [-1e-10], [0], [0])
    with pytest.raises(ValueError, match="equal length"):
        m.EventTable([1e-10, 2e-10], [0.0], [0, 0], [0, 0])


@pytest.mark.parametrize("row, message", [
    ("nan,1e-10,P,A", "non-finite"),
    ("1e-10,inf,P,A", "non-finite"),
    ("-inf,1e-10,P,A", "non-finite"),
    ("-1e-10,1e-10,P,A", ">= 0"),
    ("1e-10,1e-10,PX,A", "flavor code 'PX'"),
    ("1e-10,1e-10,P,", "flavor code ''"),
    ("1e-10,1e-10,P,A,P", "four columns"),
    ("1e-10,1e-10,P", "four columns"),
    ("1e-10,P,A,P", "float"),
])
def test_csv_rejects_bad_rows(row, message):
    text = f"{HEADER}\n1e-10,2e-10,A,P\n{row}\n"
    with pytest.raises(ValueError, match=message):
        m.events_from_csv(text)


def test_csv_checks_columns_per_row():
    # a five-column row next to a three-column row has as many cells as
    # two good rows
    with pytest.raises(ValueError, match="four columns"):
        m.events_from_csv(f"{HEADER}\n1e-10,2e-10,P,A,3e-10\n4e-10,P,A\n")


TWO_ROWS = [[1e-10, 3e-10], [2e-10, 4e-10], [True, False], [False, False]]


@pytest.mark.parametrize("body, outcome", [
    # a row of empty cells has four columns; its flavor codes are empty
    ("1e-10,2e-10,A,P\n,,,\n", "bad flavor code ''"),
    (",,,\n1e-10,2e-10,A,P\n", "bad flavor code ''"),
    ("1e-10,2e-10,A,P\n,,,", "bad flavor code ''"),
    ("1e-10,2e-10,A,P\n,\n", "event rows need exactly four columns"),
    ("1e-10,2e-10,A,P\n,,,,\n", "event rows need exactly four columns"),
    ("1e-10,2e-10,A,P\nabc\n", "event rows need exactly four columns"),
    ("1e-10,2e-10,A,P,\n", "event rows need exactly four columns"),
    (",1e-10,2e-10,A\n", "bad flavor code '2e-10'"),
    # blank and whitespace-only lines between rows, no final newline
    ("1e-10,2e-10,A,P\n \t\n3e-10,4e-10,P,P\n", TWO_ROWS),
    ("1e-10,2e-10,A,P\n\n\n3e-10,4e-10,P,P", TWO_ROWS),
    ("1e-10,2e-10,A,P\n3e-10,4e-10,P,P", TWO_ROWS),
    ("\n", [[], [], [], []]),
])
def test_row_finder_edge_cases(body, outcome):
    text = f"{HEADER}\n{body}"
    if isinstance(outcome, str):
        with pytest.raises(ValueError) as info:
            m.events_from_csv(text)
        assert str(info.value) == outcome
    else:
        assert m.events_from_csv(text) == m.EventTable(*outcome)


def test_csv_skips_blank_lines_and_line_end_whitespace():
    text = f"{HEADER}\n\n1e-10,2e-10,P,A\r\n   \n3e-10,0,A,A  \n\n"
    table = m.events_from_csv(text)
    assert table == m.EventTable([1e-10, 3e-10], [2e-10, 0.0],
                                 [False, True], [True, True])
    assert len(m.events_from_csv(HEADER + "\n")) == 0


def reference_events_from_csv(text: str) -> m.EventTable:
    """The line-at-a-time parser that the byte-buffer parser replaced."""
    header, _, body = text.partition("\n")
    if header.strip() != HEADER:
        raise ValueError("bad event file header")
    rows = [line for line in map(str.strip, body.split("\n")) if line]
    if set(map(str.count, rows, repeat(","))) - {3}:
        raise ValueError("event rows need exactly four columns")
    cells = ",".join(rows).split(",") if rows else []
    codes = {*cells[2::4], *cells[3::4]}
    if not codes <= {"P", "A"}:
        raise ValueError(f"bad flavor code {min(codes - {'P', 'A'})!r}")
    return m.EventTable(
        np.array(cells[0::4], dtype=float),
        np.array(cells[1::4], dtype=float),
        [code == "A" for code in cells[2::4]],
        [code == "A" for code in cells[3::4]],
    )


def parse_outcome(parse, text):
    """Each column's dtype and bytes, or the exception's type and message."""
    try:
        table = parse(text)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)
    return [(getattr(table, name).dtype.str, getattr(table, name).tobytes())
            for name in COLUMNS]


# Times the writer makes, other spellings float() accepts, and cells longer
# than the parser's 24-byte key (the 25-byte pair and the 41-byte pair agree
# in their last 24 bytes); then cells that fail to parse or to validate.
GOOD_TIMES = st.one_of(
    st.floats(0.0, 1e-8).map("{:.12e}".format),
    st.sampled_from([
        "0", "1e-10", "5e-324", "-0.0", "１２", "1_0", " 1e-10", "1e-10 ",
        "1.000000000000000000e-10", "2.000000000000000000e-10",
        "1.0000000000000000000e-10", "2.0000000000000000000e-10",
        ".0000000000000000000e-10",
        "1" + "0" * 40, "2" + "0" * 40,
    ]),
)
BAD_TIMES = st.sampled_from(["", "x", "é", "1 0", "nan", "inf", "-inf",
                             "-1e-10"])
BAD_CODES = st.sampled_from(["PX", "", " P", "é"])
# what may surround a line; str.strip removes all of it
PADDING = st.sampled_from(["", "", "", "\r", " ", "\t", "\xa0", "\u3000",
                           "\x1c"])


@st.composite
def event_files(draw):
    # the kinds of fault this file may hold; a file with none parses
    faults = draw(st.sampled_from([(), ("times",), ("codes",), ("columns",),
                                   ("times", "codes")]))
    times = st.one_of(BAD_TIMES, GOOD_TIMES) if "times" in faults \
        else GOOD_TIMES
    codes = st.sampled_from("PA")
    if "codes" in faults:
        codes = st.one_of(BAD_CODES, codes)
    lines = [HEADER + draw(PADDING)]
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 5)) == 0:  # a blank or whitespace-only line
            lines.append(draw(PADDING))
            continue
        cells = [draw(times), draw(times), draw(codes), draw(codes)]
        if "columns" in faults and draw(st.booleans()):
            if draw(st.booleans()):
                cells.append(draw(codes))
            else:
                del cells[draw(st.integers(0, 3))]
        lines.append(draw(PADDING) + ",".join(cells) + draw(PADDING))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(event_files())
@example(f"{HEADER}\r\n1e-10,2e-10,P,A\xa0\r\n\u3000\r\n3e-10,1_0,A,P\x1c")
@example(f"{HEADER}\n1e-10,2e-10,P,A,P\n4e-10,P,A\n")
@example(f"{HEADER}\n2.0000000000000000000e-10,1.0000000000000000000e-10,P,A\n"
         f"1.0000000000000000000e-10,2.0000000000000000000e-10,A,P\n")
@example(HEADER)
# cells that differ only by leading NUL bytes are different cells
@example(f"{HEADER}\n\x001e-10,2e-10,P,A\n2e-10,1e-10,A,A\n")
# a cell of exactly 24 bytes is not the last 24 bytes of a longer cell
@example(f"{HEADER}\n{'0' * 24},1{'0' * 40},P,A\n")
@example(f"{HEADER}\n.0000000000000000000e-10,1.0000000000000000000e-10,P,A\n")
def test_parse_matches_reference_parser(text):
    assert parse_outcome(m.events_from_csv, text) == \
        parse_outcome(reference_events_from_csv, text)


@pytest.mark.parametrize("space", [chr(c) for c in range(128)
                                   if chr(c).isspace() and chr(c) != "\n"])
def test_parse_strips_each_ascii_whitespace_like_reference_parser(space):
    text = f"{HEADER}\n{space}1e-10,2e-10,P,A{space}\n{space}\n"
    assert parse_outcome(m.events_from_csv, text) == \
        parse_outcome(reference_events_from_csv, text)
    assert len(m.events_from_csv(text)) == 1


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_parse_of_generated_file_matches_reference_parser(name):
    # 20000 events whose times repeat across rows and columns
    events = m.generate_events(REG.get_species(name), 0.27, 20000, 11)
    text = m.events_to_csv(events)
    assert parse_outcome(m.events_from_csv, text) == \
        parse_outcome(reference_events_from_csv, text)


def test_parse_of_distinct_times_matches_reference_parser():
    # 40000 time cells that are all different, as in a file written by
    # another tool: no cell is shared, and more cells than hash slots;
    # once in rows of mixed widths, once in rows of one width
    rng = np.random.default_rng(3)
    for left in ("{!r}", "{:.17e}"):
        rows = [f"{left.format(a)},{b:.17e},{'PA'[c]},{'AP'[c]}"
                for a, b, c in zip(rng.uniform(0, 1e-9, 20000).tolist(),
                                   rng.uniform(0, 1e-9, 20000).tolist(),
                                   rng.integers(0, 2, 20000).tolist())]
        text = "\n".join([HEADER, *rows])
        assert parse_outcome(m.events_from_csv, text) == \
            parse_outcome(reference_events_from_csv, text)


def test_first_bad_time_of_the_left_column_is_named():
    # the right column's bad cell comes first in the file, but the left
    # column is converted first
    text = f"{HEADER}\n1e-10,y,P,A\n2e-10,3e-10,A,A\nx,4e-10,P,P\n"
    with pytest.raises(ValueError, match="could not convert string to float: 'x'"):
        m.events_from_csv(text)
    assert parse_outcome(m.events_from_csv, text) == \
        parse_outcome(reference_events_from_csv, text)


# the nine ASCII characters other than "\n" that str.strip removes
STRIPPED_ASCII = "\t\x0b\x0c\r\x1c\x1d\x1e\x1f "

# times whose %.12e and %.17e cells have one width: 0 and [1e-99, 1e99);
# a few fixed ones make cells that repeat
UNIFORM_TIMES = st.one_of(st.sampled_from([0.0, 1e-10, 2.5e-10]),
                          st.floats(1e-99, 1e99))


@st.composite
def uniform_files(draw):
    """A file whose rows have one width, with at most one fault or one
    change of line ends or whitespace that stripping undoes."""
    fmt, other = draw(st.permutations(["{:.12e}", "{:.17e}"]))
    rows = [[fmt.format(draw(UNIFORM_TIMES)), fmt.format(draw(UNIFORM_TIMES)),
             draw(st.sampled_from("PA")), draw(st.sampled_from("PA"))]
            for _ in range(draw(st.integers(1, 8)))]
    i = draw(st.integers(0, len(rows) - 1))
    mutation = draw(st.sampled_from([None, "time", "separator", "code",
                                     "blank", "end", "width", "crlf",
                                     "pad"]))
    if mutation == "code":
        side = draw(st.integers(2, 3))
        rows[i][side] = draw(st.sampled_from(["X", rows[i][side] * 2]))
    elif mutation == "width":
        rows[i][:2] = [other.format(float(cell)) for cell in rows[i][:2]]
    lines = [HEADER + "\n", *(",".join(row) + "\n" for row in rows)]
    if mutation in ("time", "separator"):  # one byte of row i
        w = len(rows[i][0])
        if mutation == "time":
            # float() accepts whitespace at either end of a cell
            at = draw(st.integers(0, 1)) * (w + 1) + draw(st.one_of(
                st.sampled_from([0, w - 1]), st.integers(0, w - 1)))
        else:  # its three commas and its newline
            at = draw(st.sampled_from([w, 2 * w + 1, 2 * w + 3, 2 * w + 5]))
        byte = draw(st.sampled_from([",", "\n", " ", "x"]))
        lines[i + 1] = lines[i + 1][:at] + byte + lines[i + 1][at + 1:]
    elif mutation == "blank":
        lines.insert(draw(st.integers(1, len(lines))), "\n")
    elif mutation == "crlf":
        lines = [line[:-1] + "\r\n" for line in lines]
    elif mutation == "pad":  # whitespace around one or more lines
        for j in draw(st.sets(st.integers(0, len(lines) - 1), min_size=1)):
            pad = draw(st.text(st.sampled_from(STRIPPED_ASCII),
                               min_size=1, max_size=3))
            cut = draw(st.integers(0, len(pad)))
            lines[j] = pad[:cut] + lines[j][:-1] + pad[cut:] + "\n"
    text = "".join(lines)
    return text[:-1] if mutation == "end" else text


@settings(max_examples=400, deadline=None, derandomize=True)
@given(uniform_files())
# a newline that ends a time cell, where float() would accept it
@example(f"{HEADER}\n1.000000000000e-10,2.000000000000e-1\n,P,A\n")
# two bad cells: the left column's first is named, though its value
# also appears, later, in the right column
@example(f"{HEADER}\nx.000000000000e-10,0.000000000000e+00,P,P\n"
         f"y.000000000000e-10,x.000000000000e-10,P,P\n")
def test_parse_of_uniform_rows_matches_reference_parser(text):
    assert parse_outcome(m.events_from_csv, text) == \
        parse_outcome(reference_events_from_csv, text)


def record_uniform_columns(monkeypatch):
    """What each call of the strided row reader returns, in call order."""
    results = []
    uniform_columns = inference._uniform_columns

    def recorded(*args):
        results.append(uniform_columns(*args))
        return results[-1]

    monkeypatch.setattr(inference, "_uniform_columns", recorded)
    return results


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_written_files_take_the_uniform_path(name, monkeypatch):
    events = m.generate_events(REG.get_species(name), 0.27, 20000, 987654321)
    text = m.events_to_csv(events)
    results = record_uniform_columns(monkeypatch)
    assert parse_outcome(m.events_from_csv, text) == \
        parse_outcome(reference_events_from_csv, text)
    assert len(results) == 1 and results[0] is not None


@pytest.mark.parametrize("edit, strided", [
    ("blank", [False]), ("crlf", [False]), ("space", [False]),
    ("mixed", [False]), ("unended", [True]), ("nbsp", []),
], ids=["blank", "crlf", "space", "mixed", "unended", "nbsp"])
def test_reader_path_by_file_edit(edit, strided, monkeypatch):
    # each call of the strided reader, True where it read the file; a file
    # it does not read goes to the line parse, which the reference mirrors
    text = m.events_to_csv(m.generate_events(K0, 0.27, 300, 5))
    cut = text.index("\n", 1000)
    text = {
        "blank": text[:cut] + "\n" + text[cut:],
        "crlf": text.replace("\n", "\r\n"),
        "space": text[:cut] + " " + text[cut:],
        "mixed": text + "1e-10,2e-10,P,A\n",
        "unended": text[:-1],
        "nbsp": text[:cut] + "\xa0" + text[cut:],
    }[edit]
    results = record_uniform_columns(monkeypatch)
    assert parse_outcome(m.events_from_csv, text) == \
        parse_outcome(reference_events_from_csv, text)
    assert [r is not None for r in results] == strided
