"""The columnar event table: generation, CSV write and parse, fit input."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mesonosc as m

REG = m.default_registry()
K0 = REG.get_species("K0")
HEADER = "t_left_s,t_right_s,flavor_left,flavor_right"

# sha256 of events_to_csv(generate_events(sp, 0.27, 20000, 987654321)),
# recorded while events were still a list of EventRecord rows written one
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


def test_table_rows_behave_like_records():
    table = m.generate_events(K0, 0.3, 300, seed=4)
    rows = list(table)
    assert len(table) == len(rows) == 300
    assert table[0] == rows[0] and table[-1] == rows[-1]
    assert all(isinstance(r, m.EventRecord) for r in rows)
    assert m.EventTable.from_records(rows) == table
    assert m.generate_events(K0, 0.3, 300, seed=5) != table
    like = table.anti_left == table.anti_right
    assert like.tolist() == [r.flavor_left is r.flavor_right for r in rows]
    with pytest.raises(ValueError):
        table.t_left[0] = 1.0  # columns are read-only
    with pytest.raises(TypeError):
        table[0:2]


def test_fit_reads_records_and_table_alike():
    table = m.generate_events(K0, 0.4, 3000, seed=6)
    assert m.fit_zeta(list(table), K0) == m.fit_zeta(table, K0)


def test_table_validation():
    with pytest.raises(ValueError, match="non-finite"):
        m.EventTable([1e-10, np.nan], [0.0, 0.0], [0, 0], [0, 0])
    with pytest.raises(ValueError, match="non-finite"):
        m.EventTable([1e-10], [np.inf], [0], [0])
    with pytest.raises(ValueError, match=">= 0"):
        m.EventTable([1e-10], [-1e-10], [0], [0])
    with pytest.raises(ValueError, match="equal length"):
        m.EventTable([1e-10, 2e-10], [0.0], [0, 0], [0, 0])
    with pytest.raises(ValueError, match="non-finite"):
        m.EventRecord(np.nan, 0.0, m.FlavorState.PARTICLE,
                      m.FlavorState.PARTICLE)


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


def test_csv_skips_blank_lines_and_line_end_whitespace():
    text = f"{HEADER}\n\n1e-10,2e-10,P,A\r\n   \n3e-10,0,A,A  \n\n"
    table = m.events_from_csv(text)
    assert table == m.EventTable([1e-10, 3e-10], [2e-10, 0.0],
                                 [False, True], [True, True])
    assert len(m.events_from_csv(HEADER + "\n")) == 0
