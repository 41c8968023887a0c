"""Table text: the column formatter against the per-value %.17g reference."""
import io
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from garzfv import runio


def reference(values):
    return ["%.17g" % x for x in np.asarray(values, dtype=float).tolist()]


AWKWARD = {
    "signed_zeros": [0.0, -0.0, 0.0, -0.0, 1.0],
    "specials": [np.nan, np.inf, -np.inf, 5e-324, -5e-324, np.nan],
    "neighbours": [1.0, np.nextafter(1.0, 2.0), 1.0,
                   np.nextafter(1.0, 2.0)],
    "extremes": [1e300, 1e-300, -1e300, 1e-300],
    "constant": [0.375] * 7,
    "single": [-2.5],
    "empty": [],
}


@pytest.mark.parametrize("name", sorted(AWKWARD))
def test_format_column_matches_the_reference(name):
    values = AWKWARD[name]
    assert runio._column(values)[0] == reference(values)
    assert runio._column(np.array(values))[0] == reference(values)


def test_write_table_matches_the_row_formula(tmp_path):
    rng = np.random.default_rng(7)
    n = 400
    plateau = np.where(np.arange(n) < 150, 0.25, -0.0)
    plateau[300:] = 0.8
    ramp = np.linspace(-1.0, 1.0, n)
    ramp[::9] = ramp[0]
    cols = (np.arange(n) * 0.1, plateau, rng.standard_normal(n), ramp,
            np.repeat(rng.random(8), n // 8))
    # trailing columns of one value each join the line end
    folded = cols[:2] + (np.full(n, 0.5), np.full(n, -0.0))
    header = ("a", "b", "c", "d", "e")
    for sep, table in itertools.product((",", " "), (cols, folded)):
        path = tmp_path / "table.txt"
        runio.write_table(str(path), table, sep, header[:len(table)])
        row = sep.join(["%.17g"] * len(table))
        expected = [sep.join(header[:len(table)])] + [
            row % r for r in zip(*(c.tolist() for c in table))]
        assert path.read_text() == "\n".join(expected) + "\n"


# a few values, so drawn columns hold runs and repeats that are not
# adjacent; -nan prints "nan" like nan from another bit pattern
POOL = [0.0, -0.0, 1.0, 0.1, -2.5e-300, 1e300, float(np.nextafter(1.0, 2.0)),
        np.inf, np.nan, -np.nan]


@st.composite
def tables(draw):
    n = draw(st.integers(0, 12))
    cols = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):  # one value in every row
            cols.append([draw(st.sampled_from(POOL))] * n)
        else:
            pool = draw(st.lists(st.sampled_from(POOL), min_size=1,
                                 max_size=3))
            cols.append(draw(st.lists(st.sampled_from(pool), min_size=n,
                                      max_size=n)))
    header = draw(st.none() | st.just(tuple("abcde"[:len(cols)])))
    return cols, header, draw(st.sampled_from([",", " "]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tables())
def test_table_writer_matches_the_row_formula(table):
    cols, header, sep = table
    lines = [sep.join(header)] if header else []
    row = sep.join(["%.17g"] * len(cols))
    lines += [row % r for r in zip(*cols)]
    expected = "\n".join(lines) + "\n"
    formatted = [runio._column(c) for c in cols]
    for values, (texts, one) in zip(cols, formatted):
        assert texts == reference(values)
        bits = np.asarray(values, dtype=float).view(np.int64)
        assert one == (texts[0] if len(set(bits.tolist())) == 1 else None)
    for columns in (formatted, [(t, None) for t, _ in formatted]):
        fh = io.StringIO()
        runio._write_table(fh, columns, sep, header)
        assert fh.getvalue() == expected
