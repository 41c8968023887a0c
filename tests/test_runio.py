"""Table text: the column formatter against the per-value %.17g reference."""
import numpy as np
import pytest

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
    assert runio.format_column(values) == reference(values)
    assert runio.format_column(np.array(values)) == reference(values)


def test_write_table_matches_the_row_formula(tmp_path):
    rng = np.random.default_rng(7)
    n = 400
    plateau = np.where(np.arange(n) < 150, 0.25, -0.0)
    plateau[300:] = 0.8
    ramp = np.linspace(-1.0, 1.0, n)
    ramp[::9] = ramp[0]
    cols = (np.arange(n) * 0.1, plateau, rng.standard_normal(n), ramp,
            np.repeat(rng.random(8), n // 8))
    header = ("a", "b", "c", "d", "e")
    for sep in (",", " "):
        path = tmp_path / f"table{sep!r}.txt"
        runio.write_table(str(path), [runio.format_column(c) for c in cols],
                          sep, header)
        row = sep.join(["%.17g"] * len(cols))
        expected = [sep.join(header)] + [
            row % r for r in zip(*(c.tolist() for c in cols))]
        assert path.read_text() == "\n".join(expected) + "\n"
