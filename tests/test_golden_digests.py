"""Bit-identity of audited solves against the committed digests."""
import json

import pytest

from golden_digests import CASES, N_CELLS, PATH, case_digests, environment

GOLDEN = json.loads(PATH.read_text())


def test_digests_were_written_in_this_environment():
    # another numpy or another machine may round differently, so a
    # mismatch here says nothing about the code: it is reported, not
    # skipped, so the digests below are never compared silently
    recorded, here = GOLDEN["environment"], environment()
    if recorded != here:
        pytest.fail(f"tests/golden_digests.json was written with {recorded}"
                    f" but this run has {here}; rewrite it with `python "
                    "tests/golden_digests.py` on the parent commit, in this "
                    "environment, before comparing a change against it")


def test_every_case_has_digests():
    assert GOLDEN["n_cells"] == N_CELLS
    assert sorted(GOLDEN["cases"]) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_solve_matches_the_golden_digests(case):
    if GOLDEN["environment"] != environment():
        pytest.fail("digests recorded in another environment; see "
                    "test_digests_were_written_in_this_environment")
    got = case_digests(case)
    want = GOLDEN["cases"][case]
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], f"{case}: {key} digests moved"
