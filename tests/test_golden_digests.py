"""Bit-identity of audited solves, run directories and unaudited studies
against the committed digests."""
import json

import pytest

from golden_digests import (CASES, N_CELLS, PATH, case_digests, environment,
                            moved_keys, run_dir_digests, study_digests)
from garzfv.scenarios import SCENARIO_NAMES

GOLDEN = json.loads(PATH.read_text())


def _require_environment():
    if GOLDEN["environment"] != environment():
        pytest.fail("digests recorded in another environment; see "
                    "test_digests_were_written_in_this_environment")


def _assert_same(got: dict, want: dict, what: str):
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], f"{what}: {key} digests moved"


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


def test_moved_keys_name_every_changed_added_and_dropped_leaf():
    old = {"cases": {"a": {"states": "1", "phi": ["2"]}},
           "run_dirs": {"smoke": {"report.csv": "3", "manifest.json": "4"}}}
    new = {"cases": {"a": {"states": "1", "phi": ["5"]}, "b": {"states": "6"}},
           "run_dirs": {"smoke": {"report.csv": "7"}}}
    assert moved_keys(old, new) == [
        "cases/a/phi", "cases/b", "run_dirs/smoke/manifest.json",
        "run_dirs/smoke/report.csv"]
    assert moved_keys(new, new) == []


def test_every_case_has_digests():
    assert GOLDEN["n_cells"] == N_CELLS
    assert sorted(GOLDEN["cases"]) == sorted(CASES)
    assert sorted(GOLDEN["run_dirs"]) == sorted(SCENARIO_NAMES)
    assert sorted(GOLDEN["studies"]) == ["stability", "uniqueness"]


@pytest.mark.parametrize("case", sorted(CASES))
def test_solve_matches_the_golden_digests(case):
    _require_environment()
    _assert_same(case_digests(case), GOLDEN["cases"][case], case)


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_solve_run_directory_matches_the_golden_digests(name):
    _require_environment()
    _assert_same(run_dir_digests(name), GOLDEN["run_dirs"][name],
                 f"solve-{name}")


def test_unaudited_studies_match_the_golden_digests():
    _require_environment()
    _assert_same(study_digests(), GOLDEN["studies"], "smoke studies")
