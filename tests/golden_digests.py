"""SHA-256 digests of audited solves, pinned in golden_digests.json.

A change that is not meant to move the numerics must leave every digest
unchanged; ``test_golden_digests.py`` checks that.  Per case the file holds
digests of the stored states (t, rho, v, w, z, u and psi of each), of the
mass, total-variation and influx series with their times, and, per slab,
of its Phi trace and of its entropy table, with its step count and its
largest CFL number (as ``float.hex``).  The cases are the five scenarios,
``smoke`` with two other closures, and three fixed data drawn by a seeded
generator like the one of ``test_generated_admissible_data_pass_the_audit``.  Next to the cases it holds the
digest of every file of a default ``garzfv solve`` run directory per
scenario, and of one unaudited stability measurement and one unaudited
uniqueness check on ``smoke``.  The numpy version and the platform the
digests were written on are recorded next to them, because another numpy
or another machine may round differently.

Rewrite the file from the repository root with

    PYTHONPATH=src python tests/golden_digests.py

which first prints each digest that moved, by its key (such as
``run_dirs/smoke/report.csv``); say in the change log which moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import tempfile
from pathlib import Path

import numpy as np

from garzfv import (CustomVelocityModel, Grid, InitialData, Piece,
                    PowerLawModel, recommended_domain, scenario)
from garzfv import cli, perturb_data, solve_global
from garzfv.verify import measure_stability, uniqueness_check
from garzfv.scenarios import SCENARIO_NAMES

PATH = Path(__file__).with_name("golden_digests.json")
N_CELLS = 192


def _custom_greenshields():
    return CustomVelocityModel(lambda rho, u: u * (1.0 - rho),
                               name="u(1-rho)")


def _scenario_case(name, make_model=None):
    """The scenario at N_CELLS, with its own closure unless make_model
    gives another."""
    def build():
        sc = scenario(name)
        model = sc.model() if make_model is None else make_model()
        grid = Grid(sc.grid.x_min, sc.grid.x_max, N_CELLS)
        return sc.data, grid, sc.t_final, model
    return build


SUPPORT = (-1.5, 1.5)


def _pieces(rng, lo, hi):
    """1-3 pieces tiling SUPPORT, each constant or linear, values in
    [lo, hi]."""
    cuts = np.sort(rng.uniform(-1.4, 1.4, rng.integers(0, 3))).tolist()
    edges = [SUPPORT[0], *cuts, SUPPORT[1]]
    pieces = []
    for a, b in zip(edges, edges[1:]):
        left = float(rng.uniform(lo, hi))
        right = left if rng.integers(2) else float(rng.uniform(lo, hi))
        pieces.append(Piece(a, b, left, right))
    return tuple(pieces)


def _generated_case(seed, gamma):
    """Admissible data drawn from seed: piecewise rho in [0, 1] and psi in
    [-0.5, 0.5] on SUPPORT, u_inf in [0.5, 1.5], PowerLawModel(gamma), up
    to t = 0.5 on the domain recommended_domain gives."""
    def build():
        rng = np.random.default_rng(seed)
        rho, psi = _pieces(rng, 0.0, 1.0), _pieces(rng, -0.5, 0.5)
        data = InitialData(rho_pieces=rho, psi_pieces=psi,
                           u_inf=float(rng.uniform(0.5, 1.5)))
        # |z| <= L sup|psi| and |u - u_inf| <= L |z|, L the support length
        length = SUPPORT[1] - SUPPORT[0]
        psi_sup = max(abs(v) for p in psi for v in (p.v_left, p.v_right))
        t_final = 0.5
        wave = data.u_inf + length ** 2 * psi_sup
        grid = Grid(*recommended_domain(data, t_final, wave), N_CELLS)
        return data, grid, t_final, PowerLawModel(gamma)
    return build


# case -> builder of its (data, grid, t_final, closure)
CASES = {name: _scenario_case(name) for name in SCENARIO_NAMES}
CASES["smoke-power2.5"] = _scenario_case("smoke", lambda: PowerLawModel(2.5))
CASES["smoke-custom"] = _scenario_case("smoke", _custom_greenshields)
for _seed, _gamma in enumerate((1.0, 2.0, 3.0)):
    CASES[f"generated-{_seed}"] = _generated_case(_seed, _gamma)


def environment() -> dict:
    return {"numpy": np.__version__,
            "platform": f"{platform.system()}-{platform.machine()}"}


def _sha(arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return digest.hexdigest()


def case_digests(case: str) -> dict:
    """Digests of one case, solved at N_CELLS with the default SlabConfig
    (the 11-level entropy audit on)."""
    data, grid, t_final, model = CASES[case]()
    traj = solve_global(data, grid, t_final, model)
    return {
        "states": _sha(a for st in traj.states
                       for a in ([st.t], st.rho.values, st.v.values,
                                 st.w.values, st.z.values, st.u.values,
                                 st.psi.values)),
        "series": _sha((traj.series_times, traj.mass_series,
                        traj.tv_series, traj.influx_series)),
        "phi": [_sha([slab.trace.phi]) for slab in traj.slabs],
        "entropy": [_sha([list(slab.entropy_table().items())])
                    for slab in traj.slabs],
        "n_steps": [slab.n_steps for slab in traj.slabs],
        "max_cfl": [float(slab.max_cfl).hex() for slab in traj.slabs],
    }


def run_dir_digests(name: str) -> dict:
    """Digest of every file, by its path in the run directory, that
    ``garzfv solve --scenario name --n-cells N_CELLS`` writes."""
    with tempfile.TemporaryDirectory() as root, \
            contextlib.redirect_stdout(io.StringIO()):
        cli.main(["solve", "--scenario", name, "--n-cells", str(N_CELLS),
                  "--seed-dir", root])
        run_dir = Path(root) / f"solve-{name}"
        return {p.relative_to(run_dir).as_posix():
                hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(run_dir.rglob("*")) if p.is_file()}


def study_digests() -> dict:
    """Digests of measure_stability (smoke against its copy shifted by two
    cells with u_inf raised by 0.01) and of uniqueness_check on smoke,
    both at N_CELLS with their default settings (neither audits)."""
    sc = scenario("smoke")
    grid = Grid(sc.grid.x_min, sc.grid.x_max, N_CELLS)
    shifted = perturb_data(sc.data, grid, shift_cells=2, du_inf=0.01)
    stab = measure_stability(sc.data, shifted, grid, sc.t_final, sc.model())
    uniq = uniqueness_check(sc.data, grid, sc.t_final, sc.model())
    return {
        "stability": _sha((stab.times, stab.lhs_series, stab.ratio_series,
                           stab.envelope_series,
                           [stab.k_measured, stab.c_hat, stab.lhs0])),
        "uniqueness": _sha([[uniq.gap, uniq.tol]]),
    }


def moved_keys(old, new, prefix="") -> list[str]:
    """The /-joined key of every leaf whose value differs between the
    nested dicts old and new, or that only one of them holds."""
    if not (isinstance(old, dict) and isinstance(new, dict)):
        return [] if old == new else [prefix]
    return [key for name in sorted(old.keys() | new.keys())
            for key in moved_keys(old.get(name), new.get(name),
                                  f"{prefix}/{name}" if prefix else name)]


def main() -> None:
    payload = {"environment": environment(),
               "n_cells": N_CELLS,
               "cases": {case: case_digests(case) for case in CASES},
               "run_dirs": {name: run_dir_digests(name)
                            for name in SCENARIO_NAMES},
               "studies": study_digests()}
    old = json.loads(PATH.read_text()) if PATH.exists() else {}
    for key in moved_keys(old, payload):
        print(f"moved: {key}")
    PATH.write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    main()
