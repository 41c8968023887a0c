"""SHA-256 digests of audited solves, pinned in golden_digests.json.

A change that is not meant to move the numerics must leave every digest
unchanged; ``test_golden_digests.py`` checks that.  Per case the file holds
digests of the stored states (t, rho, v, w, z, u and psi of each), of the
mass, total-variation and influx series with their times, and, per slab,
of its Phi trace and of its entropy table, with its step count and its
largest CFL number (as ``float.hex``).  Next to the cases it holds the
digest of every file of a default ``garzfv solve`` run directory per
scenario, and of one unaudited stability measurement and one unaudited
uniqueness check on ``smoke``.  The numpy version and the platform the
digests were written on are recorded next to them, because another numpy
or another machine may round differently.

Rewrite the file from the repository root with

    PYTHONPATH=src python tests/golden_digests.py

and say in the change log which digests moved and why.
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

from garzfv import CustomVelocityModel, Grid, PowerLawModel, scenario
from garzfv import cli, perturb_data, solve_global
from garzfv.verify import measure_stability, uniqueness_check
from garzfv.scenarios import SCENARIO_NAMES

PATH = Path(__file__).with_name("golden_digests.json")
N_CELLS = 192


def _custom_greenshields():
    return CustomVelocityModel(lambda rho, u: u * (1.0 - rho),
                               name="u(1-rho)")


# case -> (scenario, closure factory; None for the scenario's own)
CASES = {name: (name, None) for name in SCENARIO_NAMES}
CASES["smoke-power2.5"] = ("smoke", lambda: PowerLawModel(2.5))
CASES["smoke-custom"] = ("smoke", _custom_greenshields)


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
    name, make_model = CASES[case]
    sc = scenario(name)
    model = sc.model() if make_model is None else make_model()
    grid = Grid(sc.grid.x_min, sc.grid.x_max, N_CELLS)
    traj = solve_global(sc.data, grid, sc.t_final, model)
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


def main() -> None:
    payload = {"environment": environment(),
               "n_cells": N_CELLS,
               "cases": {case: case_digests(case) for case in CASES},
               "run_dirs": {name: run_dir_digests(name)
                            for name in SCENARIO_NAMES},
               "studies": study_digests()}
    PATH.write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    main()
