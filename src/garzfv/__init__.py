"""Finite-volume solver kit for a 2x2 traffic system.

The system couples a scalar conservation law for the vehicle density rho
with a transported marker field u (d_t u + V d_x u = 0).  The solver
marches density by Godunov fluxes with the marker frozen per Picard
iterate, transports the conserved markers v = d_x u and w = rho psi with
the same fluxes, and reconstructs u and z by prefix sums; slabs are chained
to arbitrary horizons.  The verify module measures every bound the scheme
is supposed to honor.
"""

from .core import (CellField, Grid, InitialData, Piece, SystemState,
                   build_initial_state, c0_distance, cell_averages,
                   check_margins, l1_distance, l1_norm, recommended_domain,
                   total_variation)
from .errors import (CflViolationError, ConfigError, DegeneratePairError,
                     GarzError, GridMismatchError, InputRangeError,
                     InvalidDataError, ModelValidationError,
                     PicardDivergenceError)
from .iteration import (PicardTrace, ProblemContext, SlabConfig, Trajectory,
                        compute_M0, compute_tau0, compute_tilde_C,
                        make_context, picard_slab, solve_global)
from .model import (CustomVelocityModel, GreenshieldsModel, ModelBounds,
                    PowerLawModel, VelocityModel, make_model,
                    require_valid_model, validate_model)
from .oracle import follow_the_leader, lwr_riemann_exact, riemann_initial_data
from .scalar import godunov_flux, max_speed
from .scenarios import SCENARIO_NAMES, Scenario, perturb_data, scenario
from .verify import (CheckResult, ConvergenceTable, RunReport,
                     StabilityResult, UniquenessResult, audit_trajectory,
                     convergence_study, measure_stability, uniqueness_check)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
