"""2D time-harmonic elastodynamic boundary integral equation solvers.

High-order Nystrom discretizations of the four elastodynamic boundary
integral operators (single layer, double layer, its adjoint, hypersingular),
classical and regularized combined-field formulations for Dirichlet, Neumann
and transmission problems, and an optimized Schwarz domain-decomposition
solver built on Robin-to-Robin maps.
"""

from types import ModuleType as _ModuleType

from .geometry import Curve, CurveGrid, make_curve, sample_grid
from .materials import (
    Material,
    IncidentField,
    CauchyData,
    make_material,
    plane_wave,
    point_source,
    trace_and_traction,
)
from .kernels import kernel_split, KernelSplit
from .quadrature import QuadratureSet, build_quadrature, assemble_bio
from .multipliers import (
    Symbol,
    make_symbol,
    apply_multiplier,
    ps_dtn,
    make_transmission_regularizer,
    transmission_operators,
)
from .solvers import gmres, lu_solve, SolveReport
from .formulations import (
    DenseOperator,
    LinearSystem,
    PotentialRepresentation,
    assemble_dirichlet,
    assemble_neumann,
    assemble_transmission,
    reconstruct_fields,
)
from .ddm import RtRMap, rtr_interior, rtr_exterior, assemble_ddm
from .postprocess import FarField, eval_potential, far_field, eps_inf
from .harness import ReportRow, run_experiment, emit_table, PRESETS

# the imports above bind their submodules too, which are not exported
__all__ = [name for name, value in globals().items()
           if not (name.startswith("_") or isinstance(value, _ModuleType))]
__version__ = "0.1.0"
