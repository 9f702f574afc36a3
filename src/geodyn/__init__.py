"""Vielbein-based geometry, gauge curvature scalars, finite spectral
triples, and cutoff-expansion action evaluation on coordinate charts."""

from .tensors import (
    COORD,
    DOWN,
    FRAME,
    UP,
    MinkowskiSignature,
    Point,
    SingularMetricError,
    TensorIndexError,
    TensorValue,
    contract,
    raise_lower,
)
from .fields import ChartField, constant_field, differentiate, scalar_field
from .geometry import (
    CoordinateConditionError,
    GeneralizedMetric,
    Vielbein,
    compatibility_residual,
    dirac_matrices,
    spin_connection,
)
from .geodesics import Trajectory, integrate_geodesic
from .connection import (
    ConnectionConstants,
    ConnectionForm,
    HiggsField,
    SMGaugeConfig,
    assemble_connection,
    curvature,
    curvature_squared,
    gauge_square_report,
    sm_lagrangian_normalized,
)
from .triples import (
    FiniteTriple,
    YukawaData,
    build_sm_finite,
    check_axioms,
    fluctuate,
    inner_fluctuations,
    lepton_triple,
    two_point_triple,
)
from .action import (
    ActionReport,
    CutoffFunction,
    GridSpec,
    HeatKernelData,
    LimitModeError,
    Moments,
    Region,
    field_equation_residual,
    heat_kernel_coefficients,
    make_cutoff,
    moments,
    riemannian_limit_action,
    spectral_action,
    unification_scale,
)
from .scenarios import BUILTIN_SCENARIOS, RunReport, builtin_config, run_scenario

__version__ = "0.1.0"

__all__ = [
    "COORD", "DOWN", "FRAME", "UP",
    "MinkowskiSignature", "Point", "SingularMetricError", "TensorIndexError",
    "TensorValue", "contract", "raise_lower",
    "ChartField", "constant_field", "differentiate", "scalar_field",
    "CoordinateConditionError", "GeneralizedMetric", "Vielbein",
    "compatibility_residual", "dirac_matrices", "spin_connection",
    "Trajectory", "integrate_geodesic",
    "ConnectionConstants", "ConnectionForm", "HiggsField", "SMGaugeConfig",
    "assemble_connection", "curvature", "curvature_squared",
    "gauge_square_report", "sm_lagrangian_normalized",
    "FiniteTriple", "YukawaData", "build_sm_finite", "check_axioms",
    "fluctuate", "inner_fluctuations", "lepton_triple", "two_point_triple",
    "ActionReport", "CutoffFunction", "GridSpec", "HeatKernelData",
    "LimitModeError", "Moments", "Region", "field_equation_residual",
    "heat_kernel_coefficients", "make_cutoff", "moments",
    "riemannian_limit_action", "spectral_action", "unification_scale",
    "BUILTIN_SCENARIOS", "RunReport", "builtin_config", "run_scenario",
    "__version__",
]
