"""Vielbein-based geometry, gauge curvature scalars, finite spectral
triples, and cutoff-expansion action evaluation on coordinate charts."""

from .tensors import MinkowskiSignature, Point, SingularMetricError
from .fields import ChartField
from .geometry import GeneralizedMetric, Vielbein
from .geodesics import Trajectory, integrate_geodesic
from .connection import (
    ConnectionForm,
    HiggsField,
    SMGaugeConfig,
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
    GridSpec,
    HeatKernelData,
    Moments,
    Region,
    field_equation_residual,
    heat_kernel_coefficients,
    moments,
    riemannian_limit_action,
    spectral_action,
)
from .scenarios import BUILTIN_SCENARIOS, RunReport, builtin_config, run_scenario

__version__ = "0.1.0"

__all__ = [
    "MinkowskiSignature", "Point", "SingularMetricError",
    "ChartField",
    "GeneralizedMetric", "Vielbein",
    "Trajectory", "integrate_geodesic",
    "ConnectionForm", "HiggsField", "SMGaugeConfig",
    "curvature", "curvature_squared",
    "gauge_square_report", "sm_lagrangian_normalized",
    "FiniteTriple", "YukawaData", "build_sm_finite", "check_axioms",
    "fluctuate", "inner_fluctuations", "lepton_triple", "two_point_triple",
    "ActionReport", "GridSpec", "HeatKernelData",
    "Moments", "Region", "field_equation_residual",
    "heat_kernel_coefficients", "moments",
    "riemannian_limit_action", "spectral_action",
    "BUILTIN_SCENARIOS", "RunReport", "builtin_config", "run_scenario",
    "__version__",
]
