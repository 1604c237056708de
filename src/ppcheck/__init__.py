"""Pointwise verification of curvature identities for polynomial metrics.

The engine evaluates Christoffel symbols, Riemann/Ricci/Weyl tensors and
their covariant derivatives as truncated Taylor jets at rational sample
points, in exact (Fraction) or float arithmetic, and checks tensor
identities, recurrence conditions and metric-family claims with relative
sup-norm residuals.
"""

from .checks import CHECKS, ORDER_BUDGET, CheckResult, PointContext
from .cli import RunError, list_families, main, run, theorem_suite
from .geometry import (CurvatureBundle, DegeneratePointError,
                       OrderBudgetError, metric_at_point, rescaled)
from .jets import EXACT, FLOAT, Jet, SingularJetError, jet_from_polynomial
from .metrics import (ConfigError, FamilyError, MetricSpec, PointPlan,
                      RunConfig, build_custom, build_galaev,
                      build_perturbed_minkowski, build_ppwave,
                      build_two_symmetric, build_walker, parse_metric_config,
                      sample_points)
from .polynomials import Polynomial, PolynomialError, parse_polynomial
from .report import (ENGINE_VERSION, Report, all_clear, build_report,
                     emit_report, report_to_json, report_to_text)
from .tensors import (Tensor, contract, cyclic_sum, extract_recurrence,
                      raise_lower, sup_norm)

__version__ = ENGINE_VERSION

__all__ = [
    "CHECKS", "ORDER_BUDGET", "CheckResult", "PointContext",
    "extract_recurrence", "RunError", "list_families", "main", "run",
    "theorem_suite", "CurvatureBundle", "DegeneratePointError",
    "OrderBudgetError", "metric_at_point",
    "rescaled", "EXACT", "FLOAT", "Jet", "SingularJetError",
    "jet_from_polynomial", "ConfigError", "FamilyError", "MetricSpec",
    "PointPlan", "RunConfig", "build_custom", "build_galaev",
    "build_perturbed_minkowski", "build_ppwave", "build_two_symmetric",
    "build_walker", "parse_metric_config", "sample_points", "Polynomial",
    "PolynomialError", "parse_polynomial", "ENGINE_VERSION", "Report",
    "all_clear", "build_report", "emit_report", "report_to_json",
    "report_to_text", "Tensor", "contract", "cyclic_sum", "raise_lower",
    "sup_norm", "__version__",
]
