"""Verification toolkit for nonsmooth robust multiobjective optimization.

Compute subdifferential sets of piecewise-smooth expressions under
uncertainty, check and search robust approximate KKT certificates, test
generalized pseudo-convexity, classify candidate points against robust
(quasi-)efficiency notions, and verify Mond-Weir duality relations.
"""

from .certify import (
    KKTCertificate,
    check_cq,
    check_kkt,
    fuzzy_kkt_demo,
    pseudoconvex_test,
    search_kkt,
)
from .funcdsl import (
    DomainError,
    Expr,
    NonsmoothPointError,
    ParseError,
    UnsupportedStructureError,
    active_kinks,
    eval_expr,
    format_expr,
    parse_expr,
    smooth_gradient,
)
from .robustfeas import (
    ProblemSpec,
    Psi,
    UncertainConstraint,
    compute_active_sets,
    feasible_active_sets,
    raster,
    scenario_envelope,
)
from .setcalc import (
    ConeSpec,
    OmegaSpec,
    PolyCone,
    Polytope,
    PolytopeSet,
    dual_ball,
    hull,
    minkowski_sum,
    normal_cone,
    scale,
    zero_in_sum,
)
from .subdiff import SubdiffResult, limiting_subdiff, sup_rule
from .verify import (
    DualTriple,
    classify_point,
    converse_duality_check,
    dual_feasible,
    strong_duality_from,
    weak_duality_check,
)
from .cli import load_problem

__version__ = "0.1.0"
