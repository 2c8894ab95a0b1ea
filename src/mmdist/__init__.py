"""Exact distances between finite metric measure spaces and the trees coded
by piecewise excursions.

Everything runs on stdlib rationals: Prohorov distances on a common space,
the Gromov-Prohorov distance as half the lambda = 1/2 box metric, gluings
that witness it, excursion coding with its Lipschitz and continuity bounds,
and seeded experiment reports.
"""

from .coding import CodedTree, code_excursion, four_point_check, pl_cut_points
from .errors import SizeError, ValidationError
from .exact import decimal_str, format_scalar, parse_scalar, sqrt_if_square
from .excursion_metrics import (
    ExcursionDistanceResult,
    IntervalResult,
    d_excursion,
    d_excursion_detail,
    d_gamma,
    d_gamma_detail,
    d_lambda,
    directed_gamma_sq,
)
from .excursions import (
    Excursion,
    comb,
    dh,
    evaluate,
    excursion_from_obj,
    excursion_to_obj,
    infimum,
    load_excursion,
    normalize,
    pc_excursion,
    pl_excursion,
    random_excursion,
    save_excursion,
    step_one,
    sup_diff,
    tent,
    validate_excursion,
    zero_excursion,
)
from .flow import Coupling, complete_subcoupling, max_subcoupling, validate_coupling
from .gluing import (
    GluedSpace,
    GlueSearchResult,
    build_glued_space,
    check_triangle,
    glued_common_space,
    glued_upper_bound,
    prohorov_of_glue,
)
from .gromov import (
    BoxResult,
    Correspondence,
    GPResult,
    box_ladder,
    box_lambda,
    box_lambda_detail,
    correspondence_info,
    distortion,
    gromov_prohorov,
    gromov_prohorov_detail,
)
from .harness import (
    ExperimentReport,
    run_continuity_check,
    run_counterexample,
    run_lipschitz_check,
    run_theorem_check,
)
from .parametrize import (
    IntervalParametrization,
    box_of_parametrizations,
    coupling_to_parametrizations,
    parametrizations_to_cells,
    validate_parametrization,
)
from .polynomials import TruncatedMonomial, evaluate_polynomial
from .prohorov import (
    CommonSpaceMeasures,
    prohorov,
    prohorov_bruteforce,
    prohorov_condition_holds,
    prohorov_flow,
    validate_common,
)
from .spaces import (
    FiniteMMSpace,
    are_isomorphic,
    canonicalize,
    is_canonical,
    load_space,
    mm_space,
    sample_mm_space,
    save_space,
    space_from_obj,
    space_to_obj,
    validate,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
