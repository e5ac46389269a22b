"""Degree-weighted adjacency spectra of bicyclic graphs.

Construct the weighted adjacency matrix A_f(G) for a catalogue of symmetric
weight functions, compute spectral radii, replay the spectral-monotone graph
transforms, enumerate bicyclic isomorphism classes at small order, and verify
the extremal structure results through exact quotient polynomials and
verification campaigns (see the `verify` module and the CLI).
"""

from .graphs import (
    FAMILIES,
    BaseGraph,
    Family,
    Graph,
    GraphError,
    attach_pendants,
    base_graph,
    graph6_decode,
    graph6_encode,
    graph_g1,
    graph_g2,
    graph_g3,
    graph_g4,
    make_infinity,
    make_theta,
    refine_partition,
)
from .weights import (
    PStarReport,
    WeightFunction,
    WeightSpecError,
    check_pstar,
    evaluate,
    evaluate_exact,
    parse_weight,
    rational_pstar_functions,
)
from .spectral import (
    SpectralError,
    SpectralResult,
    build_matrix,
    full_spectrum,
    rho_f,
    spectral_radii,
    spectral_radius,
)
from .transforms import TransformError, TransformOutcome, kelmans, pendant_shift
from .enumeration import (
    EnumerationError,
    canonical_form,
    enumerate_bicyclic,
    targeted_max_degree_family,
)
from .polynomials import (
    Polynomial,
    PolynomialError,
    char_poly,
    count_real_roots,
    eval_at_sqrt,
    max_real_root,
    sign_at_sqrt,
)
from .quotient import (
    QuotientMatrix,
    SignCondition,
    equitable_refine,
    evaluate_sign_ledger,
    family_quotient,
    named_polynomial,
    phi1_sign_holds,
    quotient_matrix,
)
from .verify import (
    CaseRecord,
    VerificationReport,
    run_table,
    verify_extremal,
    verify_kelmans,
    verify_theorem41,
)

__version__ = "0.1.0"
