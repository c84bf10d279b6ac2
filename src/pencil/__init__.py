"""Polynomial eigenfunctions of blow-up pencils and crack admissibility.

The package computes the integer eigenvalue families and monic polynomial
eigenfunctions of the quadratic (second-order) and quartic (fourth-order)
operator pencils produced by blow-up scaling at a multi-crack tip, decides
which crack slope configurations are admissible from the nodal sets of
eigenfunction combinations, evaluates truncated solution germs and their
boundary traces, and resolves the semilinear stationary and self-similar
profiles numerically.
"""

from .expansion import (
    BlowupCoords,
    BoundaryTrace,
    DecayFit,
    Expansion,
    NegligibilityReport,
    decay_order,
    eval_expansion,
    eval_expansion_xy,
    from_blowup,
    perturbation_negligibility,
    synthesize_boundary_trace,
    to_blowup,
)
from .nodal import (
    AdmissibilityVerdict,
    CrackConfig,
    EnumeratedConfig,
    RootSet,
    check_admissibility_bilaplace,
    check_admissibility_laplace,
    count_real_roots,
    enumerate_admissible,
    isolate_real_roots,
    transversality_check,
)
from .pencils import (
    AnalyticityVerdict,
    Eigenpair,
    ReconstructionReport,
    SLReduction,
    analyticity_filter,
    characteristic_quartic,
    eigenpair_to_json,
    pencil_residual,
    quadratic_eigenfunction,
    quadratic_pencil,
    quadratic_spectrum,
    quartic_eigenfunction,
    quartic_pencil,
    quartic_spectrum,
    reconstruct_xy,
    sturm_liouville_check,
    verify_quartic_factorization,
)
from .polyring import (
    DiffOpTerm,
    RatPoly,
    op_apply,
    poly_gcd,
    poly_to_json,
    square_free_decomposition,
    square_free_part,
)
from .semilinear import (
    FAR_FIELD_ROOT,
    CrackCurve,
    NoProfileFoundError,
    ProfileSolution,
    crack_curves,
    solve_selfsimilar,
    solve_stationary,
)

__version__ = "0.1.0"
