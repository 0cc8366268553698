"""Perturbation expansions for Hermitian eigendecompositions.

The package predicts how the eigenvalues and eigenvectors of a Hermitian
matrix move under a perturbation, to first or second order, and checks
every prediction against a self-contained round-robin Jacobi eigensolver.
"""

from .errors import (
    ConvergenceError,
    DegenerateDirectionError,
    GapTooSmallError,
    MatrixParseError,
    ModeError,
    PreconditionError,
    StudyError,
)
from .matrices import (
    dense,
    format_matrix,
    hermitian,
    operator_norm,
    operator_norms,
    parse_hermitian,
    parse_matrix,
)
from .jacobi import SpectralDecomposition, eigh, residual
from .alignment import (
    MODE_BLOCKWISE,
    MODE_RAW,
    AlignedPerturbation,
    BlockStructure,
    align_columns,
    aligned_perturbation,
    blockwise_diagonalize,
    conjugate_to_eigenbasis,
    m_matrix,
    scaled,
)
from .first_order import (
    first_order_eigenvalues,
    gershgorin_intervals,
    u_approx,
)
from .schur import (
    SchurData,
    SimilarityDiagnostic,
    VcReport,
    refined_eigenvalues,
    schur_data,
    schur_similarity_diagnostic,
    vc_membership,
)
from .rayleigh import (
    EigensystemPrediction,
    LineExpansion,
    eigenvector_derivative,
    line_expansion,
    n_matrix,
    predict_eigensystem,
    rs_coefficients,
)
from .harness import (
    DEFAULT_T_GRID,
    EXAMPLE_A,
    EXAMPLE_F,
    EXAMPLE_N,
    EXAMPLE_U_PRIME,
    PREDICTORS,
    ClauseResult,
    ConvergenceReport,
    EnsembleConfig,
    LoglogFit,
    RegressionReport,
    StudyRow,
    convergence_study,
    generate_instance,
    paper_example_regression,
    report_to_csv,
)

__version__ = "0.1.0"
