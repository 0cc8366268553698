"""Perturbation expansions for Hermitian eigendecompositions.

The package predicts how the eigenvalues and eigenvectors of a Hermitian
matrix move under a perturbation, to first or second order, and checks
every prediction against a self-contained round-robin Jacobi eigensolver.

The namespace is lazy (PEP 562): ``import eigpert`` loads none of its
modules, and the first read of a public name, or of a submodule such as
``eigpert.harness``, imports the module that defines it and keeps the value
here.  A caller pays only for the modules it uses, which matters most where
bytecode caching is off and every import compiles its source.
"""

import importlib

# The one list of each module's package-level names; every module builds its
# ``__all__`` from its entry here, adding only the names it keeps to itself.
_EXPORTS = {
    "errors": (
        "ConvergenceError", "DegenerateDirectionError", "GapTooSmallError", "MatrixParseError",
        "ModeError", "PreconditionError", "StudyError",
    ),
    "matrices": (
        "dense", "format_matrix", "hermitian", "operator_norm", "operator_norms", "parse_hermitian",
        "parse_matrix",
    ),
    "jacobi": ("SpectralDecomposition", "eigh", "residual"),
    "alignment": (
        "MODE_BLOCKWISE", "MODE_RAW", "AlignedPerturbation", "BlockStructure", "align_columns",
        "aligned_perturbation", "blockwise_diagonalize", "conjugate_to_eigenbasis", "m_matrix",
        "scaled",
    ),
    "first_order": ("first_order_eigenvalues", "gershgorin_intervals", "u_approx"),
    "schur": (
        "SchurData", "SimilarityDiagnostic", "VcReport", "refined_eigenvalues", "schur_data",
        "schur_similarity_diagnostic", "vc_membership",
    ),
    "rayleigh": (
        "EigensystemPrediction", "LineExpansion", "eigenvector_derivative", "line_expansion",
        "n_matrix", "predict_eigensystem", "rs_coefficients",
    ),
    "harness": (
        "DEFAULT_T_GRID", "EXAMPLE_A", "EXAMPLE_F", "EXAMPLE_N", "EXAMPLE_U_PRIME", "PREDICTORS",
        "ClauseResult", "ConvergenceReport", "EnsembleConfig", "LoglogFit", "RegressionReport",
        "StudyRow", "convergence_study", "generate_instance", "paper_example_regression",
        "report_to_csv",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli")

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
