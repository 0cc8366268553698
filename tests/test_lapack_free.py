"""The runtime path makes no LAPACK call: every eigenvalue, norm and Schur
complement comes from the package's own solver and fixed point.  LAPACK
stays in the tests, as the reference the package is checked against."""

import numpy as np
import pytest

from conftest import degenerate_draws, rand_hermitian
from eigpert import (
    PREDICTORS,
    EnsembleConfig,
    aligned_perturbation,
    convergence_study,
    first_order_eigenvalues,
    hermitian,
    line_expansion,
    m_matrix,
    paper_example_regression,
    refined_eigenvalues,
    schur_data,
    schur_similarity_diagnostic,
    u_approx,
    vc_membership,
)
from eigpert.jacobi import _solve_stack

LAPACK_ENTRY_POINTS = ("solve", "inv", "eigh", "eigvalsh", "eig", "svd", "lstsq")


@pytest.fixture
def no_lapack(monkeypatch):
    """Make every dense LAPACK entry point of ``numpy.linalg`` raise, both as
    the public attribute and in the implementation module that
    ``numpy.linalg``'s own helpers (``norm`` with ``ord=2``, say) call, and
    the ``lstsq`` and ``inv`` that ``np.polyfit``'s module binds at import."""
    impl = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
    polynomial = getattr(np.lib, "_polynomial_impl", None) or np.lib.polynomial

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"numpy.linalg.{name} called at runtime")

        return call

    for module in (np.linalg, impl, polynomial):
        for name in LAPACK_ENTRY_POINTS:
            if module is not polynomial or hasattr(module, name):
                monkeypatch.setattr(module, name, refuse(name))


def test_the_fixture_refuses(no_lapack):
    with pytest.raises(AssertionError, match="solve"):
        np.linalg.solve(np.eye(2), np.ones(2))
    with pytest.raises(AssertionError, match="lstsq"):
        np.polyfit([0.0, 1.0, 2.0], [1.0, 0.0, 2.0], 1)


def test_prediction(no_lapack):
    [(a, f)] = degenerate_draws(71, (2, 2, 1, 1))
    ap = aligned_perturbation(a, hermitian(0.05 * f))
    first_order_eigenvalues(ap)
    u_approx(ap, m_matrix(ap.base, ap.blocks))
    for variant in ("full", "simplified"):
        refined_eigenvalues(ap, variant)
    for g in range(len(ap.blocks.groups)):
        schur_data(ap, g)
        schur_similarity_diagnostic(ap, g)
    vc_membership(ap, 0.1, 0.5)
    line_expansion(a, f).at(0.05)


@pytest.mark.parametrize("predictor", PREDICTORS)
def test_convergence_study(no_lapack, predictor):
    cfg = EnsembleConfig(seed=1, n=6, block_spec=(2, 2, 1, 1), trials=3, predictor=predictor)
    assert convergence_study(cfg).failed_trials == ()


def test_paper_example(no_lapack):
    assert paper_example_regression().passed


@pytest.mark.parametrize("n", [1, 2, 6])
def test_array_entry(no_lapack, n):
    rng = np.random.default_rng(73)
    stack = np.stack([rand_hermitian(rng, n) for _ in range(3)])
    _solve_stack(stack)
    _solve_stack(stack, vectors=False)
