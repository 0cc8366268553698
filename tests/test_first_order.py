import numpy as np
import pytest

from conftest import SCALE_EXPONENTS, STACK_SPECS, degenerate_draws, rand_hermitian, rand_unitary
from eigpert import (
    ModeError,
    SpectralDecomposition,
    aligned_perturbation,
    blockwise_diagonalize,
    conjugate_to_eigenbasis,
    eigenvector_derivative,
    eigh,
    first_order_eigenvalues,
    gershgorin_intervals,
    hermitian,
    m_matrix,
    operator_norm,
    predict_eigensystem,
    scaled,
    u_approx,
)
from eigpert.first_order import approx_decomposition_residual

EXAMPLE_A3 = np.diag([0.0, 0.0, 1.0])
EXAMPLE_F3 = np.array([[1, 0, 1], [0, 0, 1], [1, 1, 0]], dtype=float)


def two_level_instance():
    a = np.diag([3.0, 1.0])
    e = hermitian([[0.0, 0.1], [0.1, 0.0]])
    ap = aligned_perturbation(a, e)
    return ap, m_matrix(ap.base, ap.blocks)


class TestEigenvalues:
    def test_raw_mode_rejected(self):
        base = eigh(np.diag([2.0, 2.0]))
        ap = conjugate_to_eigenbasis(base, hermitian([[0.0, 0.1], [0.1, 0.0]]))
        with pytest.raises(ModeError):
            first_order_eigenvalues(ap)

    def test_zero_perturbation(self):
        ap = aligned_perturbation(np.diag([4.0, 4.0, 1.0]), np.zeros((3, 3)))
        assert np.array_equal(first_order_eigenvalues(ap), [4.0, 4.0, 1.0])

    def test_two_level_error_is_second_order(self):
        ap, _ = two_level_instance()
        xi = first_order_eigenvalues(ap)
        assert np.array_equal(xi, [3.0, 1.0])
        exact = np.array([2.0 + np.sqrt(1.01), 2.0 - np.sqrt(1.01)])
        err = np.abs(xi - exact).max()
        # ||E||^2 / gap = 0.01 / 2; the prediction misses by almost exactly that
        assert 4.9e-3 <= err <= 5e-3

    def test_worked_example_degenerate_shifts(self):
        t = 0.01
        ap = aligned_perturbation(EXAMPLE_A3, hermitian(t * EXAMPLE_F3))
        xi = first_order_eigenvalues(ap)
        assert xi[0] == pytest.approx(1.0, abs=1e-15)
        # the double eigenvalue 0 splits at first order into t and 0
        assert xi[1] == pytest.approx(t, abs=1e-15)
        assert xi[2] == pytest.approx(0.0, abs=1e-15)

    def test_prediction_linear_in_scale(self):
        [(a, f)] = degenerate_draws(5, (2, 2))
        ap = aligned_perturbation(a, f)
        for t in (0.5, 0.03125, 1e-3):
            got = first_order_eigenvalues(scaled(ap, t))
            assert np.array_equal(got, ap.base.lam + t * ap.e_hat_diag)


class TestGershgorin:
    def test_two_level_discs(self):
        ap, _ = two_level_instance()
        assert gershgorin_intervals(ap) == [(3.0, 0.1), (1.0, 0.1)]

    def test_diagonal_perturbation_zero_radii(self):
        ap = aligned_perturbation(np.diag([3.0, 1.0]), np.diag([0.2, -0.2]))
        assert gershgorin_intervals(ap) == [(3.2, 0.0), (0.8, 0.0)]

    def test_worked_example_intervals(self):
        ap = aligned_perturbation(EXAMPLE_A3, hermitian(0.01 * EXAMPLE_F3))
        got = gershgorin_intervals(ap)
        want = [(1.0, 0.02), (0.01, 0.01), (0.0, 0.01)]
        for (c, r), (wc, wr) in zip(got, want):
            assert c == pytest.approx(wc, abs=1e-15)
            assert r == pytest.approx(wr, abs=1e-15)

    def test_oracle_eigenvalues_land_in_union(self):
        for a, f in degenerate_draws(11, (2, 2, 1), 15):
            e = hermitian(0.05 * f)
            ap = aligned_perturbation(a, e)
            discs = gershgorin_intervals(ap)
            scale = max(1.0, operator_norm(a))
            for x in eigh(a + e).lam:
                excess = min(abs(x - c) - r for c, r in discs)
                assert excess <= 1e-12 * scale


class TestUApprox:
    def test_zero_perturbation_returns_base(self):
        ap = aligned_perturbation(np.diag([3.0, 1.0]), np.zeros((2, 2)))
        mmat = m_matrix(ap.base, ap.blocks)
        assert np.array_equal(u_approx(ap, mmat), ap.base.u)

    def test_two_level_rotation(self):
        ap, mmat = two_level_instance()
        u_ap = u_approx(ap, mmat)
        assert np.array_equal(u_ap, np.array([[1.0, -0.05], [0.05, 1.0]], dtype=complex))

    def test_near_orthonormality_identity(self):
        # U_ap* U_ap equals I + S*S with S = M * E_hat, up to roundoff only
        for a, f in degenerate_draws(13, (2, 1, 1), 10):
            ap = aligned_perturbation(a, hermitian(0.1 * f))
            mmat = m_matrix(ap.base, ap.blocks)
            s = mmat * ap.e_hat
            u_ap = u_approx(ap, mmat)
            gram = u_ap.conj().T @ u_ap
            drift = np.abs(gram - np.eye(ap.n) - s.conj().T @ s).max()
            assert drift <= 1e-13 * ap.n
            # defect scales like ||E||^2 with constant at most n for unit gaps
            defect = operator_norm(gram - np.eye(ap.n))
            assert defect / ap.e_norm**2 <= ap.n

    def test_column_norms_near_one(self):
        [(a, f)] = degenerate_draws(17, (3, 2))
        ap = aligned_perturbation(a, hermitian(0.05 * f))
        mmat = m_matrix(ap.base, ap.blocks)
        s_sq = np.linalg.norm(mmat * ap.e_hat) ** 2
        norms = np.linalg.norm(u_approx(ap, mmat), axis=0)
        assert np.abs(norms - 1.0).max() <= s_sq


class TestResidual:
    def test_zero_perturbation(self):
        ap = aligned_perturbation(np.diag([2.0, 2.0, -1.0]), np.zeros((3, 3)))
        mmat = m_matrix(ap.base, ap.blocks)
        assert approx_decomposition_residual(ap, mmat) <= 1e-14

    def test_two_level_bound(self):
        ap, mmat = two_level_instance()
        assert approx_decomposition_residual(ap, mmat) <= 0.01

    @pytest.mark.parametrize("exponent", SCALE_EXPONENTS)
    @pytest.mark.parametrize("n", [6, 60])
    def test_scaled_columns_match_the_diagonal_matrix_products(self, n, exponent):
        # U and U_ap scaled column by column are U diag(lam) and U_ap diag(xi)
        # up to the sign of zero entries, which the norm does not see; the
        # base spectrum holds exact zeros.
        rng = np.random.default_rng([n, 43])
        spec = STACK_SPECS[n]
        lam = np.repeat(-np.arange(len(spec), dtype=float), spec) * 2.0**exponent
        base = SpectralDecomposition(u=rand_unitary(rng, n), lam=lam)
        e = rand_hermitian(rng, n, scale=0.01 * 2.0**exponent)
        ap = blockwise_diagonalize(conjugate_to_eigenbasis(base, e))
        mmat = m_matrix(ap.base, ap.blocks)
        u, u_ap = ap.base.u, u_approx(ap, mmat)
        target = u @ np.diag(lam) @ u.conj().T + ap.e
        rebuilt = u_ap @ np.diag(first_order_eigenvalues(ap)) @ u_ap.conj().T
        assert approx_decomposition_residual(ap, mmat) == operator_norm(rebuilt - target)

    def test_quadratic_in_perturbation_size(self):
        for a, f in degenerate_draws(19, (2, 2), 8):
            ap = aligned_perturbation(a, hermitian(0.1 * f))
            mmat = m_matrix(ap.base, ap.blocks)
            res = approx_decomposition_residual(ap, mmat)
            assert res / ap.e_norm**2 <= 5.0


class TestConvergenceRate:
    def test_eigenvalue_error_decays_quadratically(self):
        [(a, f)] = degenerate_draws(23, (2, 1, 1))
        ap = aligned_perturbation(a, f)
        ts = np.array([1e-1, 1e-2, 1e-3])
        errs = []
        for t in ts:
            xi = first_order_eigenvalues(scaled(ap, t))
            exact = eigh(a + t * f).lam
            errs.append(np.abs(xi - exact).max())
        slope = np.polyfit(np.log10(ts), np.log10(errs), 1)[0]
        assert slope >= 1.8


# The four formulas that take M from the caller.
M_TAKERS = pytest.mark.parametrize(
    "predict",
    [
        u_approx,
        eigenvector_derivative,
        lambda ap, mmat: predict_eigensystem(ap, mmat, 0.01),
        approx_decomposition_residual,
    ],
    ids=["u_approx", "eigenvector_derivative", "predict_eigensystem", "approx_decomposition_residual"],
)


@M_TAKERS
@pytest.mark.parametrize(
    "shape",
    [lambda m: m[0], lambda m: m[:1], lambda m: m[0, 1], lambda m: m[:, :-1]],
    ids=["n", "1xn", "scalar", "nx(n-1)"],
)
def test_m_of_another_shape_is_rejected(predict, shape):
    # Any M but n x n would broadcast against E_hat into a wrong matrix of the right shape.
    ap = aligned_perturbation(*degenerate_draws(29, (2, 2, 1, 1))[0])
    mmat = m_matrix(ap.base, ap.blocks)
    with pytest.raises(ValueError, match=r"M must have shape \(6, 6\)"):
        predict(ap, shape(mmat))


def one_ulp_up(m):
    m = np.array(m)
    m[0, 5] = np.nextafter(m[0, 5], np.inf)
    return m


@M_TAKERS
@pytest.mark.parametrize("change", [lambda m: 2.0 * m, one_ulp_up], ids=["doubled", "one_entry"])
def test_m_other_than_the_records_is_rejected(predict, change):
    # M is a function of the base; an n x n matrix with other values would
    # give a plausible wrong prediction.
    ap = aligned_perturbation(*degenerate_draws(29, (2, 2, 1, 1))[0])
    mmat = m_matrix(ap.base, ap.blocks)
    assert mmat[0, 5] != 0.0
    with pytest.raises(ValueError, match="not the inverse-gap matrix of the base"):
        predict(ap, change(mmat))


def result_bytes(result) -> list[bytes]:
    if hasattr(result, "u_hat"):
        return [result.xi_hat.tobytes(), result.u_hat.tobytes()]
    return [np.asarray(result).tobytes()]


@M_TAKERS
def test_an_equal_copy_of_m_gives_the_records_bytes(predict):
    # Every formula computes with the record's own M, whatever the layout,
    # dtype or signed zeros of the equal matrix it was passed.
    ap = aligned_perturbation(*degenerate_draws(29, (2, 2, 1, 1))[0])
    mmat = m_matrix(ap.base, ap.blocks)
    own = result_bytes(predict(ap, ap.data.m))
    for copy in (mmat, np.asfortranarray(mmat), mmat.astype(np.complex128), np.where(mmat == 0.0, -0.0, mmat)):
        assert result_bytes(predict(ap, copy)) == own
