import numpy as np
import pytest

from conftest import degenerate_instance, rand_hermitian
from eigpert import (
    GapTooSmallError,
    aligned_perturbation,
    eigh,
    first_order_eigenvalues,
    hermitian,
    operator_norm,
    refined_eigenvalues,
    scaled,
    schur_data,
    schur_similarity_diagnostic,
)

EXAMPLE_A3 = np.diag([0.0, 0.0, 1.0])
EXAMPLE_F3 = np.array([[1, 0, 1], [0, 0, 1], [1, 1, 0]], dtype=float)


def block_first_order(ap, block_index):
    start, stop = ap.blocks.groups[block_index]
    rest = np.r_[np.arange(0, start), np.arange(stop, ap.n)]
    return np.concatenate([np.arange(start, stop), rest])


class TestSchurData:
    def test_two_level_scalar_complement(self):
        a = np.diag([3.0, 1.0])
        e = hermitian([[0.0, 0.1], [0.1, 0.0]])
        ap = aligned_perturbation(a, e)
        lo = schur_data(ap, 1)
        assert (lo.l, lo.m) == (1, 1)
        assert lo.rho == 1.0
        assert np.array_equal(lo.lambda_tau, [3.0])
        assert lo.b[0, 0] == pytest.approx(-0.005, abs=1e-16)
        hi = schur_data(ap, 0)
        assert hi.b[0, 0] == pytest.approx(0.005, abs=1e-16)

    def test_worked_example_block_complement(self):
        for t in (0.1, 0.01):
            ap = aligned_perturbation(EXAMPLE_A3, hermitian(t * EXAMPLE_F3))
            sd = schur_data(ap, 1)
            assert (sd.l, sd.m) == (2, 1)
            assert sd.rho == 0.0
            want = np.array([[t - t * t, -t * t], [-t * t, -t * t]])
            assert np.abs(sd.b - want).max() <= 1e-10

    def test_zero_perturbation(self):
        ap = aligned_perturbation(np.diag([4.0, 4.0, 1.0]), np.zeros((3, 3)))
        sd = schur_data(ap, 0)
        assert np.all(sd.b == 0) and np.all(sd.c == 0) and np.all(sd.d == 0)
        assert np.all(sd.beta == 0)
        assert sd.beta_gap_ambiguous  # two identical beta values
        assert not schur_data(ap, 1).beta_gap_ambiguous  # l = 1 never ambiguous

    def test_margin_guard(self):
        a = np.diag([1.0, 0.0])
        e = hermitian([[0.0, 0.6], [0.6, 0.0]])
        ap = aligned_perturbation(a, e)
        with pytest.raises(GapTooSmallError, match="separation"):
            schur_data(ap, 0)
        # a smaller perturbation clears the margin
        assert schur_data(scaled(ap, 0.5), 0).m == 1

    def test_block_index_out_of_range(self):
        ap = aligned_perturbation(np.diag([1.0, 0.0]), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="out of range"):
            schur_data(ap, 2)

    def test_partition_reconstructs_e_hat(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            a, f = degenerate_instance(rng, (2, 2, 1))
            ap = aligned_perturbation(a, hermitian(0.1 * f))
            for g, (start, stop) in enumerate(ap.blocks.groups):
                sd = schur_data(ap, g)
                k = np.diag((sd.lambda_tau - sd.rho).astype(complex)) + sd.d
                e11 = sd.b + sd.c @ np.linalg.solve(k, sd.c.conj().T)
                assert np.abs(e11 - ap.e_hat[start:stop, start:stop]).max() <= 1e-12 * ap.e_norm
                order = block_first_order(ap, g)
                assert np.array_equal(sd.c, ap.e_hat[order[: sd.l][:, None], order[sd.l :]])
                assert np.array_equal(sd.d, ap.e_hat[order[sd.l :][:, None], order[sd.l :]])

    def test_scalar_complement_is_its_oracle_eigenvalue(self):
        rng = np.random.default_rng(59)
        a, f = degenerate_instance(rng, (2, 1, 1))
        ap = scaled(aligned_perturbation(a, f), 0.05)
        for g in (1, 2):
            sd = schur_data(ap, g)
            assert np.array_equal(sd.beta, eigh(sd.b).lam)

    def test_beta_sorted_nonincreasing(self):
        rng = np.random.default_rng(31)
        a, f = degenerate_instance(rng, (3, 1))
        ap = aligned_perturbation(a, hermitian(0.05 * f))
        sd = schur_data(ap, 0)
        assert np.all(np.diff(sd.beta) <= 0)


class TestRefinedEigenvalues:
    def test_two_level_values_and_accuracy(self):
        a = np.diag([3.0, 1.0])
        e = hermitian([[0.0, 0.1], [0.1, 0.0]])
        ap = aligned_perturbation(a, e)
        refined = refined_eigenvalues(ap)
        assert np.abs(refined - [3.005, 0.995]).max() <= 1e-12
        exact = np.array([2.0 + np.sqrt(1.01), 2.0 - np.sqrt(1.01)])
        # error bound ||B|| ||C||^2 = 0.005 * 0.01
        assert np.abs(refined - exact).max() <= 5e-5

    def test_zero_perturbation_diagonal_base(self):
        ap = aligned_perturbation(np.diag([4.0, 4.0, 1.0]), np.zeros((3, 3)))
        for variant in ("full", "simplified"):
            assert np.array_equal(refined_eigenvalues(ap, variant), [4.0, 4.0, 1.0])

    def test_single_block_matches_oracle(self):
        rng = np.random.default_rng(37)
        a = 2.0 * np.eye(3)
        e = rand_hermitian(rng, 3, scale=0.1)
        ap = aligned_perturbation(a, e)
        refined = refined_eigenvalues(ap)
        assert np.abs(refined - eigh(a + e).lam).max() <= 1e-12

    def test_beats_first_order_by_a_power(self):
        rng = np.random.default_rng(41)
        for _ in range(8):
            a, f = degenerate_instance(rng, (2, 2))
            ap = aligned_perturbation(a, hermitian(0.1 * f))
            gap = np.abs(refined_eigenvalues(ap) - first_order_eigenvalues(ap)).max()
            assert gap <= 3.0 * ap.e_norm**2

    def test_simplified_tracks_full_cubically(self):
        rng = np.random.default_rng(43)
        for _ in range(8):
            a, f = degenerate_instance(rng, (2, 1, 2))
            ap = aligned_perturbation(a, hermitian(0.1 * f))
            gap = np.abs(
                refined_eigenvalues(ap, "full") - refined_eigenvalues(ap, "simplified")
            ).max()
            assert gap <= 2.0 * ap.e_norm**3

    def test_simplified_complement_formula(self):
        # B_tilde rebuilt by hand from the partition must match the package's
        # simplified refinement route
        rng = np.random.default_rng(47)
        a, f = degenerate_instance(rng, (2, 2))
        ap = aligned_perturbation(a, hermitian(0.1 * f))
        simplified = refined_eigenvalues(ap, "simplified")
        for g, (start, stop) in enumerate(ap.blocks.groups):
            sd = schur_data(ap, g)
            w = 1.0 / (sd.lambda_tau - sd.rho)
            b_tilde = ap.e_hat[start:stop, start:stop] - (sd.c * w) @ sd.c.conj().T
            b_tilde = 0.5 * (b_tilde + b_tilde.conj().T)
            beta = eigh(b_tilde).lam
            assert np.abs(simplified[start:stop] - (sd.rho + beta)).max() <= 1e-14
            assert np.abs(b_tilde - sd.b).max() <= 2.0 * ap.e_norm**3

    def test_oracle_error_at_small_t(self):
        rng = np.random.default_rng(53)
        a, f = degenerate_instance(rng, (2, 2, 1))
        ap = aligned_perturbation(a, f)
        t = 1e-3
        ap_t = scaled(ap, t)
        refined = refined_eigenvalues(ap_t)
        exact = eigh(a + t * f).lam
        for g, (start, stop) in enumerate(ap_t.blocks.groups):
            sd = schur_data(ap_t, g)
            bound = 10.0 * max(operator_norm(sd.b), 1e-300) * operator_norm(sd.c) ** 2
            assert np.abs(refined[start:stop] - exact[start:stop]).max() <= max(bound, 1e-13)

    def test_unknown_variant(self):
        ap = aligned_perturbation(np.diag([1.0, 0.0]), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="variant"):
            refined_eigenvalues(ap, "quadratic")


class TestSimilarityDiagnostic:
    def test_zero_perturbation(self):
        ap = aligned_perturbation(np.diag([4.0, 4.0, 1.0]), np.zeros((3, 3)))
        diag = schur_similarity_diagnostic(ap, 0)
        assert np.array_equal(diag.transformed, np.diag([4.0, 4.0, 1.0]).astype(complex))
        assert diag.q2_norm == 0.0 and diag.q3_norm == 0.0

    def test_single_block_corner_case(self):
        rng = np.random.default_rng(59)
        e = rand_hermitian(rng, 3, scale=0.05)
        ap = aligned_perturbation(2.0 * np.eye(3), e)
        diag = schur_similarity_diagnostic(ap, 0)
        assert diag.q2_norm == 0.0 and diag.q3_norm == 0.0
        assert np.abs(diag.transformed - (ap.e_hat + 2.0 * np.eye(3))).max() <= 1e-15

    def test_explicit_similarity_of_permuted_problem(self):
        rng = np.random.default_rng(61)
        for _ in range(6):
            a, f = degenerate_instance(rng, (2, 2, 1))
            e = hermitian(0.1 * f)
            ap = aligned_perturbation(a, e)
            for g in range(len(ap.blocks.groups)):
                sd = schur_data(ap, g)
                diag = schur_similarity_diagnostic(ap, g)
                k = np.diag((sd.lambda_tau - sd.rho).astype(complex)) + sd.d
                w = np.linalg.solve(k, sd.c.conj().T)
                eye_l = np.eye(sd.l)
                eye_m = np.eye(sd.m)
                e11 = ap.e_hat[slice(*ap.blocks.groups[g]), slice(*ap.blocks.groups[g])]
                x = np.block([[e11, sd.c], [sd.c.conj().T, k]])
                p = np.block([[eye_l, np.zeros((sd.l, sd.m))], [w, eye_m]])
                p_inv = np.block([[eye_l, np.zeros((sd.l, sd.m))], [-w, eye_m]])
                rebuilt = p @ x @ p_inv + sd.rho * np.eye(ap.n)
                assert np.abs(diag.transformed - rebuilt).max() <= 1e-10
                # the conjugated matrix keeps the spectrum of A + E
                order = block_first_order(ap, g)
                h_perm = np.diag(ap.base.lam[order].astype(complex)) + ap.e_hat[
                    order[:, None], order[None, :]
                ]
                assert np.abs(eigh(h_perm).lam - eigh(a + e).lam).max() <= 1e-12

    def test_block_norms(self):
        rng = np.random.default_rng(67)
        a, f = degenerate_instance(rng, (2, 2))
        ap = aligned_perturbation(a, hermitian(0.1 * f))
        sd = schur_data(ap, 0)
        diag = schur_similarity_diagnostic(ap, 0)
        assert diag.q2_norm == operator_norm(sd.c)
        assert diag.q3_norm <= 5.0 * operator_norm(sd.b) * operator_norm(sd.c)
        # leading corner is exactly B + rho I
        corner = diag.transformed[: sd.l, : sd.l] - sd.rho * np.eye(sd.l)
        assert np.abs(corner - sd.b).max() <= 1e-13
