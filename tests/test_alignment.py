import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import degenerate_instance, rand_hermitian, rand_unitary
from eigpert import (
    MODE_BLOCKWISE,
    MODE_RAW,
    GapTooSmallError,
    align_columns,
    aligned_perturbation,
    blockwise_diagonalize,
    conjugate_to_eigenbasis,
    eigh,
    first_order_eigenvalues,
    group_eigenvalues,
    hermitian,
    m_matrix,
    operator_norm,
    refined_eigenvalues,
    scaled,
    vc_membership,
)
from eigpert.alignment import DEFAULT_REL_GAP_TOL

# Sorting A = diag(0, 0, 1) non-increasingly permutes the input frame by this.
PERM3 = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
EXAMPLE_A3 = np.diag([0.0, 0.0, 1.0])
EXAMPLE_F3 = np.array([[1, 0, 1], [0, 0, 1], [1, 1, 0]], dtype=float)


class TestGrouping:
    def test_exact_tie(self):
        bs = group_eigenvalues([5.0, 5.0, 3.0])
        assert bs.groups == ((0, 2), (2, 3))
        assert bs.rep_values == (5.0, 3.0)
        assert bs.sizes == (2, 1)

    def test_gap_above_tolerance_stays_split(self):
        bs = group_eigenvalues([1.0, 0.999, 0.0])
        assert bs.groups == ((0, 1), (1, 2), (2, 3))

    def test_double_zero_eigenvalue(self):
        bs = group_eigenvalues([1.0, 0.0, 0.0])
        assert bs.groups == ((0, 1), (1, 3))
        assert bs.min_gap() == pytest.approx(1.0)

    def test_boundary_tie_joins(self):
        # max |lam| = 1, so the tolerance is exactly DEFAULT_REL_GAP_TOL and
        # so is the last gap, 0 - (-tol).
        tol = DEFAULT_REL_GAP_TOL
        bs = group_eigenvalues([1.0, 0.0, -tol])
        assert bs.groups == ((0, 1), (1, 3))
        bs = group_eigenvalues([1.0, 0.0, -np.nextafter(tol, 1.0)])
        assert bs.groups == ((0, 1), (1, 2), (2, 3))

    def test_tolerance_scales_with_magnitude(self):
        # A gap of 1 is far below tol * max|lam| here, so it must merge.
        bs = group_eigenvalues([1e12, 1e12 - 1.0])
        assert len(bs.groups) == 1

    def test_rejects_increasing(self):
        with pytest.raises(ValueError, match="non-increasing"):
            group_eigenvalues([1.0, 2.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            group_eigenvalues([])

    def test_block_id(self):
        bs = group_eigenvalues([5.0, 5.0, 3.0])
        assert list(bs.block_id()) == [0, 0, 1]
        assert bs.min_gap() == pytest.approx(2.0)


# Relative offsets inside a cluster, on both sides of the default tolerance.
_OFFSETS = (0.0, 1e-12, 3e-9, 1e-8, 3e-8, 1e-6, 1e-3)


@st.composite
def spectra(draw):
    """Non-increasing eigenvalue vectors of near-tied clusters.  Entries are 0
    or of magnitude in [2^-20, 2^21), so every ``2^k`` multiple with
    ``|k| <= 1000`` is exact."""
    lam = [0.0] if draw(st.booleans()) else []
    for center in draw(st.lists(st.floats(2.0**-20, 2.0**20), min_size=1, max_size=4)):
        sign = draw(st.sampled_from((1.0, -1.0)))
        for rel in draw(st.lists(st.sampled_from(_OFFSETS), min_size=1, max_size=3)):
            lam.append(sign * center * (1.0 + rel))
    return np.sort(lam)[::-1]


class TestScaleInvariantGrouping:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(lam=spectra(), k=st.integers(-1000, 1000))
    def test_groups_unchanged_by_powers_of_two(self, lam, k):
        assert group_eigenvalues(np.ldexp(lam, k)).groups == group_eigenvalues(lam).groups

    def test_predictions_scale_with_the_matrix(self):
        # An absolute floor on the grouping tolerance would merge the three
        # pairs into one block of 6 below scale about 1e-8, and every
        # prediction would lose its order of accuracy.
        rng = np.random.default_rng(2024)
        q = rand_unitary(rng, 6)
        f = rand_hermitian(rng, 6)
        f = hermitian(f / operator_norm(f))
        d = np.diag([3.0, 3.0, 1.0, 1.0, -1.5, -1.5]).astype(np.complex128)
        relative = {}
        for s in (1.0, 1e-20, 1e-100, 1e-200):
            a = hermitian(s * (q @ d @ q.conj().T))
            e = hermitian(1e-3 * s * f)
            ap = aligned_perturbation(a, e)
            assert ap.blocks.sizes == (2, 2, 2)
            exact = eigh(a + e).lam
            predictions = (
                first_order_eigenvalues(ap),
                refined_eigenvalues(ap, "full"),
                refined_eigenvalues(ap, "simplified"),
            )
            relative[s] = [float(np.abs(p - exact).max()) / s for p in predictions]
        for s, errors in relative.items():
            for error, at_one in zip(errors, relative[1.0]):
                assert error <= 2.0 * at_one, (s, errors, relative[1.0])


class TestConjugate:
    def test_identity_basis(self):
        base = eigh(np.diag([3.0, 1.0]))
        e = hermitian([[0.0, 0.1], [0.1, 0.0]])
        ap = conjugate_to_eigenbasis(base, e)
        assert ap.mode == MODE_RAW
        assert np.array_equal(ap.e_hat, e)
        assert np.array_equal(ap.e_hat_diag, [0.0, 0.0])

    def test_zero_perturbation(self):
        base = eigh(np.diag([3.0, 1.0]))
        ap = conjugate_to_eigenbasis(base, np.zeros((2, 2)))
        assert np.all(ap.e_hat == 0)
        assert np.all(ap.e_hat_off == 0)
        assert ap.e_norm == 0.0

    def test_recompute_and_split_are_consistent(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            a = rand_hermitian(rng, n)
            e = rand_hermitian(rng, n, scale=0.3)
            base = eigh(a)
            ap = conjugate_to_eigenbasis(base, e)
            recomputed = base.u.conj().T @ e @ base.u
            norm_e = operator_norm(e)
            assert np.abs(ap.e_hat - recomputed).max() <= 1e-12 * norm_e
            # diag/off split is exact by construction
            assert np.array_equal(np.diag(ap.e_hat_diag) + ap.e_hat_off, ap.e_hat)
            assert np.all(np.diag(ap.e_hat_off) == 0)
            # unitary invariance of the norm
            assert abs(ap.e_norm - norm_e) <= 1e-12 * max(1.0, norm_e)

    def test_dimension_mismatch(self):
        base = eigh(np.eye(2))
        with pytest.raises(ValueError, match="match"):
            conjugate_to_eigenbasis(base, np.zeros((3, 3)))


class TestBlockwiseDiagonalize:
    def test_two_by_two_degenerate(self):
        base = eigh(np.zeros((2, 2)))
        ap = blockwise_diagonalize(
            conjugate_to_eigenbasis(base, hermitian([[0.0, 1.0], [1.0, 0.0]]))
        )
        assert ap.mode == MODE_BLOCKWISE
        s = 1 / math.sqrt(2)
        assert np.abs(ap.base.u - np.array([[s, s], [s, -s]])).max() <= 1e-14
        assert np.abs(ap.e_hat - np.diag([1.0, -1.0])).max() <= 1e-14

    def test_simple_spectrum_is_noop(self):
        rng = np.random.default_rng(43)
        a = rand_hermitian(rng, 4)
        e = rand_hermitian(rng, 4, scale=0.1)
        raw = conjugate_to_eigenbasis(eigh(a), e)
        assert all(size == 1 for size in raw.blocks.sizes)
        done = blockwise_diagonalize(raw)
        assert np.array_equal(done.base.u, raw.base.u)
        assert np.array_equal(done.e_hat, raw.e_hat)

    def test_worked_example_block_already_diagonal(self):
        ap = aligned_perturbation(EXAMPLE_A3, EXAMPLE_F3)
        # the degenerate block of F_hat is diag(1, 0): already decreasing,
        # so the base keeps its exact permutation columns
        assert np.array_equal(ap.base.u.real, PERM3)
        assert np.all(ap.base.u.imag == 0)

    def test_mode_invariants_on_degenerate_ensemble(self):
        rng = np.random.default_rng(47)
        for _ in range(15):
            a, f = degenerate_instance(rng, (3, 2, 1))
            ap = aligned_perturbation(a, hermitian(0.05 * f))
            bid = ap.blocks.block_id()
            same = (bid[:, None] == bid[None, :]) & ~np.eye(6, dtype=bool)
            assert np.abs(ap.e_hat[same]).max() <= 1e-11 * ap.e_norm
            for start, stop in ap.blocks.groups:
                d = ap.e_hat_diag[start:stop]
                assert np.all(np.diff(d) <= 1e-11 * ap.e_norm)

    def test_preserves_spectrum_and_base(self):
        rng = np.random.default_rng(53)
        a, f = degenerate_instance(rng, (2, 2))
        base = eigh(a)
        raw = conjugate_to_eigenbasis(base, f)
        done = blockwise_diagonalize(raw)
        assert np.array_equal(done.base.lam, base.lam)
        # rotated base still diagonalizes a
        recon = done.base.u @ np.diag(done.base.lam.astype(complex)) @ done.base.u.conj().T
        assert operator_norm(recon - a) <= 1e-12 * 4 * max(1.0, operator_norm(a))
        # spectrum of e_hat is untouched by the block rotation
        assert np.abs(eigh(done.e_hat).lam - eigh(raw.e_hat).lam).max() <= 1e-12 * max(
            1.0, raw.e_norm
        )

    def test_idempotence(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            a, f = degenerate_instance(rng, (2, 1, 2))
            once = aligned_perturbation(a, f)
            twice = blockwise_diagonalize(once)
            assert np.abs(twice.e_hat - once.e_hat).max() <= 1e-11 * once.e_norm


class TestScaled:
    def test_linear_fields(self):
        rng = np.random.default_rng(61)
        a, f = degenerate_instance(rng, (2, 2))
        ap = aligned_perturbation(a, f)
        t = 0.03
        ap_t = scaled(ap, t)
        assert ap_t.mode == ap.mode
        assert np.array_equal(ap_t.e, t * ap.e)
        assert np.array_equal(ap_t.e_hat, t * ap.e_hat)
        assert np.array_equal(ap_t.e_hat_diag, t * ap.e_hat_diag)
        assert ap_t.e_norm == t * ap.e_norm

    def test_rejects_nonpositive(self):
        rng = np.random.default_rng(67)
        a, f = degenerate_instance(rng, (2, 1))
        ap = aligned_perturbation(a, f)
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                scaled(ap, bad)


class TestMMatrix:
    def test_worked_example_in_input_frame(self):
        ap = aligned_perturbation(EXAMPLE_A3, EXAMPLE_F3)
        m = m_matrix(ap.base, ap.blocks)
        printed = np.array([[0, 0, -1], [0, 0, -1], [1, 1, 0]], dtype=float)
        assert np.abs(PERM3 @ m @ PERM3.T - printed).max() <= 1e-14

    def test_two_simple_eigenvalues(self):
        ap = aligned_perturbation(np.diag([3.0, 1.0]), np.zeros((2, 2)))
        m = m_matrix(ap.base, ap.blocks)
        assert np.array_equal(m, [[0.0, 0.5], [-0.5, 0.0]])

    def test_single_block_is_zero(self):
        ap = aligned_perturbation(2.0 * np.eye(3), np.zeros((3, 3)))
        assert np.all(m_matrix(ap.base, ap.blocks) == 0)

    def test_exact_antisymmetry_and_block_zeros(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            a, f = degenerate_instance(rng, (2, 2, 1))
            ap = aligned_perturbation(a, f)
            m = m_matrix(ap.base, ap.blocks)
            assert np.array_equal(m, -m.T)
            bid = ap.blocks.block_id()
            assert np.all(m[bid[:, None] == bid[None, :]] == 0)

    def test_commutator_identity(self):
        rng = np.random.default_rng(73)
        for spec in ((1, 1, 1, 1), (2, 2, 1)):
            for _ in range(10):
                a, f = degenerate_instance(rng, spec)
                ap = aligned_perturbation(a, hermitian(0.2 * f))
                m = m_matrix(ap.base, ap.blocks)
                lam = np.diag(ap.base.lam.astype(complex))
                lhs = m * (lam @ ap.e_hat - ap.e_hat @ lam)
                assert np.abs(lhs - ap.e_hat_off).max() <= 1e-13 * ap.e_norm


class TestVcMembership:
    def test_simple_spectrum_vacuous(self):
        rng = np.random.default_rng(79)
        a = rand_hermitian(rng, 4)
        e = rand_hermitian(rng, 4, scale=0.01)
        report = vc_membership(aligned_perturbation(a, e), c=1.0, diag_tol=1e-8)
        assert report.member
        assert not report.degenerate_zero

    def test_worked_example_not_member(self):
        ap = aligned_perturbation(EXAMPLE_A3, hermitian(0.1 * EXAMPLE_F3))
        report = vc_membership(ap, c=1e-6, diag_tol=1e-6)
        assert not report.member
        # off-diagonal witness of the degenerate block is t^2 = 0.01
        assert max(report.per_block_off_diagonal) == pytest.approx(0.01, rel=1e-6)

    def test_zero_perturbation_degenerate(self):
        ap = aligned_perturbation(np.diag([2.0, 2.0, 0.0]), np.zeros((3, 3)))
        report = vc_membership(ap, c=1.0, diag_tol=1e-8)
        assert not report.member
        assert report.degenerate_zero

    def test_zero_perturbation_simple(self):
        ap = aligned_perturbation(np.diag([2.0, 1.0]), np.zeros((2, 2)))
        report = vc_membership(ap, c=1.0, diag_tol=1e-8)
        assert report.member
        assert not report.degenerate_zero

    def test_member_when_blocks_stay_diagonal(self):
        a = np.diag([1.0, 1.0, -1.0])
        e = np.diag([0.2, -0.2, 0.05])
        report = vc_membership(aligned_perturbation(a, e), c=1.0, diag_tol=1e-8)
        assert report.member
        assert report.worst_gap_ratio >= 1.0

    def test_gap_precondition(self):
        ap = aligned_perturbation(np.diag([1.0, 1.0, 0.0]), hermitian(0.6 * np.eye(3)))
        with pytest.raises(GapTooSmallError):
            vc_membership(ap, c=1.0, diag_tol=1e-8)


class TestAlignColumns:
    def test_recovers_permutation_and_phase(self):
        rng = np.random.default_rng(83)
        for _ in range(10):
            u = rand_unitary(rng, 5)
            groups = ((0, 2), (2, 5))
            shuffled = u.copy()
            shuffled[:, 0:2] = shuffled[:, [1, 0]]
            shuffled[:, 2:5] = shuffled[:, [4, 2, 3]]
            phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=5))
            candidate = shuffled * phases
            matched = align_columns(candidate, u, groups)
            assert np.abs(matched - u).max() <= 1e-12

    def test_inner_products_made_real_nonnegative(self):
        rng = np.random.default_rng(89)
        u = rand_unitary(rng, 4)
        candidate = u * np.exp(1j * rng.uniform(0, 2 * np.pi, size=4))
        matched = align_columns(candidate, u, [(0, 4)])
        for j in range(4):
            ip = np.vdot(matched[:, j], u[:, j])
            assert abs(ip.imag) <= 1e-12
            assert ip.real >= 0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            align_columns(np.eye(2), np.eye(3), [(0, 2)])
