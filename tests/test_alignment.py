import copy
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import COMPLEX_SCALARS, align_columns_loop, degenerate_instance, rand_hermitian, rand_unitary
from eigpert import (
    MODE_BLOCKWISE,
    MODE_RAW,
    BlockStructure,
    EnsembleConfig,
    GapTooSmallError,
    SpectralDecomposition,
    align_columns,
    aligned_perturbation,
    blockwise_diagonalize,
    conjugate_to_eigenbasis,
    eigh,
    first_order_eigenvalues,
    generate_instance,
    hermitian,
    line_expansion,
    m_matrix,
    operator_norm,
    refined_eigenvalues,
    scaled,
    schur_data,
    schur_similarity_diagnostic,
    vc_membership,
)
from eigpert.alignment import DEFAULT_REL_GAP_TOL, _align_stack, _base_data

# Sorting A = diag(0, 0, 1) non-increasingly permutes the input frame by this.
PERM3 = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
EXAMPLE_A3 = np.diag([0.0, 0.0, 1.0])
EXAMPLE_F3 = np.array([[1, 0, 1], [0, 0, 1], [1, 1, 0]], dtype=float)


class TestGrouping:
    def test_exact_tie(self):
        bs = _base_data([5.0, 5.0, 3.0]).blocks
        assert bs.groups == ((0, 2), (2, 3))
        assert bs.rep_values == (5.0, 3.0)

    def test_gap_above_tolerance_stays_split(self):
        bs = _base_data([1.0, 0.999, 0.0]).blocks
        assert bs.groups == ((0, 1), (1, 2), (2, 3))

    def test_double_zero_eigenvalue(self):
        bs = _base_data([1.0, 0.0, 0.0]).blocks
        assert bs.groups == ((0, 1), (1, 3))
        assert bs.rep_values == (1.0, 0.0)

    def test_boundary_tie_joins(self):
        # max |lam| = 1, so the tolerance is exactly DEFAULT_REL_GAP_TOL and
        # so is the last gap, 0 - (-tol).
        tol = DEFAULT_REL_GAP_TOL
        bs = _base_data([1.0, 0.0, -tol]).blocks
        assert bs.groups == ((0, 1), (1, 3))
        bs = _base_data([1.0, 0.0, -np.nextafter(tol, 1.0)]).blocks
        assert bs.groups == ((0, 1), (1, 2), (2, 3))

    def test_tolerance_scales_with_magnitude(self):
        # A gap of 1 is far below tol * max|lam| here, so it must merge.
        bs = _base_data([1e12, 1e12 - 1.0]).blocks
        assert len(bs.groups) == 1

    def test_rejects_increasing(self):
        with pytest.raises(ValueError, match="non-increasing"):
            _base_data([1.0, 2.0]).blocks

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            _base_data([]).blocks

    def test_block_id(self):
        bs = _base_data([5.0, 5.0, 3.0]).blocks
        assert list(bs.block_id()) == [0, 0, 1]


class TestBlockStructure:
    @pytest.mark.parametrize(
        "groups",
        [((1, 3), (0, 1), (3, 4)), ((0, 2), (1, 4)), ((0, 1), (2, 4)), ((0, 2), (2, 2), (2, 4)), ((1, 4),)],
        ids=["unsorted", "overlapping", "gapped", "empty_group", "late_start"],
    )
    def test_rejects_groups_that_do_not_split_a_range(self, groups):
        with pytest.raises(ValueError, match=r"does not split 0\.\.4 into nonempty ranges in order"):
            BlockStructure(groups, tuple(0.0 for _ in groups))

    def test_rejects_a_representative_count_other_than_the_groups(self):
        for reps in ((), (1.0,), (1.0, 0.0, -1.0)):
            with pytest.raises(ValueError, match="representative values for 2 groups"):
                BlockStructure(((0, 2), (2, 3)), reps)

    def test_the_empty_split_is_valid(self):
        blocks = BlockStructure((), ())
        assert blocks.groups == () and blocks.block_id().size == 0


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
        assert _base_data(np.ldexp(lam, k)).blocks.groups == _base_data(lam).blocks.groups

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
            assert ap.blocks.groups == ((0, 2), (2, 4), (4, 6))
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

    @pytest.mark.parametrize(
        "u, lam",
        [(np.eye(3), [2.0, 1.0]), (np.eye(2), [3.0, 2.0, 1.0]), (np.eye(3)[:, :2], [2.0, 1.0])],
        ids=["lam_short", "lam_long", "u_not_square"],
    )
    def test_rejects_a_base_whose_lam_does_not_match_its_u(self, u, lam):
        # Such a base used to give a record of the wrong size, or numpy's
        # bare broadcasting error later on.
        base = SpectralDecomposition(u=u.astype(complex), lam=np.array(lam))
        with pytest.raises(ValueError, match="do not match eigenvectors"):
            conjugate_to_eigenbasis(base, np.zeros(u.shape[:1] * 2))

    @pytest.mark.parametrize("warnings_as", ["error", "ignore"])
    @pytest.mark.parametrize("entry", ["first_order", "aligned_perturbation", "line_expansion"])
    def test_an_overflowing_conjugation_is_refused(self, entry, warnings_as):
        # Finite inputs whose U* E U overflows: the records held inf, and
        # under error::RuntimeWarning a bare RuntimeWarning escaped.
        lam, e = np.array([3e300, 0.0, -3e300]), np.full((3, 3), 1e308)
        base = SpectralDecomposition(u=np.eye(3, dtype=complex), lam=lam)
        calls = {
            "first_order": lambda: first_order_eigenvalues(blockwise_diagonalize(conjugate_to_eigenbasis(base, e))),
            "aligned_perturbation": lambda: aligned_perturbation(np.diag(lam), e),
            "line_expansion": lambda: line_expansion(np.diag(lam), e),
        }
        with warnings.catch_warnings():
            warnings.simplefilter(warnings_as, RuntimeWarning)
            with pytest.raises(ValueError, match="overflows"):
                calls[entry]()


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
        assert raw.blocks.groups == ((0, 1), (1, 2), (2, 3), (3, 4))
        done = blockwise_diagonalize(raw)
        assert np.array_equal(done.base.u, raw.base.u)
        assert np.array_equal(done.e_hat, raw.e_hat)

    @pytest.mark.parametrize("spec", [(1, 1, 1, 1), (2, 2, 1), (4,) * 4])
    def test_rotated_eigenvectors_are_row_major(self, spec):
        # The oracle's eigenvectors come back column-major; the rotated ones
        # are laid out row-major whatever the input's order, with or without
        # a block to rotate, as products downstream may round by layout.
        rng = np.random.default_rng(len(spec))
        a, f = degenerate_instance(rng, spec)
        base = eigh(a)
        for u in (base.u, np.asfortranarray(base.u), np.ascontiguousarray(base.u)):
            ap = blockwise_diagonalize(conjugate_to_eigenbasis(SpectralDecomposition(u=u, lam=base.lam), f))
            assert ap.base.u.flags.c_contiguous

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
        # By bytes, so that signed zeros count as well.
        assert ap_t.e_hat_diag.tobytes() == (t * ap.e_hat_diag).tobytes()
        assert ap_t.e_hat_off.tobytes() == (t * ap.e_hat_off).tobytes()
        assert ap_t.e_norm == t * ap.e_norm

    def test_rejects_nonpositive(self):
        rng = np.random.default_rng(67)
        a, f = degenerate_instance(rng, (2, 1))
        ap = aligned_perturbation(a, f)
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                scaled(ap, bad)

    @pytest.mark.parametrize("t", COMPLEX_SCALARS)
    def test_rejects_complex(self, t):
        ap = aligned_perturbation(np.diag([1.0, 1.0, 0.0]), hermitian(0.01 * EXAMPLE_F3))
        with pytest.raises(ValueError, match="t must be real"):
            scaled(ap, t)

    @pytest.mark.parametrize("warnings_as", ["error", "ignore"])
    def test_an_overflowing_product_is_refused(self, warnings_as):
        # The record held inf in e and e_hat, so first-order eigenvalues read
        # +-inf and Gershgorin intervals (inf, nan); under
        # error::RuntimeWarning a bare RuntimeWarning escaped.
        cfg = EnsembleConfig(seed=1, n=6, block_spec=(2, 2, 1, 1), trials=1, predictor="first_order")
        a, f = generate_instance(cfg, 0)
        ap = aligned_perturbation(a, 1e300 * f)
        with warnings.catch_warnings():
            warnings.simplefilter(warnings_as, RuntimeWarning)
            with pytest.raises(ValueError, match="overflows"):
                scaled(ap, 1e10)


MALFORMED = r"does not split 0\.\.4 into nonempty ranges in order"
NOT_THE_BASES = r"is not the grouping \(\(0, 1\), \(1, 2\), \(2, 3\), \(3, 4\)\) of the base"


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


    @pytest.mark.parametrize(
        "groups, message",
        [
            (((1, 3), (0, 1), (3, 4)), MALFORMED),
            (((0, 2), (1, 4)), MALFORMED),
            (((0, 1), (2, 4)), MALFORMED),
            (((0, 2), (2, 2), (2, 4)), MALFORMED),
            # Valid structures of other sizes: not the grouping of the base.
            (((0, 2), (2, 3)), NOT_THE_BASES),
            (((0, 2), (2, 5)), NOT_THE_BASES),
            ((), NOT_THE_BASES),
        ],
        ids=["unsorted", "overlapping", "gapped", "empty_group", "short", "long", "no_groups"],
    )
    def test_rejects_malformed_block_structures(self, groups, message):
        # Each would otherwise give a plausible wrong M, a divide-by-zero
        # warning or a bare broadcasting error.
        base = SpectralDecomposition(u=np.eye(4, dtype=complex), lam=np.array([3.0, 2.0, 1.0, 0.0]))
        with pytest.raises(ValueError, match=message):
            m_matrix(base, BlockStructure(groups, tuple(0.0 for _ in groups)))


@pytest.mark.parametrize(
    "lam", [[3.0, np.nan, 0.0], [np.inf, 2.0, 0.0], [3.0, 2.0, -np.inf]], ids=["nan", "inf", "-inf"]
)
def test_non_finite_eigenvalues_are_refused(lam):
    # A NaN would join every index into one block, and an infinity would
    # make the inverse gaps warn; both are usage errors.
    base = SpectralDecomposition(u=np.eye(3, dtype=complex), lam=np.array(lam))
    with pytest.raises(ValueError, match="eigenvalues must be finite"):
        conjugate_to_eigenbasis(base, np.zeros((3, 3)))
    blocks = BlockStructure(((0, 1), (1, 2), (2, 3)), (0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="eigenvalues must be finite"):
        m_matrix(base, blocks)


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

    @pytest.mark.parametrize("c, diag_tol", [(math.nan, 1e-8), (1.0, math.nan), (-1.0, 1e-8)])
    def test_rejects_negative_or_nan_thresholds(self, c, diag_tol):
        ap = aligned_perturbation(np.diag([1.0, 1.0, 0.0]), hermitian(0.01 * EXAMPLE_F3))
        with pytest.raises(ValueError, match="nonnegative"):
            vc_membership(ap, c=c, diag_tol=diag_tol)

    @pytest.mark.parametrize("z", COMPLEX_SCALARS)
    def test_rejects_complex_thresholds(self, z):
        ap = aligned_perturbation(np.diag([1.0, 1.0, 0.0]), hermitian(0.01 * EXAMPLE_F3))
        with pytest.raises(ValueError, match="c must be real"):
            vc_membership(ap, z, 1.0)
        with pytest.raises(ValueError, match="diag_tol must be real"):
            vc_membership(ap, 1.0, z)


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

    def test_refuses_1d_input(self):
        with pytest.raises(ValueError, match="expected matrices, got 1-d data"):
            align_columns(np.ones(3), np.ones(3), [(0, 3)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
    @pytest.mark.parametrize("side", ["candidate", "reference"])
    def test_refuses_non_finite_input(self, bad, side):
        # A NaN candidate came back as a NaN column, with no error.
        u = rand_unitary(np.random.default_rng(103), 3)
        spoiled = u.copy()
        spoiled[1, 2] = bad
        args = (spoiled, u) if side == "candidate" else (u, spoiled)
        with pytest.raises(ValueError, match=r"matrix entries must be finite \(no NaN or Inf\)"):
            align_columns(*args, [(0, 3)])

    @pytest.mark.parametrize(
        "groups",
        [[(0, 5)], [(2, 1)], [(1, 1)], [(-1, 2)], [(0, 2), (1, 3)]],
        ids=["past-the-end", "reversed", "empty", "negative", "overlapping"],
    )
    def test_rejects_invalid_groups(self, groups):
        u = rand_unitary(np.random.default_rng(97), 3)
        with pytest.raises(ValueError, match="column groups"):
            align_columns(u, u, groups)

    def test_fortran_order_matches_the_loop(self):
        # From 9 rows up np.vdot's sums depend on the columns' layout; the
        # match keeps the input's own, so column-major input gets the loop's bits.
        rng = np.random.default_rng(101)
        reference = rand_unitary(rng, 20)
        candidate = np.asfortranarray(reference[:, rng.permutation(20)] * 1j + 1e-3 * rand_unitary(rng, 20))
        want = align_columns_loop(candidate, reference, [(0, 20)])
        assert same_bits(align_columns(candidate, reference, [(0, 20)]), want)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def column_groups(rng: np.random.Generator, n: int) -> list[tuple[int, int]]:
    """Random contiguous ranges over ``n`` columns, one of them left out when
    there are several, so that some columns pass through unmatched."""
    cuts = [0, *sorted(rng.choice(np.arange(1, n), size=min(n - 1, 3), replace=False).tolist()), n]
    groups = list(zip(cuts[:-1], cuts[1:]))
    if len(groups) > 2:
        del groups[rng.integers(len(groups))]
    return groups


def gauge_stack(rng: np.random.Generator, members: int, rows: int, n: int, groups) -> tuple[np.ndarray, np.ndarray]:
    """``members`` seeded (candidate, reference) pairs ``(rows, n)``: each
    candidate is its reference with the columns of every group permuted,
    phased and perturbed by up to 10%, each side scaled by its own power of
    two in 2**-1000 .. 2**1000, so that some overlaps underflow to zero
    and some overflow."""
    shape = (members, rows, n)
    reference = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    candidate = reference * np.exp(2j * np.pi * rng.uniform(size=(members, 1, n)))
    for start, stop in groups:
        for i in range(members):
            candidate[i, :, start:stop] = candidate[i][:, start + rng.permutation(stop - start)]
    candidate += 0.1 * rng.uniform() * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    scales = 2.0 ** rng.integers(-1000, 1001, size=(2, members, 1, 1)).astype(float)
    return candidate * scales[0], reference * scales[1]


class TestAlignStack:
    """The stacked column match against the per-column ``np.vdot`` loop, bit
    for bit, member by member."""

    @staticmethod
    def matches_the_loop(candidate: np.ndarray, reference: np.ndarray, groups) -> None:
        # Overflowing overlaps give NaN phases, as they do in the loop.
        with np.errstate(all="ignore"):
            want = np.array([align_columns_loop(c, r, groups) for c, r in zip(candidate, reference)])
            got = _align_stack(candidate, reference, groups)
        assert same_bits(got, want)

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 8, 9, 20, 60])
    @pytest.mark.parametrize("extra_rows", [0, 3], ids=["square", "tall"])
    def test_seeded_stacks_match_the_loop(self, n, extra_rows):
        rng = np.random.default_rng(1000 + 10 * n + extra_rows)
        groups = column_groups(rng, n)
        candidate, reference = gauge_stack(rng, 40, n + extra_rows, n, groups)
        # A zero column (its overlaps are 0 and its phase 1), and NaN and
        # infinite entries in a few members.
        candidate[0, :, 0] = 0.0
        candidate[1, 0, n - 1] = np.nan
        candidate[2, -1, 0] = np.inf
        reference[3, 0, n // 2] = complex(-np.inf, 1.0)
        reference[4, :, n - 1] = np.nan
        self.matches_the_loop(candidate, reference, groups)

    def test_wide_candidate_matches_the_loop(self):
        rng = np.random.default_rng(103)
        candidate, reference = gauge_stack(rng, 40, 4, 9, [(0, 5), (5, 9)])
        self.matches_the_loop(candidate, reference, [(0, 5), (5, 9)])

    def test_exact_ties_go_to_the_smallest_index(self):
        # Three copies of one column tie exactly against every reference
        # column: they are taken in index order.
        rng = np.random.default_rng(107)
        reference = rand_unitary(rng, 4)
        candidate = np.repeat(reference[:, :1] * 1j, 4, axis=1)
        candidate[:, 3] = reference[:, 3]
        got = align_columns(candidate, reference, [(0, 4)])
        assert same_bits(got, align_columns_loop(candidate, reference, [(0, 4)]))
        self.matches_the_loop(np.stack([candidate] * 3), np.stack([reference] * 3), [(0, 4)])

    def test_moduli_round_as_the_scalar_abs(self):
        # Against the first unit vector the two candidate columns overlap in
        # exactly these values.  The scalar abs (a libm hypot) puts the second
        # one ulp above the first; numpy's array abs of a complex puts it one
        # ulp below, which would pick the first column instead.
        z = np.array([0.357380410658956 + 0.014831041497707096j, -0.3048785098245847 - 0.18705563867954195j])
        assert abs(z[1]) > abs(z[0])
        candidate = np.array([z.conj(), [0.0, 1.0]])
        matched = align_columns(candidate, np.eye(2), [(0, 2)])
        assert same_bits(matched, align_columns_loop(candidate, np.eye(2), [(0, 2)]))
        # The second column was taken for the first reference column.
        assert matched[1, 0] != 0.0 and matched[1, 1] == 0.0

    @pytest.mark.parametrize("rows", [1, 2])
    def test_phases_of_special_overlaps_match_the_loop(self, rows):
        # Against the first unit vector a column overlaps in the conjugate of
        # its first entry: every pair of real and imaginary parts from
        # signed zeros and subnormals to the largest finite value, whose
        # modulus underflows or overflows and whose phase is formed by array
        # arithmetic instead of the loop's scalar division.
        tiny = np.finfo(float)
        specials = [0.0, 5e-324, tiny.tiny, 1e-300, 1e300, tiny.max]
        specials += [-x for x in specials]
        parts = np.array([(x, y) for x in specials for y in specials])
        candidate = np.zeros((len(parts), rows, 1), np.complex128)
        candidate[:, 0, 0].real, candidate[:, 0, 0].imag = parts[:, 0], -parts[:, 1]
        reference = np.zeros_like(candidate)
        reference[:, 0] = 1.0
        self.matches_the_loop(candidate, reference, [(0, 1)])

    @pytest.mark.parametrize("n", [2, 3, 6, 8, 9, 20, 60])
    @pytest.mark.parametrize("column_major", [False, True], ids=["strided", "contiguous"])
    def test_vecdot_rounds_as_vdot(self, n, column_major):
        # The premise of the stacked match: over the column views of a stack,
        # in either layout, one np.vecdot gives np.vdot's bits for every
        # column pair.
        rng = np.random.default_rng(109 + n)
        c, r = (rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n)) for _ in range(2))
        if column_major:
            c, r = (np.ascontiguousarray(x.swapaxes(1, 2)).swapaxes(1, 2) for x in (c, r))
        z = np.vecdot(c.swapaxes(-1, -2)[..., :, None, :], r.swapaxes(-1, -2)[..., None, :, :])
        want = [[[np.vdot(ci[:, k], ri[:, j]) for j in range(n)] for k in range(n)] for ci, ri in zip(c, r)]
        assert same_bits(z, np.array(want))


# Each result record that holds arrays, from the worked example's expansion.
ARRAY_RECORDS = {
    "SpectralDecomposition": lambda lex: lex.ap.base,
    "_BaseData": lambda lex: lex.ap.data,
    "AlignedPerturbation": lambda lex: lex.ap,
    "SchurData": lambda lex: schur_data(scaled(lex.ap, 0.01), 0),
    "SimilarityDiagnostic": lambda lex: schur_similarity_diagnostic(scaled(lex.ap, 0.01), 0),
    "LineExpansion": lambda lex: lex,
    "EigensystemPrediction": lambda lex: lex.at(0.01),
}


@pytest.mark.parametrize("name", sorted(ARRAY_RECORDS))
def test_array_records_compare_and_hash_by_identity(name):
    # Field-wise equality would ask an array for its truth value and hashing
    # would hash an array; a record is equal only to itself instead.
    record = ARRAY_RECORDS[name](line_expansion(EXAMPLE_A3, EXAMPLE_F3))
    assert type(record).__name__ == name
    twin = copy.deepcopy(record)
    assert record == record and not (record != record)
    assert record != twin and not (record == twin)
    assert hash(record) == hash(record)
    assert len({record, twin, record}) == 2
