import numpy as np
import pytest

from dataclasses import replace

from conftest import (
    COMPLEX_SCALARS,
    SCALE_EXPONENTS,
    STACK_SPECS,
    degenerate_instance,
    n_matrix_loop,
    rand_hermitian,
    rand_unitary,
    scaled_record,
    tie_gaps_loop,
)
from eigpert import rayleigh
from eigpert import (
    DegenerateDirectionError,
    EnsembleConfig,
    GapTooSmallError,
    ModeError,
    PreconditionError,
    SpectralDecomposition,
    aligned_perturbation,
    conjugate_to_eigenbasis,
    eigenvector_derivative,
    eigh,
    generate_instance,
    hermitian,
    line_expansion,
    m_matrix,
    n_matrix,
    operator_norm,
    predict_eigensystem,
    refined_eigenvalues,
    rs_coefficients,
    scaled,
)

PERM3 = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
EXAMPLE_A3 = np.diag([0.0, 0.0, 1.0])
EXAMPLE_F3 = np.array([[1, 0, 1], [0, 0, 1], [1, 1, 0]], dtype=float)

N_EXPECTED = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]], dtype=float)
U_PRIME_EXPECTED = np.array([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]], dtype=float)


def worked_example():
    ap = aligned_perturbation(EXAMPLE_A3, hermitian(EXAMPLE_F3))
    return ap, m_matrix(ap.base, ap.blocks)


def to_input_frame(x):
    return PERM3 @ x @ PERM3.T


def seed_instance():
    """The generated ``(A, F)`` of seed 1 with blocks (2, 2, 1, 1), ``||F|| = 1``."""
    cfg = EnsembleConfig(seed=1, n=6, block_spec=(2, 2, 1, 1), trials=1, predictor="first_order")
    return generate_instance(cfg, 0)


class TestCoefficients:
    def test_raw_mode_rejected(self):
        base = eigh(np.diag([2.0, 2.0]))
        ap = conjugate_to_eigenbasis(base, hermitian([[0.1, 0.0], [0.0, -0.1]]))
        with pytest.raises(ModeError):
            rs_coefficients(ap)
        with pytest.raises(ModeError):
            n_matrix(ap)

    def test_two_level_closed_form(self):
        ap = aligned_perturbation(np.diag([3.0, 1.0]), hermitian([[0.0, 1.0], [1.0, 0.0]]))
        a0, a1, a2 = rs_coefficients(ap)
        assert np.array_equal(a0, [3.0, 1.0])
        assert np.array_equal(a1, [0.0, 0.0])
        assert np.array_equal(a2, [0.5, -0.5])

    def test_two_level_quartic_error(self):
        # exact eigenvalues of diag(3, 1) + t * offdiag are 2 +- sqrt(1 + t^2)
        a = np.diag([3.0, 1.0])
        f = hermitian([[0.0, 1.0], [1.0, 0.0]])
        ap = aligned_perturbation(a, f)
        mmat = m_matrix(ap.base, ap.blocks)
        for t in (0.1, 0.05, 0.01):
            xi = predict_eigensystem(ap, mmat, t).xi_hat
            root = np.sqrt(1.0 + t * t)
            exact = np.array([2.0 + root, 2.0 - root])
            assert np.abs(xi - exact).max() <= 2.0 * t**4

    def test_worked_example_polynomials(self):
        ap, _ = worked_example()
        a0, a1, a2 = rs_coefficients(ap)
        assert np.array_equal(a0, [1.0, 0.0, 0.0])
        assert np.array_equal(a1, [0.0, 1.0, 0.0])
        assert np.abs(a2 - [2.0, -1.0, -1.0]).max() <= 1e-14

    def test_tied_direction_rejected(self):
        # The block {0, 0} of diag(0, 0, 1) sees F_hat with tied diagonal
        # (0, 0); the oracle's (xi - a0 - t a1) / t^2 tends to [2, 0, -2],
        # which the cross-block a2 formula cannot produce.
        ap = aligned_perturbation(EXAMPLE_A3, hermitian([[0, 0, 1], [0, 0, 1], [1, 1, 0]]))
        with pytest.raises(DegenerateDirectionError, match="tied diagonal"):
            rs_coefficients(ap)

    def test_quadratic_form_route_agrees(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            a, f = degenerate_instance(rng, (2, 2, 1))
            ap = aligned_perturbation(a, f)
            _, _, a2 = rs_coefficients(ap)
            lam = ap.base.lam
            bid = ap.blocks.block_id()
            for j in range(ap.n):
                w = np.zeros(ap.n)
                outside = bid != bid[j]
                w[outside] = 1.0 / (lam[outside] - lam[j])
                q = ap.e_hat.conj().T @ np.diag(w) @ ap.e_hat
                assert abs(a2[j] - (-q[j, j].real)) <= 1e-13 * max(1.0, ap.e_norm**2)

    def test_diagonal_direction_expands_exactly(self):
        a = np.diag([3.0, 1.0])
        f = np.diag([0.5, -0.25])
        ap = aligned_perturbation(a, f)
        a0, a1, a2 = rs_coefficients(ap)
        assert np.array_equal(a1, [0.5, -0.25])
        assert np.array_equal(a2, [0.0, 0.0])
        mmat = m_matrix(ap.base, ap.blocks)
        pred = predict_eigensystem(ap, mmat, 0.3)
        assert np.array_equal(pred.xi_hat, [3.0 + 0.3 * 0.5, 1.0 - 0.3 * 0.25])
        assert np.array_equal(pred.u_hat, ap.base.u)


class TestNMatrix:
    def test_worked_example_rotation_generator(self):
        ap, mmat = worked_example()
        nm = n_matrix(ap)
        assert np.abs(to_input_frame(nm) - N_EXPECTED).max() <= 1e-13

    def test_worked_example_derivative_and_naive_gap(self):
        ap, mmat = worked_example()
        u_prime = eigenvector_derivative(ap, mmat) @ PERM3.T
        assert np.abs(u_prime - U_PRIME_EXPECTED).max() <= 1e-13
        # dropping the in-block rotation loses exactly N
        naive = (ap.base.u @ (-mmat * ap.e_hat)) @ PERM3.T
        assert np.abs(naive - np.array([[0, 0, 1], [0, 0, 1], [-1, -1, 0]])).max() <= 1e-13
        assert np.abs((u_prime - naive) - N_EXPECTED).max() <= 1e-13

    def test_zero_numerator_keeps_n_zero(self):
        a = np.diag([5.0, 5.0, 2.0])
        f = hermitian([[0.5, 0.0, 1.0], [0.0, -0.5, 0.0], [1.0, 0.0, 0.0]])
        ap = aligned_perturbation(a, f)
        assert np.abs(n_matrix(ap)).max() <= 1e-15

    def test_tied_direction_rejected(self):
        a = np.diag([4.0, 4.0, 1.0])
        f = hermitian([[0.3, 0.0, 1.0], [0.0, 0.3, 0.0], [1.0, 0.0, 0.0]])
        ap = aligned_perturbation(a, f)
        with pytest.raises(DegenerateDirectionError, match="tied diagonal"):
            n_matrix(ap)

    def test_simple_spectrum_reduces_to_inverse_gap_term(self):
        rng = np.random.default_rng(73)
        a = rand_hermitian(rng, 4)
        f = rand_hermitian(rng, 4)
        ap = aligned_perturbation(a, f)
        assert np.all(n_matrix(ap) == 0)
        mmat = m_matrix(ap.base, ap.blocks)
        assert np.array_equal(eigenvector_derivative(ap, mmat), -(ap.base.u @ (mmat * ap.e_hat)))

    def test_skew_hermitian_invariants(self):
        rng = np.random.default_rng(79)
        checked = 0
        for _ in range(30):
            a, f = degenerate_instance(rng, (2, 2, 1))
            ap = aligned_perturbation(a, f)
            try:
                nm = n_matrix(ap)
            except DegenerateDirectionError:
                continue
            checked += 1
            scale = max(1.0, ap.e_norm)
            assert np.abs(nm + nm.conj().T).max() <= 1e-13 * scale
            mmat = m_matrix(ap.base, ap.blocks)
            u_prime = eigenvector_derivative(ap, mmat)
            g = ap.base.u.conj().T @ u_prime
            assert np.abs(g + g.conj().T).max() <= 1e-13 * scale
        # random directions essentially never tie a block diagonal
        assert checked >= 28


def cross_block_weights(ap, j):
    """``1 / (lam_k - lam_j)`` for ``k`` outside the block of ``j``, else 0."""
    lam, bid = ap.base.lam, ap.blocks.block_id()
    cross = bid != bid[j]
    w = np.zeros(ap.n)
    w[cross] = 1.0 / (lam[cross] - lam[j])
    return w


def reference_a2(ap):
    """``a2_j = sum_k |F_hat[k, j]|^2 / (lam_j - lam_k)``, one index at a time."""
    return np.array(
        [-np.sum(cross_block_weights(ap, j) * np.abs(ap.e_hat[:, j]) ** 2) for j in range(ap.n)]
    )


def reference_n(ap):
    """``N[i, j] = (F_hat* P_j F_hat)[i, j] / (F_hat[i, i] - F_hat[j, j])`` for
    ``i != j`` in one block, with ``P_j`` the cross-block weights of ``j``."""
    out = np.zeros((ap.n, ap.n), dtype=np.complex128)
    d = ap.e_hat_diag
    for start, stop in ap.blocks.groups:
        for j in range(start, stop):
            v = ap.e_hat.conj().T @ (cross_block_weights(ap, j) * ap.e_hat[:, j])
            for i in range(start, stop):
                if i != j:
                    out[i, j] = v[i] / (d[i] - d[j])
    return out


class TestClosedForms:
    """The array forms over ``M`` reproduce the per-index definitions bit for
    bit, which also pins the sign and orientation of the antisymmetric ``M``."""

    @pytest.mark.parametrize(
        "spec, count",
        [((4,) * 15, 2), ((2, 2, 1, 1), 6), ((3, 2, 2, 1), 6), ((1,) * 7, 4), ((5,), 2)],
        ids=["15x4", "2211", "3221", "7x1", "5"],
    )
    def test_match_per_index_definitions(self, spec, count):
        rng = np.random.default_rng(sum(spec) * 100 + len(spec))
        for _ in range(count):
            ap = aligned_perturbation(*degenerate_instance(rng, spec))
            assert np.array_equal(rs_coefficients(ap)[2], reference_a2(ap))
            assert np.array_equal(n_matrix(ap), reference_n(ap))


class TestStackedN:
    """``N`` forms every column of a multi-member block in one ``np.matmul``
    over the stack of columns, with the bits of the per-column loop, and a
    stack of records gives each member the bits of its stack of one."""

    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("n", sorted(STACK_SPECS))
    def test_matches_the_column_loop(self, n, layout):
        rng = np.random.default_rng([n, 17])
        for k in range(10):
            ap = scaled_record(rng, STACK_SPECS[n], SCALE_EXPONENTS[k % 5])
            if layout == "F":
                ap = replace(ap, e_hat=np.asfortranarray(ap.e_hat))
            mmat = m_matrix(ap.base, ap.blocks)
            got = rayleigh._n_matrix(ap.e_hat[None], mmat[None], ap.data.same, ap.data.same_cols)[0]
            assert got.tobytes() == n_matrix_loop(ap, mmat).tobytes()
        # A 100-member stack: from 9 rows up, products round by layout, and
        # a change that touches a few members shows only member by member.
        aps = [scaled_record(rng, STACK_SPECS[n], x) for x in np.resize(SCALE_EXPONENTS, 100)]
        e_hat = np.stack([ap.e_hat for ap in aps])
        if layout == "F":
            e_hat = np.ascontiguousarray(e_hat.swapaxes(1, 2)).swapaxes(1, 2)
        mmat = np.stack([ap.data.m for ap in aps])
        same, cols = aps[0].data.same, aps[0].data.same_cols
        stacked = rayleigh._n_matrix(e_hat, mmat, same, cols)
        for i in range(len(aps)):
            alone = rayleigh._n_matrix(e_hat[i : i + 1], mmat[i : i + 1], same, cols)
            assert stacked[i].tobytes() == alone[0].tobytes()

    @pytest.mark.parametrize("stack", [1, 100])
    @pytest.mark.parametrize("layout", ["strided", "contiguous"])
    @pytest.mark.parametrize("n", [2, 3, 6, 9, 20, 60, 100])
    def test_matmul_stack_rounds_as_matrix_vector_products(self, n, layout, stack):
        # The premise: np.matmul(fh, X[:, :, None]) gives the bits of
        # fh @ X[j] for every row j, in either layout of fh.
        rng = np.random.default_rng([n, stack])
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        fh = g.conj().T if layout == "strided" else np.ascontiguousarray(g.conj().T)
        x = rng.standard_normal((stack, n)) + 1j * rng.standard_normal((stack, n))
        x *= 2.0 ** np.resize(SCALE_EXPONENTS, stack)[:, None]
        stacked = np.matmul(fh, x[:, :, None])
        for j in range(stack):
            assert stacked[j, :, 0].tobytes() == (fh @ x[j]).tobytes()


class TestStackedTieGuard:
    """The tie guard's smallest gap per block, found in one expression, is the
    per-block loop's, and a refusal names the block the loop names."""

    @pytest.mark.parametrize("spec", [(3, 2, 1), (1, 2, 3, 1, 2), (4,) * 15, STACK_SPECS[60], (5,)])
    def test_names_the_block_the_loop_names(self, spec):
        rng = np.random.default_rng(len(spec))
        n = sum(spec)
        base = SpectralDecomposition(u=np.eye(n, dtype=complex), lam=np.repeat(-np.arange(len(spec), dtype=float), spec))
        for k in range(40):
            d = np.sort(rng.standard_normal(n))[::-1]
            # Plant exact ties and near ties at random places, some across
            # block boundaries, where they do not count.
            for i in rng.choice(n - 1, size=k % 4, replace=False):
                d[i + 1] = d[i] - (0.0 if k % 2 else 1e-12)
            if k % 5 == 4:
                rng.shuffle(d)
            ap = conjugate_to_eigenbasis(base, np.diag(d).astype(complex))
            multi, gaps = tie_gaps_loop(ap.e_hat_diag, ap.blocks.groups)
            # Planted gaps are at most 1e-12 and the others far above the
            # threshold, so the norm's upper bound decides without the oracle.
            if all(g > rayleigh.STRICT_DIAGONAL_TOL * ap.norm.upper for g in gaps):
                rayleigh._require_untied(ap)
                continue
            j = int(np.argmin(gaps))
            with pytest.raises(DegenerateDirectionError) as info:
                rayleigh._require_untied(ap)
            assert f"(gap {gaps[j]:.3e}) inside eigenvalue block [{multi[j][0]}, {multi[j][1]})" in str(info.value)

    def test_ties_across_a_boundary_pass(self):
        base = SpectralDecomposition(u=np.eye(4, dtype=complex), lam=np.array([1.0, 1.0, 0.0, 0.0]))
        rayleigh._require_untied(conjugate_to_eigenbasis(base, np.diag([1.0, 0.5, 0.5, 0.0]).astype(complex)))


class TestScaleEquivariance:
    @pytest.mark.parametrize("s", [2.0**-66, 1e-20, 1e-200, 1e-300, 1e200])
    def test_second_order_scales_with_the_matrix(self, s):
        # A and F scaled together by s: a2 scales by s and N is unchanged.
        # A tie guard with an absolute floor would refuse this direction
        # below scale about 1e-8, and |F_hat|^2 formed without a prescale
        # would underflow to a2 = 0 at 1e-200 and overflow to NaN at 1e200.
        rng = np.random.default_rng(2024)
        q = rand_unitary(rng, 6)
        f = rand_hermitian(rng, 6)
        f = hermitian(f / operator_norm(f))
        a = q @ np.diag([3.0, 3.0, 1.0, 1.0, -1.5, -1.5]).astype(np.complex128) @ q.conj().T

        def second_order(scale):
            ap = aligned_perturbation(hermitian(scale * a), hermitian(scale * f))
            return rs_coefficients(ap)[2] / scale, n_matrix(ap)

        a2_one, n_one = second_order(1.0)
        a2, n = second_order(s)
        if s == 2.0**-66:
            assert np.array_equal(a2, a2_one) and np.array_equal(n, n_one)
        assert np.abs(a2 - a2_one).max() <= 1e-14 * np.abs(a2_one).max()
        assert np.abs(n - n_one).max() <= 1e-14 * np.abs(n_one).max()

    @pytest.mark.parametrize("k", [-1000, -700, -540, -520, -300, 300, 515, 540, 700, 1000])
    def test_first_order_eigenvectors_scale_exactly_with_the_direction(self, k):
        # F alone scaled by 2**k: N and U'(0) scale by exactly 2**k.  The
        # k lie past both ends of the range where F_hat* (M * F_hat) can be
        # formed unscaled: it goes subnormal below about 2**-520 (N = 0 from
        # 2**-540) and overflows to NaN from 2**515.
        a, f = seed_instance()
        one, ap = aligned_perturbation(a, f), aligned_perturbation(a, 2.0**k * f)
        assert np.array_equal(n_matrix(ap), 2.0**k * n_matrix(one))
        derivative = eigenvector_derivative(ap, ap.data.m)
        assert np.array_equal(derivative, 2.0**k * eigenvector_derivative(one, one.data.m))
        if k < 0:
            # The line expansion's too, where its a2 does not overflow.
            lex = line_expansion(a, 2.0**k * f)
            assert np.array_equal(lex.n_mat, 2.0**k * n_matrix(one))
            assert np.array_equal(lex.u_prime, derivative)


class TestOverflow:
    """Second-order results past the floating-point range are refused with
    ``ValueError``, not returned as ``inf`` or NaN."""

    def test_a2_overflow_is_refused(self):
        a, f = seed_instance()
        ap = aligned_perturbation(a, 2.0**515 * f)
        for call in (lambda: rs_coefficients(ap), lambda: line_expansion(a, 2.0**515 * f)):
            with pytest.raises(ValueError, match="a2 overflows"):
                call()

    # t * t overflows; times a2 it gives inf, or NaN where a2 underflowed to 0.
    @pytest.mark.parametrize(("s", "t"), [(1e-156, 5e154), (1e-170, 5e168)], ids=["inf", "nan"])
    def test_expansion_overflow_is_refused(self, s, t):
        a, f = seed_instance()
        lex = line_expansion(a, s * f)
        for call in (lambda: lex.at(t), lambda: predict_eigensystem(lex.ap, lex.ap.data.m, t)):
            with pytest.raises(ValueError, match="overflows the floating-point range") as exc:
                call()
            assert not isinstance(exc.value, PreconditionError)
        # Where t * t stays finite, the expansion evaluates.
        assert np.isfinite(lex.at(1e150).xi_hat).all()


class TestPredict:
    def test_t_zero_returns_base(self):
        rng = np.random.default_rng(83)
        a, f = degenerate_instance(rng, (2, 2))
        ap = aligned_perturbation(a, f)
        mmat = m_matrix(ap.base, ap.blocks)
        pred = predict_eigensystem(ap, mmat, 0.0)
        assert np.array_equal(pred.xi_hat, ap.base.lam)
        assert np.array_equal(pred.u_hat, ap.base.u)
        assert not pred.xi_hat.flags.writeable

    def test_worked_example_at_small_t(self):
        ap, mmat = worked_example()
        pred = predict_eigensystem(ap, mmat, 0.01)
        xi_input_frame = pred.xi_hat[[1, 2, 0]]
        assert np.abs(xi_input_frame - [0.0099, -0.0001, 1.0002]).max() <= 1e-12
        u_hat_input_frame = pred.u_hat @ PERM3.T
        assert np.abs(u_hat_input_frame - (np.eye(3) + 0.01 * U_PRIME_EXPECTED)).max() <= 1e-12

    def test_large_t_rejected(self):
        ap, mmat = worked_example()
        with pytest.raises(GapTooSmallError, match="blocks may mix"):
            predict_eigensystem(ap, mmat, 0.5)
        # negative t of safe magnitude is fine
        pred = predict_eigensystem(ap, mmat, -0.01)
        assert pred.xi_hat.shape == (3,)

    def test_tied_direction_past_the_gap_raises_as_line_expansion_does(self):
        # Tied inside the double eigenvalue, and 2 |t| ||F|| = 10 passes the gap 1.
        a, f = np.diag([1.0, 1.0, 0.0]), np.diag([0.5, 0.5, 0.0])
        ap = aligned_perturbation(a, f)
        mmat = m_matrix(ap.base, ap.blocks)
        with pytest.raises(DegenerateDirectionError):
            line_expansion(a, f).at(10.0)
        with pytest.raises(DegenerateDirectionError):
            predict_eigensystem(ap, mmat, 10.0)

    def test_leaves_the_callers_mmat_writable(self):
        ap, mmat = worked_example()
        predict_eigensystem(ap, mmat, 0.01)
        assert mmat.flags.writeable

    def test_agrees_with_schur_refinement_to_third_order(self):
        rng = np.random.default_rng(89)
        a = rand_hermitian(rng, 5)
        f = rand_hermitian(rng, 5)
        ap = aligned_perturbation(a, f)
        mmat = m_matrix(ap.base, ap.blocks)
        ts = np.array([1e-1, 1e-2, 1e-3]) / max(1.0, ap.e_norm)
        diffs = []
        for t in ts:
            xi = predict_eigensystem(ap, mmat, t).xi_hat
            refined = refined_eigenvalues(scaled(ap, t))
            diffs.append(np.abs(xi - refined).max())
        slope = np.polyfit(np.log10(ts), np.log10(diffs), 1)[0]
        assert slope >= 2.5


class TestLineExpansion:
    def test_fields_are_consistent(self):
        rng = np.random.default_rng(97)
        a, f = degenerate_instance(rng, (2, 1, 1))
        lex = line_expansion(a, f)
        ap = lex.ap
        a0, a1, a2 = rs_coefficients(ap)
        assert np.array_equal(lex.a0, a0)
        assert np.array_equal(lex.a1, a1)
        assert np.array_equal(lex.a2, a2)
        assert np.array_equal(lex.n_mat, n_matrix(ap))
        assert np.array_equal(lex.ap.data.m, m_matrix(ap.base, ap.blocks))
        assert np.array_equal(lex.u_prime, eigenvector_derivative(ap, lex.ap.data.m))

    @staticmethod
    def count_calls(monkeypatch, name: str) -> list:
        """Record the first argument of every call of ``rayleigh.<name>`` from now on."""
        calls = []
        real = getattr(rayleigh, name)

        def counting(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(rayleigh, name, counting)
        return calls

    def test_computes_n_matrix_once(self, monkeypatch):
        calls = self.count_calls(monkeypatch, "_n_matrix")
        lex = line_expansion(EXAMPLE_A3, EXAMPLE_F3)
        # The record's E_hat, as a stack of one.
        assert len(calls) == 1 and calls[0].shape == (1, 3, 3)
        assert np.shares_memory(calls[0], lex.ap.e_hat)

    def test_runs_the_tie_guard_once(self, monkeypatch):
        # rs_coefficients and n_matrix each run the guard; their expansion
        # decides once for both.
        calls = self.count_calls(monkeypatch, "_require_untied")
        lex = line_expansion(EXAMPLE_A3, EXAMPLE_F3)
        assert len(calls) == 1 and calls[0] is lex.ap
        predict_eigensystem(lex.ap, lex.ap.data.m, 0.01)
        assert len(calls) == 2

    def test_at_matches_predict(self):
        rng = np.random.default_rng(101)
        a, f = degenerate_instance(rng, (2, 2))
        lex = line_expansion(a, f)
        for t in (0.0, 0.01, -0.02):
            via_at = lex.at(t)
            direct = predict_eigensystem(lex.ap, lex.ap.data.m, t)
            assert np.array_equal(via_at.xi_hat, direct.xi_hat)
            assert np.array_equal(via_at.u_hat, direct.u_hat)

    def test_at_enforces_margin(self):
        lex = line_expansion(EXAMPLE_A3, EXAMPLE_F3)
        with pytest.raises(GapTooSmallError):
            lex.at(0.5)

    @pytest.mark.parametrize("t", COMPLEX_SCALARS)
    def test_complex_t_is_refused(self, t):
        # float() would evaluate the expansion at the real part alone.
        lex = line_expansion(EXAMPLE_A3, EXAMPLE_F3)
        for call in (lambda: lex.at(t), lambda: predict_eigensystem(lex.ap, lex.ap.data.m, t)):
            with pytest.raises(ValueError, match="t must be real"):
                call()


# One block, where no gap guard applies, and the worked example's two blocks.
@pytest.mark.parametrize("a", [np.eye(3), EXAMPLE_A3], ids=["one_block", "two_blocks"])
@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_non_finite_t_is_a_usage_error(a, t):
    lex = line_expansion(a, EXAMPLE_F3)
    calls = (lambda: lex.at(t), lambda: predict_eigensystem(lex.ap, lex.ap.data.m, t))
    for call in calls:
        with pytest.raises(ValueError, match="finite") as exc:
            call()
        assert not isinstance(exc.value, PreconditionError)
