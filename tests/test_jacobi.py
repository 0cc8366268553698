import inspect
import math
import sys
import threading
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_exactly_hermitian, rand_hermitian, rand_unitary
from eigpert import (
    ConvergenceError,
    SpectralDecomposition,
    align_columns,
    eigh,
    hermitian,
    operator_norm,
    residual,
)
import eigpert
from eigpert import jacobi
from eigpert.jacobi import DEFAULT_MAX_SWEEPS, _schedule, _solve_stack


def fro(m) -> float:
    return float(np.linalg.norm(m))


class TestExamples:
    def test_scaled_identity(self):
        d = eigh([[2.0, 0.0], [0.0, 2.0]])
        assert np.array_equal(d.lam, [2.0, 2.0])
        assert fro(d.u.conj().T @ d.u - np.eye(2)) <= 1e-14

    def test_two_by_two_closed_form(self):
        d = eigh([[3.0, 0.1], [0.1, 1.0]])
        root = math.sqrt(1.01)
        assert d.lam[0] == pytest.approx(2 + root, abs=1e-13)
        assert d.lam[1] == pytest.approx(2 - root, abs=1e-13)

    def test_diagonal_input_sorted_with_permutation(self):
        d = eigh(np.diag([1.0, 3.0, 2.0]))
        assert np.array_equal(d.lam, [3.0, 2.0, 1.0])
        expected = np.zeros((3, 3), dtype=complex)
        expected[1, 0] = expected[2, 1] = expected[0, 2] = 1.0
        assert np.array_equal(d.u, expected)

    def test_tied_diagonal_keeps_stable_order(self):
        d = eigh(np.diag([2.0, 2.0]))
        assert np.array_equal(d.u, np.eye(2, dtype=complex))

    def test_worked_example_eigenvectors_to_three_decimals(self):
        a = np.diag([0.0, 0.0, 1.0])
        f = np.array([[1, 0, 1], [0, 0, 1], [1, 1, 0]], dtype=float)
        perm = eigh(a).u.real
        d = eigh(hermitian(a + 0.01 * f))
        u_prime = np.array([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]], dtype=float)
        expected = np.eye(3) + 0.01 * u_prime
        matched = align_columns(d.u @ perm.T, expected, [(0, 1), (1, 2), (2, 3)])
        assert np.abs(matched - expected).max() <= 5e-4


class TestSolverInvariants:
    def test_battery(self):
        rng = np.random.default_rng(101)
        spot_checks = 0
        for k in range(500):
            n = int(rng.integers(1, 13))
            h = rand_hermitian(rng, n, scale=10.0 ** rng.integers(-2, 3))
            d = eigh(h)
            scale = max(1.0, operator_norm(h)) if k % 12 == 0 else None
            # Frobenius norm bounds the operator norm from above, so these
            # checks are stricter than the stated invariants.
            assert fro(d.u.conj().T @ d.u - np.eye(n)) <= 1e-12 * n
            assert np.all(np.diff(d.lam) <= 0.0)
            recon = d.u @ np.diag(d.lam.astype(complex)) @ d.u.conj().T
            if scale is not None:
                spot_checks += 1
                assert residual(h, d) <= 1e-12 * n * scale
            else:
                assert fro(recon - h) <= 1e-12 * n * max(1.0, fro(h))
            for j in range(n):
                i = int(np.argmax(np.abs(d.u[:, j])))
                assert d.u[i, j].imag == 0.0
                assert d.u[i, j].real >= 0.0
        assert spot_checks >= 40

    def test_two_by_two_matches_quadratic_formula(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            h = rand_hermitian(rng, 2, scale=10.0 ** rng.integers(-3, 4))
            scale = max(1.0, operator_norm(h))
            mean = (h[0, 0].real + h[1, 1].real) / 2
            diff = (h[0, 0].real - h[1, 1].real) / 2
            rad = math.hypot(diff, abs(h[0, 1]))
            d = eigh(h)
            assert abs(d.lam[0] - (mean + rad)) <= 1e-12 * scale
            assert abs(d.lam[1] - (mean - rad)) <= 1e-12 * scale

    def test_similarity_invariance(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            h = rand_hermitian(rng, n)
            q = rand_unitary(rng, n)
            rotated = hermitian(q.conj().T @ h @ q)
            assert np.abs(eigh(rotated).lam - eigh(h).lam).max() <= 1e-10

    def test_weyl_inequality(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            a = rand_hermitian(rng, n)
            e = rand_hermitian(rng, n, scale=0.1)
            shift = np.abs(eigh(hermitian(a + e)).lam - eigh(a).lam).max()
            assert shift <= operator_norm(e) * (1 + 1e-10)

    def test_determinism(self):
        # Bytes, not values: np.array_equal cannot see the sign of a zero.
        h = rand_hermitian(np.random.default_rng(5), 6)
        assert same_bits(eigh(h), eigh(h))


class TestControls:
    def test_eigh_takes_the_matrix_alone(self):
        # The tolerance and the sweep budget are the solver's constants; only
        # the array entry takes them, for the package's in-block rotations
        # and for these tests.
        assert list(inspect.signature(eigpert.eigh).parameters) == ["h"]
        with pytest.raises(TypeError):
            eigh(np.eye(2), tol=1e-15)
        with pytest.raises(TypeError):
            eigh(np.eye(2), max_sweeps=3)

    def test_sweep_budget_exhaustion(self):
        with pytest.raises(ConvergenceError) as exc:
            solve_records([[[3.0, 0.1], [0.1, 1.0]]], max_sweeps=0)
        assert exc.value.off_mass > 0.0

    def test_tighter_tol_accepted(self):
        (d,) = solve_records([[[3.0, 0.1], [0.1, 1.0]]], tol=1e-15)
        assert d.lam[0] == pytest.approx(2 + math.sqrt(1.01), abs=1e-14)


class TestResidual:
    def test_solver_contract(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            n = int(rng.integers(2, 7))
            h = rand_hermitian(rng, n, scale=3.0)
            assert residual(h, eigh(h)) <= 1e-12 * n * max(1.0, operator_norm(h))

    def test_reverse_triangle_on_wrong_decomposition(self):
        rng = np.random.default_rng(37)
        h1 = rand_hermitian(rng, 4)
        h2 = rand_hermitian(rng, 4)
        gap = operator_norm(h1 - h2)
        assert residual(h1, eigh(h2)) >= gap - 1e-10

    def test_zero_matrix(self):
        d = SpectralDecomposition(u=np.eye(2, dtype=complex), lam=np.zeros(2))
        assert residual(np.zeros((2, 2)), d) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            residual(np.zeros((3, 3)), eigh(np.eye(2)))


def same_bits(d1, d2) -> bool:
    return (
        d1.lam.tobytes() == d2.lam.tobytes()
        and d1.u.tobytes() == d2.u.tobytes()
        and (d1.sweeps, d1.off_mass) == (d2.sweeps, d2.off_mass)
    )


def tied_hermitian(rng, lam):
    q = rand_unitary(rng, len(lam))
    return hermitian(q @ np.diag(np.asarray(lam, dtype=complex)) @ q.conj().T)


def solve_records(members, tol=None, max_sweeps=DEFAULT_MAX_SWEEPS):
    """The full solve of ``members``, matrices of one size, as one stack
    through the array entry, symmetrized as :func:`eigh` symmetrizes each
    matrix: one record per member."""
    u, lam, sweeps, off = _solve_stack(hermitian(np.stack(members)), tol, True, max_sweeps)
    return [SpectralDecomposition(*d) for d in zip(u, lam, sweeps.tolist(), off.tolist())]


class TestStack:
    def test_mixed_stack_matches_solo_bit_for_bit(self):
        rng = np.random.default_rng(41)
        members = [
            rand_hermitian(rng, 6),
            np.diag([3.0, -1.0, 2.0, 0.5, 0.5, 7.0]),  # already diagonal
            np.zeros((6, 6)),
            tied_hermitian(rng, [2.0, 2.0, 2.0, -1.0, -1.0, 5.0]),
            rand_hermitian(rng, 6, scale=1e-7),
            rand_hermitian(rng, 6, scale=1e5) + 1e3 * np.eye(6),
        ]
        stacked = solve_records(members)
        for h, d in zip(members, stacked):
            assert same_bits(d, eigh(h))
        # The members stop after different numbers of sweeps; the diagonal
        # and zero members never sweep.
        sweeps = [d.sweeps for d in stacked]
        assert sweeps[1] == sweeps[2] == 0
        assert len(set(sweeps)) >= 3
        # The same matrices in another order.
        for d, e in zip(stacked[::-1], solve_records(members[::-1])):
            assert same_bits(d, e)

    def test_random_stacks_match_solo(self):
        rng = np.random.default_rng(47)
        for _ in range(40):
            n = int(rng.integers(1, 10))
            members = [
                rand_hermitian(rng, n, scale=10.0 ** rng.integers(-4, 5))
                for _ in range(int(rng.integers(1, 6)))
            ]
            for h, d in zip(members, solve_records(members)):
                assert same_bits(d, eigh(h))

    def test_convergence_error_names_the_failing_member(self):
        rng = np.random.default_rng(53)
        members = [np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]), rand_hermitian(rng, 6), rand_hermitian(rng, 6)]
        with pytest.raises(ConvergenceError) as solo:
            solve_records([members[1]], max_sweeps=2)
        with pytest.raises(ConvergenceError) as stacked:
            solve_records(members, max_sweeps=2)
        assert stacked.value.member == 1
        assert stacked.value.off_mass == solo.value.off_mass > 0.0
        assert "stack member 1 of 3" in str(stacked.value)
        assert solo.value.member == 0

    def test_no_public_stack_entry(self):
        # Every stack is solved by the array entry; the public entry is eigh.
        assert not hasattr(eigpert, "eigh_stack") and not hasattr(jacobi, "eigh_stack")
        assert "eigh_stack" not in jacobi.__all__

    def test_stats_on_results(self):
        rng = np.random.default_rng(59)
        h = rand_hermitian(rng, 8)
        d = eigh(h)
        assert d.sweeps >= 1
        assert 0.0 <= d.off_mass <= 1e-13 * 8 * float(np.abs(h).max())
        # Decompositions built outside the solver carry no stats.
        built = SpectralDecomposition(u=np.eye(2, dtype=complex), lam=np.zeros(2))
        assert (built.sweeps, built.off_mass) == (None, None)
        moved = replace(d, lam=d.lam + 1.0)
        assert (moved.sweeps, moved.off_mass) == (d.sweeps, d.off_mass)

    @pytest.mark.parametrize("n", [2, 3, 5, 6, 7, 9])
    def test_member_bits_do_not_depend_on_stack_size(self, n):
        # Stacks long enough that the innermost loops run over many members,
        # of members that stop after different numbers of sweeps: scales
        # from 2**-900 to 2**900, tied, diagonal and zero members.
        rng = np.random.default_rng(1000 + n)
        members = []
        for j in range(100):
            kind = j % 10
            if kind == 7:
                members.append(tied_hermitian(rng, [2.0] * (n - 1) + [-1.0]))
            elif kind == 8:
                members.append(np.diag(rng.standard_normal(n)))
            elif kind == 9 and j % 20 == 9:
                members.append(np.zeros((n, n)))
            else:
                members.append(scale_by(rand_hermitian(rng, n), int(rng.integers(-900, 901))))
        solo = [eigh(h) for h in members]
        assert len({d.sweeps for d in solo}) >= min(n, 3)
        for k in (1, 7, 8, 33, 100):
            for d, e in zip(solve_records(members[:k]), solo):
                assert same_bits(d, e)
            for lam, e in zip(_solve_stack(hermitian(np.stack(members[:k])), vectors=False), solo):
                assert same_values(lam, e)

    @pytest.mark.parametrize("x", [-0.0, 2.0**-1074, 1e-300, 1e300])
    def test_one_by_one_is_its_own_eigenvalue(self, x):
        members = [np.array([[x]]), np.array([[complex(x, 0.0)]])]
        values = _solve_stack(hermitian(np.stack(members)), vectors=False)
        for h, d, lam in zip(members, solve_records(members), values):
            for got in (d.lam, lam):
                assert got.dtype == np.float64 and got.tobytes() == np.array([x]).tobytes()
            assert (d.sweeps, d.off_mass) == (0, 0.0)
            assert d.u.dtype == np.complex128 and np.array_equal(d.u, [[1.0]])
            assert same_bits(d, eigh(h))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1.0 + 1.0j, 1e-300j])
    def test_one_by_one_is_still_validated(self, bad):
        with pytest.raises(ValueError):
            eigh([[bad]])
        if not np.isfinite(bad):
            # The array entry checks finiteness only; symmetry is its callers' to keep.
            for vectors in (True, False):
                with pytest.raises(ValueError):
                    _solve_stack(np.full((2, 1, 1), bad, dtype=np.complex128), vectors=vectors)


class TestSchedule:
    @pytest.mark.parametrize("n", range(1, 14))
    def test_every_pair_once_per_sweep(self, n):
        orders = _schedule(n)
        assert len(orders) == (n - 1 if n % 2 == 0 else n)
        assert orders[0] == tuple(range(n))
        m = n // 2
        pivots = Counter()
        for order in orders:
            assert sorted(order) == list(range(n))
            step = [tuple(sorted((order[i], order[m + i]))) for i in range(m)]
            assert len({p for pair in step for p in pair}) == 2 * m  # disjoint
            pivots.update(step)
        assert sorted(pivots) == [(p, q) for p in range(n) for q in range(p + 1, n)]
        assert set(pivots.values()) <= {1}


# Entries j / 1024 with |j| <= 1024: scaled by 2**k for |k| <= 1000 they
# stay normal and finite, so the scaling itself is exact.
_ENTRY = st.integers(-1024, 1024)


@st.composite
def dyadic_matrices(draw, square, rows=None, cols=None):
    rows = draw(st.integers(1, 6)) if rows is None else rows
    cols = rows if square else draw(st.integers(1, 6)) if cols is None else cols
    parts = draw(st.lists(_ENTRY, min_size=2 * rows * cols, max_size=2 * rows * cols))
    g = (np.array(parts[::2]) + 1j * np.array(parts[1::2])).reshape(rows, cols) / 1024.0
    return 0.5 * (g + g.conj().T) if square else g


def scale_by(m, k):
    out = np.empty_like(m)
    out.real = np.ldexp(m.real, k)
    out.imag = np.ldexp(m.imag, k)
    return out


_PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


class TestScaleEquivariance:
    @_PROPERTY
    @given(h=dyadic_matrices(square=True), k=st.integers(-1000, 1000))
    def test_eigh_exact_under_powers_of_two(self, h, k):
        d = eigh(h)
        dk = eigh(scale_by(h, k))
        assert dk.lam.tobytes() == (2.0**k * d.lam).tobytes()
        assert dk.u.tobytes() == d.u.tobytes()
        assert dk.sweeps == d.sweeps

    @_PROPERTY
    @given(m=dyadic_matrices(square=False), k=st.integers(-1000, 1000))
    def test_operator_norm_exact_under_powers_of_two(self, m, k):
        assert operator_norm(scale_by(m, k)) == 2.0**k * operator_norm(m)

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-160, 1e160, 1e200, 1e300])
    def test_extreme_scales_match_lapack(self, scale):
        rng = np.random.default_rng(61)
        for n in (2, 3, 5, 9):
            h = rand_hermitian(rng, n, scale=scale)
            ref = np.linalg.eigvalsh(h)[::-1]
            assert np.abs(eigh(h).lam - ref).max() <= 1e-12 * n * np.abs(ref).max()
            m = h[:, : n - 1] if n > 2 else h
            assert operator_norm(m) == pytest.approx(np.linalg.norm(m, 2), rel=1e-12 * n)


def same_values(lam, full) -> bool:
    """An eigenvalue-only result: an array with the bits of the full solve's ``lam``."""
    return (
        isinstance(lam, np.ndarray)
        and (lam.dtype, lam.shape) == (full.lam.dtype, full.lam.shape)
        and lam.tobytes() == full.lam.tobytes()
    )


def eigenvalues_only(members, tol=None, max_sweeps=DEFAULT_MAX_SWEEPS):
    """The eigenvalue-only solve of ``members``, matrices of one size, as one
    stack through the array entry, symmetrized as :func:`eigh` symmetrizes
    each matrix."""
    return list(_solve_stack(hermitian(np.stack(members)), tol, False, max_sweeps))


def by_size(members):
    """``members`` as lists of matrices of one size, one list per size."""
    sizes = {}
    for h in members:
        sizes.setdefault(np.shape(h)[0], []).append(h)
    return list(sizes.values())


class TestEigenvaluesOnly:
    """The eigenvalue-only solve sweeps ``a`` without the accumulator ``u``
    and returns eigenvalue arrays with the bits of the full solve's ``lam``."""

    @_PROPERTY
    @given(data=st.data())
    def test_matches_the_full_solve(self, data):
        # One stack of up to five members of size 1-8, each scaled from
        # 2**-1000 to 2**996 (about 6.7e299).
        n = data.draw(st.integers(1, 8))
        members = [
            scale_by(data.draw(dyadic_matrices(square=True, rows=n)), data.draw(st.integers(-1000, 996)))
            for _ in range(data.draw(st.integers(1, 5)))
        ]
        for d, full in zip(eigenvalues_only(members), solve_records(members)):
            assert same_values(d, full)

    @pytest.mark.parametrize("scale", [2.0**-1000, 1e-300, 1e-7, 1.0, 1e5, 1e300])
    def test_seeded_stacks_of_mixed_sizes(self, scale):
        # Sizes 1 to 8, one stack per size.
        rng = np.random.default_rng(67)
        members = [rand_hermitian(rng, n, scale=scale) for n in (1, 2, 3, 4, 5, 6, 7, 8, 3, 8, 1)]
        members += [
            tied_hermitian(rng, [2.0, 2.0, 2.0, -1.0, -1.0, 5.0]),
            np.diag([3.0, -1.0, 2.0, 0.5, 0.5, 7.0]),
            np.zeros((5, 5)),
        ]
        sweeps = set()
        for stack in by_size(members):
            fulls = solve_records(stack)
            for d, full in zip(eigenvalues_only(stack), fulls):
                assert same_values(d, full)
            sweeps.update(d.sweeps for d in fulls)
        assert len(sweeps) >= 3
        for h in (members[4], members[7]):
            assert same_values(eigenvalues_only([h], tol=1e-15)[0], solve_records([h], tol=1e-15)[0])

    def test_convergence_error_is_the_full_solves(self):
        rng = np.random.default_rng(71)
        members = [np.diag([1.0, 2.0, 3.0, 4.0, 5.0])] + [rand_hermitian(rng, 5) for _ in range(3)]
        raised = []
        for solve in (solve_records, eigenvalues_only):
            with pytest.raises(ConvergenceError) as info:
                solve(members, max_sweeps=1)
            raised.append(info.value)
        full, values = raised
        assert values.member == full.member == 1
        assert values.off_mass == full.off_mass > 0.0
        assert str(values) == str(full)


def entry_members(rng, n):
    """100 exactly Hermitian ``n x n`` matrices that stop after different
    numbers of sweeps, each scaled by a power of two from 2**-1000 to
    2**990: dense, tied, diagonal and zero members.  At n = 60, where a
    dense solve is slow, the dense and tied members are near-diagonal."""
    members = []
    for j in range(100):
        kind = j % 10
        if kind == 8:
            h = np.diag(rng.standard_normal(n))
        elif kind == 9:
            h = np.zeros((n, n))
        elif n == 60:
            h = np.diag(rng.standard_normal(n)) + 2.0 ** -int(rng.integers(20, 48)) * rand_hermitian(rng, n)
        elif kind == 7:
            h = tied_hermitian(rng, [2.0] * (n - 1) + [-1.0])
        else:
            h = rand_hermitian(rng, n)
        members.append(scale_by(hermitian(h), int(rng.integers(-1000, 991))))
    return np.stack(members)


class TestSolveStack:
    """The oracle's array entry: one exactly Hermitian stack of one size in,
    arrays out, each member with the bits of :func:`eigh` on it."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 9, 60])
    def test_members_match_solo_eigh(self, n):
        rng = np.random.default_rng(2000 + n)
        stack = entry_members(rng, n)
        assert_exactly_hermitian(stack)
        solo = [eigh(h) for h in stack]
        if n > 1:
            assert len({d.sweeps for d in solo}) >= min(n, 3)
        for k in (1, 7, 100):
            u, lam, sweeps, off = _solve_stack(stack[:k])
            assert (u.shape, lam.shape, sweeps.shape, off.shape) == ((k, n, n), (k, n), (k,), (k,))
            for d, *got in zip(solo, u, lam, sweeps.tolist(), off.tolist()):
                assert same_bits(d, SpectralDecomposition(*got))
            values = _solve_stack(stack[:k], vectors=False)
            assert values.shape == (k, n)
            for d, lam_k in zip(solo, values):
                assert same_values(lam_k, d)

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_non_finite_member_raises_as_eigh(self, n):
        rng = np.random.default_rng(n)
        for bad in (np.nan, np.inf, -np.inf):
            stack = np.stack([rand_hermitian(rng, n) for _ in range(5)])
            stack[3, 0, n - 1] = bad
            with pytest.raises(ValueError) as alone:
                eigh(stack[3])
            for vectors in (True, False):
                with pytest.raises(ValueError) as entry:
                    _solve_stack(stack, vectors=vectors)
                assert str(entry.value) == str(alone.value)

    def test_convergence_error_names_the_member(self):
        rng = np.random.default_rng(53)
        stack = np.stack([np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).astype(complex)] + [rand_hermitian(rng, 6) for _ in range(3)])
        with pytest.raises(ConvergenceError) as solo:
            solve_records([stack[1]], max_sweeps=2)
        for vectors in (True, False):
            with pytest.raises(ConvergenceError) as info:
                _solve_stack(stack, vectors=vectors, max_sweeps=2)
            assert info.value.member == 1
            assert info.value.off_mass == solo.value.off_mass > 0.0
            assert "stack member 1 of 4" in str(info.value)

    def test_a_solve_does_not_depend_on_earlier_solves(self):
        # Each solve builds its own buffers: after stacks of other sizes and
        # member counts, and a solve of the same shape that raised
        # ConvergenceError, a stack gets the bytes of its first solve.
        rng = np.random.default_rng(61)
        stack = entry_members(rng, 6)[:40]
        first = [*_solve_stack(stack), _solve_stack(stack, vectors=False)]
        for n, count in ((6, 7), (5, 40), (6, 100), (2, 3), (9, 1)):
            others = entry_members(rng, n)[:count]
            _solve_stack(others)
            _solve_stack(others, vectors=False)
        failing = np.stack([rand_hermitian(rng, 6) for _ in range(40)])
        for vectors in (True, False):
            with pytest.raises(ConvergenceError):
                _solve_stack(failing, vectors=vectors, max_sweeps=1)
        again = [*_solve_stack(stack), _solve_stack(stack, vectors=False)]
        assert [x.tobytes() for x in again] == [x.tobytes() for x in first]

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_input_kept_and_no_memory_shared(self, n):
        # Members stop after different numbers of sweeps, so converged
        # members are written back while the others sweep on.
        stack = entry_members(np.random.default_rng(3000 + n), n)[:20]
        before = stack.tobytes()
        stack.setflags(write=False)
        for vectors in (True, False):
            outputs = list(_solve_stack(stack)) if vectors else [_solve_stack(stack, vectors=False)]
            assert stack.tobytes() == before
            for i, x in enumerate(outputs):
                assert not np.shares_memory(x, stack)
                assert not any(np.shares_memory(x, y) for y in outputs[i + 1:])

    def test_two_threads_get_their_solo_bytes(self):
        # A solve keeps its buffers to itself, so two threads that solve
        # different stacks of one shape at once each get their solo bytes.
        rng = np.random.default_rng(67)
        stacks = [entry_members(rng, 6)[:50] for _ in range(2)]
        solo = [[x.tobytes() for x in _solve_stack(s)] for s in stacks]
        results = [[], []]

        def solve(i):
            for _ in range(20):
                results[i].append([x.tobytes() for x in _solve_stack(stacks[i])])

        threads = [threading.Thread(target=solve, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for got, expected in zip(results, solo):
            assert got == [expected] * 20

    def test_spy_records_each_call_of_a_loop(self, oracle_calls):
        # A caller that solves member by member in one loop shows as one
        # record per member, so the call-count tests see such a loop.
        stack = entry_members(np.random.default_rng(5), 3)[:4]
        oracle_calls.clear()
        for h in stack:
            jacobi._solve_stack(h[None], vectors=False)
        assert oracle_calls == [[3]] * 4
        assert oracle_calls.vectors == [False] * 4
        assert oracle_calls.stages == ["test_spy_records_each_call_of_a_loop"] * 4


@st.composite
def hermitian_pairs(draw):
    """Two dyadic Hermitian matrices of one size; the second scaled by a
    power of two in [2^-20, 1], so it ranges from a comparable to a small
    perturbation of the first."""
    n = draw(st.integers(1, 6))
    a, e = (draw(dyadic_matrices(square=True, rows=n)) for _ in range(2))
    return a, scale_by(e, draw(st.integers(-20, 0)))


@st.composite
def unitaries(draw, n):
    """A diagonal phase times a Householder reflection, both built without
    the oracle."""
    v = draw(dyadic_matrices(square=False, rows=n, cols=1))[:, 0]
    angles = draw(st.lists(st.floats(-math.pi, math.pi), min_size=n, max_size=n))
    q = np.diag(np.exp(1j * np.array(angles)))
    norm2 = float(np.vdot(v, v).real)
    if norm2 > 0.0:
        q = q @ (np.eye(n) - (2.0 / norm2) * np.outer(v, v.conj()))
    return q


class TestProperties:
    """Derandomized property versions of the seeded invariance checks in
    :class:`TestSolverInvariants`.  Each bound carries the oracle's own error,
    ``1e-13 n`` per unit of norm, with room for round-off."""

    @_PROPERTY
    @given(data=st.data())
    def test_eigenvalues_unitarily_invariant(self, data):
        h = data.draw(dyadic_matrices(square=True))
        n = h.shape[0]
        q = data.draw(unitaries(n))
        rotated = hermitian(q.conj().T @ h @ q)
        assert np.abs(eigh(rotated).lam - eigh(h).lam).max() <= 1e-12 * n * fro(h)

    @_PROPERTY
    @given(pair=hermitian_pairs())
    def test_weyl_bound(self, pair):
        a, e = pair
        n = a.shape[0]
        shift = np.abs(eigh(hermitian(a + e)).lam - eigh(a).lam).max()
        assert shift <= operator_norm(e) + 1e-12 * n * (fro(a) + fro(e))


class TestAgainstLapack:
    """Test-only cross-check; the package never calls LAPACK at run time."""

    @pytest.mark.parametrize("n", list(range(2, 13)) + [60])
    def test_eigenvalues_match_eigvalsh(self, n):
        rng = np.random.default_rng(1000 + n)
        ensemble = [rand_hermitian(rng, n, scale=10.0 ** rng.integers(-3, 4)) for _ in range(3)]
        spectrum = np.repeat(rng.standard_normal((n + 1) // 2), 2)[:n]
        ensemble.append(tied_hermitian(rng, spectrum))
        for h in ensemble:
            ref = np.linalg.eigvalsh(h)[::-1]
            lam = eigh(h).lam
            assert np.abs(lam - ref).max() <= 1e-12 * n * max(1e-300, float(np.abs(ref).max()))
