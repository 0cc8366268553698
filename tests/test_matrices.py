import math

import numpy as np
import pytest

from eigpert import (
    MatrixParseError,
    dense,
    format_matrix,
    hermitian,
    operator_norm,
    operator_norms,
    parse_hermitian,
    parse_matrix,
)
from eigpert.matrices import _symmetrized


def bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Entrywise equality including the signs of zeros."""
    if a.shape != b.shape:
        return False
    return bool(
        np.array_equal(a, b)
        and np.array_equal(np.signbit(a.real), np.signbit(b.real))
        and np.array_equal(np.signbit(a.imag), np.signbit(b.imag))
    )


class TestParse:
    def test_square_real(self):
        m = parse_matrix("2\n3 0.1\n0.1 1\n")
        assert m.shape == (2, 2)
        assert np.array_equal(m, np.array([[3, 0.1], [0.1, 1]], dtype=complex))

    def test_complex_entries(self):
        m = parse_hermitian("2\n0 1-2i\n1+2i 0\n")
        assert m[0, 1] == 1 - 2j
        assert m[1, 0] == 1 + 2j

    def test_nonreal_diagonal_rejected_as_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            parse_hermitian("1\n0+1i\n")

    def test_rectangular_header(self):
        m = parse_matrix("2 3\n1 2 3\n4 5 6\n")
        assert m.shape == (2, 3)
        assert m[1, 2] == 6

    def test_leading_blank_lines_and_crlf(self):
        m = parse_matrix("\n\r\n1\n7\r\n")
        assert m[0, 0] == 7

    def test_malformed_entry_position(self):
        with pytest.raises(MatrixParseError) as exc:
            parse_matrix("2\n3 x1\n0.1 1\n")
        assert exc.value.line == 2
        assert exc.value.column == 3

    def test_too_many_entries(self):
        with pytest.raises(MatrixParseError) as exc:
            parse_matrix("2\n1 2 3\n4 5\n")
        assert exc.value.line == 2
        assert exc.value.column == 5

    def test_too_few_entries(self):
        with pytest.raises(MatrixParseError) as exc:
            parse_matrix("2\n1\n3 4\n")
        assert (exc.value.line, exc.value.column) == (2, 2)

    def test_missing_rows(self):
        with pytest.raises(MatrixParseError, match="expected 3 rows"):
            parse_matrix("3\n1 2 3\n4 5 6\n")

    def test_missing_rows_without_final_newline(self):
        with pytest.raises(MatrixParseError, match="expected 2 rows, got 1") as exc:
            parse_matrix("2\n1 2")
        assert (exc.value.line, exc.value.column) == (3, 1)

    def test_trailing_content(self):
        with pytest.raises(MatrixParseError) as exc:
            parse_matrix("1\n5\njunk\n")
        assert exc.value.line == 3

    def test_trailing_blank_lines_ok(self):
        m = parse_matrix("1\n5\n\n\n")
        assert m[0, 0] == 5

    def test_bad_dimension(self):
        for text in ("0\n", "-1\n1\n", "2x2\n", "1 2 3\n"):
            with pytest.raises(MatrixParseError):
                parse_matrix(text)

    def test_empty_input(self):
        with pytest.raises(MatrixParseError, match="empty"):
            parse_matrix("\n  \n")

    def test_overflowing_literal_rejected(self):
        with pytest.raises(MatrixParseError, match="non-finite"):
            parse_matrix("1\n1e999\n")

    def test_incomplete_imaginary_part(self):
        with pytest.raises(MatrixParseError):
            parse_matrix("1\n1+i\n")

    def test_non_square_hermitian_rejected(self):
        with pytest.raises(ValueError, match="square"):
            parse_hermitian("1 2\n1 2\n")


class TestRoundTrip:
    def test_format_then_parse_is_bit_identical(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            r, c = rng.integers(1, 6, size=2)
            m = rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))
            m *= 10.0 ** rng.integers(-12, 12)
            again = parse_matrix(format_matrix(m))
            assert bit_equal(np.asarray(m, dtype=complex), again)

    def test_signed_zero_round_trip(self):
        m = np.array([[complex(-0.0, 0.0), complex(0.0, -0.0)]])
        text = format_matrix(m)
        assert "-0" in text
        assert bit_equal(parse_matrix(text), m)

    def test_parse_format_parse_fixed_point(self):
        text = "2\n3 0.1\n0.1 1\n"
        m = parse_matrix(text)
        assert bit_equal(parse_matrix(format_matrix(m)), m)

    def test_extreme_magnitudes(self):
        m = np.array([[1e-308, 1e308], [5e-324, -1e-200]], dtype=complex)
        assert bit_equal(parse_matrix(format_matrix(m)), m)

    @pytest.mark.parametrize("shape", [(0, 3), (2, 2, 2)])
    def test_format_refuses_empty_and_3d_input(self, shape):
        with pytest.raises(ValueError, match="expected a nonempty 2-d matrix"):
            format_matrix(np.zeros(shape))


class TestConstructors:
    def test_dense_rejections(self):
        with pytest.raises(ValueError):
            dense([1, 2, 3])
        with pytest.raises(ValueError):
            dense(np.empty((0, 2)))
        with pytest.raises(ValueError):
            dense([[np.inf, 0], [0, 1]])
        with pytest.raises(ValueError):
            dense([[np.nan]])

    def test_hermitian_exact_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = hermitian(0.5 * (g + g.conj().T))
            assert np.array_equal(h, h.conj().T)
            assert np.all(h.diagonal().imag == 0.0)

    def test_hermitian_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian([[1, 2], [3, 4]])
        with pytest.raises(ValueError, match="square"):
            hermitian(np.ones((2, 3)))

    @pytest.mark.parametrize(
        "bad, message",
        [
            ([[1.0, 2.0], [3.0, 4.0]], "not Hermitian"),
            ([[1.5e308 + 1.5e308j, 0.0], [0.0, 1.0]], "not Hermitian"),
            ([[1.0, 1.7e308], [-1.7e308, 1.0]], "not Hermitian"),
            ([[5e-324, 1e-300], [0.0, 5e-324]], "not Hermitian"),
            ([[0.0, 2e-312], [0.0, 0.0]], "not Hermitian"),
            ([[1.0, np.nan], [np.nan, 1.0]], "finite"),
            ([[np.inf, 0.0], [0.0, 1.0]], "finite"),
            ([[1.0, np.inf], [-np.inf, 1.0]], "finite"),
        ],
    )
    def test_hermitian_rejects_each_invalid_matrix(self, bad, message):
        # Asymmetry at every scale from subnormal to near overflow, and
        # non-finite entries, as real and as complex input.
        for entries in (bad, np.array(bad, dtype=complex)):
            with pytest.raises(ValueError, match=message):
                hermitian(entries)

    def test_hermitian_does_not_overflow(self):
        h = hermitian([[1e308, 0], [0, 1]])
        assert bit_equal(h, np.array([[1e308, 0], [0, 1]], dtype=complex))
        h = hermitian([[1.5e308, 1e308 - 1.7e308j], [1e308 + 1.7e308j, -1.7e308]])
        assert np.isfinite(h).all()
        assert np.array_equal(h, h.conj().T)
        assert h[0, 0] == 1.5e308 and h[0, 1] == 1e308 - 1.7e308j

    def test_hermitian_rejects_asymmetry_near_overflow(self):
        # |z| and z - conj(z) both overflow here; the imaginary diagonal must
        # still be rejected, with no floating-point warning on the way.
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian([[1.5e308 + 1.5e308j, 0], [0, 1]])
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian([[1.0, 1.7e308], [-1.7e308, 1.0]])
        # Round-off asymmetry at the same scale is still averaged away.
        h = hermitian([[1.0, 1.7e308 + 1e292j], [1.7e308, 1.0]])
        assert np.array_equal(h, h.conj().T) and h[0, 1] == 1.7e308 + 5e291j

    def test_hermitian_keeps_subnormal_entries(self):
        m = np.array([[5e-324, complex(0, 5e-324)], [complex(0, -5e-324), 1]])
        assert bit_equal(hermitian(m), m)

    def test_hermitian_is_the_average_when_it_is_finite(self):
        rng = np.random.default_rng(23)
        overflowed = 0
        for scale in (5e-324, 1e-310, 1e-300, 1.0, 1e300, 3e307, 1e308):
            for n in (1, 2, 5):
                g = scale * (rng.uniform(-1.7, 1.7, (n, n)) + 1j * rng.uniform(-1.7, 1.7, (n, n)))
                m = 0.5 * g + 0.5 * g.conj().T
                # A subnormal entry, which halving before adding would round.
                m[-1, -1] = 5e-324
                with np.errstate(over="ignore", invalid="ignore"):
                    average = 0.5 * (m + m.conj().T)
                h = hermitian(m)
                if np.isfinite(average).all():
                    assert bit_equal(h, average)
                else:
                    overflowed += 1
                    assert np.isfinite(h).all() and np.array_equal(h, h.conj().T)
        assert overflowed > 0

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_symmetrized_stack_matches_each_member(self, n):
        # The package symmetrizes its own stacks with _symmetrized; on
        # members whose sums stay finite it gives hermitian's bytes.
        rng = np.random.default_rng(29 + n)
        members = []
        for scale in (5e-324, 1e-310, 1e-300, 1.0, 1e300):
            g = scale * (rng.uniform(-1.7, 1.7, (n, n)) + 1j * rng.uniform(-1.7, 1.7, (n, n)))
            m = 0.5 * g + 0.5 * g.conj().T
            m[-1, -1] = 5e-324
            members.append(m)
        bumped = members[3].copy()
        bumped[0, -1] += 1e-15  # round-off asymmetry, averaged away
        members.append(bumped)
        stack = _symmetrized(np.stack(members))
        assert stack.shape == (len(members), n, n)
        for got, m in zip(stack, members):
            assert bit_equal(got, hermitian(m))

    def test_hermitian_refuses_a_stack(self):
        # One matrix in, one out: stacks are symmetrized inside the package.
        for stack in (np.zeros((3, 2, 2)), np.stack([np.eye(2)] * 2), np.ones((0, 2, 2))):
            with pytest.raises(ValueError, match="expected a 2-d matrix, got 3-d data"):
                hermitian(stack)

    def test_hermitian_tolerates_roundoff(self):
        base = np.array([[1.0, 0.25 + 0.5j], [0.25 - 0.5j, 2.0]])
        bumped = base.copy()
        bumped[0, 1] += 1e-15
        h = hermitian(bumped)
        assert np.array_equal(h, h.conj().T)


class TestOperatorNorm:
    def test_swap_matrix(self):
        assert operator_norm([[0, 1], [1, 0]]) == pytest.approx(1.0, abs=1e-14)

    def test_rank_one(self):
        assert operator_norm([[0.5, 0.5], [0.5, 0.5]]) == pytest.approx(1.0, abs=1e-14)

    def test_row_vector(self):
        assert operator_norm([[1.0, 1.0]]) == pytest.approx(math.sqrt(2), abs=1e-14)
        assert operator_norm([1.0, 1.0]) == pytest.approx(math.sqrt(2), abs=1e-14)

    def test_zero(self):
        assert operator_norm(np.zeros((3, 2))) == 0.0
        assert operator_norm(np.zeros((0, 3))) == 0.0

    def test_refuses_3d_input(self):
        with pytest.raises(ValueError, match="expected a matrix, got 3-d data"):
            operator_norm(np.zeros((2, 2, 2)))

    def test_hermitian_input_is_max_abs_eigenvalue(self):
        h = np.diag([3.0, -7.0, 2.0]).astype(complex)
        assert operator_norm(h) == pytest.approx(7.0, abs=1e-12)

    def test_homogeneity(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            r, c = rng.integers(1, 5, size=2)
            m = rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))
            s = float(rng.standard_normal())
            lhs = operator_norm(s * m)
            rhs = abs(s) * operator_norm(m)
            assert abs(lhs - rhs) <= 1e-12 * max(rhs, 1e-30)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            m1 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            m2 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            assert operator_norm(m1 + m2) <= operator_norm(m1) + operator_norm(m2) + 1e-12

    def test_adjoint_invariance(self):
        rng = np.random.default_rng(29)
        m = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        assert operator_norm(m) == pytest.approx(operator_norm(m.conj().T), abs=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            operator_norm([[np.inf]])

    def test_stack_matches_each_matrix(self):
        rng = np.random.default_rng(31)
        ms = rng.standard_normal((5, 3, 4)) + 1j * rng.standard_normal((5, 3, 4))
        ms[2] = 0.0
        norms = [operator_norm(m) for m in ms]
        assert operator_norms(ms) == operator_norms(list(ms)) == norms
        assert norms[2] == 0.0

    @pytest.mark.parametrize(
        "ms",
        [[np.eye(2), np.eye(3)], [np.ones((2, 3)), np.ones((3, 2))], [np.eye(2), [1.0, 2.0]], np.eye(2)],
        ids=["two_sizes", "transposed", "matrix_and_row", "one_matrix"],
    )
    def test_stack_refuses_matrices_of_two_shapes(self, ms):
        with pytest.raises(ValueError, match="share one shape"):
            operator_norms(ms)
