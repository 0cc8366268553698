"""Dense complex-matrix foundation: validated construction, the spectral norm,
and the plain-text exchange format.

Matrices are ordinary ``numpy.ndarray``s of ``complex128``.  The constructors
here enforce finiteness and, for Hermitian input, exact conjugate symmetry as
stored, so the rest of the package can assume both without re-checking.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import MatrixParseError

__all__ = [
    "DEFAULT_ASYMMETRY_TOL",
    "dense",
    "hermitian",
    "operator_norm",
    "operator_norms",
    "parse_matrix",
    "parse_hermitian",
    "format_matrix",
    "as_readonly",
]

# Relative asymmetry above which input is rejected instead of symmetrized.
DEFAULT_ASYMMETRY_TOL = 1e-12


def as_readonly(a: np.ndarray) -> np.ndarray:
    """Mark an array immutable; results stored in result records go through this."""
    a.setflags(write=False)
    return a


def _ldexp(m: np.ndarray, exponent) -> np.ndarray:
    """``m * 2**exponent`` for a complex array, exact unless a result leaves
    the normal range; ``exponent`` broadcasts against ``m``."""
    out = np.empty_like(m)
    out.real = np.ldexp(m.real, exponent)
    out.imag = np.ldexp(m.imag, exponent)
    return out


def dense(entries) -> np.ndarray:
    """Copy ``entries`` into a finite 2-d complex128 array."""
    m = np.array(entries, dtype=np.complex128, copy=True)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got {m.ndim}-d data")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"matrix dimensions must be positive, got {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite (no NaN or Inf)")
    return m


def hermitian(entries) -> np.ndarray:
    """Build a Hermitian matrix, averaging away round-off level asymmetry.

    The result equals its conjugate transpose exactly as stored and has exactly
    real diagonal entries (the average of ``z`` and ``conj(z)`` has zero
    imaginary part in IEEE arithmetic).  Input whose asymmetry exceeds
    ``DEFAULT_ASYMMETRY_TOL`` relative to the largest entry is rejected, not
    repaired.
    """
    m = dense(entries)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"Hermitian matrix must be square, got {m.shape}")
    scale = float(np.abs(m).max())
    asym = float(np.abs(m - m.conj().T).max())
    if asym > DEFAULT_ASYMMETRY_TOL * max(scale, 1e-300):
        raise ValueError(
            f"input is not Hermitian: asymmetry {asym:.3e} exceeds "
            f"{DEFAULT_ASYMMETRY_TOL:.1e} relative to scale {scale:.3e}"
        )
    if scale < 2.0**1022:
        # No sum of two entries can overflow.
        return 0.5 * (m + m.conj().T)
    with np.errstate(over="ignore"):
        total = m + m.conj().T
    if np.isfinite(total).all():
        return 0.5 * total
    # The sum overflowed.  Halving first cannot overflow; it is not the
    # default because halving a subnormal entry rounds it.
    return 0.5 * m + 0.5 * m.conj().T


def operator_norm(m) -> float:
    """Spectral norm (largest singular value) of a rectangular complex matrix.

    Computed as the square root of the top eigenvalue of the Gram matrix,
    which goes through the package's own eigensolver so that every norm used
    in error measurements rests on the same ground truth.  The matrix is
    first scaled by an exact power of two to unit largest entry, so the Gram
    matrix neither underflows nor overflows at any representable scale.
    """
    return operator_norms([m])[0]


def operator_norms(ms) -> list[float]:
    """:func:`operator_norm` of each matrix in ``ms``, with one oracle call
    for all of their Gram matrices."""
    from . import jacobi  # deferred; jacobi imports this module's constructors

    out = [0.0] * len(ms)
    index, exponents, grams = [], [], []
    for i, m in enumerate(ms):
        m = np.asarray(m, dtype=np.complex128)
        if m.ndim == 1:
            m = m.reshape(1, -1)
        if m.ndim != 2:
            raise ValueError(f"expected a matrix, got {m.ndim}-d data")
        if m.size == 0:
            continue
        if not np.isfinite(m).all():
            raise ValueError("matrix entries must be finite (no NaN or Inf)")
        peak = float(np.abs(m).max())
        if peak == 0.0:
            continue
        exponent = math.frexp(peak)[1]
        m = _ldexp(m, -exponent)
        # Form the Gram matrix on the smaller side; same nonzero spectrum.
        g = m @ m.conj().T if m.shape[0] <= m.shape[1] else m.conj().T @ m
        index.append(i)
        exponents.append(exponent)
        grams.append(0.5 * (g + g.conj().T))
    for i, exponent, d in zip(index, exponents, jacobi.eigh_stack(grams)):
        out[i] = math.ldexp(math.sqrt(max(float(d.lam[0]), 0.0)), exponent)
    return out


# ---- text exchange format ----
#
# line 1: "n" (square) or "r c"; then r rows of c whitespace-separated entries.
# Entry grammar: REAL or REAL SIGN REALi, e.g. "1.5", "1.5-0.25i", "0+1i".

_UREAL = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_ENTRY_RE = re.compile(rf"^([+-]?{_UREAL})(?:([+-])({_UREAL})i)?$")
_TOKEN_RE = re.compile(r"\S+")


def _parse_entry(text: str, line: int, column: int) -> complex:
    mt = _ENTRY_RE.match(text)
    if mt is None:
        raise MatrixParseError(f"malformed entry {text!r}", line, column)
    re_part = float(mt.group(1))
    im_part = 0.0
    if mt.group(2) is not None:
        im_part = float(mt.group(3))
        if mt.group(2) == "-":
            im_part = -im_part
    if not (math.isfinite(re_part) and math.isfinite(im_part)):
        raise MatrixParseError(f"non-finite value {text!r}", line, column)
    return complex(re_part, im_part)


def _parse_header(line_text: str, line: int) -> tuple[int, int]:
    tokens = [(mt.group(0), mt.start() + 1) for mt in _TOKEN_RE.finditer(line_text)]
    if len(tokens) not in (1, 2):
        raise MatrixParseError(
            "dimension line must hold one or two positive integers", line, 1
        )
    dims = []
    for text, column in tokens:
        if not text.isdigit() or int(text) < 1:
            raise MatrixParseError(f"bad dimension {text!r}", line, column)
        dims.append(int(text))
    return (dims[0], dims[0]) if len(dims) == 1 else (dims[0], dims[1])


def parse_matrix(text: str) -> np.ndarray:
    """Parse the text exchange format into a dense complex matrix.

    Raises :class:`MatrixParseError` with the 1-based line and column of the
    first offending token.
    """
    lines = [ln[:-1] if ln.endswith("\r") else ln for ln in text.split("\n")]
    first = 0
    while first < len(lines) and not lines[first].strip():
        first += 1
    if first == len(lines):
        raise MatrixParseError("empty input", 1, 1)
    rows, cols = _parse_header(lines[first], first + 1)
    out = np.empty((rows, cols), dtype=np.complex128)
    row = 0
    for lineno in range(first + 1, len(lines)):
        line_text = lines[lineno]
        if row == rows:
            if line_text.strip():
                raise MatrixParseError("unexpected trailing content", lineno + 1, 1)
            continue
        if not line_text.strip():
            raise MatrixParseError(f"expected {rows} rows, got {row}", lineno + 1, 1)
        tokens = list(_TOKEN_RE.finditer(line_text))
        if len(tokens) != cols:
            if len(tokens) > cols:
                bad = tokens[cols]
                raise MatrixParseError(
                    f"expected {cols} entries per row, got {len(tokens)}",
                    lineno + 1,
                    bad.start() + 1,
                )
            raise MatrixParseError(
                f"expected {cols} entries per row, got {len(tokens)}",
                lineno + 1,
                len(line_text) + 1,
            )
        for col_index, mt in enumerate(tokens):
            out[row, col_index] = _parse_entry(mt.group(0), lineno + 1, mt.start() + 1)
        row += 1
    if row < rows:
        raise MatrixParseError(
            f"expected {rows} rows, got {row}", len(lines) + 1, 1
        )
    if not np.isfinite(out).all():
        raise MatrixParseError("non-finite value in matrix", first + 1, 1)
    return out


def parse_hermitian(text: str) -> np.ndarray:
    """Parse a square matrix and validate/symmetrize it as Hermitian."""
    m = parse_matrix(text)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got {m.shape}")
    return hermitian(m)


def _format_real(x: float) -> str:
    return f"{x:.17g}"


def _format_entry(z: complex) -> str:
    re_part = z.real
    im_part = z.imag
    # Emit the imaginary part whenever its bit pattern is not exactly +0.0,
    # so that format -> parse reproduces entries bit for bit.
    if im_part == 0.0 and math.copysign(1.0, im_part) > 0.0:
        return _format_real(re_part)
    sign = "-" if math.copysign(1.0, im_part) < 0.0 else "+"
    return f"{_format_real(re_part)}{sign}{_format_real(abs(im_part))}i"


def format_matrix(m) -> str:
    """Render a matrix in the text exchange format (17 significant digits, LF,
    header ``"rows cols"``)."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.size == 0:
        raise ValueError(f"expected a nonempty 2-d matrix, got shape {m.shape}")
    rows, cols = m.shape
    body = [" ".join(_format_entry(z) for z in m[i, :]) for i in range(rows)]
    return "\n".join([f"{rows} {cols}"] + body) + "\n"
