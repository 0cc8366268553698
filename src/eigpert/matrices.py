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

from . import _EXPORTS
from .errors import MatrixParseError

__all__ = [*_EXPORTS["matrices"], "DEFAULT_ASYMMETRY_TOL", "as_readonly"]

# Relative asymmetry above which input is rejected instead of symmetrized.
DEFAULT_ASYMMETRY_TOL = 1e-12


def as_readonly(a: np.ndarray) -> np.ndarray:
    """Mark an array immutable; results stored in result records go through this."""
    a.setflags(write=False)
    return a


def _real(x, name: str) -> float:
    """``float(x)`` for a real scalar ``x``; a complex one, which ``float``
    would truncate to its real part or refuse with a bare ``TypeError``,
    raises ``ValueError`` naming the argument ``name``."""
    if np.iscomplexobj(x):
        raise ValueError(f"{name} must be real, got {x!r}")
    return float(x)


def _ldexp(m: np.ndarray, exponent) -> np.ndarray:
    """``m * 2**exponent`` for a complex array, exact unless a result leaves
    the normal range; ``exponent`` broadcasts against ``m``."""
    out = np.empty_like(m)
    np.ldexp(m.real, exponent, out=out.real)
    np.ldexp(m.imag, exponent, out=out.imag)
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


def _symmetrized(m: np.ndarray) -> np.ndarray:
    """``(m + m^H) / 2`` of each matrix of ``m`` ``(..., n, n)``: exactly
    Hermitian as stored, with a +0 imaginary diagonal.  The oracle's array
    entry needs stacks on which this changes no bit."""
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def hermitian(entries) -> np.ndarray:
    """Build a Hermitian matrix, averaging away round-off level asymmetry.

    The result is :func:`_symmetrized` of the input, exactly Hermitian as
    stored.  Input whose asymmetry exceeds ``DEFAULT_ASYMMETRY_TOL``
    relative to the largest entry is rejected, not repaired.
    """
    m = dense(entries)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"Hermitian matrix must be square, got {m.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.abs(m).max()
        # From 2**1022 up, |m| and m - m^H can overflow; m / 4 decides instead.
        shift = 2 if scale >= 2.0**1022 else 0
        q = _ldexp(m, -shift) if shift else m
        q_scale = np.abs(q).max() if shift else scale
        asym = np.abs(q - q.conj().T).max()
        if asym > DEFAULT_ASYMMETRY_TOL * max(q_scale, 1e-300):
            raise ValueError(
                f"input is not Hermitian: asymmetry {asym * 2.0**shift:.3e} exceeds "
                f"{DEFAULT_ASYMMETRY_TOL:.1e} relative to scale {q_scale * 2.0**shift:.3e}"
            )
        out = _symmetrized(m)
    # A sum overflows only from 2**1022 up.  Halving first cannot overflow;
    # it is not the default because halving a subnormal entry rounds it.
    if shift and not np.isfinite(out).all():
        out = 0.5 * m + 0.5 * m.conj().T
    return out


def operator_norm(m) -> float:
    """Spectral norm (largest singular value) of a rectangular complex matrix;
    a 1-d input is read as one row.

    Computed as the square root of the top eigenvalue of the Gram matrix,
    which goes through the package's own eigensolver so that every norm used
    in error measurements rests on the same ground truth.  The matrix is
    first scaled by an exact power of two to unit largest entry, so the Gram
    matrix neither underflows nor overflows at any representable scale.
    """
    m = np.asarray(m, dtype=np.complex128)
    m = m[None] if m.ndim == 1 else m
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got {m.ndim}-d data")
    return operator_norms(m[None])[0]


def operator_norms(ms) -> list[float]:
    """:func:`operator_norm` of each matrix in ``ms``, an array ``(k, r, c)``
    or a sequence of matrices that share one shape.  The matrices are
    checked, scaled and multiplied as one stack, and one oracle call serves
    all of their Gram matrices, a zero matrix's too."""
    from . import jacobi  # deferred; jacobi imports this module's constructors

    gram, exponent = _grams(ms)
    # A stack of empty matrices has no Gram entry to solve; each norm is 0.
    return _norms(jacobi._solve_stack(gram, vectors=False)[:, 0] if gram.size else np.zeros(len(gram)), exponent)


def _grams(ms) -> tuple[np.ndarray, np.ndarray]:
    """The Gram-forming half of :func:`operator_norms`: the stack of the Gram
    matrices of the matrices in ``ms`` after scaling each by an exact power
    of two to unit largest entry, formed on the smaller side (same nonzero
    spectrum), and the exponents that :func:`_norms` scales back by.  A zero
    matrix keeps exponent 0 and has a zero Gram matrix, which the oracle
    returns unswept with top eigenvalue 0.  A Gram product is Hermitian only
    to round-off, so it is symmetrized."""
    try:
        m = np.asarray(ms, dtype=np.complex128)
    except ValueError:
        m = None  # numpy's error for matrices of different shapes
    if m is None or m.ndim != 3:
        raise ValueError("operator_norms needs matrices that share one shape, as a (k, r, c) stack")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite (no NaN or Inf)")
    _, rows, cols = m.shape
    peak = np.abs(m).max(axis=(1, 2), initial=0.0)
    exponent = np.frexp(peak)[1]
    m = _ldexp(m, -exponent[:, None, None])
    mh = m.conj().swapaxes(1, 2)
    gram = m @ mh if rows <= cols else mh @ m
    return _symmetrized(gram), exponent


def _norms(top: np.ndarray, exponent: np.ndarray) -> list[float]:
    """The finishing half of :func:`operator_norms`: the norms from the top
    eigenvalues of the Gram matrices that :func:`_grams` formed."""
    return np.ldexp(np.sqrt(np.maximum(top, 0.0)), exponent).tolist()


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
    # From the rows as read: the header alone must not reserve rows x cols entries.
    parsed = []
    for lineno in range(first + 1, len(lines)):
        line_text = lines[lineno]
        if len(parsed) == rows:
            if line_text.strip():
                raise MatrixParseError("unexpected trailing content", lineno + 1, 1)
            continue
        if not line_text.strip():
            raise MatrixParseError(f"expected {rows} rows, got {len(parsed)}", lineno + 1, 1)
        tokens = list(_TOKEN_RE.finditer(line_text))
        if len(tokens) != cols:
            # At the first extra token, or past the end of a short row.
            column = tokens[cols].start() + 1 if len(tokens) > cols else len(line_text) + 1
            raise MatrixParseError(f"expected {cols} entries per row, got {len(tokens)}", lineno + 1, column)
        parsed.append([_parse_entry(mt.group(0), lineno + 1, mt.start() + 1) for mt in tokens])
    if len(parsed) < rows:
        raise MatrixParseError(f"expected {rows} rows, got {len(parsed)}", len(lines) + 1, 1)
    return np.array(parsed, dtype=np.complex128)


def parse_hermitian(text: str) -> np.ndarray:
    """Parse a square matrix and validate/symmetrize it as Hermitian."""
    return hermitian(parse_matrix(text))


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
    header ``"rows cols"``), refusing non-finite entries as :func:`dense` does."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.size == 0:
        raise ValueError(f"expected a nonempty 2-d matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite (no NaN or Inf)")
    rows, cols = m.shape
    body = [" ".join(_format_entry(z) for z in m[i, :]) for i in range(rows)]
    return "\n".join([f"{rows} {cols}"] + body) + "\n"
