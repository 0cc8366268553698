"""Second-order expansion of the eigensystem along a perturbation line.

Here the perturbation is read as a direction: for ``A + t F`` the eigenvalues
admit ``xi_j(t) = a0_j + t a1_j + t^2 a2_j + O(t^3)`` and the eigenvector
matrix has derivative ``U'(0) = U (N - M * F_hat)`` at ``t = 0``, where ``N``
captures the rotation inside degeneracy blocks that the inverse-gap term
``M * F_hat`` cannot see.  Both second-order pieces are closed forms over the
inverse-gap matrix ``M``: ``a2 = -colsum(M * |F_hat|^2)``, and ``N`` is
``F_hat* (M * F_hat)`` on same-block pairs divided by the in-block diagonal
gaps of ``F_hat``.  All formulas need ``F_hat`` block-wise diagonal with
strictly decreasing in-block diagonals; ties leave the perturbed eigenvector
branches underdetermined and raise ``DegenerateDirectionError``.  An exactly
zero direction passes the tie guard: each of its second-order terms is 0.

:func:`line_expansion` and :func:`predict_eigensystem` build their
:class:`LineExpansion` with one helper, ``_expansion``.  The convergence
studies read the coefficients (``_a2``, ``_n_matrix``, ``_derivative``)
and the tie guard's gaps (``_tie_gaps``) for all their trials at once, each
one array expression over a stack of which a record is the stack of one,
and evaluate them over the t-grid with ``_series``.  ``M`` and the
same-block pairs of ``N`` depend on the base alone: a record reads them from
its base-only data (``ap.data``), built once per base in
:mod:`eigpert.alignment`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .alignment import (
    DEFAULT_MARGIN_FACTOR,
    AlignedPerturbation,
    _allows,
    _require_blockwise,
    _require_gap,
    _require_m,
    aligned_perturbation,
)
from .errors import DegenerateDirectionError
from .matrices import _ldexp, _real, as_readonly

__all__ = [*_EXPORTS["rayleigh"], "STRICT_DIAGONAL_TOL"]

# In-block diagonal gaps of F_hat must exceed this times ||F|| for the
# eigenvector branch to be well determined.
STRICT_DIAGONAL_TOL = 1e-8


def _tie_gaps(d: np.ndarray, groups) -> np.ndarray:
    """The smallest gap ``d[i] - d[i + 1]`` inside each multi-member block of
    ``groups``, of each diagonal ``d`` ``(..., n)``, as one reduction."""
    multi = [start for start, stop in groups if stop - start >= 2]
    # Each gap d[i] - d[i + 1] sits at i, and one across a block boundary
    # counts as infinite, so the run from a multi-member block's start to the
    # next such start has that block's smallest gap for minimum; min does
    # not round and passes a NaN on, as the block's own min does.
    gap = d[..., :-1] - d[..., 1:]
    gap[..., [stop - 1 for _, stop in groups[:-1]]] = np.inf
    return np.minimum.reduceat(gap, multi, axis=-1)


def _require_untied(ap: AlignedPerturbation) -> None:
    """Reject in-block diagonal gaps of ``F_hat`` at most
    ``STRICT_DIAGONAL_TOL * ||F||``; an exactly zero ``F``, whose ``N`` is 0, passes."""
    gaps = _tie_gaps(ap.e_hat_diag, ap.blocks.groups)
    if not _allows(ap.norm, gaps.min(initial=np.inf, keepdims=True), STRICT_DIAGONAL_TOL)[0]:
        k = int(np.argmin(gaps))
        start, stop = [(start, stop) for start, stop in ap.blocks.groups if stop - start >= 2][k]
        raise DegenerateDirectionError(
            f"direction has tied diagonal entries (gap {gaps[k]:.3e}) inside eigenvalue block "
            f"[{start}, {stop}); the perturbed eigenvector branches are not determined to first order"
        )


def rs_coefficients(ap: AlignedPerturbation) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-index expansion coefficients ``(a0, a1, a2)`` of ``xi_j(t)``.

    ``a0 = lam``, ``a1 = diag(F_hat)`` and
    ``a2_j = sum_k |F_hat[k, j]|^2 / (lam_j - lam_k)`` over ``k`` outside the
    block of ``j``, that is ``a2 = -colsum(M * |F_hat|^2)``.  That ``a2``
    misses the in-block coupling that a tie leaves undetermined, so tied
    directions raise ``DegenerateDirectionError`` exactly as :func:`n_matrix`
    does.  ``|F_hat|`` is scaled by an exact power of two to unit largest
    entry before it is squared, so the square neither underflows nor
    overflows.
    """
    _require_blockwise(ap, "the second-order eigenvalue expansion")
    _require_untied(ap)
    a2 = _a2(ap.e_hat[None], ap.data.m[None])[0]
    return np.array(ap.base.lam, copy=True), np.array(ap.e_hat_diag, copy=True), a2


def _a2(e_hat: np.ndarray, mmat: np.ndarray) -> np.ndarray:
    """``a2 = -colsum(M * |F_hat|^2)`` of each member of the stacks ``e_hat``
    and ``mmat`` ``(k, n, n)``, each member's ``|F_hat|`` scaled by its own
    power of two."""
    mag = np.abs(e_hat)
    exponent = np.frexp(mag.max(axis=(1, 2)))[1]
    with np.errstate(over="ignore", invalid="ignore"):
        weighted = mmat * np.ldexp(mag, -exponent[:, None, None]) ** 2
        # Row sums of the contiguous transpose round exactly as summing each
        # column on its own does; a strided column sum would not.
        a2 = np.ldexp(-np.ascontiguousarray(weighted.swapaxes(1, 2)).sum(axis=2), 2 * exponent[:, None])
    if not np.isfinite(a2).all():
        raise ValueError("the second-order coefficient a2 overflows the floating-point range")
    return a2


def n_matrix(ap: AlignedPerturbation) -> np.ndarray:
    """In-block rotation generator of the eigenvector derivative.

    For ``i != j`` in the same block,

        N[i, j] = (F_hat* (M * F_hat))[i, j] / (F_hat[i, i] - F_hat[j, j])

    with ``M`` the inverse-gap matrix; all other entries are zero.  The
    result is skew-Hermitian.  Blocks whose in-block diagonal gaps of
    ``F_hat`` do not exceed ``STRICT_DIAGONAL_TOL * ||F||`` raise
    ``DegenerateDirectionError``.
    """
    _require_blockwise(ap, "the eigenvector derivative")
    _require_untied(ap)
    return _n_matrix(ap.e_hat[None], ap.data.m[None], ap.data.same, ap.data.same_cols)[0]


def _n_matrix(e_hat: np.ndarray, mmat: np.ndarray, same: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """:func:`n_matrix` of each member of the stacks ``e_hat`` and ``mmat``
    ``(k, n, n)``, without its guards, from the shared ``same`` and ``cols``.

    Both factors of the product are scaled by exact powers of two, so that
    it neither underflows nor overflows: the power of ``F_hat`` cancels
    against its diagonal gaps, and that of ``M * F_hat`` is restored at the
    end."""
    f_exp = np.maximum(_exponent(e_hat.real), _exponent(e_hat.imag))
    unit = _ldexp(e_hat, -f_exp)
    fh = unit.conj().swapaxes(1, 2)
    # Each column of a multi-member block as its own matrix-vector product,
    # which rounds exactly as the per-column definition does; one matrix
    # product would not.  np.matmul makes one such product per member of the
    # stack of contiguous columns, scaled in place through its real view.
    num = np.zeros(e_hat.shape, dtype=np.complex128)
    columns = np.ascontiguousarray((mmat * unit)[:, :, cols].swapaxes(1, 2))
    parts = columns.view(np.float64)
    mf_exp = _exponent(parts)
    np.ldexp(parts, -mf_exp, out=parts)
    num[:, :, cols] = np.matmul(fh[:, None], columns[..., None])[..., 0].swapaxes(1, 2)
    d = np.diagonal(unit, axis1=1, axis2=2).real
    gap = d[:, :, None] - d[:, None, :]
    out = np.divide(num, gap, out=np.zeros_like(num), where=same & (gap != 0.0))
    parts = out.view(np.float64)
    np.ldexp(parts, f_exp + mf_exp, out=parts)
    return out


def _exponent(x: np.ndarray) -> np.ndarray:
    """The power of two that brings the largest magnitude of each member of
    the real stack ``x`` ``(k, m, n)`` into [0.5, 1), shaped ``(k, 1, 1)``."""
    return np.frexp(np.abs(x).max(axis=(1, 2), initial=0.0))[1][:, None, None]


def eigenvector_derivative(ap: AlignedPerturbation, mmat: np.ndarray) -> np.ndarray:
    """Derivative at ``t = 0`` of the eigenvector matrix of ``A + t F``:
    ``U (N - M * F_hat)``.  Dropping ``N`` is wrong whenever a degeneracy
    block reacts to the direction by rotating internally.  ``mmat`` must
    equal the record's own ``M``."""
    _require_m(ap, mmat)
    return _derivative(ap.base.u, ap.data.m, ap.e_hat, n_matrix(ap))


def _derivative(u: np.ndarray, mmat: np.ndarray, e_hat: np.ndarray, n_mat: np.ndarray) -> np.ndarray:
    """``U (N - M * F_hat)`` from ``N`` computed by the caller, over stacks."""
    return u @ (n_mat - mmat * e_hat)


@dataclass(frozen=True, eq=False)
class EigensystemPrediction:
    """Second-order eigenvalues and first-order eigenvectors at one ``t``."""

    xi_hat: np.ndarray
    u_hat: np.ndarray


def predict_eigensystem(
    ap: AlignedPerturbation,
    mmat: np.ndarray,
    t: float,
) -> EigensystemPrediction:
    """Evaluate at ``t`` (may be negative) the expansion that
    :func:`line_expansion` builds, here on ``ap``: a tied direction raises
    first, then :meth:`LineExpansion.at` guards the gaps.  ``mmat`` must
    equal the record's own ``M``."""
    _require_m(ap, mmat)
    return _expansion(ap).at(t)


@dataclass(frozen=True, eq=False)
class LineExpansion:
    """Everything the expansion of ``A + t F`` needs, computed once; the
    record ``ap`` holds the base and its own read-only ``M``."""

    ap: AlignedPerturbation
    a0: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    n_mat: np.ndarray
    u_prime: np.ndarray

    def at(self, t: float) -> EigensystemPrediction:
        """The expansion at a finite ``t``, once every block stands farther
        than ``DEFAULT_MARGIN_FACTOR |t| ||F||`` from the other eigenvalues."""
        t = _real(t, "t")
        if not math.isfinite(t):
            raise ValueError(f"t must be finite, got {t}")
        factor = DEFAULT_MARGIN_FACTOR * abs(t)
        if not math.isfinite(factor):
            raise ValueError(f"{DEFAULT_MARGIN_FACTOR:g} |t| overflows the floating-point range at t = {t}")
        _require_gap(self.ap, factor)
        with np.errstate(over="ignore", invalid="ignore"):
            xi_hat, u_hat = _series(t, self.a0, self.a1, self.a2), _series(t, self.ap.base.u, self.u_prime)
        if not (np.isfinite(xi_hat).all() and np.isfinite(u_hat).all()):
            raise ValueError(f"the expansion at t = {t} overflows the floating-point range")
        return EigensystemPrediction(xi_hat=as_readonly(xi_hat), u_hat=as_readonly(u_hat))


def _series(t, *coefficients):
    """``c0 + t c1 + t t c2 + ...``, the expansion's value at ``t``, with
    ``t`` broadcasting against the coefficients."""
    out, power = coefficients[0], t
    for c in coefficients[1:]:
        out, power = out + power * c, power * t
    return out


def _expansion(ap: AlignedPerturbation) -> LineExpansion:
    """The expansion of ``ap``, from its own ``M`` (``ap.data.m``)."""
    a0, a1, a2 = rs_coefficients(ap)
    # rs_coefficients has run the guards of n_matrix: they run once.
    n_mat = _n_matrix(ap.e_hat[None], ap.data.m[None], ap.data.same, ap.data.same_cols)[0]
    return LineExpansion(
        ap=ap,
        a0=as_readonly(a0),
        a1=as_readonly(a1),
        a2=as_readonly(a2),
        n_mat=as_readonly(n_mat),
        u_prime=as_readonly(_derivative(ap.base.u, ap.data.m, ap.e_hat, n_mat)),
    )


def line_expansion(a, f) -> LineExpansion:
    """Build the full second-order expansion of ``A + t F`` from dense input."""
    ap = aligned_perturbation(a, f)
    return _expansion(ap)
