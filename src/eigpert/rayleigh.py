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
branches underdetermined and raise ``DegenerateDirectionError``.

:func:`line_expansion`, :func:`predict_eigensystem` and the convergence
studies build their :class:`LineExpansion` with one helper, ``_expansion``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import jacobi
from .alignment import (
    DEFAULT_MARGIN_FACTOR,
    AlignedPerturbation,
    _require_above,
    _require_blockwise,
    _require_gap,
    aligned_perturbation,
    m_matrix,
)
from .errors import DegenerateDirectionError
from .matrices import as_readonly

__all__ = [
    "STRICT_DIAGONAL_TOL",
    "EigensystemPrediction",
    "LineExpansion",
    "rs_coefficients",
    "n_matrix",
    "eigenvector_derivative",
    "predict_eigensystem",
    "line_expansion",
]

# In-block diagonal gaps of F_hat must exceed this times ||F|| for the
# eigenvector branch to be well determined.
STRICT_DIAGONAL_TOL = 1e-8


def _require_untied(ap: AlignedPerturbation) -> None:
    """Reject in-block diagonal gaps of ``F_hat`` at most
    ``STRICT_DIAGONAL_TOL * ||F||``."""
    d = ap.e_hat_diag
    multi = [(start, stop) for start, stop in ap.blocks.groups if stop - start >= 2]
    gaps = [(d[start : stop - 1] - d[start + 1 : stop]).min() for start, stop in multi]
    _require_above(ap, gaps, STRICT_DIAGONAL_TOL, lambda k: DegenerateDirectionError(
        f"direction has tied diagonal entries (gap {gaps[k]:.3e}) inside eigenvalue block "
        f"[{multi[k][0]}, {multi[k][1]}); the perturbed eigenvector branches are not "
        "determined to first order"
    ))


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
    mag = np.abs(ap.e_hat)
    exponent = math.frexp(float(mag.max()))[1]
    weighted = m_matrix(ap.base, ap.blocks) * np.ldexp(mag, -exponent) ** 2
    # Row sums of the contiguous transpose round exactly as summing each
    # column on its own does; a strided column sum would not.
    a2 = np.ldexp(-np.ascontiguousarray(weighted.T).sum(axis=1), 2 * exponent)
    return np.array(ap.base.lam, copy=True), np.array(ap.e_hat_diag, copy=True), a2


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
    n = ap.n
    bid = ap.blocks.block_id()
    same = (bid[:, None] == bid[None, :]) & ~np.eye(n, dtype=bool)
    mf = m_matrix(ap.base, ap.blocks) * ap.e_hat
    fh = ap.e_hat.conj().T
    # One matrix-vector product per column of a multi-member block rounds
    # exactly as the per-column definition does; one matrix product would not.
    num = np.zeros((n, n), dtype=np.complex128)
    for j in np.flatnonzero(same.any(axis=0)):
        num[:, j] = fh @ np.ascontiguousarray(mf[:, j])
    d = ap.e_hat_diag
    out = np.zeros((n, n), dtype=np.complex128)
    np.divide(num, d[:, None] - d[None, :], out=out, where=same)
    return out


def eigenvector_derivative(ap: AlignedPerturbation, mmat: np.ndarray) -> np.ndarray:
    """Derivative at ``t = 0`` of the eigenvector matrix of ``A + t F``:
    ``U (N - M * F_hat)``.  Dropping ``N`` is wrong whenever a degeneracy
    block reacts to the direction by rotating internally."""
    return ap.base.u @ (n_matrix(ap) - mmat * ap.e_hat)


@dataclass(frozen=True)
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
    :func:`line_expansion` builds, here on ``ap`` and ``mmat``: a tied
    direction raises first, then :meth:`LineExpansion.at` guards the gaps."""
    return _expansion(ap, mmat).at(t)


@dataclass(frozen=True)
class LineExpansion:
    """Everything the expansion of ``A + t F`` needs, computed once."""

    base: jacobi.SpectralDecomposition
    ap: AlignedPerturbation
    m_mat: np.ndarray
    a0: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    n_mat: np.ndarray
    u_prime: np.ndarray

    def at(self, t: float) -> EigensystemPrediction:
        """The expansion at a finite ``t``, once every block stands farther
        than ``DEFAULT_MARGIN_FACTOR |t| ||F||`` from the other eigenvalues."""
        t = float(t)
        if not math.isfinite(t):
            raise ValueError(f"t must be finite, got {t}")
        _require_gap(self.ap, DEFAULT_MARGIN_FACTOR * abs(t))
        return EigensystemPrediction(
            xi_hat=as_readonly(self.a0 + t * self.a1 + t * t * self.a2),
            u_hat=as_readonly(self.base.u + t * self.u_prime),
        )


def _expansion(ap: AlignedPerturbation, mmat: np.ndarray) -> LineExpansion:
    """The expansion of ``ap``; ``mmat`` is stored as given, flags and all."""
    a0, a1, a2 = rs_coefficients(ap)
    n_mat = n_matrix(ap)
    return LineExpansion(
        base=ap.base,
        ap=ap,
        m_mat=mmat,
        a0=as_readonly(a0),
        a1=as_readonly(a1),
        a2=as_readonly(a2),
        n_mat=as_readonly(n_mat),
        u_prime=as_readonly(ap.base.u @ (n_mat - mmat * ap.e_hat)),
    )


def line_expansion(a, f) -> LineExpansion:
    """Build the full second-order expansion of ``A + t F`` from dense input."""
    ap = aligned_perturbation(a, f)
    return _expansion(ap, as_readonly(m_matrix(ap.base, ap.blocks)))
