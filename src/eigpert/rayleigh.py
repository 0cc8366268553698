"""Second-order expansion of the eigensystem along a perturbation line.

Here the perturbation is read as a direction: for ``A + t F`` the eigenvalues
admit ``xi_j(t) = a0_j + t a1_j + t^2 a2_j + O(t^3)`` and the eigenvector
matrix has derivative ``U'(0) = U (N - M * F_hat)`` at ``t = 0``, where ``N``
captures the rotation inside degeneracy blocks that the inverse-gap term
``M * F_hat`` cannot see.  All formulas need ``F_hat`` block-wise diagonal
with strictly decreasing in-block diagonals; ties leave the perturbed
eigenvector branches underdetermined and raise ``DegenerateDirectionError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jacobi
from .alignment import (
    DEFAULT_REL_GAP_TOL,
    MODE_BLOCKWISE,
    AlignedPerturbation,
    aligned_perturbation,
    m_matrix,
    norm_allows,
)
from .errors import DegenerateDirectionError, GapTooSmallError, ModeError
from .matrices import as_readonly, hermitian
from .schur import diag_pseudo_inverse

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

# In-block diagonal gaps of F_hat must exceed this (relative) for the
# eigenvector branch to be well determined.
STRICT_DIAGONAL_TOL = 1e-8


def _require_blockwise(ap: AlignedPerturbation, what: str) -> None:
    if ap.mode != MODE_BLOCKWISE:
        raise ModeError(
            f"{what} needs a block-wise diagonal direction; "
            f"apply blockwise_diagonalize first (mode is {ap.mode!r})"
        )


def _require_untied(ap: AlignedPerturbation, strict_tol: float) -> None:
    """Reject in-block diagonal gaps of ``F_hat`` at most
    ``strict_tol * max(1, ||F||)``."""
    for start, stop in ap.blocks.groups:
        if stop - start < 2:
            continue
        gap = float((ap.e_hat_diag[start : stop - 1] - ap.e_hat_diag[start + 1 : stop]).min())
        if not norm_allows(ap, lambda e: gap > strict_tol * max(1.0, e)):
            raise DegenerateDirectionError(
                f"direction has tied diagonal entries (gap {gap:.3e}) "
                f"inside eigenvalue block [{start}, {stop}); the perturbed "
                "eigenvector branches are not determined to first order"
            )


def _require_line_gap(ap: AlignedPerturbation, t: float) -> None:
    """Reject ``t`` unless ``2 |t| ||F||`` is below the smallest inter-block
    gap, so the perturbed eigenvalues cannot migrate between blocks."""
    gap = ap.blocks.min_gap()
    if len(ap.blocks.groups) > 1 and not norm_allows(ap, lambda e: 2.0 * abs(t) * e < gap):
        raise GapTooSmallError(
            f"|t| ||F|| = {abs(t) * ap.e_norm:.3e} reaches half the smallest "
            f"inter-block gap {gap:.3e}; blocks may mix"
        )


def _cross_block_weights(ap: AlignedPerturbation, j: int, scale: float) -> np.ndarray:
    """Reciprocal gaps ``1 / (lam_k - lam_j)`` with the whole block of ``j``
    zeroed.  The block mask, not the reciprocal threshold, is what removes
    the degenerate directions; the threshold only guards exact ties that
    leak across blocks."""
    w = diag_pseudo_inverse(ap.base.lam - ap.base.lam[j], scale)
    bid = ap.blocks.block_id()
    w[bid == bid[j]] = 0.0
    return w


def rs_coefficients(ap: AlignedPerturbation) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-index expansion coefficients ``(a0, a1, a2)`` of ``xi_j(t)``.

    ``a0 = lam``, ``a1 = diag(F_hat)`` and
    ``a2_j = sum_k |F_hat[k, j]|^2 / (lam_j - lam_k)`` over ``k`` outside the
    block of ``j``.  That ``a2`` misses the in-block coupling that a tie
    leaves undetermined, so tied directions raise
    ``DegenerateDirectionError`` exactly as :func:`n_matrix` does.
    """
    _require_blockwise(ap, "the second-order eigenvalue expansion")
    _require_untied(ap, STRICT_DIAGONAL_TOL)
    n = ap.n
    scale = float(np.abs(ap.base.lam).max())
    a2 = np.zeros(n, dtype=np.float64)
    for j in range(n):
        w = _cross_block_weights(ap, j, scale)
        a2[j] = -float(np.sum(w * np.abs(ap.e_hat[:, j]) ** 2))
    return (
        np.array(ap.base.lam, copy=True),
        np.array(ap.e_hat_diag, copy=True),
        a2,
    )


def n_matrix(ap: AlignedPerturbation, strict_tol: float = STRICT_DIAGONAL_TOL) -> np.ndarray:
    """In-block rotation generator of the eigenvector derivative.

    For ``i != j`` in the same block,

        N[i, j] = (F_hat* P_j F_hat)[i, j] / (F_hat[i, i] - F_hat[j, j])

    with ``P_j`` the reciprocal of ``lam - lam_j`` away from the block;
    all other entries are zero.  The result is skew-Hermitian.  Blocks whose
    in-block diagonal gaps of ``F_hat`` do not exceed
    ``strict_tol * max(1, ||F||)`` raise ``DegenerateDirectionError``.
    """
    _require_blockwise(ap, "the eigenvector derivative")
    _require_untied(ap, strict_tol)
    n = ap.n
    scale = float(np.abs(ap.base.lam).max())
    out = np.zeros((n, n), dtype=np.complex128)
    for g, (start, stop) in enumerate(ap.blocks.groups):
        if stop - start < 2:
            continue
        for j in range(start, stop):
            w = _cross_block_weights(ap, j, scale)
            v = ap.e_hat.conj().T @ (w * ap.e_hat[:, j])
            for i in range(start, stop):
                if i == j:
                    continue
                out[i, j] = v[i] / (ap.e_hat_diag[i] - ap.e_hat_diag[j])
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


def _evaluate(u, a0, a1, a2, u_prime, t: float) -> EigensystemPrediction:
    return EigensystemPrediction(
        xi_hat=as_readonly(a0 + t * a1 + t * t * a2),
        u_hat=as_readonly(u + t * u_prime),
    )


def predict_eigensystem(
    ap: AlignedPerturbation,
    mmat: np.ndarray,
    t: float,
) -> EigensystemPrediction:
    """Evaluate the expansion at parameter ``t`` (may be negative).

    Requires ``2 |t| ||F||`` below the smallest inter-block gap so the
    perturbed eigenvalues cannot migrate between blocks.
    """
    t = float(t)
    _require_line_gap(ap, t)
    a0, a1, a2 = rs_coefficients(ap)
    return _evaluate(ap.base.u, a0, a1, a2, eigenvector_derivative(ap, mmat), t)


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
        t = float(t)
        _require_line_gap(self.ap, t)
        return _evaluate(self.base.u, self.a0, self.a1, self.a2, self.u_prime, t)


def line_expansion(a, f, rel_gap_tol: float = DEFAULT_REL_GAP_TOL) -> LineExpansion:
    """Build the full second-order expansion of ``A + t F`` from dense input."""
    ap = aligned_perturbation(hermitian(a), hermitian(f), rel_gap_tol=rel_gap_tol)
    mmat = m_matrix(ap.base, ap.blocks)
    a0, a1, a2 = rs_coefficients(ap)
    nm = n_matrix(ap)
    u_prime = ap.base.u @ (nm - mmat * ap.e_hat)
    return LineExpansion(
        base=ap.base,
        ap=ap,
        m_mat=as_readonly(mmat),
        a0=as_readonly(a0),
        a1=as_readonly(a1),
        a2=as_readonly(a2),
        n_mat=as_readonly(nm),
        u_prime=as_readonly(u_prime),
    )
