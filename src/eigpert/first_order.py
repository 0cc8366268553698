"""First-order eigenvalue and eigenvector predictions.

With ``E_hat`` block-wise diagonal, the perturbed eigenvalues are
``lam_j + E_hat[j, j]`` up to ``O(||E||^2)``, and
``U (I - M * E_hat)`` (entrywise product) is a near-orthonormal approximate
eigenvector matrix whose reconstruction misses ``A + E`` by ``O(||E||^2)``.
"""

from __future__ import annotations

import numpy as np

from .alignment import AlignedPerturbation, _require_blockwise, _require_m
from .matrices import operator_norm

__all__ = [
    "first_order_eigenvalues",
    "gershgorin_intervals",
    "u_approx",
    "approx_decomposition_residual",
]


def first_order_eigenvalues(ap: AlignedPerturbation) -> np.ndarray:
    """Predicted eigenvalues ``lam_j + E_hat[j, j]``, accurate to O(||E||^2)."""
    _require_blockwise(ap, "the first-order eigenvalue formula")
    return _eigenvalues(ap.base.lam, ap.e_hat)


def _eigenvalues(lam: np.ndarray, e_hat: np.ndarray) -> np.ndarray:
    """``lam + diag(E_hat)`` over stacks: ``lam`` ``(..., n)`` against
    ``e_hat`` ``(..., n, n)``."""
    return lam + np.diagonal(e_hat, axis1=-2, axis2=-1).real


def gershgorin_intervals(ap: AlignedPerturbation) -> list[tuple[float, float]]:
    """Per-index enclosing intervals ``(center, radius)`` for the exact
    perturbed eigenvalues: centers are the first-order predictions, radii the
    off-diagonal row sums of ``E_hat``.

    The discs of ``diag(lam) + E_hat`` are real intervals since both center
    matrices are Hermitian; each perturbed eigenvalue lies in the union.
    """
    centers = first_order_eigenvalues(ap)
    radii = np.abs(ap.e_hat_off).sum(axis=1)
    return [(float(c), float(r)) for c, r in zip(centers, radii)]


def u_approx(ap: AlignedPerturbation, mmat: np.ndarray) -> np.ndarray:
    """First-order eigenvector matrix ``U (I - M * E_hat)``.

    ``M * E_hat`` is skew-Hermitian, so the result is orthonormal up to
    ``||M * E_hat||^2`` exactly, not merely to first order.  ``mmat`` must
    equal the record's own ``M`` (:func:`~eigpert.alignment.m_matrix`).
    """
    _require_blockwise(ap, "the first-order eigenvector formula")
    _require_m(ap, mmat)
    return _u_approx(ap.base.u, ap.data.m, ap.e_hat)


def _u_approx(u: np.ndarray, mmat: np.ndarray, e_hat: np.ndarray) -> np.ndarray:
    """``U (I - M * E_hat)`` over stacks that broadcast against each other."""
    return u @ (np.eye(e_hat.shape[-1], dtype=np.complex128) - mmat * e_hat)


def _residuals(u, lam, e, e_hat, mmat) -> np.ndarray:
    """The first-order reconstruction ``U_ap diag(lam + E_hat_diag) U_ap*``
    minus ``A + E``, over stacks: ``u``, ``e``, ``e_hat`` and ``mmat``
    ``(..., n, n)`` and ``lam`` ``(..., n)`` broadcast against each other,
    every product batched."""
    u_ap = _u_approx(u, mmat, e_hat)
    target = u @ _diag(lam) @ u.conj().swapaxes(-1, -2) + e
    rebuilt = u_ap @ _diag(_eigenvalues(lam, e_hat)) @ u_ap.conj().swapaxes(-1, -2)
    return rebuilt - target


def _diag(d: np.ndarray) -> np.ndarray:
    """Complex diagonal matrices with the real diagonals ``d`` ``(..., n)``."""
    n = d.shape[-1]
    out = np.zeros(d.shape + (n,), dtype=np.complex128)
    out[..., np.arange(n), np.arange(n)] = d
    return out


def approx_decomposition_residual(ap: AlignedPerturbation, mmat: np.ndarray) -> float:
    """Operator-norm gap between ``A + E`` and its first-order reconstruction
    ``U_ap diag(lam + E_hat_diag) U_ap*``.  Decays quadratically in
    ``||E||``.  ``mmat`` must equal the record's own ``M``."""
    _require_blockwise(ap, "the first-order eigenvector formula")
    _require_m(ap, mmat)
    return operator_norm(_residuals(ap.base.u, ap.base.lam, ap.e, ap.e_hat, ap.data.m))
