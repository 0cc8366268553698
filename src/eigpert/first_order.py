"""First-order eigenvalue and eigenvector predictions.

With ``E_hat`` block-wise diagonal, the perturbed eigenvalues are
``lam_j + E_hat[j, j]`` up to ``O(||E||^2)``, and
``U (I - M * E_hat)`` (entrywise product) is a near-orthonormal approximate
eigenvector matrix whose reconstruction misses ``A + E`` by ``O(||E||^2)``.
"""

from __future__ import annotations

import numpy as np

from .alignment import AlignedPerturbation, _require_blockwise
from .matrices import operator_norm

__all__ = [
    "first_order_eigenvalues",
    "gershgorin_intervals",
    "u_approx",
    "decomposition_residual",
    "approx_decomposition_residual",
]


def first_order_eigenvalues(ap: AlignedPerturbation) -> np.ndarray:
    """Predicted eigenvalues ``lam_j + E_hat[j, j]``, accurate to O(||E||^2)."""
    _require_blockwise(ap, "the first-order eigenvalue formula")
    return ap.base.lam + ap.e_hat_diag


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
    ``||M * E_hat||^2`` exactly, not merely to first order.
    """
    _require_blockwise(ap, "the first-order eigenvector formula")
    return ap.base.u @ (np.eye(ap.n, dtype=np.complex128) - mmat * ap.e_hat)


def decomposition_residual(ap: AlignedPerturbation, mmat: np.ndarray) -> np.ndarray:
    """The first-order reconstruction ``U_ap diag(lam + E_hat_diag) U_ap*``
    minus ``A + E``."""
    u_ap = u_approx(ap, mmat)
    target = ap.base.u @ np.diag(ap.base.lam).astype(np.complex128) @ ap.base.u.conj().T + ap.e
    rebuilt = u_ap @ np.diag(first_order_eigenvalues(ap)).astype(np.complex128) @ u_ap.conj().T
    return rebuilt - target


def approx_decomposition_residual(ap: AlignedPerturbation, mmat: np.ndarray) -> float:
    """Operator-norm gap between ``A + E`` and its first-order reconstruction,
    the norm of :func:`decomposition_residual`.  Decays quadratically in
    ``||E||``."""
    return operator_norm(decomposition_residual(ap, mmat))
