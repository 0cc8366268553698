"""Schur-complement refinement of eigenvalues near a degenerate block.

For a block with representative eigenvalue ``rho`` and multiplicity ``l``,
order the basis block-first and partition ``E_hat`` into ``E11`` (l x l),
``C`` (l x m) and ``D`` (m x m).  With ``K = diag(tau - rho) + D`` over the
complementary eigenvalues ``tau``, the Schur complement

    B = E11 - C K^{-1} C*

predicts the block's perturbed eigenvalues as ``rho + beta_k`` with error
``O(||B|| ||C||^2)``; replacing ``K`` by the thresholded pseudo-inverse of
``diag(tau - rho)`` costs only ``O(||E||^3)``.  ``B`` is invariant under
unitary rotations inside eigenvalue blocks, so none of this requires the
block-wise diagonal mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jacobi
from .alignment import AlignedPerturbation, norm_allows
from .errors import GapTooSmallError
from .matrices import as_readonly, operator_norm

__all__ = [
    "DEFAULT_MARGIN_FACTOR",
    "SchurData",
    "SimilarityDiagnostic",
    "diag_pseudo_inverse",
    "schur_data",
    "refined_eigenvalues",
    "schur_similarity_diagnostic",
]

# Require min |tau - rho| to exceed this multiple of ||E|| before inverting K.
DEFAULT_MARGIN_FACTOR = 2.0

# Relative threshold below which a diagonal value is treated as exactly zero.
PSEUDO_INVERSE_RTOL = 1e-12

# Schur eigenvalues closer than this are reported as an ambiguous pairing.
BETA_GAP_TOL = 1e-12


def diag_pseudo_inverse(values, scale: float) -> np.ndarray:
    """Entrywise reciprocal with a threshold: values of magnitude at most
    ``1e-12 * max(1, scale)`` invert to zero instead of blowing up."""
    values = np.asarray(values, dtype=np.float64)
    thr = PSEUDO_INVERSE_RTOL * max(1.0, float(scale))
    out = np.zeros_like(values)
    keep = np.abs(values) > thr
    out[keep] = 1.0 / values[keep]
    return out


@dataclass(frozen=True)
class SchurData:
    """Partitioned perturbation data for one eigenvalue block.

    Matrices are stored in the block-first ordering: indices of the block,
    then all remaining indices in their original order.
    """

    block_index: int
    rho: float
    l: int
    m: int
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    lambda_tau: np.ndarray
    beta: np.ndarray
    beta_gap_ambiguous: bool


def _block_margin(ap: AlignedPerturbation, block_index: int, margin_factor: float) -> tuple:
    groups = ap.blocks.groups
    if not 0 <= block_index < len(groups):
        raise ValueError(f"block index {block_index} out of range for {len(groups)} blocks")
    start, stop = groups[block_index]
    rho = ap.blocks.rep_values[block_index]
    rest = np.r_[np.arange(0, start), np.arange(stop, ap.n)]
    tau = ap.base.lam[rest]
    if rest.size:
        margin = float(np.abs(tau - rho).min())
        if not norm_allows(ap, lambda e: margin > margin_factor * e):
            raise GapTooSmallError(
                f"block {block_index}: separation {margin:.3e} from other eigenvalues "
                f"does not exceed {margin_factor:g} * ||E|| = {margin_factor * ap.e_norm:.3e}"
            )
    return start, stop, rho, rest, tau


def _coupling(ap: AlignedPerturbation, start: int, stop: int, rest: np.ndarray) -> np.ndarray:
    """The block-to-rest coupling ``C`` of ``E_hat``."""
    return ap.e_hat[np.arange(start, stop)[:, None], rest[None, :]]


def _complement_eigenvalues(b: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetrized Schur complement.  A 1 x 1 complement is
    its own (exactly real) eigenvalue; the oracle would return it bit for bit."""
    if b.shape[0] == 1:
        return as_readonly(np.array([b[0, 0].real]))
    return jacobi.eigh(b).lam


def schur_data(
    ap: AlignedPerturbation,
    block_index: int,
    margin_factor: float = DEFAULT_MARGIN_FACTOR,
) -> SchurData:
    """Partition ``E_hat`` around one block and form its Schur complement."""
    start, stop, rho, rest, tau = _block_margin(ap, block_index, margin_factor)
    l = stop - start
    m = int(rest.size)
    e11 = ap.e_hat[start:stop, start:stop]
    c = _coupling(ap, start, stop, rest)
    d = ap.e_hat[rest[:, None], rest[None, :]]
    if m:
        k = np.diag((tau - rho).astype(np.complex128)) + d
        b = e11 - c @ np.linalg.solve(k, c.conj().T)
    else:
        b = np.array(e11, copy=True)
    b = 0.5 * (b + b.conj().T)
    beta = _complement_eigenvalues(b)
    ambiguous = False
    if l >= 2:
        ambiguous = bool(float((beta[:-1] - beta[1:]).min()) < BETA_GAP_TOL)
    return SchurData(
        block_index=block_index,
        rho=rho,
        l=l,
        m=m,
        b=as_readonly(b),
        c=as_readonly(np.array(c, copy=True)),
        d=as_readonly(np.array(d, copy=True)),
        lambda_tau=as_readonly(np.array(tau, copy=True)),
        beta=beta,
        beta_gap_ambiguous=ambiguous,
    )


def refined_eigenvalues(
    ap: AlignedPerturbation,
    variant: str = "full",
    margin_factor: float = DEFAULT_MARGIN_FACTOR,
) -> np.ndarray:
    """Schur-refined eigenvalue predictions for every block.

    ``variant="full"`` solves with ``K`` (error ``O(||B|| ||C||^2)`` per
    block); ``variant="simplified"`` uses the thresholded reciprocal of
    ``tau - rho`` instead (error ``O(||E||^3)``).  Entry ``j`` of the result
    pairs with the ``j``-th exact eigenvalue in non-increasing order.
    """
    if variant not in ("full", "simplified"):
        raise ValueError(f"unknown variant {variant!r}; expected 'full' or 'simplified'")
    out = np.array(ap.base.lam, copy=True)
    scale = float(np.abs(ap.base.lam).max())
    for g, (start, stop) in enumerate(ap.blocks.groups):
        if variant == "full":
            sd = schur_data(ap, g, margin_factor=margin_factor)
            rho, beta = sd.rho, sd.beta
        else:
            # Only the margin check and C; K is never formed.
            _, _, rho, rest, tau = _block_margin(ap, g, margin_factor)
            c = _coupling(ap, start, stop, rest)
            w = diag_pseudo_inverse(tau - rho, scale)
            b = ap.e_hat[start:stop, start:stop] - (c * w) @ c.conj().T
            beta = _complement_eigenvalues(0.5 * (b + b.conj().T))
        out[start:stop] = rho + beta
    return out


@dataclass(frozen=True)
class SimilarityDiagnostic:
    """Block-triangular similarity transform of the perturbed matrix.

    ``transformed`` is ``A + E`` conjugated (in the block-first ordering) so
    that its leading l x l corner is exactly the Schur complement plus
    ``rho I``; ``q2_norm`` and ``q3_norm`` measure the remaining coupling
    blocks ``C`` and ``K^{-1} C* B``.
    """

    transformed: np.ndarray
    q2_norm: float
    q3_norm: float


def schur_similarity_diagnostic(
    ap: AlignedPerturbation,
    block_index: int,
    margin_factor: float = DEFAULT_MARGIN_FACTOR,
) -> SimilarityDiagnostic:
    sd = schur_data(ap, block_index, margin_factor=margin_factor)
    if sd.m == 0:
        t = sd.b + sd.rho * np.eye(sd.l, dtype=np.complex128)
        return SimilarityDiagnostic(transformed=as_readonly(t), q2_norm=0.0, q3_norm=0.0)
    k = np.diag((sd.lambda_tau - sd.rho).astype(np.complex128)) + sd.d
    x = np.linalg.solve(k, sd.c.conj().T)
    lower_left = x @ sd.b
    t = np.block([[sd.b, sd.c], [lower_left, k + x @ sd.c]])
    t = t + sd.rho * np.eye(ap.n, dtype=np.complex128)
    return SimilarityDiagnostic(
        transformed=as_readonly(t),
        q2_norm=operator_norm(sd.c),
        q3_norm=operator_norm(lower_left),
    )
