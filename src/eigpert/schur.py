"""Schur-complement refinement of eigenvalues near a degenerate block.

For a block with representative eigenvalue ``rho`` and multiplicity ``l``,
order the basis block-first and partition ``E_hat`` into ``E11`` (l x l),
``C`` (l x m) and ``D`` (m x m).  With ``K = diag(tau - rho) + D`` over the
complementary eigenvalues ``tau``, the Schur complement

    B = E11 - C K^{-1} C*

predicts the block's perturbed eigenvalues as ``rho + beta_k`` with error
``O(||B|| ||C||^2)``; replacing ``K`` by ``diag(tau - rho)`` costs only
``O(||E||^3)``.  ``B`` is invariant under unitary rotations inside eigenvalue
blocks, so none of this requires the block-wise diagonal mode.

The complements also decide membership in the cone of perturbation
directions along which every block's complement stays diagonal and its
eigenvalues well separated (:func:`vc_membership`).
"""

from __future__ import annotations

import math
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
    "VcReport",
    "schur_data",
    "refined_eigenvalues",
    "vc_membership",
    "schur_similarity_diagnostic",
]

# Require min |tau - rho| to exceed this multiple of ||E|| before inverting K.
DEFAULT_MARGIN_FACTOR = 2.0

# Schur eigenvalues closer than this are reported as an ambiguous pairing.
BETA_GAP_TOL = 1e-12


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


def _complement_eigenvalues(bs: list[np.ndarray]) -> list[np.ndarray]:
    """Eigenvalues of symmetrized Schur complements, all in one oracle call
    that stacks the complements of each size.  A 1 x 1 complement is its own
    (exactly real) eigenvalue; the oracle would return it bit for bit."""
    multi = [i for i, b in enumerate(bs) if b.shape[0] > 1]
    solved = dict(zip(multi, jacobi.eigh_stack([bs[i] for i in multi])))
    return [
        solved[i].lam if i in solved else as_readonly(np.array([b[0, 0].real]))
        for i, b in enumerate(bs)
    ]


def _full_complement(ap: AlignedPerturbation, block_index: int, margin_factor: float) -> tuple:
    """The block-first partition of ``E_hat`` around one block and its
    symmetrized Schur complement ``B = E11 - C K^{-1} C*``."""
    start, stop, rho, rest, tau = _block_margin(ap, block_index, margin_factor)
    e11 = ap.e_hat[start:stop, start:stop]
    c = _coupling(ap, start, stop, rest)
    d = ap.e_hat[rest[:, None], rest[None, :]]
    if rest.size:
        k = np.diag((tau - rho).astype(np.complex128)) + d
        b = e11 - c @ np.linalg.solve(k, c.conj().T)
    else:
        b = np.array(e11, copy=True)
    return rho, tau, c, d, 0.5 * (b + b.conj().T)


def schur_data(
    ap: AlignedPerturbation,
    block_index: int,
    margin_factor: float = DEFAULT_MARGIN_FACTOR,
) -> SchurData:
    """Partition ``E_hat`` around one block and form its Schur complement."""
    rho, tau, c, d, b = _full_complement(ap, block_index, margin_factor)
    l = b.shape[0]
    (beta,) = _complement_eigenvalues([b])
    ambiguous = False
    if l >= 2:
        ambiguous = bool(float((beta[:-1] - beta[1:]).min()) < BETA_GAP_TOL)
    return SchurData(
        block_index=block_index,
        rho=rho,
        l=l,
        m=int(tau.size),
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
    block); ``variant="simplified"`` uses the reciprocal of ``tau - rho``
    instead (error ``O(||E||^3)``).  Entry ``j`` of the result pairs with the
    ``j``-th exact eigenvalue in non-increasing order.  The complements'
    eigenvalues come from one oracle call.
    """
    if variant not in ("full", "simplified"):
        raise ValueError(f"unknown variant {variant!r}; expected 'full' or 'simplified'")
    rhos, bs = [], []
    for g, (start, stop) in enumerate(ap.blocks.groups):
        if variant == "full":
            rho, _, _, _, b = _full_complement(ap, g, margin_factor)
        else:
            # Only the margin check and C; K is never formed.  The margin
            # check has already made every |tau - rho| exceed 2 ||E|| >= 0.
            _, _, rho, rest, tau = _block_margin(ap, g, margin_factor)
            c = _coupling(ap, start, stop, rest)
            w = 1.0 / (tau - rho)
            b = ap.e_hat[start:stop, start:stop] - (c * w) @ c.conj().T
            b = 0.5 * (b + b.conj().T)
        rhos.append(rho)
        bs.append(b)
    out = np.array(ap.base.lam, copy=True)
    for (start, stop), rho, beta in zip(ap.blocks.groups, rhos, _complement_eigenvalues(bs)):
        out[start:stop] = rho + beta
    return out


@dataclass(frozen=True)
class VcReport:
    """Witnesses for the diagonal-cone membership test."""

    member: bool
    per_block_off_diagonal: tuple[float, ...]
    worst_gap_ratio: float
    degenerate_zero: bool


def vc_membership(ap: AlignedPerturbation, c: float, diag_tol: float) -> VcReport:
    """Test whether ``E`` points into the cone where, for every eigenvalue
    block, the block's Schur complement is diagonal (off-diagonal entries at
    most ``diag_tol * ||E||``) and its eigenvalues are pairwise separated by
    at least ``c * ||E||``.

    ``E = 0`` with a repeated eigenvalue present is reported as a non-member
    with the ``degenerate_zero`` flag set: the separation requirement reads
    strictly and all-zero Schur eigenvalues cannot satisfy it.
    """
    if c < 0.0 or diag_tol < 0.0:
        raise ValueError("c and diag_tol must be nonnegative")
    gap = ap.blocks.min_gap()
    if not (ap.e_norm < 0.5 * gap):
        raise GapTooSmallError(
            f"perturbation norm {ap.e_norm:.3e} is not below half the smallest "
            f"inter-block gap {gap:.3e}"
        )
    has_multi = any(stop - start >= 2 for start, stop in ap.blocks.groups)
    if ap.e_norm == 0.0:
        return VcReport(
            member=not has_multi,
            per_block_off_diagonal=tuple(0.0 for _ in ap.blocks.groups),
            worst_gap_ratio=math.inf,
            degenerate_zero=has_multi,
        )
    off_witness = []
    worst_ratio = math.inf
    member = True
    for g, (start, stop) in enumerate(ap.blocks.groups):
        sd = schur_data(ap, g)
        size = stop - start
        if size >= 2:
            off = np.abs(sd.b - np.diag(np.diag(sd.b)))
            worst_off = float(off.max())
            beta = sd.beta
            pair_gap = min(
                abs(float(beta[i] - beta[j]))
                for i in range(size)
                for j in range(i + 1, size)
            )
            ratio = pair_gap / (c * ap.e_norm) if c > 0.0 else math.inf
            worst_ratio = min(worst_ratio, ratio)
            if worst_off > diag_tol * ap.e_norm or pair_gap < c * ap.e_norm:
                member = False
        else:
            worst_off = 0.0
        off_witness.append(worst_off)
    return VcReport(
        member=member,
        per_block_off_diagonal=tuple(off_witness),
        worst_gap_ratio=worst_ratio,
        degenerate_zero=False,
    )


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
