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

No block solves with ``K``: every block's ``X = K^{-1} C*`` is its columns of
the fixed point of ``X = W o (E_hat - E_hat X)``, with ``o`` the entrywise
product, ``W[i, j] = 1 / (lam_i - rho_block(j))`` across blocks and 0 inside
them, and ``B`` is the in-block part of ``E_hat - E_hat X``.  One ``n x n``
product per iteration serves all blocks, and the gap guard of
:mod:`eigpert.alignment`, ``min |tau - rho| > DEFAULT_MARGIN_FACTOR ||E||``
with the factor 2, makes the map contract by less than 1/2 (Stewart, SIAM
Review 15(4), 1973).  The simplified variant is the first iterate; the
full one stops once an update is at most ``4 eps max|X|``.

The complements also decide membership in the cone of perturbation
directions along which every block's complement stays diagonal and its
eigenvalues well separated (:func:`vc_membership`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import jacobi
from .alignment import _EPS, DEFAULT_MARGIN_FACTOR, AlignedPerturbation, _require_gap
from .errors import ConvergenceError
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

# Fixed-point iterations, the first included, before ConvergenceError.
MAX_ITERATIONS = 60

# The full variant stops at an update of at most _STOP_TOL * max|X|, not eps: round-off
# can keep iterates flipping by two ulps (1.23 eps max|X| in 1 of 1800 predictions at n=60).
_STOP_TOL = 4.0 * _EPS


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


def _fixed_point(ap: AlignedPerturbation, start: int, stop: int, variant: str) -> np.ndarray:
    """Columns ``start:stop`` of the fixed point, or of its first iterate for
    the simplified variant; their blocks' margins must have been checked."""
    bid = ap.blocks.block_id()
    rho = np.asarray(ap.blocks.rep_values)[bid[start:stop]]
    cross = bid[:, None] != bid[None, start:stop]
    w = np.zeros(cross.shape)
    w[cross] = 1.0 / (ap.base.lam[:, None] - rho[None, :])[cross]
    c = ap.e_hat[:, start:stop]
    x, step = w * c, math.inf  # the first iterate, from X = 0
    if variant == "simplified":
        return x
    for _ in range(1, MAX_ITERATIONS):
        x, prev = w * (c - ap.e_hat @ x), x
        step = float(np.abs(x - prev).max())
        if step <= _STOP_TOL * float(np.abs(x).max()):
            return x
    message = f"Schur fixed point: update {step:.3e} after {MAX_ITERATIONS} iterations"
    raise ConvergenceError(message, off_mass=step, member=0)


def _complement(ap: AlignedPerturbation, x: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Symmetrized ``B = E11 - E_hat[block, :] X[:, block]``, ``x`` the block's columns."""
    b = ap.e_hat[start:stop, start:stop] - ap.e_hat[start:stop] @ x
    return 0.5 * (b + b.conj().T)


def _complement_eigenvalues(bs: list[np.ndarray]) -> list[np.ndarray]:
    """Eigenvalues of symmetrized Schur complements, from one oracle call that
    stacks the complements of each size; a 1 x 1 complement needs no sweep
    and comes back as its own entry, the power-of-two prescale being exact."""
    return [d.lam for d in jacobi._eigvalsh_stack(bs)]


def schur_data(ap: AlignedPerturbation, block_index: int) -> SchurData:
    """Partition ``E_hat`` around one block and form its Schur complement."""
    return _schur_data(ap, block_index)[0]


def _schur_data(ap: AlignedPerturbation, block_index: int) -> tuple[SchurData, np.ndarray]:
    """:func:`schur_data` and ``X = K^{-1} C*``, the block's columns of the
    fixed point on the rest rows."""
    groups = ap.blocks.groups
    if not 0 <= block_index < len(groups):
        raise ValueError(f"block index {block_index} out of range for {len(groups)} blocks")
    _require_gap(ap, DEFAULT_MARGIN_FACTOR, [block_index])
    start, stop = groups[block_index]
    x = _fixed_point(ap, start, stop, "full")
    b = _complement(ap, x, start, stop)
    (beta,) = _complement_eigenvalues([b])
    rest = np.r_[0:start, stop : ap.n]
    sd = SchurData(
        block_index=block_index,
        rho=ap.blocks.rep_values[block_index],
        l=stop - start,
        m=int(rest.size),
        b=as_readonly(b),
        c=as_readonly(ap.e_hat[start:stop, rest]),
        d=as_readonly(ap.e_hat[rest[:, None], rest]),
        lambda_tau=as_readonly(ap.base.lam[rest]),
        beta=beta,
    )
    return sd, x[rest]


def refined_eigenvalues(ap: AlignedPerturbation, variant: str = "full") -> np.ndarray:
    """Schur-refined eigenvalue predictions for every block.

    ``variant="full"`` iterates the shared fixed point to convergence, which
    is solving with ``K`` (error ``O(||B|| ||C||^2)`` per block);
    ``variant="simplified"`` stops at its first iterate, which replaces ``K``
    by ``diag(tau - rho)`` (error ``O(||E||^3)``).  Entry ``j`` of the result
    pairs with the ``j``-th exact eigenvalue in non-increasing order.  The
    complements' eigenvalues come from one oracle call.
    """
    if variant not in ("full", "simplified"):
        raise ValueError(f"unknown variant {variant!r}; expected 'full' or 'simplified'")
    rhos, bs = _complements(ap, variant)
    # The blocks are contiguous and cover every index in order.
    return np.concatenate([rho + beta for rho, beta in zip(rhos, _complement_eigenvalues(bs))])


def _complements(ap: AlignedPerturbation, variant: str) -> tuple[list[float], list[np.ndarray]]:
    """Every block's representative value and symmetrized Schur complement,
    in block order, from one fixed point.  Their eigenvalues are left to
    :func:`_complement_eigenvalues`, so that callers can solve the
    complements of many perturbations in one oracle call."""
    _require_gap(ap, DEFAULT_MARGIN_FACTOR)
    x = _fixed_point(ap, 0, ap.n, variant)
    bs = [_complement(ap, x[:, s:e], s, e) for s, e in ap.blocks.groups]
    return list(ap.blocks.rep_values), bs


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
    strictly and all-zero Schur eigenvalues cannot satisfy it.  Otherwise the
    complements need the gap guard that :func:`refined_eigenvalues` applies.
    """
    if not (c >= 0.0 and diag_tol >= 0.0):
        raise ValueError("c and diag_tol must be nonnegative")
    has_multi = any(stop - start >= 2 for start, stop in ap.blocks.groups)
    if ap.e_norm == 0.0:
        return VcReport(
            member=not has_multi,
            per_block_off_diagonal=tuple(0.0 for _ in ap.blocks.groups),
            worst_gap_ratio=math.inf,
            degenerate_zero=has_multi,
        )
    _, bs = _complements(ap, "full")
    off = tuple(float(np.abs(b - np.diag(np.diag(b))).max()) for b in bs)
    # beta is sorted, so the closest pair is adjacent; a 1 x 1 block has none.
    gaps = [float((b[:-1] - b[1:]).min()) for b in _complement_eigenvalues(bs) if b.size >= 2]
    return VcReport(
        member=max(off) <= diag_tol * ap.e_norm and min(gaps, default=math.inf) >= c * ap.e_norm,
        per_block_off_diagonal=off,
        worst_gap_ratio=min(gaps) / (c * ap.e_norm) if gaps and c > 0.0 else math.inf,
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


def schur_similarity_diagnostic(ap: AlignedPerturbation, block_index: int) -> SimilarityDiagnostic:
    sd, x = _schur_data(ap, block_index)
    k = np.diag((sd.lambda_tau - sd.rho).astype(np.complex128)) + sd.d
    lower_left = x @ sd.b
    t = np.block([[sd.b, sd.c], [lower_left, k + x @ sd.c]]) + sd.rho * np.eye(ap.n)
    return SimilarityDiagnostic(
        transformed=as_readonly(t),
        q2_norm=operator_norm(sd.c),
        q3_norm=operator_norm(lower_left),
    )
