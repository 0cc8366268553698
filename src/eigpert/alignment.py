"""Choosing and exploiting the eigenbasis of the unperturbed matrix.

Given ``A = U diag(lam) U*`` and a Hermitian perturbation ``E``, everything
downstream works with the conjugated perturbation ``E_hat = U* E U``.  This
module groups eigenvalues into degeneracy blocks, rotates ``U`` inside each
block so ``E_hat`` becomes block-wise diagonal with non-increasing in-block
diagonal, and builds the inverse-gap matrix ``M``.  The cone-membership test,
which needs Schur complements, lives in :mod:`eigpert.schur`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import jacobi
from .errors import GapTooSmallError, ModeError
from .matrices import as_readonly, hermitian

__all__ = [
    "DEFAULT_REL_GAP_TOL",
    "MODE_RAW",
    "MODE_BLOCKWISE",
    "BlockStructure",
    "LazyNorm",
    "AlignedPerturbation",
    "group_eigenvalues",
    "conjugate_to_eigenbasis",
    "blockwise_diagonalize",
    "scaled",
    "norm_allows",
    "m_matrix",
    "align_columns",
    "aligned_perturbation",
]

# Relative gap below which adjacent eigenvalues share a degeneracy block.
DEFAULT_REL_GAP_TOL = 1e-8

# Oracle tolerance for the in-block rotations.  The default, 1e-13 times the
# block size, bounds the in-block off-diagonal mass left in E_hat only by
# 1e-13 * size * ||E||; this bounds it by 1e-14 ||E|| at any block size.
BLOCK_TOL = 1e-14

MODE_RAW = "raw"
MODE_BLOCKWISE = "blockwise_diagonal"


def _require_blockwise(ap: AlignedPerturbation, what: str) -> None:
    if ap.mode != MODE_BLOCKWISE:
        raise ModeError(
            f"{what} needs a block-wise diagonal perturbation; "
            f"apply blockwise_diagonalize first (mode is {ap.mode!r})"
        )


@dataclass(frozen=True)
class BlockStructure:
    """Contiguous degeneracy groups of a non-increasing eigenvalue vector.

    ``groups`` holds half-open ``(start, stop)`` index ranges; ``rep_values``
    holds one representative (mean) eigenvalue per group.
    """

    groups: tuple[tuple[int, int], ...]
    rep_values: tuple[float, ...]

    @property
    def n(self) -> int:
        return self.groups[-1][1]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(stop - start for start, stop in self.groups)

    def block_id(self) -> np.ndarray:
        """Per-index group number, as an int array of length n."""
        out = np.empty(self.n, dtype=np.intp)
        for g, (start, stop) in enumerate(self.groups):
            out[start:stop] = g
        return out

    def min_gap(self) -> float:
        """Smallest gap between representative values of adjacent groups."""
        if len(self.rep_values) < 2:
            return math.inf
        reps = self.rep_values
        return min(reps[g] - reps[g + 1] for g in range(len(reps) - 1))


def group_eigenvalues(lam) -> BlockStructure:
    """Split a non-increasing eigenvalue vector into degeneracy groups.

    Adjacent values belong to one group when their gap is at most
    ``DEFAULT_REL_GAP_TOL * max|lam|``; a gap exactly at the tolerance still
    joins (the boundary tie goes to the earlier, larger-eigenvalue group).
    With no absolute floor, scaling ``lam`` by a positive factor leaves the
    groups unchanged except for a gap within rounding of the tolerance.
    """
    lam = np.asarray(lam, dtype=np.float64)
    if lam.ndim != 1 or lam.size == 0:
        raise ValueError("expected a nonempty 1-d eigenvalue vector")
    if np.any(np.diff(lam) > 0):
        raise ValueError("eigenvalues must be non-increasing")
    tol = DEFAULT_REL_GAP_TOL * float(np.abs(lam).max())
    groups = []
    start = 0
    for i in range(1, lam.size):
        if lam[i - 1] - lam[i] > tol:
            groups.append((start, i))
            start = i
    groups.append((start, lam.size))
    reps = tuple(float(np.mean(lam[s:e])) for s, e in groups)
    return BlockStructure(groups=tuple(groups), rep_values=reps)


_EPS = float(np.finfo(np.float64).eps)

class LazyNorm:
    """``||E||`` as the oracle computes it, evaluated on first read and cached,
    with certified bounds ``lower <= value <= upper`` available up front.

    The bounds hold for the oracle's value, not merely for the exact norm:
    they are widened by a slack covering the oracle's termination error and
    its round-off, so a decision the bounds settle is the decision the
    oracle's value would give.
    """

    __slots__ = ("lower", "upper", "_compute", "_value")

    def __init__(self, lower: float, upper: float, compute: Callable[[], float]) -> None:
        self.lower = lower
        self.upper = upper
        self._compute = compute
        self._value: float | None = None

    @classmethod
    def of(cls, e_hat: np.ndarray) -> "LazyNorm":
        """Bounds from the column norms and the Frobenius norm of ``e_hat``,
        the oracle norm ``max |eigh(e_hat).lam|`` deferred."""
        n = e_hat.shape[0]
        mag = np.abs(e_hat)
        peak = float(mag.max())
        if peak == 0.0:
            lower = upper = 0.0
        else:
            # Normalized first so that squaring neither underflows nor overflows.
            col = ((mag / peak) ** 2).sum(axis=0)
            fro = peak * math.sqrt(float(col.sum()))
            # Termination leaves off-diagonal mass at most 1e-13 n max|entry|
            # (jacobi.eigh's default tolerance); each of at most
            # DEFAULT_MAX_SWEEPS sweeps of n(n-1)/2 rotations moves the
            # spectrum by a few ulps of ||E||_F.
            slack = 1e-13 * n * peak + 16.0 * jacobi.DEFAULT_MAX_SWEEPS * n * n * _EPS * fro
            lower = max(0.0, peak * math.sqrt(float(col.max())) - slack)
            upper = fro + slack
        return cls(lower, upper, lambda: float(np.abs(jacobi.eigh(e_hat).lam).max()))

    @property
    def value(self) -> float:
        if self._value is None:
            self._value = self._compute()
            self._compute = None
        return self._value

    def scaled(self, t: float) -> "LazyNorm":
        """The norm of ``t E`` for ``t > 0``: ``t`` times this value, so the
        oracle still runs at most once for the whole chain.  Rounded
        multiplication by ``t`` is monotone, so the bounds stay certified."""
        return LazyNorm(t * self.lower, t * self.upper, lambda: t * self.value)


@dataclass(frozen=True)
class AlignedPerturbation:
    """A Hermitian perturbation expressed in the eigenbasis of the base matrix.

    ``e_hat = base.u* @ e @ base.u``; ``e_hat_diag`` is its real diagonal and
    ``e_hat_off`` the complementary zero-diagonal part, so that
    ``diag(e_hat_diag) + e_hat_off == e_hat`` exactly.  ``mode`` records
    whether the basis has been rotated to make ``e_hat`` block-wise diagonal.
    ``norm`` holds ``||E||`` lazily; it is shared with every perturbation
    derived by :func:`blockwise_diagonalize` and (scaled) by :func:`scaled`.
    Guards that compare ``||E||`` with a threshold go through
    :func:`norm_allows`, which runs the oracle only when the certified bounds
    cannot decide.
    """

    base: jacobi.SpectralDecomposition
    blocks: BlockStructure
    e: np.ndarray
    e_hat: np.ndarray
    e_hat_diag: np.ndarray
    e_hat_off: np.ndarray
    mode: str
    norm: LazyNorm

    @property
    def n(self) -> int:
        return int(self.base.lam.size)

    @property
    def e_norm(self) -> float:
        """``||E||`` from the oracle; the first read on a chain computes it."""
        return self.norm.value


def norm_allows(ap: AlignedPerturbation, ok: Callable[[float], bool]) -> bool:
    """``ok(ap.e_norm)`` for a guard ``ok`` that holds below some norm and
    fails above it, such as ``lambda e: margin > 2.0 * e``.

    The certified bounds decide first: ``ok(upper)`` implies ``ok`` at the
    oracle's value and ``not ok(lower)`` implies its failure there, because
    rounded arithmetic is monotone.  Only a threshold between the bounds
    costs an oracle call.
    """
    if ok(ap.norm.upper):
        return True
    if not ok(ap.norm.lower):
        return False
    return ok(ap.e_norm)


def _require_line_gap(ap: AlignedPerturbation, t: float) -> None:
    """Reject ``t`` unless ``2 |t| ||F||`` is below the smallest inter-block
    gap, with ``F`` the perturbation read as a direction, so the perturbed
    eigenvalues of ``A + t F`` cannot migrate between blocks."""
    gap = ap.blocks.min_gap()
    if len(ap.blocks.groups) > 1 and not norm_allows(ap, lambda e: 2.0 * abs(t) * e < gap):
        raise GapTooSmallError(
            f"|t| ||F|| = {abs(t) * ap.e_norm:.3e} reaches half the smallest "
            f"inter-block gap {gap:.3e}; blocks may mix"
        )


def _split_parts(e_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    diag = np.diag(e_hat).real.copy()
    off = e_hat - np.diag(diag)
    return diag, off


def conjugate_to_eigenbasis(base: jacobi.SpectralDecomposition, e) -> AlignedPerturbation:
    """Express a Hermitian perturbation in the eigenbasis of ``base`` (raw mode)."""
    e = hermitian(e)
    if e.shape != base.u.shape:
        raise ValueError(f"perturbation shape {e.shape} does not match base {base.u.shape}")
    e_hat = base.u.conj().T @ e @ base.u
    e_hat = 0.5 * (e_hat + e_hat.conj().T)
    diag, off = _split_parts(e_hat)
    e_hat = as_readonly(e_hat)
    return AlignedPerturbation(
        base=base,
        blocks=group_eigenvalues(base.lam),
        e=as_readonly(e),
        e_hat=e_hat,
        e_hat_diag=as_readonly(diag),
        e_hat_off=as_readonly(off),
        mode=MODE_RAW,
        # ||E|| equals max |eigenvalue of E_hat|; the oracle computes it only
        # when a guard's threshold falls between the bounds.
        norm=LazyNorm.of(e_hat),
    )


def blockwise_diagonalize(ap: AlignedPerturbation) -> AlignedPerturbation:
    """Rotate the base inside each degeneracy block so ``e_hat`` is block-wise
    diagonal with non-increasing in-block diagonal entries.

    The blocks' rotations are solved as one oracle call, all blocks of one
    size stacked.  The eigenvalue vector is untouched and the rotated basis
    still diagonalizes the base matrix.  Applying this to input that is already
    block-wise diagonal only re-imposes the column phase convention.
    """
    return _blockwise_diagonalize_stack([ap])[0]


def _blockwise_diagonalize_stack(aps: list[AlignedPerturbation]) -> list[AlignedPerturbation]:
    """:func:`blockwise_diagonalize` of each perturbation, with one oracle
    call for the blocks of all of them; each result has the bits of its
    solo rotation."""
    multi = [
        ap.e_hat[start:stop, start:stop]
        for ap in aps
        for start, stop in ap.blocks.groups
        if stop - start >= 2
    ]
    rotations = iter(jacobi.eigh_stack(multi, tol=BLOCK_TOL))
    out = []
    for ap in aps:
        u_new = np.array(ap.base.u, copy=True)
        for start, stop in ap.blocks.groups:
            if stop - start >= 2:
                u_new[:, start:stop] = u_new[:, start:stop] @ next(rotations).u
        u_new = jacobi.normalize_column_phases(u_new)
        base = jacobi.SpectralDecomposition(u=as_readonly(u_new), lam=ap.base.lam)
        e_hat = base.u.conj().T @ ap.e @ base.u
        e_hat = 0.5 * (e_hat + e_hat.conj().T)
        diag, off = _split_parts(e_hat)
        out.append(
            AlignedPerturbation(
                base=base,
                blocks=ap.blocks,
                e=ap.e,
                e_hat=as_readonly(e_hat),
                e_hat_diag=as_readonly(diag),
                e_hat_off=as_readonly(off),
                mode=MODE_BLOCKWISE,
                norm=ap.norm,
            )
        )
    return out


def scaled(ap: AlignedPerturbation, t: float) -> AlignedPerturbation:
    """The same aligned perturbation with ``E`` replaced by ``t E`` (t > 0).

    Positive scaling preserves block-wise diagonality and the in-block
    ordering, so the mode carries over.
    """
    t = float(t)
    if not (t > 0.0) or not math.isfinite(t):
        raise ValueError(f"scale factor must be positive and finite, got {t}")
    return replace(
        ap,
        e=as_readonly(t * ap.e),
        e_hat=as_readonly(t * ap.e_hat),
        e_hat_diag=as_readonly(t * ap.e_hat_diag),
        e_hat_off=as_readonly(t * ap.e_hat_off),
        norm=ap.norm.scaled(t),
    )


def aligned_perturbation(a, e) -> AlignedPerturbation:
    """One-call pipeline: decompose ``a``, conjugate ``e``, rotate block-wise.
    Convenience entry point used by the CLI and the demos."""
    base = jacobi.eigh(hermitian(a))
    return blockwise_diagonalize(conjugate_to_eigenbasis(base, e))


def m_matrix(base: jacobi.SpectralDecomposition, blocks: BlockStructure) -> np.ndarray:
    """Inverse-gap matrix: ``M[i, j] = 1 / (lam[i] - lam[j])`` across blocks,
    zero inside blocks and on the diagonal.  Real and exactly antisymmetric."""
    lam = base.lam
    if blocks.n != lam.size:
        raise ValueError("block structure does not cover the eigenvalue vector")
    bid = blocks.block_id()
    cross = bid[:, None] != bid[None, :]
    out = np.zeros((lam.size, lam.size), dtype=np.float64)
    diff = lam[:, None] - lam[None, :]
    out[cross] = 1.0 / diff[cross]
    return out


def align_columns(candidate: np.ndarray, reference: np.ndarray, groups) -> np.ndarray:
    """Permute and phase the columns of ``candidate`` to best match ``reference``.

    Within each index group (a :class:`BlockStructure` or an iterable of
    ``(start, stop)`` ranges) the columns of ``candidate`` are greedily
    assigned to reference columns by largest inner-product modulus (ties go
    to the smallest candidate index), then each assigned column is rotated by
    a unit phase so its inner product with the reference column is real
    nonnegative.  Eigenvector matrices from different solvers agree only up
    to exactly these gauge freedoms, so comparisons go through this map.
    """
    if isinstance(groups, BlockStructure):
        groups = groups.groups
    candidate = np.asarray(candidate, dtype=np.complex128)
    reference = np.asarray(reference, dtype=np.complex128)
    if candidate.shape != reference.shape:
        raise ValueError("candidate and reference shapes differ")
    out = np.array(candidate, copy=True)
    for start, stop in groups:
        available = list(range(start, stop))
        for j in range(start, stop):
            overlaps = [abs(np.vdot(candidate[:, k], reference[:, j])) for k in available]
            k = available.pop(int(np.argmax(overlaps)))
            z = np.vdot(candidate[:, k], reference[:, j])
            phase = z / abs(z) if abs(z) > 0.0 else 1.0
            out[:, j] = candidate[:, k] * phase
    return out
