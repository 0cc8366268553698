"""Choosing and exploiting the eigenbasis of the unperturbed matrix.

Given ``A = U diag(lam) U*`` and a Hermitian perturbation ``E``, everything
downstream works with the conjugated perturbation ``E_hat = U* E U``.  This
module groups eigenvalues into degeneracy blocks, rotates ``U`` inside each
block so ``E_hat`` becomes block-wise diagonal with non-increasing in-block
diagonal, and builds the inverse-gap matrix ``M``.  Its one gap guard serves
Schur refinement and the line expansion alike.  ``_conjugate`` and
``_rotate_blocks`` do the work on a stack that shares one degeneracy
structure: a convergence study builds no record, and each record is built
from a stack of one.  The cone-membership test lives in :mod:`eigpert.schur`.

Everything that depends on the base alone (the grouping of ``lam``, ``M``,
the Schur weights ``W``, the gap margins and the same-block mask) is one
read-only :class:`_BaseData`, kept on the stored decomposition itself
(:func:`_base_data`), handed on to its block-wise rotation and carried by
every record derived from it; a convergence study, whose bases differ trial
by trial but split alike, builds the same arrays for all its trials in one
stacked pass and stores none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import _EXPORTS, jacobi
from .errors import GapTooSmallError, ModeError, StudyError
from .matrices import _real, _symmetrized, as_readonly, hermitian

__all__ = [*_EXPORTS["alignment"], "DEFAULT_REL_GAP_TOL", "DEFAULT_MARGIN_FACTOR", "LazyNorm"]

# Relative gap below which adjacent eigenvalues share a degeneracy block.
DEFAULT_REL_GAP_TOL = 1e-8

# Each block must stand farther than this times ||E|| from the other eigenvalues.
DEFAULT_MARGIN_FACTOR = 2.0

# Oracle tolerance for the in-block rotations.  The default, jacobi._TOL_PER_ROW
# times the block size, bounds the in-block off-diagonal mass left in E_hat only
# by 1e-13 * size * ||E||; this bounds it by 1e-14 ||E|| at any block size.
BLOCK_TOL = 1e-14

MODE_RAW = "raw"
MODE_BLOCKWISE = "blockwise_diagonal"


def _require_blockwise(ap: AlignedPerturbation, what: str) -> None:
    if ap.mode != MODE_BLOCKWISE:
        raise ModeError(
            f"{what} needs a block-wise diagonal perturbation; "
            f"apply blockwise_diagonalize first (mode is {ap.mode!r})"
        )


def _require_m(ap: AlignedPerturbation, mmat) -> None:
    """Reject an ``mmat`` other than the record's own ``M`` (``ap.data.m``),
    which every formula reads instead: ``M`` is a function of the base, and
    any other matrix gives a plausible wrong prediction."""
    if np.shape(mmat) != (ap.n, ap.n):
        raise ValueError(f"M must have shape {(ap.n, ap.n)}, got {np.shape(mmat)}")
    if not np.array_equal(mmat, ap.data.m):
        raise ValueError("M is not the inverse-gap matrix of the base; pass m_matrix(ap.base, ap.blocks)")


@dataclass(frozen=True)
class BlockStructure:
    """Contiguous degeneracy groups of a non-increasing eigenvalue vector.

    ``groups`` holds nonempty half-open ``(start, stop)`` index ranges that
    split ``0..stop`` in order; ``rep_values`` holds one representative
    (mean) eigenvalue per group.
    """

    groups: tuple[tuple[int, int], ...]
    rep_values: tuple[float, ...]

    def __post_init__(self) -> None:
        bounds = [0, *(stop for _, stop in self.groups)]
        if [start for start, _ in self.groups] != bounds[:-1] or any(s >= e for s, e in self.groups):
            raise ValueError(f"block structure {self.groups} does not split 0..{bounds[-1]} into nonempty ranges in order")
        if len(self.rep_values) != len(self.groups):
            raise ValueError(f"{len(self.rep_values)} representative values for {len(self.groups)} groups")

    def block_id(self) -> np.ndarray:
        """Per-index group number, as an int array of length n."""
        return _block_id(self.groups)


def _block_id(groups) -> np.ndarray:
    """:meth:`BlockStructure.block_id` of the ``groups``."""
    return np.repeat(np.arange(len(groups), dtype=np.intp), [stop - start for start, stop in groups])


@dataclass(frozen=True, eq=False)
class _BaseData:
    """What depends on the base alone, read-only: the grouping ``blocks`` of
    ``lam``, the inverse-gap matrix ``m`` (:func:`m_matrix`), the Schur
    weights ``w`` (``1 / (lam_i - rho_j)``, ``rho_j`` the representative
    value of the block of ``j``, across blocks and 0 inside them), each
    block's distance ``margins`` from the other eigenvalues, the pairs
    ``same`` of distinct indices in one block and the columns ``same_cols``
    that hold such a pair."""

    blocks: BlockStructure
    m: np.ndarray
    w: np.ndarray
    margins: np.ndarray
    same: np.ndarray
    same_cols: np.ndarray


def _base_data(base: jacobi.SpectralDecomposition) -> _BaseData:
    """The base-only data of ``base``, built on first use and kept on it with
    the exact bytes of ``lam``: a ``lam`` changed in place (0.0 to -0.0 too)
    builds anew."""
    lam = np.asarray(base.lam, dtype=np.float64)
    if lam.ndim != 1 or lam.size == 0:
        raise ValueError("expected a nonempty 1-d eigenvalue vector")
    if not np.isfinite(lam).all():
        raise ValueError("eigenvalues must be finite")
    key = lam.tobytes()
    kept = base._derived.get("alignment")
    if kept is None or kept[0] != key:
        row = np.frombuffer(key)[None]
        groups = _groups(row)
        reps, m, w, margins = _base_data_rows(row, groups)
        data = _BaseData(BlockStructure(groups, tuple(reps[0].tolist())), m[0], w[0], margins[0], *_same_block(groups))
        kept = base._derived["alignment"] = key, data
    return kept[1]


def _groups(lam: np.ndarray) -> tuple[tuple[int, int], ...]:
    """The degeneracy groups of every row of the finite ``lam`` ``(k, n)``.

    Adjacent values of a non-increasing row belong to one group when their
    gap is at most ``DEFAULT_REL_GAP_TOL * max|lam|``; a gap exactly at the
    tolerance still joins (the boundary tie goes to the earlier,
    larger-eigenvalue group).  With no absolute floor, scaling a row by a
    positive factor leaves its groups unchanged except for a gap within
    rounding of the tolerance.  Rows that split otherwise than the first
    raise :class:`StudyError`."""
    if np.any(lam[:, 1:] > lam[:, :-1]):
        raise ValueError("eigenvalues must be non-increasing")
    tol = DEFAULT_REL_GAP_TOL * np.abs(lam).max(axis=1)
    split = lam[:, :-1] - lam[:, 1:] > tol[:, None]
    other = np.flatnonzero((split != split[0]).any(axis=1))
    if other.size:
        raise StudyError(f"row {other[0]} of {len(lam)} splits into other degeneracy groups than row 0")
    bounds = [0, *(np.flatnonzero(split[0]) + 1).tolist(), lam.shape[1]]
    return tuple(zip(bounds[:-1], bounds[1:]))


def _base_data_rows(lam: np.ndarray, groups: tuple[tuple[int, int], ...]) -> tuple[np.ndarray, ...]:
    """The read-only stacks of each row of ``lam`` ``(k, n)`` with the
    degeneracy ``groups``: the representative values, each summed along the
    row's own contiguous run as a lone vector is, and the ``m``, ``w`` and
    ``margins`` of :class:`_BaseData`, each one expression over the rows."""
    reps = np.array([lam[:, s:e].sum(axis=1) / (e - s) for s, e in groups]).T
    bid = _block_id(groups)
    cross = bid[:, None] != bid[None, :]

    def inverse_gaps(rho: np.ndarray) -> np.ndarray:
        """``1 / (lam[i] - rho[j])`` for ``i`` and ``j`` in different blocks, 0 in one."""
        out = np.zeros(lam.shape + lam.shape[-1:])
        np.divide(1.0, lam[:, :, None] - rho[:, None, :], out=out, where=cross)
        return out

    m, w = inverse_gaps(lam), inverse_gaps(reps[:, bid])
    # lam is sorted and rho inside its block: the nearest others are its
    # neighbours, and a missing neighbour is infinitely far.
    edge = np.full((len(lam), 1), np.inf)
    padded = np.concatenate((edge, lam, -edge), axis=1)
    above, below = padded[:, [start for start, _ in groups]], padded[:, [stop + 1 for _, stop in groups]]
    margins = np.minimum(np.abs(above - reps), np.abs(below - reps))
    return tuple(as_readonly(x) for x in (reps, m, w, margins))


def _same_block(groups) -> tuple[np.ndarray, np.ndarray]:
    """The ``same`` and ``same_cols`` of :class:`_BaseData` for ``groups``."""
    bid = _block_id(groups)
    same = as_readonly((bid[:, None] == bid[None, :]) & ~np.eye(bid.size, dtype=bool))
    return same, as_readonly(np.flatnonzero(same.any(axis=0)))


class LazyNorm:
    """``||E||`` of each member of a stack as the oracle computes it, each
    member solved on its first read and cached, with certified bounds
    ``lower <= value <= upper``, ``(k,)`` arrays, available up front.

    The bounds hold for the oracle's value, not merely for the exact norm:
    they are widened by a slack covering the oracle's termination error and
    its round-off, so a decision the bounds settle is the decision the
    oracle's value would give.  A record's norm is a stack of one.
    """

    __slots__ = ("lower", "upper", "_compute", "_value")

    def __init__(self, lower: np.ndarray, upper: np.ndarray, compute: Callable[[np.ndarray], np.ndarray]) -> None:
        self.lower = lower
        self.upper = upper
        self._compute = compute
        self._value = np.full(lower.shape, np.nan)

    def value(self, members: np.ndarray) -> np.ndarray:
        """The oracle's norms of the ``members``, a boolean mask ``(k,)``;
        those not known yet are solved in one call."""
        unknown = members & np.isnan(self._value)
        if unknown.any():
            self._value[unknown] = self._compute(unknown)
        return self._value[members]

    def scaled(self, t: float) -> "LazyNorm":
        """The norms of ``t E`` for ``t > 0``: ``t`` times these values, so
        the oracle still runs at most once per member for the whole chain.
        Rounded multiplication by ``t`` is monotone, so the bounds stay
        certified, and a product that overflows is ``inf``, as the exact
        product rounds."""

        def value(members: np.ndarray) -> np.ndarray:
            norms = self.value(members)
            with np.errstate(over="ignore"):
                return t * norms

        with np.errstate(over="ignore"):
            return LazyNorm(t * self.lower, t * self.upper, value)


def _lazy_norms(e_hat: np.ndarray) -> LazyNorm:
    """The :class:`LazyNorm` of the symmetrized stack ``e_hat`` ``(k, n,
    n)``: bounds from each member's column norms and Frobenius norm, all of
    them as one expression, and the oracle norms ``max |eigh(e_hat[i]).lam|``
    deferred.  ``e_hat`` is exactly Hermitian, so the deferred solves go to
    the oracle's array entry, which gives each member its solo bits."""
    _, n, _ = e_hat.shape
    mag = np.abs(e_hat)
    peak = mag.max(axis=(1, 2))
    # Normalized first so that squaring neither underflows nor overflows; a
    # zero member stays zero, and so do its bounds.
    col = ((mag / np.where(peak > 0.0, peak, 1.0)[:, None, None]) ** 2).sum(axis=1)
    fro = peak * np.sqrt(col.sum(axis=1))
    slack = jacobi._eigenvalue_slack(n, peak, fro)
    lower = np.maximum(0.0, peak * np.sqrt(col.max(axis=1)) - slack)
    return LazyNorm(
        lower, fro + slack, lambda members: np.abs(jacobi._solve_stack(e_hat[members], vectors=False)).max(axis=1)
    )


@dataclass(frozen=True, eq=False)
class AlignedPerturbation:
    """A Hermitian perturbation expressed in the eigenbasis of the base matrix.

    ``e_hat = base.u* @ e @ base.u``; its properties ``e_hat_diag`` (the real
    diagonal) and ``e_hat_off`` (the zero-diagonal rest) satisfy
    ``diag(e_hat_diag) + e_hat_off == e_hat`` exactly.  ``mode`` records
    whether the basis has been rotated to make ``e_hat`` block-wise diagonal.
    ``data`` holds what depends on the base alone, ``blocks`` and ``M``
    among it; the formulas read ``M`` from there and refuse any other.
    ``norm`` holds ``||E||`` lazily, as a stack of one; it is shared with
    every perturbation derived by :func:`blockwise_diagonalize` and (scaled)
    by :func:`scaled`.  Guards that compare ``||E||`` with a threshold go
    through ``_allows``, which runs the oracle only when the certified bounds
    cannot decide; ``e_norm`` reads the oracle's value as a float.
    ``_refined`` holds the record's Schur refinements by variant; a record
    derived by ``replace`` starts with an empty one.
    """

    base: jacobi.SpectralDecomposition
    data: _BaseData
    e: np.ndarray
    e_hat: np.ndarray
    mode: str
    norm: LazyNorm
    _refined: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def n(self) -> int:
        return int(self.base.lam.size)

    @property
    def blocks(self) -> BlockStructure:
        return self.data.blocks

    @property
    def e_hat_diag(self) -> np.ndarray:
        return as_readonly(np.diag(self.e_hat).real.copy())

    @property
    def e_hat_off(self) -> np.ndarray:
        return as_readonly(self.e_hat - np.diag(self.e_hat_diag))

    @property
    def e_norm(self) -> float:
        """``||E||`` from the oracle; the first read on a chain computes it."""
        return float(self.norm.value(np.ones(1, dtype=bool))[0])


def _allows(norm: LazyNorm, least: np.ndarray, factor: float) -> np.ndarray:
    """Whether each member's smallest checked value ``least`` ``(k,)``
    exceeds ``factor`` times its oracle norm, the decision of every guard
    here: the guard is monotone in the value, so the decision on the
    smallest decides every value, and a refusal names the smallest.  At any
    factor, ``inf`` passes, and so does ``least >= 0`` where ``||E||`` is
    exactly 0 (its upper bound or its solved oracle value); a NaN fails.

    The certified bounds decide first: passing at ``upper`` implies passing
    at the oracle's value and failing at ``lower`` implies failing there,
    because rounded arithmetic is monotone.  Only the members between their
    bounds cost an oracle call, one for all of them.  A product that
    overflows is ``inf``, which decides as the exact product would.
    """
    def passes(least: np.ndarray, bound: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return (least == np.inf) | ((bound == 0.0) & (least >= 0.0)) | (least > factor * bound)

    allowed = passes(least, norm.upper)
    between = ~allowed & passes(least, norm.lower)
    if between.any():
        allowed[between] = passes(least[between], norm.value(between))
    return allowed


def _require_gap(ap: AlignedPerturbation, factor: float, blocks=None) -> None:
    """Reject ``ap`` unless each listed block (by default every block) stands
    farther than ``factor * ||E||`` from all other eigenvalues: by Weyl's
    bound no eigenvalue can then cross into another block, and at
    ``DEFAULT_MARGIN_FACTOR`` the Schur fixed point contracts."""
    index = np.arange(ap.data.margins.size) if blocks is None else np.asarray(blocks)
    margin = ap.data.margins[index]
    if not _allows(ap.norm, margin.min(keepdims=True), factor)[0]:
        k = int(np.argmin(margin))
        raise GapTooSmallError(
            f"block {index[k]}: separation {margin[k]:.3e} from other eigenvalues "
            f"does not exceed {factor:g} * ||E|| = {factor * ap.e_norm:.3e}; blocks may mix"
        )


def _conjugate(u: np.ndarray, e: np.ndarray) -> np.ndarray:
    """``U* E U`` of each member of the stacks ``u`` and ``e``
    ``(k, n, n)``: one batched product, symmetrized, read-only.  A finite
    ``E`` whose conjugation overflows raises ``ValueError`` here, where it
    is made, not as a non-finite matrix in a later step."""
    with np.errstate(over="ignore", invalid="ignore"):
        e_hat = _symmetrized(u.conj().swapaxes(1, 2) @ e @ u)
    if not np.isfinite(e_hat.view(np.float64)).all():
        raise ValueError("U* E U overflows the floating-point range; scale the perturbation down")
    return as_readonly(e_hat)


def conjugate_to_eigenbasis(base: jacobi.SpectralDecomposition, e) -> AlignedPerturbation:
    """Express a Hermitian perturbation in the eigenbasis of ``base`` (raw mode)."""
    if np.shape(base.u) != np.shape(base.lam) * 2:
        raise ValueError(f"base eigenvalues of shape {np.shape(base.lam)} do not match eigenvectors {np.shape(base.u)}")
    e = hermitian(e)
    if e.shape != base.u.shape:
        raise ValueError(f"perturbation shape {e.shape} does not match base {base.u.shape}")
    data = _base_data(base)
    e_hat = _conjugate(base.u[None], e[None])
    # ||E|| is max |eigenvalue of E_hat|, solved only if a guard's bounds cannot decide.
    return AlignedPerturbation(base, data, as_readonly(e), e_hat[0], MODE_RAW, _lazy_norms(e_hat))


def blockwise_diagonalize(ap: AlignedPerturbation) -> AlignedPerturbation:
    """Rotate the base inside each degeneracy block so ``e_hat`` is block-wise
    diagonal with non-increasing in-block diagonal entries.

    The rotations are solved in one oracle call per block size.  The
    eigenvalue vector is untouched and the rotated basis still diagonalizes
    the base matrix.  Applying this to input that is already block-wise
    diagonal only re-imposes the column phase convention.
    """
    u = _rotate_blocks(ap.base.u[None], ap.e_hat[None], ap.blocks.groups)
    base = jacobi.SpectralDecomposition(u=u[0], lam=ap.base.lam)
    # The same lam, so the same base-only data, still checked on its bytes.
    base._derived.update(ap.base._derived)
    return replace(ap, base=base, e_hat=_conjugate(u, ap.e[None])[0], mode=MODE_BLOCKWISE)


def _rotate_blocks(u: np.ndarray, e_hat: np.ndarray, groups) -> np.ndarray:
    """The eigenvectors ``u`` ``(k, n, n)`` rotated inside each block of the
    shared ``groups`` so that each member's ``e_hat`` becomes block-wise
    diagonal: row-major, phase-normalized, read-only.  The blocks of one size
    of all members are solved in one oracle call and rotated as one batched
    product; each member gets the bits of its solo rotation."""
    # Row-major: column matches on these round by layout from 9 rows up
    # (np.vdot's kernels), and align_columns/n9, n20 and n60 move without it.
    u = np.array(u, dtype=np.complex128, order="C")
    member = np.arange(len(u))[:, None, None]
    for size, cols in _blocks_by_size(groups).items():
        if size == 1:
            continue
        # E_hat is symmetrized, so each block is exactly Hermitian as stored.
        blocks = e_hat[member[..., None], cols[..., :, None], cols[..., None, :]]
        r = jacobi._solve_stack(blocks.reshape(-1, size, size), BLOCK_TOL)[0]
        # u[member, :, cols] is (k, blocks, size, n): each block's columns as rows.
        columns = u[member, :, cols].swapaxes(-1, -2)
        rotated = columns.reshape(-1, *columns.shape[-2:]) @ r
        u[member, :, cols] = rotated.reshape(columns.shape).swapaxes(-1, -2)
    return as_readonly(jacobi._normalize_column_phases(u))


def _blocks_by_size(groups) -> dict[int, np.ndarray]:
    """The blocks of ``groups``, ``(start, stop)`` ranges, by size in order
    of first appearance: for each size ``l``, the indices ``(k, l)`` of its
    ``k`` blocks, in block order."""
    by_size: dict[int, list[int]] = {}
    for start, stop in groups:
        by_size.setdefault(stop - start, []).append(start)
    return {size: np.array(starts)[:, None] + np.arange(size) for size, starts in by_size.items()}


def scaled(ap: AlignedPerturbation, t: float) -> AlignedPerturbation:
    """The same aligned perturbation with ``E`` replaced by ``t E`` (t > 0).

    Positive scaling preserves block-wise diagonality and the in-block
    ordering, so the mode carries over.  A product that overflows raises
    ``ValueError``.
    """
    t = _real(t, "t")
    if not (t > 0.0) or not math.isfinite(t):
        raise ValueError(f"scale factor must be positive and finite, got {t}")
    with np.errstate(over="ignore"):
        e, e_hat = t * ap.e, t * ap.e_hat
    if not (np.isfinite(e).all() and np.isfinite(e_hat).all()):
        raise ValueError(f"t E overflows the floating-point range at t = {t:g}; scale the perturbation down")
    return replace(ap, e=as_readonly(e), e_hat=as_readonly(e_hat), norm=ap.norm.scaled(t))


def aligned_perturbation(a, e) -> AlignedPerturbation:
    """One-call pipeline: decompose ``a``, conjugate ``e``, rotate block-wise.
    Convenience entry point used by the CLI and the demos."""
    base = jacobi.eigh(a)
    return blockwise_diagonalize(conjugate_to_eigenbasis(base, e))


def m_matrix(base: jacobi.SpectralDecomposition, blocks: BlockStructure) -> np.ndarray:
    """Inverse-gap matrix: ``M[i, j] = 1 / (lam[i] - lam[j])`` across blocks,
    zero inside blocks and on the diagonal.  Real and exactly antisymmetric.
    Each call returns a fresh, writable copy of the base's read-only ``M``.
    ``blocks`` must be the :class:`BlockStructure` of the grouping of ``lam``
    (a record's ``blocks``); anything else raises ``ValueError``."""
    if not isinstance(blocks, BlockStructure):
        raise ValueError(f"blocks must be a BlockStructure, got {type(blocks).__name__}")
    data = _base_data(base)
    if blocks.groups != data.blocks.groups:
        raise ValueError(f"block structure {blocks.groups} is not the grouping {data.blocks.groups} of the base")
    return np.array(data.m)


def align_columns(candidate: np.ndarray, reference: np.ndarray, groups) -> np.ndarray:
    """Permute and phase the columns of ``candidate`` to best match ``reference``.

    Within each index group (a :class:`BlockStructure` or an iterable of
    ``(start, stop)`` ranges) the columns of ``candidate`` are greedily
    assigned to reference columns, in order, by largest inner-product
    modulus; among equal moduli the smallest candidate index wins.  Each
    assigned column is then rotated by a unit phase so its inner product
    with the reference column is real nonnegative.  Eigenvector matrices
    from different solvers agree only up to exactly these gauge freedoms, so
    comparisons go through this map.  The ranges must satisfy
    ``0 <= start < stop <= columns`` and must not overlap; columns outside
    every range pass through unchanged.  This is the one-member case of the
    stacked match a convergence study runs.
    """
    if isinstance(groups, BlockStructure):
        groups = groups.groups
    candidate = np.asarray(candidate, dtype=np.complex128)
    reference = np.asarray(reference, dtype=np.complex128)
    if candidate.shape != reference.shape:
        raise ValueError("candidate and reference shapes differ")
    if candidate.ndim != 2:
        raise ValueError(f"expected matrices, got {candidate.ndim}-d data")
    if not (np.isfinite(candidate).all() and np.isfinite(reference).all()):
        raise ValueError("matrix entries must be finite (no NaN or Inf)")
    groups = [(start, stop) for start, stop in groups]
    columns = candidate.shape[1]
    if not all(0 <= start < stop <= columns for start, stop in groups):
        raise ValueError(f"column groups {groups} are not ranges 0 <= start < stop <= {columns}")
    ordered = sorted(groups)
    if any(start < stop for (_, stop), (start, _) in zip(ordered, ordered[1:])):
        raise ValueError(f"column groups {groups} overlap")
    return _align_stack(candidate[None], reference[None], groups)[0]


def _align_stack(candidate: np.ndarray, reference: np.ndarray, groups) -> np.ndarray:
    """:func:`align_columns` of each member of the complex stacks ``(m, r, c)``,
    all sharing the valid ``(start, stop)`` ranges ``groups``, each group's
    greedy choice made for every member at once; each member gets the bits
    of the per-column loop over ``np.vdot`` on its columns as laid out."""
    out = np.array(candidate, copy=True)
    members = np.arange(len(candidate))
    for start, stop in groups:
        c, r = candidate[..., start:stop], reference[..., start:stop]
        # z[i, k, j] is np.vdot(c[i, :, k], r[i, :, j]).  One vecdot over the
        # column views, in the inputs' own layout, makes the BLAS call that
        # np.vdot makes for each pair; copies in another layout go to another
        # BLAS kernel, whose sums differ from 9 rows up.  A one-row column
        # takes numpy's own loop instead, which rounds overflow differently.
        if c.shape[1] == 1:
            z = np.array([[[np.vdot(ck, rj) for rj in ri.T] for ck in ci.T] for ci, ri in zip(c, r)])
        else:
            z = np.vecdot(c.swapaxes(-1, -2)[..., :, None, :], r.swapaxes(-1, -2)[..., None, :, :])
        # np.hypot rounds as the scalar abs of a complex; np.abs of a complex
        # array does not, and a one-ulp difference can flip a choice.
        modulus = np.hypot(z.real, z.imag)
        picks = np.empty((len(z), stop - start), np.intp)
        for j in range(stop - start):
            # argmax takes the first maximum: ties go to the smallest index.
            k = picks[:, j] = np.argmax(modulus[..., j], axis=1)
            modulus[members, k] = -np.inf
        w = z[members[:, None], picks, np.arange(stop - start)]
        m = np.hypot(w.real, w.imag)
        # w / abs(w) as numpy divides a complex by a real, 1 where abs(w) is 0 or NaN.
        phase = np.divide(w, m, out=np.ones_like(w), where=m > 0.0)
        out[..., start:stop] = (c[members[:, None], :, picks] * phase[..., None]).swapaxes(1, 2)
    return out
