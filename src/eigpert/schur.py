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
full one stops once an update is at most ``4 eps max|X|``.  The fixed point
runs on a stack of perturbations, one batched product per iteration, and
each member stops on its own test, as the oracle's members do, so a member
gets the bits of its solo run; the live ones are gathered only when some
stop.  ``W`` depends on the base alone and comes from ``ap.data``.

One stacked path forms the refined eigenvalues, for any set of variants:
the first iterate is the simplified variant's fixed point and the full one
iterates on from it, so one batched product per block size forms every
requested variant's complements, each block's product with the strides of
its own, and one oracle call per block size solves them, each member with
its solo bits.  A convergence study runs it on all of its ``(trial, t)``
members, of one degeneracy structure, at once, each trial's ``W`` shared
by its t-grid.  A record is the same call as a stack of one, for whichever
variants it does not hold yet: it keeps what it has computed for its
lifetime, a full call brings the simplified variant along, and a later
call for either variant or for :func:`vc_membership`, which reads the full
complements alone, runs its guard and reuses it.

The complements also decide membership in the cone of perturbation
directions along which every block's complement stays diagonal and its
eigenvalues well separated (:func:`vc_membership`).
"""

from __future__ import annotations

import math
import operator
import weakref
from dataclasses import dataclass

import numpy as np

from . import jacobi
from .alignment import DEFAULT_MARGIN_FACTOR, AlignedPerturbation, _block_id, _blocks_by_size, _require_gap
from .errors import ConvergenceError
from .matrices import _real, _symmetrized, as_readonly, operator_norm

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
_STOP_TOL = 4.0 * jacobi._EPS


@dataclass(frozen=True, eq=False)
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


def _iterate(e_hat: np.ndarray, w: np.ndarray, cols: slice, x: np.ndarray) -> np.ndarray:
    """The fixed point of ``X = W o (C - E_hat X)`` from the first iterate
    ``x``, which is left as it was; ``C`` is the view ``E_hat[..., cols]``.
    The live members iterate as one batched product in two reused buffers,
    each stopping on its own test with the bits of its solo call; the
    stopped ones go to the result before the others are gathered.

    The test compares the moduli of the update and of the iterate.  A
    computed modulus lies between half and twice the larger of its real and
    imaginary parts, so a member whose update's largest part exceeds twice
    the threshold at twice the iterate's largest part passes it: only a
    pass where some member may stop, and the last, whose update an error
    reports, take the moduli."""
    out, live, step = np.empty(x.shape, x.dtype), np.arange(len(x)), np.full(len(x), math.inf)
    iterates, diff = (np.empty(x.shape, x.dtype), np.empty(x.shape, x.dtype)), np.empty(x.shape, x.dtype)
    for i in range(1, MAX_ITERATIONS):
        new = iterates[i % 2][: live.size]
        np.multiply(w, np.subtract(e_hat[..., cols], np.matmul(e_hat, x, out=new), out=new), out=new)
        change = np.subtract(new, x, out=diff[: live.size])
        step = np.abs(change.view(np.float64)).max(axis=(1, 2))
        going = step > 2.0 * (_STOP_TOL * (2.0 * np.abs(new.view(np.float64)).max(axis=(1, 2))))
        if i == MAX_ITERATIONS - 1 or not going.all():
            step = np.abs(change).max(axis=(1, 2))
            going = step > _STOP_TOL * np.abs(new).max(axis=(1, 2))
        x = new
        if not going.all():
            out[live[~going]] = new[~going]
            live, step = live[going], step[going]
            if live.size == 0:
                return out
            x, e_hat, w = (a.compress(going, axis=0) for a in (new, e_hat, w))
    where = f"stack member {live[0]} of {len(out)}: " if len(out) > 1 else ""
    message = f"Schur fixed point: {where}update {step[0]:.3e} after {MAX_ITERATIONS} iterations"
    raise ConvergenceError(message, off_mass=float(step[0]), member=int(live[0]))


def _complement(e_hat: np.ndarray, index: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Symmetrized ``B = E11 - E_hat[block, :] X[:, block]`` ``(..., m, k, l,
    l)`` of each member of the stack ``e_hat`` ``(m, n, n)`` and each of
    ``k`` blocks of size ``l``, whose indices are the rows of ``index``;
    ``rows`` ``(m, k, l, n)`` and ``cols`` ``(..., m, k, n, l)`` hold each
    block's rows of ``E_hat`` and its columns of one or more ``X``."""
    return _symmetrized(e_hat[:, index[:, :, None], index[:, None, :]] - rows @ cols)


def _complement_eigenvalues(bs) -> list[np.ndarray]:
    """Eigenvalues ``(..., l)`` of each of ``bs``, stacks ``(..., l, l)`` of
    symmetrized Schur complements, one size per stack: one oracle call per
    stack, through the array entry, as a complement is exactly Hermitian; a
    1 x 1 complement needs no sweep and comes back as its own entry."""
    return [jacobi._solve_stack(b.reshape(-1, *b.shape[-2:]), vectors=False).reshape(b.shape[:-1]) for b in bs]


def schur_data(ap: AlignedPerturbation, block_index: int) -> SchurData:
    """Partition ``E_hat`` around one block and form its Schur complement."""
    return _schur_data(ap, block_index)[0]


def _schur_data(ap: AlignedPerturbation, block_index: int) -> tuple[SchurData, np.ndarray]:
    """:func:`schur_data` and ``X = K^{-1} C*``, the block's columns of the
    fixed point on the rest rows."""
    groups = ap.blocks.groups
    try:
        block_index = operator.index(block_index)
    except TypeError:
        raise ValueError(f"block index must be an integer, got {block_index!r}") from None
    if not 0 <= block_index < len(groups):
        raise ValueError(f"block index {block_index} out of range for {len(groups)} blocks")
    _require_gap(ap, DEFAULT_MARGIN_FACTOR, [block_index])
    start, stop = groups[block_index]
    e_hat, w = ap.e_hat[None], ap.data.w[None, :, start:stop]
    x = _iterate(e_hat, w, slice(start, stop), w * e_hat[:, :, start:stop])
    b = _complement(e_hat, np.arange(start, stop)[None], e_hat[:, None, start:stop], x[:, None])[0, 0]
    x = x[0]
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
    complements' eigenvalues come from one oracle call per block size; the
    full variant forms and solves the simplified complements alongside its
    own, so a later call for either variant on the same record reuses them.
    """
    if variant not in ("full", "simplified"):
        raise ValueError(f"unknown variant {variant!r}; expected 'full' or 'simplified'")
    _require_gap(ap, DEFAULT_MARGIN_FACTOR)
    # The full variant brings the simplified one along for a later call.
    variants = ("full", "simplified") if variant == "full" else (variant,)
    return _refined(ap, variants)[0][0, 0].copy()


# Each record's Schur refinements by variant, as _refined_stack returns them.
_REFINED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _refined(ap: AlignedPerturbation, variants: tuple[str, ...]) -> tuple[np.ndarray, list]:
    """:func:`_refined_stack` of the record ``ap`` for ``variants[0]``, as a
    stack of one, kept for the record's lifetime; those of the other
    ``variants`` that the record does not keep yet are computed in the same
    call.  The caller has applied the gap guard.  A record derived from
    ``ap`` is another object and computes its own."""
    kept = _REFINED.get(ap, {})
    if variants[0] not in kept:
        lacking = tuple(v for v in variants if v not in kept)
        reps = np.array([ap.blocks.rep_values])
        done = _refined_stack(ap.e_hat[None, None], ap.data.w[None], reps, ap.blocks.groups, lacking)
        kept = {**kept, **dict(zip(lacking, done))}
        _REFINED[ap] = kept
    return kept[variants[0]]


def _refined_stack(e_hat: np.ndarray, w: np.ndarray, reps: np.ndarray, groups, variants) -> list[tuple]:
    """Per variant of ``variants``, the Schur-refined eigenvalues ``(k, s,
    n)`` of ``E_hat`` stacked as ``(k, s, n, n)``, the ``s`` members of row
    ``i`` sharing the weights ``w[i]`` ``(n, n)`` and the representative
    values ``reps[i]`` of one degeneracy ``groups``, whose gap guards have
    admitted them; and per block size, the blocks' indices ``(b, l)``, their
    complements ``(k, s, b, l, l)`` and those complements' eigenvalues
    ``(k, s, b, l)``.  The first iterate is the simplified variant and the
    full one iterates on from it, so the variants share one fixed point,
    one batched product per block size and one oracle call per block size,
    whose members each get their solo bits."""
    k, s, n = e_hat.shape[:3]
    e_hat, w = e_hat.reshape(-1, n, n), np.repeat(w, s, axis=0)
    first = w * e_hat  # from X = 0
    xs = [first if v == "simplified" else _iterate(e_hat, w, slice(None), first) for v in variants]
    parts = [(index, b.reshape(len(xs), k, s, *b.shape[2:])) for index, b in _complements(e_hat, xs, groups)]
    betas = _complement_eigenvalues([b for _, b in parts])
    # Each row's representative value at each index.
    rho = reps[:, _block_id(groups)]
    pred = np.empty((len(xs), k, s, n))
    for (index, _), beta in zip(parts, betas):
        # The blocks are contiguous and cover every index in order.
        pred[..., index] = rho[:, None, index] + beta
    return [(pred[v], [(index, b[v], beta[v]) for (index, b), beta in zip(parts, betas)]) for v in range(len(xs))]


def _complements(e_hat: np.ndarray, xs, groups) -> list[tuple[np.ndarray, np.ndarray]]:
    """Every block's symmetrized Schur complement for the members of
    ``e_hat`` ``(m, n, n)`` that share the degeneracy ``groups``, with each
    of the ``v`` fixed points ``xs``, each ``(m, n, n)``, as one pair per
    block size in order of first appearance: the indices ``(k, l)`` of the
    ``k`` blocks of size ``l``, in block order, and their complements ``(v,
    m, k, l, l)``.

    The blocks of one size make one batched product.  Each block's product
    has the bits of ``E_hat[:, block] @ X[:, :, block]`` on views of the
    whole matrices, as long as its columns of ``X`` keep a row stride of
    ``n``: a 1 x 1 product's sum depends on that stride.  So the rows and
    columns are gathered once, block by block in order of size, into
    ``n x n`` matrices, and each size takes views of them."""
    m, n = e_hat.shape[0], e_hat.shape[-1]
    by_size = _blocks_by_size(groups)
    order = np.concatenate([index.ravel() for index in by_size.values()])
    # take lays its copies out row-major; x[..., order] would not.
    rows, cols = e_hat.take(order, axis=1), np.empty((len(xs), m, n, n), np.complex128)
    for x, out in zip(xs, cols):
        x.take(order, axis=2, out=out, mode="clip")
    out, stop = [], 0
    for size, index in by_size.items():
        span = slice(stop, stop := stop + index.size)
        x_cols = cols[..., span].reshape(len(xs), m, n, -1, size).swapaxes(2, 3)
        out.append((index, _complement(e_hat, index, rows[:, span].reshape(m, -1, size, n), x_cols)))
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
    strictly and all-zero Schur eigenvalues cannot satisfy it.  Otherwise the
    complements need the gap guard that :func:`refined_eigenvalues` applies.
    """
    c, diag_tol = _real(c, "c"), _real(diag_tol, "diag_tol")
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
    _require_gap(ap, DEFAULT_MARGIN_FACTOR)
    _, parts = _refined(ap, ("full",))
    off = np.empty(len(ap.blocks.groups))
    for index, b, _ in parts:
        off[ap.blocks.block_id()[index[:, 0]]] = np.abs(b - b * np.eye(b.shape[-1])).max(axis=(-2, -1))[0, 0]
    off = tuple(off.tolist())
    # beta is sorted, so the closest pair is adjacent; a 1 x 1 block has none.
    gaps = [float((beta[..., :-1] - beta[..., 1:]).min()) for *_, beta in parts if beta.shape[-1] >= 2]
    return VcReport(
        member=max(off) <= diag_tol * ap.e_norm and min(gaps, default=math.inf) >= c * ap.e_norm,
        per_block_off_diagonal=off,
        worst_gap_ratio=min(gaps) / (c * ap.e_norm) if gaps and c > 0.0 else math.inf,
        degenerate_zero=False,
    )


@dataclass(frozen=True, eq=False)
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
