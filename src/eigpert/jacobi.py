"""Ground-truth Hermitian eigensolver: Jacobi with complex plane rotations in
the Brent-Luk round-robin ordering, over stacks of equal-size matrices.

Every prediction formula in this package is measured against this solver, so
it deliberately shares no code with those formulas.  It is pure and
deterministic: identical input always produces the identical decomposition,
with eigenvalues sorted non-increasingly (stable under ties) and each
eigenvector column phased so its largest-modulus entry is real nonnegative.

One sweep is a sequence of steps; each step rotates a set of disjoint pivot
pairs, so all of them are applied at once as array operations, and together
the steps of a sweep pivot every pair once (Brent & Luk 1985, SIAM J. Sci.
Stat. Comput. 6(1)).  The same operations act on a stack of matrices at
once, laid out members last, ``(n, n, k)``: the innermost loop of every
elementwise operation, slice and gather runs over the ``k`` members, so a
step over a stack of small matrices costs little more than over one, and a
stack of one is laid out as the matrix itself.  Every member keeps its own
tolerance, pivot floor, sweep count and termination, and a member that has
converged is no longer touched.  The arithmetic is elementwise, and the one
reduction, the off-diagonal mass, runs on a member-major copy along one
contiguous row per member, so each member of a stack gets exactly the bits
it would get if solved alone.  Each member is scaled by an exact power of
two to unit largest entry before solving, so the off-diagonal mass neither
underflows nor overflows at any representable input scale.  The rotations
act on ``a`` stacked over the eigenvector accumulator ``u``; callers that
read only eigenvalues sweep ``a`` alone and get eigenvalue arrays back.
Nothing computed from ``a`` reads ``u``, so ``lam``, sweeps, off mass and
errors keep their bits.

Every solve goes through the array entry ``_solve_stack``: one stack of one
size in, finiteness checked only, arrays out.  The public :func:`eigh`
validates and symmetrizes its one matrix, solves it as a stack of one and
builds the record.  The package's own callers hold stacks that
:func:`~eigpert.matrices._symmetrized` made (draws, ``A``, Gram matrices,
``E_hat`` blocks, Schur complements) or would not change (``A + t F``), so
they call the entry.

A step is about 30 numpy calls whatever the stack's size, so for small
matrices call overhead, not arithmetic, is a solve's cost.  A solve allocates
its stack once, and the generator ``_sweeps`` makes what the sweeps over one
set of live members need once, as locals: a spare buffer that each step's
gather fills and the next step works in (ping-pong), the strided views of
both buffers that a step reads and writes, and a step's work arrays.  It
yields the buffer that holds the stack after each sweep.  When members
converge, the others are gathered into a new generator of their own size.
Nothing is shared between solves but the schedule's read-only index data.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .matrices import _ldexp, as_readonly, hermitian, operator_norm

__all__ = [
    "DEFAULT_MAX_SWEEPS",
    "SpectralDecomposition",
    "eigh",
    "residual",
]

DEFAULT_MAX_SWEEPS = 64

_EPS = float(np.finfo(np.float64).eps)

# The default tolerance per row: a solve stops once its off-diagonal mass is
# at most this times n times its largest entry modulus.
_TOL_PER_ROW = 1e-13


def _eigenvalue_slack(n, peak, fro):
    """How far a default solve's eigenvalues of an ``n x n`` matrix, largest
    entry modulus ``peak`` and Frobenius norm ``fro``, may lie from the exact
    ones: the off-diagonal mass termination leaves, plus a few ulps of
    ``fro`` for each of at most ``DEFAULT_MAX_SWEEPS`` sweeps of ``n (n -
    1) / 2`` rotations."""
    return _TOL_PER_ROW * n * peak + 16.0 * DEFAULT_MAX_SWEEPS * n * n * _EPS * fro


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Unitary eigenvector matrix ``u`` and non-increasing real eigenvalues ``lam``.

    ``sweeps`` and ``off_mass`` are the solver's work and the off-diagonal
    Frobenius mass it stopped at; they are ``None`` for decompositions that
    did not come from the solver.
    """

    u: np.ndarray
    lam: np.ndarray
    sweeps: int | None = None
    off_mass: float | None = None


def _normalize_column_phases(u: np.ndarray) -> np.ndarray:
    """Phase each column of each member of the complex stack ``u``
    ``(k, n, m)``, in place, so its largest-modulus entry is real and
    nonnegative; returns ``u``, its memory layout unchanged.

    Ties in modulus resolve to the smallest row index, which keeps the
    convention deterministic.
    """
    member = np.arange(u.shape[0])[:, None]
    col = np.arange(u.shape[2])
    row = np.argmax(np.abs(u), axis=1)
    z = u[member, row, col]
    az = np.abs(z)
    phase = np.ones_like(z)
    np.divide(z.conj(), az, out=phase, where=az > 0.0)
    u *= phase[:, None, :]
    # Drop the round-off imaginary residue of the phased entry.
    u[member, row, col] = u[member, row, col].real
    return u


@functools.lru_cache(maxsize=None)
def _schedule(n: int) -> tuple[tuple[int, ...], ...]:
    """Index orders of the steps of one round-robin sweep of size ``n``.

    Step ``r`` pivots the pairs ``(L[i], L[m + i])`` for ``i < m = n // 2``,
    where ``L`` is its order; for odd ``n`` the last index of ``L`` sits the
    step out.  The first order is the identity, and over the sweep every
    pair of indices is pivoted exactly once.  This is the circle method:
    one player stays put while the others rotate a seat per step, with a
    dummy player for odd ``n`` whose partner sits out.
    """
    players = list(range(n + n % 2))
    half = len(players) // 2
    orders = []
    for _ in range(len(players) - 1):
        pairs = [(players[i], players[-1 - i]) for i in range(half)]
        kept = [pair for pair in pairs if n not in pair]
        idle = [p for pair in pairs if n in pair for p in pair if p != n]
        orders.append([p for p, _ in kept] + [q for _, q in kept] + idle)
        players = [players[0], players[-1]] + players[1:-1]
    # Relabel so that the first step's order is the identity.
    label = {old: new for new, old in enumerate(orders[0])}
    return tuple(tuple(label[x] for x in order) for order in orders)


@functools.lru_cache(maxsize=None)
def _moves(n: int, height: int) -> tuple[np.ndarray, ...]:
    """Per step, the gather that takes a stack of ``height`` rows, ``a``
    (``height = n``) or ``[a; u]`` (``height = 2 n``), its rows flattened
    in row-major order, from that step's index order to the next step's
    (the last step returns to the first): rows and columns of ``a`` and
    columns of ``u`` move, rows of ``u`` stay."""
    orders = _schedule(n)
    moves = []
    for order, following in zip(orders, orders[1:] + orders[:1]):
        seat = {index: position for position, index in enumerate(order)}
        cols = np.array([seat[index] for index in following], dtype=np.intp)
        rows = np.concatenate((cols, np.arange(n, height)))
        gather = (rows[:, None] * n + cols).ravel()
        gather.setflags(write=False)
        moves.append(gather)
    return tuple(moves)


def _off_mass(a: np.ndarray) -> np.ndarray:
    """Off-diagonal Frobenius mass of each member of a stack ``(k, n, n)``.

    Summed directly over off-diagonal entries: subtracting the diagonal mass
    from the total cannot resolve below sqrt(eps) * ||a||_F.  Each member is
    reduced along one contiguous row, the same way whatever the stack size.
    """
    k, n, _ = a.shape
    sq = (a.real**2 + a.imag**2).reshape(k, n * n)
    sq[:, :: n + 1] = 0.0
    return np.sqrt(sq.sum(axis=1))


def _step_views(w: np.ndarray) -> tuple:
    """The views of the stack ``w`` ``(height, n, k)`` that a step reads and
    writes, the first its rows flattened for the step's gather."""
    height, n, k = w.shape
    m = n // 2
    flat = w.reshape(height * n, k)
    cols = w[:, : 2 * m].reshape(height, 2, m, k)
    rows = w[: 2 * m].reshape(2, m, n, k)
    return (
        flat,
        flat[: m * (n + 1) : n + 1].real,  # a[i, i]
        flat[m * (n + 1) : 2 * m * (n + 1) : n + 1].real,  # a[m + i, m + i]
        flat[m : m + m * (n + 1) : n + 1],  # a[i, m + i]
        flat[m * n : m * n + m * (n + 1) : n + 1],  # a[m + i, i]
        cols,
        cols[:, ::-1],
        rows,
        rows[::-1],
        flat[: n * n : n + 1].imag,  # the diagonal of a
    )


def _sweeps(w: np.ndarray, floor: np.ndarray):
    """Round-robin sweeps over ``w = [a; u]``, a stack ``(2n, n, k)`` of
    matrices ``a`` stacked over the eigenvector accumulators ``u``, or
    ``w = a`` alone, a stack ``(n, n, k)``, whose members' pivot floors are
    ``floor``; the ``k`` members come last.  After each sweep, yields the
    buffer that holds the stack, in the first step's index order.

    Each step rotates its pivots in every member at once; a pivot whose
    modulus is at most its member's floor rotates by the identity
    (``c = 1, s = 0``), which leaves every value as it was.  Every operation
    is elementwise, so its innermost loop runs over the members and a step
    costs about as much for a stack as for one matrix.  Each step writes
    its result in place and gathers it into the other buffer.
    """
    height, n, k = w.shape
    m = n // 2
    buffers = (w, np.empty_like(w))
    views = [_step_views(buffer) for buffer in buffers]
    moves = _moves(n, height)
    absb, d, t, c = np.empty((4, m, k))
    c_rows = c[:, None]
    rotate = np.empty((m, k), bool)
    coef = np.empty((2, m, k), np.complex128)  # the columns' coefficients
    coef_conj = np.empty_like(coef)  # the rows' coefficients
    (coef_0, coef_1), (conj_0, conj_1), coef_rows = coef, coef_conj, coef_conj[:, :, None]
    col_s = np.empty((height, 2, m, k), np.complex128)
    row_s = np.empty((2, m, n, k), np.complex128)
    current = 0
    while True:
        for move in moves:
            flat, app, aqq, b, b_low, cols, cols_swapped, rows, rows_swapped, diag_imag = views[current]
            np.abs(b, out=absb)
            np.greater(absb, floor, out=rotate)
            # t = tan of the rotation angle, the smaller-modulus root of
            # t^2 - 2 tau t - 1 = 0 with tau = (a[q, q] - a[p, p]) / (2 |b|),
            # so the angle stays below 45 degrees; written as r = t / |b| so
            # that no division by |b| is needed.  Pivots that do not rotate
            # get r = 0.
            np.subtract(app, aqq, out=d)
            np.hypot(d, np.multiply(2.0, absb, out=t), out=t)
            np.add(np.abs(d, out=c), t, out=t)
            np.copysign(np.divide(2.0, t, out=t), d, out=t)
            r = np.where(rotate, t, 0.0)
            np.divide(1.0, np.hypot(1.0, np.multiply(r, absb, out=c), out=c), out=c)
            # Columns of a and u: x' = c x + s y, y' = c y - conj(s) x for the
            # column pair (x, y) = (i, m + i), with s = c r conj(b); then the
            # rows of a with the conjugate coefficients.
            np.multiply(np.multiply(c, r, out=r), np.conjugate(b, out=coef_1), out=coef_0)
            np.negative(np.conjugate(coef_0, out=conj_0), out=coef_1)
            np.negative(coef_0, out=conj_1)
            # The swapped terms are read before the pairs are scaled in place.
            np.multiply(cols_swapped, coef, out=col_s)
            np.multiply(cols, c, out=cols)
            np.add(cols, col_s, out=cols)
            np.multiply(rows_swapped, coef_rows, out=row_s)
            np.multiply(rows, c_rows, out=rows)
            np.add(rows, row_s, out=rows)
            np.copyto(b, 0.0, where=rotate)
            np.copyto(b_low, 0.0, where=rotate)
            diag_imag[...] = 0.0
            current = 1 - current
            np.take(flat, move, axis=0, out=views[current][0], mode="clip")
        yield buffers[current]


def _solve_stack(a: np.ndarray, tol=None, vectors: bool = True):
    """The array entry: solve ``a`` ``(k, n, n)``, complex128 matrices of one
    size, each exactly Hermitian as stored.  Only finiteness is checked, with
    :func:`eigh`'s error.  Returns ``u`` ``(k, n, n)``, ``lam`` ``(k, n)`` and
    each member's sweeps and off mass, or ``lam`` alone unless ``vectors``,
    each member with the bits of :func:`eigh` on it.  ``tol`` defaults to
    ``1e-13 * n``; a :class:`ConvergenceError` after ``DEFAULT_MAX_SWEEPS``
    sweeps names the member by its position in ``a``.  Each sweep ends with
    :func:`~eigpert.matrices._symmetrized`, formed in place in a reused buffer."""
    k, n, _ = a.shape
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite (no NaN or Inf)")
    tol = _TOL_PER_ROW * n if tol is None else tol
    # Largest entry of each member brought into [0.5, 1) by an exact power
    # of two; every rotation parameter is scale-invariant, so this changes
    # no bits for inputs whose squared entries stay in range.
    peak_mantissa, exponent = np.frexp(np.abs(a).reshape(k, n * n).max(axis=1))
    unit = _ldexp(a, -exponent[:, None, None])
    w = np.empty((2 * n if vectors else n, n, k), dtype=np.complex128)
    w[:n] = unit.transpose(1, 2, 0)
    if vectors:
        w[n:] = np.eye(n)[:, :, None]
    target = tol * peak_mantissa
    # Entries below this floor cannot push the off mass back over target.
    floor = target / (2.0 * n)
    off = _off_mass(unit)
    # The members still sweeping, their stack as the last sweep left it,
    # their off masses and targets, and the sweeps each has made.
    live, state, sweeper, done = np.arange(k), w, None, 0
    live_off, live_target = off, target
    sweeps = np.zeros(k, dtype=np.intp)
    # A pivot block with b = 0 and equal diagonal entries divides by zero;
    # its rotation is masked.
    with np.errstate(divide="ignore"):
        for done in range(DEFAULT_MAX_SWEEPS + 1):
            going = live_off > live_target
            count = np.count_nonzero(going)
            if count == 0 or done == DEFAULT_MAX_SWEEPS:
                break
            if count < live.size:
                # Converged members are left out of later sweeps, so they
                # keep exactly the bits they stopped at; the others move to
                # a generator of their own size.
                # Sweeping the whole stack instead made 10-trial n = 60 studies about 9% slower.
                stopped = live[~going]
                w[..., stopped], off[stopped], sweeps[stopped] = state[..., ~going], live_off[~going], done
                live, state, sweeper = live[going], state.compress(going, axis=2), None
                live_off, live_target = live_off[going], live_target[going]
            if sweeper is None:
                # The symmetrization's buffer, and then the member-major copy
                # of ``a`` whose off mass is reduced.
                sweeper, sym = _sweeps(state, floor[live]), np.empty((n, n, live.size), np.complex128)
            state = next(sweeper)
            top = state[:n]
            np.conjugate(top.swapaxes(0, 1), out=sym)
            np.add(top, sym, out=sym)
            np.multiply(0.5, sym, out=top)
            # The mass is reduced member by member on a member-major copy,
            # so each member rounds as it does alone.
            member_major = sym.reshape(live.size, n, n)
            np.copyto(member_major, top.transpose(2, 0, 1))
            live_off = _off_mass(member_major)
    w[..., live], off[live], sweeps[live] = state, live_off, done
    failed = np.flatnonzero(off > target)
    off = np.ldexp(off, exponent)
    if failed.size:
        i = int(failed[0])
        where = f"stack member {i} of {k}: " if k > 1 else ""
        raise ConvergenceError(
            f"{where}Jacobi sweep limit {DEFAULT_MAX_SWEEPS} reached with off-diagonal mass "
            f"{off[i]:.3e} (target {tol * np.abs(a[i]).max():.3e})",
            off_mass=float(off[i]),
            member=i,
        )
    member = np.arange(k)[:, None]
    lam_unit = np.diagonal(w[:n]).real
    order = np.argsort(-lam_unit, axis=1, kind="stable")
    lam = as_readonly(np.ldexp(lam_unit[member, order], exponent[:, None]))
    if not vectors:
        return lam
    u = as_readonly(_normalize_column_phases(w[n:].transpose(2, 1, 0)[member, order].swapaxes(1, 2)))
    return u, lam, sweeps, off


def eigh(h) -> SpectralDecomposition:
    """Diagonalize one Hermitian matrix ``h``, validated and symmetrized on
    entry with :func:`~eigpert.matrices.hermitian`.

    The solve stops once the off-diagonal Frobenius mass falls below
    ``1e-13 n`` times a lower bound on the spectral norm (the largest entry
    modulus), so the mass is below ``1e-13 n ||h||`` at termination.  If
    the mass is still above that after ``DEFAULT_MAX_SWEEPS`` sweeps,
    :class:`ConvergenceError` carries its final value.
    """
    u, lam, sweeps, off = _solve_stack(hermitian(h)[None])
    return SpectralDecomposition(u[0], lam[0], int(sweeps[0]), float(off[0]))


def residual(h, d: SpectralDecomposition) -> float:
    """Operator-norm reconstruction error ``||u diag(lam) u* - h||``."""
    h = hermitian(h)
    if d.u.shape != h.shape or d.lam.size != h.shape[0]:
        raise ValueError(
            f"decomposition of size {d.lam.size} does not match matrix {h.shape}"
        )
    return operator_norm(d.u @ np.diag(d.lam) @ d.u.conj().T - h)
