"""Experiment driver: seeded ensembles, convergence-order fits, regression.

Everything here is deterministic given the configuration.  Randomness comes
from SplitMix64 streams (Steele, Lea & Flood) rather than a library RNG, so
that studies reproduce bit-identically across library versions.  The
generator is a counter, so a study draws every trial's stream as one
``uint64`` array and its matrices from it, with no generator object.  The
convergence studies pair each predictor against the eigendecomposition
oracle over a decreasing t-grid and fit the error's log-log slope.  The
oracle solves each base warm, as ``Q* A Q`` with the trial's drawn ``Q``,
and each exact matrix warm, as ``U* (A + t F) U`` with the trial's stored
base ``U``: unitary similarities of the actual matrices, nearly diagonal
already.  ``Q`` comes from the draw, not from a prediction, so the check
shares nothing with the predictions but ``U``.

A study is one stack of one degeneracy structure, from the draw to the
errors, and builds no record.  It stacks its oracle calls across its
trials, one call per stage and block size (see :func:`convergence_study`),
so their number does not grow with its number of trials.  Every other stage
is an array expression over the ``(trials, t, n, n)`` stack: the
conjugations and rotations, the guards (one decision each over all trials
at the largest ``t``), the Schur fixed point (each member stopping on its
own test), the expansion's coefficients, the residuals, the eigenvector
study's column match, the error norms and the least-squares fits.  Each
member of a batched product or a per-member reduction rounds as it does
alone, so the output is the same, bit for bit, as solving trial by trial.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import alignment, first_order, jacobi, rayleigh, schur
from .errors import StudyError
# operator_norm is not called here; the benchmark's tracer test wraps this binding.
from .matrices import _grams, _norms, _real, _symmetrized, as_readonly, operator_norm, operator_norms  # noqa: F401

__all__ = [
    "DEFAULT_T_GRID",
    "PREDICTORS",
    "EnsembleConfig",
    "LoglogFit",
    "StudyRow",
    "ConvergenceReport",
    "ClauseResult",
    "RegressionReport",
    "random_unitary",
    "generate_instance",
    "fit_loglog",
    "convergence_study",
    "report_to_csv",
    "paper_example_regression",
    "EXAMPLE_A",
    "EXAMPLE_F",
    "EXAMPLE_N",
    "EXAMPLE_U_PRIME",
]

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64 output scramble (Steele, Lea & Flood's finalizer).  Every
    operand is a ``uint64`` array, whose products wrap modulo 2**64; numpy
    scalars would warn on the overflow instead."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _stream(states: np.ndarray, count: int) -> np.ndarray:
    """Outputs ``1..count`` of the SplitMix64 stream at each ``uint64`` state,
    one row per state.  The generator is a counter: output ``k`` of the
    stream at ``s`` is ``mix(s + k * golden)``, so a stream is one expression."""
    steps = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    return _mix(states[:, None] + steps)


def _uniforms(x: np.ndarray) -> np.ndarray:
    """Uniform draws in [0, 1) with 53 random bits, one per output."""
    return (x >> np.uint64(11)) * 2.0**-53


def _libm(f, x: np.ndarray) -> np.ndarray:
    """``f`` of the ``math`` module on each entry: the streams are pinned to the
    C library's ``log``, ``cos`` and ``sin``, and numpy's SIMD kernels may round differently."""
    return np.array(list(map(f, x.ravel().tolist()))).reshape(x.shape)


def _hermitian_draws(x: np.ndarray, n: int) -> np.ndarray:
    """Hermitian ``n x n`` draws (GUE-like), one per ``2 n^2`` outputs of a
    row.  Entry ``(i, j)`` is ``r cos(theta) + i r sin(theta)``, Box-Muller on
    outputs ``2(i n + j)`` and ``2(i n + j) + 1``."""
    # +1 keeps u1 in (0, 1] so the logarithm is finite.
    u1 = _uniforms(x[:, 0::2]) + 2.0**-53
    theta = 2.0 * math.pi * _uniforms(x[:, 1::2])
    r = np.sqrt(-2.0 * _libm(math.log, u1))
    g = np.empty(u1.shape, dtype=np.complex128)
    g.real = r * _libm(math.cos, theta)
    g.imag = r * _libm(math.sin, theta)
    # Exactly Hermitian as stored, with a real diagonal: nothing to validate.
    return _symmetrized(g.reshape(-1, n, n))


def random_unitary(seed: int, n: int) -> np.ndarray:
    """Eigenvector matrix of the Hermitian draw from the stream at ``seed``.
    Studies draw theirs stacked (see :func:`_instances`); this stays public
    because the benchmark's per-layer metrics are listed by it."""
    h = _hermitian_draws(_stream(np.array([seed & _MASK], np.uint64), 2 * n * n), n)[0]
    return np.array(jacobi.eigh(h).u, copy=True)


PREDICTORS = (
    "first_order",
    "schur_full",
    "schur_simplified",
    "rs_second_order",
    "eigvec_first_order",
    "u_ap_residual",
)

DEFAULT_T_GRID = (1e-1, 10.0**-1.5, 1e-2, 10.0**-2.5, 1e-3)


@dataclass(frozen=True)
class EnsembleConfig:
    """Everything a convergence study depends on."""

    seed: int
    n: int
    block_spec: tuple[int, ...]
    trials: int
    predictor: str
    t_grid: tuple[float, ...] = DEFAULT_T_GRID

    def __post_init__(self) -> None:
        try:
            for name in ("seed", "n", "trials"):
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            object.__setattr__(self, "block_spec", tuple(map(operator.index, self.block_spec)))
        except TypeError as exc:
            raise ValueError(f"seed, n, trials and block sizes must be integers: {exc}") from None
        object.__setattr__(self, "t_grid", tuple(_real(t, "t_grid") for t in self.t_grid))
        if self.n < 1:
            raise ValueError("dimension must be at least 1")
        if not self.block_spec or any(b < 1 for b in self.block_spec):
            raise ValueError("block multiplicities must be positive")
        if sum(self.block_spec) != self.n:
            raise ValueError(
                f"block multiplicities {self.block_spec} do not sum to n = {self.n}"
            )
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if not self.t_grid or any(not (t > 0.0 and math.isfinite(t)) for t in self.t_grid):
            raise ValueError("t-grid entries must be positive and finite")
        if any(later >= earlier for earlier, later in zip(self.t_grid, self.t_grid[1:])):
            raise ValueError("t-grid must be strictly decreasing")
        if len(self.t_grid) < 3:
            raise ValueError(f"t-grid needs at least 3 values to fit a slope, got {len(self.t_grid)}")
        if self.predictor not in PREDICTORS:
            raise ValueError(
                f"unknown predictor {self.predictor!r}; expected one of {PREDICTORS}"
            )


def generate_instance(cfg: EnsembleConfig, trial: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (A, F) pair for one trial.

    A has exactly the multiplicities of ``block_spec`` with distinct
    representative eigenvalues separated by at least 1; F is a random
    Hermitian direction of unit operator norm.
    """
    a, f = _instances(cfg, [trial])
    return a[0], f[0]


def _instances(cfg: EnsembleConfig, trials) -> tuple[np.ndarray, np.ndarray]:
    """:func:`generate_instance` of each trial as stacks ``A, F``: the
    first two stacks of :func:`_draws`."""
    return _draws(cfg, trials)[:2]


def _draws(cfg: EnsembleConfig, trials) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacks ``A, F, Q`` of the trials, drawn as one array: row ``k`` is
    the stream at ``mix(seed + (k + 1) * golden)`` (re-scrambled, as raw
    offsets give shifted copies of one stream).  It holds one uniform per
    block for the representative values, ``2 n^2`` outputs for a Hermitian
    matrix whose eigenvectors ``Q`` rotate A's spectrum, ``A = Q diag(reps)
    Q*``, then ``2 n^2`` for the direction.  One call to the oracle's array
    entry solves the ``Q`` draws and, in the same stack, the directions'
    Gram matrices, whose top eigenvalues give their norms.  ``Q`` is
    returned so that a study can solve its base warm, as ``Q* A Q``."""
    n, blocks = cfg.n, len(cfg.block_spec)
    try:
        keys = np.array([(cfg.seed + (operator.index(k) + 1) * _GOLDEN) & _MASK for k in trials], np.uint64)
    except TypeError as exc:
        raise ValueError(f"trial must be an integer: {exc}") from None
    x = _stream(_mix(keys), blocks + 4 * n * n)
    u = _uniforms(x[:, :blocks])
    # Block by block, as one running value: a cumsum would round differently.
    reps = u.copy()
    for k in range(1, blocks):
        reps[:, k] = reps[:, k - 1] - 1.0 - u[:, k]
    draws = _hermitian_draws(x[:, blocks:], n)
    q_draws, directions = draws[0::2], draws[1::2]
    gram, where = _grams(directions)
    # One size, exactly Hermitian as stored; a member's lam does not depend on its stack.
    u, lam = jacobi._solve_stack(np.concatenate([q_draws, gram]))[:2]
    q = u[: len(q_draws)]
    a = _symmetrized((q * np.repeat(reps, cfg.block_spec, axis=1)[:, None]) @ q.conj().swapaxes(1, 2))
    norms = _norms(lam[len(q_draws) :, 0], where)
    f = directions / np.array(norms)[:, None, None]
    return a, f, q


@dataclass(frozen=True)
class LoglogFit:
    slope: float
    intercept: float
    r_squared: float
    points_kept: int


def fit_loglog(ts, errors, scale: float) -> LoglogFit:
    """Least-squares slope of log10(error) against log10(t).

    ``ts`` must be positive and finite, ``errors`` finite and non-negative,
    one error per t, and ``scale`` a finite real; other input raises
    ``ValueError``.
    Points at or below the noise floor ``1000 * eps * max(1, scale)`` are
    dropped; fewer than 3 surviving points, or fewer than 2 distinct t among
    them, make the slope meaningless and raise :class:`StudyError` instead
    of returning one.
    """
    ts = np.asarray(ts, dtype=np.float64)
    errors = np.asarray(errors, dtype=np.float64)
    if not math.isfinite(scale := _real(scale, "scale")):
        raise ValueError(f"scale must be finite, got {scale}")
    if ts.ndim != 1 or errors.shape != ts.shape:
        raise ValueError(f"need one error per t, got shapes {ts.shape} and {errors.shape}")
    (fit,) = _fits(ts, errors[None], [scale])
    if isinstance(fit, StudyError):
        raise fit
    return fit


def _fits(ts: np.ndarray, errors: np.ndarray, scales) -> list[LoglogFit | StudyError]:
    """:func:`fit_loglog` of each row of ``errors`` ``(k, len(ts))`` with its
    scale: the fit, or the :class:`StudyError` it raises.  The rows that keep
    equally many points are fitted as one array expression, each row
    reduced along its own contiguous run, so that it rounds as alone."""
    if not np.all((ts > 0.0) & np.isfinite(ts)):
        raise ValueError("t samples must be positive and finite")
    if not np.all(np.isfinite(errors) & (errors >= 0.0)):
        raise ValueError("error samples must be finite and non-negative")
    floor = 1000.0 * np.finfo(np.float64).eps * np.fmax(1.0, np.asarray(scales, dtype=np.float64))
    keep = errors > floor[:, None]
    counts = keep.sum(axis=1)
    out: list = [None] * len(errors)
    for k in np.flatnonzero(counts < 3):
        out[k] = StudyError(
            f"only {counts[k]} of {errors.shape[1]} error samples exceed the "
            f"noise floor {floor[k]:.3e}; no reliable slope"
        )
    for count in np.unique(counts[counts >= 3]):
        rows = np.flatnonzero(counts == count)
        kept = keep[rows]
        xs = np.log10(np.broadcast_to(ts, kept.shape)[kept]).reshape(-1, count)
        ys = np.log10(errors[rows][kept]).reshape(-1, count)
        # The least-squares line in closed form, about the means; a row
        # whose points share one t has none, and is refused below.
        x_mean, y_mean = xs.mean(axis=1, keepdims=True), ys.mean(axis=1, keepdims=True)
        dx = xs - x_mean
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.sum(dx * (ys - y_mean), axis=1) / np.sum(dx * dx, axis=1)
            intercept = y_mean[:, 0] - slope * x_mean[:, 0]
            fitted = slope[:, None] * xs + intercept[:, None]
            ss_res = np.sum((ys - fitted) ** 2, axis=1)
            ss_tot = np.sum((ys - y_mean) ** 2, axis=1)
            r_squared = np.where(ss_tot > 0.0, 1.0 - ss_res / ss_tot, 1.0)
        spread = xs.max(axis=1) > xs.min(axis=1)
        fits = zip(slope.tolist(), intercept.tolist(), r_squared.tolist())
        for k, ok, fit in zip(rows, spread, fits):
            out[k] = LoglogFit(*fit, points_kept=int(count)) if ok else StudyError(
                f"the {count} error samples above the noise floor {floor[k]:.3e} share "
                "one t; no reliable slope"
            )
    return out


@dataclass(frozen=True)
class StudyRow:
    trial: int
    t: float
    error: float


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-point errors plus the worst-trial fit, which is what gets gated.
    ``failure_reasons`` says why each trial of ``failed_trials`` failed:
    ``"tie guard"``, ``"gap guard"`` or the text of its fit's
    :class:`StudyError`."""

    rows: tuple[StudyRow, ...]
    slope: float
    intercept: float
    r_squared: float
    trial_slopes: tuple[float, ...]
    failed_trials: tuple[int, ...] = field(default=())
    failure_reasons: tuple[str, ...] = field(default=())


def _refusals(predictor: str, groups, e_hat: np.ndarray, margins: np.ndarray, norm, t_max: float) -> np.ndarray:
    """Which of the predictor's guards, deciding as for a record, refuses
    each trial of the stacks along a t-grid whose largest entry is
    ``t_max``: ``"tie guard"``, ``"gap guard"``, or ``""`` where both admit
    it; the gap guard holds for every ``t`` once it holds for the largest.
    A tied trial checks ``inf`` at the gap guard, which its bounds pass
    unsolved."""
    reasons = np.full(len(e_hat), "", dtype=object)
    untied = np.ones(len(e_hat), dtype=bool)
    if predictor in ("rs_second_order", "eigvec_first_order"):
        ties = rayleigh._tie_gaps(np.diagonal(e_hat, axis1=1, axis2=2).real, groups)
        untied = alignment._allows(norm, ties.min(axis=1, initial=np.inf), rayleigh.STRICT_DIAGONAL_TOL)
        reasons[~untied] = "tie guard"
    if predictor not in ("first_order", "u_ap_residual") and len(groups) >= 2:
        least = np.where(untied, margins.min(axis=1), np.inf)
        reasons[~alignment._allows(norm, least, alignment.DEFAULT_MARGIN_FACTOR * t_max)] = "gap guard"
    return reasons


def _errors(predictor: str, grid: np.ndarray, groups, a, f, u, lam, e_hat, reps, mmat, w) -> np.ndarray:
    """Errors ``(trials, t)`` of the predictor against the oracle on the
    admitted trials' stacks, all of the degeneracy ``groups``, each stage
    one array expression over the ``(trials, t, n, n)`` stack or one oracle
    call.

    The oracle solves ``U* (A + t F) U`` with each trial's rotated ``U``,
    never from ``E_hat``, whose errors would then reach both sides of the
    check; eigenvectors ``V`` map back as ``U V``.  Eigenvalue predictors
    report the largest error over indices, matrix-valued ones the operator
    norm of the error matrix."""
    trials, steps, n = len(u), grid.size, u.shape[-1]
    t = grid[:, None, None]
    e_hat_t = t * e_hat[:, None]
    if predictor == "u_ap_residual":
        gaps = first_order._residuals(u[:, None], lam[:, None], t * f[:, None], e_hat_t, mmat[:, None])
        return np.reshape(operator_norms(gaps.reshape(-1, n, n)), (trials, steps))
    # A + t F is exactly Hermitian as stored, a sum of two such matrices.
    # U* (A + t F) U is diagonal up to O(t), so the oracle takes fewer sweeps.
    u_rep = np.repeat(u, steps, axis=0)
    warm = alignment._conjugate(u_rep, (a[:, None] + t * f[:, None]).reshape(-1, n, n))
    if predictor == "eigvec_first_order":
        # The guard pass has run the tie guard: N is formed without it.
        n_mat = rayleigh._n_matrix(e_hat, mmat, *alignment._same_block(groups))
        u_prime = rayleigh._derivative(u, mmat, e_hat, n_mat)
        u_hat = rayleigh._series(t, u[:, None], u_prime[:, None])
        # One column match over every (trial, t) member, of the exact
        # eigenvectors U V mapped back from the warm solve.  It rounds by
        # their layout, row-major as the product U V is formed.
        v = u_hat.reshape(-1, n, n)
        gaps = alignment._align_stack(u_rep @ jacobi._solve_stack(warm)[0], v, groups) - v
        return np.reshape(operator_norms(gaps), (trials, steps))
    if predictor == "first_order":
        pred = first_order._eigenvalues(lam[:, None], e_hat_t)
    elif predictor == "rs_second_order":
        a1 = np.diagonal(e_hat, axis1=1, axis2=2).real
        pred = rayleigh._series(grid[:, None], lam[:, None], a1[:, None], rayleigh._a2(e_hat, mmat)[:, None])
    else:
        pred = schur._refined_stack(e_hat_t, w, reps, groups, (predictor.removeprefix("schur_"),))[0][0]
    lams = jacobi._solve_stack(warm, vectors=False)
    return np.abs(lams - pred.reshape(-1, n)).max(axis=1).reshape(trials, steps)


def convergence_study(cfg: EnsembleConfig) -> ConvergenceReport:
    """Run the configured predictor against the oracle over all trials.

    Eigenvalue predictors report the largest error over indices at each t,
    matrix-valued ones the operator norm of the error matrix.  Trials whose
    predictor preconditions fail, or whose errors leave too few points above
    the noise floor to fit, are recorded in ``failed_trials``, each with its
    reason in ``failure_reasons``, and give no rows and no slope; more than
    half failing aborts the study, naming the first failed trial and its
    reason.  The reported slope is the worst (smallest) per-trial slope.

    Each oracle stage serves all trials at once:

    1. the instances' ``Q`` draws together with the Gram matrices of their
       directions, whose top eigenvalues give the directions' norms;
    2. the base decompositions, solved warm as ``Q* A Q`` with each trial's
       drawn ``Q``: diagonal to round-off, so the oracle stops after 0
       sweeps; eigenvectors ``V`` map back as ``U = Q V``;
    3. the block-wise rotations, one call per block size;
    4. the Schur complements of the Schur predictors, one call per block size;
    5. the warm exact solves, of ``U* (A + t F) U`` with each trial's
       rotated ``U`` over the admitted trials and the t-grid, for every
       predictor but ``u_ap_residual``; eigenvectors ``V`` map back as ``U V``;
    6. the error matrices' norms, for the matrix-valued predictors.

    No predictor needs both 4 and 6, so a study has at most five stages.
    The oracle gives every stack member the bits of its solo solve, and every
    other stage is a batched array expression over the ``(trials, t)``
    stack whose members round as they do alone, so the study is the same
    as one solved trial by trial.  That includes the eigenvector study's
    gauge match of the exact eigenvectors to the predicted ones, made once
    for all its ``(trial, t)`` members.  The trials share one degeneracy
    structure; bases that split otherwise raise :class:`StudyError`.  Each
    guard decides all trials at once, at the largest ``t`` and with one norm
    solve at most, before any exact solve, so a refused trial costs none.
    """
    grid = np.array(cfg.t_grid)
    a, f, q = _draws(cfg, range(cfg.trials))
    # Q* A Q is diagonal to round-off, so the oracle stops at once; F is
    # exactly Hermitian, a draw over a real norm.
    v, lam = jacobi._solve_stack(alignment._conjugate(q, a))[:2]
    u = q @ v
    groups = alignment._groups(lam)
    reps, mmat, w, margins = alignment._base_data_rows(lam, groups)
    raw = alignment._conjugate(u, f)
    norm = alignment._lazy_norms(raw)
    u = alignment._rotate_blocks(u, raw, groups)
    e_hat = alignment._conjugate(u, f)
    # The grid is strictly decreasing: its first entry is the largest.
    reasons = _refusals(cfg.predictor, groups, e_hat, margins, norm, cfg.t_grid[0])
    kept = np.flatnonzero(reasons == "")
    failed = {trial: reasons[trial] for trial in np.flatnonzero(reasons != "").tolist()}
    rows, fits = [], []
    if kept.size:
        errors = _errors(cfg.predictor, grid, groups, *(x[kept] for x in (a, f, u, lam, e_hat, reps, mmat, w)))
        scales = np.abs(lam[kept]).max(axis=1)
        for trial, fit, trial_errors in zip(kept.tolist(), _fits(grid, errors, scales), errors.tolist()):
            if isinstance(fit, StudyError):
                failed[trial] = str(fit)
                continue
            fits.append(fit)
            rows.extend(StudyRow(trial, t, error) for t, error in zip(cfg.t_grid, trial_errors))
    failed = dict(sorted(failed.items()))
    if 2 * len(failed) > cfg.trials:
        first = next(iter(failed))
        raise StudyError(
            f"{len(failed)} of {cfg.trials} trials failed predictor preconditions or their fit; "
            f"trial {first}: {failed[first]}"
        )
    worst = min(range(len(fits)), key=lambda k: fits[k].slope)
    return ConvergenceReport(
        rows=tuple(rows),
        slope=fits[worst].slope,
        intercept=fits[worst].intercept,
        r_squared=fits[worst].r_squared,
        trial_slopes=tuple(f.slope for f in fits),
        failed_trials=tuple(failed),
        failure_reasons=tuple(failed.values()),
    )


def report_to_csv(report: ConvergenceReport) -> str:
    """Render a study as CSV: header, one row per (trial, t), and a trailing
    comment with the gated slope.  Floats use shortest round-trip form, so
    identical studies produce byte-identical output."""
    lines = ["trial,t,error"]
    for row in report.rows:
        lines.append(f"{row.trial},{float(row.t)!r},{float(row.error)!r}")
    lines.append(f"# slope={float(report.slope)!r} r2={float(report.r_squared)!r}")
    return "\n".join(lines) + "\n"


# 3 x 3 worked example with a double eigenvalue: A = diag(0, 0, 1) perturbed
# along a direction that forces a genuine rotation inside the degenerate
# block.  The expected matrices below are in the input frame and make the
# point that -M*F alone misses that rotation.
EXAMPLE_A = as_readonly(np.diag([0.0, 0.0, 1.0]).astype(np.complex128))
EXAMPLE_F = as_readonly(
    np.array([[1, 0, 1], [0, 0, 1], [1, 1, 0]], dtype=np.complex128)
)
EXAMPLE_N = as_readonly(np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]], dtype=np.float64))
EXAMPLE_U_PRIME = as_readonly(
    np.array([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]], dtype=np.float64)
)


@dataclass(frozen=True)
class ClauseResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class RegressionReport:
    clauses: tuple[ClauseResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)


def paper_example_regression() -> RegressionReport:
    """Drive every capability through the built-in worked example and check
    the five landmark facts about it.

    The example's base eigenvector matrix is an exact permutation, so sorted-
    frame results map to the input frame by conjugation with it.
    """
    a = np.array(EXAMPLE_A)
    f = np.array(EXAMPLE_F)
    ap = alignment.aligned_perturbation(a, f)
    mmat = alignment.m_matrix(ap.base, ap.blocks)
    perm = ap.base.u.real.copy()
    clauses: list[ClauseResult] = []

    # (i) Schur complement of the degenerate block at two t values.
    block = next(
        g for g, (s, e) in enumerate(ap.blocks.groups) if e - s == 2
    )
    dev_b = 0.0
    for t in (0.1, 0.01):
        sd = schur.schur_data(alignment.scaled(ap, t), block)
        expected = np.array(
            [[t - t * t, -t * t], [-t * t, -t * t]], dtype=np.complex128
        )
        dev_b = max(dev_b, float(np.abs(sd.b - expected).max()))
    clauses.append(
        ClauseResult(
            name="schur_block",
            passed=dev_b <= 1e-10,
            detail=f"max deviation of B from [[t-t^2,-t^2],[-t^2,-t^2]]: {dev_b:.3e}",
        )
    )

    # (ii) and (iii): the rotation generator and the derivative, input frame.
    nm = perm @ rayleigh.n_matrix(ap) @ perm.T
    dev_n = float(np.abs(nm - EXAMPLE_N).max())
    clauses.append(
        ClauseResult(
            name="n_matrix",
            passed=dev_n <= 1e-10,
            detail=f"max deviation of N from its printed value: {dev_n:.3e}",
        )
    )
    u_prime = rayleigh.eigenvector_derivative(ap, mmat) @ perm.T
    dev_up = float(np.abs(u_prime - EXAMPLE_U_PRIME).max())
    clauses.append(
        ClauseResult(
            name="u_prime",
            passed=dev_up <= 1e-10,
            detail=f"max deviation of U'(0) from its printed value: {dev_up:.3e}",
        )
    )

    # (iv) Oracle eigenvectors at t = 0.01 match I + 0.01 U'(0) to 3 decimals.
    t = 0.01
    exact = jacobi.eigh(a + t * f)
    expected_u = np.eye(3) + t * np.asarray(EXAMPLE_U_PRIME)
    candidate = exact.u @ perm.T
    matched = alignment.align_columns(candidate, expected_u, [(0, 1), (1, 2), (2, 3)])
    dev_u = float(np.abs(matched - expected_u).max())
    clauses.append(
        ClauseResult(
            name="eigvec_3_decimals",
            passed=dev_u <= 5e-4,
            detail=f"entrywise gap between oracle eigenvectors and I + t U'(0): {dev_u:.3e}",
        )
    )

    # (v) The inverse-gap term alone is off by exactly the rotation: the
    # aligned error of U (I - t M*F_hat), divided by t, approaches ||N||_F.
    t = 1e-3
    naive = first_order.u_approx(alignment.scaled(ap, t), mmat)
    exact = jacobi.eigh(a + t * f)
    matched = alignment.align_columns(exact.u, naive, ap.blocks)
    value = float(np.linalg.norm(matched - naive)) / t
    target = math.sqrt(2.0)
    clauses.append(
        ClauseResult(
            name="naive_gap_norm",
            passed=abs(value - target) <= 0.05,
            detail=f"||aligned oracle - inverse-gap prediction||_F / t = {value:.4f} "
            f"(rotation generator norm {target:.4f})",
        )
    )
    return RegressionReport(clauses=tuple(clauses))
