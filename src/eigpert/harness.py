"""Experiment driver: seeded ensembles, convergence-order fits, regression.

Everything here is deterministic given the configuration.  Randomness comes
from SplitMix64 streams (Steele, Lea & Flood) rather than a library RNG, so
that studies reproduce bit-identically across library versions.  The
generator is a counter, so a study draws every trial's stream as one
``uint64`` array and its matrices from it, with no generator object.  The
convergence studies pair each predictor against the eigendecomposition
oracle over a decreasing t-grid and fit the error's log-log slope.

A study stacks its oracle calls across its trials, one call per stage (see
:func:`convergence_study`), so it makes at most six calls whatever its
number of trials, with the same output as solving trial by trial.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import alignment, first_order, jacobi, rayleigh, schur
from .errors import PreconditionError, StudyError
# operator_norm is not called here; the benchmark's tracer test wraps this binding.
from .matrices import as_readonly, hermitian, operator_norm, operator_norms  # noqa: F401

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
    g = g.reshape(-1, n, n)
    # Exactly Hermitian as stored, with a real diagonal: nothing to validate.
    return 0.5 * (g + g.conj().transpose(0, 2, 1))


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
        object.__setattr__(self, "t_grid", tuple(float(t) for t in self.t_grid))
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
    return _instances(cfg, [trial])[0]


def _instances(cfg: EnsembleConfig, trials) -> list[tuple[np.ndarray, np.ndarray]]:
    """:func:`generate_instance` of each trial, drawn as one array: row ``k``
    is the stream at ``mix(seed + (k + 1) * golden)`` (re-scrambled, as raw
    offsets give shifted copies of one stream).  It holds one uniform per
    block for the representative values, ``2 n^2`` outputs for a Hermitian
    matrix whose eigenvectors ``Q`` rotate A's spectrum, then ``2 n^2`` for
    the direction.  One oracle call diagonalizes all the ``Q`` draws and one
    computes all the directions' norms."""
    n, blocks = cfg.n, len(cfg.block_spec)
    keys = np.array([(cfg.seed + (k + 1) * _GOLDEN) & _MASK for k in trials], np.uint64)
    x = _stream(_mix(keys), blocks + 4 * n * n)
    u = _uniforms(x[:, :blocks])
    # Block by block, as one running value: a cumsum would round differently.
    reps = u.copy()
    for k in range(1, blocks):
        reps[:, k] = reps[:, k - 1] - 1.0 - u[:, k]
    lams = np.repeat(reps, cfg.block_spec, axis=1).astype(np.complex128)
    draws = _hermitian_draws(x[:, blocks:], n)
    q_draws, directions = draws[0::2], draws[1::2]
    qs = [d.u for d in jacobi.eigh_stack(q_draws)]
    return [
        (hermitian(q @ np.diag(lam) @ q.conj().T), g / norm)
        for q, lam, g, norm in zip(qs, lams, directions, operator_norms(directions))
    ]


@dataclass(frozen=True)
class LoglogFit:
    slope: float
    intercept: float
    r_squared: float
    points_kept: int


def fit_loglog(ts, errors, scale: float) -> LoglogFit:
    """Least-squares slope of log10(error) against log10(t).

    Points at or below the noise floor ``1000 * eps * max(1, scale)`` are
    dropped; fewer than 3 surviving points make the slope meaningless and
    raise :class:`StudyError` instead of returning one.
    """
    ts = np.asarray(ts, dtype=np.float64)
    errors = np.asarray(errors, dtype=np.float64)
    floor = 1000.0 * np.finfo(np.float64).eps * max(1.0, float(scale))
    keep = errors > floor
    if int(keep.sum()) < 3:
        raise StudyError(
            f"only {int(keep.sum())} of {errors.size} error samples exceed the "
            f"noise floor {floor:.3e}; no reliable slope"
        )
    x = np.log10(ts[keep])
    y = np.log10(errors[keep])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return LoglogFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r_squared,
        points_kept=int(keep.sum()),
    )


@dataclass(frozen=True)
class StudyRow:
    trial: int
    t: float
    error: float


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-point errors plus the worst-trial fit, which is what gets gated."""

    rows: tuple[StudyRow, ...]
    slope: float
    intercept: float
    r_squared: float
    trial_slopes: tuple[float, ...]
    failed_trials: tuple[int, ...] = field(default=())


def _predictions(predictor: str, ap: alignment.AlignedPerturbation, t_grid) -> list:
    """One trial's predictions along the t-grid, all formed before any exact
    solve; raises :class:`PreconditionError` when the predictor's
    preconditions fail.

    The entries are eigenvalue vectors, except for the Schur variants, whose
    entries are the ``(rhos, bs)`` complements left to be solved, for
    ``eigvec_first_order``, whose entries are eigenvector matrices, and for
    ``u_ap_residual``, whose entries are already the error matrices.
    """
    if predictor == "first_order":
        return [first_order.first_order_eigenvalues(alignment.scaled(ap, t)) for t in t_grid]
    if predictor in ("schur_full", "schur_simplified"):
        variant = "full" if predictor == "schur_full" else "simplified"
        return [schur._complements(alignment.scaled(ap, t), variant) for t in t_grid]
    mmat = alignment.m_matrix(ap.base, ap.blocks)
    if predictor == "u_ap_residual":
        return [first_order.decomposition_residual(alignment.scaled(ap, t), mmat) for t in t_grid]
    expansion = rayleigh._expansion(ap, mmat)
    if predictor == "rs_second_order":
        return [expansion.at(t).xi_hat for t in t_grid]
    return [expansion.at(t).u_hat for t in t_grid]


def convergence_study(cfg: EnsembleConfig) -> ConvergenceReport:
    """Run the configured predictor against the oracle over all trials.

    Eigenvalue predictors report the largest error over indices at each t,
    matrix-valued ones the operator norm of the error matrix.  Trials whose
    predictor preconditions fail, or whose errors leave too few points above
    the noise floor to fit, are recorded in ``failed_trials`` and give no
    rows and no slope; more than half failing aborts the study.  The
    reported slope is the worst (smallest) per-trial slope.

    Each oracle stage is one call for all trials: the instances' ``Q``
    draws, their directions' norms, the base decompositions, the block-wise
    rotations, the exact solves of ``A + t F`` over the surviving trials and
    the t-grid, the Schur complements and the error matrices' norms.  The
    oracle gives every stack member the bits of its solo solve, so the study
    is the same as one solved trial by trial.
    """
    grid = cfg.t_grid
    instances = _instances(cfg, range(cfg.trials))
    bases = jacobi.eigh_stack([a for a, _ in instances])
    aps = alignment._blockwise_diagonalize_stack(
        [alignment.conjugate_to_eigenbasis(base, f) for base, (_, f) in zip(bases, instances)]
    )
    # Preconditions are all checked before any exact solve, so a failed
    # trial costs no solve and is skipped as a whole.
    kept: list[tuple[int, list]] = []
    failed: list[int] = []
    for trial, ap in enumerate(aps):
        try:
            kept.append((trial, _predictions(cfg.predictor, ap, grid)))
        except PreconditionError:
            failed.append(trial)
    if cfg.predictor in ("schur_full", "schur_simplified"):
        # The blocks are contiguous and cover every index in order.
        complements = [b for _, preds in kept for _, bs in preds for b in bs]
        betas = iter(schur._complement_eigenvalues(complements))
        kept = [
            (trial, [np.concatenate([rho + next(betas) for rho in rhos]) for rhos, _ in preds])
            for trial, preds in kept
        ]
    flat = [(trial, t, pred) for trial, preds in kept for t, pred in zip(grid, preds)]
    if cfg.predictor == "u_ap_residual":
        errors = operator_norms([gap for _, _, gap in flat])
    else:
        exacts = jacobi.eigh_stack([instances[k][0] + t * instances[k][1] for k, t, _ in flat])
        if cfg.predictor == "eigvec_first_order":
            errors = operator_norms(
                [
                    alignment.align_columns(exact.u, u_hat, aps[k].blocks) - u_hat
                    for (k, _, u_hat), exact in zip(flat, exacts)
                ]
            )
        else:
            errors = [
                float(np.abs(exact.lam - pred).max()) for (_, _, pred), exact in zip(flat, exacts)
            ]
    rows, fits = [], []
    for k, (trial, _) in enumerate(kept):
        scale = float(np.abs(aps[trial].base.lam).max())
        trial_errors = errors[k * len(grid) : (k + 1) * len(grid)]
        try:
            fits.append(fit_loglog(grid, trial_errors, scale))
        except StudyError:
            failed.append(trial)
            continue
        rows.extend(StudyRow(trial, t, error) for t, error in zip(grid, trial_errors))
    if 2 * len(failed) > cfg.trials:
        raise StudyError(
            f"{len(failed)} of {cfg.trials} trials failed predictor preconditions or their fit"
        )
    worst = min(range(len(fits)), key=lambda k: fits[k].slope)
    return ConvergenceReport(
        rows=tuple(rows),
        slope=fits[worst].slope,
        intercept=fits[worst].intercept,
        r_squared=fits[worst].r_squared,
        trial_slopes=tuple(f.slope for f in fits),
        failed_trials=tuple(sorted(failed)),
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


def _to_input_frame(perm: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Undo the sort permutation on a matrix that lives in eigen-coordinates."""
    return perm @ x @ perm.T


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
    nm = _to_input_frame(perm, rayleigh.n_matrix(ap))
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
