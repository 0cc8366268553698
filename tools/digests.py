"""Print a SHA-256 digest of every output a refactor must keep byte-identical.

Run it from any directory on two trees, say the parent commit and a change,
and diff the two outputs:

    python tools/digests.py > after.txt

Each line is ``name sha256``.  The outputs cover the ``eigpert converge``
CSVs of every predictor (and of three at n = 60), ``paper-example``,
``predict`` and ``derivative`` on generated instances, the demos, full
predictions at n = 60 (with two stored bases alternating, and on a layout
of mixed block sizes), the bytes of the library's result records, the raw
bytes of the generated instances themselves, so that a change to the
random streams shows as its own line, the oracle's own outputs on stacks
of sizes 1 to 60 and on structured stacks with exact zeros, ``hermitian``
near overflow, at subnormal scale and just inside its asymmetry tolerance,
``operator_norms`` on stacks of square and rectangular shapes, the
certified bounds of ``||E||`` on stacks from subnormal to ``1e300`` scale,
the column match of ``align_columns`` at sizes 1 to 60, ``N`` and
``U'(0)`` of the small instances with ``F`` scaled far past unit scale, and
the stages of a convergence study on seeded stacks of 10 and 100
instances, made by the study's own ``harness._aligned``, its warm base and
warm exact solves among them, whose lines move when a change touches a
few members, and the Schur fixed point alone on the ``E_hat`` of such
stacks, whose members stop after different numbers of passes, in both
layouts.  The last lines, ``oracle/schedule/n...``, hash the oracle's sweep
order at sizes 1 to 13 and 60, so that a change to it names its cause
rather than showing only as moved oracle and study lines.
The refusal paths are covered too: a ``predict`` whose ``t`` passes the gap
between eigenvalue blocks, studies whose largest ``t`` does so for some
trials, a second-order ``predict`` at a finite ``t`` whose double
overflows, and the message, line and column of each malformed matrix text
of ``PARSE_REFUSALS``.  A zero direction on a base with double eigenvalues
is covered too: it is no tie, so ``predict --order 2`` and ``derivative``
answer it.  All other inputs come from ``harness.generate_instance``, some
with entries zeroed.  A command's digest covers its exit code and stdout.
The script exits 1 if any command it runs exits otherwise than expected, or
prints to stdout when it is expected to fail.  Commands, the zero-direction
ones among them, are expected to exit 0 except for the single-block
studies, where every prediction is exact to round-off, so the fit finds no
points above its noise floor and the study fails by design, and for the
refused ``predict`` runs: past the gap they exit 3, and at a ``t`` whose
double overflows they exit 2.  The other digests are still printed.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# One BLAS thread, set before numpy is imported: products may round
# differently when split across threads.
os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from eigpert import alignment, first_order, harness, jacobi, matrices, rayleigh, schur  # noqa: E402
from eigpert.errors import ConvergenceError  # noqa: E402

ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

# (block_spec, seeds, trials, exit code) of the convergence studies, all at
# n = sum(block_spec).  The last two reach 9 rows and more, where products
# and column matches round by the layout of their inputs.
STUDIES = (
    ((2, 2, 1, 1), (1, 11, 12, 13), 20, 0),
    ((3, 2, 1), (2,), 9, 0),
    ((1, 1, 1, 1), (2,), 9, 0),
    ((4,), (2,), 9, 1),
    ((4, 3, 2, 1), (9,), 20, 0),
    ((4, 3, 2, 1, 1, 4, 3, 2), (9,), 20, 0),
)

# (predictors, seed, block_spec, trials, t-grid) of studies whose first t
# passes the gap in trials 4, 6 and 8: the Schur variants and the line
# expansion's second-order eigenvalues and first-order eigenvectors share one
# gap guard, and all four refuse those trials.
GAP_STUDY = (
    ("schur_full", "schur_simplified", "rs_second_order", "eigvec_first_order"),
    6, (3, 2, 1), 10, "0.55,0.1,0.03,0.01",
)

# (seed, block_spec) of the small instances for `predict`, `derivative` and the records.
SMALL = ((1, (2, 2, 1, 1)), (2, (3, 2, 1)), (3, (4,)))

# Powers of two that scale F of the small instances for N and U'(0): past
# the range where F_hat* (M * F_hat), formed unscaled, would underflow or
# overflow.
DIRECTION_EXPONENTS = (-1000, -540, 540, 1000)

# A t past every gap of the first small instance: its gaps are below 2 and
# ||F|| = 1, so both the line expansion and the Schur refinement refuse.
REFUSED_T = "1"

# A finite t whose gap-guard factor 2 |t| overflows, which the line
# expansion refuses as a usage error: on the first small instance, and with
# E zeroed on the simple-spectrum instance of OVERFLOW_ZERO_E.  A zero E
# passes the tie guard in a multi-member block too, so it would reach the
# same refusal there.
OVERFLOW_T = "1e308"
OVERFLOW_ZERO_E = (2, (1, 1, 1, 1))

# (size, members, block_spec) of the seeded stack that digests the oracle
# itself; each (A, F) instance gives two members, scaled by powers of two.
ORACLE_STACK = (
    (1, 100, (1,)), (2, 100, (2,)), (5, 100, (2, 2, 1)), (6, 100, (2, 2, 1, 1)), (60, 10, (4,) * 15),
)
ORACLE_EXPONENTS = (0, -1000, 990, -300, 300)

# The block layout of the structured oracle stack at n = 60: its members are
# exactly zero off these blocks.
STRUCTURED_SPEC = (4, 3, 2, 1) * 6

# Matrix texts that parse_matrix refuses: a short row, a long row, an
# overflowing entry, a bad header, too few rows and trailing content.
PARSE_REFUSALS = ("2\n1 2\n3\n", "2\n1 2 3\n4 5\n", "2\n1 2\n3 1e999\n", "2x2\n1\n", "3\n1 2 3\n", "1\n5\n\njunk\n")

# Exponents of the powers of two that scale the seeded stacks whose ||E||
# bounds are digested: subnormal entries up to entries near 1e300.
NORM_BOUND_EXPONENTS = (-1060, -1000, -300, 0, 300, 990, 997)

# (rows, columns) of the seeded stacks whose operator norms are digested.
NORM_SHAPES = ((6, 6), (3, 7), (9, 2), (60, 60))

# (size, members, block_spec) of the seeded column matches: each member
# matches the oracle's eigenvectors of A + t F, scaled by a power of two, to
# the block-wise rotated eigenvectors of A.  Odd members are copied to row-major
# order, as np.vdot's sums depend on the layout from 9 rows up.
ALIGN_STACK = (
    (1, 10, (1,)), (2, 10, (2,)), (3, 10, (2, 1)), (6, 10, (2, 2, 1, 1)),
    (9, 10, (3, 3, 2, 1)), (20, 6, (4, 4, 4, 4, 2, 2)), (60, 2, (4,) * 15),
)
ALIGN_T = 1e-2

# (block_spec, members) of the seeded instance stacks whose study pipeline
# is digested as one stack: from 9 rows up products round by layout, and a
# change that touches a few members of a 100-member stack shows on no
# single-instance line.  Its Schur refinement and first-order residuals are
# taken at E = t F for one t.
STUDY_STACKS = (((2, 3, 1, 3), 100), ((4, 1, 3, 2, 4, 2, 4), 100), ((4, 3, 2) * 4 + (4,) * 6, 10))
STUDY_STACK_T = 1e-2

# (block_spec, members) of the seeded stacks whose Schur fixed point is
# digested alone, member j at E = t F for the t of ITERATE_T at j modulo its
# length, so that the members stop after 5 to 17 passes; and the cap of the
# capped runs, below the slowest members' passes.
ITERATE_STACKS = (((2, 2, 1, 1), 12), ((4, 3, 2, 1), 12), ((4,) * 15, 6))
ITERATE_T = (1e-4, 1e-2, 0.05, 0.1, 0.2, 0.24)
ITERATE_CAP = 12

# Seeds of the n = 60 instances, their layout, and the scales t of E = t F.
LARGE_SEEDS = (1, 2)
LARGE_SPEC = (4,) * 15
LARGE_T = (1e-3, 1e-2, 1e-1)

# An n = 60 layout that mixes four block sizes, so that the Schur complements
# of several sizes are stacked, 1 x 1 blocks among them.
LARGE_MIXED_SPEC = (4, 3, 2, 1) * 6

# (predictors, trials) of the convergence studies at n = 60, on both layouts
# above and the first seed: the predictors whose stacked products and column
# matches round by the layout of the study's rotated eigenvectors.
LARGE_STUDY = (("eigvec_first_order", "schur_full", "u_ap_residual"), 3)


def _bytes(value) -> bytes:
    """Bytes of a value: an array's dtype, shape and raw data (so signed zeros
    count), a sequence element by element, anything else its repr."""
    if isinstance(value, np.ndarray):
        return f"{value.dtype}{value.shape}".encode() + np.ascontiguousarray(value).tobytes()
    if isinstance(value, (tuple, list)):
        return b"(" + b",".join(_bytes(v) for v in value) + b")"
    return repr(value).encode()


def _record(name: str, *values) -> None:
    print(name, hashlib.sha256(b"".join(_bytes(v) for v in values)).hexdigest())


class Runner:
    """Runs commands and digests their stdout, remembering any failure."""

    def __init__(self) -> None:
        self.failed = False

    def run(self, name: str, argv: list[str], expect: int = 0) -> None:
        proc = subprocess.run(argv, capture_output=True, env=ENV, cwd=ROOT)
        if proc.returncode != expect or (expect != 0 and proc.stdout):
            self.failed = True
            sys.stderr.write(f"{name}: exit {proc.returncode}\n{proc.stderr.decode()}")
        _record(name, proc.returncode, proc.stdout)

    def cli(self, name: str, *args: str, expect: int = 0) -> None:
        self.run(name, [sys.executable, "-m", "eigpert", *args], expect)


def _instance(seed: int, spec: tuple[int, ...], trial: int = 0) -> tuple[np.ndarray, np.ndarray]:
    cfg = harness.EnsembleConfig(
        seed=seed, n=sum(spec), block_spec=spec, trials=trial + 1, predictor="first_order"
    )
    return harness.generate_instance(cfg, trial)


def instances() -> None:
    """The raw bytes of every trial's ``(A, F)`` of each study ensemble, and
    of each n = 60 instance."""
    ensembles = [(spec, seed, trials) for spec, seeds, trials, _ in STUDIES for seed in seeds]
    _, seed, spec, trials, _ = GAP_STUDY
    ensembles.append((spec, seed, trials))
    ensembles.extend((spec, seed, 1) for spec in (LARGE_SPEC, LARGE_MIXED_SPEC) for seed in LARGE_SEEDS)
    for spec, seed, trials in ensembles:
        _record(
            f"instances/{','.join(map(str, spec))}/seed{seed}/trials{trials}",
            *(_instance(seed, spec, trial) for trial in range(trials)),
        )


def studies(runner: Runner) -> None:
    for spec, seeds, trials, expect in STUDIES:
        blocks = ",".join(map(str, spec))
        for seed in seeds:
            for predictor in harness.PREDICTORS:
                runner.cli(
                    f"converge/{predictor}/{blocks}/seed{seed}",
                    "converge", "--predictor", predictor, "--seed", str(seed),
                    "--n", str(sum(spec)), "--blocks", blocks, "--trials", str(trials),
                    expect=expect,
                )
    predictors, trials = LARGE_STUDY
    for spec in (LARGE_SPEC, LARGE_MIXED_SPEC):
        blocks = ",".join(map(str, spec))
        for predictor in predictors:
            runner.cli(
                f"converge/{predictor}/{blocks}/seed{LARGE_SEEDS[0]}",
                "converge", "--predictor", predictor, "--seed", str(LARGE_SEEDS[0]),
                "--n", str(sum(spec)), "--blocks", blocks, "--trials", str(trials),
            )
    predictors, seed, spec, trials, grid = GAP_STUDY
    blocks = ",".join(map(str, spec))
    for predictor in predictors:
        runner.cli(
            f"converge/{predictor}/{blocks}/seed{seed}/tgrid{grid}",
            "converge", "--predictor", predictor, "--seed", str(seed),
            "--n", str(sum(spec)), "--blocks", blocks, "--trials", str(trials),
            "--tgrid", grid,
        )


def small_instances(runner: Runner, tmp: Path) -> None:
    for seed, spec in SMALL:
        a, f = _instance(seed, spec)
        tag = f"seed{seed}/{','.join(map(str, spec))}"
        files = {"a": tmp / f"a{seed}.txt", "f": tmp / f"f{seed}.txt"}
        files["a"].write_text(matrices.format_matrix(a), encoding="utf-8")
        files["f"].write_text(matrices.format_matrix(f), encoding="utf-8")
        for t in ("0.01", "0.1"):
            for order in ("1", "2", "schur", "schur-simple"):
                runner.cli(
                    f"predict/{order}/t{t}/{tag}",
                    "predict", "--order", order,
                    "--a", str(files["a"]), "--e", str(files["f"]), "--t", t,
                )
        runner.cli(f"derivative/{tag}", "derivative", "--a", str(files["a"]), "--f", str(files["f"]))
        records(tag, a, f)
    seed, spec = SMALL[0]
    tag = f"seed{seed}/{','.join(map(str, spec))}"
    for order in ("2", "schur"):
        runner.cli(
            f"predict/{order}/t{REFUSED_T}/{tag}",
            "predict", "--order", order,
            "--a", str(tmp / f"a{seed}.txt"), "--e", str(tmp / f"f{seed}.txt"), "--t", REFUSED_T,
            expect=3,
        )
    runner.cli(
        f"predict/2/t{OVERFLOW_T}/{tag}",
        "predict", "--order", "2",
        "--a", str(tmp / f"a{seed}.txt"), "--e", str(tmp / f"f{seed}.txt"), "--t", OVERFLOW_T,
        expect=2,
    )
    seed, spec = OVERFLOW_ZERO_E
    a, _ = _instance(seed, spec)
    (tmp / "overflow_a.txt").write_text(matrices.format_matrix(a), encoding="utf-8")
    (tmp / "zero_e.txt").write_text(matrices.format_matrix(np.zeros_like(a)), encoding="utf-8")
    runner.cli(
        f"predict/2/t{OVERFLOW_T}/seed{seed}/{','.join(map(str, spec))}/zero_e",
        "predict", "--order", "2",
        "--a", str(tmp / "overflow_a.txt"), "--e", str(tmp / "zero_e.txt"), "--t", OVERFLOW_T,
        expect=2,
    )
    # E = 0 on the double eigenvalues of the first small instance: every
    # second-order term is 0, and order 2 answers with the base.
    seed, spec = SMALL[0]
    tag = f"seed{seed}/{','.join(map(str, spec))}/zero_e"
    a = tmp / f"a{seed}.txt"
    zero = tmp / f"zero{seed}.txt"
    zero.write_text(matrices.format_matrix(np.zeros((sum(spec),) * 2)), encoding="utf-8")
    runner.cli(f"predict/2/t0.01/{tag}", "predict", "--order", "2", "--a", str(a), "--e", str(zero), "--t", "0.01")
    runner.cli(f"derivative/{tag}", "derivative", "--a", str(a), "--f", str(zero))


def records(tag: str, a: np.ndarray, f: np.ndarray) -> None:
    """The bytes of the library's result records on one instance."""
    expansion = rayleigh.line_expansion(a, f)
    ap = expansion.ap
    mmat = alignment.m_matrix(ap.base, ap.blocks)
    _record(f"e_hat_off/{tag}", ap.e_hat_diag, ap.e_hat_off)
    _record(f"gershgorin_intervals/{tag}", first_order.gershgorin_intervals(ap))
    for t in (0.01, -0.1):
        prediction = rayleigh.predict_eigensystem(ap, mmat, t)
        _record(f"predict_eigensystem/t{t}/{tag}", prediction.xi_hat, prediction.u_hat)
        prediction = expansion.at(t)
        _record(f"LineExpansion.at/t{t}/{tag}", prediction.xi_hat, prediction.u_hat)
    e = alignment.scaled(ap, 0.1)
    _record(f"vc_membership/{tag}", schur.vc_membership(e, 0.01, 0.1))
    for g in range(len(ap.blocks.groups)):
        sd = schur.schur_data(e, g)
        _record(
            f"schur_data/block{g}/{tag}",
            sd.block_index, sd.rho, sd.l, sd.m, sd.b, sd.c, sd.d,
            sd.lambda_tau, sd.beta,
        )
        diag = schur.schur_similarity_diagnostic(e, g)
        _record(
            f"schur_similarity_diagnostic/block{g}/{tag}",
            diag.transformed, diag.q2_norm, diag.q3_norm,
        )


def scaled_directions() -> None:
    """``n_matrix`` and ``eigenvector_derivative`` of each small instance
    with ``F`` scaled by each power of two of ``DIRECTION_EXPONENTS``."""
    for seed, spec in SMALL:
        a, f = _instance(seed, spec)
        for k in DIRECTION_EXPONENTS:
            ap = alignment.aligned_perturbation(a, 2.0**k * f)
            tag = f"2^{k}/seed{seed}/{','.join(map(str, spec))}"
            _record(f"n_matrix/{tag}", rayleigh.n_matrix(ap))
            _record(f"eigenvector_derivative/{tag}", rayleigh.eigenvector_derivative(ap, ap.data.m))


def oracle() -> None:
    """The oracle's own outputs on the seeded stacks of ``ORACLE_STACK``, one
    stack per size: ``eigh`` on each member, the eigenvalue-only solve, and
    the array entry ``_solve_stack`` with and without eigenvectors on the
    stack of the members, each symmetrized as ``eigh`` symmetrizes it.  The
    lines keep the names ``oracle/eigh_stack`` and ``oracle/_eigvalsh_stack`` of older
    trees, whose stacked solves gave each member the bits of ``eigh``, so
    that their hashes compare."""
    for n, count, spec in ORACLE_STACK:
        cfg = harness.EnsembleConfig(seed=7, n=n, block_spec=spec, trials=count // 2, predictor="first_order")
        pairs = zip(*harness._draws(cfg, range(count // 2))[:2])
        members = [h * 2.0 ** ORACLE_EXPONENTS[j % 5] for j, h in enumerate(m for pair in pairs for m in pair)]
        stack = np.stack([matrices.hermitian(h) for h in members])
        u, lam, sweeps, off = jacobi._solve_stack(stack)
        values = jacobi._solve_stack(stack, vectors=False)
        _record(f"oracle/eigh_stack/n{n}", *((d.lam, d.u, d.sweeps, d.off_mass) for d in map(jacobi.eigh, members)))
        _record(f"oracle/_eigvalsh_stack/n{n}", *values)
        _record(f"oracle/solve_stack/n{n}", u, lam, sweeps, off, values)


def structured() -> None:
    """The array entry, with and without eigenvectors, on seeded stacks with
    exact zeros: the real parts of 6 x 6 instances (real symmetric, so the
    eigenvectors carry zero imaginary parts of either sign); the two
    matrices of a 60 x 60 instance zeroed off the blocks of
    ``STRUCTURED_SPEC``; and 6 x 6 members that stop after 0 sweeps
    (diagonal, with ties), 1 sweep (zero off the diagonal except at the
    first step's pivot pairs) and several."""
    cfg = harness.EnsembleConfig(seed=11, n=6, block_spec=(2, 2, 1, 1), trials=5, predictor="first_order")
    a, f, _ = harness._draws(cfg, range(5))
    stacks = {"real_symmetric/n6": np.concatenate([a, f]).real}
    cfg = harness.EnsembleConfig(seed=11, n=60, block_spec=STRUCTURED_SPEC, trials=1, predictor="first_order")
    label = np.repeat(np.arange(len(STRUCTURED_SPEC)), STRUCTURED_SPEC)
    stacks["block_diagonal/n60"] = np.concatenate(harness._draws(cfg, range(1))[:2]) * (label[:, None] == label)
    diagonal = np.diagonal(f, axis1=1, axis2=2)
    tied = diagonal[:, [0, 0, 2, 2, 2, 5]][:, :, None] * np.eye(6)
    pivots = np.eye(6) + np.eye(6, k=3) + np.eye(6, k=-3)
    kinds = (tied, f * pivots, f, a)
    stacks["mixed_sweeps/n6"] = np.stack([kind[j] for j in range(3) for kind in kinds])
    for name, stack in stacks.items():
        stack = np.stack([matrices.hermitian(h) for h in stack])
        u, lam, sweeps, off = jacobi._solve_stack(stack)
        _record(f"oracle/structured/{name}", u, lam, sweeps, off, jacobi._solve_stack(stack, vectors=False))


def hermitians() -> None:
    """``hermitian`` on seeded members, each alone: members of 6 x 6
    instances whose largest entry modulus is scaled into ``[2**1022,
    2**1023)`` (the asymmetry is checked on ``m / 4``) and into ``[2**1023,
    2**1024)`` (``m + m^H`` overflows, so ``m / 2 + m^H / 2`` is taken);
    members whose entries are all subnormal, one entry raised by the least
    subnormal so that the average rounds; and members at several scales
    with an asymmetry of 0.9 of the tolerance in one entry."""
    cfg = harness.EnsembleConfig(seed=12, n=6, block_spec=(2, 2, 1, 1), trials=5, predictor="first_order")
    members = [m for pair in zip(*harness._draws(cfg, range(5))[:2]) for m in pair]

    def at(m: np.ndarray, exponent: int) -> np.ndarray:
        """``m`` scaled by a power of two to largest entry modulus in ``[2**(exponent - 1), 2**exponent)``."""
        return matrices._ldexp(m, exponent - int(np.frexp(np.abs(m).max())[1]))

    big = [at(m, 1023 + j % 2) for j, m in enumerate(members)]
    small = [at(m, -1030) for m in members]
    for m in small[1::2]:
        m[0, -1] += 5e-324
    near = [at(m, (0, -1000, 990, -300, 1024)[j % 5]) for j, m in enumerate(members)]
    for m in near:
        m[0, -1] += 0.9 * matrices.DEFAULT_ASYMMETRY_TOL * np.abs(m).max()
    for name, ms in (("overflow", big), ("subnormal", small), ("near_tolerance", near)):
        _record(f"matrices/hermitian/{name}", *map(matrices.hermitian, ms))


def norms() -> None:
    """``operator_norms`` on one seeded stack per shape of ``NORM_SHAPES``:
    the leading ``r x c`` corners of generated instances, each scaled by a
    power of two, with one zero member among them."""
    for rows, cols in NORM_SHAPES:
        n = max(rows, cols)
        cfg = harness.EnsembleConfig(seed=10, n=n, block_spec=(1,) * n, trials=5, predictor="first_order")
        pairs = zip(*harness._draws(cfg, range(5))[:2])
        members = [h[:rows, :cols] * 2.0 ** ORACLE_EXPONENTS[j % 5] for j, h in enumerate(m for pair in pairs for m in pair)]
        members.insert(3, np.zeros((rows, cols)))
        _record(f"matrices/operator_norms/{rows}x{cols}", matrices.operator_norms(members))


def parse_refusals() -> None:
    """The message, line and column of each refusal of ``PARSE_REFUSALS``."""
    refusals = []
    for text in PARSE_REFUSALS:
        try:
            matrices.parse_matrix(text)
        except matrices.MatrixParseError as exc:
            refusals.append((str(exc), exc.line, exc.column))
    _record("matrices/parse_refusals", refusals)


def lazy_norm_bounds() -> None:
    """``lower`` and ``upper`` of each member's ``||E||`` bounds on seeded
    stacks of sizes 1, 6 and 60, each member scaled by a power of two of
    ``NORM_BOUND_EXPONENTS``, with one zero member among them."""
    bounds = []
    for n in (1, 6, 60):
        cfg = harness.EnsembleConfig(seed=13, n=n, block_spec=(1,) * n, trials=7, predictor="first_order")
        stack = np.concatenate(harness._draws(cfg, range(7))[:2])
        stack = matrices._ldexp(stack, np.resize(NORM_BOUND_EXPONENTS, len(stack))[:, None, None])
        stack[3] = 0.0
        norm = alignment._lazy_norms(stack)
        bounds.extend(zip(norm.lower.tolist(), norm.upper.tolist()))
    _record("alignment/lazy_norm_bounds", bounds)


def study_stacks() -> None:
    """The stages of ``convergence_study`` on each seeded stack of
    ``STUDY_STACKS``, as the study makes them with ``harness._aligned``: the
    instances, the rotated ``U``, the warm base's ``lam``, the base-only
    data, the bounds of ``||E||``, ``E_hat``, both Schur variants'
    eigenvalues, complements and complement eigenvalues, and the norms of
    the first-order residuals.  Unit-stride columns of ``X`` in the 1 x 1
    complements move the lines at n = 9 and 20.  A second line per stack
    holds the warm exact stage on the default t-grid: ``U* (A + t F) U``
    with the rotated ``U``, the oracle's eigenvalues of it and its
    eigenvectors mapped back as ``U V``.  A third holds the warm base stage:
    ``Q* A Q`` with each trial's drawn ``Q``, the oracle's eigenvalues of it
    and its eigenvectors mapped back as ``Q V``."""
    for spec, count in STUDY_STACKS:
        cfg = harness.EnsembleConfig(seed=14, n=sum(spec), block_spec=spec, trials=count, predictor="first_order")
        a, f, q = harness._draws(cfg, range(count))
        groups, u, lam, reps, mmat, w, margins, norm, e_hat = harness._aligned(a, f, q)
        t = STUDY_STACK_T
        refined = schur._refined_stack(t * e_hat[:, None], w, reps, groups, ("full", "simplified"))
        gaps = first_order._residuals(u, lam, t * f, t * e_hat, mmat)
        tag = f"{','.join(map(str, spec))}/seed14/members{count}"
        stages = (u, lam, reps, mmat, w, margins, norm.lower, norm.upper, e_hat)
        _record(f"study_stack/warm/{tag}", a, f, *stages, refined, matrices.operator_norms(gaps))
        grid = np.array(harness.DEFAULT_T_GRID)[:, None, None]
        u_rep = np.repeat(u, grid.size, axis=0)
        warm = alignment._conjugate(u_rep, (a[:, None] + grid * f[:, None]).reshape(-1, *a.shape[1:]))
        v, warm_lam = jacobi._solve_stack(warm)[:2]
        _record(f"study_stack/warm/{tag}/warm_exact", warm, warm_lam, u_rep @ v)
        base = alignment._conjugate(q, a)
        v, base_lam = jacobi._solve_stack(base)[:2]
        _record(f"study_stack/{tag}/warm_base", base, base_lam, q @ v)


def iterates() -> None:
    """``schur._iterate`` on each seeded stack of ``ITERATE_STACKS``, its
    inputs row-major and column-major: on the whole ``E_hat`` of the study's
    stages (``harness._aligned``), as the refinement runs it, and on the
    first block's columns of ``W`` and ``E_hat``, as ``schur_data`` does;
    then the message, member and off mass of the whole stack's run capped
    at ``ITERATE_CAP`` passes."""
    for spec, count in ITERATE_STACKS:
        cfg = harness.EnsembleConfig(seed=15, n=sum(spec), block_spec=spec, trials=count, predictor="first_order")
        groups, _, _, _, _, w, _, _, e_hat = harness._aligned(*harness._draws(cfg, range(count)))
        e_hat = e_hat * np.resize(ITERATE_T, count)[:, None, None]
        name = f"schur/iterate/warm/{','.join(map(str, spec))}/seed15/members{count}"
        stop = groups[0][1]
        for layout in ("C", "F"):
            e, ws = np.asarray(e_hat, order=layout), np.asarray(w, order=layout)
            cols, w_cols = e[:, :, :stop], ws[:, :, :stop]
            whole = schur._iterate(e, ws, slice(None), ws * e)
            _record(f"{name}/{layout}", whole, schur._iterate(e, w_cols, slice(None, stop), w_cols * cols))
        default = schur.MAX_ITERATIONS
        schur.MAX_ITERATIONS = ITERATE_CAP
        try:
            capped = schur._iterate(e_hat, w, slice(None), w * e_hat)
        except ConvergenceError as exc:
            capped = (str(exc), exc.member, exc.off_mass)
        finally:
            schur.MAX_ITERATIONS = default
        _record(f"{name}/capped{ITERATE_CAP}", capped)


def column_matches() -> None:
    """``align_columns`` on the members of ``ALIGN_STACK``, one line per size."""
    for n, count, spec in ALIGN_STACK:
        cfg = harness.EnsembleConfig(seed=8, n=n, block_spec=spec, trials=count, predictor="first_order")
        matched = []
        for j, (a, f, _) in enumerate(zip(*harness._draws(cfg, range(count)))):
            ap = alignment.blockwise_diagonalize(alignment.conjugate_to_eigenbasis(jacobi.eigh(a), f))
            candidate = jacobi.eigh(a + ALIGN_T * f).u * 2.0 ** ORACLE_EXPONENTS[j % 5]
            if j % 2:
                candidate = np.ascontiguousarray(candidate)
            matched.append(alignment.align_columns(candidate, ap.base.u, ap.blocks))
        _record(f"alignment/align_columns/n{n}", *matched)


def _prediction(base: jacobi.SpectralDecomposition, e: np.ndarray) -> tuple:
    """Every output of a full prediction of ``A + E`` from the stored
    decomposition ``base`` of ``A``."""
    ap = alignment.blockwise_diagonalize(alignment.conjugate_to_eigenbasis(base, matrices.hermitian(e)))
    mmat = alignment.m_matrix(ap.base, ap.blocks)
    return (
        first_order.first_order_eigenvalues(ap),
        first_order.u_approx(ap, mmat),
        schur.refined_eigenvalues(ap, "full"),
        schur.refined_eigenvalues(ap, "simplified"),
        rayleigh.rs_coefficients(ap),
        rayleigh.eigenvector_derivative(ap, mmat),
    )


def large_instances() -> None:
    """Full predictions of ``A + t F`` at n = 60 from the stored
    decomposition of ``A``: each instance's t in turn, then the two
    instances' predictions alternating, so that consecutive calls switch
    between the two stored bases, then a layout of mixed block sizes."""
    stored = {}
    for seed in LARGE_SEEDS:
        a, f = _instance(seed, LARGE_SPEC)
        stored[seed] = jacobi.eigh(a), f
        for t in LARGE_T:
            _record(f"predict_n60/seed{seed}/t{t}", *_prediction(stored[seed][0], t * f))
    for t in LARGE_T:
        for seed in LARGE_SEEDS:
            base, f = stored[seed]
            _record(f"predict_n60/alternating/seed{seed}/t{t}", *_prediction(base, t * f))
    blocks = ",".join(map(str, LARGE_MIXED_SPEC))
    for seed in LARGE_SEEDS:
        a, f = _instance(seed, LARGE_MIXED_SPEC)
        base = jacobi.eigh(a)
        for t in LARGE_T:
            _record(f"predict_n60/{blocks}/seed{seed}/t{t}", *_prediction(base, t * f))


def schedules() -> None:
    """The oracle's sweep order at sizes 1 to 13 and 60: the index order of
    each step of one sweep from the identity, each next one the last one
    moved by its step's gather (the last back to the identity), so that a
    change to the order shows as its own line."""
    for n in (*range(1, 14), 60):
        order, orders = np.arange(n), []
        for move in jacobi._moves(n):
            order = order[move[:n] % n]
            orders.append(order)
        _record(f"oracle/schedule/n{n}", orders)


def main() -> int:
    runner = Runner()
    instances()
    studies(runner)
    runner.cli("paper-example", "paper-example")
    with tempfile.TemporaryDirectory() as tmp:
        small_instances(runner, Path(tmp))
    large_instances()
    oracle()
    structured()
    hermitians()
    norms()
    parse_refusals()
    lazy_norm_bounds()
    for demo in sorted((ROOT / "demos").glob("*.py")):
        runner.run(f"demo/{demo.name}", [sys.executable, str(demo)])
    column_matches()
    scaled_directions()
    study_stacks()
    iterates()
    schedules()
    return 1 if runner.failed else 0


if __name__ == "__main__":
    sys.exit(main())
