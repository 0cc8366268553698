"""Print a SHA-256 digest of every output a refactor must keep byte-identical.

Run it from any directory on two trees, say the parent commit and a change,
and diff the two outputs:

    python tools/digests.py > after.txt

Each line is ``name sha256``.  The outputs cover the ``eigpert converge``
CSVs of every predictor, ``paper-example``, ``predict`` and ``derivative``
on generated instances, the demos, full predictions at n = 60, the bytes
of the library's result records and the raw bytes of the generated instances
themselves, so that a change to the random streams shows as its own line.
The refusal paths are covered too: a ``predict`` whose ``t`` passes the gap
between eigenvalue blocks, and studies whose largest ``t`` does so for some
trials.  All inputs come from ``harness.generate_instance``.  A command's
digest covers its exit code and stdout.  The script exits 1 if any command
it runs exits otherwise than expected, or prints to stdout when it is
expected to fail.  Commands are expected to exit 0 except for the
single-block studies, where every prediction is exact to round-off, so the
fit finds no points above its noise floor and the study fails by design,
and for the refused ``predict``, which exits 3.  The other digests are
still printed.
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

ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

# (block_spec, seeds, trials, exit code) of the convergence studies, all at
# n = sum(block_spec).
STUDIES = (
    ((2, 2, 1, 1), (1, 11, 12, 13), 20, 0),
    ((3, 2, 1), (2,), 9, 0),
    ((1, 1, 1, 1), (2,), 9, 0),
    ((4,), (2,), 9, 1),
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

# A t past every gap of the first small instance: its gaps are below 2 and
# ||F|| = 1, so both the line expansion and the Schur refinement refuse.
REFUSED_T = "1"

# Seeds of the n = 60 instances, their layout, and the scales t of E = t F.
LARGE_SEEDS = (1, 2)
LARGE_SPEC = (4,) * 15
LARGE_T = (1e-3, 1e-2, 1e-1)


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
    ensembles.extend((LARGE_SPEC, seed, 1) for seed in LARGE_SEEDS)
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


def large_instances() -> None:
    """Every output of a full prediction of ``A + t F`` at n = 60 from the
    stored decomposition of ``A``."""
    for seed in LARGE_SEEDS:
        a, f = _instance(seed, LARGE_SPEC)
        base = jacobi.eigh(a)
        for t in LARGE_T:
            e = matrices.hermitian(t * f)
            ap = alignment.blockwise_diagonalize(alignment.conjugate_to_eigenbasis(base, e))
            mmat = alignment.m_matrix(ap.base, ap.blocks)
            _record(
                f"predict_n60/seed{seed}/t{t}",
                first_order.first_order_eigenvalues(ap),
                first_order.u_approx(ap, mmat),
                schur.refined_eigenvalues(ap, "full"),
                schur.refined_eigenvalues(ap, "simplified"),
                rayleigh.rs_coefficients(ap),
                rayleigh.eigenvector_derivative(ap, mmat),
            )


def main() -> int:
    runner = Runner()
    instances()
    studies(runner)
    runner.cli("paper-example", "paper-example")
    with tempfile.TemporaryDirectory() as tmp:
        small_instances(runner, Path(tmp))
    large_instances()
    for demo in sorted((ROOT / "demos").glob("*.py")):
        runner.run(f"demo/{demo.name}", [sys.executable, str(demo)])
    return 1 if runner.failed else 0


if __name__ == "__main__":
    sys.exit(main())
