"""Workloads of the eigpert benchmark.

Each workload builds its inputs from the seed in ``setup`` and hands out its
operations in cycles.  An operation's ``run`` is the timed call into the
package; its ``check`` compares the output with an independent reference
(LAPACK through ``numpy.linalg``, or the in-process library result for the
command line) outside the timed region and raises ``CheckFailed``.

All four are closed loops with one client: the next operation starts when
the previous one and its check are done.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

import eigpert
import eigpert.cli
import speed

# Size of the perturbation t F along each unit-norm direction F.
T = 0.05

N60_SPEC = (4,) * 15
N6_SPEC = (2, 2, 1, 1)
STUDY_TRIALS = 20

# Acceptance slope gates per predictor; None means the study only has to
# finish without a StudyError.
STUDY_GATES = {
    "first_order": 1.9,
    "schur_full": 2.7,
    "schur_simplified": 2.7,
    "rs_second_order": 2.7,
    "eigvec_first_order": 1.8,
    "u_ap_residual": None,
}


class CheckFailed(Exception):
    """An output disagreed with its reference."""


@dataclass(frozen=True)
class Op:
    run: Callable[[], Any]
    check: Callable[[Any], None]
    fingerprint: Callable[[Any], str]
    work: int = 1
    info: Callable[[Any], dict] | None = None
    # Speed probe bracketing the timed call, and its time at reference speed.
    probe: Callable[[], float] = speed.probe
    probe_reference_s: float = speed.REFERENCE_S


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


# ---- inputs ----


def groups_of(spec) -> tuple[tuple[int, int], ...]:
    bounds = np.cumsum((0,) + tuple(spec))
    return tuple((int(s), int(e)) for s, e in zip(bounds[:-1], bounds[1:]))


def generate(seed: int, spec) -> tuple[np.ndarray, np.ndarray]:
    cfg = eigpert.EnsembleConfig(
        seed=seed, n=sum(spec), block_spec=spec, trials=1, predictor="first_order"
    )
    return eigpert.generate_instance(cfg, 0)


def direction(seed: int, index: int, n: int) -> np.ndarray:
    """Exactly Hermitian perturbation ``t F`` with ``||F|| = 1``, drawn from
    the benchmark's own generator for operation ``index``."""
    rng = np.random.default_rng([seed % 2**64, index])
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = 0.5 * (g + g.conj().T)
    return (T / np.linalg.norm(h, 2)) * h


@dataclass
class Instance:
    """A base matrix with its package decomposition and LAPACK reference."""

    a: np.ndarray
    base: Any
    groups: tuple[tuple[int, int], ...]
    ref_lam: np.ndarray | None = None
    ref_u: np.ndarray | None = None


def build_instance(seed: int, spec) -> Instance:
    a, _ = generate(seed, spec)
    return Instance(a=a, base=eigpert.eigh(a), groups=groups_of(spec))


def verify_instance(inst: Instance) -> None:
    lam, u = np.linalg.eigh(inst.a)
    inst.ref_lam, inst.ref_u = lam[::-1], u[:, ::-1]
    check_eigh(inst.base, inst.ref_lam)


# ---- checks ----


def check_eigh(d, ref_lam: np.ndarray) -> None:
    """Eigenvalues within ``1e-12 n scale`` of LAPACK's."""
    n = ref_lam.size
    scale = max(1.0, float(np.abs(ref_lam).max()))
    err = float(np.abs(d.lam - ref_lam).max())
    if not err <= 1e-12 * n * scale:
        raise CheckFailed(f"eigh eigenvalues off LAPACK by {err:.3e} (n={n})")


class Prediction(NamedTuple):
    first_order: np.ndarray
    u_approx: np.ndarray
    schur_full: np.ndarray
    schur_simplified: np.ndarray
    rs_coefficients: tuple
    u_prime: np.ndarray

    def arrays(self):
        return (*self[:4], *self.rs_coefficients, self.u_prime)


def predict(base, e: np.ndarray) -> Prediction:
    """The full prediction for ``A + E`` from the stored base decomposition."""
    ap = eigpert.blockwise_diagonalize(eigpert.conjugate_to_eigenbasis(base, e))
    mmat = eigpert.m_matrix(ap.base, ap.blocks)
    return Prediction(
        first_order=eigpert.first_order_eigenvalues(ap),
        u_approx=eigpert.u_approx(ap, mmat),
        schur_full=eigpert.refined_eigenvalues(ap, variant="full"),
        schur_simplified=eigpert.refined_eigenvalues(ap, variant="simplified"),
        rs_coefficients=eigpert.rs_coefficients(ap),
        u_prime=eigpert.eigenvector_derivative(ap, mmat),
    )


def check_prediction(inst: Instance, e: np.ndarray, p: Prediction) -> None:
    """First order within ``3 ||E||^2`` and full Schur within the acceptance
    bound ``10 ||B|| ||C||^2`` per block, against LAPACK eigenvalues of
    ``A + E``.  ``B`` and ``C`` are formed here from LAPACK's eigenbasis;
    both norms are invariant under the in-block rotations that separate it
    from the package's basis."""
    if not all(np.isfinite(x).all() for x in p.arrays()):
        raise CheckFailed("prediction has non-finite entries")
    exact = np.linalg.eigvalsh(inst.a + e)[::-1]
    e_norm = float(np.linalg.norm(e, 2))
    err = float(np.abs(p.first_order - exact).max())
    if not err <= 3.0 * e_norm**2:
        raise CheckFailed(f"first-order error {err:.3e} exceeds 3||E||^2 = {3 * e_norm**2:.3e}")
    lam, u = inst.ref_lam, inst.ref_u
    e_hat = u.conj().T @ e @ u
    n = lam.size
    for start, stop in inst.groups:
        rest = np.r_[0:start, stop:n]
        rho = lam[start:stop].mean()
        c = e_hat[start:stop, rest]
        k = np.diag(lam[rest] - rho) + e_hat[np.ix_(rest, rest)]
        b = e_hat[start:stop, start:stop] - c @ np.linalg.solve(k, c.conj().T)
        bound = 10.0 * np.linalg.norm(b, 2) * np.linalg.norm(c, 2) ** 2
        err = float(np.abs(p.schur_full[start:stop] - exact[start:stop]).max())
        if not err <= bound:
            raise CheckFailed(
                f"Schur error {err:.3e} in block [{start}, {stop}) exceeds "
                f"10||B||||C||^2 = {bound:.3e}"
            )


def prediction_op(inst: Instance, seed: int, index: int) -> Op:
    e = direction(seed, index, inst.a.shape[0])
    return Op(
        run=lambda: predict(inst.base, e),
        check=lambda p: check_prediction(inst, e, p),
        fingerprint=lambda p: digest(*p.arrays()),
    )


def rediag_op(inst: Instance, seed: int, index: int) -> Op:
    h = inst.a + direction(seed, index, inst.a.shape[0])
    return Op(
        run=lambda: eigpert.eigh(h),
        check=lambda d: check_eigh(d, np.linalg.eigvalsh(h)[::-1]),
        fingerprint=lambda d: digest(d.lam, d.u),
    )


# ---- workloads ----


class Workload:
    """Inputs from a seed, operations in cycles, names for the report.

    ``aliases`` maps each generic end-to-end metric to the name, scale and
    unit under which the report also prints it for this workload.
    """

    name: str
    setup_reps: int
    ops_per_cycle: int
    aliases: dict[str, tuple[str, float, str]]

    def setup(self, seed: int, out_dir: Path):
        raise NotImplementedError

    def verify_setup(self, state) -> None:
        """LAPACK checks of the set-up, outside the timed set-up."""

    def cycle(self, state, index: int) -> list[Op]:
        raise NotImplementedError

    def trace_cycle(self, state, index: int) -> list[Op]:
        return self.cycle(state, index)


@dataclass
class ReuseState:
    seed: int
    inst: Instance


class PredictN60(Workload):
    """The paper's use case: predict ``A + tF`` from a stored decomposition."""

    name = "predict_n60"
    setup_reps = 3
    ops_per_cycle = 1
    aliases = {
        "op_ms_p50": ("predict_ms_p50", 1.0, "ms"),
        "op_ms_tail": ("predict_ms_tail", 1.0, "ms"),
        "work_per_s": ("predictions_per_s", 1.0, "1/s"),
    }

    def setup(self, seed, out_dir):
        return ReuseState(seed=seed, inst=build_instance(seed, N60_SPEC))

    def verify_setup(self, state):
        verify_instance(state.inst)

    def cycle(self, state, index):
        return [prediction_op(state.inst, state.seed, index)]


class RediagN60(PredictN60):
    """The same ``A + tF`` sequence re-diagonalized with ``eigpert.eigh``."""

    name = "rediag_n60"
    aliases = {
        "op_ms_p50": ("rediag_ms_p50", 1.0, "ms"),
        "op_ms_tail": ("rediag_ms_tail", 1.0, "ms"),
        "work_per_s": ("rediag_per_s", 1.0, "1/s"),
    }

    def cycle(self, state, index):
        return [rediag_op(state.inst, state.seed, index)]


@dataclass
class StudiesState:
    configs: list
    instances: list


class StudiesN6(Workload):
    """The six acceptance convergence studies, one operation per study."""

    name = "studies_n6"
    setup_reps = 3
    ops_per_cycle = len(STUDY_GATES)
    aliases = {
        "op_ms_p50": ("study_s_p50", 1e-3, "s"),
        "op_ms_tail": ("study_s_tail", 1e-3, "s"),
        "work_per_s": ("study_trials_per_s", 1.0, "1/s"),
    }

    def setup(self, seed, out_dir):
        configs = [
            eigpert.EnsembleConfig(
                seed=seed, n=sum(N6_SPEC), block_spec=N6_SPEC, trials=STUDY_TRIALS, predictor=p
            )
            for p in STUDY_GATES
        ]
        # Every study draws the same trial instances; build them once to
        # check the ensemble against LAPACK.
        instances = [eigpert.generate_instance(configs[0], k) for k in range(STUDY_TRIALS)]
        return StudiesState(configs=configs, instances=instances)

    def verify_setup(self, state):
        for trial, (a, f) in enumerate(state.instances):
            lam = np.linalg.eigvalsh(a)[::-1]
            scale = max(1.0, float(np.abs(lam).max()))
            for start, stop in groups_of(N6_SPEC):
                if lam[start] - lam[stop - 1] > 1e-10 * scale:
                    raise CheckFailed(f"trial {trial}: block [{start}, {stop}) is not degenerate")
                if stop < lam.size and lam[stop - 1] - lam[stop] < 1.0 - 1e-10 * scale:
                    raise CheckFailed(f"trial {trial}: blocks closer than 1 at index {stop}")
            if abs(np.linalg.norm(f, 2) - 1.0) > 1e-12:
                raise CheckFailed(f"trial {trial}: direction is not unit-norm")

    def cycle(self, state, index):
        return [study_op(cfg) for cfg in state.configs]


def study_op(cfg) -> Op:
    gate = STUDY_GATES[cfg.predictor]

    def check(report):
        if report.failed_trials:
            raise CheckFailed(f"{cfg.predictor}: failed trials {report.failed_trials}")
        if gate is not None and not report.slope >= gate:
            raise CheckFailed(f"{cfg.predictor}: worst-trial slope {report.slope:.3f} < {gate}")

    def csv(report) -> bytes:
        return eigpert.report_to_csv(report).encode()

    return Op(
        run=lambda: eigpert.convergence_study(cfg),
        check=check,
        fingerprint=lambda report: digest(csv(report), repr(report.trial_slopes).encode()),
        work=cfg.trials,
        info=lambda report: {f"csv_sha256.{cfg.predictor}": digest(csv(report))},
    )


# ---- command line ----

# Time of the import probe at reference speed.
IMPORT_PROBE_REFERENCE_S = 0.185


def format_entry(z: complex) -> str:
    """Text-format entry that parses back to the same bits."""
    re_part, im_part = float(z.real), float(z.imag)
    if im_part == 0.0 and np.copysign(1.0, im_part) > 0.0:
        return repr(re_part)
    sign = "-" if np.copysign(1.0, im_part) < 0.0 else "+"
    return f"{re_part!r}{sign}{abs(im_part)!r}i"


def write_matrix(path: Path, m: np.ndarray) -> None:
    rows = [" ".join(format_entry(z) for z in row) for row in m]
    path.write_text("\n".join([str(m.shape[0])] + rows) + "\n", encoding="utf-8")


def parse_matrix(lines: list[str]) -> np.ndarray:
    dims = [int(x) for x in lines[0].split()]
    rows, cols = dims[0], dims[-1]
    body = [[complex(tok[:-1] + "j" if tok.endswith("i") else tok) for tok in ln.split()] for ln in lines[1:]]
    m = np.array(body, dtype=np.complex128)
    if m.shape != (rows, cols):
        raise CheckFailed(f"matrix body {m.shape} does not match header {(rows, cols)}")
    return m


@dataclass
class CliState:
    a: np.ndarray
    f: np.ndarray
    a_path: Path
    e_path: Path
    n: int
    schur: np.ndarray
    order2: Any
    regression: Any


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Cli(Workload):
    """``python -m eigpert`` as a subprocess, one call at a time."""

    name = "cli"
    setup_reps = 5
    ops_per_cycle = 3
    aliases = {
        "op_ms_p50": ("cli_ms_p50", 1.0, "ms"),
        "op_ms_tail": ("cli_ms_tail", 1.0, "ms"),
        "work_per_s": ("cli_calls_per_s", 1.0, "1/s"),
    }

    def __init__(self, root: Path) -> None:
        self.root = root
        self.env = cli_env(root)

    def setup(self, seed, out_dir):
        a, f = generate(seed, N6_SPEC)
        work = out_dir / f"cli-seed{seed}"
        work.mkdir(parents=True, exist_ok=True)
        state = CliState(
            a=a,
            f=f,
            a_path=work / "a.txt",
            e_path=work / "e.txt",
            n=a.shape[0],
            schur=eigpert.refined_eigenvalues(
                eigpert.aligned_perturbation(a, eigpert.hermitian(T * f)), variant="full"
            ),
            order2=eigpert.line_expansion(a, f).at(T),
            regression=eigpert.paper_example_regression(),
        )
        write_matrix(state.a_path, a)
        write_matrix(state.e_path, f)
        return state

    def verify_setup(self, state):
        for path, m in ((state.a_path, state.a), (state.e_path, state.f)):
            back = parse_matrix(path.read_text(encoding="utf-8").splitlines())
            if back.tobytes() != m.tobytes():
                raise CheckFailed(f"{path.name} does not parse back bit for bit")

    def commands(self, state) -> list[tuple[list[str], Callable[[str], None]]]:
        files = ["--a", str(state.a_path), "--e", str(state.e_path), "--t", repr(T)]
        n = state.n

        def schur(out):
            values = np.array([float(x) for x in out.splitlines()])
            if not np.array_equal(values, state.schur):
                raise CheckFailed("predict --order schur differs from the library result")

        def order2(out):
            lines = out.splitlines()
            xi = np.array([float(x) for x in lines[:n]])
            u_hat = parse_matrix(lines[n:])
            if not (np.array_equal(xi, state.order2.xi_hat) and np.array_equal(u_hat, state.order2.u_hat)):
                raise CheckFailed("predict --order 2 differs from the library result")

        def paper(out):
            parsed = [tuple(line.split(" ", 1)) for line in out.splitlines()]
            expected = [("PASS", f"{c.name}: {c.detail}") for c in state.regression.clauses]
            if parsed != expected:
                raise CheckFailed("paper-example output differs from the library regression")

        return [
            (["predict", "--order", "schur", *files], schur),
            (["predict", "--order", "2", *files], order2),
            (["paper-example"], paper),
        ]

    def _ops(self, state, call, probe=speed.probe, probe_reference_s=speed.REFERENCE_S) -> list[Op]:
        ops = []
        for argv, check_text in self.commands(state):

            def check(result, argv=argv, check_text=check_text):
                code, out = result
                if code != 0:
                    raise CheckFailed(f"eigpert {' '.join(argv)} exited with {code}")
                try:
                    check_text(out)
                except (ValueError, IndexError) as exc:
                    raise CheckFailed(f"eigpert {' '.join(argv)}: unparseable output: {exc}")

            ops.append(
                Op(
                    run=lambda argv=argv: call(argv),
                    check=check,
                    fingerprint=lambda result: digest(result[1].encode()),
                    probe=probe,
                    probe_reference_s=probe_reference_s,
                )
            )
        return ops

    def cycle(self, state, index):
        return self._ops(state, self._subprocess, self._import_probe, IMPORT_PROBE_REFERENCE_S)

    def trace_cycle(self, state, index):
        # Spans can only be recorded in this process, so the traced run
        # calls the entry point in-process on the same arguments.
        return self._ops(state, in_process)

    def _import_probe(self) -> float:
        """Seconds a fresh interpreter takes to import numpy.  A command-line
        call is mostly process start and imports, which contention slows
        differently from computation, so it is rescaled by this probe."""
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import numpy"], cwd=self.root, env=self.env, check=True, timeout=120
        )
        return time.perf_counter() - start

    def _subprocess(self, argv):
        done = subprocess.run(
            [sys.executable, "-m", "eigpert", *argv],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        return done.returncode, done.stdout


def in_process(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = eigpert.cli.main(argv)
    return code, buf.getvalue()


def import_ms(root: Path, reps: int) -> float:
    """Median time to import the command-line module in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import eigpert.cli; "
        "print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(reps):
        done = subprocess.run(
            [sys.executable, "-c", code],
            cwd=root,
            env=cli_env(root),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(done.stdout))
    return 1e3 * statistics.median(times)


def workloads(root: Path) -> dict[str, Workload]:
    return {w.name: w for w in (PredictN60(), RediagN60(), StudiesN6(), Cli(root))}


# Sizes at which the traced run reports prediction time over re-diagonalization
# time, with the repeats each median is taken over.
RATIO_SIZES = ((6, N6_SPEC, 21), (20, (4,) * 5, 7), (60, N60_SPEC, 3))


def ratio_ops(seed: int, spec) -> tuple[Op, Op]:
    """A prediction and the re-diagonalization it replaces, on one input."""
    inst = build_instance(seed, spec)
    verify_instance(inst)
    return prediction_op(inst, seed, 0), rediag_op(inst, seed, 0)
