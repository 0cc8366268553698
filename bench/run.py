"""Benchmark of eigpert: prediction against re-diagonalization at n=60, the
acceptance convergence studies at n=6, and command-line latency.

Usage, from the root of a checkout:

    python3 bench/run.py --workload predict_n60 --seed 1 --seconds 20 --trace 0

Workloads and metrics are listed in ``BENCHMARK.json``.  With ``--trace 0``
the run times operations untraced and reports the end-to-end metrics; with
``--trace 1`` it runs the same operations untraced and then traced, checks
that both give bit-identical outputs, and reports the per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object.  The exit code is 0 only when every output check passed.  A
report with the environment and every sample goes to ``bench/out/``.

Operation and set-up times are reported at reference speed (see
``speed.py``): each wall time is rescaled by a speed probe timed right
before and after it, because other tenants of a shared host change its
speed by up to a factor of two between runs.  The matching wall-clock
figures are printed alongside and kept in the report.
"""

import os

# Pin BLAS to one thread before numpy is imported: the Jacobi oracle is
# serial, and a threaded BLAS on small matrices only adds contention.
BLAS_PIN = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_PIN:
    os.environ[_var] = "1"

# Run this process and the interpreters it starts on one CPU, so the speed
# probe (speed.py) measures the contention the timed work meets.
CPU = min(os.sched_getaffinity(0))
os.sched_setaffinity(0, {CPU})

import argparse
import json
import math
import platform
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Fresh interpreters timed for the import cost of the command line.
IMPORT_REPS = 5

# A timed run stops after this multiple of --seconds of wall time even when a
# slow host has not yet spent --seconds at reference speed.
WALL_CAP = 1.5


def import_package():
    """Import eigpert from this checkout's sources, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import eigpert
    except ImportError as exc:
        sys.exit(f"error: cannot import eigpert from {SRC}: {exc}")
    if Path(eigpert.__file__).resolve().parent.parent != SRC:
        sys.exit(f"error: eigpert was imported from {eigpert.__file__}, not {SRC}")
    return eigpert


eigpert = import_package()
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

import spans  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


class Run:
    """Counts and failures of every operation a run executes.  ``failures``
    also holds failed set-up checks and trace mismatches, so ``correct``
    needs it empty while ``failed`` counts operations only."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.info: dict[str, str] = {}

    def fail(self, message: str) -> None:
        self.failures.append(message)
        sys.stderr.write(f"FAILED: {message}\n")

    def execute(self, op, tracer=None, op_index=-1):
        """Time ``op.run`` and check its output; return (wall seconds,
        reference seconds, fingerprint), or Nones if the operation raised."""
        self.attempted += 1
        if tracer is not None:
            tracer.op = op_index
            tracer.active = True
        try:
            out, wall, ref = speed.timed(op.run, op.probe, op.probe_reference_s)
        except Exception:
            self.failed += 1
            self.fail(traceback.format_exc())
            return None, None, None
        finally:
            if tracer is not None:
                tracer.active = False
        try:
            op.check(out)
        except workloads.CheckFailed as exc:
            self.failed += 1
            self.fail(str(exc))
        if op.info is not None:
            self.info.update(op.info(out))
        return wall, ref, op.fingerprint(out)


class Pass:
    """Latencies (reference and wall seconds), work and output fingerprints
    of a sequence of cycles."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.wall: list[float] = []
        self.work = 0
        self.fingerprints: list[str | None] = []
        self.cycles = 0


def run_cycles(run, cycle, state, first, *, seconds=None, cycles=None, min_cycles=1, tracer=None):
    """Run whole cycles from index ``first``: exactly ``cycles`` of them, or
    at least ``min_cycles`` and as many as end nearest to ``seconds`` at
    reference speed, and at most ``WALL_CAP`` times ``seconds`` of wall time.
    Whole cycles keep every operation kind equally weighted, and counting
    reference time keeps the number of cycles, and so the percentile the
    tail lands on, the same however fast the host runs."""
    result = Pass()
    spent = 0.0  # reference seconds, speed probes and checks included
    wall_spent = 0.0
    while True:
        if cycles is not None:
            if result.cycles == cycles:
                break
        elif result.cycles >= min_cycles and (
            spent + 0.5 * spent / result.cycles >= seconds or wall_spent >= WALL_CAP * seconds
        ):
            break
        start = time.perf_counter()
        ref, wall = 0.0, 0.0
        for op in cycle(state, first + result.cycles):
            op_wall, op_ref, fingerprint = run.execute(op, tracer, len(result.fingerprints))
            result.fingerprints.append(fingerprint)
            if op_ref is not None:
                result.samples.append(op_ref)
                result.wall.append(op_wall)
                result.work += op.work
                ref, wall = ref + op_ref, wall + op_wall
        elapsed = time.perf_counter() - start
        wall_spent += elapsed
        spent += elapsed * (ref / wall if wall else 1.0)
        result.cycles += 1
    return result


def warm_up(run, cycle, state) -> float:
    """Run and check the first operation of cycle 0 untimed, so lazy work in
    the process is done before timing; return the seconds it took with its
    speed probes and check."""
    start = time.perf_counter()
    run.execute(cycle(state, 0)[0])
    return time.perf_counter() - start


def setup(run, workload, seed, reps):
    times = []
    for _ in range(reps):
        state, _, ref = speed.timed(lambda: workload.setup(seed, OUT))
        times.append(ref)
    try:
        workload.verify_setup(state)
    except workloads.CheckFailed as exc:
        run.fail(f"set-up: {exc}")
    return state, times


def summarize(samples, work):
    """Median and tail in ms and work rate of latencies in seconds, and the
    tail's percentile.  Only failed operations leave too few samples for a
    tail; the largest sample stands in then."""
    if len(samples) > stats.TAIL_BEYOND:
        pct, tail_value = stats.tail(samples)
    else:
        pct, tail_value = 100.0, max(samples, default=0.0)
    return {
        "op_ms_p50": 1e3 * stats.median(samples) if samples else 0.0,
        "op_ms_tail": 1e3 * tail_value,
        "work_per_s": work / sum(samples) if samples else 0.0,
    }, pct


def end_to_end(run, workload, seed, seconds):
    """End-to-end metrics in reference time, the same in wall time, the
    sample count of each metric, the tail percentile and the raw samples."""
    state, setup_times = setup(run, workload, seed, workload.setup_reps)
    warm_up(run, workload.cycle, state)
    # Enough whole cycles for a tail percentile.
    min_cycles = math.ceil((stats.TAIL_BEYOND + 1) / workload.ops_per_cycle)
    measured = run_cycles(run, workload.cycle, state, 1, seconds=seconds, min_cycles=min_cycles)
    metrics, pct = summarize(measured.samples, measured.work)
    wall, _ = summarize(measured.wall, measured.work)
    metrics["setup_s"] = stats.median(setup_times)
    n = len(measured.samples)
    counts = {"op_ms_p50": n, "op_ms_tail": n, "work_per_s": n, "setup_s": len(setup_times)}
    return metrics, wall, counts, pct, {"reference_s": measured.samples, "wall_s": measured.wall}


def predict_over_rediag(run, seed):
    """Median prediction time over median re-diagonalization time per size,
    with the repeats behind each median."""
    out = {}
    for n, spec, reps in workloads.RATIO_SIZES:
        medians = []
        for op in workloads.ratio_ops(seed, spec):
            times = [run.execute(op)[1] for _ in range(reps)]
            medians.append(stats.median(times) if None not in times else 0.0)
        out[f"predict_over_rediag.n{n}"] = (medians[0] / medians[1] if medians[1] else 0.0, reps)
    return out


def per_layer(run, workload, seed, seconds, name):
    """Metric name -> value and sample count, from an untraced pass and a
    traced pass over the same operations, each about a quarter of
    ``seconds`` long."""
    state, _ = setup(run, workload, seed, 1)
    op_s = warm_up(run, workload.trace_cycle, state)
    cycles = max(1, round(0.25 * seconds / (op_s * workload.ops_per_cycle)))
    plain = run_cycles(run, workload.trace_cycle, state, 1, cycles=cycles)
    tracer = spans.Tracer()
    with tracer:
        traced = run_cycles(run, workload.trace_cycle, state, 1, cycles=cycles, tracer=tracer)
    if plain.fingerprints != traced.fingerprints:
        run.fail("traced outputs differ from untraced outputs")
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT / f"spans-{name}-seed{seed}.json.gz")

    n_ops = len(traced.fingerprints)
    calls, self_ns, eigh_calls, eigh_self_ns, eigh_by_size = spans.layer_totals(tracer.spans)
    metrics = {}
    counts = defaultdict(lambda: n_ops)
    for label in tracer.labels:
        metrics[f"{label}.calls"] = calls[label] / n_ops
        metrics[f"{label}.self_ms"] = 1e-6 * self_ns[label] / n_ops
    for caller in tracer.names | {spans.ROOT_CALLER}:
        metrics[f"jacobi.eigh.calls.by.{caller}"] = eigh_calls[caller] / n_ops
        metrics[f"jacobi.eigh.self_ms.by.{caller}"] = 1e-6 * eigh_self_ns[caller] / n_ops
    for size, durations in eigh_by_size.items():
        metrics[f"jacobi.eigh.ms_per_call.n{size}"] = 1e-6 * sum(durations) / len(durations)
        counts[f"jacobi.eigh.ms_per_call.n{size}"] = len(durations)
    metrics.setdefault("jacobi.eigh.ms_per_call.n60", 0.0)
    counts.setdefault("jacobi.eigh.ms_per_call.n60", 0)
    if isinstance(workload, workloads.Cli):
        metrics["cli.import_ms"] = workloads.import_ms(ROOT, IMPORT_REPS)
        counts["cli.import_ms"] = IMPORT_REPS
    else:
        metrics["cli.import_ms"] = 0.0
        counts["cli.import_ms"] = 0
    metrics["trace_overhead_frac"] = sum(traced.samples) / sum(plain.samples) - 1.0
    for name, (value, reps) in predict_over_rediag(run, seed).items():
        metrics[name] = value
        counts[name] = reps
    return metrics, counts


def environment() -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
        )
        commit = done.stdout.strip() or "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "pinned_cpu": CPU,
        "blas_pin": {var: os.environ[var] for var in BLAS_PIN},
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    all_workloads = workloads.workloads(ROOT)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(all_workloads))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    workload = all_workloads[args.workload]
    env = environment()
    run = Run()

    print(f"eigpert bench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))

    if args.trace:
        computed, counts = per_layer(run, workload, args.seed, args.seconds, args.workload)
        listed = spec["per_layer"]
        for m in listed:
            print(f"{m['name']:<58} {computed[m['name']]:.6g} {m['unit']} (n={counts[m['name']]})")
        counts, samples = dict(counts), {}
    else:
        computed, wall, counts, pct, samples = end_to_end(run, workload, args.seed, args.seconds)
        listed = spec["end_to_end"]
        for m in listed:
            name = m["name"]
            alias, scale, unit = workload.aliases.get(name, (name, 1.0, m["unit"]))
            where = f"p{pct:.4g}, " if name == "op_ms_tail" else ""
            raw = f"  wall {wall[name] * scale:.6g} {unit}" if name in wall else ""
            print(f"{alias:<22} {computed[name] * scale:.6g} {unit} ({where}n={counts[name]}){raw}  [{name}]")
    print(f"{'failed_frac':<22} {run.failed / max(run.attempted, 1):.6g} "
          f"({run.failed} of {run.attempted} operations)")
    for key, value in sorted(run.info.items()):
        print(f"{key} {value}")

    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in listed},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    report = dict(args=vars(args), environment=env, counts=counts, failures=run.failures,
                  info=run.info, all_metrics=computed, samples=samples, result=result)
    path = OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, default=str) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
