"""Command line front end.

Exit codes: 0 success, 1 study or regression failure, 2 usage or parse
error, 3 numerical precondition failure (gap too small, tied diagonals).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import alignment, harness, jacobi, matrices, rayleigh, schur
from .errors import (
    ConvergenceError,
    MatrixParseError,
    PreconditionError,
    StudyError,
)
from .first_order import first_order_eigenvalues

__all__ = ["main"]


def _print_values(values) -> None:
    for v in values:
        sys.stdout.write(f"{float(v):.17g}\n")


def _read_hermitian(path: str) -> np.ndarray:
    return matrices.parse_hermitian(Path(path).read_text(encoding="utf-8"))


def _cmd_eigh(args: argparse.Namespace) -> int:
    d = jacobi.eigh(_read_hermitian(args.matrix_file))
    _print_values(d.lam)
    sys.stdout.write(matrices.format_matrix(d.u))
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    a = _read_hermitian(args.a)
    e = _read_hermitian(args.e)
    if args.order == "2":
        expansion = rayleigh.line_expansion(a, e)
        prediction = expansion.at(args.t)
        _print_values(prediction.xi_hat)
        sys.stdout.write(matrices.format_matrix(prediction.u_hat))
        return 0
    # Remaining orders predict for the fixed perturbation t * E.
    ap = alignment.aligned_perturbation(a, args.t * e)
    if args.order == "1":
        xi = first_order_eigenvalues(ap)
    else:
        variant = "full" if args.order == "schur" else "simplified"
        xi = schur.refined_eigenvalues(ap, variant=variant)
    _print_values(xi)
    return 0


def _cmd_derivative(args: argparse.Namespace) -> int:
    # Not the line expansion: its a2 may overflow where N and U'(0) do not.
    ap = alignment.aligned_perturbation(_read_hermitian(args.a), _read_hermitian(args.f))
    sys.stdout.write(matrices.format_matrix(rayleigh.n_matrix(ap)))
    sys.stdout.write("\n")
    sys.stdout.write(matrices.format_matrix(ap.data.m * ap.e_hat))
    sys.stdout.write("\n")
    sys.stdout.write(matrices.format_matrix(rayleigh.eigenvector_derivative(ap, ap.data.m)))
    return 0


def _cmd_converge(args: argparse.Namespace) -> int:
    block_spec = tuple(int(part) for part in args.blocks.split(","))
    if args.tgrid is not None:
        t_grid = tuple(float(part) for part in args.tgrid.split(","))
    else:
        t_grid = harness.DEFAULT_T_GRID
    cfg = harness.EnsembleConfig(
        seed=args.seed,
        n=args.n,
        block_spec=block_spec,
        trials=args.trials,
        predictor=args.predictor,
        t_grid=t_grid,
    )
    sys.stdout.write(harness.report_to_csv(harness.convergence_study(cfg)))
    return 0


def _cmd_paper_example(args: argparse.Namespace) -> int:
    report = harness.paper_example_regression()
    for clause in report.clauses:
        status = "PASS" if clause.passed else "FAIL"
        sys.stdout.write(f"{status} {clause.name}: {clause.detail}\n")
    return 0 if report.passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigpert",
        description="Eigenvalue perturbation predictions checked against a "
        "self-contained Jacobi eigensolver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eigh", help="eigendecompose a Hermitian matrix file")
    p.add_argument("matrix_file", help="matrix in the package text format")
    p.set_defaults(func=_cmd_eigh)

    p = sub.add_parser("predict", help="predict eigenvalues of A + t E")
    p.add_argument("--order", required=True, choices=("1", "2", "schur", "schur-simple"))
    p.add_argument("--a", required=True, help="base matrix file")
    p.add_argument("--e", required=True, help="perturbation matrix file")
    p.add_argument("--t", type=float, default=1.0, help="scale applied to E (default 1)")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser(
        "derivative",
        help="print N, the inverse-gap term M*F_hat, and U'(0) for A + t F",
    )
    p.add_argument("--a", required=True, help="base matrix file")
    p.add_argument("--f", required=True, help="direction matrix file")
    p.set_defaults(func=_cmd_derivative)

    p = sub.add_parser("converge", help="convergence-order study, CSV to stdout")
    p.add_argument("--predictor", required=True, choices=harness.PREDICTORS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--blocks", required=True, help="comma-separated multiplicities")
    p.add_argument("--trials", required=True, type=int)
    p.add_argument("--tgrid", help="comma-separated decreasing t values")
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("paper-example", help="run the built-in worked-example regression")
    p.set_defaults(func=_cmd_paper_example)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    try:
        return args.func(args)
    except MatrixParseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except PreconditionError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (StudyError, ConvergenceError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
