import subprocess
import sys

import numpy as np
import pytest

from eigpert import (
    EnsembleConfig,
    aligned_perturbation,
    convergence_study,
    eigenvector_derivative,
    eigh,
    first_order_eigenvalues,
    format_matrix,
    generate_instance,
    hermitian,
    line_expansion,
    n_matrix,
    parse_matrix,
    refined_eigenvalues,
    report_to_csv,
)
from eigpert.cli import main

EXAMPLE_A3 = np.diag([0.0, 0.0, 1.0])
EXAMPLE_F3 = np.array([[1, 0, 1], [0, 0, 1], [1, 1, 0]], dtype=float)


def write_matrix(tmp_path, name, m):
    path = tmp_path / name
    path.write_text(format_matrix(np.asarray(m, dtype=complex)), encoding="utf-8")
    return str(path)


def split_values_and_matrix(text, n_values):
    lines = text.splitlines()
    values = np.array([float(s) for s in lines[:n_values]])
    matrix = parse_matrix("\n".join(lines[n_values:]) + "\n")
    return values, matrix


class TestEigh:
    def test_matches_library(self, tmp_path, capsys):
        a = [[2.0, 1.0], [1.0, 2.0]]
        path = write_matrix(tmp_path, "a.txt", a)
        assert main(["eigh", path]) == 0
        values, u = split_values_and_matrix(capsys.readouterr().out, 2)
        d = eigh(hermitian(a))
        assert np.abs(values - [3.0, 1.0]).max() <= 1e-12
        assert np.abs(u - d.u).max() <= 1e-15

    def test_missing_file(self, capsys):
        assert main(["eigh", "/nonexistent/a.txt"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1 2\n3\n", encoding="utf-8")
        assert main(["eigh", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_hermitian_file(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "nh.txt", [[0.0, 1.0], [0.0, 0.0]])
        assert main(["eigh", path]) == 2


class TestPredict:
    ORDERS = ["1", "2", "schur", "schur-simple"]
    A = np.diag([3.0, 1.0])
    E = np.array([[0.0, 0.1], [0.1, 0.0]])

    def run(self, tmp_path, capsys, order, t=None):
        a = write_matrix(tmp_path, "a.txt", self.A)
        e = write_matrix(tmp_path, "e.txt", self.E)
        argv = ["predict", "--order", order, "--a", a, "--e", e]
        if t is not None:
            argv += ["--t", str(t)]
        code = main(argv)
        return code, capsys.readouterr().out

    def test_order_one(self, tmp_path, capsys):
        code, out = self.run(tmp_path, capsys, "1")
        assert code == 0
        values = np.array([float(s) for s in out.splitlines()])
        ap = aligned_perturbation(self.A, hermitian(self.E))
        assert np.array_equal(values, first_order_eigenvalues(ap))

    def test_schur_variants(self, tmp_path, capsys):
        ap = aligned_perturbation(self.A, hermitian(self.E))
        for order, variant in (("schur", "full"), ("schur-simple", "simplified")):
            code, out = self.run(tmp_path, capsys, order)
            assert code == 0
            values = np.array([float(s) for s in out.splitlines()])
            assert np.array_equal(values, refined_eigenvalues(ap, variant))

    def test_order_two_prints_eigensystem(self, tmp_path, capsys):
        code, out = self.run(tmp_path, capsys, "2", t=0.01)
        assert code == 0
        values, u_hat = split_values_and_matrix(out, 2)
        pred = line_expansion(self.A, self.E).at(0.01)
        assert np.abs(values - pred.xi_hat).max() <= 1e-15
        assert np.abs(u_hat - pred.u_hat).max() <= 1e-15

    def test_scale_flag_applies_to_first_order(self, tmp_path, capsys):
        code, out = self.run(tmp_path, capsys, "1", t=0.5)
        assert code == 0
        values = np.array([float(s) for s in out.splitlines()])
        ap = aligned_perturbation(self.A, hermitian(0.5 * self.E))
        assert np.array_equal(values, first_order_eigenvalues(ap))

    def test_invalid_order(self, tmp_path, capsys):
        code, _ = self.run(tmp_path, capsys, "3")
        assert code == 2

    @pytest.mark.parametrize("a", [np.eye(2), A], ids=["one_block", "two_blocks"])
    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
    def test_non_finite_t_is_a_usage_error(self, tmp_path, capsys, a, order, t):
        a = write_matrix(tmp_path, "a.txt", a)
        e = write_matrix(tmp_path, "e.txt", self.E)
        assert main(["predict", "--order", order, "--a", a, "--e", e, f"--t={t}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"t must be finite, got {t}" in captured.err

    @pytest.mark.parametrize("order", ["1", "schur", "schur-simple"])
    def test_overflowing_t_e_is_a_usage_error(self, tmp_path, capsys, order):
        # Every entry of E is finite and so is t, but 1e308 * 0.1 * 20 is not.
        a = write_matrix(tmp_path, "a.txt", self.A)
        e = write_matrix(tmp_path, "e.txt", 20 * self.E)
        assert main(["predict", "--order", order, "--a", a, "--e", e, "--t", "1e308"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "t E overflows the floating-point range at t = 1e+308" in captured.err

    def test_gap_too_small_exit_code(self, tmp_path, capsys):
        a = write_matrix(tmp_path, "a.txt", np.diag([1.0, 0.0]))
        e = write_matrix(tmp_path, "e.txt", [[0.0, 3.0], [3.0, 0.0]])
        assert main(["predict", "--order", "schur", "--a", a, "--e", e]) == 3
        assert "error:" in capsys.readouterr().err


class TestDerivative:
    def test_blocks_match_library(self, tmp_path, capsys):
        a = write_matrix(tmp_path, "a.txt", EXAMPLE_A3)
        f = write_matrix(tmp_path, "f.txt", EXAMPLE_F3)
        assert main(["derivative", "--a", a, "--f", f]) == 0
        out = capsys.readouterr().out
        parts = out.split("\n\n")
        assert len(parts) == 3
        lex = line_expansion(EXAMPLE_A3, EXAMPLE_F3)
        n_mat = parse_matrix(parts[0] + "\n" if not parts[0].endswith("\n") else parts[0])
        gap_term = parse_matrix(parts[1] + "\n" if not parts[1].endswith("\n") else parts[1])
        u_prime = parse_matrix(parts[2])
        assert np.abs(n_mat - lex.n_mat).max() <= 1e-15
        assert np.abs(gap_term - lex.ap.data.m * lex.ap.e_hat).max() <= 1e-15
        assert np.abs(u_prime - lex.u_prime).max() <= 1e-15
        # the derivative splits into the in-block rotation and the gap term
        assert np.abs((n_mat - gap_term) - lex.ap.base.u.conj().T @ u_prime).max() <= 1e-13

    def test_direction_past_the_range_of_a2(self, tmp_path, capsys):
        # At 2**540, a2 overflows but N and U'(0) are representable: the
        # command prints them, bit for bit as the library computes them.
        cfg = EnsembleConfig(seed=1, n=6, block_spec=(2, 2, 1, 1), trials=1, predictor="first_order")
        a, f = generate_instance(cfg, 0)
        f = 2.0**540 * f
        args = ["--a", write_matrix(tmp_path, "a.txt", a), "--f", write_matrix(tmp_path, "f.txt", f)]
        assert main(["derivative", *args]) == 0
        parts = capsys.readouterr().out.split("\n\n")
        ap = aligned_perturbation(a, f)
        assert np.array_equal(parse_matrix(parts[0]), n_matrix(ap))
        assert np.array_equal(parse_matrix(parts[2]), eigenvector_derivative(ap, ap.data.m))

    def test_tied_direction_exit_code(self, tmp_path, capsys):
        a = write_matrix(tmp_path, "a.txt", np.diag([4.0, 4.0, 1.0]))
        f = write_matrix(
            tmp_path, "f.txt", [[0.3, 0.0, 1.0], [0.0, 0.3, 0.0], [1.0, 0.0, 0.0]]
        )
        assert main(["derivative", "--a", a, "--f", f]) == 3
        assert "tied diagonal" in capsys.readouterr().err


class TestConverge:
    ARGS = [
        "converge",
        "--predictor",
        "first_order",
        "--seed",
        "2",
        "--n",
        "4",
        "--blocks",
        "2,1,1",
        "--trials",
        "4",
        "--tgrid",
        "1e-1,1e-2,1e-3",
    ]

    def test_csv_matches_library(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        cfg = EnsembleConfig(
            seed=2,
            n=4,
            block_spec=(2, 1, 1),
            trials=4,
            predictor="first_order",
            t_grid=(1e-1, 1e-2, 1e-3),
        )
        assert out == report_to_csv(convergence_study(cfg))

    def test_default_grid(self, capsys):
        argv = [x for x in self.ARGS if x not in ("--tgrid", "1e-1,1e-2,1e-3")]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + 4 * 5 + 1

    def test_bad_blocks_string(self, capsys):
        argv = list(self.ARGS)
        argv[argv.index("2,1,1")] = "2,x"
        assert main(argv) == 2

    def test_blocks_sum_mismatch(self, capsys):
        argv = list(self.ARGS)
        argv[argv.index("2,1,1")] = "3,3"
        assert main(argv) == 2
        assert "sum to n" in capsys.readouterr().err

    def test_grid_too_short_to_fit(self, capsys):
        argv = list(self.ARGS)
        argv[argv.index("1e-1,1e-2,1e-3")] = "0.1,0.01"
        assert main(argv) == 2
        assert "at least 3" in capsys.readouterr().err

    def test_failed_study_exit_code(self, capsys):
        argv = [
            "converge",
            "--predictor",
            "schur_full",
            "--seed",
            "3",
            "--n",
            "6",
            "--blocks",
            "2,2,1,1",
            "--trials",
            "6",
            "--tgrid",
            "0.9,0.8,0.7",
        ]
        assert main(argv) == 1
        assert "failed predictor preconditions" in capsys.readouterr().err


class TestRegressionCommand:
    def test_paper_example_passes(self, capsys):
        assert main(["paper-example"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5
        assert all(line.startswith("PASS ") for line in lines)


class TestUsage:
    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["spectrum"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "predict" in capsys.readouterr().out

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "eigpert", "paper-example"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.count("PASS") == 5
