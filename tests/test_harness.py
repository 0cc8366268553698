import numpy as np
import pytest

from eigpert import (
    DEFAULT_T_GRID,
    EXAMPLE_A,
    EXAMPLE_F,
    EXAMPLE_N,
    EXAMPLE_U_PRIME,
    PREDICTORS,
    EnsembleConfig,
    SplitMix64,
    StudyError,
    convergence_study,
    eigh,
    fit_loglog,
    generate_instance,
    hermitian,
    operator_norm,
    paper_example_regression,
    random_hermitian,
    random_unitary,
    report_to_csv,
)


class TestSplitMix64:
    def test_known_sequence_for_seed_zero(self):
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4
        assert rng.next_u64() == 0x06C45D188009454F

    def test_deterministic(self):
        a = SplitMix64(12345)
        b = SplitMix64(12345)
        assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]

    def test_uniform_range_and_spread(self):
        rng = SplitMix64(9)
        draws = np.array([rng.uniform() for _ in range(5000)])
        assert np.all((draws >= 0.0) & (draws < 1.0))
        assert abs(draws.mean() - 0.5) < 0.02
        assert draws.min() < 0.01 and draws.max() > 0.99

    def test_normal_moments(self):
        rng = SplitMix64(7)
        draws = np.array([rng.normal() for _ in range(20000)])
        assert abs(draws.mean()) < 0.05
        assert abs(draws.var() - 1.0) < 0.1


class TestGenerators:
    def test_random_hermitian_is_hermitian(self):
        rng = SplitMix64(1)
        g = random_hermitian(rng, 5)
        assert np.array_equal(g, g.conj().T)
        assert g.dtype == np.complex128

    def test_random_unitary(self):
        rng = SplitMix64(2)
        q = random_unitary(rng, 5)
        assert operator_norm(q.conj().T @ q - np.eye(5)) <= 1e-12

    def test_instance_is_reproducible(self):
        cfg = EnsembleConfig(seed=5, n=5, block_spec=(2, 2, 1), trials=3, predictor="first_order")
        a1, f1 = generate_instance(cfg, 1)
        a2, f2 = generate_instance(cfg, 1)
        assert np.array_equal(a1, a2) and np.array_equal(f1, f2)

    def test_trials_differ(self):
        cfg = EnsembleConfig(seed=5, n=5, block_spec=(2, 2, 1), trials=3, predictor="first_order")
        a0, f0 = generate_instance(cfg, 0)
        a1, f1 = generate_instance(cfg, 1)
        assert not np.array_equal(a0, a1)
        assert not np.array_equal(f0, f1)

    def test_spectrum_matches_block_spec(self):
        cfg = EnsembleConfig(seed=6, n=6, block_spec=(3, 2, 1), trials=1, predictor="first_order")
        a, f = generate_instance(cfg, 0)
        lam = eigh(hermitian(a)).lam
        reps = [lam[0], lam[3], lam[5]]
        # multiplicities are exact: within each block the eigenvalues agree
        # to solver accuracy, across blocks they are separated by at least 1
        assert np.abs(lam[:3] - reps[0]).max() <= 1e-12
        assert np.abs(lam[3:5] - reps[1]).max() <= 1e-12
        assert reps[0] - reps[1] >= 1.0 - 1e-9
        assert reps[1] - reps[2] >= 1.0 - 1e-9
        assert abs(operator_norm(f) - 1.0) <= 1e-10

    def test_simple_spectrum_spec(self):
        cfg = EnsembleConfig(seed=6, n=4, block_spec=(1, 1, 1, 1), trials=1, predictor="first_order")
        a, _ = generate_instance(cfg, 0)
        lam = eigh(hermitian(a)).lam
        assert np.all(lam[:-1] - lam[1:] >= 1.0 - 1e-9)


class TestEnsembleConfig:
    def test_accepts_defaults(self):
        cfg = EnsembleConfig(seed=1, n=6, block_spec=[2, 2, 1, 1], trials=20, predictor="schur_full")
        assert cfg.t_grid == DEFAULT_T_GRID
        assert cfg.block_spec == (2, 2, 1, 1)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(n=5, block_spec=(2, 2)), "sum to n"),
            (dict(n=4, block_spec=(2, 2, 0)), "positive"),
            (dict(n=4, block_spec=(2, 2), trials=0), "at least one trial"),
            (dict(n=4, block_spec=(2, 2), predictor="newton"), "unknown predictor"),
            (dict(n=4, block_spec=(2, 2), t_grid=(1e-3, 1e-2)), "strictly decreasing"),
            (dict(n=4, block_spec=(2, 2), t_grid=(1e-1, 1e-1)), "strictly decreasing"),
            (dict(n=4, block_spec=(2, 2), t_grid=(1e-1, -1e-2)), "positive"),
            (dict(n=0, block_spec=()), "at least 1"),
        ],
    )
    def test_rejections(self, kwargs, message):
        full = dict(seed=1, trials=2, predictor="first_order")
        full.update(kwargs)
        with pytest.raises(ValueError, match=message):
            EnsembleConfig(**full)


class TestFitLoglog:
    def test_recovers_quadratic_rate(self):
        ts = np.array([1e-1, 1e-2, 1e-3, 1e-4])
        fit = fit_loglog(ts, 3.0 * ts**2, scale=1.0)
        assert fit.slope == pytest.approx(2.0, abs=1e-6)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.points_kept == 4

    def test_noise_floor_drops_points(self):
        ts = np.array([1e-1, 1e-2, 1e-3, 1e-4])
        errors = np.array([1e-2, 1e-4, 1e-6, 1e-16])
        fit = fit_loglog(ts, errors, scale=1.0)
        assert fit.points_kept == 3
        assert fit.slope == pytest.approx(2.0, abs=1e-6)

    def test_too_few_points_raise(self):
        ts = np.array([1e-1, 1e-2, 1e-3])
        with pytest.raises(StudyError, match="noise floor"):
            fit_loglog(ts, [1e-15, 1e-16, 1e-17], scale=1.0)

    def test_constant_errors_define_r_squared(self):
        ts = np.array([1e-1, 1e-2, 1e-3])
        fit = fit_loglog(ts, [0.25, 0.25, 0.25], scale=1.0)
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == 1.0


class TestConvergenceStudy:
    CFG = dict(seed=2, n=4, block_spec=(2, 1, 1), trials=4, t_grid=(1e-1, 1e-2, 1e-3))

    def test_first_order_study(self):
        report = convergence_study(EnsembleConfig(predictor="first_order", **self.CFG))
        assert report.slope >= 1.8
        assert len(report.rows) == 4 * 3
        assert report.failed_trials == ()
        assert len(report.trial_slopes) == 4
        # the reported slope is the worst trial, a lower bound for the rest
        assert report.slope == min(report.trial_slopes)

    def test_rows_are_ordered_and_positive(self):
        report = convergence_study(EnsembleConfig(predictor="schur_full", **self.CFG))
        for row in report.rows:
            assert row.t in (1e-1, 1e-2, 1e-3)
            assert row.error >= 0.0

    def test_deterministic(self):
        cfg = EnsembleConfig(predictor="rs_second_order", **self.CFG)
        assert convergence_study(cfg) == convergence_study(cfg)

    def test_all_trials_failing_raises(self):
        cfg = EnsembleConfig(
            seed=3,
            n=6,
            block_spec=(2, 2, 1, 1),
            trials=6,
            predictor="schur_full",
            t_grid=(0.9, 0.8, 0.7),
        )
        with pytest.raises(StudyError, match="failed predictor preconditions"):
            convergence_study(cfg)


class TestCsv:
    def test_structure_and_determinism(self):
        cfg = EnsembleConfig(predictor="first_order", **TestConvergenceStudy.CFG)
        text = report_to_csv(convergence_study(cfg))
        again = report_to_csv(convergence_study(cfg))
        assert text == again
        lines = text.splitlines()
        assert lines[0] == "trial,t,error"
        assert len(lines) == 1 + 4 * 3 + 1
        assert lines[-1].startswith("# slope=")
        assert " r2=" in lines[-1]
        for line in lines[1:-1]:
            trial, t, error = line.split(",")
            assert int(trial) in range(4)
            assert float(t) > 0 and float(error) >= 0

    def test_floats_round_trip(self):
        cfg = EnsembleConfig(predictor="eigvec_first_order", **TestConvergenceStudy.CFG)
        report = convergence_study(cfg)
        lines = report_to_csv(report).splitlines()
        for row, line in zip(report.rows, lines[1:]):
            assert float(line.split(",")[2]) == row.error


class TestWorkedExampleRegression:
    def test_all_clauses_pass(self):
        report = paper_example_regression()
        assert report.passed
        names = [c.name for c in report.clauses]
        assert names == [
            "schur_block",
            "n_matrix",
            "u_prime",
            "eigvec_3_decimals",
            "naive_gap_norm",
        ]
        for clause in report.clauses:
            assert clause.passed, f"{clause.name}: {clause.detail}"

    def test_deterministic(self):
        assert paper_example_regression() == paper_example_regression()

    def test_exported_constants(self):
        assert np.array_equal(EXAMPLE_A, np.diag([0.0, 0.0, 1.0]))
        assert np.array_equal(EXAMPLE_F, [[1, 0, 1], [0, 0, 1], [1, 1, 0]])
        assert np.array_equal(EXAMPLE_N, [[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
        assert np.array_equal(EXAMPLE_U_PRIME, [[0, 1, 1], [-1, 0, 1], [-1, -1, 0]])
        for arr in (EXAMPLE_A, EXAMPLE_F, EXAMPLE_N, EXAMPLE_U_PRIME):
            assert not arr.flags.writeable

    def test_predictor_names_are_stable(self):
        assert PREDICTORS == (
            "first_order",
            "schur_full",
            "schur_simplified",
            "rs_second_order",
            "eigvec_first_order",
            "u_ap_residual",
        )
