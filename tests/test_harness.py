import itertools

import numpy as np
import pytest

from eigpert import (
    DEFAULT_T_GRID,
    EXAMPLE_A,
    EXAMPLE_F,
    EXAMPLE_N,
    EXAMPLE_U_PRIME,
    PREDICTORS,
    ConvergenceReport,
    EnsembleConfig,
    PreconditionError,
    StudyError,
    StudyRow,
    align_columns,
    blockwise_diagonalize,
    conjugate_to_eigenbasis,
    convergence_study,
    decomposition_residual,
    eigenvector_derivative,
    eigh,
    eigh_stack,
    first_order_eigenvalues,
    generate_instance,
    hermitian,
    m_matrix,
    operator_norm,
    operator_norms,
    paper_example_regression,
    refined_eigenvalues,
    report_to_csv,
    rs_coefficients,
    scaled,
)
from eigpert import harness
from eigpert.harness import SplitMix64, fit_loglog, random_hermitian, random_unitary


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


def reference_trial_errors(predictor, a, f, t_grid):
    """Errors of one predictor against the oracle along the t-grid, one
    trial at a time, and the scale of its noise floor."""
    base = eigh(a)
    ap = blockwise_diagonalize(conjugate_to_eigenbasis(base, f))
    mmat = m_matrix(ap.base, ap.blocks)
    scale = max(1.0, float(np.abs(base.lam).max()))
    if predictor in ("rs_second_order", "eigvec_first_order"):
        a0, a1, a2 = rs_coefficients(ap)
        u_prime = eigenvector_derivative(ap, mmat)
    points = []
    gaps = []
    exacts = (
        eigh_stack([a + t * f for t in t_grid])
        if predictor != "u_ap_residual"
        else [None] * len(t_grid)
    )
    for t, exact in zip(t_grid, exacts):
        if predictor == "first_order":
            pred = first_order_eigenvalues(scaled(ap, t))
        elif predictor in ("schur_full", "schur_simplified"):
            variant = "full" if predictor == "schur_full" else "simplified"
            pred = refined_eigenvalues(scaled(ap, t), variant=variant)
        elif predictor == "rs_second_order":
            pred = a0 + t * a1 + t * t * a2
        elif predictor == "eigvec_first_order":
            u_hat = ap.base.u + t * u_prime
            gaps.append(align_columns(exact.u, u_hat, ap.blocks) - u_hat)
            continue
        else:
            gaps.append(decomposition_residual(scaled(ap, t), mmat))
            continue
        points.append((t, float(np.abs(exact.lam - pred).max())))
    if gaps:
        points = list(zip(t_grid, operator_norms(gaps)))
    return points, scale


def reference_study(cfg):
    """The convergence study solved trial by trial, with the package's public
    functions: the reference that the stacked study must reproduce bit for
    bit."""
    rows, fits, failed = [], [], []
    for trial in range(cfg.trials):
        a, f = generate_instance(cfg, trial)
        try:
            points, scale = reference_trial_errors(cfg.predictor, a, f, cfg.t_grid)
        except PreconditionError:
            failed.append(trial)
            continue
        try:
            fits.append(fit_loglog([p[0] for p in points], [p[1] for p in points], scale))
        except StudyError:
            failed.append(trial)
            continue
        rows.extend(StudyRow(trial, t, error) for t, error in points)
    if 2 * len(failed) > cfg.trials:
        raise StudyError(f"{len(failed)} of {cfg.trials} trials failed predictor preconditions")
    worst = min(range(len(fits)), key=lambda k: fits[k].slope)
    return ConvergenceReport(
        rows=tuple(rows),
        slope=fits[worst].slope,
        intercept=fits[worst].intercept,
        r_squared=fits[worst].r_squared,
        trial_slopes=tuple(f.slope for f in fits),
        failed_trials=tuple(sorted(failed)),
    )


# The acceptance ensemble, and one whose largest t fails the Schur margin
# check on trials 4, 6 and 8 only, with blocks of two sizes.
ACCEPTANCE = dict(seed=1, n=6, block_spec=(2, 2, 1, 1))
PARTIAL = dict(seed=6, n=6, block_spec=(3, 2, 1), trials=10, t_grid=(0.55, 0.1, 0.03, 0.01))


class TestStackedStudy:
    @pytest.mark.parametrize("predictor", PREDICTORS)
    @pytest.mark.parametrize(
        "ensemble", [dict(ACCEPTANCE, trials=12), PARTIAL], ids=["acceptance", "partial"]
    )
    def test_matches_the_per_trial_reference(self, predictor, ensemble):
        cfg = EnsembleConfig(predictor=predictor, **ensemble)
        report = convergence_study(cfg)
        assert report == reference_study(cfg)
        if ensemble is PARTIAL and predictor.startswith("schur"):
            assert report.failed_trials == (4, 6, 8)

    @staticmethod
    def failing_fits(monkeypatch, calls):
        """Make ``fit_loglog`` raise ``StudyError`` on the given calls (0-based)."""
        count = itertools.count()

        def fit(*args):
            if next(count) in calls:
                raise StudyError("too few points above the noise floor")
            return fit_loglog(*args)

        monkeypatch.setattr(harness, "fit_loglog", fit)

    def test_failed_fit_fails_only_its_trial(self, monkeypatch):
        cfg = EnsembleConfig(predictor="schur_full", **PARTIAL)
        clean = convergence_study(cfg)
        # The fits run over the trials that met the preconditions, in order:
        # 0, 1, 2, 3, 5, 7, 9.  The third is trial 2.
        self.failing_fits(monkeypatch, {2})
        report = convergence_study(cfg)
        assert report.failed_trials == (2, 4, 6, 8)
        assert report.rows == tuple(row for row in clean.rows if row.trial != 2)
        kept = [k for k in range(7) if k != 2]
        assert report.trial_slopes == tuple(clean.trial_slopes[k] for k in kept)
        assert report.slope == min(report.trial_slopes)

    def test_more_than_half_failing_counts_failed_fits(self, monkeypatch):
        cfg = EnsembleConfig(predictor="schur_full", **PARTIAL)
        self.failing_fits(monkeypatch, {0, 1})
        assert convergence_study(cfg).failed_trials == (0, 1, 4, 6, 8)
        self.failing_fits(monkeypatch, {0, 1, 2})
        with pytest.raises(StudyError, match="6 of 10 trials failed"):
            convergence_study(cfg)

    @pytest.mark.parametrize("predictor", PREDICTORS)
    def test_oracle_calls_do_not_depend_on_trials(self, predictor, oracle_calls):
        counts = []
        for trials in (3, 20):
            oracle_calls.clear()
            convergence_study(EnsembleConfig(predictor=predictor, trials=trials, **ACCEPTANCE))
            counts.append(len(oracle_calls))
        assert counts[0] == counts[1] <= 6


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
