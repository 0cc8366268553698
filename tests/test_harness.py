import hashlib
import itertools
import math
import sys

import numpy as np
import pytest

from conftest import align_columns_loop
from eigpert import (
    DEFAULT_T_GRID,
    EXAMPLE_A,
    EXAMPLE_F,
    EXAMPLE_N,
    EXAMPLE_U_PRIME,
    PREDICTORS,
    ConvergenceReport,
    DegenerateDirectionError,
    EnsembleConfig,
    GapTooSmallError,
    SpectralDecomposition,
    StudyError,
    StudyRow,
    blockwise_diagonalize,
    conjugate_to_eigenbasis,
    convergence_study,
    eigh,
    first_order_eigenvalues,
    generate_instance,
    hermitian,
    m_matrix,
    operator_norm,
    operator_norms,
    paper_example_regression,
    predict_eigensystem,
    refined_eigenvalues,
    report_to_csv,
    scaled,
)
from eigpert import alignment, first_order, harness, jacobi, rayleigh
from eigpert.harness import (
    _draws,
    _hermitian_draws,
    _instances,
    _stream,
    _uniforms,
    fit_loglog,
    random_unitary,
)


def states(*seeds):
    return np.array(seeds, dtype=np.uint64)


def scalar_hermitian_draw(state, n):
    """The per-entry definition that the array draws must reproduce bit for
    bit: SplitMix64 in Python integers and one Box-Muller pair per complex
    entry, row-major, real part first."""
    mask = 2**64 - 1

    def next_u64():
        nonlocal state
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    g = np.empty((n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            r = math.sqrt(-2.0 * math.log(((next_u64() >> 11) + 1) * 2.0**-53))
            theta = 2.0 * math.pi * ((next_u64() >> 11) * 2.0**-53)
            g[i, j] = complex(r * math.cos(theta), r * math.sin(theta))
    return 0.5 * (g + g.conj().T)


class TestSplitMix64:
    def test_known_sequence_for_seed_zero(self):
        assert _stream(states(0), 3).tolist() == [
            [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        ]

    def test_deterministic(self):
        a = _stream(states(12345, 12345), 50)
        assert np.array_equal(a[0], a[1])
        assert np.array_equal(a, _stream(states(12345, 12345), 50))

    def test_is_a_counter(self):
        # Output k + j of the stream at s is output j of the stream at
        # s + k * golden, and a longer stream extends a shorter one.
        long = _stream(states(12345, 2**64 - 1), 50)
        assert np.array_equal(long[:, :20], _stream(states(12345, 2**64 - 1), 20))
        shifted = (12345 + 30 * 0x9E3779B97F4A7C15) % 2**64
        assert np.array_equal(long[0, 30:], _stream(states(shifted), 20)[0])

    def test_uniform_range_and_spread(self):
        draws = _uniforms(_stream(states(9), 5000)[0])
        assert np.all((draws >= 0.0) & (draws < 1.0))
        assert abs(draws.mean() - 0.5) < 0.02
        assert draws.min() < 0.01 and draws.max() > 0.99

    def test_normal_moments(self):
        # The diagonal is the real part of a standard normal; off the
        # diagonal, real and imaginary parts are means of two of them.
        n = 100
        h = _hermitian_draws(_stream(states(7), 2 * n * n), n)[0]
        upper = h[np.triu_indices(n, 1)] * np.sqrt(2.0)
        draws = np.concatenate([h.diagonal().real, upper.real, upper.imag])
        assert abs(draws.mean()) < 0.05
        assert abs(draws.var() - 1.0) < 0.1


class TestGenerators:
    def test_hermitian_draws_are_hermitian(self):
        h = _hermitian_draws(_stream(states(1, 2), 50), 5)
        assert h.shape == (2, 5, 5) and h.dtype == np.complex128
        assert np.array_equal(h, h.conj().transpose(0, 2, 1))

    @pytest.mark.parametrize("seed", [0, 5, 2**64 - 1])
    @pytest.mark.parametrize("n", [1, 4])
    def test_hermitian_draws_match_the_scalar_definition(self, seed, n):
        h = _hermitian_draws(_stream(states(seed), 2 * n * n), n)[0]
        assert h.tobytes() == scalar_hermitian_draw(seed, n).tobytes()

    def test_random_unitary(self):
        q = random_unitary(2, 5)
        assert operator_norm(q.conj().T @ q - np.eye(5)) <= 1e-12

    # SHA-256 of the bytes of A then F, recorded before the generator became
    # a counter: any change to the draws, their order or their arithmetic
    # (numpy's log or a swapped sine and cosine included) moves them.
    PINNED = [
        (0, (2, 2, 1, 1), 0, "d17eba8553d6d2fb16fd3319fb771594d85174c48f7fec01316b7a2e042a7abb"),
        (-3, (3, 2, 1), 2, "f04802d3b7076982cca511c65ffbf2d1bb669215dd0c63ec8a4a9e058e4eae07"),
        (2**64 + 5, (1, 1, 1, 1), 1, "fdd8d6c9bf6c961b8612c9860ffc24a96a4fe2512c5944954a9f51d8d4783c9c"),
        (12345, (4,), 3, "f2efed4478fc236163989792430abbe03861ed630bad514f1365dbe01c5c1084"),
        (9, (1,), 0, "a20d790ee7c0d179c3b56ebd89d42a29b226d1a2f86bd89aa2c7a45eea3490aa"),
        (2**70 - 1, (5, 3), 4, "605e9fece182ff343eb07b8091c907d308459230b6a901c9b3ba692114923d39"),
    ]

    @pytest.mark.parametrize("seed, spec, trial, digest", PINNED)
    def test_instances_are_pinned(self, seed, spec, trial, digest):
        cfg = EnsembleConfig(seed=seed, n=sum(spec), block_spec=spec, trials=1, predictor="first_order")
        a, f = generate_instance(cfg, trial)
        assert hashlib.sha256(a.tobytes() + f.tobytes()).hexdigest() == digest

    def test_instances_make_one_array_entry_call(self, oracle_calls):
        # The Q draws and the directions' Gram matrices share one call to the
        # array entry, whose precondition the recorder checks.
        cfg = EnsembleConfig(seed=3, n=5, block_spec=(2, 2, 1), trials=4, predictor="first_order")
        a, f = _instances(cfg, range(4))
        assert a.shape == f.shape == (4, 5, 5)
        assert oracle_calls == [[5] * 8] and oracle_calls.stages == ["_draws"]

    @pytest.mark.parametrize("seed, spec", [(1, (2, 2, 1, 1)), (-3, (3, 2, 1)), (2**64, (1,))])
    def test_stacked_draws_match_each_trial(self, seed, spec):
        cfg = EnsembleConfig(seed=seed, n=sum(spec), block_spec=spec, trials=4, predictor="first_order")
        for trial, (a, f) in enumerate(zip(*_instances(cfg, range(4)))):
            a1, f1 = generate_instance(cfg, trial)
            assert a.tobytes() == a1.tobytes() and f.tobytes() == f1.tobytes()

    def test_numpy_trial_index_gives_the_same_instance(self):
        cfg = EnsembleConfig(seed=5, n=5, block_spec=(2, 2, 1), trials=4, predictor="first_order")
        for index in (np.int64(3), np.uint64(3), np.int32(3)):
            a, f = generate_instance(cfg, index)
            a3, f3 = generate_instance(cfg, 3)
            assert a.tobytes() == a3.tobytes() and f.tobytes() == f3.tobytes()

    @pytest.mark.parametrize("trial", [3.0, 1.5, "3", None], ids=["whole_float", "float", "str", "none"])
    def test_trial_must_be_an_integer(self, trial):
        # A bare TypeError from operator.index used to come out.
        cfg = EnsembleConfig(seed=5, n=5, block_spec=(2, 2, 1), trials=4, predictor="first_order")
        with pytest.raises(ValueError, match="trial must be an integer"):
            generate_instance(cfg, trial)

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

    def test_accepts_numpy_integers(self):
        cfg = EnsembleConfig(
            seed=np.int64(3), n=np.int32(4), block_spec=np.array([2, 2]), trials=np.uint8(2),
            predictor="first_order",
        )
        assert (cfg.seed, cfg.n, cfg.block_spec, cfg.trials) == (3, 4, (2, 2), 2)
        assert all(type(v) is int for v in (cfg.seed, cfg.n, cfg.trials, *cfg.block_spec))

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
            (dict(n=4, block_spec=(2, 2), seed=1.5), "integers"),
            (dict(n=6.0, block_spec=(3, 3)), "integers"),
            (dict(n=4, block_spec=(2, 2), trials=2.5), "integers"),
            (dict(n=5, block_spec=(2.5, 3.5)), "integers"),
            (dict(n=4, block_spec=(2, 2), t_grid=(1e-1, 1e-2)), "at least 3"),
            (dict(n=4, block_spec=(2, 2), t_grid=(1e-1, np.complex128(1e-2 + 5j), 1e-3)), "t_grid must be real"),
            (dict(n=4, block_spec=(2, 2), t_grid=(1e-1, 1e-2, 1e-3 + 0j)), "t_grid must be real"),
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

    @pytest.mark.parametrize(
        "ts, errors, error",
        [
            ([1e-1, 1e-2, 1e-3], [1e-2, 1e-4], ValueError),
            ([1e-1, -1e-2, 1e-3], [1e-2, 1e-4, 1e-6], ValueError),
            ([1e-1, 1e-2, 1e-3], [1e-2, math.inf, 1e-6], ValueError),
            # A NaN used to be dropped as if below the floor, leaving slope 2.
            ([1e-1, 1e-2, 1e-3, 1e-4], [1e-2, math.nan, 1e-6, 1e-8], ValueError),
            # Three points at one t used to give slope NaN.
            ([1e-1] * 3, [1e-3, 2e-3, 3e-3], StudyError),
        ],
        ids=["lengths", "negative_t", "inf_error", "nan_error", "one_t"],
    )
    def test_rejects_samples_with_no_slope(self, ts, errors, error):
        with pytest.raises(error):
            fit_loglog(ts, errors, scale=1.0)

    @pytest.mark.parametrize(
        "scale",
        # NaN used to fit against the floor of scale 1, infinity to raise
        # StudyError and a complex scale a bare TypeError.
        [math.nan, math.inf, -math.inf, 1.0 + 1.0j, np.complex128(2.0)],
        ids=["nan", "inf", "minus_inf", "complex", "numpy_complex"],
    )
    def test_rejects_a_scale_that_is_not_a_finite_real(self, scale):
        ts = np.array([1e-1, 1e-2, 1e-3, 1e-4])
        with pytest.raises(ValueError, match="^scale must be"):
            fit_loglog(ts, 3.0 * ts**2, scale=scale)

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
        with pytest.raises(StudyError, match="failed predictor preconditions or their fit; trial 0: gap guard"):
            convergence_study(cfg)

    def test_failing_study_names_the_first_failed_trial(self):
        # A single block: every prediction is exact to round-off, so no fit
        # finds points above its noise floor.
        cfg = EnsembleConfig(seed=1, n=2, block_spec=(2,), trials=2, predictor="eigvec_first_order")
        with pytest.raises(StudyError, match=r"2 of 2 trials failed .*; trial 0: only 0 of 5 error samples"):
            convergence_study(cfg)


def warm_base(cfg, trial):
    """``(A, F)`` of one trial and its base as a study solves it, from
    public functions and the draw's ``Q``: warm, as ``Q* A Q``, with the
    eigenvectors ``V`` mapped back as ``Q V``."""
    a, f, q = (x[0] for x in _draws(cfg, [trial]))
    warm = eigh(q.conj().T @ a @ q)
    return a, f, SpectralDecomposition(q @ warm.u, warm.lam)


def reference_trial_errors(predictor, a, f, base, t_grid):
    """Errors of one predictor against the oracle along the t-grid, one
    trial at a time from its base decomposition, and the scale of its
    noise floor."""
    ap = blockwise_diagonalize(conjugate_to_eigenbasis(base, f))
    mmat = m_matrix(ap.base, ap.blocks)
    scale = max(1.0, float(np.abs(base.lam).max()))
    points = []
    gaps = []
    # The oracle solves U_ap* (A + t F) U_ap, whose eigenvectors map back as U_ap V.
    u_ap = ap.base.u
    exacts = [eigh(u_ap.conj().T @ (a + t * f) @ u_ap) if predictor != "u_ap_residual" else None for t in t_grid]
    for t, exact in zip(t_grid, exacts):
        if predictor == "first_order":
            pred = first_order_eigenvalues(scaled(ap, t))
        elif predictor in ("schur_full", "schur_simplified"):
            variant = "full" if predictor == "schur_full" else "simplified"
            pred = refined_eigenvalues(scaled(ap, t), variant=variant)
        elif predictor == "rs_second_order":
            pred = predict_eigensystem(ap, mmat, t).xi_hat
        elif predictor == "eigvec_first_order":
            u_hat = predict_eigensystem(ap, mmat, t).u_hat
            gaps.append(align_columns_loop(u_ap @ exact.u, u_hat, ap.blocks.groups) - u_hat)
            continue
        else:
            at_t = scaled(ap, t)
            gaps.append(first_order._residuals(at_t.base.u, at_t.base.lam, at_t.e, at_t.e_hat, mmat))
            continue
        points.append((t, float(np.abs(exact.lam - pred).max())))
    if gaps:
        points = list(zip(t_grid, operator_norms(gaps)))
    return points, scale


def reference_study(cfg):
    """The convergence study solved trial by trial, with the package's public
    functions and each draw's ``Q``: the reference that the stacked study
    must reproduce bit for bit."""
    rows, fits, failed = [], [], {}
    for trial in range(cfg.trials):
        a, f, base = warm_base(cfg, trial)
        try:
            points, scale = reference_trial_errors(cfg.predictor, a, f, base, cfg.t_grid)
        except DegenerateDirectionError:
            failed[trial] = "tie guard"
            continue
        except GapTooSmallError:
            failed[trial] = "gap guard"
            continue
        try:
            fits.append(fit_loglog([p[0] for p in points], [p[1] for p in points], scale))
        except StudyError as exc:
            failed[trial] = str(exc)
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
        failed_trials=tuple(failed),
        failure_reasons=tuple(failed.values()),
    )


# The acceptance ensemble, and one whose largest t fails the gap guard on
# trials 4, 6 and 8 only, with blocks of two sizes.
ACCEPTANCE = dict(seed=1, n=6, block_spec=(2, 2, 1, 1))
PARTIAL = dict(seed=6, n=6, block_spec=(3, 2, 1), trials=10, t_grid=(0.55, 0.1, 0.03, 0.01))
# A simple spectrum: no block has two members for the tie guard to compare.
SIMPLE = dict(seed=2, n=4, block_spec=(1, 1, 1, 1), trials=9)
# At n >= 9 np.vdot's sums depend on how the columns are laid out.
LARGE = dict(seed=3, n=10, block_spec=(3, 3, 2, 1, 1), trials=4)


class TestStackedStudy:
    @pytest.mark.parametrize("predictor", PREDICTORS)
    @pytest.mark.parametrize(
        "ensemble",
        [dict(ACCEPTANCE, trials=12), PARTIAL, SIMPLE, LARGE],
        ids=["acceptance", "partial", "simple", "large"],
    )
    def test_matches_the_per_trial_reference(self, predictor, ensemble):
        cfg = EnsembleConfig(predictor=predictor, **ensemble)
        report = convergence_study(cfg)
        assert report == reference_study(cfg)
        if ensemble is PARTIAL:
            # Every predictor with a gap guard refuses the same trials.
            guarded = predictor not in ("first_order", "u_ap_residual")
            assert report.failed_trials == ((4, 6, 8) if guarded else ())

    @staticmethod
    def failing_fits(monkeypatch, rows):
        """Make the study's stacked fit report ``StudyError`` for the given
        rows (0-based), one row per trial that met the preconditions."""
        real = harness._fits

        def fits(*args):
            failure = StudyError("too few points above the noise floor")
            return [failure if k in rows else fit for k, fit in enumerate(real(*args))]

        monkeypatch.setattr(harness, "_fits", fits)

    def test_failed_fit_fails_only_its_trial(self, monkeypatch):
        cfg = EnsembleConfig(predictor="schur_full", **PARTIAL)
        clean = convergence_study(cfg)
        # The fit's rows are the trials that met the preconditions, in order:
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
        with pytest.raises(StudyError, match="6 of 10 trials failed .*; trial 0: too few points"):
            convergence_study(cfg)

    def test_failed_trials_carry_their_reasons(self, monkeypatch):
        # Trials 1 and 4 are made tied; trial 4 would fail the gap guard
        # too, but a tied trial is refused by the tie guard alone.  The
        # fit's first row is then trial 0.
        real = rayleigh._tie_gaps

        def tied(diagonal, groups):
            gaps = real(diagonal, groups).copy()
            gaps[[1, 4]] = 0.0
            return gaps

        monkeypatch.setattr(rayleigh, "_tie_gaps", tied)
        self.failing_fits(monkeypatch, {0})
        report = convergence_study(EnsembleConfig(predictor="rs_second_order", **PARTIAL))
        assert report.failed_trials == (0, 1, 4, 6, 8)
        assert report.failure_reasons == (
            "too few points above the noise floor", "tie guard", "tie guard", "gap guard", "gap guard"
        )

    @pytest.mark.parametrize("predictor", PREDICTORS)
    def test_oracle_calls_do_not_depend_on_trials(self, predictor, oracle_calls):
        counts, shapes = [], []
        for trials in (3, 20):
            oracle_calls.clear()
            convergence_study(EnsembleConfig(predictor=predictor, trials=trials, **ACCEPTANCE))
            counts.append(len(oracle_calls))
            shapes.append(oracle_calls.shapes())
        assert counts[0] == counts[1] <= 6
        # Every stage solves each matrix size in one call, whatever the trials.
        assert shapes[0] == shapes[1]
        assert len(set(shapes[0])) == len(shapes[0])

    @pytest.mark.parametrize("predictor", PREDICTORS)
    def test_stack_refuses_mixed_block_structures(self, monkeypatch, predictor):
        # A study is one stack of one degeneracy structure.  Bases that split
        # otherwise are refused with a typed error before any prediction, so
        # no trial is ever given the first trial's groups.
        stacks = [
            _draws(EnsembleConfig(seed=4, n=6, block_spec=spec, trials=2, predictor=predictor), range(2))
            for spec in ((2, 2, 1, 1), (3, 2, 1))
        ]
        mixed = tuple(np.concatenate(x) for x in zip(*stacks))
        monkeypatch.setattr(harness, "_draws", lambda cfg, trials: mixed)
        cfg = EnsembleConfig(seed=4, n=6, block_spec=(2, 2, 1, 1), trials=4, predictor=predictor)
        with pytest.raises(StudyError, match="row 2 of 4 splits into other degeneracy groups"):
            convergence_study(cfg)

    @pytest.mark.parametrize("predictor", PREDICTORS)
    def test_builds_no_aligned_perturbation(self, monkeypatch, predictor):
        # A study keeps its bases, E_hat and norms as stacked arrays from the
        # draw to the errors; a single prediction still builds its records.
        calls = []
        real = alignment.AlignedPerturbation.__init__

        def counting(self, *args, **kwargs):
            calls.append(type(self))
            real(self, *args, **kwargs)

        monkeypatch.setattr(alignment.AlignedPerturbation, "__init__", counting)
        convergence_study(EnsembleConfig(predictor=predictor, trials=3, **ACCEPTANCE))
        assert calls == []
        a, f = generate_instance(EnsembleConfig(predictor=predictor, trials=1, **ACCEPTANCE), 0)
        blockwise_diagonalize(conjugate_to_eigenbasis(eigh(a), f))
        assert len(calls) == 2

    def test_rotated_eigenvectors_are_row_major(self, monkeypatch):
        # The study's rotated u, like a record's, are laid out row-major.
        rotated = []
        real = alignment._rotate_blocks

        def recording(*args):
            rotated.append(real(*args))
            return rotated[-1]

        monkeypatch.setattr(alignment, "_rotate_blocks", recording)
        convergence_study(EnsembleConfig(predictor="eigvec_first_order", trials=3, **ACCEPTANCE))
        assert [u.shape[0] for u in rotated] == [3]
        assert rotated[0].flags.c_contiguous

    def test_second_order_eigenvalues_never_build_n(self, monkeypatch):
        # The closed-form a2 needs no rotation generator.
        def refuse(*args):
            raise AssertionError("n_matrix called")

        monkeypatch.setattr(rayleigh, "n_matrix", refuse)
        monkeypatch.setattr(rayleigh, "_n_matrix", refuse)
        report = convergence_study(EnsembleConfig(predictor="rs_second_order", trials=3, **ACCEPTANCE))
        assert report.failed_trials == ()

    @pytest.mark.parametrize(
        "predictor, guards", [("schur_full", 1), ("rs_second_order", 2), ("eigvec_first_order", 2)]
    )
    @pytest.mark.parametrize("trials", [3, 20])
    def test_one_decision_per_guard_per_study(self, monkeypatch, predictor, guards, trials):
        # Each guard decides every trial in one call, at the largest t and
        # not once per t or per trial; the expansion's tie guard adds its own.
        calls = []
        real = alignment._allows

        def counting(norm, least, factor):
            calls.append(least.shape)
            return real(norm, least, factor)

        monkeypatch.setattr(alignment, "_allows", counting)
        convergence_study(EnsembleConfig(predictor=predictor, trials=trials, **ACCEPTANCE))
        assert calls == [(trials,)] * guards

    @pytest.mark.parametrize("predictor", ["schur_full", "schur_simplified", "rs_second_order", "eigvec_first_order"])
    def test_undecided_norms_are_one_solve(self, predictor, oracle_calls):
        # On this ensemble the bounds settle no trial's gap guard at the
        # largest t: every trial's norm goes to the oracle, all in one call.
        report = convergence_study(EnsembleConfig(predictor=predictor, **PARTIAL))
        assert report.failed_trials == (4, 6, 8)
        norm_solves = [call for call, stage in zip(oracle_calls, oracle_calls.stages) if stage == "value"]
        assert norm_solves == [[6] * 10]

    def test_one_column_match_per_block_structure(self, monkeypatch):
        # Every (trial, t) member of the study's one degeneracy structure is
        # matched in one stacked call; none goes through align_columns.
        calls = []
        real = alignment._align_stack

        def counting(candidate, reference, groups):
            calls.append((len(candidate), tuple(groups)))
            return real(candidate, reference, groups)

        def refuse(*args):
            raise AssertionError("align_columns called")

        monkeypatch.setattr(alignment, "_align_stack", counting)
        monkeypatch.setattr(alignment, "align_columns", refuse)
        cfg = EnsembleConfig(predictor="eigvec_first_order", **PARTIAL)
        report = convergence_study(cfg)
        kept = cfg.trials - len(report.failed_trials)
        assert calls == [(kept * len(cfg.t_grid), ((0, 3), (3, 5), (5, 6)))]

    @pytest.mark.parametrize("predictor", PREDICTORS)
    def test_only_eigenvector_reads_solve_for_eigenvectors(self, predictor, oracle_calls):
        convergence_study(EnsembleConfig(predictor=predictor, trials=3, **ACCEPTANCE))
        # The Q draws, solved in one call with the directions' Gram
        # matrices, the bases and the block-wise rotations read eigenvectors;
        # the Schur complements, the exact solves of an eigenvalue predictor
        # and the error norms do not.
        assert oracle_calls[0] == [6] * (2 * 3)
        stages = [True, True, True]
        calls = [("_draws", True), ("convergence_study", True), ("_rotate_blocks", True)]
        if predictor in ("schur_full", "schur_simplified"):
            stages.append(False)
            # One call per complement size: the 2 x 2 and the 1 x 1 blocks.
            calls += [("_complement_eigenvalues", False)] * 2
        if predictor == "eigvec_first_order":
            stages.append(True)
            calls.append(("_errors", True))
        stages.append(False)
        calls.append(("operator_norms" if predictor in ("eigvec_first_order", "u_ap_residual") else "_errors", False))
        assert list(zip(oracle_calls.stages, oracle_calls.vectors)) == calls
        assert [vectors for (_, vectors), _ in itertools.groupby(calls)] == stages


@pytest.fixture
def exact_stage(monkeypatch):
    """Each oracle call that ``harness._errors`` makes, as ``(matrices,
    eigenvalues)``: the stack it was given and the eigenvalues it returned."""
    calls = []
    real = jacobi._solve_stack

    def recording(a, tol=None, vectors=True):
        out = real(a, tol, vectors)
        if sys._getframe(1).f_code.co_name == "_errors":
            calls.append((np.array(a), np.array(out[1] if vectors else out)))
        return out

    monkeypatch.setattr(jacobi, "_solve_stack", recording)
    return calls


def admitted_instances(cfg, report):
    """``(A + t F, U_ap)`` of each trial that the study's guards admitted and
    each t, in stack order, from public functions; no trial of the ensembles
    below fails its fit, so the failed trials are the refused ones."""
    out = []
    for trial in sorted(set(range(cfg.trials)) - set(report.failed_trials)):
        a, f, base = warm_base(cfg, trial)
        u_ap = blockwise_diagonalize(conjugate_to_eigenbasis(base, f)).base.u
        out.extend((a + t * f, u_ap) for t in cfg.t_grid)
    return out


def study_inputs(cfg):
    """The arguments that ``convergence_study`` passes ``_errors`` when its
    guards admit every trial."""
    a, f, q = _draws(cfg, range(cfg.trials))
    v, lam = jacobi._solve_stack(alignment._conjugate(q, a))[:2]
    u = q @ v
    groups = alignment._groups(lam)
    reps, mmat, w, _ = alignment._base_data_rows(lam, groups)
    u = alignment._rotate_blocks(u, alignment._conjugate(u, f), groups)
    return np.array(cfg.t_grid), groups, a, f, u, lam, alignment._conjugate(u, f), reps, mmat, w


class TestWarmExactStage:
    """The exact solves of a study are warm: the oracle gets ``U_ap* (A + t
    F) U_ap``, a unitary similarity of the actual matrix, never ``E_hat``."""

    @pytest.mark.parametrize("predictor", PREDICTORS)
    def test_oracle_calls_keep_their_number_and_shapes(self, predictor, oracle_calls):
        convergence_study(EnsembleConfig(predictor=predictor, trials=20, **ACCEPTANCE))
        # The Q draws with the Gram matrices, the bases, the rotations of
        # the two 2-blocks, then each predictor's own stages.
        expected = [(40, 6), (20, 6), (40, 2)]
        if predictor in ("schur_full", "schur_simplified"):
            expected += [(200, 2), (200, 1)]
        if predictor != "u_ap_residual":
            expected.append((100, 6))
        if predictor in ("eigvec_first_order", "u_ap_residual"):
            expected.append((100, 6))
        assert [(len(sizes), sizes[0]) for sizes in oracle_calls] == expected

    @pytest.mark.parametrize("predictor", ["first_order", "schur_full", "eigvec_first_order"])
    @pytest.mark.parametrize(
        "ensemble", [dict(ACCEPTANCE, trials=5), PARTIAL, LARGE], ids=["acceptance", "partial", "large"]
    )
    def test_the_oracle_gets_the_conjugated_actual_matrix(self, predictor, ensemble, exact_stage):
        cfg = EnsembleConfig(predictor=predictor, **ensemble)
        report = convergence_study(cfg)
        members = admitted_instances(cfg, report)
        ((warm, _),) = exact_stage
        assert len(warm) == len(members)
        for got, (exact, u_ap) in zip(warm, members):
            assert got.tobytes() == alignment._conjugate(u_ap[None], exact[None])[0].tobytes()

    def test_warm_solves_take_fewer_sweeps(self, exact_stage):
        cfg = EnsembleConfig(predictor="first_order", trials=20, **ACCEPTANCE)
        report = convergence_study(cfg)
        ((warm, _),) = exact_stage
        cold = np.array([exact for exact, _ in admitted_instances(cfg, report)])
        # 2.35 warm against 4.9 cold when this was written.
        assert jacobi._solve_stack(warm)[2].mean() <= 3.0
        assert jacobi._solve_stack(cold)[2].mean() >= 4.5

    @pytest.mark.parametrize(
        "ensemble",
        [dict(ACCEPTANCE, trials=20), PARTIAL, SIMPLE, LARGE],
        ids=["acceptance", "partial", "simple", "large"],
    )
    def test_warm_eigenvalues_are_within_the_oracle_slack(self, ensemble, exact_stage):
        cfg = EnsembleConfig(predictor="first_order", **ensemble)
        report = convergence_study(cfg)
        ((_, warm),) = exact_stage
        cold = np.array([exact for exact, _ in admitted_instances(cfg, report)])
        slack = jacobi._eigenvalue_slack(
            cfg.n, np.abs(cold).max(axis=(1, 2)), np.linalg.norm(cold, axis=(1, 2))
        )[:, None]
        assert np.all(np.abs(warm - jacobi._solve_stack(cold, vectors=False)) <= slack)
        # LAPACK, as a reference from outside the package.
        assert np.all(np.abs(warm - np.linalg.eigvalsh(cold)[:, ::-1]) <= slack)

    def test_the_exact_stage_is_independent_of_e_hat(self, exact_stage):
        # The predictions read E_hat and the exact solves do not: an error
        # in E_hat moves the errors and leaves the oracle's input alone.
        grid, groups, *args = study_inputs(EnsembleConfig(predictor="first_order", trials=20, **ACCEPTANCE))
        errors = harness._errors("first_order", grid, groups, *args)
        args[4] = args[4] * 1.01
        skewed = harness._errors("first_order", grid, groups, *args)
        (warm, lams), (skewed_warm, skewed_lams) = exact_stage
        assert skewed_warm.tobytes() == warm.tobytes()
        assert skewed_lams.tobytes() == lams.tobytes()
        assert np.all(skewed != errors)


@pytest.fixture
def base_stage(monkeypatch):
    """Each oracle call that ``convergence_study`` itself makes, as
    ``(matrices, vectors, outputs)``."""
    calls = []
    real = jacobi._solve_stack

    def recording(a, tol=None, vectors=True):
        out = real(a, tol, vectors)
        if sys._getframe(1).f_code.co_name == "convergence_study":
            calls.append((np.array(a), vectors, out))
        return out

    monkeypatch.setattr(jacobi, "_solve_stack", recording)
    return calls


class TestWarmBaseStage:
    """The base stage of a study is warm: the oracle gets ``Q* A Q`` with
    each trial's drawn ``Q``, diagonal to round-off, and its eigenvectors
    ``V`` map back as ``Q V``."""

    @pytest.mark.parametrize(
        "ensemble", [dict(ACCEPTANCE, trials=5), PARTIAL, LARGE], ids=["acceptance", "partial", "large"]
    )
    def test_the_oracle_gets_q_star_a_q(self, ensemble, base_stage):
        cfg = EnsembleConfig(predictor="first_order", **ensemble)
        convergence_study(cfg)
        ((warm, vectors, _),) = base_stage
        a, _, q = _draws(cfg, range(cfg.trials))
        assert vectors and warm.shape == (cfg.trials, cfg.n, cfg.n)
        assert warm.tobytes() == alignment._conjugate(q, a).tobytes()

    def test_the_base_takes_no_sweeps(self, base_stage):
        cfg = EnsembleConfig(predictor="first_order", trials=20, **ACCEPTANCE)
        convergence_study(cfg)
        ((_, _, (_, _, sweeps, _)),) = base_stage
        a = _instances(cfg, range(cfg.trials))[0]
        # 0 warm against 4.5 cold when this was written.
        assert sweeps.mean() == 0.0
        assert jacobi._solve_stack(a)[2].mean() >= 4.0

    @pytest.mark.parametrize(
        "ensemble",
        [dict(ACCEPTANCE, trials=20), PARTIAL, SIMPLE, LARGE],
        ids=["acceptance", "partial", "simple", "large"],
    )
    def test_base_eigenvalues_are_within_the_oracle_slack(self, ensemble, base_stage):
        cfg = EnsembleConfig(predictor="first_order", **ensemble)
        convergence_study(cfg)
        ((_, _, (_, warm, _, _)),) = base_stage
        a = _instances(cfg, range(cfg.trials))[0]
        slack = jacobi._eigenvalue_slack(cfg.n, np.abs(a).max(axis=(1, 2)), np.linalg.norm(a, axis=(1, 2)))[:, None]
        assert np.all(np.abs(warm - jacobi._solve_stack(a, vectors=False)) <= slack)
        # LAPACK, as a reference from outside the package.
        assert np.all(np.abs(warm - np.linalg.eigvalsh(a)[:, ::-1]) <= slack)


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
