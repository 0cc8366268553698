import numpy as np
import pytest

from conftest import (
    SCALE_EXPONENTS,
    STACK_SPECS,
    complements_loop,
    degenerate_instance,
    rand_hermitian,
    scaled_record,
)
from eigpert import (
    ConvergenceError,
    EnsembleConfig,
    GapTooSmallError,
    SpectralDecomposition,
    aligned_perturbation,
    blockwise_diagonalize,
    conjugate_to_eigenbasis,
    eigh,
    first_order_eigenvalues,
    generate_instance,
    hermitian,
    operator_norm,
    refined_eigenvalues,
    scaled,
    schur_data,
    schur_similarity_diagnostic,
)
from eigpert import schur

EXAMPLE_A3 = np.diag([0.0, 0.0, 1.0])
EXAMPLE_F3 = np.array([[1, 0, 1], [0, 0, 1], [1, 1, 0]], dtype=float)


def block_first_order(ap, block_index):
    start, stop = ap.blocks.groups[block_index]
    rest = np.r_[np.arange(0, start), np.arange(stop, ap.n)]
    return np.concatenate([np.arange(start, stop), rest])


class TestSchurData:
    def test_two_level_scalar_complement(self):
        a = np.diag([3.0, 1.0])
        e = hermitian([[0.0, 0.1], [0.1, 0.0]])
        ap = aligned_perturbation(a, e)
        lo = schur_data(ap, 1)
        assert (lo.l, lo.m) == (1, 1)
        assert lo.rho == 1.0
        assert np.array_equal(lo.lambda_tau, [3.0])
        assert lo.b[0, 0] == pytest.approx(-0.005, abs=1e-16)
        hi = schur_data(ap, 0)
        assert hi.b[0, 0] == pytest.approx(0.005, abs=1e-16)

    def test_worked_example_block_complement(self):
        for t in (0.1, 0.01):
            ap = aligned_perturbation(EXAMPLE_A3, hermitian(t * EXAMPLE_F3))
            sd = schur_data(ap, 1)
            assert (sd.l, sd.m) == (2, 1)
            assert sd.rho == 0.0
            want = np.array([[t - t * t, -t * t], [-t * t, -t * t]])
            assert np.abs(sd.b - want).max() <= 1e-10

    def test_zero_perturbation(self):
        ap = aligned_perturbation(np.diag([4.0, 4.0, 1.0]), np.zeros((3, 3)))
        sd = schur_data(ap, 0)
        assert np.all(sd.b == 0) and np.all(sd.c == 0) and np.all(sd.d == 0)
        assert np.all(sd.beta == 0)

    def test_margin_guard(self):
        a = np.diag([1.0, 0.0])
        e = hermitian([[0.0, 0.6], [0.6, 0.0]])
        ap = aligned_perturbation(a, e)
        with pytest.raises(GapTooSmallError, match="separation"):
            schur_data(ap, 0)
        # a smaller perturbation clears the margin
        assert schur_data(scaled(ap, 0.5), 0).m == 1

    def test_block_index_out_of_range(self):
        ap = aligned_perturbation(np.diag([1.0, 0.0]), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="out of range"):
            schur_data(ap, 2)

    @pytest.mark.parametrize("index", [1.0, "1", None], ids=["float", "str", "none"])
    def test_block_index_must_be_an_integer(self, index):
        # Anything without __index__ is refused by name, before any indexing.
        ap = aligned_perturbation(np.diag([1.0, 0.0]), np.zeros((2, 2)))
        for call in (schur_data, schur_similarity_diagnostic):
            with pytest.raises(ValueError, match="block index must be an integer"):
                call(ap, index)

    @pytest.mark.parametrize("index", [True, np.int64(1), np.uint8(1)], ids=["bool", "int64", "uint8"])
    def test_integer_types_index_as_plain_ints(self, index):
        # Any integer type, bool included, indexes as the plain int it
        # converts to, and the record stores that int.
        ap = aligned_perturbation(np.diag([3.0, 1.0]), hermitian([[0.0, 0.1], [0.1, 0.0]]))
        sd, want = schur_data(ap, index), schur_data(ap, 1)
        assert type(sd.block_index) is int and sd.block_index == 1
        assert (sd.rho, sd.b.tobytes(), sd.beta.tobytes()) == (want.rho, want.b.tobytes(), want.beta.tobytes())
        got = schur_similarity_diagnostic(ap, index).transformed
        assert got.tobytes() == schur_similarity_diagnostic(ap, 1).transformed.tobytes()

    def test_partition_reconstructs_e_hat(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            a, f = degenerate_instance(rng, (2, 2, 1))
            ap = aligned_perturbation(a, hermitian(0.1 * f))
            for g, (start, stop) in enumerate(ap.blocks.groups):
                sd = schur_data(ap, g)
                k = np.diag((sd.lambda_tau - sd.rho).astype(complex)) + sd.d
                e11 = sd.b + sd.c @ np.linalg.solve(k, sd.c.conj().T)
                assert np.abs(e11 - ap.e_hat[start:stop, start:stop]).max() <= 1e-12 * ap.e_norm
                order = block_first_order(ap, g)
                assert np.array_equal(sd.c, ap.e_hat[order[: sd.l][:, None], order[sd.l :]])
                assert np.array_equal(sd.d, ap.e_hat[order[sd.l :][:, None], order[sd.l :]])

    def test_scalar_complement_is_its_oracle_eigenvalue(self):
        rng = np.random.default_rng(59)
        a, f = degenerate_instance(rng, (2, 1, 1))
        ap = scaled(aligned_perturbation(a, f), 0.05)
        for g in (1, 2):
            sd = schur_data(ap, g)
            assert np.array_equal(sd.beta, eigh(sd.b).lam)

    def test_beta_sorted_nonincreasing(self):
        rng = np.random.default_rng(31)
        a, f = degenerate_instance(rng, (3, 1))
        ap = aligned_perturbation(a, hermitian(0.05 * f))
        sd = schur_data(ap, 0)
        assert np.all(np.diff(sd.beta) <= 0)


class TestRefinedEigenvalues:
    def test_two_level_values_and_accuracy(self):
        a = np.diag([3.0, 1.0])
        e = hermitian([[0.0, 0.1], [0.1, 0.0]])
        ap = aligned_perturbation(a, e)
        refined = refined_eigenvalues(ap)
        assert np.abs(refined - [3.005, 0.995]).max() <= 1e-12
        exact = np.array([2.0 + np.sqrt(1.01), 2.0 - np.sqrt(1.01)])
        # error bound ||B|| ||C||^2 = 0.005 * 0.01
        assert np.abs(refined - exact).max() <= 5e-5

    def test_zero_perturbation_diagonal_base(self):
        ap = aligned_perturbation(np.diag([4.0, 4.0, 1.0]), np.zeros((3, 3)))
        for variant in ("full", "simplified"):
            assert np.array_equal(refined_eigenvalues(ap, variant), [4.0, 4.0, 1.0])

    def test_single_block_matches_oracle(self):
        rng = np.random.default_rng(37)
        a = 2.0 * np.eye(3)
        e = rand_hermitian(rng, 3, scale=0.1)
        ap = aligned_perturbation(a, e)
        refined = refined_eigenvalues(ap)
        assert np.abs(refined - eigh(a + e).lam).max() <= 1e-12

    def test_beats_first_order_by_a_power(self):
        rng = np.random.default_rng(41)
        for _ in range(8):
            a, f = degenerate_instance(rng, (2, 2))
            ap = aligned_perturbation(a, hermitian(0.1 * f))
            gap = np.abs(refined_eigenvalues(ap) - first_order_eigenvalues(ap)).max()
            assert gap <= 3.0 * ap.e_norm**2

    def test_simplified_tracks_full_cubically(self):
        rng = np.random.default_rng(43)
        for _ in range(8):
            a, f = degenerate_instance(rng, (2, 1, 2))
            ap = aligned_perturbation(a, hermitian(0.1 * f))
            gap = np.abs(
                refined_eigenvalues(ap, "full") - refined_eigenvalues(ap, "simplified")
            ).max()
            assert gap <= 2.0 * ap.e_norm**3

    def test_simplified_complement_formula(self):
        # B_tilde rebuilt by hand from the partition must match the package's
        # simplified refinement route
        rng = np.random.default_rng(47)
        a, f = degenerate_instance(rng, (2, 2))
        ap = aligned_perturbation(a, hermitian(0.1 * f))
        simplified = refined_eigenvalues(ap, "simplified")
        for g, (start, stop) in enumerate(ap.blocks.groups):
            sd = schur_data(ap, g)
            w = 1.0 / (sd.lambda_tau - sd.rho)
            b_tilde = ap.e_hat[start:stop, start:stop] - (sd.c * w) @ sd.c.conj().T
            b_tilde = 0.5 * (b_tilde + b_tilde.conj().T)
            beta = eigh(b_tilde).lam
            assert np.abs(simplified[start:stop] - (sd.rho + beta)).max() <= 1e-14
            assert np.abs(b_tilde - sd.b).max() <= 2.0 * ap.e_norm**3

    def test_oracle_error_at_small_t(self):
        rng = np.random.default_rng(53)
        a, f = degenerate_instance(rng, (2, 2, 1))
        ap = aligned_perturbation(a, f)
        t = 1e-3
        ap_t = scaled(ap, t)
        refined = refined_eigenvalues(ap_t)
        exact = eigh(a + t * f).lam
        for g, (start, stop) in enumerate(ap_t.blocks.groups):
            sd = schur_data(ap_t, g)
            bound = 10.0 * max(operator_norm(sd.b), 1e-300) * operator_norm(sd.c) ** 2
            assert np.abs(refined[start:stop] - exact[start:stop]).max() <= max(bound, 1e-13)

    def test_unknown_variant(self):
        ap = aligned_perturbation(np.diag([1.0, 0.0]), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="variant"):
            refined_eigenvalues(ap, "quadratic")


class TestSimilarityDiagnostic:
    def test_zero_perturbation(self):
        ap = aligned_perturbation(np.diag([4.0, 4.0, 1.0]), np.zeros((3, 3)))
        diag = schur_similarity_diagnostic(ap, 0)
        assert np.array_equal(diag.transformed, np.diag([4.0, 4.0, 1.0]).astype(complex))
        assert diag.q2_norm == 0.0 and diag.q3_norm == 0.0

    def test_single_block_corner_case(self):
        rng = np.random.default_rng(59)
        e = rand_hermitian(rng, 3, scale=0.05)
        ap = aligned_perturbation(2.0 * np.eye(3), e)
        diag = schur_similarity_diagnostic(ap, 0)
        assert diag.q2_norm == 0.0 and diag.q3_norm == 0.0
        assert np.abs(diag.transformed - (ap.e_hat + 2.0 * np.eye(3))).max() <= 1e-15

    def test_explicit_similarity_of_permuted_problem(self):
        rng = np.random.default_rng(61)
        for _ in range(6):
            a, f = degenerate_instance(rng, (2, 2, 1))
            e = hermitian(0.1 * f)
            ap = aligned_perturbation(a, e)
            for g in range(len(ap.blocks.groups)):
                sd = schur_data(ap, g)
                diag = schur_similarity_diagnostic(ap, g)
                k = np.diag((sd.lambda_tau - sd.rho).astype(complex)) + sd.d
                w = np.linalg.solve(k, sd.c.conj().T)
                eye_l = np.eye(sd.l)
                eye_m = np.eye(sd.m)
                e11 = ap.e_hat[slice(*ap.blocks.groups[g]), slice(*ap.blocks.groups[g])]
                x = np.block([[e11, sd.c], [sd.c.conj().T, k]])
                p = np.block([[eye_l, np.zeros((sd.l, sd.m))], [w, eye_m]])
                p_inv = np.block([[eye_l, np.zeros((sd.l, sd.m))], [-w, eye_m]])
                rebuilt = p @ x @ p_inv + sd.rho * np.eye(ap.n)
                assert np.abs(diag.transformed - rebuilt).max() <= 1e-10
                # the conjugated matrix keeps the spectrum of A + E
                order = block_first_order(ap, g)
                h_perm = np.diag(ap.base.lam[order].astype(complex)) + ap.e_hat[
                    order[:, None], order[None, :]
                ]
                assert np.abs(eigh(h_perm).lam - eigh(a + e).lam).max() <= 1e-12

    def test_runs_the_fixed_point_once(self, monkeypatch):
        calls = []
        real = schur._fixed_point

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(schur, "_fixed_point", counting)
        ap = aligned_perturbation(EXAMPLE_A3, hermitian(0.1 * EXAMPLE_F3))
        schur_similarity_diagnostic(ap, 0)
        assert len(calls) == 1

    def test_block_norms(self):
        rng = np.random.default_rng(67)
        a, f = degenerate_instance(rng, (2, 2))
        ap = aligned_perturbation(a, hermitian(0.1 * f))
        sd = schur_data(ap, 0)
        diag = schur_similarity_diagnostic(ap, 0)
        assert diag.q2_norm == operator_norm(sd.c)
        assert diag.q3_norm <= 5.0 * operator_norm(sd.b) * operator_norm(sd.c)
        # leading corner is exactly B + rho I
        corner = diag.transformed[: sd.l, : sd.l] - sd.rho * np.eye(sd.l)
        assert np.abs(corner - sd.b).max() <= 1e-13


def diagonal_problem(sizes, e_norm, seed):
    """Aligned perturbation over the base ``SpectralDecomposition(I, lam)``,
    ``lam`` with the multiplicities ``sizes`` and representative values a
    unit apart, and ``E`` a random Hermitian matrix with ``||E|| = e_norm``."""
    rng = np.random.default_rng(seed)
    lam = np.repeat(-np.arange(len(sizes), dtype=float), sizes)
    n = lam.size
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    e = 0.5 * (g + g.conj().T)
    e = e * (e_norm / max(np.abs(np.linalg.eigvalsh(e)).max(), 1e-300))
    base = SpectralDecomposition(u=np.eye(n, dtype=complex), lam=lam)
    return conjugate_to_eigenbasis(base, hermitian(e))


def solved_complement(ap, g):
    """The symmetrized ``B = E11 - C K^{-1} C*`` of block ``g`` by one dense
    solve with ``K``: the fixed point's reference."""
    start, stop = ap.blocks.groups[g]
    rest = np.r_[0:start, stop : ap.n]
    e11 = ap.e_hat[start:stop, start:stop]
    if rest.size == 0:
        return np.array(e11)
    c = ap.e_hat[start:stop, rest]
    k = np.diag(ap.base.lam[rest] - ap.blocks.rep_values[g]) + ap.e_hat[np.ix_(rest, rest)]
    b = e11 - c @ np.linalg.solve(k, c.conj().T)
    return 0.5 * (b + b.conj().T)


def by_block(sized):
    """The complements that ``schur._complements_stack`` returns per block
    size, as one per block in block order."""
    starts = {int(rows[0]): b[..., i, :, :] for index, b in sized for i, rows in enumerate(index)}
    return [starts[start] for start in sorted(starts)]


def complements(ap, variant="full"):
    """The complements that :func:`refined_eigenvalues` forms for ``ap`` on
    the stacked Schur path, as one per block in block order."""
    _, parts = schur._refined(ap, variant)
    return by_block([(index, b[0, 0]) for index, b, _ in parts])


def weights(aps):
    """The stacked ``W`` of the records ``aps``, from their base-only data."""
    return np.array([ap.data.w for ap in aps])


class TestFixedPoint:
    @pytest.mark.parametrize(
        "sizes, e_norm",
        [
            ((4,) * 15, 0.05),
            ((2, 2, 1, 1), 0.1),
            ((1,) * 7, 0.1),
            ((10,) * 6, 0.05),
            ((5,), 0.3),
            ((2, 2, 1, 1), 0.0),
            # 2 ||E|| = 0.9998 * margin: the slowest contraction the guard admits.
            ((10, 4, 2, 1), 0.4999),
        ],
        ids=["4x15", "2211", "1x7", "10x6", "one_block", "zero", "margin_edge"],
    )
    def test_matches_per_block_solves(self, sizes, e_norm):
        ap = diagonal_problem(sizes, e_norm, seed=len(sizes))
        bs = complements(ap)
        for g in range(len(sizes)):
            want = solved_complement(ap, g)
            tol = 1e-14 * max(float(np.abs(want).max()), 1e-300)
            assert np.abs(bs[g] - want).max() <= tol
            assert np.abs(schur_data(ap, g).b - want).max() <= tol
        if e_norm == 0.0:
            assert all(np.all(b == 0) for b in bs)

    def test_stops_on_a_round_off_cycle(self):
        # A prediction at n = 60 whose iterates end up flipping by two ulps of
        # the largest entry of X: a stop rule of eps * max|X| never fires.
        cfg = EnsembleConfig(seed=1, n=60, block_spec=(4,) * 15, trials=1, predictor="first_order")
        a, _ = generate_instance(cfg, 0)
        rng = np.random.default_rng([1, 522])
        g = rng.standard_normal((60, 60)) + 1j * rng.standard_normal((60, 60))
        h = 0.5 * (g + g.conj().T)
        ap = blockwise_diagonalize(conjugate_to_eigenbasis(eigh(a), (0.05 / np.linalg.norm(h, 2)) * h))
        bs = complements(ap)
        for k, b in enumerate(bs):
            want = solved_complement(ap, k)
            assert np.abs(b - want).max() <= 1e-14 * float(np.abs(want).max())

    def test_iteration_cap_raises(self, monkeypatch):
        ap = diagonal_problem((2, 2, 1, 1), 0.1, seed=5)
        monkeypatch.setattr(schur, "MAX_ITERATIONS", 1)
        with pytest.raises(ConvergenceError, match="after 1 iterations"):
            refined_eigenvalues(ap, "full")
        with pytest.raises(ConvergenceError):
            schur_data(ap, 0)
        # The simplified variant is one iteration and never reaches the cap.
        refined_eigenvalues(ap, "simplified")

    def test_stacked_members_keep_their_solo_bits(self, monkeypatch):
        # Members closer to the margin contract more slowly, so each stops
        # after its own number of iterations; a stopped member is never
        # touched again.
        aps = [diagonal_problem((2, 2, 1, 1), e_norm, seed=3) for e_norm in (0.01, 0.2, 0.3, 0.1)]
        e_hat = np.stack([ap.e_hat for ap in aps])
        w = weights(aps)

        def iterations(k):
            for cap in range(1, 61):
                monkeypatch.setattr(schur, "MAX_ITERATIONS", cap)
                try:
                    schur._fixed_point(e_hat[k : k + 1], w[k : k + 1], 0, 6, "full")
                    return cap
                except ConvergenceError:
                    pass
            raise AssertionError("no convergence")

        counts = [iterations(k) for k in range(len(aps))]
        assert len(set(counts)) == len(counts)
        monkeypatch.setattr(schur, "MAX_ITERATIONS", 60)
        for lo, hi in ((0, 4), (1, 3), (2, 4)):
            stacked = schur._fixed_point(e_hat[lo:hi], w[lo:hi], 0, 6, "full")
            for k in range(lo, hi):
                alone = schur._fixed_point(e_hat[k : k + 1], w[k : k + 1], 0, 6, "full")
                assert np.array_equal(stacked[k - lo], alone[0])
        # A cap that stops the slowest member alone names it.
        monkeypatch.setattr(schur, "MAX_ITERATIONS", max(counts) - 1)
        with pytest.raises(ConvergenceError) as info:
            schur._fixed_point(e_hat, w, 0, 6, "full")
        assert info.value.member == int(np.argmax(counts))


class TestStackedComplements:
    """The complements of all the blocks of one size come from one batched
    product, with the bits of one product per block on views of the whole
    ``E_hat`` and ``X``."""

    @pytest.mark.parametrize("variant", ["full", "simplified"])
    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("members", [1, 100])
    @pytest.mark.parametrize("n", sorted(STACK_SPECS))
    def test_matches_the_block_loop(self, monkeypatch, n, members, layout, variant):
        # The loop runs on the fixed point that the stacked call computes.
        points = []
        real = schur._fixed_point

        def recording(*args):
            points.append(real(*args))
            return points[-1]

        monkeypatch.setattr(schur, "_fixed_point", recording)
        spec = STACK_SPECS[n]
        rng = np.random.default_rng([n, members])
        # A lone member at each scale, or one stack that cycles through them.
        runs = [[x] for x in SCALE_EXPONENTS] if members == 1 else [np.resize(SCALE_EXPONENTS, members)]
        for exponents in runs:
            aps = [scaled_record(rng, spec, int(x)) for x in exponents]
            e_hat = np.stack([ap.e_hat for ap in aps])
            if layout == "F":
                e_hat = np.ascontiguousarray(e_hat.swapaxes(1, 2)).swapaxes(1, 2)
            w = weights(aps)
            groups = aps[0].blocks.groups
            got = by_block(schur._complements_stack(e_hat, w, groups, variant))
            want = complements_loop(e_hat, points[-1], groups)
            assert len(got) == len(groups)
            for b, ref in zip(got, want):
                assert np.ascontiguousarray(b).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("spec, sizes", [((4,) * 15, 1), (STACK_SPECS[60], 3), ((3, 2, 1), 3), ((5,), 1)])
    def test_one_product_per_block_size(self, monkeypatch, spec, sizes):
        calls = []
        real = schur._complement

        def counting(*args):
            calls.append(args[1].shape)
            return real(*args)

        monkeypatch.setattr(schur, "_complement", counting)
        ap = scaled_record(np.random.default_rng(3), spec, 0)
        for variant in ("full", "simplified"):
            calls.clear()
            refined_eigenvalues(ap, variant)
            assert len(calls) == sizes
            assert sum(k for k, _ in calls) == len(spec)
