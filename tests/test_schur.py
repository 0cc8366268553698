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
    vc_membership,
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
        real = schur._iterate

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(schur, "_iterate", counting)
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
    """The complements ``(index, b)`` that ``schur._complements`` forms per
    block size, as one per block in block order."""
    starts = {int(rows[0]): b[..., i, :, :] for index, b in sized for i, rows in enumerate(index)}
    return [starts[start] for start in sorted(starts)]


def complements(ap, variant="full"):
    """The complements that :func:`refined_eigenvalues` forms for ``ap`` on
    the stacked Schur path, as one per block in block order."""
    _, parts = schur._refined(ap, (variant,))
    return by_block([(index, b[0, 0]) for index, b, _ in parts])


def weights(aps):
    """The stacked ``W`` of the records ``aps``, from their base-only data."""
    return np.array([ap.data.w for ap in aps])


def fixed_point(e_hat, w):
    """The full variant's fixed point of the stack ``e_hat`` with weights
    ``w``, iterated from its first iterate as the refinement does."""
    return schur._iterate(e_hat, w, slice(None), w * e_hat)


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

    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_stacked_members_keep_their_solo_bits(self, monkeypatch, layout):
        # Members closer to the margin contract more slowly, so each stops
        # after its own number of iterations; a stopped member is never
        # touched again, and no input is ever written to.
        aps = [diagonal_problem((2, 2, 1, 1), e_norm, seed=3) for e_norm in (0.01, 0.2, 0.3, 0.1)]
        e_hat = np.asarray(np.stack([ap.e_hat for ap in aps]), order=layout)
        w = np.asarray(weights(aps), order=layout)
        inputs = (e_hat, w, w * e_hat)
        before = [a.tobytes() for a in inputs]

        def solve(part):
            e, ws, x = (a[part] for a in inputs)
            return schur._iterate(e, ws, slice(None), x)

        def iterations(k):
            for cap in range(1, 61):
                monkeypatch.setattr(schur, "MAX_ITERATIONS", cap)
                try:
                    solve(slice(k, k + 1))
                    return cap
                except ConvergenceError:
                    pass
            raise AssertionError("no convergence")

        counts = [iterations(k) for k in range(len(aps))]
        assert len(set(counts)) == len(counts)
        monkeypatch.setattr(schur, "MAX_ITERATIONS", 60)
        for lo, hi in ((0, 4), (1, 3), (2, 4)):
            stacked = solve(slice(lo, hi))
            for k in range(lo, hi):
                alone = solve(slice(k, k + 1))
                assert np.array_equal(stacked[k - lo], alone[0])
        assert [a.tobytes() for a in inputs] == before
        # A cap that stops the slowest member alone names it.
        monkeypatch.setattr(schur, "MAX_ITERATIONS", max(counts) - 1)
        with pytest.raises(ConvergenceError) as info:
            solve(slice(None))
        assert info.value.member == int(np.argmax(counts))


    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("cap", [60, 3, 8])
    def test_stop_test_decides_as_the_moduli(self, monkeypatch, layout, cap):
        # The bounds from the larger real or imaginary parts must never stop
        # a member, or keep one going, other than the moduli would, down to
        # updates in the subnormal range; a capped run reports the same
        # update of the same member.
        aps = [diagonal_problem((3, 2, 1, 1), e_norm, seed=7) for e_norm in (0.01, 0.3, 1e-300, 0.1, 0.0, 0.45)]
        e_hat = np.asarray(np.stack([ap.e_hat for ap in aps]), order=layout)
        w = np.asarray(weights(aps), order=layout)
        x = w * e_hat
        monkeypatch.setattr(schur, "MAX_ITERATIONS", cap)
        try:
            want = moduli_fixed_point(e_hat, w, x)
        except ConvergenceError as error:
            with pytest.raises(ConvergenceError) as info:
                schur._iterate(e_hat, w, slice(None), x)
            assert (str(info.value), info.value.member) == (str(error), error.member)
            assert info.value.off_mass == error.off_mass
        else:
            assert schur._iterate(e_hat, w, slice(None), x).tobytes() == want.tobytes()


def moduli_fixed_point(e_hat, w, x):
    """The fixed point of ``schur._iterate`` with its stop test on the
    moduli of every pass, as a reference."""
    live, step = np.arange(len(x)), np.full(len(x), np.inf)
    for _ in range(1, schur.MAX_ITERATIONS):
        whole = live.size == len(x)
        part = slice(None) if whole else live
        prev = x[part]
        new = w[part] * (e_hat[part] - e_hat[part] @ prev)
        step = np.abs(new - prev).max(axis=(1, 2))
        if whole:
            x = new
        else:
            x[live] = new
        going = step > schur._STOP_TOL * np.abs(new).max(axis=(1, 2))
        live, step = live[going], step[going]
        if live.size == 0:
            return x
    message = f"Schur fixed point: stack member {live[0]} of {len(x)}: update {step[0]:.3e} after {schur.MAX_ITERATIONS} iterations"
    raise ConvergenceError(message, off_mass=float(step[0]), member=int(live[0]))


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
        real = schur._complements

        def recording(e_hat, xs, groups):
            points.append(xs[0])
            return real(e_hat, xs, groups)

        monkeypatch.setattr(schur, "_complements", recording)
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
            reps = np.array([ap.blocks.rep_values for ap in aps])
            [(_, parts)] = schur._refined_stack(e_hat[:, None], w, reps, groups, (variant,))
            got = by_block([(index, b[:, 0]) for index, b, _ in parts])
            want = complements_loop(e_hat, points[-1], groups)
            assert len(got) == len(groups)
            for b, ref in zip(got, want):
                assert np.ascontiguousarray(b).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("spec, sizes", [((4,) * 15, 1), (STACK_SPECS[60], 3), ((3, 2, 1), 3), ((5,), 1)])
    def test_one_product_per_block_size(self, monkeypatch, spec, sizes):
        calls = []
        real = schur._complement

        def counting(*args):
            # The blocks in the product, and the fixed points it serves.
            calls.append((len(args[1]), len(args[3])))
            return real(*args)

        monkeypatch.setattr(schur, "_complement", counting)
        ap, fresh = (scaled_record(np.random.default_rng(3), spec, 0) for _ in range(2))
        # The full variant forms its own and the simplified complements in
        # one product per block size; the simplified variant then reuses
        # them, and on a record of its own forms its own alone.
        for record, variant, points, products in ((ap, "full", 2, 1), (ap, "simplified", 2, 0), (fresh, "simplified", 1, 1)):
            calls.clear()
            refined_eigenvalues(record, variant)
            assert len(calls) == products * sizes
            assert sum(k for k, _ in calls) == products * len(spec)
            assert all(v == points for _, v in calls)


def stacked(ap, variant):
    """The record path without the shared refinement: the stacked path on
    ``ap`` as a stack of one, each variant from its own fixed point and
    oracle call."""
    reps = np.array([ap.blocks.rep_values])
    return schur._refined_stack(ap.e_hat[None, None], ap.data.w[None], reps, ap.blocks.groups, (variant,))[0]


def fresh_record(spec=STACK_SPECS[60]):
    """A new record, equal in every byte to every other one it returns."""
    return blockwise_diagonalize(scaled_record(np.random.default_rng(29), spec, 0))


def no_fixed_point(*args):
    raise AssertionError("the fixed point ran")


class TestSharedRefinement:
    """The full variant serves the simplified one and the cone test from one
    fixed point and one oracle call per block size, kept per record."""

    @pytest.mark.parametrize("n", sorted(STACK_SPECS))
    def test_simplified_after_full_makes_no_oracle_call(self, monkeypatch, oracle_calls, n):
        ap = fresh_record(STACK_SPECS[n])
        full = refined_eigenvalues(ap, "full")
        # One call per block size, each solving both variants' complements.
        sizes = len(set(STACK_SPECS[n]))
        assert oracle_calls.stages[-sizes:] == ["_complement_eigenvalues"] * sizes
        assert sum(oracle_calls[-sizes:], []) == sorted(2 * STACK_SPECS[n], key=STACK_SPECS[n].index)
        # vc_membership reads the norm from the oracle; it is solved here.
        ap.e_norm
        oracle_calls.clear()
        monkeypatch.setattr(schur, "_refined_stack", no_fixed_point)
        monkeypatch.setattr(schur, "_iterate", no_fixed_point)
        simplified = refined_eigenvalues(ap, "simplified")
        report = vc_membership(ap, 0.1, 0.5)
        assert refined_eigenvalues(ap, "full").tobytes() == full.tobytes()
        assert oracle_calls == []
        monkeypatch.undo()
        assert simplified.tobytes() == refined_eigenvalues(fresh_record(STACK_SPECS[n]), "simplified").tobytes()
        assert report == vc_membership(fresh_record(STACK_SPECS[n]), 0.1, 0.5)

    @pytest.mark.parametrize("first, then", [("simplified", "full"), ("vc_membership", "simplified")])
    def test_a_call_solves_only_what_the_record_lacks(self, oracle_calls, first, then):
        # The simplified variant alone and vc_membership compute one variant;
        # a full call after a simplified one computes the full one alone.
        spec = STACK_SPECS[60]
        one_variant = sorted(spec, key=spec.index)
        ap = fresh_record(spec)
        ap.e_norm
        for call in (first, then):
            oracle_calls.clear()
            vc_membership(ap, 0.1, 0.5) if call == "vc_membership" else refined_eigenvalues(ap, call)
            assert sum(oracle_calls, []) == one_variant
        oracle_calls.clear()
        for variant in ("full", "simplified"):
            refined_eigenvalues(ap, variant)
        vc_membership(ap, 0.1, 0.5)
        assert oracle_calls == []

    @pytest.mark.parametrize("n", sorted(STACK_SPECS))
    @pytest.mark.parametrize("variant", ["full", "simplified"])
    def test_fresh_records_keep_the_stacked_bits(self, n, variant):
        pred, parts = stacked(fresh_record(STACK_SPECS[n]), variant)
        assert refined_eigenvalues(fresh_record(STACK_SPECS[n]), variant).tobytes() == pred[0, 0].tobytes()
        # Either variant first, then the other, on one record.
        ap = fresh_record(STACK_SPECS[n])
        other = "simplified" if variant == "full" else "full"
        refined_eigenvalues(ap, other)
        got, got_parts = schur._refined(ap, (variant,))
        assert refined_eigenvalues(ap, variant).tobytes() == pred[0, 0].tobytes()
        for (index, b, beta), (want_index, want_b, want_beta) in zip(got_parts, parts, strict=True):
            assert np.array_equal(index, want_index)
            assert b.tobytes() == want_b.tobytes() and beta.tobytes() == want_beta.tobytes()

    @pytest.mark.parametrize("n", sorted(STACK_SPECS))
    def test_vc_membership_keeps_the_stacked_report(self, monkeypatch, n):
        report = vc_membership(fresh_record(STACK_SPECS[n]), 0.1, 0.5)
        monkeypatch.setattr(schur, "_refined", lambda ap, variants: stacked(ap, variants[0]))
        assert report == vc_membership(fresh_record(STACK_SPECS[n]), 0.1, 0.5)

    @pytest.mark.parametrize("derive", [blockwise_diagonalize, lambda ap: scaled(ap, 0.5)], ids=["blockwise", "scaled"])
    def test_derived_records_recompute(self, oracle_calls, derive):
        ap = fresh_record()
        refined_eigenvalues(ap, "full")
        derived = derive(ap)
        oracle_calls.clear()
        simplified = refined_eigenvalues(derived, "simplified")
        assert oracle_calls.stages == ["_complement_eigenvalues"] * len(set(STACK_SPECS[60]))
        assert simplified.tobytes() == stacked(derived, "simplified")[0][0, 0].tobytes()

    def test_a_failed_full_caches_nothing(self, monkeypatch):
        ap = diagonal_problem((2, 2, 1, 1), 0.1, seed=5)
        monkeypatch.setattr(schur, "MAX_ITERATIONS", 1)
        with pytest.raises(ConvergenceError, match="after 1 iterations"):
            refined_eigenvalues(ap, "full")
        assert ap not in schur._REFINED
        want = stacked(diagonal_problem((2, 2, 1, 1), 0.1, seed=5), "simplified")[0][0, 0]
        assert refined_eigenvalues(ap, "simplified").tobytes() == want.tobytes()
        with pytest.raises(ConvergenceError, match="after 1 iterations"):
            refined_eigenvalues(ap, "full")
        monkeypatch.undo()
        assert refined_eigenvalues(ap, "full").tobytes() == stacked(ap, "full")[0][0, 0].tobytes()

    @pytest.mark.parametrize("variant", ["full", "simplified"])
    def test_repeated_calls_return_fresh_writable_arrays(self, variant):
        ap = fresh_record()
        first = refined_eigenvalues(ap, variant)
        want = first.tobytes()
        first[:] = np.nan
        second = refined_eigenvalues(ap, variant)
        assert second.flags.writeable and not np.shares_memory(first, second)
        assert second.tobytes() == want
        assert refined_eigenvalues(ap, variant).tobytes() == want


ONE_PATH_SPECS = [(2, 2, 1, 1), (3, 2, 1), (5,), (4,) * 15, (4, 3, 2, 1) * 6]


def study_stack(spec, k, s):
    """A ``(k, s)`` study stack of ``spec``: row ``i`` is a base of its own,
    with its own ``W``, and its members the records of that base's ``E``
    scaled by ``s`` factors.  Returns the stacked ``E_hat``, ``W`` and
    representative values, and the records row by row."""
    records = []
    for i in range(k):
        ap = scaled_record(np.random.default_rng([len(spec), i]), spec, (0, 3, -2)[i])
        records.append([scaled(ap, t) for t in (1.0, 0.5, 0.25, 0.7, 0.125)[:s]])
    e_hat = np.array([[r.e_hat for r in row] for row in records])
    w = np.array([row[0].data.w for row in records])
    reps = np.array([row[0].blocks.rep_values for row in records])
    return e_hat, w, reps, records


def same_parts(got, want):
    for (index, b, beta), (want_index, want_b, want_beta) in zip(got, want, strict=True):
        assert np.array_equal(index, want_index)
        assert b.tobytes() == want_b.tobytes() and beta.tobytes() == want_beta.tobytes()


class TestOnePath:
    """Records and studies refine through one call for any set of variants:
    a variant asked for with another keeps the bytes it has alone, and a
    study member the bytes of its own record."""

    @pytest.mark.parametrize("variants", [("full", "simplified"), ("simplified", "full")])
    @pytest.mark.parametrize("k, s", [(1, 1), (3, 5)])
    @pytest.mark.parametrize("spec", ONE_PATH_SPECS, ids=str)
    def test_variants_together_keep_their_single_bits(self, oracle_calls, spec, k, s, variants):
        e_hat, w, reps, records = study_stack(spec, k, s)
        groups = records[0][0].blocks.groups
        oracle_calls.clear()
        together = schur._refined_stack(e_hat, w, reps, groups, variants)
        # One oracle call per block size serves both variants.
        assert oracle_calls.stages == ["_complement_eigenvalues"] * len(set(spec))
        assert len(together) == len(variants)
        for variant, (pred, parts) in zip(variants, together):
            [(want, want_parts)] = schur._refined_stack(e_hat, w, reps, groups, (variant,))
            assert pred.shape == (k, s, sum(spec))
            assert pred.tobytes() == want.tobytes()
            same_parts(parts, want_parts)

    @pytest.mark.parametrize("variant", ["full", "simplified"])
    @pytest.mark.parametrize("spec", ONE_PATH_SPECS, ids=str)
    def test_study_members_are_their_records_refinements(self, spec, variant):
        e_hat, w, reps, records = study_stack(spec, 3, 5)
        [(pred, parts)] = schur._refined_stack(e_hat, w, reps, records[0][0].blocks.groups, (variant,))
        for i, row in enumerate(records):
            for j, ap in enumerate(row):
                assert refined_eigenvalues(ap, variant).tobytes() == pred[i, j].tobytes()
                _, record_parts = schur._refined(ap, (variant,))
                same_parts(
                    [(index, b[0, 0], beta[0, 0]) for index, b, beta in record_parts],
                    [(index, b[i, j], beta[i, j]) for index, b, beta in parts],
                )
