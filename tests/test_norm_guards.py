"""Guards that compare ||E|| with a threshold decide on certified bounds
first; these tests pin that every decision, and every message, is the one
the oracle's exact norm gives, and that a prediction never runs the oracle
on an n x n matrix."""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import rand_hermitian, scaled_record
from eigpert import (
    DegenerateDirectionError,
    EnsembleConfig,
    GapTooSmallError,
    SpectralDecomposition,
    aligned_perturbation,
    blockwise_diagonalize,
    conjugate_to_eigenbasis,
    eigenvector_derivative,
    eigh,
    first_order_eigenvalues,
    generate_instance,
    hermitian,
    line_expansion,
    m_matrix,
    n_matrix,
    predict_eigensystem,
    refined_eigenvalues,
    rs_coefficients,
    scaled,
    schur_data,
    u_approx,
    vc_membership,
)
from eigpert import alignment, rayleigh, schur
from eigpert.alignment import DEFAULT_MARGIN_FACTOR, LazyNorm
from eigpert.rayleigh import STRICT_DIAGONAL_TOL

# Relative offsets of a guard's threshold from ||E||: inside the bounds'
# slack, so the oracle decides, and far outside it, so the bounds do.
NEAR = (-1e-12, 0.0, 1e-12)
FAR = (-0.5, 0.5)


def exact_only(ap):
    """The same perturbation with both bounds equal to the oracle's norm, so
    every guard decides on that value, as it did before bounds existed."""
    value = np.array([ap.e_norm])
    return replace(ap, norm=LazyNorm(value, value, lambda members: value[members]))


def outcome(call):
    try:
        result = call()
    except (GapTooSmallError, DegenerateDirectionError) as exc:
        return type(exc), str(exc)
    arrays = result if isinstance(result, tuple) else (result,)
    return "ok", tuple(np.asarray(x).tobytes() for x in arrays)


def identity_base(lam):
    lam = np.asarray(lam, dtype=np.float64)
    return SpectralDecomposition(u=np.eye(lam.size, dtype=np.complex128), lam=lam)


def directions(n, seed):
    """A rank-one direction (Frobenius norm equals the operator norm) and a
    full-rank one, both exactly Hermitian.  The seeds used below give
    rank-one directions whose oracle norm exceeds their computed Frobenius
    norm by about an ulp, so bounds without slack would decide wrongly."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return (
        ("rank_one", hermitian(np.outer(x, x.conj()))),
        ("full_rank", rand_hermitian(rng, n)),
    )


def assert_same(ap, call):
    assert outcome(lambda: call(ap)) == outcome(lambda: call(exact_only(ap)))


# Spectra whose guarded block, the double eigenvalue, sits at the top, in the
# middle (its nearer neighbour above it) and at the bottom; it is 1.5 from its
# nearest neighbour in each.
MARGIN_LAYOUTS = (
    ([2.0, 2.0, 0.5, -1.0, -3.0], 0),
    ([2.5, 1.0, 1.0, -1.0, -3.0], 1),
    ([3.0, 1.0, -0.5, -2.0, -2.0], 3),
)


@pytest.mark.parametrize("kind, e", directions(5, 4))
@pytest.mark.parametrize("offset", NEAR + FAR)
def test_schur_margin_guard(kind, e, offset):
    margin = 1.5
    for lam, block in MARGIN_LAYOUTS:
        ap = blockwise_diagonalize(conjugate_to_eigenbasis(identity_base(lam), e))
        ap = scaled(ap, margin / (DEFAULT_MARGIN_FACTOR * ap.e_norm) * (1.0 + offset))
        assert_same(ap, lambda x: schur_data(x, block).b)
        if offset != 0.0:
            # Off the threshold, the outcome pins the margin the guard measured.
            guarded = outcome(lambda: schur_data(ap, block).b)[0] is GapTooSmallError
            assert guarded == (offset > 0.0)
        for variant in ("full", "simplified"):
            assert_same(ap, lambda x: refined_eigenvalues(x, variant=variant))


@pytest.mark.parametrize("kind, e", directions(4, 3))
@pytest.mark.parametrize("offset", NEAR + FAR)
def test_tie_guard(kind, e, offset):
    # The base is diagonal and block 0 is {0, 1}, so with the in-block
    # off-diagonal zeroed E_hat = E and the in-block gap is exactly e[0, 0].
    # That entry moves ||E|| slightly, so it is set from the oracle norm it
    # yields, to a fixed point.
    base = identity_base([1e3, 1e3, 0.0, -1e3])
    e = np.array(5.0 * e)
    e[0, 1] = e[1, 0] = 0.0
    for _ in range(4):
        norm = blockwise_diagonalize(conjugate_to_eigenbasis(base, e)).e_norm
        e[0, 0], e[1, 1] = STRICT_DIAGONAL_TOL * norm * (1.0 + offset), 0.0
    ap = blockwise_diagonalize(conjugate_to_eigenbasis(base, e))
    assert ap.e_norm == norm
    assert ap.e_hat_diag[0] - ap.e_hat_diag[1] == STRICT_DIAGONAL_TOL * norm * (1.0 + offset)
    assert_same(ap, n_matrix)


@pytest.mark.parametrize("kind, e", directions(5, 8))
@pytest.mark.parametrize("offset", NEAR + FAR)
def test_line_gap_guard(kind, e, offset):
    base = identity_base([3.0, 3.0, 1.0, -0.5, -2.0])
    ap = blockwise_diagonalize(conjugate_to_eigenbasis(base, e))
    mmat = m_matrix(ap.base, ap.blocks)
    # Every block's margin, and the smallest, is 1.5.
    t = 1.5 / (DEFAULT_MARGIN_FACTOR * ap.e_norm) * (1.0 + offset)
    assert_same(ap, lambda x: predict_eigensystem(x, mmat, t).xi_hat)
    assert_same(ap, lambda x: predict_eigensystem(x, mmat, -t).u_hat)
    lex = line_expansion(np.diag(base.lam), e)
    assert outcome(lambda: lex.at(t).xi_hat) == outcome(
        lambda: replace(lex, ap=exact_only(lex.ap)).at(t).xi_hat
    )


# A double eigenvalue 1e-9 wide, one block: its representative value, the
# mean, stands 1.4999999995 from 0.5, but 0.5 stands 1.499999999 from the
# block's lower member, so every guard must hold ||E|| below 0.7499999995.
SLIVER = [2.0, 2.0 - 1e-9, 0.5, -1.0]


@pytest.mark.parametrize("norm, refused", ((0.749999999625, True), (0.749999999375, False)))
def test_one_gap_for_every_predictor(norm, refused):
    rng = np.random.default_rng(19)
    e = rand_hermitian(rng, 4)
    ap = blockwise_diagonalize(conjugate_to_eigenbasis(identity_base(SLIVER), e))
    ap = scaled(ap, norm / ap.e_norm)
    mmat = m_matrix(ap.base, ap.blocks)
    lex = line_expansion(np.diag(SLIVER), ap.e)
    calls = (
        lambda: schur_data(ap, 1),
        lambda: refined_eigenvalues(ap, variant="full"),
        lambda: refined_eigenvalues(ap, variant="simplified"),
        lambda: vc_membership(ap, 0.0, 1.0),
        lambda: predict_eigensystem(ap, mmat, 1.0),
        lambda: lex.at(1.0),
    )
    for call in calls:
        if refused:
            with pytest.raises(GapTooSmallError, match="block 1: separation 1.500e"):
                call()
        else:
            call()


@pytest.mark.parametrize("scale", (1e307, 1e308))
def test_guard_refuses_where_its_threshold_overflows(scale):
    # At 1e308, 2 ||E|| and the bounds' products overflow to inf, which
    # decides as the exact products would: the guard refuses, with no
    # floating-point warning.
    cfg = EnsembleConfig(seed=1, n=6, block_spec=(2, 2, 1, 1), trials=1, predictor="first_order")
    a, f = generate_instance(cfg, 0)
    with pytest.raises(GapTooSmallError, match="block 2: separation"):
        refined_eigenvalues(aligned_perturbation(a, scale * f))


def test_scaled_norm_that_overflows_refuses():
    # Entries of t E stay finite, but t times the bounds and the norm do not.
    rng = np.random.default_rng(5)
    ap = blockwise_diagonalize(conjugate_to_eigenbasis(identity_base([2.0, 2.0, -1.0]), rand_hermitian(rng, 3)))
    ap_t = scaled(ap, 1.7e308 / max(np.abs(ap.e).max(), np.abs(ap.e_hat).max()))
    assert np.isinf(ap_t.norm.upper).all()
    with pytest.raises(GapTooSmallError, match=r"\|\|E\|\| = inf"):
        refined_eigenvalues(ap_t)


@pytest.fixture
def norm_decisions(monkeypatch):
    """Count calls of ``alignment._allows``, patched in every module that
    binds the name so that a guard anywhere is counted."""
    calls = []
    real = alignment._allows

    def counting(norm, values, factor):
        calls.append(norm)
        return real(norm, values, factor)

    for module in (alignment, rayleigh, schur):
        if hasattr(module, "_allows"):
            monkeypatch.setattr(module, "_allows", counting)
    return calls


def test_one_norm_decision_per_guard(norm_decisions):
    rng = np.random.default_rng(23)
    lam = np.repeat(np.arange(15.0, 0.0, -1.0), 4)
    e = 0.01 * rand_hermitian(rng, 60)
    ap = blockwise_diagonalize(conjugate_to_eigenbasis(identity_base(lam), e))
    refined_eigenvalues(ap)
    assert len(norm_decisions) == 1
    rs_coefficients(ap)
    assert len(norm_decisions) == 2


def test_tie_refusal_names_the_smallest_gap():
    e = np.diag([0.5, 0.5 - 1e-12, 0.25, 0.25, 0.0]).astype(np.complex128)
    base = identity_base([3.0, 3.0, 1.0, 1.0, -1.0])
    ap = blockwise_diagonalize(conjugate_to_eigenbasis(base, e))
    # Both blocks are tied; the refusal names the one with gap 0.
    with pytest.raises(DegenerateDirectionError, match=r"gap 0\.000e\+00\) inside .* \[2, 4\)"):
        rs_coefficients(ap)


@pytest.mark.parametrize("t", (0.03, 0.1, 7.0))
def test_scaled_norm_is_exactly_t_times(t):
    rng = np.random.default_rng(5)
    base = eigh(rand_hermitian(rng, 5))
    ap = blockwise_diagonalize(conjugate_to_eigenbasis(base, rand_hermitian(rng, 5)))
    ap_t = scaled(ap, t)
    assert ap_t.e_norm == t * ap.e_norm
    assert scaled(ap_t, 0.5).e_norm == 0.5 * (t * ap.e_norm)
    assert ap_t.norm.lower <= ap_t.e_norm <= ap_t.norm.upper


def test_vc_membership_reads_the_exact_norm():
    rng = np.random.default_rng(7)
    base = identity_base([2.0, 2.0, 2.0, -1.0])
    ap = scaled(blockwise_diagonalize(conjugate_to_eigenbasis(base, rand_hermitian(rng, 4))), 0.1)
    report = vc_membership(ap, 0.5, 1e-3)
    assert report == vc_membership(exact_only(ap), 0.5, 1e-3)
    beta = schur_data(ap, 0).beta
    pair_gap = min(abs(float(beta[i] - beta[j])) for i in range(3) for j in range(i + 1, 3))
    assert report.worst_gap_ratio == pair_gap / (0.5 * ap.e_norm)


def test_bounds_enclose_the_oracle_norm():
    rng = np.random.default_rng(11)
    for scale in (1e-300, 1e-200, 1e-100, 1e-8, 1.0, 1e8, 1e100, 1e200, 1e300):
        for _ in range(5):
            n = int(rng.integers(1, 8))
            base = eigh(rand_hermitian(rng, n))
            ap = conjugate_to_eigenbasis(base, rand_hermitian(rng, n, scale))
            assert 0.0 < ap.norm.lower <= ap.e_norm <= ap.norm.upper < math.inf
    zero = conjugate_to_eigenbasis(eigh(np.eye(3)), np.zeros((3, 3)))
    assert zero.norm.lower == zero.norm.upper == zero.e_norm == 0.0


def test_prediction_makes_no_full_size_oracle_call(oracle_calls):
    n = 12
    rng = np.random.default_rng(13)
    lam = np.repeat([3.0, 1.0, -1.5, -4.0], 3)
    q = np.array(eigh(rand_hermitian(rng, n)).u)
    a = hermitian(q @ np.diag(lam.astype(np.complex128)) @ q.conj().T)
    e = 0.05 * rand_hermitian(rng, n)
    base = eigh(a)
    oracle_calls.clear()
    ap = blockwise_diagonalize(conjugate_to_eigenbasis(base, e))
    mmat = m_matrix(ap.base, ap.blocks)
    first_order_eigenvalues(ap)
    u_approx(ap, mmat)
    refined_eigenvalues(ap, variant="full")
    refined_eigenvalues(ap, variant="simplified")
    rs_coefficients(ap)
    eigenvector_derivative(ap, mmat)
    predict_eigensystem(ap, mmat, 0.5)
    # One 3 x 3 solve per block for the block-wise rotation, its four blocks
    # in one call, and one per block for each Schur variant, the full one
    # solving both variants' complements in one call and the simplified one
    # reusing them; the norm guards all settle on the bounds.
    assert oracle_calls == [[3] * 4, [3] * 8]
    # The Schur complements need eigenvalues only.
    assert oracle_calls.vectors == [True, False]
    assert oracle_calls.stages == ["_rotate_blocks", "_complement_eigenvalues"]


def test_norm_oracle_runs_once_per_chain(oracle_calls):
    rng = np.random.default_rng(17)
    base = eigh(rand_hermitian(rng, 6))
    e = rand_hermitian(rng, 6)
    oracle_calls.clear()
    raw = conjugate_to_eigenbasis(base, e)
    ap = blockwise_diagonalize(raw)
    ap_t = scaled(ap, 0.2)
    # The spectrum is simple: the block-wise rotation has no block to solve,
    # so it makes no oracle call at all.
    assert oracle_calls == []
    first = ap.e_norm
    assert (raw.e_norm, ap.e_norm, ap_t.e_norm, scaled(ap_t, 3.0).e_norm) == (
        first, first, 0.2 * first, 3.0 * (0.2 * first)
    )
    assert oracle_calls == [[6]]
    assert oracle_calls.vectors == [False]
    # The deferred norm solve runs on the first read of LazyNorm.value.
    assert oracle_calls.stages == ["value"]


def stacked_records(seed, k=4, n=5):
    """``k`` raw records on one diagonal base, and the stack of their ``E_hat``."""
    rng = np.random.default_rng(seed)
    base = identity_base(np.arange(n, 0.0, -1.0))
    records = [conjugate_to_eigenbasis(base, rand_hermitian(rng, n)) for _ in range(k)]
    return records, np.array([ap.e_hat for ap in records])


def test_stacked_norm_solves_each_member_once(oracle_calls):
    # A stack's norms are solved for the members read and not known yet, in
    # one call per read, once per member for the whole scaled chain; each
    # has the bits of its record's norm.
    records, stack = stacked_records(29)
    solo = np.array([ap.e_norm for ap in records])
    norm = alignment._lazy_norms(stack)
    half, every = norm.scaled(0.5), np.ones(len(stack), dtype=bool)
    oracle_calls.clear()
    some = np.array([True, False, True, False])
    assert half.value(some).tobytes() == (0.5 * solo[some]).tobytes()
    assert oracle_calls == [[5, 5]]
    assert norm.value(every).tobytes() == solo.tobytes()
    assert oracle_calls == [[5, 5], [5, 5]]
    assert half.value(every).tobytes() == (0.5 * solo).tobytes()
    assert norm.scaled(3.0).value(some).tobytes() == (3.0 * solo[some]).tobytes()
    assert len(oracle_calls) == 2
    assert oracle_calls.stages == ["value", "value"]
    assert np.all(norm.lower <= solo) and np.all(solo <= norm.upper)
    assert np.array_equal(half.lower, 0.5 * norm.lower) and np.array_equal(half.upper, 0.5 * norm.upper)


def test_stack_decides_each_member_as_alone(oracle_calls):
    # Far above its upper bound passes and a NaN fails without a solve; the
    # two members whose thresholds fall between their bounds share one
    # solve and decide on their oracle norms: one exactly at the threshold
    # fails, one an ulp above it passes.
    records, stack = stacked_records(31)
    solo = np.array([ap.e_norm for ap in records])
    norm = alignment._lazy_norms(stack)
    factor = 2.0
    least = np.array([
        4.0 * factor * norm.upper[0],
        factor * solo[1],
        np.nextafter(factor * solo[2], np.inf),
        np.nan,
    ])
    assert np.all(factor * norm.lower[1:3] < least[1:3]) and np.all(least[1:3] < factor * norm.upper[1:3])
    oracle_calls.clear()
    assert alignment._allows(norm, least, factor).tolist() == [True, False, True, False]
    assert oracle_calls == [[5, 5]]
    for k, ap in enumerate(records):
        assert alignment._allows(ap.norm, least[k : k + 1], factor).tolist() == [least[k] > factor * solo[k]]


def no_oracle(members):
    raise AssertionError("the bounds should decide without an oracle call")


def unsolved(ap):
    """``ap`` with its certified bounds and an oracle that must not run."""
    return replace(ap, norm=LazyNorm(ap.norm.lower, ap.norm.upper, no_oracle))


def test_nothing_to_check_passes_at_any_factor():
    # 1e10 times the upper bound overflows to inf, and inf is not above inf.
    norm = LazyNorm(np.array([1e307]), np.array([1e308]), no_oracle)
    assert alignment._allows(norm, np.array([np.inf]), 1e10).tolist() == [True]
    assert alignment._allows(norm, np.array([np.nan]), 2.0).tolist() == [False]


def test_a_zero_norm_passes_every_nonnegative_value():
    zero = LazyNorm(np.zeros(1), np.zeros(1), no_oracle)
    assert alignment._allows(zero, np.array([0.0]), STRICT_DIAGONAL_TOL).tolist() == [True]
    assert alignment._allows(zero, np.array([-1e-300, np.nan]), 2.0).tolist() == [False, False]
    ap = conjugate_to_eigenbasis(identity_base([2.0, 2.0, 1.0]), np.zeros((3, 3)))
    assert ap.norm.upper[0] == 0.0
    assert alignment._allows(exact_only(ap).norm, np.array([0.0]), STRICT_DIAGONAL_TOL).tolist() == [True]
    # Where the bounds leave it open, an oracle value of 0 passes 0 too, and
    # a positive one does not.
    for value, allowed in ((0.0, True), (0.5, False)):
        norm = LazyNorm(np.zeros(1), np.ones(1), lambda members, value=value: np.full(members.sum(), value))
        assert alignment._allows(norm, np.array([0.0]), 2.0).tolist() == [allowed]


def test_one_block_passes_the_gap_guard_unsolved():
    # One block's margin is inf, and 2 ||E|| overflows at the upper bound but
    # not at the lower one: the Schur refinement and the line expansion
    # still pass without a norm solve.
    rng = np.random.default_rng(3)
    f = rand_hermitian(rng, 3)
    a = 2.0 * np.eye(3)
    ap = aligned_perturbation(a, 6e307 / np.abs(f).max() * f)
    with np.errstate(over="ignore"):
        assert np.isinf(DEFAULT_MARGIN_FACTOR * ap.norm.upper[0])
        assert np.isfinite(DEFAULT_MARGIN_FACTOR * ap.norm.lower[0])
    for variant in ("full", "simplified"):
        assert np.isfinite(refined_eigenvalues(unsolved(ap), variant=variant)).all()
    assert np.isfinite(schur_data(unsolved(ap), 0).beta).all()
    lex = line_expansion(a, 1e154 * f)
    # 2 |t| and t^2 are finite, and 2 |t| times either bound is not.
    t = 1.2e308 / lex.ap.e_norm
    with np.errstate(over="ignore"):
        assert np.isinf(DEFAULT_MARGIN_FACTOR * t * lex.ap.norm.lower[0]) and math.isfinite(t * t)
    assert np.isfinite(replace(lex, ap=unsolved(lex.ap)).at(t).xi_hat).all()


def test_zero_member_of_a_stack_has_zero_n():
    # No other member's bits move: the in-block gaps of every untied member
    # are nonzero, and a zero member's are all 0.
    rng = np.random.default_rng(37)
    aps = [scaled_record(rng, (3, 2, 1), x) for x in np.resize((0, -500, 500), 100)]
    e_hat = np.stack([ap.e_hat for ap in aps])
    e_hat[41] = 0.0
    mmat = np.stack([ap.data.m for ap in aps])
    same, cols = aps[0].data.same, aps[0].data.same_cols
    stacked = rayleigh._n_matrix(e_hat, mmat, same, cols)
    assert stacked[41].tobytes() == np.zeros((6, 6), dtype=np.complex128).tobytes()
    for i in range(len(aps)):
        alone = rayleigh._n_matrix(e_hat[i : i + 1], mmat[i : i + 1], same, cols)
        assert stacked[i].tobytes() == alone[0].tobytes()
