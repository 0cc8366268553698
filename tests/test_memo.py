"""The one memo of base-only data: what hits, what misses, what it keeps,
how often a prediction from a stored decomposition builds that data, and
that convergence studies leave it alone."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import degenerate_instance, rand_hermitian
from eigpert import (
    BlockStructure,
    EnsembleConfig,
    SpectralDecomposition,
    blockwise_diagonalize,
    conjugate_to_eigenbasis,
    convergence_study,
    eigenvector_derivative,
    eigh,
    first_order_eigenvalues,
    m_matrix,
    predict_eigensystem,
    refined_eigenvalues,
    rs_coefficients,
    u_approx,
    vc_membership,
)
from eigpert import alignment, first_order, harness, rayleigh, schur
from eigpert.alignment import _base_data

MEMO = alignment._memo


def memos() -> dict[str, object]:
    """Every memo in the modules that use base-only data, by name."""
    return {
        f"{module.__name__}.{name}": value
        for module in (alignment, first_order, harness, rayleigh, schur)
        for name, value in vars(module).items()
        if hasattr(value, "cache_info")
    }


@pytest.fixture(autouse=True)
def cold_memo():
    MEMO.cache_clear()


def record(lam, seed=0):
    """A raw record on the identity basis with eigenvalues ``lam``."""
    lam = np.asarray(lam, dtype=np.float64)
    base = SpectralDecomposition(u=np.eye(lam.size, dtype=complex), lam=lam)
    return conjugate_to_eigenbasis(base, 1e-3 * rand_hermitian(np.random.default_rng(seed), lam.size))


def counts() -> tuple[int, int]:
    info = MEMO.cache_info()
    return info.hits, info.misses


LAM = [3.0, 3.0, 1.0, 0.0, 0.0, -2.0]


def test_one_memo_holds_the_base_only_data():
    assert list(memos()) == ["eigpert.alignment._memo"]


def test_equal_bits_from_distinct_arrays_hit():
    first = record(np.array(LAM))
    assert counts() == (0, 1)
    second = record(np.array(LAM), seed=1)
    assert first.base.lam is not second.base.lam
    assert counts() == (1, 1)
    assert second.data is first.data
    assert _base_data(list(LAM)).blocks is second.blocks
    assert counts() == (2, 1)


def one_ulp(lam):
    lam = np.array(lam)
    lam[2] = np.nextafter(lam[2], -np.inf)
    return lam


@pytest.mark.parametrize(
    "other",
    [lambda: one_ulp(LAM), lambda: [3.0, 3.0, 1.0, -0.0, -0.0, -2.0]],
    ids=["one-ulp", "signed-zero-lam"],
)
def test_other_bits_miss(other):
    first = record(LAM)
    ap = record(other())
    assert counts() == (0, 2)
    assert ap.data is not first.data


def test_signed_zero_eigenvalues_group_apart():
    assert _base_data([1.0, 0.0]).blocks is not _base_data([1.0, -0.0]).blocks
    assert counts() == (0, 2)


def test_derived_records_carry_the_data():
    ap = record(LAM)
    rotated = blockwise_diagonalize(ap)
    assert rotated.data is ap.data
    assert alignment.scaled(rotated, 0.5).data is ap.data
    assert counts() == (0, 1)


def test_cached_arrays_are_read_only_and_m_matrix_is_fresh():
    ap = record(LAM)
    data = ap.data
    cached = [data.m, data.w, data.margins, data.same, data.same_cols]
    assert not any(a.flags.writeable for a in cached)
    fresh = m_matrix(ap.base, ap.blocks)
    assert fresh.flags.writeable and not np.shares_memory(fresh, data.m)
    assert np.array_equal(fresh, data.m)
    fresh[0, 2] = 7.0
    assert m_matrix(ap.base, ap.blocks)[0, 2] == data.m[0, 2] != 7.0


@pytest.mark.parametrize(
    "blocks",
    [
        BlockStructure(((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)), (3.0, 3.0, 1.0, 0.0, 0.0, -2.0)),
        BlockStructure(((0, 3), (3, 5), (5, 6)), (7.0 / 3.0, 0.0, -2.0)),
    ],
    ids=["split", "merged"],
)
def test_m_matrix_of_other_blocks_leaves_the_memo_alone(blocks):
    # A valid block structure that is not the grouping of lam is refused
    # after one memo lookup, and nothing is built or stored for it.
    lam = np.array([3.0, 3.0 - 2.0**-30, 1.0, 0.0, -2.0**-30, -2.0])
    ap = record(lam)
    hits, misses = counts()
    with pytest.raises(ValueError, match="is not the grouping"):
        m_matrix(ap.base, blocks)
    assert counts() == (hits + 1, misses)
    assert m_matrix(ap.base, ap.blocks).tobytes() == ap.data.m.tobytes()


def test_memos_stay_within_their_bounds():
    for k in range(3 * alignment._MEMO_SIZE):
        record(np.array(LAM) + 2.0**-20 * k)
    info = MEMO.cache_info()
    assert info.maxsize == info.currsize == alignment._MEMO_SIZE
    assert info.misses == 3 * alignment._MEMO_SIZE


def counting(monkeypatch) -> list[int]:
    """Record the number of rows of every build of base-only data from now on."""
    calls = []
    real = alignment._base_data_rows

    def rows(lam, groups):
        calls.append(len(lam))
        return real(lam, groups)

    monkeypatch.setattr(alignment, "_base_data_rows", rows)
    return calls


def predict_all(base, e):
    """Every prediction from the stored decomposition ``base`` along ``e``."""
    ap = blockwise_diagonalize(conjugate_to_eigenbasis(base, e))
    mmat = m_matrix(ap.base, ap.blocks)
    first_order_eigenvalues(ap)
    u_approx(ap, mmat)
    refined_eigenvalues(ap, "full")
    refined_eigenvalues(ap, "simplified")
    vc_membership(ap, 0.0, 1.0)
    rs_coefficients(ap)
    eigenvector_derivative(ap, mmat)
    predict_eigensystem(ap, mmat, 0.5)


def test_predictions_from_one_base_compute_its_data_once(monkeypatch):
    rng = np.random.default_rng(11)
    a, _ = degenerate_instance(rng, (4, 3, 2, 1, 2))
    base = eigh(a)
    calls = counting(monkeypatch)
    for _ in range(10):
        predict_all(base, 1e-2 * rand_hermitian(rng, a.shape[0]))
    assert calls == [1]
    assert counts()[1] == 1


@pytest.mark.parametrize("predictor", harness.PREDICTORS)
def test_a_study_builds_no_single_base_data(monkeypatch, predictor):
    # Every trial has a base of its own: its guards, its derivative and its
    # Schur weights read data built for all the trials in one stacked pass,
    # and the memo is neither read nor filled.
    record(LAM)
    before = {name: memo.cache_info() for name, memo in memos().items()}
    calls = counting(monkeypatch)
    convergence_study(EnsembleConfig(seed=4, n=6, block_spec=(2, 2, 1, 1), trials=20, predictor=predictor))
    assert {name: memo.cache_info() for name, memo in memos().items()} == before
    assert calls and all(rows > 1 for rows in calls)


def test_a_stored_base_survives_a_study():
    rng = np.random.default_rng(5)
    a, _ = degenerate_instance(rng, (2, 2, 1, 1))
    base = eigh(a)
    predict_all(base, 1e-2 * rand_hermitian(rng, 6))
    hits, misses = counts()
    convergence_study(EnsembleConfig(seed=4, n=6, block_spec=(2, 2, 1, 1), trials=20, predictor="eigvec_first_order"))
    predict_all(base, 1e-2 * rand_hermitian(rng, 6))
    assert counts()[1] == misses
    assert counts()[0] > hits
