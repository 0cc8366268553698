"""The memos of base-only data: what hits, what misses, what they keep, and
how often a prediction from a stored decomposition computes that data."""

from __future__ import annotations

from dataclasses import replace

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
    refined_eigenvalues,
    rs_coefficients,
    u_approx,
)
from eigpert import alignment, harness, rayleigh, schur
from eigpert.alignment import group_eigenvalues

# The memo of each quantity keyed by lam and the block structure.
KEYED = {
    "M": alignment._m_matrix,
    "margins": alignment._margins,
    "W": schur._weights_of,
    "same-block": rayleigh._same_block,
}
MEMOS = {"grouping": alignment._grouping, **KEYED}


@pytest.fixture(autouse=True)
def cold_memos():
    for memo in MEMOS.values():
        memo.cache_clear()


def misses() -> dict[str, int]:
    return {name: memo.cache_info().misses for name, memo in MEMOS.items()}


def hits() -> dict[str, int]:
    return {name: memo.cache_info().hits for name, memo in MEMOS.items()}


def record(lam, blocks=None, seed=0):
    """A raw record on the identity basis with eigenvalues ``lam``, its block
    structure replaced by ``blocks`` if given."""
    lam = np.asarray(lam, dtype=np.float64)
    base = SpectralDecomposition(u=np.eye(lam.size, dtype=complex), lam=lam)
    ap = conjugate_to_eigenbasis(base, 1e-3 * rand_hermitian(np.random.default_rng(seed), lam.size))
    return ap if blocks is None else replace(ap, blocks=blocks)


def touch(ap) -> None:
    """Read every keyed base-only quantity of ``ap`` through its memo."""
    mmat = alignment._m_matrix(ap.base.lam, ap.blocks)
    alignment._require_gap(ap, 0.0)
    schur._weights_of(ap.base.lam, ap.blocks)
    rayleigh._n_matrix(ap, mmat)


LAM = [3.0, 3.0, 1.0, 0.0, 0.0, -2.0]


def test_equal_bits_from_distinct_arrays_hit():
    first = record(np.array(LAM))
    touch(first)
    assert misses() == dict.fromkeys(MEMOS, 1)
    assert hits()["grouping"] == 0
    second = record(np.array(LAM), seed=1)
    assert first.base.lam is not second.base.lam
    touch(second)
    assert misses() == dict.fromkeys(MEMOS, 1)
    assert hits() == {"grouping": 1, **dict.fromkeys(KEYED, 1)}
    assert group_eigenvalues(list(LAM)) is second.blocks


def one_ulp(lam):
    lam = np.array(lam)
    lam[2] = np.nextafter(lam[2], -np.inf)
    return lam


@pytest.mark.parametrize(
    "other",
    [
        lambda: record(one_ulp(LAM)),
        lambda: record([3.0, 3.0, 1.0, -0.0, -0.0, -2.0]),
        lambda: record(LAM, BlockStructure(((0, 2), (2, 3), (3, 5), (5, 6)), (3.0, 1.0, -0.0, -2.0))),
        lambda: record(LAM, BlockStructure(((0, 2), (2, 3), (3, 5), (5, 6)), (3.0, 1.0, 2.0**-60, -2.0))),
    ],
    ids=["one-ulp", "signed-zero-lam", "signed-zero-rep", "other-rep"],
)
def test_other_bits_miss(other):
    touch(record(LAM))
    ap = other()
    touch(ap)
    assert {name: memo.cache_info().misses for name, memo in KEYED.items()} == dict.fromkeys(KEYED, 2)
    assert all(memo.cache_info().hits == 0 for memo in KEYED.values())


def test_signed_zero_eigenvalues_group_apart():
    assert group_eigenvalues([1.0, 0.0]) is not group_eigenvalues([1.0, -0.0])
    assert alignment._grouping.cache_info().misses == 2


def test_cached_arrays_are_read_only_and_m_matrix_is_fresh():
    ap = record(LAM)
    mmat = alignment._m_matrix(ap.base.lam, ap.blocks)
    cached = [
        mmat,
        alignment._margins(ap.base.lam, ap.blocks),
        schur._weights_of(ap.base.lam, ap.blocks),
        *rayleigh._same_block(ap.base.lam, ap.blocks),
    ]
    assert not any(a.flags.writeable for a in cached)
    fresh = m_matrix(ap.base, ap.blocks)
    assert fresh.flags.writeable and not np.shares_memory(fresh, mmat)
    assert np.array_equal(fresh, mmat)
    fresh[0, 2] = 7.0
    assert m_matrix(ap.base, ap.blocks)[0, 2] == mmat[0, 2] != 7.0


def test_memos_stay_within_their_bounds():
    for k in range(3 * alignment._MEMO_SIZE):
        touch(record(np.array(LAM) + 2.0**-20 * k))
    for memo in MEMOS.values():
        info = memo.cache_info()
        assert info.maxsize == alignment._MEMO_SIZE
        assert info.currsize == alignment._MEMO_SIZE
        assert info.misses == 3 * alignment._MEMO_SIZE


def counting(monkeypatch):
    """Record the ``rho`` of every inverse-gap matrix and the rows of every
    grouping computed from now on."""
    calls = {"inverse_gaps": [], "group_stack": []}
    real_gaps, real_group = alignment._inverse_gaps, alignment._group_stack

    def inverse_gaps(lam, bid, rho):
        calls["inverse_gaps"].append((np.array(lam), np.array(rho)))
        return real_gaps(lam, bid, rho)

    def group_stack(lam):
        calls["group_stack"].append(len(lam))
        return real_group(lam)

    for module in (alignment, schur):
        monkeypatch.setattr(module, "_inverse_gaps", inverse_gaps)
    monkeypatch.setattr(alignment, "_group_stack", group_stack)
    return calls


def test_predictions_from_one_base_compute_its_data_once(monkeypatch):
    rng = np.random.default_rng(11)
    a, _ = degenerate_instance(rng, (4, 3, 2, 1, 2))
    base = eigh(a)
    calls = counting(monkeypatch)
    for _ in range(10):
        ap = blockwise_diagonalize(conjugate_to_eigenbasis(base, 1e-2 * rand_hermitian(rng, a.shape[0])))
        mmat = m_matrix(ap.base, ap.blocks)
        first_order_eigenvalues(ap)
        u_approx(ap, mmat)
        refined_eigenvalues(ap, "full")
        refined_eigenvalues(ap, "simplified")
        rs_coefficients(ap)
        eigenvector_derivative(ap, mmat)
    m_calls = [lam for lam, rho in calls["inverse_gaps"] if np.array_equal(lam, rho)]
    w_calls = [lam for lam, rho in calls["inverse_gaps"] if not np.array_equal(lam, rho)]
    assert (len(m_calls), len(w_calls), len(calls["group_stack"])) == (1, 1, 1)


@pytest.mark.parametrize("predictor", harness.PREDICTORS)
def test_a_study_builds_no_single_base_data(monkeypatch, predictor):
    # Every trial has a base of its own: its guards and its derivative take
    # M and W from the study's stacks, never one base at a time.
    calls = counting(monkeypatch)
    convergence_study(EnsembleConfig(seed=4, n=6, block_spec=(2, 2, 1, 1), trials=20, predictor=predictor))
    assert all(len(lam) == 20 for lam, _ in calls["inverse_gaps"])
    assert calls["group_stack"] and all(rows > 1 for rows in calls["group_stack"])
