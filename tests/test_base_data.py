"""Base-only data kept on each stored decomposition: what builds it, what
reuses it, what a ``lam`` changed in place does, and that convergence
studies store none."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import degenerate_draws, rand_hermitian
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

LAM = [3.0, 3.0, 1.0, 0.0, 0.0, -2.0]


def stored(lam) -> SpectralDecomposition:
    """A decomposition on the identity basis with a writable copy of ``lam``."""
    lam = np.array(lam, dtype=np.float64)
    return SpectralDecomposition(u=np.eye(lam.size, dtype=complex), lam=lam)


def record(base, seed=0):
    """A raw record of ``base`` along a small random direction."""
    return conjugate_to_eigenbasis(base, 1e-3 * rand_hermitian(np.random.default_rng(seed), base.lam.size))


@pytest.fixture
def builds(monkeypatch) -> list[int]:
    """The number of rows of every build of base-only data from now on."""
    calls = []
    real = alignment._base_data_rows

    def rows(lam, groups):
        calls.append(len(lam))
        return real(lam, groups)

    monkeypatch.setattr(alignment, "_base_data_rows", rows)
    return calls


def test_no_layer_that_reads_base_only_data_caches_it():
    caches = [
        f"{module.__name__}.{name}"
        for module in (alignment, first_order, harness, rayleigh, schur)
        for name, value in vars(module).items()
        if hasattr(value, "cache_info")
    ]
    assert caches == []


def one_ulp(lam):
    lam[2] = np.nextafter(lam[2], -np.inf)


def signed_zeros(lam):
    lam[3:5] = -0.0


@pytest.mark.parametrize("change", [one_ulp, signed_zeros], ids=["one-ulp", "signed-zero-lam"])
def test_a_lam_changed_in_place_builds_anew(builds, change):
    base = stored(LAM)
    ap = record(base)
    rotated = blockwise_diagonalize(ap)
    change(base.lam)
    after = record(base)
    assert builds == [1, 1]
    assert after.data is not ap.data
    # The rotated base shares lam, so its handed-on entry no longer holds.
    assert m_matrix(rotated.base, after.blocks).tobytes() == after.data.m.tobytes()
    assert builds == [1, 1, 1]
    fresh = record(stored(base.lam)).data
    assert repr(after.blocks) == repr(fresh.blocks)
    for got, want in zip((after.data.m, after.data.w, after.data.margins), (fresh.m, fresh.w, fresh.margins)):
        assert got.tobytes() == want.tobytes()


def test_derived_records_carry_the_data(builds):
    ap = record(stored(LAM))
    rotated = blockwise_diagonalize(ap)
    assert rotated.data is ap.data
    assert alignment.scaled(rotated, 0.5).data is ap.data
    assert rotated.base._derived == ap.base._derived
    assert m_matrix(rotated.base, rotated.blocks).tobytes() == ap.data.m.tobytes()
    assert builds == [1]


def test_cached_arrays_are_read_only_and_m_matrix_is_fresh():
    ap = record(stored(LAM))
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
def test_m_matrix_of_other_blocks_builds_nothing(builds, blocks):
    # A valid block structure that is not the grouping of lam is refused
    # against the base's own data, and nothing is built or stored for it.
    lam = np.array([3.0, 3.0 - 2.0**-30, 1.0, 0.0, -2.0**-30, -2.0])
    ap = record(stored(lam))
    with pytest.raises(ValueError, match="is not the grouping"):
        m_matrix(ap.base, blocks)
    assert m_matrix(ap.base, ap.blocks).tobytes() == ap.data.m.tobytes()
    assert alignment._base_data(ap.base) is ap.data
    assert builds == [1]


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


def test_predictions_from_one_base_compute_its_data_once(builds):
    rng = np.random.default_rng(11)
    [(a, _)] = degenerate_draws(11, (4, 3, 2, 1, 2))
    base = eigh(a)
    for _ in range(10):
        predict_all(base, 1e-2 * rand_hermitian(rng, a.shape[0]))
    assert builds == [1]


@pytest.mark.parametrize("predictor", harness.PREDICTORS)
def test_a_study_builds_no_single_base_data(builds, predictor):
    # Every trial has a base of its own: its guards, its derivative and its
    # Schur weights read data built for all the trials in one stacked pass.
    convergence_study(EnsembleConfig(seed=4, n=6, block_spec=(2, 2, 1, 1), trials=20, predictor=predictor))
    assert builds and all(rows > 1 for rows in builds)


def test_a_stored_base_keeps_its_data_across_a_study(builds):
    rng = np.random.default_rng(5)
    [(a, _)] = degenerate_draws(5, (2, 2, 1, 1))
    base = eigh(a)
    predict_all(base, 1e-2 * rand_hermitian(rng, 6))
    kept = dict(base._derived)
    convergence_study(EnsembleConfig(seed=4, n=6, block_spec=(2, 2, 1, 1), trials=20, predictor="eigvec_first_order"))
    predict_all(base, 1e-2 * rand_hermitian(rng, 6))
    assert base._derived == kept
    assert [rows for rows in builds if rows == 1] == [1]
