"""Shared builders for seeded test instances, a recorder of oracle calls, and
the per-column and per-block loops that the stacked column match, the
stacked ``N``, the batched Schur complements and the stacked tie guard must
reproduce.

Degenerate instances (prescribed eigenvalue multiplicities and a unit-norm
direction) come from the package's own SplitMix64 ensemble, the one the
studies, the benchmark and the digests draw, with each test's integer seed.
numpy's Generator (seeded per test) serves only the generic Hermitian and
unitary draws.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from eigpert import EnsembleConfig, SpectralDecomposition, conjugate_to_eigenbasis, eigh, harness, hermitian, jacobi
from eigpert.matrices import _symmetrized

# Block layouts of the stacked-premise tests by size n: blocks of one size
# are not all adjacent, (4,) x 10 + (3,) x 4 + (2,) x 4 mixes three sizes at
# n = 60, and at n = 6 and 20 a 1 x 1 block is the only one of its size.
STACK_SPECS = {
    2: (1, 1),
    3: (2, 1),
    6: (3, 2, 1),
    9: (2, 3, 1, 3),
    20: (4, 1, 3, 2, 4, 2, 4),
    60: (4, 3, 2) * 4 + (4,) * 6,
}

# Powers of two that scale the records of the stacked-premise tests.
SCALE_EXPONENTS = (-1000, -500, 0, 500, 1000)

# Complex scalars that a real argument refuses, numpy's and Python's, with
# and without an imaginary part: float() would truncate or refuse them.
COMPLEX_SCALARS = (1 + 1j, 0.5 + 0j, np.complex128(0.01 + 5j), np.complex64(0.5))


def rand_hermitian(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hermitian(scale * 0.5 * (g + g.conj().T))


def rand_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.array(eigh(rand_hermitian(rng, n)).u, copy=True)


def degenerate_draws(seed: int, block_spec: tuple[int, ...], count: int = 1) -> list[tuple[np.ndarray, np.ndarray]]:
    """The ``(A, F)`` of trials ``0 .. count - 1`` of the package's ensemble
    at ``seed``, drawn as one stack by ``harness._draws``: A with the given
    eigenvalue multiplicities (representative values separated by at least
    1), F a unit-norm Hermitian direction."""
    cfg = EnsembleConfig(seed=seed, n=sum(block_spec), block_spec=block_spec, trials=count, predictor="first_order")
    a, f, _ = harness._draws(cfg, range(count))
    return list(zip(a, f))


def scaled_record(rng: np.random.Generator, spec: tuple[int, ...], exponent: int):
    """A raw record on the identity basis: eigenvalue blocks of the sizes
    ``spec`` one apart and a Hermitian perturbation of Frobenius norm 0.05,
    both scaled by ``2**exponent``."""
    lam = np.repeat(-np.arange(len(spec), dtype=float), spec) * 2.0**exponent
    e = rand_hermitian(rng, lam.size)
    e = hermitian(e * (0.05 * 2.0**exponent / np.linalg.norm(e)))
    return conjugate_to_eigenbasis(SpectralDecomposition(u=np.eye(lam.size, dtype=complex), lam=lam), e)


def align_columns_loop(candidate: np.ndarray, reference: np.ndarray, groups) -> np.ndarray:
    """The reference column match, one column and one ``np.vdot`` at a time:
    within each ``(start, stop)`` range the candidate column of largest
    inner-product modulus (the first of equals) is taken for each reference
    column in turn, then phased so the inner product is real nonnegative."""
    candidate = np.asarray(candidate, dtype=np.complex128)
    reference = np.asarray(reference, dtype=np.complex128)
    out = np.array(candidate, copy=True)
    for start, stop in groups:
        available = list(range(start, stop))
        for j in range(start, stop):
            overlaps = [abs(np.vdot(candidate[:, k], reference[:, j])) for k in available]
            k = available.pop(int(np.argmax(overlaps)))
            z = np.vdot(candidate[:, k], reference[:, j])
            phase = z / abs(z) if abs(z) > 0.0 else 1.0
            out[:, j] = candidate[:, k] * phase
    return out


def scaled_by(x: np.ndarray, exponent: int) -> np.ndarray:
    """``x * 2**exponent``, the real and imaginary parts scaled apart, in
    the memory layout of ``x``."""
    out = np.empty_like(x)
    out.real, out.imag = np.ldexp(x.real, exponent), np.ldexp(x.imag, exponent)
    return out


def unit_exponent(x: np.ndarray) -> int:
    """The power of two that brings the largest real or imaginary part of
    ``x`` into [0.5, 1)."""
    return int(np.frexp(max(np.abs(x.real).max(initial=0.0), np.abs(x.imag).max(initial=0.0)))[1])


def n_matrix_loop(ap, mmat: np.ndarray) -> np.ndarray:
    """The reference ``N``: one matrix-vector product ``F_hat* (M * F_hat)[:, j]``
    per column ``j`` of a multi-member block, on the contiguous column, with
    ``F_hat`` and then those columns of ``M * F_hat`` scaled to unit largest
    part by powers of two, which the in-block gaps of the scaled ``F_hat``
    and a last scaling undo."""
    n = ap.n
    bid = ap.blocks.block_id()
    same = (bid[:, None] == bid[None, :]) & ~np.eye(n, dtype=bool)
    multi = np.flatnonzero(same.any(axis=0))
    f_exp = unit_exponent(ap.e_hat)
    f = scaled_by(ap.e_hat, -f_exp)
    mf = mmat * f
    mf_exp = unit_exponent(mf[:, multi])
    fh = f.conj().T
    num = np.zeros((n, n), dtype=np.complex128)
    for j in multi:
        num[:, j] = fh @ scaled_by(np.ascontiguousarray(mf[:, j]), -mf_exp)
    d = np.diagonal(f).real
    out = np.zeros((n, n), dtype=np.complex128)
    np.divide(num, d[:, None] - d[None, :], out=out, where=same)
    return scaled_by(out, f_exp + mf_exp)


def complements_loop(e_hat: np.ndarray, x: np.ndarray, groups) -> list[np.ndarray]:
    """The reference Schur complements of the stacks ``e_hat`` and ``x``
    ``(m, n, n)``, one product per block on views of the whole matrices:
    the symmetrized ``E11 - E_hat[:, block] @ X[:, :, block]``."""
    out = []
    for start, stop in groups:
        b = e_hat[:, start:stop, start:stop] - e_hat[:, start:stop] @ x[:, :, start:stop]
        out.append(0.5 * (b + b.conj().swapaxes(1, 2)))
    return out


def tie_gaps_loop(d: np.ndarray, groups) -> tuple[list[tuple[int, int]], list[float]]:
    """The reference tie guard's data: the multi-member blocks and, one block
    at a time, the smallest in-block gap ``d[i] - d[i + 1]`` of each."""
    multi = [(start, stop) for start, stop in groups if stop - start >= 2]
    return multi, [(d[start : stop - 1] - d[start + 1 : stop]).min() for start, stop in multi]


class OracleCalls(list):
    """Per oracle call, in call order, the list of its matrices' dimensions;
    ``vectors[i]`` tells whether call ``i`` solved for eigenvectors too, and
    ``stages[i]`` names the function outside :mod:`eigpert.jacobi` that made
    it, the nearest one that is not a comprehension or a lambda."""

    def __init__(self) -> None:
        super().__init__()
        self.vectors: list[bool] = []
        self.stages: list[str] = []

    def clear(self) -> None:
        super().clear()
        self.vectors.clear()
        self.stages.clear()

    def shapes(self) -> list[tuple[str, int, bool]]:
        """Each call as ``(stage, size, vectors)``, without its member count."""
        return [(stage, sizes[0], vectors) for stage, sizes, vectors in zip(self.stages, self, self.vectors)]


def _stage(frame) -> str:
    """The name of the function that made an oracle call from ``frame``: the
    first frame outside :mod:`eigpert.jacobi` that is not a comprehension or
    a lambda."""
    while frame.f_globals.get("__name__") == jacobi.__name__ or frame.f_code.co_name.startswith("<"):
        frame = frame.f_back
    return frame.f_code.co_name


def assert_exactly_hermitian(a) -> None:
    """The precondition of the oracle's array entry: one complex128 stack
    of finite square matrices of one size that :func:`_symmetrized` would
    not change by a bit, so exact conjugate symmetry and a +0 imaginary
    diagonal."""
    assert isinstance(a, np.ndarray) and a.dtype == np.complex128
    assert a.ndim == 3 and a.shape[1] == a.shape[2]
    assert np.isfinite(a).all()
    assert _symmetrized(a).tobytes() == np.ascontiguousarray(a).tobytes()
    assert not np.signbit(np.diagonal(a, axis1=1, axis2=2).imag).any()


@pytest.fixture
def oracle_calls(monkeypatch):
    """Record every oracle call made after it is set up, full solves and
    eigenvalue-only ones alike, and check the array entry's precondition
    on each.  Every solve goes through the array entry ``_solve_stack``,
    ``eigh`` too as a stack of one, so each stack solved is one record."""
    calls = OracleCalls()
    real = jacobi._solve_stack

    def recording(a, tol=None, vectors=True):
        assert_exactly_hermitian(a)
        calls.append([a.shape[1]] * len(a))
        calls.vectors.append(vectors)
        calls.stages.append(_stage(sys._getframe(1)))
        return real(a, tol, vectors)

    monkeypatch.setattr(jacobi, "_solve_stack", recording)
    return calls
