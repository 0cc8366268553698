"""Shared builders for seeded test instances, a recorder of oracle calls, and
the per-column loop that the stacked column match must reproduce.

Test-local randomness uses numpy's Generator (seeded per test); the package's
own SplitMix64 streams are exercised separately in the harness tests.
"""

from __future__ import annotations

import numpy as np
import pytest

from eigpert import eigh, hermitian, jacobi, operator_norm


def rand_hermitian(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hermitian(scale * 0.5 * (g + g.conj().T))


def rand_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.array(eigh(rand_hermitian(rng, n)).u, copy=True)


def degenerate_instance(
    rng: np.random.Generator, block_spec: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """(A, F): A with the given eigenvalue multiplicities (representative
    values separated by at least 1), F a unit-norm Hermitian direction."""
    n = sum(block_spec)
    reps = []
    value = rng.uniform()
    for size in block_spec:
        reps.extend([value] * size)
        value = value - 1.0 - rng.uniform()
    lam = np.array(reps)
    q = rand_unitary(rng, n)
    a = hermitian(q @ np.diag(lam.astype(np.complex128)) @ q.conj().T)
    f = rand_hermitian(rng, n)
    return a, hermitian(f / operator_norm(f))


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


class OracleCalls(list):
    """Per oracle call, in call order, the list of its matrices' dimensions;
    ``vectors[i]`` tells whether call ``i`` solved for eigenvectors too."""

    def __init__(self) -> None:
        super().__init__()
        self.vectors: list[bool] = []

    def clear(self) -> None:
        super().clear()
        self.vectors.clear()


@pytest.fixture
def oracle_calls(monkeypatch):
    """Record every oracle call made after it is set up, full solves and
    eigenvalue-only ones alike.  ``eigh`` goes through ``eigh_stack``, so
    single solves are recorded too, as one-member calls."""
    calls = OracleCalls()

    def recording(real, vectors):
        def counting(hs, *args, **kwargs):
            hs = list(hs)
            calls.append([np.shape(h)[0] for h in hs])
            calls.vectors.append(vectors)
            return real(hs, *args, **kwargs)

        return counting

    monkeypatch.setattr(jacobi, "eigh_stack", recording(jacobi.eigh_stack, True))
    monkeypatch.setattr(jacobi, "_eigvalsh_stack", recording(jacobi._eigvalsh_stack, False))
    return calls
