"""Shared builders for seeded test instances, and a recorder of oracle calls.

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


@pytest.fixture
def oracle_calls(monkeypatch):
    """Record every oracle call made after it is set up, as the list of its
    matrices' dimensions.  ``eigh`` goes through ``eigh_stack``, so single
    solves are recorded too, as one-member calls."""
    calls = []
    real = jacobi.eigh_stack

    def counting(hs, *args, **kwargs):
        hs = list(hs)
        calls.append([np.shape(h)[0] for h in hs])
        return real(hs, *args, **kwargs)

    monkeypatch.setattr(jacobi, "eigh_stack", counting)
    return calls
