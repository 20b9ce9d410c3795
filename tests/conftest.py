import tracemalloc

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)


def random_complex(rng, n: int, m: int | None = None) -> np.ndarray:
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def random_hermitian(rng, n: int) -> np.ndarray:
    a = random_complex(rng, n)
    return (a + a.conj().T) / 2


def random_psd(rng, n: int, rank: int | None = None) -> np.ndarray:
    rank = n if rank is None else rank
    b = random_complex(rng, rank, n)
    return b.conj().T @ b


def peak_bytes(f, *args) -> int:
    """Peak traced memory while ``f(*args)`` runs, above what was held before."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        f(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
