import numpy as np
import pytest


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)


def random_hermitian(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (a + a.conj().T)


def random_unit_vector(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def brute_force_imbalance(kernel, subset):
    """Independent oracle: sum_T P[X=T] (2|T cap S| - |S|)^2 over the exact
    distribution computed by inclusion-exclusion."""
    from qdlab import exact_distribution

    s = sum(1 << (i - 1) for i in set(subset))
    return sum(
        p * (2 * (m & s).bit_count() - s.bit_count()) ** 2
        for m, p in enumerate(exact_distribution(kernel))
    )


def brute_force_disc(system):
    """Oracle for disc_exact: plain enumeration of all 2^N sign vectors."""
    import itertools

    best = None
    for signs in itertools.product((-1, 1), repeat=system.ground_size):
        value = max(abs(sum(signs[i - 1] for i in s)) for s in system.sets)
        if best is None or value < best:
            best = value
    return best
