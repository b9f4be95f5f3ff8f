"""Exact and probabilistic combinatorial discrepancy.

Exact minimization enumerates the 2^(N-1) colorings with chi(1) = +1 (the
objective is invariant under a global sign flip) in lexicographic order of
the sign vector, in integer arithmetic. The free signs split into a high
prefix and a low block of up to 12 signs; the per-set sums of every prefix
and of every low block are tabulated once, so a block of 2^12 colorings
costs one add, abs and max per set. A prefix is skipped when its lower
bound max_S(|prefix sum of S| - |S ∩ low block|) is at least the best value
found so far. The witness is the lexicographically smallest optimal
coloring: prefixes are visited in lex order, a block's first minimum is
taken, only a strictly smaller value replaces the incumbent, and a skipped
block holds no value below it. A restart + single-flip local search covers
ground sets beyond the exhaustive cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateM, GroundSetTooLarge, ValidationError
from .setsys import Coloring, SetSystem, incidence_matrix

DEFAULT_EXHAUSTIVE_CAP = 24
_CHUNK = 1 << 15
_LOW_BITS = 12  # colorings per enumeration block: 2^_LOW_BITS


def _sign_sums(cols: np.ndarray, offset) -> np.ndarray:
    """Per-set sums offset + cols @ signs for every sign vector over the
    columns of cols, one row per vector in lexicographic order (-1 < +1,
    first column most significant)."""
    width = cols.shape[1]
    ks = np.arange(1 << width, dtype=np.int64)
    shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
    signs = 2 * ((ks[:, None] >> shifts[None, :]) & 1) - 1
    return (signs @ cols.T + offset).astype(np.int16)  # |chi(S)| <= N


def disc_exact(system: SetSystem, cap: int = DEFAULT_EXHAUSTIVE_CAP) -> tuple[int, Coloring]:
    """Exact discrepancy min_chi max_S |chi(S)| with an optimal witness.

    Ties are broken toward the lexicographically smallest sign vector
    (with -1 ordered before +1) among colorings with chi(1) = +1.
    """
    n = system.ground_size
    if n > cap:
        raise GroundSetTooLarge(f"ground set of size {n} exceeds the exhaustive cap {cap}")
    a = incidence_matrix(system)
    h = max(0, n - 1 - _LOW_BITS)  # high-prefix signs
    high = a[:, 1 : 1 + h]
    low = a[:, 1 + h :]
    high_sums = _sign_sums(high, a[:, 0])  # chi(1) fixed to +1
    low_sums = _sign_sums(low, 0)
    # |chi(S)| >= |high part| - |S ∩ low| for every completion of a prefix
    bounds = (np.abs(high_sums) - low.sum(axis=1)[None, :]).max(axis=1)
    best_val = n + 1  # above every |chi(S)|
    best_k = 0
    for p in range(high_sums.shape[0]):
        if bounds[p] >= best_val:
            continue  # no coloring in this block beats the incumbent
        values = np.abs(low_sums + high_sums[p]).max(axis=1)
        q = int(values.argmin())  # first occurrence = lex-smallest in block
        if values[q] < best_val:
            best_val = int(values[q])
            best_k = (p << (n - 1 - h)) | q
    bits = (best_k >> np.arange(n - 2, -1, -1, dtype=np.int64)) & 1
    witness = Coloring(np.concatenate(([1], 2 * bits - 1)).astype(int))
    return best_val, witness


@dataclass(frozen=True)
class RandomColoringProbe:
    """Empirical frequency of the all-sets event |chi(S)| <= sqrt(2|S| log M)."""

    thresholds: np.ndarray
    trials: int
    successes: int

    @property
    def frequency(self) -> float:
        return self.successes / self.trials


def disc_random_bound(system: SetSystem) -> np.ndarray:
    """Per-set thresholds sqrt(2 |S| log M) from the uniform random coloring bound."""
    m = system.num_sets
    if m < 2:
        raise DegenerateM(f"need at least 2 sets for a positive log M, got {m}")
    return np.sqrt(2.0 * system.set_sizes() * math.log(m))


def random_coloring_satisfaction(system: SetSystem, trials: int, seed) -> RandomColoringProbe:
    """Draw uniform colorings and report how often every set satisfies its
    sqrt(2|S| log M) threshold simultaneously."""
    if trials < 1:
        raise ValidationError("need trials >= 1")
    thresholds = disc_random_bound(system)
    a = incidence_matrix(system).astype(np.float64)
    rng = np.random.default_rng(seed)
    successes = 0
    for start in range(0, trials, _CHUNK):
        count = min(_CHUNK, trials - start)
        signs = rng.integers(0, 2, size=(count, system.ground_size)) * 2.0 - 1.0
        sums = signs @ a.T
        successes += int(np.count_nonzero((np.abs(sums) <= thresholds[None, :]).all(axis=1)))
    return RandomColoringProbe(thresholds, trials, successes)


def disc_heuristic(system: SetSystem, trials: int, seed) -> tuple[int, Coloring]:
    """Upper estimate of the discrepancy by random restarts plus greedy
    single-flip descent; the witness attains the reported value."""
    if trials < 1:
        raise ValidationError("need trials >= 1")
    a = incidence_matrix(system).astype(np.float64)
    rng = np.random.default_rng(seed)
    n = system.ground_size
    best_val = math.inf
    best_signs: np.ndarray | None = None
    for _ in range(trials):
        signs = rng.integers(0, 2, size=n) * 2.0 - 1.0
        sums = a @ signs
        value = float(np.abs(sums).max())
        while True:
            candidates = sums[:, None] - 2.0 * a * signs[None, :]
            flip_values = np.abs(candidates).max(axis=0)
            j = int(flip_values.argmin())
            if flip_values[j] >= value:
                break
            value = float(flip_values[j])
            sums = candidates[:, j].copy()
            signs[j] = -signs[j]
        if value < best_val:
            best_val = value
            best_signs = signs.copy()
    assert best_signs is not None
    if best_signs[0] < 0:  # normalize the reported witness to chi(1) = +1
        best_signs = -best_signs
    return int(round(best_val)), Coloring(best_signs.astype(int))
