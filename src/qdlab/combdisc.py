"""Exact and probabilistic combinatorial discrepancy.

Exact minimization enumerates the 2^(N-1) colorings with chi(1) = +1 (the
objective is invariant under a global sign flip) in lexicographic order of
the sign vector, in int16 arithmetic and bounded memory. The free signs
split into a high prefix and a low block of L <= 12 signs, with 2^L * M
capped at a fixed entry budget; the per-set sums of all 2^L low blocks are
tabulated once. The prefixes are walked depth first, each depth holding the
per-set sums of its fixed signs, and a subtree is pruned when its lower
bound max_S(|partial sum of S| - |S ∩ free signs|) is at least the best
value found so far. A leaf scores its 2^L colorings with one add, abs and
max per set into a reused buffer, so memory is O(2^L * M + N * M) at any N.
The witness is the lexicographically smallest optimal coloring: prefixes
are visited in lex order, a block's first minimum is taken, only a strictly
smaller value replaces the incumbent, and a pruned subtree holds no value
below it. A restart + single-flip local search covers ground sets beyond
the exhaustive cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateM, GroundSetTooLarge, ValidationError
from .matcore import BATCH_ENTRIES, batches
from .setsys import Coloring, SetSystem, incidence_matrix

DEFAULT_EXHAUSTIVE_CAP = 24
_LOW_BITS = 12  # at most 2^_LOW_BITS colorings per enumeration block
_BLOCK_ENTRIES = 64 * BATCH_ENTRIES  # cap on the entries of one coloring x set table


def disc_exact(system: SetSystem, cap: int = DEFAULT_EXHAUSTIVE_CAP) -> tuple[int, Coloring]:
    """Exact discrepancy min_chi max_S |chi(S)| with an optimal witness.

    Ties are broken toward the lexicographically smallest sign vector
    (with -1 ordered before +1) among colorings with chi(1) = +1.
    """
    n = system.ground_size
    if n > cap:
        raise GroundSetTooLarge(f"ground set of size {n} exceeds the exhaustive cap {cap}")
    cols = np.ascontiguousarray(incidence_matrix(system).T, dtype=np.int16)  # |chi(S)| <= N
    m = cols.shape[1]
    low_bits = max(0, min(_LOW_BITS, n - 1, (_BLOCK_ENTRIES // m).bit_length() - 1))
    h = n - 1 - low_bits  # high-prefix signs
    # per-set sums of every low block in lex order, built by doubling: each
    # earlier sign becomes the most significant bit
    low = np.zeros((1 << low_bits, m), dtype=np.int16)
    for j in range(n - 1, h, -1):
        size = 1 << (n - 1 - j)
        np.add(low[:size], cols[j], out=low[size : 2 * size])
        low[:size] -= cols[j]
    scores = np.empty_like(low)
    values = np.empty(low.shape[0], dtype=np.int16)
    # free[d] = |S ∩ {d + 2, ..., N}|, the signs still free at depth d
    free = (cols.sum(axis=0) - np.cumsum(cols, axis=0)[: h + 1]).astype(np.int16)
    partial = np.empty((h + 1, m), dtype=np.int16)  # per-set sums of the fixed signs
    partial[0] = cols[0]  # chi(1) fixed to +1
    slack = np.empty(m, dtype=np.int16)
    best_val = n + 1  # above every |chi(S)|
    best_k = 0

    def walk(d: int, prefix: int) -> None:
        # |chi(S)| >= |partial sum of S| - |S ∩ free signs| for every completion
        nonlocal best_val, best_k
        np.abs(partial[d], out=slack)
        np.subtract(slack, free[d], out=slack)
        if slack.max() >= best_val:
            return  # no coloring in this subtree beats the incumbent
        if d == h:
            np.add(low, partial[d], out=scores)
            np.abs(scores, out=scores)
            scores.max(axis=1, out=values)
            q = int(values.argmin())  # first occurrence = lex-smallest in block
            if values[q] < best_val:
                best_val = int(values[q])
                best_k = (prefix << low_bits) | q
            return
        np.subtract(partial[d], cols[d + 1], out=partial[d + 1])
        walk(d + 1, 2 * prefix)
        np.add(partial[d], cols[d + 1], out=partial[d + 1])
        walk(d + 1, 2 * prefix + 1)

    walk(0, 0)
    del walk  # the recursive closure is a reference cycle; it would hold the tables until a gc pass
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
    # splitting the draw into batches leaves the stream of signs unchanged
    for rows in batches(trials, max(a.shape), _BLOCK_ENTRIES):
        signs = rng.integers(0, 2, size=(rows.stop - rows.start, system.ground_size)) * 2.0 - 1.0
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
