import gc
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from qdlab import (
    SetSystem,
    arithmetic_progressions,
    disc_exact,
    disc_heuristic,
    disc_random_bound,
    evaluate_coloring,
    random_coloring_satisfaction,
    random_set_system,
)
from qdlab.errors import DegenerateM, GroundSetTooLarge
from qdlab.setsys import incidence_matrix

from conftest import brute_force_disc


class TestDiscExact:
    def test_nested_pair(self):
        value, witness = disc_exact(SetSystem(2, ((1,), (1, 2))))
        assert value == 1
        assert max(abs(v) for v in evaluate_coloring(SetSystem(2, ((1,), (1, 2))), witness)) == 1

    def test_triangle(self):
        value, _ = disc_exact(SetSystem(3, ((1, 2), (2, 3), (1, 3))))
        assert value == 2

    def test_single_even_set_balanced(self):
        value, witness = disc_exact(SetSystem(6, ((1, 2, 3, 4, 5, 6),)))
        assert value == 0
        assert witness.signs.sum() == 0

    def test_singleton_forces_one(self):
        value, _ = disc_exact(SetSystem(4, ((2,), (1, 2, 3, 4))))
        assert value >= 1

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_brute_force(self, seed):
        n = 2 + seed % 7
        system = random_set_system(n, 3 + seed % 5, (1234, seed))
        value, witness = disc_exact(system)
        assert value == brute_force_disc(system)
        assert max(abs(v) for v in evaluate_coloring(system, witness)) == value

    def test_witness_is_lex_smallest(self):
        # brute-force the lex-min optimal witness with chi(1) = +1
        system = random_set_system(6, 4, 77)
        value, witness = disc_exact(system)
        best = None
        for rest in itertools.product((-1, 1), repeat=5):
            signs = (1,) + rest
            v = max(abs(sum(signs[i - 1] for i in s)) for s in system.sets)
            if v == value and (best is None or signs < best):
                best = signs
        assert tuple(witness.signs) == best

    def test_cap(self):
        with pytest.raises(GroundSetTooLarge):
            disc_exact(random_set_system(12, 3, 0), cap=10)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(5)
        for trial in range(100):
            n = int(rng.integers(2, 9))
            system = random_set_system(n, int(rng.integers(2, 7)), (50, trial))
            perm = rng.permutation(n) + 1
            relabeled = SetSystem(
                n, tuple(tuple(sorted(int(perm[i - 1]) for i in s)) for s in system.sets)
            )
            assert disc_exact(system)[0] == disc_exact(relabeled)[0]

    def test_zero_iff_perfectly_balanced(self):
        # a system admitting a zeroing coloring
        value, witness = disc_exact(SetSystem(4, ((1, 2), (3, 4), (1, 2, 3, 4))))
        assert value == 0
        assert all(v == 0 for v in evaluate_coloring(SetSystem(4, ((1, 2), (3, 4), (1, 2, 3, 4))), witness))


def lex_min_oracle(system):
    """Value and lex-smallest optimal witness with chi(1) = +1, by scoring
    all 2^(N-1) colorings at once."""
    n = system.ground_size
    ks = np.arange(1 << (n - 1))
    bits = (ks[:, None] >> np.arange(n - 2, -1, -1)) & 1
    signs = np.hstack([np.ones((ks.size, 1), dtype=int), 2 * bits - 1])
    values = np.abs(signs @ incidence_matrix(system).T).max(axis=1)
    k = int(values.argmin())
    return int(values[k]), tuple(signs[k])


def block_reference(system):
    """Value and lex-smallest optimal witness with chi(1) = +1 by the former
    block algorithm: the int64 per-set sums of every high prefix and of
    every low block of up to 12 signs, tabulated at once, with a
    prefix skipped when max_S(|prefix sum| - |S ∩ low block|) is at least
    the incumbent."""
    n = system.ground_size
    a = incidence_matrix(system)

    def sign_sums(cols, offset):
        width = cols.shape[1]
        ks = np.arange(1 << width, dtype=np.int64)
        signs = 2 * ((ks[:, None] >> np.arange(width - 1, -1, -1)) & 1) - 1
        return signs @ cols.T + offset

    h = max(0, n - 1 - 12)
    high_sums = sign_sums(a[:, 1 : 1 + h], a[:, 0])
    low = a[:, 1 + h :]
    low_sums = sign_sums(low, 0)
    bounds = (np.abs(high_sums) - low.sum(axis=1)).max(axis=1)
    best_val, best_k = n + 1, 0
    for p in range(high_sums.shape[0]):
        if bounds[p] >= best_val:
            continue
        values = np.abs(low_sums + high_sums[p]).max(axis=1)
        q = int(values.argmin())
        if values[q] < best_val:
            best_val, best_k = int(values[q]), (p << (n - 1 - h)) | q
    bits = (best_k >> np.arange(n - 2, -1, -1)) & 1
    return best_val, tuple(np.concatenate(([1], 2 * bits - 1)).tolist())


def random_system(rng, n, m, density=(0.1, 0.9)):
    mask = rng.random((m, n)) < rng.uniform(*density)
    return SetSystem(n, tuple(tuple(int(j + 1) for j in np.flatnonzero(r)) for r in mask))


class TestDiscExactBlocks:
    """disc_exact walks the high-prefix signs depth first and scores a low
    block of up to 2^12 colorings at each leaf; the block shrinks below 12
    bits once 2^12 * M passes the entry budget (M > 256). Both the
    brute-force oracle and the former block algorithm must agree with it on
    value and witness."""

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_oracle(self, seed):
        rng = np.random.default_rng((4321, seed))
        system = random_system(rng, 13 + seed % 5, int(rng.integers(1, 40)))
        value, witness = disc_exact(system)
        assert (value, tuple(witness.signs)) == lex_min_oracle(system)

    @pytest.mark.parametrize("n", range(1, 25))
    def test_ap_matches_block_reference(self, n):
        system = arithmetic_progressions(n)
        value, witness = disc_exact(system)
        assert (value, tuple(witness.signs)) == block_reference(system)

    @pytest.mark.parametrize("seed", range(24))
    def test_random_matches_block_reference(self, seed):
        # N = 1, 2 and 13 are the edges of the split; M from 300 to 1200
        # shrinks the low block to 11 down to 9 bits
        rng = np.random.default_rng((8642, seed))
        n = (1, 2, 13, 14, 16, 18)[seed % 6]
        m = int(rng.integers(300, 1200)) if seed // 6 % 2 == 0 else int(rng.integers(1, 60))
        system = random_system(rng, n, m)
        value, witness = disc_exact(system)
        assert (value, tuple(witness.signs)) == block_reference(system)
        if n <= 16 and m < 60:
            assert (value, tuple(witness.signs)) == lex_min_oracle(system)

    @pytest.mark.parametrize("seed", range(60))
    def test_sparse_matches_block_reference(self, seed):
        # small sets leave many signs free below a prefix, where an invalid
        # pruning bound would cut off the optimum
        rng = np.random.default_rng((4242, seed))
        system = random_system(rng, 13 + seed % 6, int(rng.integers(1, 60)), density=(0.05, 0.3))
        value, witness = disc_exact(system)
        assert (value, tuple(witness.signs)) == block_reference(system)

    @pytest.mark.parametrize(
        "system",
        [
            SetSystem(1, ((1,),)),
            SetSystem(1, ((),)),
            SetSystem(15, ((), (2, 5, 9), (1, 14, 15), (3,))),
            SetSystem(16, (tuple(range(1, 17)),)),
            SetSystem(15, (tuple(range(1, 16)),)),
            SetSystem(2, ((), (2,))),
            SetSystem(13, (tuple(range(1, 14)), (1, 13))),
        ],
    )
    def test_edge_systems(self, system):
        value, witness = disc_exact(system)
        assert (value, tuple(witness.signs)) == lex_min_oracle(system)

    def test_ap20_witness(self):
        value, witness = disc_exact(arithmetic_progressions(20))
        assert value == 3
        assert witness.signs.tolist() == [1, -1, -1, -1, 1, -1, 1, 1, -1, 1, -1, 1, -1, -1, 1, -1, 1, 1, 1, -1]

    def test_ap24_at_cap(self):
        value, witness = disc_exact(arithmetic_progressions(24))
        assert value == 3
        assert witness.signs.tolist() == [
            1, -1, -1, 1, -1, 1, -1, -1, 1, -1, 1, 1, 1, -1, -1, -1, 1, 1, -1, 1, -1, 1, 1, -1
        ]

    def test_ap28_in_bounded_memory(self):
        system = arithmetic_progressions(28)
        tracemalloc.start()
        try:
            value, witness = disc_exact(system, cap=28)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == 4
        assert "".join("+" if s > 0 else "-" for s in witness.signs) == "+----+-+-++--++-+-+--+-+-++-"
        assert peak < 16 * 2**20

    def test_tables_are_freed_on_return(self):
        # a reference cycle would keep the low-block tables alive until the next gc pass
        gc.collect()
        gc.disable()
        try:
            disc_exact(arithmetic_progressions(12))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_ap32_disc_four(self):
        # the witness attains 4, and AP(28)'s sets (disc 4) are sets of AP(32)
        system = arithmetic_progressions(32)
        value, witness = disc_exact(system, cap=32)
        assert value == 4
        assert max(abs(v) for v in evaluate_coloring(system, witness)) == 4
        assert set(arithmetic_progressions(28).sets) <= set(system.sets)


class TestRandomColoringBound:
    def test_threshold_formula(self):
        system = SetSystem(3, ((1, 2), (2, 3)))
        thresholds = disc_random_bound(system)
        assert thresholds[0] == pytest.approx(math.sqrt(4.0 * math.log(2.0)))
        assert thresholds[0] == pytest.approx(1.6651092223153954)

    def test_degenerate_m(self):
        with pytest.raises(DegenerateM):
            disc_random_bound(SetSystem(3, ((1,),)))

    def test_singletons_always_satisfied(self):
        system = SetSystem(4, ((1,), (2,), (3,), (4,)))
        probe = random_coloring_satisfaction(system, 500, 3)
        assert probe.frequency == 1.0

    def test_satisfaction_deterministic(self):
        system = random_set_system(10, 6, 4)
        a = random_coloring_satisfaction(system, 2000, 9)
        b = random_coloring_satisfaction(system, 2000, 9)
        assert a.successes == b.successes

    def test_chunks_keep_the_stream(self):
        # at M = 2048 a chunk holds 512 colorings; the chunked draws must
        # equal one draw of all trials
        system = random_set_system(64, 2048, 31)
        probe = random_coloring_satisfaction(system, 1300, 8)
        signs = np.random.default_rng(8).integers(0, 2, size=(1300, 64)) * 2.0 - 1.0
        sums = np.abs(signs @ incidence_matrix(system).T)
        expected = int(np.count_nonzero((sums <= probe.thresholds).all(axis=1)))
        assert probe.successes == expected
        assert 0 < expected < 1300

    def test_random_coloring_lemma_rate(self):
        # the all-sets event has probability >= 1/2 for the uniform coloring
        system = random_set_system(20, 20, 2024)
        probe = random_coloring_satisfaction(system, 10_000, 7)
        assert probe.frequency >= 0.5 - 0.02


class TestDiscHeuristic:
    def test_upper_bound_on_corpus(self):
        for seed in range(15):
            system = random_set_system(2 + seed % 6, 3 + seed % 4, (99, seed))
            exact, _ = disc_exact(system)
            est, witness = disc_heuristic(system, trials=8, seed=(1, seed))
            assert est >= exact
            assert max(abs(v) for v in evaluate_coloring(system, witness)) == est

    def test_deterministic(self):
        system = random_set_system(12, 8, 11)
        assert disc_heuristic(system, 1, 5)[0] == disc_heuristic(system, 1, 5)[0]

    def test_two_singletons(self):
        value, _ = disc_heuristic(SetSystem(2, ((1,), (2,))), trials=4, seed=0)
        assert value == 1
