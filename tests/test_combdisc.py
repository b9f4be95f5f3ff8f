import itertools
import math

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


class TestDiscExactBlocks:
    """disc_exact enumerates blocks of 2^12 colorings under a high prefix;
    N = 13..17 gives prefixes of 0 to 4 signs."""

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_oracle(self, seed):
        rng = np.random.default_rng((4321, seed))
        n = 13 + seed % 5
        m = int(rng.integers(1, 40))
        mask = rng.random((m, n)) < rng.uniform(0.1, 0.9)
        system = SetSystem(n, tuple(tuple(int(j + 1) for j in np.flatnonzero(r)) for r in mask))
        value, witness = disc_exact(system)
        assert (value, tuple(witness.signs)) == lex_min_oracle(system)

    @pytest.mark.parametrize(
        "system",
        [
            SetSystem(1, ((1,),)),
            SetSystem(1, ((),)),
            SetSystem(15, ((), (2, 5, 9), (1, 14, 15), (3,))),
            SetSystem(16, (tuple(range(1, 17)),)),
            SetSystem(15, (tuple(range(1, 16)),)),
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
