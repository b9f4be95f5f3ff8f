import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdlab import (
    Coloring,
    ProjectionSystem,
    SetSystem,
    arithmetic_progressions,
    evaluate_coloring,
    incidence_matrix,
    random_set_system,
    to_projection_system,
)
from qdlab.errors import DimMismatch, IndexOutOfRange, ValidationError
from qdlab.setsys import MAX_GROUND_SIZE


def ap_brute(n):
    """Oracle: enumerate {a + kd : k=0..l} directly with python sets."""
    fam = set()
    for a in range(1, n + 1):
        for d in range(1, n + 1):
            for l in range(1, n + 1):
                s = frozenset(x for x in (a + k * d for k in range(l + 1)) if x <= n)
                if s:
                    fam.add(s)
    return fam


class TestArithmeticProgressions:
    def test_n1(self):
        assert arithmetic_progressions(1).sets == ((1,),)

    def test_n2(self):
        got = {frozenset(s) for s in arithmetic_progressions(2).sets}
        assert got == {frozenset({1}), frozenset({2}), frozenset({1, 2})}

    def test_n3_contains_hand_sets(self):
        sets = set(arithmetic_progressions(3).sets)
        assert (1, 3) in sets
        assert (1, 2, 3) in sets

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_brute_enumeration(self, n):
        got = {frozenset(s) for s in arithmetic_progressions(n).sets}
        assert got == ap_brute(n)

    @pytest.mark.parametrize("n", [3, 7, 10])
    def test_contains_all_singletons_and_cubic_size(self, n):
        system = arithmetic_progressions(n)
        sets = set(system.sets)
        for i in range(1, n + 1):
            assert (i,) in sets
        assert system.num_sets <= n**3

    def test_no_duplicates(self):
        system = arithmetic_progressions(8)
        assert len(set(system.sets)) == system.num_sets


class TestRandomSetSystem:
    def test_deterministic(self):
        a = random_set_system(3, 2, 99)
        b = random_set_system(3, 2, 99)
        assert a.sets == b.sets

    def test_single_element(self):
        s = random_set_system(1, 1, 5)
        assert s.sets[0] in ((), (1,))

    def test_inclusion_frequency(self):
        hits = sum(1 in random_set_system(1, 1, (17, t)).sets[0] for t in range(10_000))
        assert abs(hits / 10_000 - 0.5) <= 0.02


class TestProjectionEmbedding:
    def test_single_element_set(self):
        ps = to_projection_system(SetSystem(2, ((1,),)))
        assert np.allclose(ps.projections[0].array, np.diag([1.0, 0.0]))

    def test_full_set(self):
        ps = to_projection_system(SetSystem(2, ((1, 2),)))
        assert np.allclose(ps.projections[0].array, np.eye(2))

    def test_rank_and_order(self):
        ps = to_projection_system(SetSystem(3, ((2, 3), (1,))))
        assert ps.projections[0].rank == 2
        assert np.allclose(ps.projections[0].array, np.diag([0.0, 1.0, 1.0]))
        assert ps.projections[1].rank == 1

    def test_projections_diagonal(self):
        ps = to_projection_system(random_set_system(6, 4, 0))
        for p in ps.projections:
            off = p.array - np.diag(p.array.diagonal())
            assert np.abs(off).max() == 0.0


class TestEvaluateColoring:
    def test_all_plus(self):
        system = SetSystem(4, ((1, 2), (2, 3, 4)))
        values = evaluate_coloring(system, Coloring(np.ones(4, dtype=int)))
        assert values == [2, 3]

    def test_hand_examples(self):
        assert evaluate_coloring(SetSystem(2, ((1, 2),)), Coloring([1, -1])) == [0]
        assert evaluate_coloring(SetSystem(3, ((1, 2, 3),)), Coloring([1, -1, -1])) == [-1]

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            evaluate_coloring(SetSystem(3, ((1,),)), Coloring([1, -1]))

    @given(
        st.integers(1, 8).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.sets(st.integers(1, n), min_size=0), min_size=1, max_size=6),
                st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n),
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_bound_and_parity(self, data):
        n, raw_sets, signs = data
        system = SetSystem(n, tuple(tuple(sorted(s)) for s in raw_sets))
        values = evaluate_coloring(system, Coloring(signs))
        for v, s in zip(values, system.sets):
            assert abs(v) <= len(s)
            assert (v - len(s)) % 2 == 0


class TestIncidenceMatrix:
    def test_hand_example(self):
        a = incidence_matrix(SetSystem(2, ((1,), (1, 2))))
        assert np.array_equal(a, [[1, 0], [1, 1]])

    def test_empty_set_row(self):
        a = incidence_matrix(SetSystem(2, ((), (2,))))
        assert np.array_equal(a[0], [0, 0])

    def test_row_sums_are_sizes(self):
        system = random_set_system(7, 5, 1)
        a = incidence_matrix(system)
        assert np.array_equal(a.sum(axis=1), system.set_sizes())


class TestSetSystemValidation:
    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            SetSystem(2, ((3,),))

    def test_duplicates_rejected(self):
        with pytest.raises(ValidationError):
            SetSystem(3, ((1, 1),))

    def test_needs_a_set(self):
        with pytest.raises(ValidationError):
            SetSystem(3, ())

    def test_unsorted_input_canonicalized(self):
        assert SetSystem(3, ((3, 1),)).sets == ((1, 3),)

    def test_json_roundtrip(self):
        system = random_set_system(5, 3, 8)
        assert SetSystem.from_json(system.to_json()).sets == system.sets

    def test_json_size_limit(self):
        assert SetSystem.from_json({"n": MAX_GROUND_SIZE, "sets": [[1]]}).ground_size == MAX_GROUND_SIZE
        with pytest.raises(ValidationError, match="exceeds"):
            SetSystem.from_json({"n": MAX_GROUND_SIZE + 1, "sets": [[1]]})
        with pytest.raises(ValidationError, match="exceeds"):
            ProjectionSystem.from_json({"n": MAX_GROUND_SIZE + 1, "projections": [[[[1, 0]]]]})
