import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdlab import (
    Coloring,
    ProjectionSystem,
    SetSystem,
    arithmetic_progressions,
    as_projection,
    evaluate_coloring,
    incidence_matrix,
    matrix_to_json,
    random_projection,
    random_projection_system,
    random_set_system,
    to_projection_system,
)
from qdlab.errors import DimMismatch, IndexOutOfRange, ValidationError
from qdlab.matcore import BATCH_ENTRIES, seed_sequence
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


def ap_triple_loop(n):
    """Oracle: every (a, d, l) in [N]^3 in order, each progression cut at N,
    kept at its first occurrence."""
    seen = {}
    for a in range(1, n + 1):
        for d in range(1, n + 1):
            for l in range(1, n + 1):
                seen.setdefault(tuple(x for k in range(l + 1) if (x := a + k * d) <= n), None)
    return tuple(seen)


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

    def test_same_family_and_order_as_the_triple_loop(self):
        for n in range(1, 33):
            assert arithmetic_progressions(n).sets == ap_triple_loop(n)

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


def diagonal_embedding(system):
    """Oracle: each set as its own validated np.diag projection."""
    projs = []
    for s in system.sets:
        diag = np.zeros(system.ground_size, dtype=np.complex128)
        diag[[i - 1 for i in s]] = 1.0
        projs.append(as_projection(np.diag(diag)))
    return projs


class TestProjectionStack:
    @pytest.mark.parametrize("n, m", [(24, 96), (32, 64), (5, 3), (7, 11), (2, 4)])
    def test_random_system_equals_per_projection_draws(self, n, m):
        system = random_projection_system(n, m, 1234)
        projs = [random_projection(n, c) for c in seed_sequence(1234).spawn(m)]
        assert np.array_equal(system.stacked(), np.stack([p.array for p in projs]))
        assert np.array_equal(system.ranks(), [p.rank for p in projs])
        assert system.dim == n and system.num_projections == m

    @pytest.mark.parametrize(
        "system",
        [arithmetic_progressions(n) for n in (6, 7, 8, 9, 10, 11, 12, 20)]
        + [random_set_system(n, m, seed) for n, m, seed in ((1, 1, 0), (9, 30, 1), (13, 40, 5))],
    )
    def test_set_system_embedding_equals_diagonal_projections(self, system):
        ps = to_projection_system(system)
        projs = diagonal_embedding(system)
        assert np.array_equal(ps.stacked(), np.stack([p.array for p in projs]))
        assert np.array_equal(ps.ranks(), [p.rank for p in projs])

    def test_stack_is_stored_once_and_read_only(self):
        ps = to_projection_system(arithmetic_progressions(9))
        assert ps.stacked() is ps.stacked() and ps.ranks() is ps.ranks()
        assert not ps.stacked().flags.writeable and not ps.ranks().flags.writeable
        with pytest.raises(ValueError):
            ps.stacked()[0, 0, 0] = 2.0
        assert ps.projections is ps.projections
        for i, p in enumerate(ps.projections):
            assert np.array_equal(p.array, ps.stacked()[i]) and np.shares_memory(p.array, ps.stacked())
            assert p.rank == ps.ranks()[i] and p.dim == 9

    def test_writeable_complex_stack_is_taken_over(self):
        raw = np.stack([np.eye(3), np.diag([1.0, 0.0, 0.0])]).astype(np.complex128)
        ps = ProjectionSystem(raw)
        assert ps.stacked() is raw and not raw.flags.writeable

    @pytest.mark.parametrize("kind", ["read-only", "float", "list"])
    def test_other_stacks_are_copied(self, kind):
        base = to_projection_system(random_set_system(5, 6, 2))
        raw = {"read-only": base.stacked(), "float": base.stacked().real.copy(),
               "list": list(base.stacked())}[kind]
        ps = ProjectionSystem(raw)
        assert not any(np.shares_memory(ps.stacked(), a) for a in (base.stacked(), raw[0]))
        assert np.array_equal(ps.stacked(), base.stacked())
        if kind == "float":
            assert raw.flags.writeable

    @pytest.mark.parametrize(
        "bad",
        [
            np.diag([1.0, 0.0, 0.0, 0.0]) + 1e-3 * np.eye(4, k=1),  # anti-Hermitian part far above 1e-6
            np.diag([0.5, 1.0, 0.0, 0.0]),  # an eigenvalue of 0.5
            np.diag([1.0, 1.0, 0.0, 0.0]) + 0.9e-10 * np.eye(4),  # spectrum within 1e-10 of {0, 1}, trace off by 3.6e-10
            np.diag([np.nan, 1.0, 0.0, 0.0]),  # a non-finite entry
        ],
    )
    def test_bad_slice_in_last_chunk_fails_like_as_projection(self, bad):
        n = 4
        per_chunk = BATCH_ENTRIES // (n * n)
        good = random_projection_system(n, 2 * per_chunk + 3, 5).stacked()
        stack = np.concatenate([good, bad[None]])
        assert len(stack) > 2 * per_chunk  # the bad slice is alone in the third chunk
        with pytest.raises(ValueError) as expected:
            as_projection(bad)
        with pytest.raises(ValueError) as got:
            ProjectionSystem(stack)
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)
        ProjectionSystem(good)  # the same stack without the bad slice passes

    @pytest.mark.parametrize("shape", [(0, 3, 3), (2, 3), (2, 3, 4), (2, 0, 0)])
    def test_bad_stack_shapes_refused(self, shape):
        with pytest.raises(ValidationError):
            ProjectionSystem(np.zeros(shape))

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": -1, "projections": []},
            {"n": 0, "projections": []},
            {"n": 2, "projections": [matrix_to_json(np.eye(2)), matrix_to_json(np.eye(3))]},
            {"n": 3, "projections": [matrix_to_json(np.eye(2))]},
        ],
    )
    def test_json_edge_cases_are_validation_errors(self, doc):
        with pytest.raises(ValidationError if not doc["projections"] else DimMismatch):
            ProjectionSystem.from_json(doc)

    def test_json_roundtrip(self):
        ps = random_projection_system(5, 4, 3)
        doc = {"n": 5, "projections": [matrix_to_json(p) for p in ps.stacked()]}
        assert np.array_equal(ProjectionSystem.from_json(doc).stacked(), ps.stacked())


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

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": 3.9, "sets": [[1]]},
            {"n": 3.0, "sets": [[1]]},
            {"n": True, "sets": [[1]]},
            {"n": "3", "sets": [[1]]},
            {"n": 3, "sets": [[1, 2.7]]},
            {"n": 3, "sets": [[1, 2.0]]},
            {"n": 3, "sets": [[True, 3]]},
        ],
    )
    def test_json_needs_exact_integers(self, doc):
        with pytest.raises(ValidationError, match="JSON integer"):
            SetSystem.from_json(doc)

    @pytest.mark.parametrize("n", [1.0, False, "1"])
    def test_projection_json_needs_integer_n(self, n):
        with pytest.raises(ValidationError, match="JSON integer"):
            ProjectionSystem.from_json({"n": n, "projections": [[[[1, 0]]]]})
