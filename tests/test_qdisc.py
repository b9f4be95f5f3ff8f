import math

import numpy as np
import pytest

from qdlab import (
    Coloring,
    ProjectionSystem,
    SetSystem,
    as_coloring,
    as_projection,
    check_delta_event,
    delta_event_count,
    delta_p,
    delta_threshold,
    disc_exact,
    evaluate_coloring,
    haar_unitary,
    lipschitz_check,
    make_projection_from_vectors,
    objective,
    objective_vs_dpp,
    qdisc_estimate,
    random_projection,
    random_projection_system,
    random_quantum_coloring,
    random_set_system,
    to_projection_system,
    trivial_bound_check,
)
from qdlab.errors import DegenerateDim, DimMismatch, RankMismatch, ValidationError

from conftest import random_unit_vector


def rank_one(rng, n):
    return make_projection_from_vectors(random_unit_vector(rng, n))


class TestObjective:
    def test_identity_coloring(self):
        p = random_projection(6, 0)
        chi = as_coloring(np.eye(6))
        val = objective(chi, p)
        assert val.value == pytest.approx(p.rank)
        assert val.trace_term == pytest.approx(p.rank**2)
        assert val.commutator_term == pytest.approx(0.0, abs=1e-10)

    def test_diagonal_equals_signed_sum(self):
        system = SetSystem(5, ((1, 3), (2, 3, 4), (5,)))
        signs = Coloring([1, -1, -1, 1, -1])
        chi = as_coloring(np.diag(signs.signs.astype(complex)))
        values = evaluate_coloring(system, signs)
        for proj, v in zip(to_projection_system(system).projections, values):
            assert objective(chi, proj).value == abs(v)  # exact, no tolerance

    def test_swap_coloring_hand_example(self):
        val = objective(as_coloring([[0.0, 1.0], [1.0, 0.0]]), as_projection(np.diag([1.0, 0.0])))
        assert val.trace_term == pytest.approx(0.0, abs=1e-12)
        assert val.commutator_term == pytest.approx(1.0)
        assert val.value == pytest.approx(1.0)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            objective(as_coloring(np.eye(2)), as_projection(np.eye(3)))

    def test_unitary_covariance(self):
        rng = np.random.default_rng(0)
        for seed in range(20):
            n = int(rng.integers(2, 7))
            chi = random_quantum_coloring(n, (1, seed))
            p = random_projection(n, (2, seed))
            u = haar_unitary(n, (3, seed))
            chi2 = as_coloring(u @ chi.array @ u.conj().T)
            p2 = as_projection(u @ p.array @ u.conj().T)
            assert objective(chi2, p2).value == pytest.approx(objective(chi, p).value, abs=1e-9)

    def test_rank_one_constancy(self):
        rng = np.random.default_rng(7)
        for seed in range(100):
            n = int(rng.integers(2, 9))
            chi = random_quantum_coloring(n, (4, seed))
            assert objective(chi, rank_one(rng, n)).value == pytest.approx(1.0, abs=1e-9)


class TestObjectiveVsDpp:
    def test_matches_imbalance_on_random_pairs(self):
        rng = np.random.default_rng(12)
        for seed in range(30):
            n = int(rng.integers(2, 7))
            chi = random_quantum_coloring(n, (5, seed))
            subset = [int(i) + 1 for i in np.flatnonzero(rng.random(n) < 0.6)]
            rec = objective_vs_dpp(chi, subset)
            assert abs(rec.difference) <= 1e-9

    def test_diagonal_coloring(self):
        chi = as_coloring(np.diag([1.0, -1.0, -1.0, 1.0]))
        rec = objective_vs_dpp(chi, [1, 2, 3])
        assert rec.imbalance == pytest.approx(1.0)  # chi(S) = -1
        assert rec.objective_sq == pytest.approx(1.0)

    def test_empty_subset(self):
        rec = objective_vs_dpp(random_quantum_coloring(3, 0), [])
        assert rec.imbalance == pytest.approx(0.0)
        assert rec.objective_sq == pytest.approx(0.0, abs=1e-12)


class TestTrivialBound:
    def test_identity_residual_small(self):
        for seed in range(50):
            chi = random_quantum_coloring(5, (6, seed))
            p = random_projection(5, (7, seed))
            rec = trivial_bound_check(chi, p)
            assert rec.residual <= 1e-9
            assert rec.within_bound

    def test_zero_projection(self):
        chi = random_quantum_coloring(3, 1)
        rec = trivial_bound_check(chi, as_projection(np.zeros((3, 3))))
        assert rec.direct == pytest.approx(0.0, abs=1e-12)
        assert rec.pairwise == pytest.approx(0.0, abs=1e-12)

    def test_objective_never_exceeds_dim(self):
        rng = np.random.default_rng(3)
        for seed in range(200):
            n = int(rng.integers(2, 9))
            chi = random_quantum_coloring(n, (8, seed))
            p = random_projection(n, (9, seed))
            assert objective(chi, p).value <= n + 1e-9


class TestQdiscEstimate:
    def test_rank_one_system_value_one(self):
        rng = np.random.default_rng(4)
        projs = tuple(rank_one(rng, 4) for _ in range(3))
        est = qdisc_estimate(ProjectionSystem(4, projs), restarts=2, sweeps=1, seed=0)
        assert est.value == pytest.approx(1.0, abs=1e-9)

    def test_identity_system_even_dim(self):
        est = qdisc_estimate(ProjectionSystem(4, (as_projection(np.eye(4)),)), restarts=1, sweeps=0, seed=0)
        assert est.value == pytest.approx(0.0, abs=1e-10)

    def test_never_exceeds_combinatorial_disc(self):
        for seed in range(10):
            system = random_set_system(7, 5, (10, seed))
            disc, _ = disc_exact(system)
            est = qdisc_estimate(to_projection_system(system), restarts=2, sweeps=1, seed=(11, seed))
            assert est.value <= disc + 1e-12

    def test_witness_attains_value(self):
        psys = random_projection_system(5, 3, 21)
        est = qdisc_estimate(psys, restarts=2, sweeps=2, seed=1)
        values = [objective(est.witness, p).value for p in psys.projections]
        assert max(values) == pytest.approx(est.value, abs=1e-9)
        assert est.value <= 5 + 1e-9

    def test_deterministic_and_monotone_in_restarts(self):
        psys = random_projection_system(4, 4, 5)
        a = qdisc_estimate(psys, restarts=2, sweeps=1, seed=3)
        b = qdisc_estimate(psys, restarts=2, sweeps=1, seed=3)
        c = qdisc_estimate(psys, restarts=5, sweeps=1, seed=3)
        assert a.value == b.value
        assert np.array_equal(a.witness.array, b.witness.array)
        assert c.value <= a.value + 1e-12

    def test_requires_restarts(self):
        with pytest.raises(ValidationError):
            qdisc_estimate(random_projection_system(3, 1, 0), restarts=0)


class TestDeltaThreshold:
    def test_hand_value(self):
        # sqrt(2) [sqrt(log 8 + 4/3 - 2/3) + 1/2] ~= 3.0507
        expected = math.sqrt(2.0) * (math.sqrt(math.log(8.0) + 4.0 / 3.0 - 2.0 / 3.0) + 0.5)
        assert delta_threshold(2, 1, 1, 1.0) == pytest.approx(expected, abs=1e-12)
        assert delta_threshold(2, 1, 1, 1.0) == pytest.approx(3.0507, abs=1e-4)

    def test_rank_zero(self):
        for m, c in ((1, 1.0), (16, 0.5)):
            assert delta_threshold(4, 0, m, c) == pytest.approx(
                math.sqrt(2.0) * math.sqrt(math.log(8 * m) / c)
            )

    def test_full_rank_monotone_in_m(self):
        vals = [delta_threshold(6, 6, m, 1.0) for m in (1, 2, 8, 64, 1024)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_degenerate_dim(self):
        with pytest.raises(DegenerateDim):
            delta_threshold(1, 0, 1, 1.0)

    def test_delta_p_wraps_projection(self):
        p = random_projection(6, 2)
        assert delta_p(p, 4, 2.0) == delta_threshold(6, 3, 4, 2.0)


class TestDeltaEvent:
    def test_rank_one_always_satisfied_for_small_c(self):
        rng = np.random.default_rng(9)
        system = ProjectionSystem(2, (rank_one(rng, 2),))
        for seed in range(10):
            chi = random_quantum_coloring(2, (12, seed))
            rec = check_delta_event(system, chi, c=1.0)
            assert rec.all_satisfied

    def test_record_length_and_determinism(self):
        system = random_projection_system(4, 5, 30)
        chi = random_quantum_coloring(4, 31)
        rec1 = check_delta_event(system, chi, c=2.0)
        rec2 = check_delta_event(system, chi, c=2.0)
        assert len(rec1.satisfied) == 5
        assert np.array_equal(rec1.values, rec2.values)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            check_delta_event(random_projection_system(4, 2, 0), random_quantum_coloring(6, 0), 1.0)

    def test_count_matches_per_coloring_checks(self):
        # every third coloring is +-I, whose objective r = 3 exceeds Delta_P once c is large
        system = random_projection_system(6, 8, 40)
        colorings = [
            random_quantum_coloring(6, (41, t)) if t % 3 else as_coloring((-1) ** t * np.eye(6))
            for t in range(30)
        ]
        stack = np.stack([chi.array for chi in colorings])
        for c, hits in ((0.05, 30), (1e4, 20)):
            assert sum(check_delta_event(system, chi, c).all_satisfied for chi in colorings) == hits
            assert delta_event_count(system, stack, c) == hits
            assert delta_event_count(system, iter(stack), c) == hits

    def test_count_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            delta_event_count(random_projection_system(4, 2, 0), np.zeros((3, 6, 6)), 1.0)


class TestLipschitz:
    def test_equal_colorings(self):
        p = random_projection(6, 3)
        chi = random_quantum_coloring(6, 4)
        rec = lipschitz_check(p, chi, chi)
        assert rec.trace_slack >= 0.0
        assert rec.commutator_slack >= 0.0

    def test_negated_coloring(self):
        p = random_projection(4, 5)
        chi = random_quantum_coloring(4, 6)
        neg = as_coloring(-chi.array)
        rec = lipschitz_check(p, chi, neg)
        # |tr(chi P)| = |tr(-chi P)| so the trace deviation is zero
        assert rec.trace_slack == pytest.approx(math.sqrt(2.0) * 2 * np.linalg.norm(chi.array))

    def test_random_triples(self):
        for seed in range(100):
            n = 4 + 4 * (seed % 3)
            p = random_projection(n, (13, seed))
            chi1 = random_quantum_coloring(n, (14, seed))
            chi2 = random_quantum_coloring(n, (15, seed))
            rec = lipschitz_check(p, chi1, chi2)
            assert rec.trace_slack >= -1e-9
            assert rec.commutator_slack >= -1e-9

    def test_rank_mismatch(self):
        full = as_projection(np.eye(4))
        with pytest.raises(RankMismatch):
            lipschitz_check(full, random_quantum_coloring(4, 0), random_quantum_coloring(4, 1))


class TestObjectiveValueInvariants:
    def test_negative_term_rejected(self):
        from qdlab import ObjectiveValue

        with pytest.raises(ValidationError):
            ObjectiveValue(trace_term=-1.0, commutator_term=0.0, value=0.0)

    def test_value_consistency_checked(self):
        from qdlab import ObjectiveValue

        with pytest.raises(ValidationError):
            ObjectiveValue(trace_term=1.0, commutator_term=0.0, value=2.0)
