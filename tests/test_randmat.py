import math
from dataclasses import asdict

import numpy as np
import pytest

from qdlab import (
    concentration_probe,
    exact_mean_commutator_term,
    exact_mean_trace,
    exact_mean_trace_sq,
    exact_mean_trace_sq_fixed_coloring,
    exact_variance_trace,
    haar_fourth_moments,
    haar_unitary,
    random_projection,
    random_projection_system,
    random_quantum_coloring,
)
from qdlab.errors import DegenerateDim, ValidationError
from qdlab import randmat
from qdlab.matcore import BATCH_ENTRIES
from qdlab.randmat import _gate, coloring_spectrum, haar_batch, moment_gates


def reference_haar(rng, n):
    """One Haar unitary drawn on its own: QR of a complex Ginibre matrix,
    real parts drawn before imaginary parts, with R's diagonal phases moved
    into Q."""
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def corner_table(a):
    """The (N+1, N+1) table of sums of |a_pq|^2 over p < i and q < j."""
    out = np.zeros((a.shape[0] + 1, a.shape[1] + 1))
    out[1:, 1:] = (np.abs(a) ** 2).cumsum(axis=0).cumsum(axis=1)
    return out


def reference_gate_inputs(n, trials, seed, all_ranks):
    """The (name, n, param, exact, samples) arguments of every gate of
    moment_gates, with the samples computed one trial at a time: the oracle
    of its batched statistics."""
    rng = np.random.default_rng(seed)
    d = coloring_spectrum(n)
    r0 = n // 2
    ranks = list(range(n + 1)) if all_ranks else [r0]
    fixed_ks = [] if all_ranks or n < 3 else [r0 + 1]
    t1 = np.empty((trials, len(ranks)))
    t2 = np.empty((trials, len(ranks)))
    fixed = np.empty((trials, len(fixed_ks)))
    m4 = np.empty((trials, 4))
    for t in range(trials):
        u = reference_haar(rng, n)
        chi = (u * d) @ u.conj().T
        diag_cum = np.concatenate(([0.0], np.cumsum(chi.diagonal().real)))
        corner = corner_table(chi)
        for col, r in enumerate(ranks):
            t1[t, col] = diag_cum[r]
            t2[t, col] = corner[r, r]
        for col, k in enumerate(fixed_ks):
            fixed[t, col] = corner[k, k] + (r0 - k)
        m4[t, 0] = np.abs(u[0, 0]) ** 4
        m4[t, 1] = (np.abs(u[0, 0]) * np.abs(u[0, 1])) ** 2
        m4[t, 2] = (np.abs(u[0, 0]) * np.abs(u[1, 1])) ** 2
        m4[t, 3] = (u[0, 0] * u[1, 1] * np.conj(u[1, 0]) * np.conj(u[0, 1])).real
    inputs = []
    for col, r in enumerate(ranks):
        inputs.append(("mean_trace", n, r, exact_mean_trace(n, r), t1[:, col]))
        inputs.append(("mean_trace_sq", n, r, exact_mean_trace_sq(n, r), t2[:, col]))
    second = exact_variance_trace(n, r0) + exact_mean_trace(n, r0) ** 2
    inputs.append(("trace_second_moment", n, r0, second, t1[:, ranks.index(r0)] ** 2))
    for col, k in enumerate(fixed_ks):
        inputs.append(("mean_trace_sq_fixed", n, k, exact_mean_trace_sq_fixed_coloring(n, 2 * k - n), fixed[:, col]))
    fm = haar_fourth_moments(n)
    inputs.append(("abs_fourth", n, 0, fm.abs_fourth, m4[:, 0]))
    inputs.append(("abs_shared_index", n, 0, fm.abs_shared_index, m4[:, 1]))
    inputs.append(("abs_distinct", n, 0, fm.abs_distinct, m4[:, 2]))
    inputs.append(("cross", n, 0, fm.cross, m4[:, 3]))
    return inputs


class TestHaarUnitary:
    def test_scalar_case(self):
        u = haar_unitary(1, 5)
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-12

    def test_unitarity_and_det(self):
        for seed in range(20):
            n = 2 + seed % 7
            u = haar_unitary(n, seed)
            assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= 1e-10
            assert abs(abs(np.linalg.det(u)) - 1.0) <= 1e-9

    def test_first_entry_second_moment(self):
        n, trials = 4, 20_000
        vals = np.abs(haar_batch(np.random.default_rng(3), trials, n)[:, 0, 0]) ** 2
        se = vals.std(ddof=1) / math.sqrt(trials)
        assert abs(vals.mean() - 1.0 / n) <= 4 * se

    def test_first_entry_mean_needs_the_phase_correction(self):
        # E[U_00] = 0 for Haar U. Every moment gate is invariant under
        # U -> U diag(e^{i phi}), so this is the statistic that sees the phases
        # moved from R into Q; plain QR of the same Ginibre draws (a real
        # diagonal of R, of one sign convention) must fail it.
        n, trials = 4, 20_000

        def z(vals):
            return abs(vals.mean()) / (vals.std(ddof=1) / math.sqrt(trials))

        haar = haar_batch(np.random.default_rng(5), trials, n)[:, 0, 0]
        g = np.random.default_rng(5).standard_normal((trials, 2, n, n))
        plain = np.linalg.qr((g[:, 0] + 1j * g[:, 1]) / math.sqrt(2.0))[0][:, 0, 0]
        assert z(haar) <= 5
        assert z(plain) > 5

    def test_left_invariance_spot_check(self):
        # E|(VU)_00|^2 is also 1/N for fixed unitary V
        n, trials = 3, 20_000
        v = haar_unitary(n, 123)
        vals = np.abs((v @ haar_batch(np.random.default_rng(4), trials, n))[:, 0, 0]) ** 2
        se = vals.std(ddof=1) / math.sqrt(trials)
        assert abs(vals.mean() - 1.0 / n) <= 4 * se


class TestHaarBatch:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 32])
    def test_equals_single_draws_and_leaves_the_same_state(self, n):
        batched, single = np.random.default_rng((9, n)), np.random.default_rng((9, n))
        stack = haar_batch(batched, 7, n)
        assert stack.shape == (7, n, n)
        assert np.array_equal(stack, np.stack([reference_haar(single, n) for _ in range(7)]))
        assert batched.bit_generator.state == single.bit_generator.state

    def test_single_draw_functions_take_one_slice(self):
        assert np.array_equal(haar_unitary(4, 11), haar_batch(np.random.default_rng(11), 1, 4)[0])


class TestRandomColoring:
    @pytest.mark.parametrize("n", [2, 3, 6, 7])
    def test_trace_and_spectrum(self, n):
        chi = random_quantum_coloring(n, 9)
        expected_trace = 0 if n % 2 == 0 else -1
        assert chi.exact_trace() == expected_trace
        assert abs(np.trace(chi.array).real - expected_trace) <= 1e-10
        assert np.linalg.norm(chi.array @ chi.array - np.eye(n)) <= 1e-10
        lam = np.linalg.eigvalsh(chi.array)
        assert np.count_nonzero(lam > 0) == n // 2

    def test_degenerate(self):
        with pytest.raises(DegenerateDim):
            random_quantum_coloring(1, 0)


class TestRandomProjection:
    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_rank_and_idempotency(self, n):
        p = random_projection(n, 4)
        assert p.rank == n // 2
        assert np.linalg.norm(p.array @ p.array - p.array) <= 1e-10

    def test_mean_diagonal_entry(self):
        n, trials = 5, 5_000
        frame = haar_batch(np.random.default_rng(6), trials, n)[:, :, : n // 2]
        vals = (frame @ frame.conj().swapaxes(1, 2))[:, 0, 0].real
        se = vals.std(ddof=1) / math.sqrt(trials)
        assert abs(vals.mean() - (n // 2) / n) <= 4 * se

    def test_system_replay_and_ranks(self):
        a = random_projection_system(4, 3, 77)
        b = random_projection_system(4, 3, 77)
        for pa, pb in zip(a.projections, b.projections):
            assert np.array_equal(pa.array, pb.array)
            assert pa.rank == 2

    def test_distinct_seeds_distinct_systems(self):
        a = random_projection_system(4, 2, 1)
        b = random_projection_system(4, 2, 2)
        dist = np.linalg.norm(a.projections[0].array - b.projections[0].array)
        assert dist > 1e-6


class TestExactMoments:
    def test_mean_trace_values(self):
        assert exact_mean_trace(4, 2) == 0.0
        assert exact_mean_trace(3, 2) == pytest.approx(-2.0 / 3.0)
        assert exact_mean_trace(5, 0) == 0.0

    def test_mean_trace_sq_values(self):
        assert exact_mean_trace_sq(2, 1) == pytest.approx(1.0 / 3.0)
        assert exact_mean_trace_sq(3, 3) == pytest.approx(3.0)  # P = I forces tr(chi^2) = N
        assert exact_mean_trace_sq(6, 3) == pytest.approx((6 * 9 - 3) / 35.0)

    def test_fixed_coloring_values(self):
        assert exact_mean_trace_sq_fixed_coloring(2, 0) == pytest.approx(1.0 / 3.0)
        # chi = I: tr((chi P)^2) = tr(P^2) = rank = 1 deterministically
        assert exact_mean_trace_sq_fixed_coloring(2, 2) == pytest.approx(1.0)
        with pytest.raises(ValidationError):
            exact_mean_trace_sq_fixed_coloring(4, 1)  # parity violation

    def test_fixed_coloring_is_a_shifted_rank_moment(self):
        for n in range(2, 65):
            for k in range(n + 1):
                shifted = exact_mean_trace_sq(n, k) + n // 2 - k
                assert exact_mean_trace_sq_fixed_coloring(n, 2 * k - n) == pytest.approx(shifted, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_fixed_coloring_identity_per_draw(self, n):
        # With P = U Pi U* = (chi + I)/2 and chi_k = diag(+1 x k, -1 x (n-k)),
        # tr((chi_k P)^2) is the plus and minus blocks of P's |entry|^2 less
        # twice the cross block, and also the P_k corner of chi plus r0 - k.
        rng = np.random.default_rng((13, n))
        r0 = n // 2
        for _ in range(20):
            u = reference_haar(rng, n)
            chi = (u * coloring_spectrum(n)) @ u.conj().T
            proj = u[:, :r0] @ u[:, :r0].conj().T
            corner, pcorner = corner_table(chi), corner_table(proj)
            for k in range(n + 1):
                chi_k = np.diag(np.where(np.arange(n) < k, 1.0, -1.0))
                direct = np.trace(chi_k @ proj @ chi_k @ proj).real
                plus = pcorner[k, k]
                cross = pcorner[k, n] - plus
                minus = pcorner[n, n] - plus - 2 * cross
                assert plus + minus - 2 * cross == pytest.approx(direct, abs=1e-12)
                assert corner[k, k] + r0 - k == pytest.approx(direct, abs=1e-12)

    def test_commutator_term_bounds(self):
        for n in range(2, 9):
            for r in range(n + 1):
                val = exact_mean_commutator_term(n, r)
                bound = (n * n * r - n * r * r) / (n * n - 1)
                assert val >= -1e-12
                assert val <= bound + 1e-9

    def test_fourth_moments_n2(self):
        fm = haar_fourth_moments(2)
        assert fm.abs_fourth == pytest.approx(1.0 / 3.0)
        assert fm.abs_shared_index == pytest.approx(1.0 / 6.0)
        assert fm.abs_distinct == pytest.approx(1.0 / 3.0)
        assert fm.cross == pytest.approx(-1.0 / 6.0)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_fourth_moment_row_sum_identity(self, n):
        fm = haar_fourth_moments(n)
        # sum_j E|U_1j|^4 + sum_{j != n} E|U_1j|^2 |U_1n|^2 = E[(row norm)^2]^2 = 1
        total = n * fm.abs_fourth + n * (n - 1) * fm.abs_shared_index
        assert total == pytest.approx(1.0)


class TestMomentGates:
    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_gates_pass_at_modest_trials(self, n):
        gates = moment_gates(n, 20_000, (5, n))
        assert all(g.passes(4.0) for g in gates)

    @pytest.mark.parametrize(("n", "all_ranks"), [(8, True), (8, False), (3, True)])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_chunks_equal_per_trial_oracle(self, monkeypatch, n, all_ranks, offset):
        trials = BATCH_ENTRIES // (n * n) + offset
        seed = (12, n, offset + 1)
        fed = []  # the arguments moment_gates passes to each gate, samples included
        monkeypatch.setattr(randmat, "_gate", lambda *args: fed.append(args) or _gate(*args))
        gates = moment_gates(n, trials, seed, all_ranks)
        expected = reference_gate_inputs(n, trials, seed, all_ranks)
        assert [args[:4] for args in fed] == [args[:4] for args in expected]
        entry_moments = set(asdict(haar_fourth_moments(n)))
        for args, oracle, gate in zip(fed, expected, gates):
            want = _gate(*oracle)
            if args[0] not in entry_moments:
                assert np.array_equal(args[4], oracle[4]), args[0]
                assert gate == want
                continue
            # numpy's array power and complex product may round the last bit
            # differently from the per-trial scalar ones
            assert np.abs(args[4]).max() <= 1.0, args[0]
            assert np.allclose(args[4], oracle[4], rtol=0.0, atol=1e-15), args[0]
            assert gate.exact == want.exact
            for field in ("estimate", "se", "z"):
                assert getattr(gate, field) == pytest.approx(getattr(want, field), rel=1e-12), (args[0], field)

    def test_variance_by_monte_carlo(self):
        for n in (4, 5):
            gates = moment_gates(n, 30_000, (6, n))
            gate = next(g for g in gates if g.name == "trace_second_moment")
            assert abs(gate.z) <= 4.0
            assert gate.exact == pytest.approx(
                exact_variance_trace(n, n // 2) + exact_mean_trace(n, n // 2) ** 2
            )


class TestConcentrationProbe:
    def test_probe_shape_and_fit(self):
        probe = concentration_probe(16, 4_000, seed=0)
        assert probe.rank == 8
        assert np.all(np.diff(probe.tail_trace) <= 1e-12)  # monotone non-increasing
        assert np.all(np.diff(probe.tail_commutator) <= 1e-12)
        assert probe.fit_trace.c_hat > 0
        assert probe.fit_commutator.c_hat > 0
        assert probe.c_hat == min(probe.fit_trace.c_hat, probe.fit_commutator.c_hat)

    def test_impossible_deviation_has_zero_tail(self):
        # |tr(chi P)| <= rank <= N/2, so a deviation of N is impossible
        probe = concentration_probe(8, 2_000, deviations=[1.0], seed=1)
        assert probe.tail_trace[0] == 0.0

    def test_deterministic(self):
        a = concentration_probe(8, 2_000, seed=5)
        b = concentration_probe(8, 2_000, seed=5)
        assert np.array_equal(a.tail_trace, b.tail_trace)
        assert a.c_hat == b.c_hat
