import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdlab import (
    dpp,
    exact_distribution,
    expected_squared_imbalance,
    haar_unitary,
    joint_intensity,
    moments_of_count,
    random_kernel,
    random_projection,
    restrict_kernel,
    sample,
    sample_many,
    sample_masks,
    size_pmf,
    validate_kernel,
)
from qdlab.errors import (
    EmptyRestriction,
    GroundSetTooLarge,
    IndexOutOfRange,
    NumericalBreakdown,
    SpectrumOutOfRange,
    ValidationError,
)
from qdlab.matcore import BATCH_ENTRIES

from conftest import brute_force_imbalance


def reference_draw(kernel, rng):
    """One draw made on its own, point by point: N phase-1 uniforms, then one
    phase-2 uniform per kept eigenvector. Returns the sorted points."""
    n = kernel.dim
    mask = rng.random(n) < kernel.eigenvalues
    k = int(np.count_nonzero(mask))
    if k == 0:
        return ()
    v = kernel.eigenvectors[:, mask]
    q = v @ v.conj().T
    chosen: list[int] = []
    uniforms = rng.random(k)
    for step in range(k):
        weights = np.clip(q.diagonal().real.copy(), 0.0, None)
        for s in chosen:
            weights[s] = 0.0
        total = weights.sum()
        cum = np.cumsum(weights)
        s = int(np.searchsorted(cum, uniforms[step] * total, side="right"))
        s = min(s, n - 1)
        pivot = q[s, s].real
        chosen.append(s)
        col = q[:, s].copy()
        q = q - np.outer(col, col.conj()) / pivot
    return tuple(sorted(p + 1 for p in chosen))


def reference_masks(kernel, trials, seed):
    """`trials` reference draws as a mask array, read from one stream."""
    rng = np.random.default_rng(seed)
    masks = np.zeros((trials, kernel.dim), dtype=bool)
    for t in range(trials):
        masks[t, [p - 1 for p in reference_draw(kernel, rng)]] = True
    return masks


class TestValidateKernel:
    def test_uniform_kernel(self):
        k = validate_kernel(0.5 * np.eye(3))
        assert np.allclose(k.eigenvalues, 0.5)

    def test_spectrum_out_of_range(self):
        with pytest.raises(SpectrumOutOfRange) as err:
            validate_kernel(np.diag([2.0, 0.0]))
        assert err.value.eigenvalue == pytest.approx(2.0)

    def test_projection_is_valid_and_snapped(self):
        p = random_projection(5, 1)
        k = validate_kernel(p.array)
        assert k.is_projection
        assert set(np.unique(k.eigenvalues)) == {0.0, 1.0}


class TestJointIntensity:
    def test_diagonal_singleton(self):
        k = validate_kernel(np.diag([0.3, 0.8]))
        assert joint_intensity(k, [2]) == pytest.approx(0.8)

    def test_rank_one_pair_repulsion(self):
        n = 4
        k = validate_kernel(np.full((n, n), 1.0 / n))
        assert joint_intensity(k, [1, 3]) == pytest.approx(0.0, abs=1e-12)

    def test_empty(self):
        k = validate_kernel(np.diag([0.3]))
        assert joint_intensity(k, []) == 1.0

    def test_bad_index(self):
        k = validate_kernel(np.diag([0.3]))
        with pytest.raises(IndexOutOfRange):
            joint_intensity(k, [2])


class TestSampling:
    def test_zero_kernel(self):
        k = validate_kernel(np.zeros((4, 4)))
        assert all(s.points == () for s in sample_many(k, 50, 0))

    def test_identity_kernel(self):
        k = validate_kernel(np.eye(3))
        assert all(s.points == (1, 2, 3) for s in sample_many(k, 50, 0))

    def test_projection_kernel_constant_size(self):
        p = random_projection(6, 2)
        k = validate_kernel(p.array)
        assert all(len(s.points) == p.rank for s in sample_many(k, 400, 5))

    def test_large_projection_kernel_constant_size(self):
        # the dense sampler at the size the README claims: rank 200 at N = 400
        p = random_projection(400, 8)
        k = validate_kernel(p.array)
        assert p.rank == 200
        assert all(len(s.points) == 200 for s in sample_many(k, 4, 9))

    def test_single_sample_seeded(self):
        k = random_kernel(5, 0)
        assert sample(k, 7).points == sample(k, 7).points

    def test_empirical_tv_small(self):
        k = random_kernel(5, 21)
        trials = 30_000
        counts = collections.Counter(sum(1 << (p - 1) for p in s.points) for s in sample_many(k, trials, 8))
        dist = exact_distribution(k)
        tv = 0.5 * sum(abs(counts.get(m, 0) / trials - p) for m, p in enumerate(dist))
        assert tv <= 0.03

    def test_inclusion_frequencies(self):
        k = random_kernel(6, 13)
        trials = 20_000
        hits = np.zeros(6)
        for s in sample_many(k, trials, 4):
            for p in s.points:
                hits[p - 1] += 1
        for i in range(6):
            p = k.array[i, i].real
            se = math.sqrt(p * (1 - p) / trials)
            assert abs(hits[i] / trials - p) <= 4 * se

    def test_numerical_breakdown_guard(self):
        # corrupt the cached decomposition so phase 2 has no mass to place
        k = validate_kernel(0.5 * np.eye(3))
        k.eigenvectors = np.zeros((3, 3), dtype=np.complex128)
        with pytest.raises(NumericalBreakdown):
            for seed in range(64):  # phase 1 must select at least one vector
                sample(k, seed)


class TestSampleMasks:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 12])
    def test_equals_reference_draws(self, n):
        for i in range(3):
            k = random_kernel(n, (41, n, i))
            assert np.array_equal(sample_masks(k, 40, (42, i)), reference_masks(k, 40, (42, i)))

    @pytest.mark.parametrize("n", [3, 8])
    def test_chunk_edges(self, n):
        chunk = BATCH_ENTRIES // n**2
        k = random_kernel(n, (43, n))
        for trials in (chunk - 1, chunk, chunk + 1):
            assert np.array_equal(sample_masks(k, trials, 44), reference_masks(k, trials, 44))

    def test_large_projection(self):
        p = random_projection(128, 45)
        k = validate_kernel(p.array)
        masks = sample_masks(k, 3, 46)
        assert np.array_equal(masks, reference_masks(k, 3, 46))
        assert (masks.sum(axis=1) == 64).all()

    @pytest.mark.parametrize("n, projection", [(3, False), (8, False), (128, True)])
    def test_stack_edges(self, n, projection):
        # a stack holds 4 BATCH_ENTRIES factor entries, rank x N per draw
        k = validate_kernel(random_projection(n, 52).array) if projection else random_kernel(n, (52, n))
        chunk = 4 * BATCH_ENTRIES // (n * np.count_nonzero(k.eigenvalues))
        assert chunk > 1
        for trials in (chunk - 1, chunk, chunk + 1):
            assert np.array_equal(sample_masks(k, trials, 53), reference_masks(k, trials, 53))

    def test_few_hundred_points(self):
        # the dense size the README claims, one draw per stack
        k = validate_kernel(random_projection(300, 54).array)
        assert np.count_nonzero(k.eigenvalues) == 150
        masks = sample_masks(k, 3, 55)
        assert np.array_equal(masks, reference_masks(k, 3, 55))
        assert (masks.sum(axis=1) == 150).all()

    def test_zero_and_identity_kernels(self):
        for matrix in (np.zeros((4, 4)), np.eye(4)):
            k = validate_kernel(matrix)
            masks = sample_masks(k, 30, 47)
            assert np.array_equal(masks, reference_masks(k, 30, 47))
            assert (masks == bool(matrix[0, 0])).all()

    @pytest.mark.parametrize("trials", [40, 4 * BATCH_ENTRIES // (8 * 5) + 1])
    def test_spectrum_mixing_zeros_fractions_and_ones(self, trials):
        # snapped eigenvalues sit at both ends of the spectrum, and a draw
        # keeps the 1s and drops the 0s without reading their uniforms
        u = haar_unitary(8, 64)
        k = validate_kernel((u * [0.0, 0.0, 0.0, 0.3, 0.5, 0.8, 1.0, 1.0]) @ u.conj().T)
        assert np.count_nonzero(k.eigenvalues == 0.0) == 3 and np.count_nonzero(k.eigenvalues == 1.0) == 2
        masks = sample_masks(k, trials, 65)
        assert np.array_equal(masks, reference_masks(k, trials, 65))

    def test_sample_and_sample_many_wrap_the_masks(self):
        k = random_kernel(6, 48)
        for seed in range(5):
            assert sample(k, seed).points == reference_draw(k, np.random.default_rng(seed))
        masks = sample_masks(k, 20, 49)
        points = [tuple(np.flatnonzero(m) + 1) for m in masks]
        assert [s.points for s in sample_many(k, 20, 49)] == points

    def test_trials_below_one_rejected(self):
        k = random_kernel(3, 50)
        for trials in (0, -1):
            with pytest.raises(ValidationError):
                sample_masks(k, trials, 1)

    def test_breakdown_still_raised(self, monkeypatch):
        # a tolerance above any projection's mass makes the first step break down
        monkeypatch.setattr(dpp, "_BREAKDOWN_TOL", 1e3)
        k = validate_kernel(np.eye(3))
        with pytest.raises(NumericalBreakdown):
            sample_masks(k, 5, 51)


def _tables_passed(monkeypatch):
    """Record the `cols` argument of every `_place_points` call."""
    seen = []
    place = dpp._place_points

    def spy(vecs, keep, phase2, cols=None):
        seen.append(cols)
        return place(vecs, keep, phase2, cols)

    monkeypatch.setattr(dpp, "_place_points", spy)
    return seen


class TestProjectionTable:
    """A projection kernel's draws keep every eigenvector, so `sample_masks`
    reads the columns of Q = V V* from one table built per call."""

    @pytest.mark.parametrize("n", [16, 64, 128])
    def test_table_equals_general_product(self, n):
        rank = n // 2
        chunk = 4 * BATCH_ENTRIES // (n * rank)
        rng = np.random.default_rng((56, n))
        for i in range(20):
            k = validate_kernel(random_projection(n, (57, n, i)).array)
            vecs = k.eigenvectors[:, k.eigenvalues > 0.0]
            table = vecs.conj() @ vecs.T
            for trials in (chunk - 1, chunk, chunk + 1):
                keep = np.ones((trials, rank), dtype=bool)
                phase2 = rng.random((trials, rank))
                masks = dpp._place_points(vecs, keep, phase2, table)
                assert np.array_equal(masks, dpp._place_points(vecs, keep, phase2))
                assert (masks.sum(axis=1) == rank).all()

    def test_projection_kernel_passes_the_table(self, monkeypatch):
        seen = _tables_passed(monkeypatch)
        k = validate_kernel(random_projection(8, 58).array)
        assert np.array_equal(sample_masks(k, 40, 59), reference_masks(k, 40, 59))
        assert seen and all(cols is not None and cols.shape == (8, 8) for cols in seen)

    def test_near_projection_takes_the_general_path(self, monkeypatch):
        # 1 - 1e-9 lies outside SNAP_TOL of 1, so the kernel is no projection
        seen = _tables_passed(monkeypatch)
        k = validate_kernel((1.0 - 1e-9) * random_projection(64, 60).array)
        assert k.eigenvalues.max() == pytest.approx(1.0 - 1e-9, abs=1e-12)
        assert not k.is_projection
        trials = 4 * BATCH_ENTRIES // (64 * 32) + 1
        assert np.array_equal(sample_masks(k, trials, 61), reference_masks(k, trials, 61))
        assert seen and all(cols is None for cols in seen)

    def test_breakdown_raised_on_the_table_path(self, monkeypatch):
        # zeroed eigenvectors leave a projection kernel no mass to place
        seen = _tables_passed(monkeypatch)
        k = validate_kernel(random_projection(8, 62).array)
        assert k.is_projection
        k.eigenvectors = np.zeros((8, 8), dtype=np.complex128)
        with pytest.raises(NumericalBreakdown):
            sample_masks(k, 5, 63)
        assert seen and seen[0] is not None


class TestRestriction:
    def test_full_restriction(self):
        k = random_kernel(4, 3)
        r = restrict_kernel(k, [1, 2, 3, 4])
        assert np.allclose(r.array, k.array)

    def test_diagonal_singleton(self):
        k = validate_kernel(np.diag([0.2, 0.9]))
        r = restrict_kernel(k, [2])
        assert r.array.shape == (1, 1)
        assert r.array[0, 0] == pytest.approx(0.9)

    def test_restricted_spectrum_in_range(self):
        k = random_kernel(6, 5)
        r = restrict_kernel(k, [1, 3, 5])
        assert r.eigenvalues.min() >= 0.0
        assert r.eigenvalues.max() <= 1.0

    def test_empty(self):
        with pytest.raises(EmptyRestriction):
            restrict_kernel(random_kernel(3, 0), [])

    def test_restriction_consistency_mc(self):
        # sampling K then intersecting with S matches sampling K|S in law
        k = random_kernel(6, 17)
        subset = [2, 4, 5]
        trials = 20_000
        full = sample_many(k, trials, 99)
        restricted = sample_many(restrict_kernel(k, subset), trials, 98)
        relabel = {i + 1: subset[i] for i in range(len(subset))}
        for target in ([2], [4], [5], [2, 4], [4, 5], [2, 5]):
            freq_full = sum(1 for s in full if set(target) <= set(s.points)) / trials
            freq_rest = (
                sum(1 for s in restricted if set(target) <= {relabel[p] for p in s.points}) / trials
            )
            p = joint_intensity(k, target)
            se = math.sqrt(max(p * (1 - p), 1e-12) / trials)
            assert abs(freq_full - p) <= 4 * se
            assert abs(freq_rest - p) <= 4 * se


class TestSizePmf:
    def test_two_fair_coins(self):
        assert np.allclose(size_pmf(validate_kernel(0.5 * np.eye(2))), [0.25, 0.5, 0.25])

    def test_projection_point_mass(self):
        p = random_projection(5, 4)
        pmf = size_pmf(validate_kernel(p.array))
        expected = np.zeros(6)
        expected[p.rank] = 1.0
        assert np.allclose(pmf, expected)

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_distribution_properties(self, lams):
        k = validate_kernel(np.diag(np.array(lams)))
        pmf = size_pmf(k)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
        mean = sum(j * pmf[j] for j in range(len(pmf)))
        assert mean == pytest.approx(k.matrix.trace(), abs=1e-10)

    def test_size_histogram_matches(self):
        k = random_kernel(6, 31)
        trials = 20_000
        sizes = collections.Counter(len(s.points) for s in sample_many(k, trials, 11))
        pmf = size_pmf(k)
        tv = 0.5 * sum(abs(sizes.get(j, 0) / trials - pmf[j]) for j in range(7))
        assert tv <= 0.03


class TestExactDistribution:
    def test_independent_two_site(self):
        p_, q_ = 0.3, 0.8
        dist = exact_distribution(validate_kernel(np.diag([p_, q_])))
        assert dist.shape == (4,)
        assert dist[0b00] == pytest.approx((1 - p_) * (1 - q_))
        assert dist[0b01] == pytest.approx(p_ * (1 - q_))
        assert dist[0b10] == pytest.approx((1 - p_) * q_)
        assert dist[0b11] == pytest.approx(p_ * q_)

    def test_sums_to_one(self):
        dist = exact_distribution(random_kernel(7, 3))
        assert dist.sum() == pytest.approx(1.0, abs=1e-9)
        assert dist.min() >= -1e-9

    def test_rank_one_uniform_singletons(self):
        n = 5
        dist = exact_distribution(validate_kernel(np.full((n, n), 1.0 / n)))
        for i in range(n):
            assert dist[1 << i] == pytest.approx(1.0 / n)

    def test_projection_kernel_det_formula(self):
        p = random_projection(5, 9)
        k = validate_kernel(p.array)
        dist = exact_distribution(k)
        for m, prob in enumerate(dist):
            idx = np.flatnonzero([(m >> b) & 1 for b in range(5)])
            if len(idx) == p.rank:
                det = np.linalg.det(k.array[np.ix_(idx, idx)]).real
                assert prob == pytest.approx(det, abs=1e-9)
            else:
                assert prob == pytest.approx(0.0, abs=1e-9)

    def test_cap(self):
        with pytest.raises(GroundSetTooLarge):
            exact_distribution(validate_kernel(0.5 * np.eye(15)))

    def test_batched_determinants_equal_one_det_per_subset(self):
        """The law from one stacked det per subset size is bit for bit the
        Moebius inversion of one det per subset, on random and projection
        kernels with N = 1..10 (the rank-1 projection at N = 1 is I)."""
        projections = [np.eye(1)] + [random_projection(n, (81, n)).array for n in range(2, 11)]
        kernels = [random_kernel(n, (80, n)) for n in range(1, 11)] + [validate_kernel(p) for p in projections]
        for kernel in kernels:
            n = kernel.dim
            rho = np.ones(1 << n)
            for m in range(1, 1 << n):
                idx = np.flatnonzero([(m >> b) & 1 for b in range(n)])
                rho[m] = np.linalg.det(kernel.array[np.ix_(idx, idx)]).real
            masks = np.arange(1 << n)
            for b in range(n):
                lower = masks[(masks & (1 << b)) == 0]
                rho[lower] -= rho[lower | (1 << b)]
            assert np.array_equal(exact_distribution(kernel), rho)


class TestExpectedSquaredImbalance:
    def test_uniform_kernel(self):
        for m in (1, 2, 5):
            k = validate_kernel(0.5 * np.eye(6))
            assert expected_squared_imbalance(k, list(range(1, m + 1))) == pytest.approx(m)

    def test_deterministic_full_support(self):
        # K = P_S: X = S almost surely, so 2X(S) - |S| = |S| exactly
        diag = np.array([1.0, 1.0, 0.0, 1.0])
        k = validate_kernel(np.diag(diag))
        s = [1, 2, 4]
        assert expected_squared_imbalance(k, s) == pytest.approx(9.0)
        assert brute_force_imbalance(k, s) == pytest.approx(9.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_brute_force_oracle(self, seed):
        rng = np.random.default_rng((7, seed))
        n = int(rng.integers(2, 7))
        k = random_kernel(n, (8, seed))
        subset = [int(i) + 1 for i in np.flatnonzero(rng.random(n) < 0.6)]
        assert expected_squared_imbalance(k, subset) == pytest.approx(
            brute_force_imbalance(k, subset), abs=1e-9
        )

    def test_empty_subset(self):
        assert expected_squared_imbalance(random_kernel(3, 0), []) == pytest.approx(0.0)


class TestMomentsOfCount:
    def test_mean_is_restricted_trace(self):
        k = random_kernel(5, 12)
        subset = [1, 4, 5]
        mean, _ = moments_of_count(k, subset)
        assert mean == pytest.approx(restrict_kernel(k, subset).matrix.trace(), abs=1e-12)

    def test_independent_diagonal_closed_form(self):
        probs = np.array([0.2, 0.5, 0.9])
        k = validate_kernel(np.diag(probs))
        mean, second = moments_of_count(k, [1, 2, 3])
        assert mean == pytest.approx(probs.sum())
        var = (probs * (1 - probs)).sum()
        assert second == pytest.approx(var + probs.sum() ** 2, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_bias_variance_consistency(self, seed):
        rng = np.random.default_rng((21, seed))
        n = int(rng.integers(2, 8))
        k = random_kernel(n, (22, seed))
        subset = [int(i) + 1 for i in np.flatnonzero(rng.random(n) < 0.5)]
        mean, second = moments_of_count(k, subset)
        s = len(subset)
        from_moments = 4.0 * (second - s * mean + s * s / 4.0)
        assert from_moments == pytest.approx(expected_squared_imbalance(k, subset), abs=1e-9)


class TestNegativeAssociation:
    def test_pair_intensity_bound(self):
        for seed in range(25):
            k = random_kernel(6, (33, seed))
            for i in range(1, 7):
                for j in range(i + 1, 7):
                    pij = joint_intensity(k, [i, j])
                    assert pij <= joint_intensity(k, [i]) * joint_intensity(k, [j]) + 1e-12
