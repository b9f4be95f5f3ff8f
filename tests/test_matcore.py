import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qdlab import (
    as_coloring,
    as_projection,
    commutator,
    make_hermitian,
    make_projection_from_vectors,
    matrix_from_json,
    matrix_to_json,
    schatten_norm,
    spectral_decompose,
)
from qdlab.errors import (
    DimMismatch,
    NonSquare,
    NotOrthonormal,
    TooFarFromHermitian,
    UnsupportedP,
    ValidationError,
)
from qdlab.cli import render_report
from qdlab.matcore import matrix_pairs, pairs_json_text, seed_sequence, trace_pair
from qdlab.qdisc import qdisc_estimate
from qdlab.randmat import random_projection_system

from conftest import random_hermitian


class TestMakeHermitian:
    def test_scalar(self):
        h = make_hermitian([[3.0]])
        assert h.dim == 1
        assert h.array[0, 0] == 3.0

    def test_pauli_y_unchanged(self):
        pauli_y = np.array([[0, -1j], [1j, 0]])
        h = make_hermitian(pauli_y)
        assert np.array_equal(h.array, pauli_y)

    def test_far_from_hermitian_rejected(self):
        with pytest.raises(TooFarFromHermitian):
            make_hermitian([[0.0, 1.0], [0.0, 0.0]])

    @pytest.mark.parametrize(
        "raw", [[[0.5 + 1e308j]], [[0.0, 1e308], [-1e308, 0.0]], [[1e308, 1.7e308 + 1.7e308j], [0.0, 1e308]]]
    )
    def test_far_from_hermitian_rejected_near_float_max(self, raw):
        with pytest.raises(TooFarFromHermitian):
            make_hermitian(raw)

    @pytest.mark.parametrize(
        "raw", [[[1e308]], [[0.0, 1e308], [1e308, 0.0]], [[1e308, 1e308], [1e308, 1e308]], [[0.0, 1e308j], [-1e308j, 0.0]]]
    )
    def test_overflowing_symmetrization_refused_without_warning(self, raw):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="too large to symmetrize"):
                make_hermitian(raw)

    def test_large_finite_matrices_kept_as_before(self, rng):
        big = 0.49 * np.finfo(float).max  # A + A* stays finite
        cases = [np.array([[0.5, big], [big, 0.25]]), np.array([[0.0, 1j * big], [-1j * big, 0.0]])]
        cases += [random_hermitian(rng, 6, scale) + 1e-9 * scale * rng.standard_normal((6, 6)) for scale in (1e-300, 1.0, 1e300)]
        for a in cases:
            a = a.astype(np.complex128)
            assert np.array_equal(make_hermitian(a).array, 0.5 * (a + a.conj().T))

    def test_subnormal_matrix_kept(self):
        a = np.array([[1e-310, 2e-310], [2e-310, 5e-311 + 0j]])
        assert np.array_equal(make_hermitian(a).array, a)

    def test_non_square(self):
        with pytest.raises(NonSquare):
            make_hermitian(np.zeros((2, 3)))
        with pytest.raises(NonSquare):
            make_hermitian(np.zeros((0, 0)))

    def test_small_asymmetry_symmetrized(self, rng):
        a = random_hermitian(rng, 5)
        noisy = a + 1e-9 * rng.standard_normal((5, 5))
        h = make_hermitian(noisy)
        assert np.linalg.norm(h.array - h.array.conj().T) == 0.0

    def test_immutable(self):
        h = make_hermitian(np.eye(2))
        with pytest.raises(ValueError):
            h.array[0, 0] = 5.0


class TestSpectralDecompose:
    def test_identity(self):
        dec = spectral_decompose(make_hermitian(np.eye(3)))
        assert np.allclose(dec.eigenvalues, [1, 1, 1])

    def test_diagonal(self):
        dec = spectral_decompose(make_hermitian(np.diag([-1.0, 2.0])))
        assert np.allclose(dec.eigenvalues, [-1.0, 2.0])

    def test_swap_matrix(self):
        # characteristic polynomial x^2 - 1 by hand
        dec = spectral_decompose(make_hermitian([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0])

    @pytest.mark.parametrize("n", [2, 8, 33, 64])
    def test_reconstruction(self, rng, n):
        a = make_hermitian(random_hermitian(rng, n, scale=3.0))
        dec = spectral_decompose(a)
        assert np.linalg.norm(dec.reconstruct() - a.array) <= 1e-9
        assert np.all(np.diff(dec.eigenvalues) >= 0)


class TestSchattenNorm:
    def test_trace_norm(self):
        assert schatten_norm(np.diag([1.0, -1.0]), 1) == pytest.approx(2.0)

    def test_frobenius(self):
        assert schatten_norm(np.diag([3.0, 4.0]), 2) == pytest.approx(5.0)

    def test_operator_norm_of_coloring_is_one(self, rng):
        from qdlab import random_quantum_coloring

        for seed in range(20):
            chi = random_quantum_coloring(5, seed)
            assert schatten_norm(chi, math.inf) == pytest.approx(1.0, abs=1e-10)

    def test_unsupported(self):
        with pytest.raises(UnsupportedP):
            schatten_norm(np.eye(2), 3)


class TestCommutator:
    def test_identity_commutes(self, rng):
        a = random_hermitian(rng, 4)
        assert np.allclose(commutator(a, np.eye(4)), 0.0)

    def test_diagonals_commute(self):
        assert np.allclose(commutator(np.diag([1.0, 2.0]), np.diag([5.0, -1.0])), 0.0)

    def test_hand_example(self):
        got = commutator([[0.0, 1.0], [1.0, 0.0]], np.diag([1.0, 0.0]))
        assert np.allclose(got, [[0.0, -1.0], [1.0, 0.0]])

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            commutator(np.eye(2), np.eye(3))


class TestProjectionsAndColorings:
    def test_projection_from_basis_vector(self):
        p = make_projection_from_vectors(np.array([1.0, 0.0])[:, None])
        assert p.rank == 1
        assert np.allclose(p.array, np.diag([1.0, 0.0]))

    def test_projection_from_full_basis(self):
        p = make_projection_from_vectors(np.eye(4))
        assert p.rank == 4
        assert np.allclose(p.array, np.eye(4))

    def test_projection_from_tilted_vector(self):
        v = np.array([1.0, 1.0]) / math.sqrt(2.0)
        p = make_projection_from_vectors(v)
        assert np.allclose(p.array, [[0.5, 0.5], [0.5, 0.5]])

    def test_not_orthonormal(self):
        with pytest.raises(NotOrthonormal):
            make_projection_from_vectors(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rank_zero_projection(self):
        p = as_projection(np.zeros((3, 3)))
        assert p.rank == 0

    def test_invalid_projection(self):
        with pytest.raises(ValidationError):
            as_projection(np.diag([2.0, 0.0]))

    def test_declared_rank_checked(self):
        from qdlab import OrthogonalProjection

        with pytest.raises(ValidationError):
            OrthogonalProjection(make_hermitian(np.diag([1.0, 0.0])), rank=2)

    def test_coloring_validation(self):
        chi = as_coloring(np.diag([1.0, -1.0, 1.0]))
        assert chi.plus_count == 2
        assert chi.exact_trace() == 1
        with pytest.raises(ValidationError):
            as_coloring(np.diag([1.0, 0.5]))


class TestTraceInvariants:
    def test_trace_products_real_and_bounded(self, rng):
        # tr(chi P) real, tr((chi P)^2) real and <= tr(P)
        from qdlab import random_projection, random_quantum_coloring

        for seed in range(50):
            n = int(rng.integers(2, 9))
            chi = random_quantum_coloring(n, (seed, 0))
            p = random_projection(n, (seed, 1))
            a = chi.array @ p.array
            t1 = np.trace(a)
            t2 = np.trace(a @ a)
            assert abs(t1.imag) <= 1e-10
            assert abs(t2.imag) <= 1e-10
            assert t2.real <= p.rank + 1e-9

    def test_matrix_hoelder(self, rng):
        pairs = [(1, math.inf), (2, 2), (math.inf, 1)]
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            lhs = abs(np.trace(a.conj().T @ b))
            for p, q in pairs:
                assert lhs <= schatten_norm(a, p) * schatten_norm(b, q) + 1e-9


class TestMatrixJson:
    def test_roundtrip(self, rng):
        a = random_hermitian(rng, 3)
        data = matrix_to_json(a)
        back = matrix_from_json(data)
        assert np.allclose(back, a)

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            matrix_from_json([[1.0, 2.0], [3.0, 4.0]])

    def test_same_floats_as_entrywise_conversion(self):
        extremes = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1]
        for n in (0, 1, 3):
            rng = np.random.default_rng(n)
            a = rng.choice(extremes, (n, n)) + 1j * rng.choice(extremes, (n, n))
            a[np.diag_indices(n)] = complex(-0.0, 5e-324)
            entrywise = [[[float(z.real), float(z.imag)] for z in row] for row in a]
            assert json.dumps(matrix_to_json(a)) == json.dumps(entrywise)
            assert all(type(x) is float for row in matrix_to_json(a) for z in row for x in z)

    @pytest.mark.parametrize(
        "data",
        [
            [[1.0, 2.0], [3.0, 4.0]],
            [[[1, 0]], [[1, 0], [0, 0]]],
            "x",
            [["a", "b"]],
            [[[float("nan"), 0.0]]],
            [[[0.5, float("inf")]]],
            [[[10**400, 0]]],
        ],
    )
    def test_malformed_is_validation_error(self, data):
        with pytest.raises(ValidationError):
            matrix_from_json(data)

    # finite entries parse; the anti-Hermitian part is what is refused
    @pytest.mark.parametrize("data", [[[[0.5, 1e308]]], [[[0, 1e308], [0, 0]], [[0, 0], [0, 0]]]])
    def test_parsed_non_hermitian_is_rejected(self, data):
        with pytest.raises(TooFarFromHermitian):
            make_hermitian(matrix_from_json(data))


def _compact_json(pairs):
    return json.dumps(pairs.tolist(), separators=(",", ":"))


_EXTREME_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
                                              1e16, 1e-5, 0.1]),
                            st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _pair_arrays(draw):
    """Finite (N, N, 2) arrays; Hermitian-shaped ones (the lower pairs the
    conjugates of the upper ones, bit for bit) as often as not."""
    n = draw(st.integers(0, 6))
    pairs = draw(arrays(np.float64, (n, n, 2), elements=_EXTREME_FLOATS))
    if draw(st.booleans()):
        lower = np.tril_indices(n, -1)
        pairs[lower] = pairs.swapaxes(0, 1)[lower] * [1.0, -1.0]
    return pairs


class TestPairsJsonText:
    """pairs_json_text writes the text of json.dumps of the pair lists."""

    @given(pairs=_pair_arrays())
    @settings(max_examples=300, deadline=None)
    def test_any_finite_pairs(self, pairs):
        assert pairs_json_text(pairs) == _compact_json(pairs)

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_hermitian_of_complex_and_real_inputs(self, rng, n):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for raw in (a + a.conj().T, a.real + a.real.T):
            pairs = matrix_pairs(make_hermitian(raw))
            assert pairs_json_text(pairs) == _compact_json(pairs)

    def test_real_symmetric_keeps_positive_zeros(self):
        # both sides hold +0.0 imaginary parts: flipping the sign of the
        # upper text would write "-0.0" below the diagonal
        pairs = matrix_pairs(make_hermitian([[1.0, 0.25, -0.5], [0.25, 2.0, 0.0], [-0.5, 0.0, 3.0]]))
        assert not np.signbit(pairs[..., 1]).any()
        text = pairs_json_text(pairs)
        assert text == _compact_json(pairs) and "-0.0" not in text

    def test_mirrored_zero_imaginary_parts(self):
        # +0.0 above and -0.0 below mirror, and so does the reverse
        pairs = np.array([[[1.0, 0.0], [0.5, 0.0]], [[0.5, -0.0], [2.0, -0.0]]])
        assert pairs_json_text(pairs) == _compact_json(pairs) == "[[[1.0,0.0],[0.5,0.0]],[[0.5,-0.0],[2.0,-0.0]]]"

    def test_not_hermitian(self, rng):
        a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        a[3, 1] = np.conj(a[1, 3])  # one mirrored pair among unrelated ones
        pairs = matrix_pairs(a)
        assert pairs_json_text(pairs) == _compact_json(pairs)
        assert pairs_json_text(pairs[:, :, ::-1]) == _compact_json(pairs[:, :, ::-1])  # a strided view

    def test_one_point(self):
        pairs = matrix_pairs([[0.75 - 5e-324j]])
        assert pairs_json_text(pairs) == _compact_json(pairs) == "[[[0.75,-5e-324]]]"

    def test_report_spells_non_finite_arrays_through_canon(self):
        pairs = matrix_pairs(np.eye(2))
        rows = [{"trial": 0}]
        for bad, spelling in ((np.nan, "NaN"), (np.inf, "Infinity"), (-np.inf, "-Infinity")):
            odd = pairs.copy()
            odd[1, 0, 1] = bad
            text = render_report("demo", {}, rows, {"a": pairs, "b": odd}, "csv")
            summary = text.splitlines()[-1]
            assert summary == "# summary: " + json.dumps({"a": pairs.tolist(), "b": odd.tolist()}, sort_keys=True,
                                                          separators=(",", ":"))
            assert f"[0.0,{spelling}]" in summary


class TestTracePair:
    def test_matches_trace_and_square_sum(self, rng):
        for n in (1, 3, 8, 17):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            t1, t2 = trace_pair(a)
            assert t1.shape == t2.shape == ()
            assert abs(t1 - np.trace(a).real) <= 1e-12 * n
            assert abs(t2 - np.sum(a * a.T).real) <= 1e-12 * n * n

    def test_stacked(self, rng):
        a = rng.standard_normal((5, 2, 6, 6)) + 1j * rng.standard_normal((5, 2, 6, 6))
        t1, t2 = trace_pair(a)
        assert t1.shape == t2.shape == (5, 2)
        for idx in np.ndindex(5, 2):
            assert abs(t1[idx] - np.trace(a[idx]).real) <= 1e-12
            assert abs(t2[idx] - np.sum(a[idx] * a[idx].T).real) <= 1e-12

    def test_empty_stack_gives_zeros(self):
        t1, t2 = trace_pair(np.zeros((4, 0, 0), dtype=np.complex128))
        assert np.array_equal(t1, np.zeros(4))
        assert np.array_equal(t2, np.zeros(4))


class TestSeedSequence:
    """A SeedSequence passed as a seed is a value: the call spawns from a copy."""

    def test_reused_seed_gives_equal_results(self):
        system = random_projection_system(6, 8, 1)
        seed = np.random.SeedSequence(5)
        first = qdisc_estimate(system, restarts=2, seed=seed)
        again = qdisc_estimate(system, restarts=2, seed=seed)
        fresh = qdisc_estimate(system, restarts=2, seed=np.random.SeedSequence(5))
        for est in (again, fresh):
            assert est.value == first.value
            assert np.array_equal(est.witness.array, first.witness.array)
        systems = [random_projection_system(4, 3, s) for s in (seed, seed, np.random.SeedSequence(5))]
        for other in systems[1:]:
            assert np.array_equal(other.stacked(), systems[0].stacked())
        assert seed.n_children_spawned == 0

    def test_copy_is_equal_and_unspawned(self):
        seed = np.random.SeedSequence(7, spawn_key=(1, 2), pool_size=8)
        seed.spawn(3)
        copy = seed_sequence(seed)
        assert copy is not seed
        assert (copy.entropy, copy.spawn_key, copy.pool_size, copy.n_children_spawned) == (7, (1, 2), 8, 3)
        assert np.array_equal(copy.generate_state(4), seed.generate_state(4))
        copy.spawn(2)
        assert seed.n_children_spawned == 3
