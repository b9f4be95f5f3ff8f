import math

import numpy as np
import pytest

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
from qdlab.matcore import trace_pair

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
