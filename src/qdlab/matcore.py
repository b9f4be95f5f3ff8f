"""Dense complex Hermitian matrix foundation.

Validated spectral types (Hermitian matrices, orthogonal projections,
quantum colorings), eigendecomposition, Schatten norms and commutators.
All types are immutable after construction; operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimMismatch,
    NonSquare,
    NotOrthonormal,
    TooFarFromHermitian,
    UnsupportedP,
    ValidationError,
)

# Relative Frobenius tolerance on the anti-Hermitian part accepted by
# make_hermitian; larger asymmetry is rejected instead of silently averaged.
HERMITIAN_REL_TOL = 1e-6
# Absolute tolerance for eigenvalue class membership ({0,1} for projections,
# {-1,+1} for colorings), matched to double-precision eigensolvers at N <= 256.
EIGENVALUE_CLASS_TOL = 1e-10
TRACE_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-9
UNITARY_TOL = 1e-10
ORTHONORMAL_TOL = 1e-8
# Monte Carlo loops work on stacks of this many matrix entries (1024 trials
# at N = 4, 16 at N = 32): a quarter megabyte per complex array at any N.
BATCH_ENTRIES = 1 << 14


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def as_complex_array(matrix) -> np.ndarray:
    """Unwrap matrix-carrying objects (anything with an .array attribute,
    such as HermitianMatrix, projections, colorings, or DPP kernels) into a
    complex128 ndarray."""
    return np.asarray(getattr(matrix, "array", matrix), dtype=np.complex128)


@dataclass(frozen=True)
class HermitianMatrix:
    """An N x N complex matrix symmetrized to (A + A*)/2 at construction."""

    array: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.array, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise NonSquare(f"expected a square matrix with N >= 1, got shape {a.shape}")
        # Norms of a scaled to parts in [-1, 1] cannot overflow; the parts are
        # scaled as reals, since a complex quotient overflows for a subnormal peak.
        peak = max(np.abs(a.real).max(), np.abs(a.imag).max())
        unit = a.real / peak + 1j * (a.imag / peak) if peak > 0 else a
        rel = np.linalg.norm(0.5 * (unit - unit.conj().T)) / max(np.linalg.norm(unit), 1e-300)
        if rel > HERMITIAN_REL_TOL:
            raise TooFarFromHermitian(
                f"anti-Hermitian part has relative Frobenius norm {rel:.3e} > {HERMITIAN_REL_TOL:g}"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            twice = a + a.conj().T
        if not np.isfinite(twice).all():
            raise ValidationError("A + A* is not finite: an entry is not finite or too large to symmetrize")
        object.__setattr__(self, "array", _freeze(0.5 * twice))

    @property
    def dim(self) -> int:
        return self.array.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.array).real)


def make_hermitian(raw) -> HermitianMatrix:
    """Symmetrize a square complex matrix, rejecting inputs that are too far
    from Hermitian (relative anti-Hermitian Frobenius norm above 1e-6). A
    HermitianMatrix is returned as it is; other matrix-carrying objects are
    unwrapped by as_complex_array."""
    return raw if isinstance(raw, HermitianMatrix) else HermitianMatrix(as_complex_array(raw))


def conjugate_diagonal(u: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    """U diag(spectrum) U* over the last two axes of a matrix or a stack."""
    return (u * spectrum) @ u.conj().swapaxes(-1, -2)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues in ascending order and a unitary matrix of eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _freeze(np.asarray(self.eigenvalues, dtype=float)))
        object.__setattr__(self, "eigenvectors", _freeze(np.asarray(self.eigenvectors, dtype=np.complex128)))

    def reconstruct(self) -> np.ndarray:
        return conjugate_diagonal(self.eigenvectors, self.eigenvalues)


def spectral_decompose(a) -> SpectralDecomposition:
    """Eigendecompose a Hermitian matrix; eigenvalues ascending.

    The reconstruction U diag(lam) U* is checked against the input to
    RECONSTRUCTION_TOL in Frobenius norm, and U to unitarity.
    """
    arr = as_complex_array(a)
    try:
        lam, u = np.linalg.eigh(arr)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    dec = SpectralDecomposition(lam, u)
    n = arr.shape[0]
    if np.linalg.norm(dec.reconstruct() - arr) > RECONSTRUCTION_TOL:
        raise ConvergenceFailure("eigendecomposition does not reconstruct the input")
    if np.linalg.norm(u.conj().T @ u - np.eye(n)) > UNITARY_TOL:
        raise ConvergenceFailure("eigenvector matrix is not unitary")
    return dec


@dataclass(frozen=True)
class OrthogonalProjection:
    """A Hermitian idempotent with spectrum in {0, 1} and its rank."""

    matrix: HermitianMatrix
    rank: int = field(default=-1)

    def __post_init__(self):
        lam = np.linalg.eigvalsh(self.matrix.array)
        dist = np.minimum(np.abs(lam), np.abs(lam - 1.0))
        if dist.max() > EIGENVALUE_CLASS_TOL:
            worst = float(lam[int(dist.argmax())])
            raise ValidationError(f"eigenvalue {worst!r} of a projection is not in {{0, 1}}")
        # Frobenius norm of P^2 - P, computed spectrally.
        if math.sqrt(float(np.sum((lam * lam - lam) ** 2))) > EIGENVALUE_CLASS_TOL * self.matrix.dim:
            raise ValidationError("matrix is not idempotent")
        rank = int(np.count_nonzero(lam > 0.5))
        if abs(self.matrix.trace() - rank) > TRACE_TOL * max(1, rank):
            raise ValidationError("trace does not match the projection rank")
        if self.rank >= 0 and self.rank != rank:
            raise ValidationError(f"declared rank {self.rank} but spectrum gives {rank}")
        object.__setattr__(self, "rank", rank)

    @property
    def dim(self) -> int:
        return self.matrix.dim

    @property
    def array(self) -> np.ndarray:
        return self.matrix.array


def as_projection(matrix) -> OrthogonalProjection:
    """Validate an orthogonal projection from any matrix-like input."""
    return OrthogonalProjection(make_hermitian(matrix))


@dataclass(frozen=True)
class QuantumColoring:
    """A Hermitian matrix with all eigenvalues in {-1, +1} (chi^2 = I)."""

    matrix: HermitianMatrix
    plus_count: int = field(default=-1)

    def __post_init__(self):
        lam = np.linalg.eigvalsh(self.matrix.array)
        dist = np.abs(np.abs(lam) - 1.0)
        if dist.max() > EIGENVALUE_CLASS_TOL:
            worst = float(lam[int(dist.argmax())])
            raise ValidationError(f"eigenvalue {worst!r} of a coloring is not in {{-1, +1}}")
        if math.sqrt(float(np.sum((lam * lam - 1.0) ** 2))) > EIGENVALUE_CLASS_TOL * self.matrix.dim:
            raise ValidationError("matrix does not square to the identity")
        k = int(np.count_nonzero(lam > 0.0))
        n = self.matrix.dim
        if abs(self.matrix.trace() - (2 * k - n)) > TRACE_TOL * max(1, n):
            raise ValidationError("trace does not match the +1 eigenvalue count")
        if self.plus_count >= 0 and self.plus_count != k:
            raise ValidationError(f"declared plus_count {self.plus_count} but spectrum gives {k}")
        object.__setattr__(self, "plus_count", k)

    @property
    def dim(self) -> int:
        return self.matrix.dim

    @property
    def array(self) -> np.ndarray:
        return self.matrix.array

    def exact_trace(self) -> int:
        """2k - N, exact by construction."""
        return 2 * self.plus_count - self.dim


def as_coloring(matrix) -> QuantumColoring:
    """Validate a quantum coloring from any matrix-like input."""
    return QuantumColoring(make_hermitian(matrix))


def schatten_norm(a, p) -> float:
    """Schatten p-norm for p in {1, 2, inf}: sum / l2 / max of singular values."""
    arr = as_complex_array(a)
    if p == 2:
        return float(np.linalg.norm(arr))
    if p == 1:
        return float(np.linalg.svd(arr, compute_uv=False).sum())
    if p in (math.inf, np.inf):
        return float(np.linalg.svd(arr, compute_uv=False).max())
    raise UnsupportedP(f"Schatten norm implemented only for p in {{1, 2, inf}}, got {p!r}")


def trace_pair(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real parts of (tr A, tr A^2) over the last two axes, so a stack of
    shape (..., N, N) gives two arrays of shape (...); an (M, 0, 0) stack
    gives zeros."""
    return np.einsum("...ii->...", a).real, np.einsum("...ij,...ji->...", a, a).real


def seed_sequence(seed) -> np.random.SeedSequence:
    """A SeedSequence unchanged, anything else as the entropy of a new one."""
    return seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)


def commutator(a, b) -> np.ndarray:
    """The commutator AB - BA."""
    aa, bb = as_complex_array(a), as_complex_array(b)
    if aa.shape != bb.shape:
        raise DimMismatch(f"commutator of shapes {aa.shape} and {bb.shape}")
    return aa @ bb - bb @ aa


def make_projection_from_vectors(columns: np.ndarray) -> OrthogonalProjection:
    """Build the projection sum_i phi_i phi_i* from an orthonormal N x r frame."""
    v = np.asarray(columns, dtype=np.complex128)
    if v.ndim == 1:
        v = v[:, None]
    n, r = v.shape
    gram = v.conj().T @ v
    if np.linalg.norm(gram - np.eye(r)) > ORTHONORMAL_TOL:
        raise NotOrthonormal(
            f"columns deviate from orthonormality by {np.linalg.norm(gram - np.eye(r)):.3e}"
        )
    proj = as_projection(v @ v.conj().T if r else np.zeros((n, n), dtype=np.complex128))
    if proj.rank != r:
        raise NotOrthonormal(f"frame of {r} columns produced a rank-{proj.rank} projection")
    return proj


def matrix_to_json(matrix) -> list:
    """Serialize a complex matrix as nested lists of [re, im] pairs."""
    arr = as_complex_array(matrix)
    return np.stack([arr.real, arr.imag], -1).tolist()


def matrix_from_json(data) -> np.ndarray:
    """Parse the nested [re, im] pair format back into a complex ndarray."""
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"expected an N x N array of [re, im] pairs: {exc}") from exc
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValidationError("expected an N x N array of [re, im] pairs")
    if not np.isfinite(arr).all():
        raise ValidationError("matrix entries must be finite numbers")
    return arr[..., 0] + 1j * arr[..., 1]
