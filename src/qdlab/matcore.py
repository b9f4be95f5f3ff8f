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


def batches(count: int, entries: int, budget: int = BATCH_ENTRIES):
    """The slices of range(count), in order, of max(1, budget // entries)
    items each (the last one short), so that a batch of items of `entries`
    entries each holds at most `budget` entries, or one item."""
    step = max(1, budget // entries)
    for lo in range(0, count, step):
        yield slice(lo, min(lo + step, count))


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def as_complex_array(matrix) -> np.ndarray:
    """Unwrap matrix-carrying objects (anything with an .array attribute,
    such as HermitianMatrix, projections, colorings, or DPP kernels) into a
    complex128 ndarray."""
    return np.asarray(getattr(matrix, "array", matrix), dtype=np.complex128)


def _frobenius(x: np.ndarray) -> np.ndarray:
    """Frobenius norms over the last two axes, with no temporary array."""
    re, im = x.real, x.imag
    return np.sqrt(np.einsum("...ij,...ij->...", re, re) + np.einsum("...ij,...ij->...", im, im))


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A*)/2 over the last two axes of a matrix or a stack, refusing a
    matrix too far from Hermitian or whose A + A* is not finite."""
    # Norms of a scaled to parts in [-1, 1] cannot overflow; the parts are
    # scaled as reals, since a complex quotient overflows for a subnormal peak.
    peak = np.maximum(np.abs(a.real).max((-2, -1), keepdims=True), np.abs(a.imag).max((-2, -1), keepdims=True))
    peak[peak == 0] = 1.0
    unit = a.real / peak + 1j * (a.imag / peak)
    rel = 0.5 * _frobenius(unit - unit.conj().swapaxes(-1, -2)) / np.maximum(_frobenius(unit), 1e-300)
    if (rel > HERMITIAN_REL_TOL).any():
        raise TooFarFromHermitian(f"anti-Hermitian part has relative Frobenius norm {rel.max():.3e} > "
                                  f"{HERMITIAN_REL_TOL:g}")
    with np.errstate(over="ignore", invalid="ignore"):
        twice = a + a.conj().swapaxes(-1, -2)
    if not np.isfinite(twice).all():
        raise ValidationError("A + A* is not finite: an entry is not finite or too large to symmetrize")
    return 0.5 * twice


@dataclass(frozen=True)
class HermitianMatrix:
    """An N x N complex matrix symmetrized to (A + A*)/2 at construction."""

    array: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.array, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise NonSquare(f"expected a square matrix with N >= 1, got shape {a.shape}")
        object.__setattr__(self, "array", _freeze(_hermitian_part(a)))

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


def _two_point_counts(h: np.ndarray, lo: float, hi: float, what: str) -> np.ndarray:
    """The count of eigenvalues hi of each Hermitian matrix over the last two
    axes, refusing a spectrum outside {lo, hi}: eigenvalues, (A - lo)(A - hi)
    and tr A are checked, the trace to TRACE_TOL times the trace norm."""
    lam = np.linalg.eigvalsh(h)
    dist = np.minimum(np.abs(lam - lo), np.abs(lam - hi))
    if dist.max() > EIGENVALUE_CLASS_TOL:
        worst = float(lam.flat[int(dist.argmax())])
        raise ValidationError(f"eigenvalue {worst!r} of a {what} is not in {{{lo:g}, {hi:g}}}")
    n = h.shape[-1]
    # Frobenius norm of (A - lo)(A - hi), computed spectrally.
    if (np.sqrt(np.sum(((lam - lo) * (lam - hi)) ** 2, axis=-1)) > EIGENVALUE_CLASS_TOL * n).any():
        raise ValidationError(f"a {what} does not satisfy (A - lo)(A - hi) = 0 with (lo, hi) = ({lo:g}, {hi:g})")
    count = np.count_nonzero(lam > 0.5 * (lo + hi), axis=-1)
    gap = np.abs(np.einsum("...ii->...", h).real - (lo * (n - count) + hi * count))
    if (gap > TRACE_TOL * np.maximum(1, abs(lo) * (n - count) + abs(hi) * count)).any():
        raise ValidationError(f"the trace of a {what} does not match its spectrum")
    return count


@dataclass(frozen=True)
class OrthogonalProjection:
    """A Hermitian idempotent with spectrum in {0, 1} and its rank."""

    matrix: HermitianMatrix
    rank: int = field(default=-1)

    def __post_init__(self):
        rank = int(_two_point_counts(self.matrix.array, 0.0, 1.0, "projection"))
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


def projection_stack(raw) -> tuple[np.ndarray, np.ndarray]:
    """An (M, N, N) stack of orthogonal projections, read-only, and their int
    ranks. Each slice is checked and symmetrized as as_projection does a
    matrix, in the `batches` of BATCH_ENTRIES entries so the temporaries stay
    small. A writeable complex128 array is taken over: validated in place and
    made read-only. Anything else is converted or copied first."""
    stack = np.asarray(raw, dtype=np.complex128)
    if not stack.flags.writeable:
        stack = stack.copy()
    if stack.ndim != 3 or len(stack) < 1 or stack.shape[1] != stack.shape[2] or stack.shape[1] < 1:
        raise ValidationError(f"expected a stack of M >= 1 square matrices with N >= 1, got shape {stack.shape}")
    ranks = np.empty(len(stack), dtype=int)
    for rows in batches(len(stack), stack[0].size):
        chunk = stack[rows] = _hermitian_part(stack[rows])
        ranks[rows] = _two_point_counts(chunk, 0.0, 1.0, "projection")
    return _freeze(stack), _freeze(ranks)


def projection_views(stack: np.ndarray, ranks: np.ndarray) -> tuple[OrthogonalProjection, ...]:
    """OrthogonalProjection views of the slices of a projection_stack result,
    neither checked nor copied again."""
    return tuple(_unchecked(OrthogonalProjection, matrix=_unchecked(HermitianMatrix, array=a), rank=int(r))
                 for a, r in zip(stack, ranks))


def _unchecked(cls, **fields):
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True)
class QuantumColoring:
    """A Hermitian matrix with all eigenvalues in {-1, +1} (chi^2 = I)."""

    matrix: HermitianMatrix
    plus_count: int = field(default=-1)

    def __post_init__(self):
        k = int(_two_point_counts(self.matrix.array, -1.0, 1.0, "coloring"))
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


def imbalance_terms(b: np.ndarray, size) -> tuple[np.ndarray, np.ndarray]:
    """tr B and (2 tr B - size)^2 + 4 (tr B - tr B^2) over the last two axes.
    When B has the traces of K P, for a kernel K and a projection P of rank
    `size` (K[S, S] for the diagonal P_S, U_+* P U_+ for K = U_+ U_+*), this
    is E[(2 X(S) - |S|)^2] under the DPP of kernel K if P = P_S, and
    objective^2(chi, P) if K = (chi + I)/2."""
    t1, t2 = trace_pair(b)
    return t1, (2.0 * t1 - size) ** 2 + 4.0 * (t1 - t2)


def seed_sequence(seed) -> np.random.SeedSequence:
    """A new SeedSequence: an equal copy of a SeedSequence, so spawning from
    it leaves the caller's own unspawned, or anything else as the entropy of
    a new one."""
    if not isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(seed)
    return np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key, pool_size=seed.pool_size,
                                  n_children_spawned=seed.n_children_spawned)


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


def matrix_pairs(matrix) -> np.ndarray:
    """The (N, N, 2) float64 array of the [re, im] pairs of a complex matrix."""
    arr = as_complex_array(matrix)
    return np.stack([arr.real, arr.imag], -1)


def matrix_to_json(matrix) -> list:
    """Serialize a complex matrix as nested lists of [re, im] pairs: `matrix_pairs` as Python floats."""
    return matrix_pairs(matrix).tolist()


def pairs_json_text(pairs: np.ndarray) -> str:
    """`json.dumps(pairs.tolist(), separators=(",", ":"))` of a finite float64
    (N, N, 2) array, row by row. Pairs on or above the diagonal go through repr;
    pair (i, j) below it reuses (j, i)'s text, imaginary sign flipped, where the
    bits mirror: equal real parts, imaginary parts apart in the sign bit alone."""
    re, im = np.moveaxis(np.ascontiguousarray(pairs).view(np.uint64), -1, 0)
    own = (re != re.T) | (im != im.T ^ np.uint64(1 << 63))  # +0.0 on both sides does not mirror
    n, lines = len(pairs), []
    held = np.empty((n, n), dtype=object)  # [j, i], j > i: (i, j) mirrored, until row j keeps or replaces it
    for i in range(n):
        ra, rb = (list(map(repr, part)) for part in pairs[i, i:].T.tolist())
        held[i, i:] = [f"[{x},{y}]" for x, y in zip(ra, rb)]
        held[i + 1:, i] = [f"[{x},{y[1:]}]" if y[0] == "-" else f"[{x},-{y}]" for x, y in zip(ra[1:], rb[1:])]
        cols = np.flatnonzero(own[i, :i])
        held[i, cols] = [f"[{x!r},{y!r}]" for x, y in pairs[i, cols].tolist()]
        lines.append(f"[{','.join(held[i].tolist())}]")
        held[i] = None
    return f"[{','.join(lines)}]"


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
