"""Determinantal point processes on [N] with Hermitian kernels.

Kernel validation, joint intensities, exact two-phase spectral sampling,
restriction, the Poisson-binomial size law, the full distribution by
inclusion-exclusion (usable as an independent oracle for the sampler), and
the expected squared imbalance of a colored set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    EmptyRestriction,
    GroundSetTooLarge,
    IndexOutOfRange,
    NumericalBreakdown,
    SpectrumOutOfRange,
    ValidationError,
)
from .matcore import HermitianMatrix, make_hermitian, seed_sequence, trace_pair

SPECTRUM_TOL = 1e-10
# Eigenvalues this close to 0 or 1 are snapped exactly, so projection kernels
# never lose a point to a Bernoulli draw on 1 - 1e-12.
SNAP_TOL = 1e-10
EXACT_DISTRIBUTION_CAP = 14
_BREAKDOWN_TOL = 1e-12


@dataclass(frozen=True)
class ProcessSample:
    """One realization: a sorted, duplicate-free subset of {1..N}."""

    points: tuple[int, ...]

    def __post_init__(self):
        pts = tuple(int(p) for p in self.points)
        if list(pts) != sorted(set(pts)):
            raise ValidationError(f"sample {pts} is not a sorted duplicate-free subset")
        object.__setattr__(self, "points", pts)

    def mask(self) -> int:
        """Bitmask with bit i-1 set for each point i."""
        return sum(1 << (p - 1) for p in self.points)


class DPPKernel:
    """A Hermitian matrix with spectrum in [0, 1]; the law of a determinantal
    process. The eigendecomposition is computed once and cached."""

    def __init__(self, matrix: HermitianMatrix):
        lam, vecs = np.linalg.eigh(matrix.array)
        bad = (lam < -SPECTRUM_TOL) | (lam > 1.0 + SPECTRUM_TOL)
        if bad.any():
            worst = lam[np.abs(lam - 0.5).argmax()]
            raise SpectrumOutOfRange(float(worst))
        lam = np.clip(lam, 0.0, 1.0)
        lam[lam < SNAP_TOL] = 0.0
        lam[lam > 1.0 - SNAP_TOL] = 1.0
        lam.setflags(write=False)
        vecs.setflags(write=False)
        self.matrix = matrix
        self.eigenvalues = lam
        self.eigenvectors = vecs

    @property
    def dim(self) -> int:
        return self.matrix.dim

    @property
    def array(self) -> np.ndarray:
        return self.matrix.array

    @cached_property
    def is_projection(self) -> bool:
        return bool(np.all((self.eigenvalues == 0.0) | (self.eigenvalues == 1.0)))

    def __repr__(self):
        return f"DPPKernel(dim={self.dim}, trace={self.matrix.trace():.6g})"


def validate_kernel(matrix) -> DPPKernel:
    """Accept a Hermitian matrix iff its spectrum lies in [0, 1] (within
    1e-10), clamping and snapping boundary eigenvalues."""
    return DPPKernel(make_hermitian(matrix))


def _principal(kernel: DPPKernel, subset) -> np.ndarray:
    """K[S, S] for a subset S of [N] given by 1-based indices; 0 x 0 when S
    is empty."""
    n = kernel.dim
    pts = [int(i) for i in subset]
    if any(i < 1 or i > n for i in pts):
        raise IndexOutOfRange(f"subset {pts} leaves [1, {n}]")
    if len(set(pts)) != len(pts):
        raise IndexOutOfRange(f"subset {pts} contains duplicates")
    idx = np.array(sorted(pts), dtype=int) - 1
    return kernel.array[np.ix_(idx, idx)]


def joint_intensity(kernel: DPPKernel, subset) -> float:
    """P[T subset of X] = det K[T, T]; the empty set has intensity 1."""
    return float(np.linalg.det(_principal(kernel, subset)).real)


def sample(kernel: DPPKernel, seed) -> ProcessSample:
    """Draw one exact sample via the two-phase spectral algorithm."""
    return _sample_with(kernel, np.random.default_rng(seed))


def _sample_with(kernel: DPPKernel, rng: np.random.Generator) -> ProcessSample:
    n = kernel.dim
    lam = kernel.eigenvalues
    # Phase 1: keep eigenvector i independently with probability lambda_i.
    mask = rng.random(n) < lam
    k = int(np.count_nonzero(mask))
    if k == 0:
        return ProcessSample(())
    v = kernel.eigenvectors[:, mask]
    # Phase 2: sample the projection process with kernel Q = V V* point by
    # point. Conditioning on a chosen point s replaces Q by its Schur
    # complement Q - q q*/Q_ss (q the s-th column), which is exactly the
    # projection onto the Gram-Schmidt downdated frame {u in range Q: u_s=0}.
    q = v @ v.conj().T
    chosen: list[int] = []
    uniforms = rng.random(k)
    for step in range(k):
        weights = np.clip(q.diagonal().real.copy(), 0.0, None)
        for s in chosen:
            weights[s] = 0.0
        total = weights.sum()
        if total < _BREAKDOWN_TOL:
            raise NumericalBreakdown(
                f"residual projection mass {total:.3e} with {k - step} points left to place"
            )
        cum = np.cumsum(weights)
        s = int(np.searchsorted(cum, uniforms[step] * total, side="right"))
        s = min(s, n - 1)
        pivot = q[s, s].real
        if pivot < _BREAKDOWN_TOL:
            raise NumericalBreakdown(f"conditioning pivot {pivot:.3e} at step {step}")
        chosen.append(s)
        col = q[:, s].copy()
        q = q - np.outer(col, col.conj()) / pivot
    return ProcessSample(tuple(sorted(p + 1 for p in chosen)))


def sample_many(kernel: DPPKernel, trials: int, seed, spawn: bool = False) -> list[ProcessSample]:
    """Draw `trials` samples. With spawn=False a single sequential stream is
    used; spawn=True derives an independent child stream per trial index,
    which is what a concurrent driver should use."""
    if trials < 1:
        raise ValidationError("need trials >= 1")
    if spawn:
        children = seed_sequence(seed).spawn(trials)
        return [_sample_with(kernel, np.random.default_rng(c)) for c in children]
    rng = np.random.default_rng(seed)
    return [_sample_with(kernel, rng) for _ in range(trials)]


def restrict_kernel(kernel: DPPKernel, subset) -> DPPKernel:
    """The kernel P_S K P_S compressed to the |S| x |S| principal submatrix."""
    sub = _principal(kernel, subset)
    if sub.size == 0:
        raise EmptyRestriction("cannot restrict a kernel to the empty set")
    return validate_kernel(sub)


def size_pmf(kernel: DPPKernel) -> np.ndarray:
    """Exact Poisson-binomial law of |X|: the size has the distribution of a
    sum of independent Bernoulli(lambda_i) draws over the kernel spectrum."""
    pmf = np.array([1.0])
    for lam in kernel.eigenvalues:
        nxt = np.zeros(pmf.size + 1)
        nxt[: pmf.size] += pmf * (1.0 - lam)
        nxt[1:] += pmf * lam
        pmf = nxt
    return pmf


def exact_distribution(kernel: DPPKernel, cap: int = EXACT_DISTRIBUTION_CAP) -> dict[tuple[int, ...], float]:
    """Probability of every realization, by Moebius inversion of the joint
    intensities: P[X = T] = sum_{R >= T} (-1)^(|R|-|T|) det K[R, R].

    Subsets are emitted in binary counting order (bit i <-> element i+1).
    """
    n = kernel.dim
    if n > cap:
        raise GroundSetTooLarge(f"exact distribution over 2^{n} subsets exceeds cap {cap}")
    size = 1 << n
    arr = kernel.array
    rho = np.empty(size)
    rho[0] = 1.0
    for m in range(1, size):
        idx = np.flatnonzero([(m >> b) & 1 for b in range(n)])
        rho[m] = np.linalg.det(arr[np.ix_(idx, idx)]).real
    probs = rho.copy()
    masks = np.arange(size)
    for b in range(n):
        lower = masks[(masks & (1 << b)) == 0]
        probs[lower] -= probs[lower | (1 << b)]
    out: dict[tuple[int, ...], float] = {}
    for m in range(size):
        pts = tuple(b + 1 for b in range(n) if (m >> b) & 1)
        out[pts] = float(probs[m])
    return out


def _embedded_terms(kernel: DPPKernel, subset) -> tuple[float, float, int]:
    """(tr(K P_S), tr((K P_S)^2), |S|) for the diagonal embedding P_S."""
    sub = _principal(kernel, subset)
    t1, t2 = trace_pair(sub)
    return float(t1), float(t2), sub.shape[0]


def expected_squared_imbalance(kernel: DPPKernel, subset) -> float:
    """E[(2 X(S) - |S|)^2] = (2 tr(K P_S) - |S|)^2 + 4 tr(K P_S (I - K P_S)).

    This is the bias-variance split of the squared imbalance of S under the
    process with kernel K (for the uniform kernel I/2 the bias term is 0).
    """
    t1, t2, s = _embedded_terms(kernel, subset)
    return (2.0 * t1 - s) ** 2 + 4.0 * (t1 - t2)


def moments_of_count(kernel: DPPKernel, subset) -> tuple[float, float]:
    """(E[X(S)], E[X(S)^2]) from singleton and pair joint intensities."""
    sub = _principal(kernel, subset)
    mean = float(sub.diagonal().real.sum())
    # sum over i != j of det K[{i,j}] = (sum diag)^2 - ||sub||_F^2
    pair_sum = mean * mean - float(np.sum(np.abs(sub) ** 2))
    return mean, mean + pair_sum
