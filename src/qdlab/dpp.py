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
from .matcore import BATCH_ENTRIES, HermitianMatrix, batches, imbalance_terms, make_hermitian

SPECTRUM_TOL = 1e-10
# Eigenvalues this close to 0 or 1 are snapped exactly, so projection kernels
# never lose a point to a Bernoulli draw on 1 - 1e-12.
SNAP_TOL = 1e-10
EXACT_DISTRIBUTION_CAP = 14
_BREAKDOWN_TOL = 1e-12


@dataclass(frozen=True)
class ProcessSample:
    """One realization: a sorted, duplicate-free subset of {1..N}, read off
    a `sample_masks` row by `sample_many` and not checked again. The
    per-draw API of `sample` and `sample_many`; `qdlab dpp sample` reads
    the mask array instead and builds none."""

    points: tuple[int, ...]


class DPPKernel:
    """A Hermitian matrix with spectrum in [0, 1]; the law of a determinantal
    process. The eigendecomposition is computed once and cached."""

    def __init__(self, matrix: HermitianMatrix):
        lam, vecs = np.linalg.eigh(matrix.array)
        # written so that a NaN eigenvalue (of a matrix that overflowed) fails
        bad = ~((lam >= -SPECTRUM_TOL) & (lam <= 1.0 + SPECTRUM_TOL))
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
    return sample_many(kernel, 1, seed)[0]


def sample_many(kernel: DPPKernel, trials: int, seed) -> list[ProcessSample]:
    """The draws of `sample_masks` as ProcessSamples, one per mask row:
    the per-draw form for callers that want each draw as a tuple of points.
    Code that only counts or prints draws can read `sample_masks` directly,
    as `qdlab dpp sample` does."""
    points = np.arange(1, kernel.dim + 1)
    return [ProcessSample(tuple(points[row].tolist())) for row in sample_masks(kernel, trials, seed)]


def sample_masks(kernel: DPPKernel, trials: int, seed) -> np.ndarray:
    """Draw `trials` exact samples as a (trials, N) bool array whose row t
    marks the points of draw t.

    Draw after draw reads N phase-1 uniforms, one per eigenvector, then one
    phase-2 uniform per kept eigenvector, from the one stream
    `default_rng(seed)` (read ahead in blocks, so a Generator passed as
    `seed` ends past the last draw). The draws run in the `batches` of
    4 BATCH_ENTRIES complex factor entries (1 MiB), N x max(1, rank) per
    draw. A projection kernel's draws all keep every eigenvector, so
    Q = V V* is built once per call (one more N x N array) and a step reads
    column s from it. A draw's residual weights agree with those of the
    Schur-complement draw made alone on the same uniforms to about 1e-16
    relative, so the two can differ only where a uniform lands within
    rounding of a cumulative-weight boundary (BLAS products may also round
    differently for different stack sizes, or with and without Q; none of
    70,000 projection draws at N = 16, 64 and 128 moved with Q).
    """
    if trials < 1:
        raise ValidationError("need trials >= 1")
    n = kernel.dim
    plus = kernel.eigenvalues > 0.0
    lam, vecs = kernel.eigenvalues[plus], kernel.eigenvectors[:, plus]
    cols = vecs.conj() @ vecs.T if kernel.is_projection else None
    out = np.empty((trials, n), dtype=bool)
    draws = batches(trials, n * max(1, lam.size), 4 * BATCH_ENTRIES)
    for rows, u in _stream_uniforms(kernel.eigenvalues, draws, seed):
        out[rows] = _place_points(vecs, u[:, :n][:, plus] < lam, u[:, n:], cols)
    return out


def _stream_uniforms(lam: np.ndarray, draws, seed):
    """Each slice of `draws` (consecutive, from 0) with its uniform rows, cut
    from one stream. Row t holds the 2N values from the start of draw t, of
    which a draw that keeps k eigenvectors reads the first N + k, so the next
    draw starts there. `lam` ascends, and an eigenvalue of exactly 0 or 1
    decides its comparison with a uniform in [0, 1) alone, so k is read off
    the columns of the fractional eigenvalues only, plus the count of 1s."""
    n = lam.size
    lo, hi = np.count_nonzero(lam == 0.0), n - np.count_nonzero(lam == 1.0)
    rng = np.random.default_rng(seed)
    buf = np.empty(0)
    for rows in draws:
        m = rows.stop - rows.start
        # m draws read at most 2N m values, so every row below lies in buf
        buf = np.concatenate([buf, rng.random(max(0, 2 * n * m - buf.size))])
        windows = np.lib.stride_tricks.sliding_window_view(buf, 2 * n)
        kept = (np.count_nonzero(windows[:, lo:hi] < lam[lo:hi], axis=1) + (n - hi)).tolist()
        starts = []
        pos = 0
        for _ in range(m):
            starts.append(pos)
            pos += n + kept[pos]
        yield rows, windows[starts]
        buf = buf[pos:]


def _place_points(vecs: np.ndarray, keep: np.ndarray, phase2: np.ndarray, cols=None) -> np.ndarray:
    """The draws that keep the eigenvectors `vecs[:, keep[t]]` and read the
    phase-2 uniforms `phase2[t]`, as a (rows, N) bool array. `cols`, if
    given, holds column s of V V* (all of `vecs`) as its row s; it serves
    only draws that keep every eigenvector.

    Phase 2 samples the projection process with kernel Q = V V* of the kept
    vectors point by point. It keeps the residual diagonal d (first diag Q)
    and the rows l of a Cholesky-type factor, so that the Schur complement
    left after each placed point is Q - sum l l* (Tremblay, Barthelme and
    Amblard, arXiv:1802.08471). A step picks s with probability d_s / sum d,
    forms column s of Q from the eigenvectors (or reads it from `cols`),
    subtracts the earlier rows' part, scales by 1/sqrt(d_s) into the next
    row l, sets d -= |l|^2 and d_s = 0. The draws run side by side, sorted
    by the number k of points to place, so the draws still placing points at
    any step form a prefix of the stack.
    """
    n = vecs.shape[0]
    sizes = np.count_nonzero(keep, axis=1)
    order = np.argsort(-sizes, kind="stable")
    order = order[sizes[order] > 0]
    out = np.zeros((len(keep), n), dtype=bool)
    if not len(order):
        return out
    keep, phase2, k = keep[order], phase2[order], sizes[order]
    d = keep @ (vecs.real**2 + vecs.imag**2).T
    factor = np.empty((len(order), k[0], n), dtype=vecs.dtype)
    placed = np.zeros((len(order), n), dtype=bool)
    # draws still placing points at each step: the count of k > step
    active = np.searchsorted(-k, -np.arange(k[0]), side="left").tolist()
    for step, a in enumerate(active):
        rows = np.arange(a)
        weights = np.maximum(d[:a], 0.0)
        total = weights.sum(axis=1)
        if (total < _BREAKDOWN_TOL).any():
            t = int(np.argmax(total < _BREAKDOWN_TOL))
            raise NumericalBreakdown(
                f"residual projection mass {total[t]:.3e} with {k[t] - step} points left to place"
            )
        # the first index whose running weight exceeds the target, as in
        # searchsorted(cum, target, side="right") on one draw
        cum = np.cumsum(weights, axis=1)
        s = np.minimum(np.count_nonzero(cum <= (phase2[:a, step] * total)[:, None], axis=1), n - 1)
        pivot = d[rows, s]
        if (pivot < _BREAKDOWN_TOL).any():
            raise NumericalBreakdown(f"conditioning pivot {pivot.min():.3e} at step {step}")
        placed[rows, s] = True
        col = cols[s] if cols is not None else (keep[:a] * vecs[s].conj()) @ vecs.T
        col -= np.matmul(factor[rows, :step, s].conj()[:, None, :], factor[:a, :step])[:, 0]
        row = factor[:a, step]
        np.divide(col, np.sqrt(pivot)[:, None], out=row)
        d[:a] -= row.real**2 + row.imag**2
        d[rows, s] = 0.0
    out[order] = placed
    return out


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


def exact_distribution(kernel: DPPKernel, cap: int = EXACT_DISTRIBUTION_CAP) -> np.ndarray:
    """Probability of every realization, by Moebius inversion of the joint
    intensities: P[X = T] = sum_{R >= T} (-1)^(|R|-|T|) det K[R, R].

    Returns a (2^N,) array indexed by subset mask: entry m is P[X = T] for
    the T holding element i + 1 exactly when bit i of m is set.
    """
    n = kernel.dim
    if n > cap:
        raise GroundSetTooLarge(f"exact distribution over 2^{n} subsets exceeds cap {cap}")
    size = 1 << n
    arr = kernel.array
    masks = np.arange(size)
    bits = (masks[:, None] >> np.arange(n)) & 1
    counts = bits.sum(axis=1)
    rho = np.empty(size)
    rho[0] = 1.0
    for s in range(1, n + 1):  # one stacked det over the subsets of each size
        sel = np.flatnonzero(counts == s)
        idx = np.nonzero(bits[sel])[1].reshape(sel.size, s)
        rho[sel] = np.linalg.det(arr[idx[:, :, None], idx[:, None, :]]).real
    for b in range(n):
        lower = masks[(masks & (1 << b)) == 0]
        rho[lower] -= rho[lower | (1 << b)]
    return rho


def expected_squared_imbalance(kernel: DPPKernel, subset) -> float:
    """E[(2 X(S) - |S|)^2] = (2 tr(K P_S) - |S|)^2 + 4 tr(K P_S (I - K P_S)).

    This is the bias-variance split of the squared imbalance of S under the
    process with kernel K (for the uniform kernel I/2 the bias term is 0).
    K P_S has the traces of its principal block K[S, S].
    """
    sub = _principal(kernel, subset)
    return float(imbalance_terms(sub, sub.shape[0])[1])


def moments_of_count(kernel: DPPKernel, subset) -> tuple[float, float]:
    """(E[X(S)], E[X(S)^2]) from singleton and pair joint intensities."""
    sub = _principal(kernel, subset)
    mean = float(sub.diagonal().real.sum())
    # sum over i != j of det K[{i,j}] = (sum diag)^2 - ||sub||_F^2
    pair_sum = mean * mean - float(np.sum(np.abs(sub) ** 2))
    return mean, mean + pair_sum
