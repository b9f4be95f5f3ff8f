"""Haar-distributed random matrices and exact Haar-moment formulas.

Unitaries are sampled by QR of a complex Ginibre matrix with the R-diagonal
phase correction (plain QR is *not* Haar). Random quantum colorings and
projections conjugate fixed spectra by Haar unitaries. The exact first and
second moments of tr(chi P) and tr((chi P)^2), for both parities of N and
for fixed colorings against random projections, serve as Monte Carlo
oracles throughout the test suite.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .dpp import DPPKernel, validate_kernel
from .errors import DegenerateDim, ValidationError
from .matcore import (
    OrthogonalProjection, QuantumColoring, batches, conjugate_diagonal, make_hermitian, seed_sequence, trace_pair,
)
from .setsys import ProjectionSystem, check_dense_size


def haar_batch(rng: np.random.Generator, trials: int, n: int) -> np.ndarray:
    """`trials` Haar-distributed elements of U(N) as a (trials, N, N) stack.

    Each is the Q factor of a complex Ginibre matrix with the phases of R's
    diagonal moved into Q (Mezzadri, math-ph/0609050). The generator keeps
    no state between calls, so one call reads the same numbers as `trials`
    calls with trials = 1 and gives the same unitaries bit for bit.
    """
    g = rng.standard_normal((trials, 2, n, n))
    q, r = np.linalg.qr((g[:, 0] + 1j * g[:, 1]) / math.sqrt(2.0))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def haar_unitary(n: int, seed) -> np.ndarray:
    """One Haar-distributed element of U(N)."""
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    return haar_batch(np.random.default_rng(seed), 1, n)[0]


def coloring_spectrum(n: int) -> np.ndarray:
    """The fixed spectrum (+1 x floor(N/2), -1 x ceil(N/2)) of a random coloring."""
    d = -np.ones(n)
    d[: n // 2] = 1.0
    return d


def random_quantum_coloring(n: int, seed) -> QuantumColoring:
    """chi = U D U* with D = diag(+1 x floor(N/2), -1 x ceil(N/2)), U Haar."""
    if n < 2:
        raise DegenerateDim(f"random colorings need n >= 2, got {n}")
    chi = conjugate_diagonal(haar_unitary(n, seed), coloring_spectrum(n))
    return QuantumColoring(make_hermitian(chi), plus_count=n // 2)


def random_projection(n: int, seed) -> OrthogonalProjection:
    """P = U Pi U* with Pi projecting onto the first floor(N/2) coordinates."""
    if n < 2:
        raise DegenerateDim(f"random projections need n >= 2, got {n}")
    u = haar_unitary(n, seed)[:, : n // 2]
    return OrthogonalProjection(make_hermitian(u @ u.conj().T), rank=n // 2)


def random_projection_system(n: int, m: int, seed) -> ProjectionSystem:
    """M independent random projections; element i is a deterministic
    function of (seed, i) through spawned child streams, and equals
    random_projection(n, child i)."""
    if m < 1:
        raise ValidationError(f"need m >= 1, got {m}")
    check_dense_size(n, m)
    if n < 2:
        raise DegenerateDim(f"random projections need n >= 2, got {n}")
    stack = np.empty((m, n, n), dtype=np.complex128)
    for i, child in enumerate(seed_sequence(seed).spawn(m)):
        u = haar_unitary(n, child)[:, : n // 2]
        stack[i] = u @ u.conj().T
    return ProjectionSystem(stack)


def random_kernel(n: int, seed) -> DPPKernel:
    """A random Hermitian DPP kernel U diag(u_1..u_N) U* with uniform spectrum."""
    rng = np.random.default_rng(seed)
    u = haar_batch(rng, 1, n)[0]
    return validate_kernel(conjugate_diagonal(u, rng.random(n)))


def exact_mean_trace(n: int, r: int) -> float:
    """E[tr(chi P)] over random colorings: (tr D) r / N, i.e. 0 for even N
    and -r/N for odd N."""
    _check_rank(n, r)
    return 0.0 if n % 2 == 0 else -r / n


def exact_mean_trace_sq(n: int, r: int) -> float:
    """E[tr((chi P)^2)] over random colorings against a fixed rank-r
    projection: (N r^2 - r)/(N^2 - 1) for even N, r^2/N for odd N."""
    _check_rank(n, r)
    if n % 2 == 0:
        return (n * r * r - r) / (n * n - 1)
    return r * r / n


def exact_mean_commutator_term(n: int, r: int) -> float:
    """E[tr(P - (chi P)^2)] = r - E[tr((chi P)^2)]."""
    return r - exact_mean_trace_sq(n, r)


def exact_mean_trace_sq_fixed_coloring(n: int, trace_chi: int) -> float:
    """E[tr((chi P)^2)] for a *fixed* coloring with trace t against a random
    projection of rank floor(N/2):

        t^2 r0 (N - r0) / (N (N^2-1)) + r0 (N r0 - 1) / (N^2 - 1).
    """
    if n < 2:
        raise DegenerateDim(f"need n >= 2, got {n}")
    t = int(trace_chi)
    if abs(t) > n or (t + n) % 2 != 0:
        raise ValidationError(f"trace {t} is not 2k - N for any k in [0, {n}]")
    r0 = n // 2
    return (t * t) * r0 * (n - r0) / (n * (n * n - 1)) + r0 * (n * r0 - 1) / (n * n - 1)


def exact_variance_trace(n: int, r: int) -> float:
    """Var[tr(chi P)] for a rank-r projection: r(N-r)/(N^2-1) for even N and
    r(N-r)/N^2 for odd N.

    Follows by summing the fourth-moment table over entry pairs:
    E[(tr chi P)^2] = r(N+t^2)/(N(N+1)) + r(r-1)(t^2-1)/(N^2-1) with
    t = tr(D); cross-checked by Monte Carlo in the tests.
    """
    _check_rank(n, r)
    if n % 2 == 0:
        return r * (n - r) / (n * n - 1)
    return r * (n - r) / (n * n)


def _check_rank(n: int, r: int) -> None:
    if n < 2:
        raise DegenerateDim(f"need n >= 2, got {n}")
    if not 0 <= r <= n:
        raise ValidationError(f"rank {r} outside [0, {n}]")


@dataclass(frozen=True)
class HaarFourthMoments:
    """The four degree-4 entry moments of a Haar unitary."""

    abs_fourth: float          # E|U_ij|^4
    abs_shared_index: float    # E|U_ij|^2 |U_in|^2 = E|U_ij|^2 |U_mj|^2, j != n, i != m
    abs_distinct: float        # E|U_ij|^2 |U_mn|^2, i != m, j != n
    cross: float               # E[U_ij U_mn conj(U_mj) conj(U_in)], i != m, j != n


def haar_fourth_moments(n: int) -> HaarFourthMoments:
    """Exact degree-4 moments of Haar unitary entries."""
    if n < 2:
        raise DegenerateDim(f"need n >= 2, got {n}")
    return HaarFourthMoments(
        abs_fourth=2.0 / (n * (n + 1)),
        abs_shared_index=1.0 / (n * (n + 1)),
        abs_distinct=1.0 / (n * n - 1),
        cross=-1.0 / (n * (n * n - 1)),
    )


@dataclass(frozen=True)
class TailFit:
    """Weighted least-squares fit of -log tail against N^2 delta^2."""

    c_hat: float
    r_squared: float
    points_used: int


@dataclass(frozen=True)
class ConcentrationProbe:
    """Empirical tails of tr(chi P) and tr(P - (chi P)^2) around their exact
    means, on a grid of deviations delta (tail event |f - Ef| >= delta N)."""

    n: int
    trials: int
    rank: int
    deviations: np.ndarray
    tail_trace: np.ndarray
    tail_commutator: np.ndarray
    fit_trace: TailFit
    fit_commutator: TailFit

    @property
    def c_hat(self) -> float:
        """The conservative constant min(c1, c2), as the union-bound argument uses."""
        return min(self.fit_trace.c_hat, self.fit_commutator.c_hat)


def _fit_tail(x: np.ndarray, p: np.ndarray) -> TailFit:
    keep = p > 0
    if keep.sum() < 2:
        return TailFit(math.nan, math.nan, int(keep.sum()))
    xs, ys = x[keep], -np.log(p[keep])
    c = float(np.dot(xs, ys) / np.dot(xs, xs))
    ss_res = float(np.sum((ys - c * xs) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else math.nan
    return TailFit(c, r2, int(keep.sum()))


@dataclass(frozen=True)
class MomentGate:
    """One Monte-Carlo-vs-exact comparison with its z-score."""

    name: str
    n: int
    param: int
    exact: float
    estimate: float
    se: float
    z: float

    def passes(self, z_gate: float = 4.0) -> bool:
        return abs(self.z) <= z_gate


def z_score(estimate: float, exact: float, se: float) -> float:
    """(estimate - exact) / se; with se = 0, 0 for a match within 1e-12 and
    inf otherwise."""
    if se == 0.0:
        return 0.0 if abs(estimate - exact) <= 1e-12 else math.inf
    return (estimate - exact) / se


def _gate(name: str, n: int, param: int, exact: float, samples: np.ndarray) -> MomentGate:
    est = float(samples.mean())
    se = float(samples.std(ddof=1) / math.sqrt(samples.size))
    return MomentGate(name, n, param, exact, est, se, z_score(est, exact, se))


def _corner_sums(a: np.ndarray) -> np.ndarray:
    """For a (T, N, N) stack, the (T, N+1, N+1) table of sums of |a_pq|^2
    over p < i and q < j; entry [t, r, r] is tr((P_r a_t)^2) for a
    Hermitian a_t and the diagonal projection P_r onto the first r axes."""
    out = np.zeros((a.shape[0], a.shape[1] + 1, a.shape[2] + 1))
    out[:, 1:, 1:] = (np.abs(a) ** 2).cumsum(axis=1).cumsum(axis=2)
    return out


def moment_gates(n: int, trials: int, seed, all_ranks: bool = False) -> list[MomentGate]:
    """Monte Carlo estimates of every exact-moment formula at dimension n.

    Per trial one Haar unitary U and the random coloring chi = U D U* feed
    four families of statistics:

      * tr(chi P_r) and tr((chi P_r)^2) against fixed diagonal projections
        of rank r (r = floor(n/2), or all ranks when all_ranks is set);
      * tr((chi_k P)^2) for the fixed sorted coloring chi_k with k plus
        eigenvalues against P = (chi + I)/2 of rank r0 = floor(n/2). Per draw
        it is tr((P_k chi)^2) + r0 - k (they are r0 - 4c and k - 4c, with c
        the sum of |P_pq|^2 over p < k <= q), so it is gated only where no
        tr((chi P_k)^2) gate repeats it: k = r0 + 1 for n >= 3, none with
        all_ranks;
      * the second moment of tr(chi P_r), against the closed-form variance;
      * the four degree-4 entry moments of U itself.
    """
    if n < 2:
        raise DegenerateDim(f"need n >= 2, got {n}")
    if trials < 2:
        raise ValidationError("need trials >= 2")
    rng = np.random.default_rng(seed)
    d = coloring_spectrum(n)
    r0 = n // 2
    ranks = list(range(n + 1)) if all_ranks else [r0]
    fixed_ks = [] if all_ranks or n < 3 else [r0 + 1]
    corners = ranks + fixed_ks

    t1 = np.empty((trials, len(ranks)))
    t2 = np.empty((trials, len(corners)))
    m4 = np.empty((trials, 4))  # columns in the field order of HaarFourthMoments
    for rows in batches(trials, n * n):
        u = haar_batch(rng, rows.stop - rows.start, n)
        chi = conjugate_diagonal(u, d)
        diag_cum = np.zeros((u.shape[0], n + 1))
        diag_cum[:, 1:] = np.cumsum(np.diagonal(chi, axis1=1, axis2=2).real, axis=1)
        t1[rows] = diag_cum[:, ranks]
        t2[rows] = _corner_sums(chi)[:, corners, corners]
        a00, a01, a11 = np.abs(u[:, 0, 0]), np.abs(u[:, 0, 1]), np.abs(u[:, 1, 1])
        m4[rows, :3] = np.stack([a00, a00 * a01, a00 * a11], axis=1) ** [4.0, 2.0, 2.0]
        m4[rows, 3] = (u[:, 0, 0] * u[:, 1, 1] * u[:, 1, 0].conj() * u[:, 0, 1].conj()).real

    gates: list[MomentGate] = []
    for col, r in enumerate(ranks):
        gates.append(_gate("mean_trace", n, r, exact_mean_trace(n, r), t1[:, col]))
        gates.append(_gate("mean_trace_sq", n, r, exact_mean_trace_sq(n, r), t2[:, col]))
    second = exact_variance_trace(n, r0) + exact_mean_trace(n, r0) ** 2
    col0 = ranks.index(r0)
    gates.append(_gate("trace_second_moment", n, r0, second, t1[:, col0] ** 2))
    for col, k in enumerate(fixed_ks, start=len(ranks)):
        exact = exact_mean_trace_sq_fixed_coloring(n, 2 * k - n)
        gates.append(_gate("mean_trace_sq_fixed", n, k, exact, t2[:, col] + (r0 - k)))
    for col, (name, exact) in enumerate(asdict(haar_fourth_moments(n)).items()):
        gates.append(_gate(name, n, 0, exact, m4[:, col]))
    return gates


def concentration_probe(n: int, trials: int, deviations=None, seed=0) -> ConcentrationProbe:
    """Estimate deviation tails of the two objective functionals for a fixed
    random rank-floor(N/2) projection under random quantum colorings, and fit
    the Gaussian-type decay exp(-c N^2 delta^2) to each.

    With deviations=None the grid spans [0.5, 2.5] empirical standard
    deviations of the slower-concentrating functional.
    """
    if trials < 1000:
        raise ValidationError("need trials >= 1000 for usable tails")
    if n < 2:
        raise DegenerateDim(f"need n >= 2, got {n}")
    rng = np.random.default_rng(seed)
    r0 = n // 2
    proj = random_projection(n, rng)
    p = proj.array
    d = coloring_spectrum(n)
    f1 = np.empty(trials)
    f2 = np.empty(trials)
    for rows in batches(trials, n * n):
        f1[rows], sq = trace_pair(conjugate_diagonal(haar_batch(rng, rows.stop - rows.start, n), d) @ p)
        f2[rows] = r0 - sq
    m1 = exact_mean_trace(n, r0)
    m2 = exact_mean_commutator_term(n, r0)
    if deviations is None:
        scale = max(np.std(f1 - m1), np.std(f2 - m2))
        deviations = np.linspace(0.5, 2.5, 9) * scale / n
    deviations = np.asarray(deviations, dtype=float)
    tail1 = np.array([(np.abs(f1 - m1) >= dv * n).mean() for dv in deviations])
    tail2 = np.array([(np.abs(f2 - m2) >= dv * n).mean() for dv in deviations])
    x = (n * deviations) ** 2
    return ConcentrationProbe(
        n=n,
        trials=trials,
        rank=r0,
        deviations=deviations,
        tail_trace=tail1,
        tail_commutator=tail2,
        fit_trace=_fit_tail(x, tail1),
        fit_commutator=_fit_tail(x, tail2),
    )
