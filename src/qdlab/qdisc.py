"""The quantum-discrepancy objective over projection systems.

The objective of a coloring chi against a projection P is

    [ (tr chi P)^2 + tr(P - (chi P)^2) ]^(1/2),

equal to the commutator form (tr chi P)^2 + tr(chi [chi, P] P) because
chi^2 = I. Minimization over colorings is heuristic: colorings are
parametrized as U D_k U* for every admissible number k of +1 eigenvalues,
with Haar restarts refined by plane-rotation sweeps that preserve
chi^2 = I exactly by construction. The reported value is an upper
estimate. Each k also has a certified floor from the trace term alone
(`_slice_floors`); the search skips the k whose floor is above its best
value, and reports no lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import randmat
from .combdisc import DEFAULT_EXHAUSTIVE_CAP, disc_exact, disc_heuristic
from .dpp import expected_squared_imbalance, validate_kernel
from .errors import (
    DegenerateDim,
    DimMismatch,
    RankMismatch,
    ValidationError,
)
from .matcore import (
    BATCH_ENTRIES,
    OrthogonalProjection,
    QuantumColoring,
    batches,
    commutator,
    conjugate_diagonal,
    imbalance_terms,
    make_hermitian,
    schatten_norm,
    seed_sequence,
    spectral_decompose,
    trace_pair,
)
from .setsys import ProjectionSystem, SetSystem, to_projection_system

_CONSISTENCY_TOL = 1e-9
_IMPROVE_TOL = 1e-12
_FLOOR_TOL = 1e-9
ANGLE_GRID = 64
# Largest (N + 1) x restarts: qdisc_estimate spawns one SeedSequence child per
# start (about 450 B each) before any search.
MAX_STARTS = 1 << 20


@dataclass(frozen=True)
class ObjectiveValue:
    """The two objective terms and their root-sum value."""

    trace_term: float       # (tr chi P)^2
    commutator_term: float  # tr(P - (chi P)^2)
    value: float

    def __post_init__(self):
        if self.trace_term < -_CONSISTENCY_TOL or self.commutator_term < -_CONSISTENCY_TOL:
            raise ValidationError("objective terms must be non-negative")
        if abs(self.value**2 - max(self.trace_term + self.commutator_term, 0.0)) > _CONSISTENCY_TOL:
            raise ValidationError("value is not the root of the term sum")


def _pair_arrays(coloring: QuantumColoring, projection: OrthogonalProjection):
    if coloring.dim != projection.dim:
        raise DimMismatch(f"coloring dim {coloring.dim} vs projection dim {projection.dim}")
    return coloring.array, projection.array


def objective(coloring: QuantumColoring, projection: OrthogonalProjection) -> ObjectiveValue:
    """Evaluate the objective, cross-checking the chi [chi, P] P form."""
    chi, p = _pair_arrays(coloring, projection)
    t1, t2 = map(float, trace_pair(chi @ p))
    commutator_term = projection.rank - t2
    comm_form = float(np.trace(chi @ commutator(chi, p) @ p).real)
    if abs(comm_form - commutator_term) > _CONSISTENCY_TOL * max(1.0, abs(commutator_term)):
        raise ValidationError(
            f"commutator form {comm_form!r} disagrees with direct term {commutator_term!r}"
        )
    total = t1 * t1 + commutator_term
    return ObjectiveValue(t1 * t1, commutator_term, math.sqrt(max(total, 0.0)))


@dataclass(frozen=True)
class DppConsistencyRecord:
    """Both sides of the kernel identity E[(2 X(S) - |S|)^2] = objective^2."""

    imbalance: float
    objective_sq: float

    @property
    def difference(self) -> float:
        return self.imbalance - self.objective_sq


def objective_vs_dpp(coloring: QuantumColoring, subset) -> DppConsistencyRecord:
    """Evaluate the squared imbalance of S under the kernel (chi + I)/2 and
    the squared objective of chi against the diagonal embedding of S."""
    kernel = validate_kernel(0.5 * (coloring.array + np.eye(coloring.dim)))
    imbalance = expected_squared_imbalance(kernel, subset)
    p_s = to_projection_system(SetSystem(coloring.dim, (tuple(subset),))).projections[0]
    obj = objective(coloring, p_s)
    return DppConsistencyRecord(imbalance=imbalance, objective_sq=obj.trace_term + obj.commutator_term)


@dataclass(frozen=True)
class TrivialBoundRecord:
    """The diagonal-entry identity behind the objective <= N bound."""

    direct: float      # (tr chi P)^2 - tr((chi P)^2)
    pairwise: float    # 2 sum_{i<j} chi'_ii chi'_jj (P'_ii P'_jj - |P'_ij|^2)
    objective_sq: float
    dim: int

    @property
    def residual(self) -> float:
        return abs(self.direct - self.pairwise)

    @property
    def within_bound(self) -> bool:
        return self.objective_sq <= self.dim**2 + _CONSISTENCY_TOL


def trivial_bound_check(coloring: QuantumColoring, projection: OrthogonalProjection) -> TrivialBoundRecord:
    """Verify, in the eigenbasis of chi, the pairwise identity used to prove
    objective^2 <= N^2, and report both sides."""
    chi, p = _pair_arrays(coloring, projection)
    t1, t2 = map(float, trace_pair(chi @ p))
    dec = spectral_decompose(coloring.matrix)
    x = np.sign(dec.eigenvalues)
    pp = dec.eigenvectors.conj().T @ p @ dec.eigenvectors
    w = x * pp.diagonal().real
    diag_pairs = (w.sum() ** 2 - np.sum(w * w))  # 2 sum_{i<j} x_i x_j P'_ii P'_jj
    m = np.abs(pp) ** 2
    off_pairs = float(x @ m @ x - np.sum(m.diagonal()))  # 2 sum_{i<j} x_i x_j |P'_ij|^2
    pairwise = float(diag_pairs - off_pairs)
    objective_sq = t1 * t1 + (projection.rank - t2)
    return TrivialBoundRecord(t1 * t1 - t2, pairwise, objective_sq, coloring.dim)


def delta_threshold(n: int, r, m: int, c: float):
    """The per-projection threshold

    sqrt(2) [ sqrt((1/c) log(8M) + N^2/(N^2-1) r - N/(N^2-1) r^2) + r/N ],

    elementwise over an array of ranks r.
    """
    if n < 2:
        raise DegenerateDim(f"the threshold needs N >= 2, got {n}")
    if not (m >= 1 and 0 < c < math.inf):
        raise ValidationError(f"need M >= 1 and finite c > 0, got M = {m}, c = {c}")
    r = np.asarray(r)
    if ((r < 0) | (r > n)).any():
        raise ValidationError(f"rank {r} outside [0, {n}]")
    inner = math.log(8 * m) / c + (n * n * r - n * r * r) / (n * n - 1)
    return math.sqrt(2.0) * (np.sqrt(inner) + r / n)


def delta_p(projection: OrthogonalProjection, m: int, c: float) -> float:
    """delta threshold of one projection in an M-element system."""
    return delta_threshold(projection.dim, projection.rank, m, c)


@dataclass(frozen=True)
class DeltaEventRecord:
    """Per-projection satisfaction of objective <= Delta_P, plus the joint flag."""

    values: np.ndarray
    thresholds: np.ndarray
    satisfied: np.ndarray

    @property
    def all_satisfied(self) -> bool:
        return bool(self.satisfied.all())


def delta_thresholds(system: ProjectionSystem, c: float) -> np.ndarray:
    """Delta_{P_j} at constant c for every projection of the system."""
    return delta_threshold(system.dim, system.ranks(), system.num_projections, c)


def check_delta_event(system: ProjectionSystem, coloring: QuantumColoring, c: float) -> DeltaEventRecord:
    """Check every inequality objective(chi, P_j) <= Delta_{P_j} at constant c."""
    if coloring.dim != system.dim:
        raise DimMismatch(f"coloring dim {coloring.dim} vs system dim {system.dim}")
    values = _objective_values(coloring.array, system.stacked(), system.ranks().astype(float))
    thresholds = delta_thresholds(system, c)
    return DeltaEventRecord(values, thresholds, values <= thresholds)


def delta_event_count(system: ProjectionSystem, colorings, c: float) -> int:
    """How many colorings satisfy every inequality objective(chi, P_j) <=
    Delta_{P_j} at constant c. `colorings` is a (T, N, N) stack of coloring
    arrays or any iterable of N x N ones, read once and in order."""
    stacked = system.stacked()
    ranks = system.ranks().astype(float)
    thresholds = delta_thresholds(system, c)
    hits = 0
    for chi in colorings:
        if chi.shape != (system.dim, system.dim):
            raise DimMismatch(f"coloring of shape {chi.shape} vs system dim {system.dim}")
        hits += bool((_objective_values(chi, stacked, ranks) <= thresholds).all())
    return hits


def _objective_values(chi: np.ndarray, stacked: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """objective(chi, P_m) for every m. P_m chi is formed in the `batches` of
    4 * BATCH_ENTRIES entries; each matrix's values match the whole product's."""
    pairs = [trace_pair(stacked[rows] @ chi) for rows in batches(len(stacked), chi.size, 4 * BATCH_ENTRIES)]
    t1, t2 = np.concatenate(pairs, axis=-1)
    return np.sqrt(np.clip(t1 * t1 + ranks - t2, 0.0, None))


@dataclass(frozen=True)
class LipschitzRecord:
    """Slack (bound minus deviation) of the two Lipschitz inequalities."""

    trace_slack: float       # sqrt(N/2) ||chi1-chi2||_2 - | |tr chi1 P| - |tr chi2 P| |
    commutator_slack: float  # 2N ||chi1-chi2||_2 - |tr(P-(chi1 P)^2) - tr(P-(chi2 P)^2)|


def lipschitz_check(
    projection: OrthogonalProjection, chi1: QuantumColoring, chi2: QuantumColoring
) -> LipschitzRecord:
    """Verify both Lipschitz bounds for a rank-floor(N/2) projection."""
    n = projection.dim
    if projection.rank != n // 2:
        raise RankMismatch(f"projection rank {projection.rank} != floor({n}/2)")
    if chi1.dim != n or chi2.dim != n:
        raise DimMismatch("coloring dimensions do not match the projection")
    dist = schatten_norm(chi1.array - chi2.array, 2)
    (tr1, tr2), (sq1, sq2) = trace_pair(np.stack([chi1.array, chi2.array]) @ projection.array)
    lhs_trace = abs(abs(tr1) - abs(tr2))
    lhs_comm = abs(sq2 - sq1)  # the tr(P) parts cancel
    rec = LipschitzRecord(
        trace_slack=math.sqrt(n / 2.0) * dist - lhs_trace,
        commutator_slack=2.0 * n * dist - lhs_comm,
    )
    if rec.trace_slack < -_CONSISTENCY_TOL or rec.commutator_slack < -_CONSISTENCY_TOL:
        raise ValidationError(f"Lipschitz bound violated: {rec}")
    return rec


@dataclass(frozen=True)
class QdiscEstimate:
    """Best coloring found by the heuristic minimizer; an upper estimate."""

    value: float
    witness: QuantumColoring
    plus_count: int
    restarts_used: int
    converged: bool


def _root_max(squares: np.ndarray) -> np.ndarray:
    """max over the last axis of sqrt(clip(objective^2)), as sqrt is monotone."""
    return np.sqrt(np.maximum(squares.max(axis=-1), 0.0))


def _rotated(start: np.ndarray, stacked: np.ndarray) -> np.ndarray:
    """U* P_m U for every m. A start of rows (a permutation start, U = I[:, rows])
    gathers the rows and columns `rows` of the stack: each entry of the product
    is one P_ab times 1 plus exact zeros, so the gather is the product exactly.
    A unitary U (a Haar start) takes the dense product."""
    if start.ndim == 1:
        return stacked[:, start[:, None], start]
    return np.einsum("al,mab,bk->mlk", start.conj(), stacked, start, optimize=True)


def _plus_value(start: np.ndarray, k: int, stacked: np.ndarray, ranks: np.ndarray) -> float:
    """The max objective at U D_k U*, from the plus block of the start's
    first k columns (`rows[:k]`, or `U[:, :k]`)."""
    return float(_root_max(imbalance_terms(_rotated(start[..., :k], stacked), ranks)[1]))


def _angle_basis(theta: np.ndarray) -> np.ndarray:
    """Rows (1, sin^2 theta, sin 2 theta); times a plane's (3, M) terms they
    give objective^2 of every projection (columns) at every angle (rows)."""
    return np.stack((np.ones_like(theta), np.sin(theta) ** 2, np.sin(2.0 * theta)), axis=-1)


# The line search's angles k pi / 512; every 8th is a coarse-grid angle.
# objective^2 has period pi in theta, so a window around one may wrap:
# _WINDOWS[c] holds the 15 table rows from 7 before coarse angle c to 7 after.
_THETAS = np.linspace(0.0, math.pi, 8 * ANGLE_GRID, endpoint=False)
_TABLE = _angle_basis(_THETAS)
_WINDOW_ROWS = (8 * np.arange(ANGLE_GRID)[:, None] + np.arange(-7, 8)) % _THETAS.size
_WINDOWS = _TABLE[_WINDOW_ROWS]


class _PlaneSearch:
    """Jacobi-style state of one candidate: U, k and the rotated projections
    W_m = U* P_m U, from a start of rows (U = I[:, rows] in the stack's dtype)
    or a unitary (copied). Rotating the plane (i, j), i < k <= j, is a Givens
    update of two columns of U and two rows and columns of W; it carries t1 =
    tr of the plus block and v0 = objective^2, which `reread` reads off W."""

    def __init__(self, start: np.ndarray, k: int, stacked: np.ndarray, ranks: np.ndarray):
        self.u = np.eye(stacked.shape[-1], dtype=stacked.dtype)[:, start] if start.ndim == 1 else start.copy()
        self.k = k
        self.ranks = ranks
        self.w = _rotated(start, stacked)
        self.reread()

    def reread(self) -> None:
        """Read t1 and v0 off the plus block, O(M k^2); once per sweep bounds their rounding drift."""
        self.t1, self.v0 = imbalance_terms(self.w[:, : self.k, : self.k], self.ranks)
        self.row = None

    def plane_terms(self, i: int, j: int) -> np.ndarray:
        """(v0, Delta, h) of the plane (i, j): with alpha = W_ii, beta = W_jj,
        gamma = W_ij and off_a, off_b, off_ab the sums of |W_li|^2, |W_lj|^2 and
        Re(conj(W_li) W_lj) over the plus rows l != i, kappa = 8 (t1 - alpha) -
        4 r + 4, Delta = kappa (beta - alpha) - 8 (off_b - off_a) and
        h = kappa Re(gamma) - 8 off_ab. The terms of column i alone are kept
        for the next j until a rotation."""
        if self.row is None or self.row[0] != i:
            a = self.w[:, : self.k, i]
            a_conj, alpha = a.conj(), a[:, i].real
            off_a = np.einsum("ml,ml->m", a_conj, a).real - alpha**2
            self.row = i, a_conj, alpha, off_a, 8.0 * (self.t1 - alpha) - 4.0 * self.ranks + 4.0
        _, a_conj, alpha, off_a, kappa = self.row
        b = self.w[:, : self.k, j]
        beta, gamma = self.w[:, j, j].real, b[:, i]
        off_b = np.einsum("ml,ml->m", b.conj(), b).real - np.abs(gamma) ** 2
        off_ab = np.einsum("ml,ml->m", a_conj, b).real - alpha * gamma.real
        delta = kappa * (beta - alpha) - 8.0 * (off_b - off_a)
        return np.stack((self.v0, delta, kappa * gamma.real - 8.0 * off_ab))

    def rotate(self, i: int, j: int, theta: float, squares: np.ndarray) -> None:
        """Rotate the plane (i, j) by theta; `squares` is objective^2 at theta, as scored."""
        c, s = math.cos(theta), math.sin(theta)
        u, w = self.u, self.w
        u[:, i], u[:, j] = c * u[:, i] + s * u[:, j], -s * u[:, i] + c * u[:, j]
        w_i, w_j = w[:, :, i], w[:, :, j]
        alpha, beta, gamma = w_i[:, i].real, w_j[:, j].real, w_j[:, i]
        col_i, col_j = c * w_i + s * w_j, -s * w_i + c * w_j
        # the (i, j) block of G* W G, Hermitian with a real diagonal
        col_i[:, i] = c * c * alpha + s * s * beta + 2.0 * c * s * gamma.real
        col_j[:, j] = s * s * alpha + c * c * beta - 2.0 * c * s * gamma.real
        col_j[:, i] = c * s * (beta - alpha) + c * c * gamma - s * s * gamma.conj()
        col_i[:, j] = col_j[:, i].conj()
        self.t1 = self.t1 + (col_i[:, i].real - alpha)
        w[:, :, i], w[:, :, j] = col_i, col_j
        w[:, i, :], w[:, j, :] = col_i.conj(), col_j.conj()
        self.v0, self.row = squares, None


def _refine(
    value: float, start: np.ndarray, k: int, stacked: np.ndarray, ranks: np.ndarray,
    sweeps: int, plane_cap: int | None, rng: np.random.Generator,
) -> tuple[float, np.ndarray, bool]:
    """Greedy plane-rotation descent on the max objective from U D_k U*, of
    value `value`, for 0 < k < N, where U is the start's (rows or a unitary,
    as `_PlaneSearch` takes it). Returns the final value, the final U and
    whether the last sweep made no improvement."""
    planes = [(i, j) for i in range(k) for j in range(k, stacked.shape[-1])]
    state = _PlaneSearch(start, k, stacked, ranks)
    best, converged = value, False
    for _ in range(sweeps):
        state.reread()
        sweep_planes = planes
        if plane_cap is not None and len(planes) > plane_cap:
            idx = rng.choice(len(planes), size=plane_cap, replace=False)
            sweep_planes = [planes[t] for t in sorted(idx)]
        improved = False
        for i, j in sweep_planes:
            # the coarse argmin, then the argmin of the 15 table angles around it
            terms = state.plane_terms(i, j)
            coarse = int(_root_max(_TABLE[::8] @ terms).argmin())
            squares = _WINDOWS[coarse] @ terms
            vals = _root_max(squares)
            q = int(vals.argmin())
            if vals[q] < best - _IMPROVE_TOL:
                state.rotate(i, j, float(_THETAS[_WINDOW_ROWS[coarse, q]]), squares[q])
                best = float(vals[q])
                improved = True
        if not improved:
            converged = True
            break
    return best, state.u, converged


def _slice_floors(stacked: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """For k = 0..N, a lower bound on max_m objective^2 over every coloring
    with k plus eigenvalues, as objective^2 >= (tr chi P)^2. With
    Pi = (chi + I)/2 of rank k, tr chi P = 2 tr Pi P - r, and each floor is
    the larger of two squared distances from 0 to an interval of it:
    (a) per projection, tr Pi P_m lies in [max(0, k + r_m - N), min(k, r_m)];
    (b) on the average, max_m (tr chi P_m)^2 >= (tr chi S / M)^2 for
    S = sum_m P_m, and tr Pi S lies between the sums of the k smallest and the
    k largest eigenvalues of S (Ky Fan). (a) is exact; (b) carries the
    rounding of one eigvalsh."""
    def gap(lo, hi):  # the squared distance from 0 to [lo, hi]
        return np.maximum(np.maximum(lo, -hi), 0.0) ** 2

    n, m = stacked.shape[-1], len(stacked)
    k = np.arange(n + 1)
    low = np.concatenate(([0.0], np.cumsum(np.linalg.eigvalsh(stacked.sum(axis=0)))))  # sums of the k smallest
    each = gap(2.0 * np.maximum(0, k[:, None] + ranks - n) - ranks, 2.0 * np.minimum(k[:, None], ranks) - ranks)
    mean = gap((2.0 * low[k] - low[n]) / m, (low[n] - 2.0 * low[n - k]) / m)
    return np.maximum(each.max(axis=1), mean)


def _diagonal_sets(stacked: np.ndarray) -> list[tuple[int, ...]] | None:
    """If every projection is diagonal, recover the underlying subsets."""
    diag = np.diagonal(stacked, axis1=1, axis2=2)
    if np.count_nonzero(stacked) > np.count_nonzero(diag):
        return None
    rows, cols = np.nonzero(diag.real > 0.5)
    ends = np.cumsum(np.bincount(rows, minlength=len(diag))).tolist()
    members = (cols + 1).tolist()
    return [tuple(members[lo:hi]) for lo, hi in zip([0, *ends], ends)]


def _witness_start(stacked: np.ndarray, seed, cap: int) -> tuple[np.ndarray, int] | None:
    """For diagonally embedded set systems, the best deterministic +-1
    coloring is itself a quantum coloring; seed the search with it so the
    estimate never exceeds the combinatorial discrepancy. Returns the start
    rows (the + indices, then the - ones) and its plus count k: I[:, rows]
    D_k I[:, rows]* is the diagonal of the signs. The coloring is exact up to
    N = cap and from the restart heuristic above."""
    sets = _diagonal_sets(stacked)
    if sets is None:
        return None
    n = stacked.shape[-1]
    nonempty = [s for s in sets if s]
    if not nonempty:
        return np.arange(n), n
    sub = SetSystem(n, tuple(nonempty))
    if n <= cap:
        _, witness = disc_exact(sub, cap=cap)
    else:
        _, witness = disc_heuristic(sub, trials=32, seed=seed)
    return np.argsort(witness.signs < 0, kind="stable"), int(np.count_nonzero(witness.signs > 0))


def _start(rows: np.ndarray | None, child: np.random.SeedSequence, n: int) -> tuple[np.random.Generator, np.ndarray]:
    """A candidate's Generator and start, built afresh from its child: its
    rows, or for a Haar start (rows None) the unitary drawn first from the
    Generator, the same each time it is built."""
    rng = np.random.default_rng(child)
    return rng, randmat.haar_unitary(n, rng) if rows is None else rows


def qdisc_estimate(
    system: ProjectionSystem,
    restarts: int = 4,
    sweeps: int = 2,
    seed=0,
    plane_cap: int | None = None,
    refine_top: int | None = None,
    cap: int = DEFAULT_EXHAUSTIVE_CAP,
) -> QdiscEstimate:
    """Upper estimate of the quantum discrepancy of a projection system.

    Every +1 eigenvalue count k in 0..N is scanned. For each k the first
    restart starts from the sorted diagonal coloring and later restarts from
    Haar random conjugations; candidates are refined by plane-rotation
    sweeps. When refine_top is given, only the most promising candidates
    get sweeps (a beam restriction for large systems). A diagonally
    embedded set system also seeds one candidate with its combinatorial
    witness, found exactly when N <= cap. Deterministic for a fixed seed,
    and non-increasing in the number of restarts.

    Candidates are taken in order of start value, and one whose k has a
    floor (`_slice_floors`) above the best value so far is skipped: no
    coloring with k plus eigenvalues could replace the best, so the result
    is the one every candidate's search would give.

    A candidate is (value, k, rows, child): a permutation start (the identity
    or the witness order) is its rows, with U = I[:, rows], and a Haar start
    (rows None) is only its SeedSequence child. Each start is built from
    them when it is valued, refined or chosen unrefined, so no candidate
    holds a unitary. A real stack searched from rows keeps W and U real, so
    that search runs in float64; Haar starts and complex stacks run in
    complex128. A search of more than MAX_STARTS starts, (N + 1) x restarts,
    is refused before any child is spawned.
    """
    if restarts < 1:
        raise ValidationError("need restarts >= 1")
    for name, count, least in (("sweeps", sweeps, 0), ("plane_cap", plane_cap, 1), ("refine_top", refine_top, 1)):
        if count is not None and count < least:
            raise ValidationError(f"need {name} >= {least}, got {count}")
    n = system.dim
    if (n + 1) * restarts > MAX_STARTS:
        raise ValidationError(
            f"(N + 1) x restarts = {n + 1} x {restarts} starts exceeds the largest supported {MAX_STARTS}"
        )
    stacked = system.stacked()
    narrow = stacked if stacked.imag.any() else stacked.real  # a view: row starts gather W afresh
    ranks = system.ranks().astype(float)
    k_children = seed_sequence(seed).spawn(n + 2)

    starts = [
        (k, np.arange(n) if ridx == 0 else None, child)
        for k in range(n + 1) for ridx, child in enumerate(k_children[k].spawn(restarts))
    ]
    witness = _witness_start(stacked, k_children[n + 1], cap)
    if witness is not None:
        rows, k = witness
        starts.append((k, rows, k_children[n + 1].spawn(1)[0]))
    candidates = [
        (_plus_value(_start(rows, child, n)[1], k, stacked if rows is None else narrow, ranks), k, rows, child)
        for k, rows, child in starts
    ]

    candidates.sort(key=lambda candidate: candidate[0])  # stable: equal values keep their order
    floors = _slice_floors(narrow, ranks)
    best_value, best = math.inf, None
    for position, (value, k, rows, child) in enumerate(candidates):
        # every coloring with k plus eigenvalues scores at least sqrt(floors[k]);
        # past the best by more than the rounding, the candidate cannot replace it
        if floors[k] > (best_value + _IMPROVE_TOL) ** 2 * (1.0 + _FLOOR_TOL):
            continue
        u, converged = None, True
        if (refine_top is None or position < refine_top) and sweeps > 0 and 0 < k < n:  # k = 0 or N has no plane
            rng, start = _start(rows, child, n)
            search = stacked if rows is None else narrow
            value, u, converged = _refine(value, start, k, search, ranks, sweeps, plane_cap, rng)
        if value < best_value - _IMPROVE_TOL:
            best_value, best = value, (k, rows, child, u, converged)

    best_k, rows, child, u, converged = best
    if u is None:  # the winner was not refined: build its start again
        u = _start(rows, child, n)[1] if rows is None else np.eye(n)[:, rows]
    signs = np.where(np.arange(n) < best_k, 1.0, -1.0)
    chi = conjugate_diagonal(u.astype(np.complex128), signs)
    witness = QuantumColoring(make_hermitian(chi), plus_count=best_k)
    final_values = _objective_values(witness.array, stacked, ranks)
    return QdiscEstimate(
        value=float(final_values.max()),
        witness=witness,
        plus_count=best_k,
        restarts_used=restarts,
        converged=converged,
    )
