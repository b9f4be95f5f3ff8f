import math
import tracemalloc

import numpy as np
import pytest

from qdlab import cli, qdisc, randmat
from qdlab import (
    Coloring,
    arithmetic_progressions,
    ProjectionSystem,
    SetSystem,
    as_coloring,
    as_projection,
    check_delta_event,
    delta_event_count,
    delta_p,
    delta_threshold,
    disc_exact,
    evaluate_coloring,
    haar_unitary,
    lipschitz_check,
    make_projection_from_vectors,
    objective,
    objective_vs_dpp,
    qdisc_estimate,
    random_projection,
    random_projection_system,
    random_quantum_coloring,
    random_set_system,
    to_projection_system,
    trivial_bound_check,
)
from qdlab.errors import DegenerateDim, DimMismatch, IndexOutOfRange, RankMismatch, ValidationError
from qdlab.matcore import conjugate_diagonal, trace_pair
from qdlab.qdisc import (
    ANGLE_GRID,
    _angle_basis,
    _objective_values,
    _PlaneSearch,
    _plus_value,
    _root_max,
    _rotated,
    _witness_start,
)

from conftest import random_unit_vector


def rank_one(rng, n):
    return make_projection_from_vectors(random_unit_vector(rng, n))


def as_unitary(start, stacked):
    """U of a search start: I[:, rows] in the stack's dtype for a start of rows, else the start."""
    return np.eye(stacked.shape[-1], dtype=stacked.dtype)[:, start] if start.ndim == 1 else start


class ReferenceState:
    """The former search state of one candidate: B = U_+* P U_+ per
    projection, and per plane a scorer f(theta) built from P_m u_j
    recomputed from the projection stack."""

    def __init__(self, u, k, stacked, ranks):
        self.u = u.copy()
        self.k = k
        self.stacked = stacked
        self.ranks = ranks
        uplus = self.u[:, :k]
        self.b = np.einsum("al,mab,bk->mlk", uplus.conj(), stacked, uplus, optimize=True)
        self.t1, self.t2 = trace_pair(self.b)

    def objective_max(self):
        return float(self.values(self.t1, self.t2).max())

    def values(self, t1, t2):
        return np.sqrt(np.clip((2.0 * t1 - self.ranks) ** 2 + 4.0 * (t1 - t2), 0.0, None))

    def plane_closure(self, i, j):
        u_i = self.u[:, i]
        u_j = self.u[:, j]
        uplus = self.u[:, : self.k]
        d = self.stacked @ u_j
        b_vec = d @ uplus.conj()
        a_vec = self.b[:, :, i]
        alpha = a_vec[:, i].real
        beta = (d @ u_j.conj()).real
        gamma = d @ u_i.conj()
        na2 = np.sum(np.abs(a_vec) ** 2, axis=1)
        nb2 = np.sum(np.abs(b_vec) ** 2, axis=1)
        reab = np.sum(a_vec.conj() * b_vec, axis=1).real
        regamma = gamma.real
        off_a = na2 - alpha**2
        off_b = nb2 - np.abs(gamma) ** 2
        off_ab = reab - alpha * regamma

        def f(theta):
            c = np.cos(theta)[:, None]
            s = np.sin(theta)[:, None]
            bii = c * c * alpha + s * s * beta + 2.0 * c * s * regamma
            t1 = self.t1 + bii - alpha
            s_off = c * c * off_a + s * s * off_b + 2.0 * c * s * off_ab
            t2 = self.t2 - (2.0 * off_a + alpha**2) + 2.0 * s_off + bii * bii
            return self.values(t1, t2).max(axis=1)

        def apply(theta):
            c, s = math.cos(theta), math.sin(theta)
            new_i = c * u_i + s * u_j
            new_j = -s * u_i + c * u_j
            self.u[:, i] = new_i
            self.u[:, j] = new_j
            col = c * a_vec + s * b_vec
            col[:, i] = c * c * alpha + s * s * beta + 2.0 * c * s * regamma
            self.b[:, :, i] = col
            self.b[:, i, :] = col.conj()
            self.b[:, i, i] = col[:, i].real
            self.t1, self.t2 = trace_pair(self.b)

        return f, apply


# The line search's angles k pi / 512, of which every 8th is the 64-angle
# coarse grid; a plane is scored on the coarse grid, then on the 15 angles
# from 7 rows before its first coarse argmin to 7 rows after, wrapped mod pi.
TABLE_THETAS = np.linspace(0.0, math.pi, 512, endpoint=False)


def window_thetas(coarse_values):
    return TABLE_THETAS[(8 * int(coarse_values.argmin()) + np.arange(-7, 8)) % 512]


def halving_search(terms):
    """The former line search on a plane's (3, M) terms, kept as an oracle:
    the first argmin over the 64-angle grid, then three halving rounds that
    probe theta +- step and move on a strict improvement."""
    thetas = np.linspace(0.0, math.pi, 64, endpoint=False)
    grid_vals = _root_max(_angle_basis(thetas) @ terms)
    pos = int(grid_vals.argmin())
    theta, val, step = float(thetas[pos]), float(grid_vals[pos]), math.pi / 64
    for _ in range(3):
        step *= 0.5
        probe = np.array([theta - step, theta + step])
        pv = _root_max(_angle_basis(probe) @ terms)
        q = int(pv.argmin())
        if pv[q] < val:
            val, theta = float(pv[q]), float(probe[q])
    return theta, val


def reference_refine(value, u, k, stacked, ranks, sweeps, plane_cap, rng, log):
    """The former greedy plane-rotation descent, with qdisc._refine's
    signature and line search; appends (k, i, j, theta) of every accepted
    rotation to log."""
    u = as_unitary(u, stacked)
    state = ReferenceState(u, k, stacked, ranks)
    best = state.objective_max()
    planes = [(i, j) for i in range(k) for j in range(k, u.shape[0])]
    if not planes:
        return best, state.u, True
    converged = False
    for _ in range(sweeps):
        sweep_planes = planes
        if plane_cap is not None and len(planes) > plane_cap:
            idx = rng.choice(len(planes), size=plane_cap, replace=False)
            sweep_planes = [planes[t] for t in sorted(idx)]
        improved = False
        for i, j in sweep_planes:
            f, apply = state.plane_closure(i, j)
            window = window_thetas(f(TABLE_THETAS[::8]))
            vals = f(window)
            q = int(vals.argmin())
            theta, val = float(window[q]), float(vals[q])
            if val < best - 1e-12:
                apply(theta)
                log.append((k, i, j, theta))
                best = state.objective_max()
                improved = True
        if not improved:
            converged = True
            break
    return best, state.u, converged


def logged_estimates(monkeypatch, system, **kwargs):
    """qdisc_estimate with the plane search and with reference_refine, each
    with the (k, i, j, theta) sequence of its accepted rotations."""
    new_log, ref_log = [], []
    rotate = _PlaneSearch.rotate

    def logged_rotate(self, i, j, theta, squares):
        new_log.append((self.k, i, j, theta))
        rotate(self, i, j, theta, squares)

    with monkeypatch.context() as patch:
        patch.setattr(_PlaneSearch, "rotate", logged_rotate)
        new = qdisc_estimate(system, **kwargs)
    with monkeypatch.context() as patch:
        patch.setattr(qdisc, "_refine", lambda *a: reference_refine(*a, ref_log))
        ref = qdisc_estimate(system, **kwargs)
    return (new, new_log), (ref, ref_log)


class TestObjective:
    def test_identity_coloring(self):
        p = random_projection(6, 0)
        chi = as_coloring(np.eye(6))
        val = objective(chi, p)
        assert val.value == pytest.approx(p.rank)
        assert val.trace_term == pytest.approx(p.rank**2)
        assert val.commutator_term == pytest.approx(0.0, abs=1e-10)

    def test_diagonal_equals_signed_sum(self):
        system = SetSystem(5, ((1, 3), (2, 3, 4), (5,)))
        signs = Coloring([1, -1, -1, 1, -1])
        chi = as_coloring(np.diag(signs.signs.astype(complex)))
        values = evaluate_coloring(system, signs)
        for proj, v in zip(to_projection_system(system).projections, values):
            assert objective(chi, proj).value == abs(v)  # exact, no tolerance

    def test_swap_coloring_hand_example(self):
        val = objective(as_coloring([[0.0, 1.0], [1.0, 0.0]]), as_projection(np.diag([1.0, 0.0])))
        assert val.trace_term == pytest.approx(0.0, abs=1e-12)
        assert val.commutator_term == pytest.approx(1.0)
        assert val.value == pytest.approx(1.0)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            objective(as_coloring(np.eye(2)), as_projection(np.eye(3)))

    def test_unitary_covariance(self):
        rng = np.random.default_rng(0)
        for seed in range(20):
            n = int(rng.integers(2, 7))
            chi = random_quantum_coloring(n, (1, seed))
            p = random_projection(n, (2, seed))
            u = haar_unitary(n, (3, seed))
            chi2 = as_coloring(u @ chi.array @ u.conj().T)
            p2 = as_projection(u @ p.array @ u.conj().T)
            assert objective(chi2, p2).value == pytest.approx(objective(chi, p).value, abs=1e-9)

    def test_rank_one_constancy(self):
        rng = np.random.default_rng(7)
        for seed in range(100):
            n = int(rng.integers(2, 9))
            chi = random_quantum_coloring(n, (4, seed))
            assert objective(chi, rank_one(rng, n)).value == pytest.approx(1.0, abs=1e-9)


class TestObjectiveVsDpp:
    def test_matches_imbalance_on_random_pairs(self):
        rng = np.random.default_rng(12)
        for seed in range(30):
            n = int(rng.integers(2, 7))
            chi = random_quantum_coloring(n, (5, seed))
            subset = [int(i) + 1 for i in np.flatnonzero(rng.random(n) < 0.6)]
            rec = objective_vs_dpp(chi, subset)
            assert abs(rec.difference) <= 1e-9

    def test_diagonal_coloring(self):
        chi = as_coloring(np.diag([1.0, -1.0, -1.0, 1.0]))
        rec = objective_vs_dpp(chi, [1, 2, 3])
        assert rec.imbalance == pytest.approx(1.0)  # chi(S) = -1
        assert rec.objective_sq == pytest.approx(1.0)

    def test_empty_subset(self):
        rec = objective_vs_dpp(random_quantum_coloring(3, 0), [])
        assert rec.imbalance == pytest.approx(0.0)
        assert rec.objective_sq == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("element", [0, 4])
    def test_element_outside_the_ground_set(self, element):
        with pytest.raises(IndexOutOfRange):
            objective_vs_dpp(random_quantum_coloring(3, 0), [element])


class TestTrivialBound:
    def test_identity_residual_small(self):
        for seed in range(50):
            chi = random_quantum_coloring(5, (6, seed))
            p = random_projection(5, (7, seed))
            rec = trivial_bound_check(chi, p)
            assert rec.residual <= 1e-9
            assert rec.within_bound

    def test_zero_projection(self):
        chi = random_quantum_coloring(3, 1)
        rec = trivial_bound_check(chi, as_projection(np.zeros((3, 3))))
        assert rec.direct == pytest.approx(0.0, abs=1e-12)
        assert rec.pairwise == pytest.approx(0.0, abs=1e-12)

    def test_objective_never_exceeds_dim(self):
        rng = np.random.default_rng(3)
        for seed in range(200):
            n = int(rng.integers(2, 9))
            chi = random_quantum_coloring(n, (8, seed))
            p = random_projection(n, (9, seed))
            assert objective(chi, p).value <= n + 1e-9


class TestQdiscEstimate:
    def test_rank_one_system_value_one(self):
        rng = np.random.default_rng(4)
        projs = tuple(rank_one(rng, 4) for _ in range(3))
        est = qdisc_estimate(ProjectionSystem(np.stack([p.array for p in projs])), restarts=2, sweeps=1, seed=0)
        assert est.value == pytest.approx(1.0, abs=1e-9)

    def test_identity_system_even_dim(self):
        est = qdisc_estimate(ProjectionSystem(np.stack([as_projection(np.eye(4)).array])), restarts=1, sweeps=0, seed=0)
        assert est.value == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("count", ["sweeps", "plane_cap", "refine_top"])
    def test_negative_count_refused(self, count):
        # no plane or no refined candidate is refused too; zero sweeps is legal
        least = 0 if count == "sweeps" else 1
        system = ProjectionSystem(np.stack([as_projection(np.eye(4)).array]))
        for value in range(-1, least):
            with pytest.raises(ValidationError, match=f"need {count} >= {least}, got {value}"):
                qdisc_estimate(system, restarts=1, seed=0, **{count: value})

    def test_never_exceeds_combinatorial_disc(self):
        for seed in range(10):
            system = random_set_system(7, 5, (10, seed))
            disc, _ = disc_exact(system)
            est = qdisc_estimate(to_projection_system(system), restarts=2, sweeps=1, seed=(11, seed))
            assert est.value <= disc + 1e-12

    def test_witness_attains_value(self):
        psys = random_projection_system(5, 3, 21)
        est = qdisc_estimate(psys, restarts=2, sweeps=2, seed=1)
        values = [objective(est.witness, p).value for p in psys.projections]
        assert max(values) == pytest.approx(est.value, abs=1e-9)
        assert est.value <= 5 + 1e-9

    def test_deterministic_and_monotone_in_restarts(self):
        psys = random_projection_system(4, 4, 5)
        a = qdisc_estimate(psys, restarts=2, sweeps=1, seed=3)
        b = qdisc_estimate(psys, restarts=2, sweeps=1, seed=3)
        c = qdisc_estimate(psys, restarts=5, sweeps=1, seed=3)
        assert a.value == b.value
        assert np.array_equal(a.witness.array, b.witness.array)
        assert c.value <= a.value + 1e-12

    def test_requires_restarts(self):
        with pytest.raises(ValidationError):
            qdisc_estimate(random_projection_system(3, 1, 0), restarts=0)

    def test_start_count_refused_before_any_child_is_spawned(self, monkeypatch):
        """(N + 1) x restarts above MAX_STARTS is refused; at the cap the
        search goes on to spawn its children. The spawn is replaced, so a
        missing check fails at once instead of holding a SeedSequence child
        per start."""
        class Spawned(Exception):
            pass

        def spawn_stand_in(seed):
            raise Spawned

        monkeypatch.setattr(qdisc, "seed_sequence", spawn_stand_in)
        system = random_projection_system(3, 1, 0)
        with pytest.raises(Spawned):
            qdisc_estimate(system, restarts=qdisc.MAX_STARTS // 4, seed=0)
        for restarts in (qdisc.MAX_STARTS // 4 + 1, qdisc.MAX_STARTS):
            with pytest.raises(ValidationError, match=f"4 x {restarts} starts exceeds the largest supported"):
                qdisc_estimate(system, restarts=restarts, seed=0)


class TestPlaneSearch:
    @staticmethod
    def rotated_squares(u, k, i, j, theta, stacked, ranks):
        """objective^2 of every projection (columns) at every angle (rows),
        from the explicitly rotated coloring U_theta D_k U_theta*."""
        c, s = np.cos(theta)[:, None], np.sin(theta)[:, None]
        rotated = np.repeat(u[None], theta.size, axis=0)
        rotated[:, :, i], rotated[:, :, j] = c * u[:, i] + s * u[:, j], -s * u[:, i] + c * u[:, j]
        chi = conjugate_diagonal(rotated, np.where(np.arange(u.shape[0]) < k, 1.0, -1.0))
        return _objective_values(chi[:, None], stacked, ranks) ** 2

    @pytest.mark.parametrize("n, m", [(2, 3), (3, 5), (8, 12), (24, 40)])
    def test_closed_form_matches_rotated_coloring(self, n, m):
        system = random_projection_system(n, m, (50, n))
        stacked, ranks = system.stacked(), system.ranks().astype(float)
        rng = np.random.default_rng((51, n))
        theta = np.concatenate([np.linspace(0.0, math.pi, ANGLE_GRID, endpoint=False), rng.uniform(-7, 7, 8)])
        for k in range(1, n):
            u = haar_unitary(n, (52, n, k))
            state = _PlaneSearch(u, k, stacked, ranks)
            planes = {(0, k), (k - 1, n - 1), (int(rng.integers(k)), int(rng.integers(k, n)))}
            for i, j in sorted(planes):
                direct = self.rotated_squares(u, k, i, j, theta, stacked, ranks)
                closed = _angle_basis(theta) @ state.plane_terms(i, j)
                assert np.abs(closed - direct).max() <= 1e-10 * max(1.0, np.abs(direct).max())

    def test_rotations_keep_w_exact_and_u_unitary(self):
        n, k = 10, 4
        system = random_projection_system(n, 12, 53)
        stacked, ranks = system.stacked(), system.ranks().astype(float)
        state = _PlaneSearch(haar_unitary(n, 54), k, stacked, ranks)
        rng = np.random.default_rng(55)
        for _ in range(50):
            i, j, theta = int(rng.integers(k)), int(rng.integers(k, n)), float(rng.uniform(-math.pi, math.pi))
            state.rotate(i, j, theta, (_angle_basis(np.array([theta])) @ state.plane_terms(i, j))[0])
        u = state.u
        assert np.abs(state.w - u.conj().T @ stacked @ u).max() <= 1e-12
        assert np.abs(u.conj().T @ u - np.eye(n)).max() <= 1e-12
        assert np.array_equal(state.w, state.w.conj().swapaxes(1, 2))  # Hermitian by construction
        # t1 and v0 are carried through the rotations, not re-read off W
        t1, t2 = trace_pair(state.w[:, :k, :k])
        assert np.abs(state.t1 - t1).max() <= 1e-12
        assert np.abs(state.v0 - ((2.0 * t1 - ranks) ** 2 + 4.0 * (t1 - t2))).max() <= 1e-12

    def test_carried_best_is_the_final_max_objective(self):
        n, k = 24, 12
        system = random_projection_system(n, 96, 56)
        stacked, ranks = system.stacked(), system.ranks().astype(float)
        u = haar_unitary(n, 57)
        start = _plus_value(u, k, stacked, ranks)
        best, u, _ = qdisc._refine(start, u, k, stacked, ranks, 8, None, np.random.default_rng(58))
        assert best < start
        assert abs(best - _plus_value(u, k, stacked, ranks)) <= 1e-12

    @pytest.mark.parametrize(
        "n, m, system_seed, kwargs",
        [
            (4, 5, 60, dict(restarts=3, sweeps=3, seed=61)),
            (8, 12, 62, dict(restarts=2, sweeps=2, seed=63)),
            (8, 12, 64, dict(restarts=2, sweeps=3, seed=65, plane_cap=5, refine_top=3)),
            (24, 96, 1, dict(restarts=1, sweeps=2, seed=1)),
            (24, 96, 2, dict(restarts=1, sweeps=2, seed=2)),
            (24, 96, 3, dict(restarts=1, sweeps=2, seed=3)),
        ],
    )
    def test_same_rotations_and_witness_as_reference(self, monkeypatch, n, m, system_seed, kwargs):
        system = random_projection_system(n, m, system_seed)
        (new, new_log), (ref, ref_log) = logged_estimates(monkeypatch, system, **kwargs)
        assert new_log and new_log == ref_log
        assert np.array_equal(new.witness.array, ref.witness.array)
        assert (new.value, new.plus_count, new.converged) == (ref.value, ref.plus_count, ref.converged)

    def test_coarse_rows_are_the_former_grid(self):
        grid = _angle_basis(np.linspace(0.0, math.pi, ANGLE_GRID, endpoint=False))
        assert np.array_equal(qdisc._TABLE[::8], grid)
        assert np.array_equal(qdisc._THETAS, TABLE_THETAS)

    @pytest.mark.parametrize(
        "system, kwargs",
        [
            (random_projection_system(8, 12, 70), dict(restarts=2, sweeps=3, seed=71)),
            (random_projection_system(24, 96, 72), dict(restarts=1, sweeps=2, seed=73, plane_cap=40, refine_top=2)),
        ]
        + [(to_projection_system(arithmetic_progressions(n)), dict(restarts=2, sweeps=1, seed=(74, n))) for n in range(6, 13)],
        ids=["random8", "random24"] + [f"ap{n}" for n in range(6, 13)],
    )
    def test_window_search_per_plane(self, monkeypatch, system, kwargs):
        """On every plane the search scores: its window is never worse than
        the former halving, its value is the direct objective of the rotated
        coloring, and an accepted rotation takes the window's argmin."""
        planes, accepted = [], []
        plane_terms, rotate = _PlaneSearch.plane_terms, _PlaneSearch.rotate

        def logged_terms(self, i, j):
            terms = plane_terms(self, i, j)
            planes.append((self.u.copy(), self.k, i, j, terms))
            return terms

        def logged_rotate(self, i, j, theta, squares):
            accepted.append((len(planes) - 1, theta))
            rotate(self, i, j, theta, squares)

        monkeypatch.setattr(_PlaneSearch, "plane_terms", logged_terms)
        monkeypatch.setattr(_PlaneSearch, "rotate", logged_rotate)
        qdisc_estimate(system, **kwargs)
        stacked, ranks = system.stacked(), system.ranks().astype(float)
        chosen = []
        for u, k, i, j, terms in planes:
            window = window_thetas(_root_max(_angle_basis(TABLE_THETAS[::8]) @ terms))
            vals = _root_max(_angle_basis(window) @ terms)
            assert vals.min() <= halving_search(terms)[1] + 1e-12
            direct = _root_max(self.rotated_squares(u, k, i, j, window, stacked, ranks))
            assert abs(direct.min() - vals.min()) <= 1e-10
            chosen.append(float(window[vals.argmin()]))
        assert planes and accepted
        assert all(theta == chosen[pos] for pos, theta in accepted)

    @pytest.mark.parametrize("n", range(6, 13))
    def test_arithmetic_progressions_stay_below_disc(self, n):
        system = arithmetic_progressions(n)
        disc, _ = disc_exact(system)
        runs = [qdisc_estimate(to_projection_system(system), restarts=2, sweeps=1, seed=(66, n)) for _ in range(2)]
        assert runs[0].value <= disc
        assert runs[0].value == runs[1].value
        assert np.array_equal(runs[0].witness.array, runs[1].witness.array)


def rotated_cases():
    """(id, projection system, +-1 signs): the AP systems with their disc_exact
    witness, the random ones with random signs."""
    cases = []
    for n in (*range(6, 13), 20):
        system = arithmetic_progressions(n)
        cases.append((f"ap{n}", to_projection_system(system), disc_exact(system)[1].signs.astype(float)))
    for n, m in ((8, 12), (24, 96)):
        signs = np.random.default_rng((80, n)).choice([-1.0, 1.0], size=n)
        cases.append((f"random{n}x{m}", random_projection_system(n, m, (81, n)), signs))
    return cases


ROTATED_CASES = rotated_cases()


def dense_rotated(u, stacked):
    return np.einsum("al,mab,bk->mlk", u.conj(), stacked, u, optimize=True)


class TestRotatedStack:
    """U* P_m U is a gather for a start of rows, U = I[:, rows], and the dense
    product for a unitary."""

    @pytest.mark.parametrize("system, signs", [c[1:] for c in ROTATED_CASES], ids=[c[0] for c in ROTATED_CASES])
    def test_gather_equals_dense_product_on_selections(self, system, signs):
        n, stacked = system.dim, system.stacked()
        rng = np.random.default_rng((82, n))
        eye = np.eye(n, dtype=np.complex128)
        starts = [np.arange(n), np.argsort(signs < 0, kind="stable")] + [rng.permutation(n) for _ in range(2)]
        for rows in starts:
            for k in range(n + 1):
                assert np.array_equal(_rotated(rows[:k], stacked), dense_rotated(eye[:, rows[:k]], stacked))

    @pytest.mark.parametrize("system, signs", [c[1:] for c in ROTATED_CASES], ids=[c[0] for c in ROTATED_CASES])
    def test_other_matrices_take_the_dense_product(self, system, signs):
        n, stacked = system.dim, system.stacked()
        perm = np.eye(n, dtype=np.complex128)[:, np.random.default_rng((83, n)).permutation(n)]
        others = [haar_unitary(n, (84, n)), perm.copy()]
        for entry in (-1.0, 1j, 1.0 - 2.0**-52):
            u = perm.copy()
            u[np.flatnonzero(u[:, n // 2]), n // 2] = entry
            others.append(u)
        for u in others:
            assert np.array_equal(_rotated(u, stacked), dense_rotated(u, stacked))

    @pytest.mark.parametrize(
        "system, kwargs",
        [(to_projection_system(arithmetic_progressions(n)), dict(restarts=1, sweeps=1, seed=(85, n))) for n in (*range(6, 13), 20)]
        + [
            (random_projection_system(24, 96, 86), dict(restarts=1, sweeps=2, seed=87)),
            (to_projection_system(arithmetic_progressions(9)), dict(restarts=3, sweeps=1, seed=88)),
        ],
        ids=[f"ap{n}" for n in (*range(6, 13), 20)] + ["random24x96", "ap9-restarts3"],
    )
    def test_same_estimate_without_the_gather(self, monkeypatch, system, kwargs):
        est = qdisc_estimate(system, **kwargs)
        rotated = qdisc._rotated
        monkeypatch.setattr(qdisc, "_rotated", lambda start, stacked: rotated(as_unitary(start, stacked), stacked))
        dense = qdisc_estimate(system, **kwargs)
        assert (est.value, est.plus_count, est.converged) == (dense.value, dense.plus_count, dense.converged)
        assert np.array_equal(est.witness.array, dense.witness.array)

    def test_permutation_starts_never_form_the_dense_product(self, monkeypatch):
        """At restarts=1 every start is the identity or the disc_exact witness."""
        rotated = qdisc._rotated

        def rows_only(start, stacked):
            assert start.ndim == 1, "a permutation start reached the dense product"
            return rotated(start, stacked)

        monkeypatch.setattr(qdisc, "_rotated", rows_only)
        est = qdisc_estimate(to_projection_system(arithmetic_progressions(20)), restarts=1, sweeps=1, seed=89)
        assert est.value <= disc_exact(arithmetic_progressions(20))[0]


WITNESS_SYSTEMS = (
    [(f"ap{n}", arithmetic_progressions(n)) for n in range(3, 13)]
    + [(f"random{i}", random_set_system(10, 20, (109, i))) for i in range(10)]
    + [("some-empty", SetSystem(7, ((), (1, 2, 5), (3, 4, 6, 7), (), (2, 3, 7))))]
    + [("all-empty", SetSystem(5, ((), ())))]
)


@pytest.mark.parametrize("name, system", WITNESS_SYSTEMS, ids=[name for name, _ in WITNESS_SYSTEMS])
def test_witness_start_colors_as_the_disc_exact_witness(name, system):
    """I[:, rows] D_k I[:, rows]* is the diagonal coloring of disc_exact's
    witness, with k its plus count; with no set at all it is the identity."""
    n = system.ground_size
    rows, k = _witness_start(to_projection_system(system).stacked(), 0, cap=24)
    signs = np.ones(n) if name == "all-empty" else disc_exact(system)[1].signs.astype(float)
    chi = conjugate_diagonal(np.eye(n)[:, rows], np.where(np.arange(n) < k, 1.0, -1.0))
    assert np.array_equal(chi, np.diag(signs))
    assert k == np.count_nonzero(signs > 0)


FLOAT_CONFIGS = [dict(restarts=1, sweeps=1), dict(restarts=2, sweeps=2), dict(restarts=1, sweeps=6)]
SET_SYSTEMS = [(f"ap{n}", arithmetic_progressions(n)) for n in range(3, 21)] + [
    (f"random{i}", random_set_system(10, 20, (90, i))) for i in range(10)
]


def searched_dtypes(monkeypatch, run):
    """(N, k, U dtype, W dtype) of every _PlaneSearch that run() builds."""
    seen = []
    init = _PlaneSearch.__init__

    def spy(self, start, k, stacked, ranks):
        init(self, start, k, stacked, ranks)
        seen.append((self.u.shape[0], k, self.u.dtype, self.w.dtype))

    with monkeypatch.context() as patch:
        patch.setattr(_PlaneSearch, "__init__", spy)
        run()
    return seen


class TestFloatSearch:
    """A real stack searched from a real start runs in float64."""

    @pytest.mark.parametrize("config", FLOAT_CONFIGS, ids=["r1s1", "r2s2", "r1s6"])
    def test_same_estimate_as_the_complex_search(self, monkeypatch, config):
        refine = qdisc._refine

        def complex_refine(value, start, k, stacked, *rest):
            u = as_unitary(start, stacked).astype(np.complex128)
            return refine(value, u, k, stacked.astype(np.complex128), *rest)

        differ = []
        for i, (name, system) in enumerate(SET_SYSTEMS):
            psys, kwargs = to_projection_system(system), dict(config, seed=(91, i))
            est = qdisc_estimate(psys, **kwargs)
            with monkeypatch.context() as patch:
                patch.setattr(qdisc, "_refine", complex_refine)
                wide = qdisc_estimate(psys, **kwargs)
            if (est.value, est.plus_count, est.converged) != (wide.value, wide.plus_count, wide.converged) or (
                not np.array_equal(est.witness.array, wide.witness.array)
            ):
                differ.append(f"{name}: float64 {est.value!r} k={est.plus_count} converged={est.converged}, "
                              f"complex128 {wide.value!r} k={wide.plus_count} converged={wide.converged}")
        assert not differ, "\n".join(differ)

    def test_complex_systems_never_search_in_float(self, monkeypatch):
        system = random_projection_system(8, 12, 92)
        seen = searched_dtypes(monkeypatch, lambda: qdisc_estimate(system, restarts=2, sweeps=1, seed=93))
        assert seen and all(w == np.complex128 for _, _, _, w in seen)

    def test_haar_restarts_stay_complex_on_set_systems(self, monkeypatch):
        n = 9
        system = to_projection_system(arithmetic_progressions(n))
        est = qdisc_estimate(system, restarts=2, sweeps=1, seed=94)
        seen = searched_dtypes(monkeypatch, lambda: qdisc_estimate(system, restarts=2, sweeps=1, seed=94))
        # every k in 1..N-1 whose floor is within the estimate is searched: once from a Haar start
        # (complex) and at least once from the identity (float); the full set [N] prunes the rest
        floors = qdisc._slice_floors(system.stacked().real, system.ranks().astype(float))
        kept = [k for k in range(1, n) if floors[k] <= est.value**2]
        assert kept == [4, 5]
        haar = sorted(k for _, k, u, w in seen if (u, w) == (np.complex128, np.complex128))
        assert haar == kept
        real = [k for _, k, u, w in seen if (u, w) == (np.float64, np.float64)]
        assert len(haar) + len(real) == len(seen) and set(real) >= set(kept)

    def test_every_compare_ap_system_searches_in_float(self, monkeypatch, tmp_path):
        def compare_ap():
            for lo, hi in (("6", "12"), ("20", "20")):
                argv = ["compare", "--ap-min", lo, "--ap-max", hi, "--random-count", "0", "--restarts", "1",
                        "--sweeps", "1", "--seed", "95", "--out", str(tmp_path / "r.csv")]
                assert cli.main(argv) == 0

        seen = searched_dtypes(monkeypatch, compare_ap)
        assert {n for n, _, _, _ in seen} == {*range(6, 13), 20}
        assert all(u == w == np.float64 for _, _, u, w in seen)

    def test_identity_starts_are_built_when_refined(self):
        # one dense N x N complex start per k would hold (N + 1) N^2 16 B = 33.8 MB
        system = random_projection_system(128, 1, 5)
        tracemalloc.start()
        try:
            qdisc_estimate(system, restarts=1, sweeps=0, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    def test_haar_starts_are_built_when_needed(self):
        # holding the (N + 1)(restarts - 1) = 2015 Haar starts of N = 64 would take 126 MiB;
        # the estimate is the one a search that holds them gives
        system = random_projection_system(64, 8, 5)
        tracemalloc.start()
        try:
            est = qdisc_estimate(system, restarts=32, sweeps=1, refine_top=4, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert (est.value, est.plus_count, est.converged) == (3.831129849388721, 32, False)

    def test_an_unrefined_haar_winner_is_its_start(self, monkeypatch):
        """Without sweeps the best start wins as it is: a Haar start, drawn
        again for the witness, which attains the start's value."""
        starts = []
        plus_value = qdisc._plus_value

        def spy(start, k, stacked, ranks):
            starts.append((plus_value(start, k, stacked, ranks), start.ndim))
            return starts[-1][0]

        monkeypatch.setattr(qdisc, "_plus_value", spy)
        est = qdisc_estimate(random_projection_system(8, 12, 110), restarts=3, sweeps=0, seed=111)
        value, ndim = min(starts)
        assert ndim == 2 and abs(est.value - value) <= 1e-12


def unpruned(monkeypatch, run):
    """run() with every slice floor at 0, so that no candidate is skipped."""
    with monkeypatch.context() as patch:
        patch.setattr(qdisc, "_slice_floors", lambda stacked, ranks: np.zeros(stacked.shape[-1] + 1))
        return run()


def test_refine_top_refines_the_best_starts(monkeypatch):
    """With no candidate skipped, the refine_top lowest start values are
    refined, in order of value, and no other start is."""
    starts, refined = [], []
    plus_value, refine = qdisc._plus_value, qdisc._refine

    def value_spy(start, k, stacked, ranks):
        starts.append(plus_value(start, k, stacked, ranks))
        return starts[-1]

    def refine_spy(value, *rest):
        refined.append(value)
        return refine(value, *rest)

    monkeypatch.setattr(qdisc, "_plus_value", value_spy)
    monkeypatch.setattr(qdisc, "_refine", refine_spy)
    system = random_projection_system(8, 12, 112)
    unpruned(monkeypatch, lambda: qdisc_estimate(system, restarts=3, sweeps=1, refine_top=3, seed=113))
    assert refined == sorted(starts)[:3]


def estimate_key(est):
    return est.value, est.plus_count, est.converged, est.witness.array.tobytes()


def max_objective_sq(system, chi):
    """max_m objective^2 of every coloring in a (T, N, N) stack."""
    t1, t2 = trace_pair(system.stacked()[None] @ chi[:, None])
    return (t1 * t1 + system.ranks() - t2).max(axis=1)


PROJECTION_SYSTEMS = [(f"projection{i}", random_projection_system(12, 48, (96, i))) for i in range(10)]


class TestSliceFloors:
    """Every coloring with k plus eigenvalues scores at least sqrt(floor_k),
    so the candidates the floors skip could never have replaced the best."""

    @pytest.mark.parametrize("config", FLOAT_CONFIGS, ids=["r1s1", "r2s2", "r1s6"])
    def test_skipping_keeps_every_estimate(self, monkeypatch, config):
        systems = [(name, to_projection_system(system)) for name, system in SET_SYSTEMS] + PROJECTION_SYSTEMS
        differ = []
        for i, (name, system) in enumerate(systems):
            kwargs = dict(config, seed=(97, i))
            est = qdisc_estimate(system, **kwargs)
            full = unpruned(monkeypatch, lambda: qdisc_estimate(system, **kwargs))
            if estimate_key(est) != estimate_key(full):
                differ.append(f"{name}: pruned {est.value!r} k={est.plus_count}, full {full.value!r} k={full.plus_count}")
        assert not differ, "\n".join(differ)

    def test_skipping_keeps_a_beam_estimate(self, monkeypatch):
        system = random_projection_system(16, 64, 98)
        kwargs = dict(restarts=4, sweeps=2, refine_top=8, plane_cap=40, seed=99)
        est = qdisc_estimate(system, **kwargs)
        assert estimate_key(est) == estimate_key(unpruned(monkeypatch, lambda: qdisc_estimate(system, **kwargs)))

    @pytest.mark.parametrize("system, kwargs", [
        (to_projection_system(arithmetic_progressions(20)), dict(restarts=1, sweeps=1, seed=100)),
        (random_projection_system(24, 96, 101), dict(restarts=1, sweeps=2, seed=102)),  # qdisc-search
    ], ids=["ap20", "qdisc-search"])
    def test_candidates_are_skipped(self, monkeypatch, system, kwargs):
        pruned = searched_dtypes(monkeypatch, lambda: qdisc_estimate(system, **kwargs))
        full = unpruned(monkeypatch, lambda: searched_dtypes(monkeypatch, lambda: qdisc_estimate(system, **kwargs)))
        assert 0 < len(pruned) < len(full)

    @pytest.mark.parametrize("system", [
        random_projection_system(6, 5, 103),
        random_projection_system(8, 3, 104),
        to_projection_system(random_set_system(7, 6, 105)),
        to_projection_system(arithmetic_progressions(6)),
    ], ids=["projection6", "projection8", "sets7", "ap6"])
    def test_weak_duality_at_haar_colorings(self, system):
        n = system.dim
        floors = qdisc._slice_floors(system.stacked(), system.ranks().astype(float))
        u = randmat.haar_batch(np.random.default_rng(106), 200, n)
        for k in range(n + 1):
            chi = conjugate_diagonal(u, np.where(np.arange(n) < k, 1.0, -1.0))
            assert max_objective_sq(system, chi).min() >= floors[k] - 1e-12, k

    def test_the_full_set_bounds_every_slice(self):
        n = 7
        system = to_projection_system(SetSystem(n, ((1, 3), tuple(range(1, n + 1)), (2,))))
        floors = qdisc._slice_floors(system.stacked().real, system.ranks().astype(float))
        assert (floors >= (2 * np.arange(n + 1) - n) ** 2).all()

    def test_one_rank_one_projection_prunes_no_inner_slice(self):
        n = 6
        system = ProjectionSystem(np.stack([rank_one(np.random.default_rng(107), n).array]))
        floors = qdisc._slice_floors(system.stacked(), system.ranks().astype(float))
        assert (floors[1:n] == 0).all() and min(floors[0], floors[n]) >= 1  # chi = -I or I

    @pytest.mark.parametrize("name, system", [
        *[(name, to_projection_system(system)) for name, system in SET_SYSTEMS[::4]], *PROJECTION_SYSTEMS[:3],
    ])
    def test_the_estimate_is_above_its_own_floor(self, name, system):
        est = qdisc_estimate(system, restarts=1, sweeps=1, seed=108)
        floors = qdisc._slice_floors(system.stacked(), system.ranks().astype(float))
        assert floors[est.plus_count] <= est.value**2


def test_diagonal_sets_match_the_per_row_reading():
    systems = [system for _, system in SET_SYSTEMS] + [SetSystem(5, ((), (2, 5), ()))]
    for stacked in (to_projection_system(system).stacked() for system in systems):
        rows = np.diagonal(stacked, axis1=1, axis2=2).real
        reference = [tuple(int(i + 1) for i in np.flatnonzero(row > 0.5)) for row in rows]
        assert qdisc._diagonal_sets(stacked) == qdisc._diagonal_sets(stacked.real) == reference
    assert qdisc._diagonal_sets(random_projection_system(4, 3, 109).stacked()) is None


class TestDeltaThreshold:
    def test_hand_value(self):
        # sqrt(2) [sqrt(log 8 + 4/3 - 2/3) + 1/2] ~= 3.0507
        expected = math.sqrt(2.0) * (math.sqrt(math.log(8.0) + 4.0 / 3.0 - 2.0 / 3.0) + 0.5)
        assert delta_threshold(2, 1, 1, 1.0) == pytest.approx(expected, abs=1e-12)
        assert delta_threshold(2, 1, 1, 1.0) == pytest.approx(3.0507, abs=1e-4)

    def test_rank_zero(self):
        for m, c in ((1, 1.0), (16, 0.5)):
            assert delta_threshold(4, 0, m, c) == pytest.approx(
                math.sqrt(2.0) * math.sqrt(math.log(8 * m) / c)
            )

    def test_full_rank_monotone_in_m(self):
        vals = [delta_threshold(6, 6, m, 1.0) for m in (1, 2, 8, 64, 1024)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_degenerate_dim(self):
        with pytest.raises(DegenerateDim):
            delta_threshold(1, 0, 1, 1.0)

    @pytest.mark.parametrize(("r", "m", "c"), [
        (2, 0, 1.0), (2, 4, 0.0), (2, 4, -1.0), (2, 4, math.nan), (2, 4, math.inf), (5, 4, 1.0), ([1, -1], 4, 1.0),
    ])
    def test_out_of_domain(self, r, m, c):
        with pytest.raises(ValidationError):
            delta_threshold(4, r, m, c)

    @pytest.mark.parametrize("n", [2, 3, 7, 16, 32])
    def test_system_thresholds_equal_the_scalar_formula(self, n):
        """delta_thresholds of a system is, bit for bit, the threshold taken
        one projection at a time in Python int and math arithmetic."""

        def scalar(r, m, c):
            inner = math.log(8 * m) / c + (n * n * r - n * r * r) / (n * n - 1)
            return math.sqrt(2.0) * (math.sqrt(inner) + r / n)

        for m in (1, 5, 1024):
            for system in (random_projection_system(n, min(m, 8), (31, n, m)),
                           to_projection_system(random_set_system(n, m, (32, n, m)))):
                ranks = [int(r) for r in system.ranks()]
                for c in (0.01, 0.37, 1.0, 55.0):
                    want = [scalar(r, system.num_projections, c) for r in ranks]
                    assert qdisc.delta_thresholds(system, c).tolist() == want

    def test_delta_p_wraps_projection(self):
        p = random_projection(6, 2)
        assert delta_p(p, 4, 2.0) == delta_threshold(6, 3, 4, 2.0)


class TestDeltaEvent:
    def test_rank_one_always_satisfied_for_small_c(self):
        rng = np.random.default_rng(9)
        system = ProjectionSystem(np.stack([rank_one(rng, 2).array]))
        for seed in range(10):
            chi = random_quantum_coloring(2, (12, seed))
            rec = check_delta_event(system, chi, c=1.0)
            assert rec.all_satisfied

    def test_record_length_and_determinism(self):
        system = random_projection_system(4, 5, 30)
        chi = random_quantum_coloring(4, 31)
        rec1 = check_delta_event(system, chi, c=2.0)
        rec2 = check_delta_event(system, chi, c=2.0)
        assert len(rec1.satisfied) == 5
        assert np.array_equal(rec1.values, rec2.values)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            check_delta_event(random_projection_system(4, 2, 0), random_quantum_coloring(6, 0), 1.0)

    def test_count_matches_per_coloring_checks(self):
        # every third coloring is +-I, whose objective r = 3 exceeds Delta_P once c is large
        system = random_projection_system(6, 8, 40)
        colorings = [
            random_quantum_coloring(6, (41, t)) if t % 3 else as_coloring((-1) ** t * np.eye(6))
            for t in range(30)
        ]
        stack = np.stack([chi.array for chi in colorings])
        for c, hits in ((0.05, 30), (1e4, 20)):
            assert sum(check_delta_event(system, chi, c).all_satisfied for chi in colorings) == hits
            assert delta_event_count(system, stack, c) == hits
            assert delta_event_count(system, iter(stack), c) == hits

    def test_count_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            delta_event_count(random_projection_system(4, 2, 0), np.zeros((3, 6, 6)), 1.0)


class TestLipschitz:
    def test_equal_colorings(self):
        p = random_projection(6, 3)
        chi = random_quantum_coloring(6, 4)
        rec = lipschitz_check(p, chi, chi)
        assert rec.trace_slack >= 0.0
        assert rec.commutator_slack >= 0.0

    def test_negated_coloring(self):
        p = random_projection(4, 5)
        chi = random_quantum_coloring(4, 6)
        neg = as_coloring(-chi.array)
        rec = lipschitz_check(p, chi, neg)
        # |tr(chi P)| = |tr(-chi P)| so the trace deviation is zero
        assert rec.trace_slack == pytest.approx(math.sqrt(2.0) * 2 * np.linalg.norm(chi.array))

    def test_random_triples(self):
        for seed in range(100):
            n = 4 + 4 * (seed % 3)
            p = random_projection(n, (13, seed))
            chi1 = random_quantum_coloring(n, (14, seed))
            chi2 = random_quantum_coloring(n, (15, seed))
            rec = lipschitz_check(p, chi1, chi2)
            assert rec.trace_slack >= -1e-9
            assert rec.commutator_slack >= -1e-9

    def test_rank_mismatch(self):
        full = as_projection(np.eye(4))
        with pytest.raises(RankMismatch):
            lipschitz_check(full, random_quantum_coloring(4, 0), random_quantum_coloring(4, 1))


class TestObjectiveValueInvariants:
    def test_negative_term_rejected(self):
        from qdlab import ObjectiveValue

        with pytest.raises(ValidationError):
            ObjectiveValue(trace_term=-1.0, commutator_term=0.0, value=0.0)

    def test_value_consistency_checked(self):
        from qdlab import ObjectiveValue

        with pytest.raises(ValidationError):
            ObjectiveValue(trace_term=1.0, commutator_term=0.0, value=2.0)
