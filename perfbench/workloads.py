"""The benchmark's workloads: the qdlab command lines of one pass, made from
the workload seed, and the checks on each report they write.

Why each workload exists is recorded in README.md next to this file.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

GOLDEN_AP_DISC = json.loads((Path(__file__).parent / "golden_ap_disc.json").read_text())["disc"]
# Slack for float comparisons between numbers the program printed.
_TOL = 1e-9


@dataclass(frozen=True)
class Report:
    config: dict
    rows: list[dict]
    summary: dict


def read_report(path: Path) -> Report:
    """Parse a qdlab CSV report: '# config:' and '# summary:' JSON comment
    lines around a CSV table."""
    config = summary = None
    table = []
    for line in path.read_text().splitlines():
        if line.startswith("# config: "):
            config = json.loads(line[len("# config: "):])
        elif line.startswith("# summary: "):
            summary = json.loads(line[len("# summary: "):])
        elif not line.startswith("#"):
            table.append(line)
    if config is None or summary is None:
        raise ValueError(f"{path.name}: no config or summary line")
    return Report(config, list(csv.DictReader(table)), summary)


@dataclass(frozen=True)
class Experiment:
    """One qdlab command line (without --out) and the check of its report.
    `check` returns a list of problems; `qdisc_values` the qdisc estimates
    the report holds, if it is a qdisc experiment."""

    argv: tuple[str, ...]
    check: Callable[[Report], list[str]]
    qdisc_values: Callable[[Report], list[float]] | None = None


def _cli_seeds(workload: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{workload}:{seed}")
    return [rng.getrandbits(32) for _ in range(count)]


# --------------------------------------------------------------------------
# checks

def _kernel(summary: dict) -> np.ndarray:
    pairs = np.asarray(summary["kernel"], dtype=float)
    return pairs[..., 0] + 1j * pairs[..., 1]


def check_dpp_sample(report: Report, size_is_rank: bool = False) -> list[str]:
    """Draws are sorted duplicate-free subsets of [N]; the mean size is within
    5 standard errors of tr K (variance from the exact size law); with
    size_is_rank every size equals the rank of the projection kernel."""
    from qdlab.dpp import size_pmf, validate_kernel

    n, trials = int(report.config["n"]), int(report.config["trials"])
    problems = []
    if len(report.rows) != trials:
        problems.append(f"{len(report.rows)} draws for {trials} trials")
    sizes = []
    for row in report.rows:
        pts = [int(p) for p in row["points"].split()]
        if any(b <= a for a, b in zip(pts, pts[1:])) or (pts and not 1 <= pts[0] <= pts[-1] <= n):
            problems.append(f"trial {row['trial']}: {pts} is not a sorted duplicate-free subset of [{n}]")
        if int(row["size"]) != len(pts):
            problems.append(f"trial {row['trial']}: size {row['size']} for {len(pts)} points")
        sizes.append(len(pts))
    kernel = _kernel(report.summary)
    pmf = size_pmf(validate_kernel(kernel))
    ks = np.arange(pmf.size)
    var = max(float(ks**2 @ pmf - (ks @ pmf) ** 2), 0.0)
    trace = float(report.summary["kernel_trace"])
    mean = float(report.summary["mean_size"])
    if sizes and abs(mean - sum(sizes) / len(sizes)) > _TOL:
        problems.append(f"summary mean size {mean} disagrees with the rows")
    se = math.sqrt(var / trials)
    if abs(mean - trace) > 5.0 * se + _TOL:
        problems.append(f"mean size {mean} is {abs(mean - trace) / se if se else math.inf:.2f} SE from tr K = {trace}")
    if size_is_rank:
        rank = int(np.count_nonzero(np.linalg.eigvalsh(kernel) > 0.5))
        wrong = sum(s != rank for s in sizes)
        if wrong:
            problems.append(f"{wrong} draws differ in size from the kernel rank {rank}")
    return problems


def check_haar(report: Report) -> list[str]:
    return [] if report.summary["all_pass"] is True else [f"moment gates failed: max |z| {report.summary['max_abs_z']}"]


def check_qdisc(report: Report) -> list[str]:
    """The summary estimate is the largest per-projection objective, and at most N."""
    n, m = int(report.config["random_n"]), int(report.config["random_m"])
    est = float(report.summary["qdisc_estimate"])
    top = max(float(r["objective"]) for r in report.rows)
    problems = []
    if len(report.rows) != m:
        problems.append(f"{len(report.rows)} rows for {m} projections")
    if abs(est - top) > _TOL:
        problems.append(f"qdisc_estimate {est} is not the maximum row objective {top}")
    if est > n + _TOL:
        problems.append(f"qdisc_estimate {est} exceeds N = {n}")
    return problems


def check_compare(report: Report) -> list[str]:
    """Every system keeps qdisc_est <= disc, and disc matches the golden value."""
    problems = [] if report.summary["all_sandwich_ok"] is True else ["all_sandwich_ok is not true"]
    lo, hi = int(report.config["ap_min"]), int(report.config["ap_max"])
    if [r["system_id"] for r in report.rows] != [f"ap-{n}" for n in range(lo, hi + 1)]:
        problems.append("rows do not list AP(ap_min..ap_max) in order")
    for row in report.rows:
        disc, est = int(row["disc"]), float(row["qdisc_est"])
        if est > disc + _TOL:
            problems.append(f"{row['system_id']}: qdisc_est {est} > disc {disc}")
        golden = GOLDEN_AP_DISC.get(row["system_id"])
        if disc != golden:
            problems.append(f"{row['system_id']}: disc {disc}, golden value {golden}")
    return problems


# --------------------------------------------------------------------------
# workloads

def mc_small(seed: int) -> list[Experiment]:
    # 10000 draws over 16 random kernels: a draw's cost follows its kernel's
    # trace, and averaging 16 kernels keeps a pass steady across seeds. Haar
    # draws come in 4 runs so no single command spans much of a pass.
    seeds = _cli_seeds("mc-small", seed, 20)
    exps = [
        Experiment(("dpp", "sample", "--kind", "random", "--n", "8", "--trials", "625", "--seed", str(s)),
                   check_dpp_sample)
        for s in seeds[:16]
    ]
    exps += [
        Experiment(("haar", "--n-grid", "2", "3", "4", "5", "6", "7", "8", "--trials", "625", "--seed", str(s)),
                   check_haar)
        for s in seeds[16:]
    ]
    return exps


def dpp_large(seed: int) -> list[Experiment]:
    # 200 draws over 4 kernels; every draw does the same 64 downdates.
    return [
        Experiment(("dpp", "sample", "--kind", "projection", "--n", "128", "--trials", "50", "--seed", str(s)),
                   lambda r: check_dpp_sample(r, size_is_rank=True))
        for s in _cli_seeds("dpp-large", seed, 4)
    ]


def qdisc_search(seed: int) -> list[Experiment]:
    (s,) = _cli_seeds("qdisc-search", seed, 1)
    return [Experiment(("qdisc", "--random-n", "24", "--random-m", "96", "--restarts", "1", "--sweeps", "2",
                        "--seed", str(s)),
                       check_qdisc, lambda r: [float(r.summary["qdisc_estimate"])])]


def compare_ap(seed: int) -> list[Experiment]:
    # AP(13..19) are left out to keep a pass near 8 s. AP(20) alone spends
    # about 75% in disc_exact; the small systems bring qdisc back to about 30%.
    small, large = _cli_seeds("compare-ap", seed, 2)
    return [
        Experiment(("compare", "--ap-min", lo, "--ap-max", hi, "--random-count", "0", "--restarts", "1",
                    "--sweeps", "1", "--seed", str(s)),
                   check_compare, lambda r: [float(row["qdisc_est"]) for row in r.rows])
        for lo, hi, s in (("6", "12", small), ("20", "20", large))
    ]


@dataclass(frozen=True)
class Workload:
    experiments: Callable[[int], list[Experiment]]
    # Scale times to the SpeedProbe's reference speed. compare-ap spends its
    # time in disc_exact's large products, whose speed the probe does not
    # follow (their correlation was 0.1): over 5 seeds scaling widened its
    # wall_s spread (IQR/median) from 0.14 to 0.25, while it narrowed
    # dpp-large's from 0.32 to 0.05.
    reference_speed: bool = True


WORKLOADS: dict[str, Workload] = {
    "mc-small": Workload(mc_small),
    "dpp-large": Workload(dpp_large),
    "qdisc-search": Workload(qdisc_search),
    "compare-ap": Workload(compare_ap, reference_speed=False),
}
