"""Bernstein tails, the comparison between quantum and combinatorial
discrepancy, and the constants of the lower-bound argument."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .combdisc import DEFAULT_EXHAUSTIVE_CAP, disc_exact
from .errors import NonPositiveT, ValidationError
from .qdisc import QdiscEstimate, qdisc_estimate
from .setsys import SetSystem, to_projection_system

DEFAULT_C_GRID = tuple(np.geomspace(0.01, 100.0, 25))


def bernstein_tail(variances, bound_k: float, t: float) -> float:
    """Upper bound 2 exp(-min(t^2 / (4 sum E[X_i^2]), t / (2K))) on
    P[|sum X_i| >= t] for independent centered X_i with |X_i| <= K."""
    if t <= 0:
        raise NonPositiveT(f"need t > 0, got {t}")
    if bound_k <= 0:
        raise ValidationError(f"need K > 0, got {bound_k}")
    var = np.asarray(variances, dtype=float)
    if (var < 0).any():
        raise ValidationError("second moments must be non-negative")
    total = float(var.sum())
    quad = t * t / (4.0 * total) if total > 0 else math.inf
    return 2.0 * math.exp(-min(quad, t / (2.0 * bound_k)))


def comparison_factor(m: int, c: float, variant: str) -> float:
    """The multiplier relating disc to qdisc: 2c log(2M) + 1 for the 'log'
    variant, 2c sqrt(log(2M)) + 1 for 'sqrt-log'."""
    if m < 1:
        raise ValidationError(f"need M >= 1, got {m}")
    if c < 0:
        raise ValidationError(f"need c >= 0, got {c}")
    log2m = math.log(2 * m)
    if variant == "log":
        return 2.0 * c * log2m + 1.0
    if variant == "sqrt-log":
        return 2.0 * c * math.sqrt(log2m) + 1.0
    raise ValidationError(f"variant must be 'log' or 'sqrt-log', got {variant!r}")


@dataclass(frozen=True)
class ComparisonReport:
    """disc vs qdisc estimate for one set system, with the smallest feasible
    comparison constants on a grid."""

    ground_size: int
    num_sets: int
    disc: int
    qdisc_est: float
    min_feasible_c_log: float
    min_feasible_c_sqrt_log: float
    sandwich_ok: bool  # qdisc_est <= disc + 1e-9


def comparison_check(
    system: SetSystem,
    c_grid=DEFAULT_C_GRID,
    restarts: int = 4,
    sweeps: int = 2,
    seed=0,
    cap: int = DEFAULT_EXHAUSTIVE_CAP,
) -> ComparisonReport:
    """Compute disc_exact and a qdisc estimate for a set system, then find
    the smallest grid constant c making disc <= (2c log(2M) + 1) qdisc (and
    the sqrt-log analogue). Both take the exact witness up to N = cap."""
    disc, _ = disc_exact(system, cap=cap)
    estimate: QdiscEstimate = qdisc_estimate(
        to_projection_system(system), restarts=restarts, sweeps=sweeps, seed=seed, cap=cap
    )
    m = system.num_sets

    def smallest(variant: str) -> float:
        for c in c_grid:
            if disc <= comparison_factor(m, float(c), variant) * estimate.value + 1e-12:
                return float(c)
        return math.nan

    return ComparisonReport(
        ground_size=system.ground_size,
        num_sets=m,
        disc=disc,
        qdisc_est=estimate.value,
        min_feasible_c_log=smallest("log"),
        min_feasible_c_sqrt_log=smallest("sqrt-log"),
        sandwich_ok=estimate.value <= disc + 1e-9,
    )


@dataclass(frozen=True)
class LowerBoundConstants:
    """(epsilon, zeta) used by the lower-bound argument, with the positivity
    margin of the condition 1/5 - zeta^2 (1 + alpha) - 2 epsilon."""

    epsilon: float
    zeta: float
    margin: float


def lower_bound_constants(alpha: float) -> LowerBoundConstants:
    """epsilon = 1/20 and zeta = 1 / (2 sqrt(10 (1 + alpha))), valid whenever
    log M <= alpha N. Since zeta^2 (1 + alpha) = 1/40, the margin is
    1/5 - 1/40 - 1/10 = 3/40 for every alpha."""
    if not 0 < alpha < math.inf:
        raise ValidationError(f"need finite alpha > 0, got {alpha}")
    epsilon = 1.0 / 20.0
    zeta = 1.0 / (2.0 * math.sqrt(10.0 * (1.0 + alpha)))
    margin = 0.2 - zeta * zeta * (1.0 + alpha) - 2.0 * epsilon
    return LowerBoundConstants(epsilon, zeta, margin)
