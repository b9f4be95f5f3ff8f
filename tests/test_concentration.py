import math

import numpy as np
import pytest

from qdlab import (
    SetSystem,
    arithmetic_progressions,
    bernstein_tail,
    comparison_check,
    comparison_factor,
    lower_bound_constants,
    size_pmf,
    validate_kernel,
)
from qdlab.errors import NonPositiveT, ValidationError


class TestBernsteinTail:
    def test_single_fair_coin(self):
        # centered Ber(1/2): variance 1/4, K = 1, t = 1
        assert bernstein_tail([0.25], 1.0, 1.0) == pytest.approx(2.0 * math.exp(-0.5))
        assert bernstein_tail([0.25], 1.0, 1.0) == pytest.approx(1.2130613194252668)

    def test_monotone_decreasing_to_zero(self):
        vals = [bernstein_tail([1.0, 2.0], 1.0, t) for t in (0.5, 1, 2, 5, 20, 100)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-9

    def test_rejects_bad_inputs(self):
        with pytest.raises(NonPositiveT):
            bernstein_tail([1.0], 1.0, 0.0)
        with pytest.raises(ValidationError):
            bernstein_tail([1.0], 0.0, 1.0)
        with pytest.raises(ValidationError):
            bernstein_tail([-1.0], 1.0, 1.0)

    def test_zero_variance(self):
        assert bernstein_tail([0.0], 1.0, 1.0) == pytest.approx(2.0 * math.exp(-0.5))

    @pytest.mark.parametrize("seed", range(10))
    def test_bounds_exact_poisson_binomial_tails(self, seed):
        rng = np.random.default_rng((44, seed))
        n = int(rng.integers(2, 10))
        probs = rng.random(n)
        kernel = validate_kernel(np.diag(probs))
        pmf = size_pmf(kernel)
        mean = probs.sum()
        variances = probs * (1.0 - probs)
        sizes = np.arange(n + 1)
        for t in np.linspace(0.25, n, 20):
            exact_tail = pmf[np.abs(sizes - mean) >= t].sum()
            assert exact_tail <= bernstein_tail(variances, 1.0, float(t)) + 1e-12


class TestComparisonFactor:
    def test_hand_value(self):
        assert comparison_factor(1, 1.0, "log") == pytest.approx(2.0 * math.log(2.0) + 1.0)
        assert comparison_factor(1, 1.0, "log") == pytest.approx(2.386294361119891)

    def test_small_c_limit(self):
        assert comparison_factor(10, 0.0, "log") == pytest.approx(1.0)
        assert comparison_factor(10, 1e-12, "sqrt-log") == pytest.approx(1.0)

    def test_sqrt_variant_dominates(self):
        for m in (2, 8, 100):
            assert comparison_factor(m, 1.5, "sqrt-log") <= comparison_factor(m, 1.5, "log")

    def test_bad_variant(self):
        with pytest.raises(ValidationError):
            comparison_factor(2, 1.0, "exp")


class TestComparisonCheck:
    def test_singleton_system(self):
        system = SetSystem(3, ((1,), (2,), (3,)))
        rep = comparison_check(system, seed=0)
        assert rep.disc == 1
        assert rep.qdisc_est == pytest.approx(1.0, abs=1e-9)
        assert rep.sandwich_ok
        # factor 1 suffices: the smallest grid point is feasible
        assert rep.min_feasible_c_log == pytest.approx(0.01)

    def test_ap_system(self):
        rep = comparison_check(arithmetic_progressions(8), restarts=2, sweeps=1, seed=3)
        assert rep.qdisc_est <= rep.disc + 1e-9
        assert rep.sandwich_ok
        assert rep.min_feasible_c_log <= rep.min_feasible_c_sqrt_log

    def test_sandwich_above_the_default_cap(self):
        # the qdisc search is seeded with the exact witness up to the cap
        # that disc_exact runs at, not only up to the default cap of 24
        assert comparison_check(arithmetic_progressions(25), restarts=1, sweeps=0, cap=25).sandwich_ok


class TestLowerBoundConstants:
    def test_alpha_one(self):
        rec = lower_bound_constants(1.0)
        assert rec.epsilon == pytest.approx(0.05)
        assert rec.zeta == pytest.approx(1.0 / (2.0 * math.sqrt(20.0)))
        assert rec.zeta == pytest.approx(0.1118033988749895)
        # 1/5 - zeta^2 (1 + alpha) - 2 eps = 1/5 - 1/40 - 1/10 = 3/40
        assert rec.margin == pytest.approx(0.075)

    def test_epsilon_fixed(self):
        for alpha in (0.5, 1.0, 4.0):
            assert lower_bound_constants(alpha).epsilon == pytest.approx(0.05)

    def test_zeta_decreasing_in_alpha(self):
        zetas = [lower_bound_constants(a).zeta for a in (0.2, 1.0, 3.0, 10.0)]
        assert all(b < a for a, b in zip(zetas, zetas[1:]))

    def test_condition_always_positive(self):
        for alpha in np.geomspace(0.01, 1000.0, 30):
            assert lower_bound_constants(float(alpha)).margin > 0

    def test_margin_is_three_fortieths_for_every_alpha(self):
        # zeta^2 (1 + alpha) = 1/40, so 1/5 - 1/40 - 2/20 does not depend on alpha
        for alpha in (0.01, 0.5, 1.0, 7.0, 1000.0):
            assert lower_bound_constants(alpha).margin == pytest.approx(0.075, abs=1e-15)

    def test_bad_alpha(self):
        with pytest.raises(ValidationError):
            lower_bound_constants(0.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha(self, alpha):
        with pytest.raises(ValidationError):
            lower_bound_constants(alpha)
