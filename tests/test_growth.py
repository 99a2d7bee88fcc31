import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import stackwords.growth as growth
from stackwords.growth import (
    MAXIMIZER_METHODS,
    bound_nth_root,
    critical_point,
    growth_rate,
    growth_rate_unsimplified,
    maximize_growth_rate,
    summand_nth_root,
)

# closed-form critical point evaluated in double precision, frozen
X_STAR = 0.28839189261893894


class TestGrowthRate:
    def test_left_endpoint(self):
        assert growth_rate(0.0) == pytest.approx(4.0, abs=1e-12)

    def test_right_endpoint(self):
        assert growth_rate(0.5) == pytest.approx(27 / 4, abs=1e-9)

    def test_value_at_critical_point(self):
        assert growth_rate(X_STAR) == pytest.approx(12.532954622868, abs=1e-9)
        assert abs(growth_rate(0.2883918927) - 12.53296) < 5e-5

    def test_domain(self):
        with pytest.raises(ValueError):
            growth_rate(-0.01)
        with pytest.raises(ValueError):
            growth_rate(0.51)

    @pytest.mark.parametrize("x", [0.1, 0.25, 0.4])
    def test_agrees_with_unsimplified_form(self, x):
        assert growth_rate_unsimplified(x) == pytest.approx(growth_rate(x), rel=1e-12)

    def test_unsimplified_open_interval_only(self):
        with pytest.raises(ValueError):
            growth_rate_unsimplified(0.0)
        with pytest.raises(ValueError):
            growth_rate_unsimplified(0.5)

    @given(st.floats(0.001, 0.499))
    def test_forms_agree_everywhere(self, x):
        assert abs(growth_rate(x) - growth_rate_unsimplified(x)) / growth_rate(x) < 1e-11


class TestCriticalPoint:
    def test_frozen_value(self):
        assert critical_point() == pytest.approx(X_STAR, abs=1e-15)

    def test_interval(self):
        assert 0.28 < critical_point() < 0.29

    def test_stationarity_by_finite_difference(self):
        h = 1e-6
        x = critical_point()
        slope = (math.log(growth_rate(x + h)) - math.log(growth_rate(x - h))) / (2 * h)
        assert abs(slope) < 1e-6


def cubic(x):
    # the numerator minus the denominator of the slope's log argument
    return 1 - 4 * x + 3 * x**2 - 4 * x**3


class TestLogGrowthSlope:
    GRID = [0.01 + i * 0.48 / 96 for i in range(97)]  # interior points

    def test_agrees_with_a_central_difference(self):
        # the oracle for the closed form, with a step far above rounding noise
        h = 1e-6
        for x in self.GRID:
            difference = (growth._log_growth_rate(x + h) - growth._log_growth_rate(x - h)) / (2 * h)
            assert growth._log_growth_slope(x) == pytest.approx(difference, abs=1e-6), x

    def test_sign_is_the_sign_of_the_cubic(self):
        for x in self.GRID + [critical_point() - 1e-9, critical_point() + 1e-9]:
            assert math.copysign(1.0, growth._log_growth_slope(x)) == math.copysign(1.0, cubic(x)), x

    def test_the_cubic_has_one_root_in_the_interval(self):
        # Why the maximum is unique: the cubic's derivative -4 + 6x - 12x^2
        # has a negative discriminant and leading coefficient, so the cubic
        # strictly decreases; it goes from 1 at 0 to -3/4 at 1/2, and its
        # one root there is critical_point().
        c, b, a = -4, 6, -12
        assert b * b - 4 * a * c == -156
        assert (cubic(0), cubic(0.5)) == (1, -0.75)
        assert abs(cubic(critical_point())) < 1e-15


class TestMaximize:
    def test_golden_section_matches_closed_form(self):
        found = maximize_growth_rate(1e-10)
        assert found.method == "golden_section"
        assert found.iterations > 0
        assert abs(found.x_star - critical_point()) < 1e-8
        assert 0.0 < found.x_star < 0.5

    def test_bisection_matches_closed_form(self):
        found = maximize_growth_rate(1e-10, "derivative_bisection")
        assert found.method == "derivative_bisection"
        assert abs(found.x_star - critical_point()) < 1e-8

    @pytest.mark.parametrize("tolerance", [1e-10, 1e-12, 1e-15])
    def test_bisection_meets_its_tolerance(self, tolerance):
        found = maximize_growth_rate(tolerance, "derivative_bisection")
        assert abs(found.x_star - critical_point()) <= tolerance

    def test_golden_section_stops_at_its_floor(self):
        # below about 1e-9 the probes compare equal before the bracket
        # reaches the tolerance, so a smaller tolerance adds no iterations
        floor = maximize_growth_rate(1e-10)
        for tolerance in (1e-12, 1e-15):
            found = maximize_growth_rate(tolerance)
            assert found.iterations == floor.iterations
            assert found.x_star == floor.x_star
            assert found.tolerance == tolerance

    def test_g_star_is_reevaluated(self):
        found = maximize_growth_rate(1e-10)
        assert found.g_star == growth_rate(found.x_star)
        assert found.tolerance == 1e-10

    def test_dominates_a_grid(self):
        found = maximize_growth_rate(1e-10)
        for i in range(10_000):
            x = (i + 1) * 0.5 / 10_001
            assert found.g_star >= growth_rate(x) - 1e-12

    def test_methods_agree(self):
        a = maximize_growth_rate(1e-10, "golden_section")
        b = maximize_growth_rate(1e-10, "derivative_bisection")
        assert abs(a.x_star - b.x_star) < 1e-8
        assert a.g_star == pytest.approx(b.g_star, rel=1e-14)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            maximize_growth_rate(0.0)
        with pytest.raises(ValueError):
            maximize_growth_rate(1e-10, "newton")
        assert MAXIMIZER_METHODS == ("golden_section", "derivative_bisection")

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, 1e-20])
    @pytest.mark.parametrize("method", MAXIMIZER_METHODS)
    def test_unreachable_tolerance_rejected(self, tolerance, method):
        # nan and inf end the search at once; 1e-20 is below the float
        # spacing at x*, so the bracket would never get that narrow
        with pytest.raises(ValueError, match="finite and at least"):
            maximize_growth_rate(tolerance, method)

    @pytest.mark.parametrize("method", MAXIMIZER_METHODS)
    def test_smallest_tolerance_terminates(self, method):
        found = maximize_growth_rate(1e-15, method)
        assert abs(found.x_star - X_STAR) < 1e-7


class TestSummandRoot:
    def test_frozen_values(self):
        assert summand_nth_root(500, X_STAR) == pytest.approx(11.979385610978825, rel=1e-12)
        assert summand_nth_root(1000, X_STAR) == pytest.approx(12.223408191683257, rel=1e-12)
        assert summand_nth_root(1000, 0.1) == pytest.approx(8.359808404046278, rel=1e-12)

    def test_convergence_toward_growth_rate(self):
        # slow convergence: the gap shrinks like exp(-(3.5 ln n + C)/n)
        for x in (0.1, X_STAR, 0.4):
            target = growth_rate(x)
            gaps = [abs(summand_nth_root(n, x) - target) / target for n in (200, 500, 1000)]
            assert gaps[0] > gaps[1] > gaps[2]
            assert gaps[2] < 0.03

    def test_approaches_from_below(self):
        for n in (200, 500, 1000):
            assert summand_nth_root(n, X_STAR) < growth_rate(X_STAR)

    def test_k_range_guard(self):
        with pytest.raises(ValueError):
            summand_nth_root(100, 0.001)  # k rounds to 0
        with pytest.raises(ValueError):
            summand_nth_root(10, 0.65)  # k = 7 beyond (n+1)/2


class TestBoundRoot:
    def test_single_entry(self):
        assert bound_nth_root(1) == 1.0

    def test_frozen_values(self):
        assert bound_nth_root(10) == pytest.approx(5.354772109777149, rel=1e-12)
        assert bound_nth_root(200) == pytest.approx(11.49425921972356, rel=1e-12)

    def test_increasing_and_below_limit(self):
        roots = [bound_nth_root(n) for n in (10, 50, 200, 1000)]
        assert roots == sorted(roots)
        assert all(r < 12.6 for r in roots)

    def test_within_polynomial_factor_of_max(self):
        # at most n summands, each at most the largest
        g_star = maximize_growth_rate(1e-10).g_star
        for n in (10, 50, 200, 1000):
            assert bound_nth_root(n) < g_star * n ** (2.0 / n)
