import pytest
from hypothesis import given
from hypothesis import strategies as st

import stackwords.counting as counting
from stackwords import verify
from stackwords.counting import (
    _exact_div,
    binomial,
    bound_summand,
    brute_force_count,
    brute_force_image_descent_counts,
    catalan,
    three_stack_bound,
    trivial_bound,
    two_stack_count,
    two_stack_count_by_descents,
)

# brute-force values, frozen from exhaustive enumeration
CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]
TWO_STACK = [1, 2, 6, 22, 91, 408, 1938, 9614]
THREE_STACK = [1, 2, 6, 24, 114, 606, 3494, 21426]
THREE_STACK_BOUND = [1, 2, 10, 60, 419, 3220, 26520, 230040, 2077669]


class TestBinomial:
    @pytest.mark.parametrize("a, b, expected", [(4, 2, 6), (0, 0, 1), (12, 4, 495)])
    def test_values(self, a, b, expected):
        assert binomial(a, b) == expected

    def test_out_of_range_is_zero(self):
        assert binomial(4, -1) == 0
        assert binomial(4, 5) == 0

    def test_negative_upper_index(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    @given(st.integers(1, 60), st.integers(0, 60))
    def test_pascal(self, a, b):
        assert binomial(a, b) == binomial(a - 1, b - 1) + binomial(a - 1, b)


class TestCatalan:
    def test_values(self):
        assert [catalan(n) for n in range(11)] == CATALAN

    def test_negative(self):
        with pytest.raises(ValueError):
            catalan(-1)

    @given(st.integers(0, 20))
    def test_recurrence(self, n):
        assert catalan(n + 1) == sum(catalan(i) * catalan(n - i) for i in range(n + 1))


class TestTwoStackCount:
    def test_values(self):
        assert [two_stack_count(n) for n in range(1, 9)] == TWO_STACK

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            two_stack_count(0)

    def test_matches_brute_force(self):
        result = verify.check_two_stack_oracle(top=6)
        assert result.passed, result.witnesses


class TestByDescents:
    def test_length_four_row(self):
        assert [two_stack_count_by_descents(4, d) for d in range(4)] == [1, 10, 10, 1]

    def test_length_seven_row(self):
        assert [two_stack_count_by_descents(7, d) for d in range(7)] == [1, 56, 462, 900, 462, 56, 1]

    def test_out_of_range_is_zero(self):
        assert two_stack_count_by_descents(4, -1) == 0
        assert two_stack_count_by_descents(4, 4) == 0

    def test_matches_brute_force(self):
        result = verify.check_descent_refinement_oracle(top=6)
        assert result.passed, result.witnesses

    @pytest.fixture(scope="class")
    def algebra(self):
        # one pass over the rows n <= 80 checks both the sum and the symmetry
        return verify.check_descent_refinement_algebra(top=80)

    def test_sums_to_total(self, algebra):
        assert algebra.passed, algebra.witnesses

    def test_symmetry(self, algebra):
        assert algebra.passed, algebra.witnesses


class TestThreeStackBound:
    def test_values(self):
        assert [three_stack_bound(n) for n in range(1, 10)] == THREE_STACK_BOUND

    def test_bounds_the_count(self):
        # per-descent caps and the aggregate bound
        result = verify.check_bound_inequalities(top3=6, top_trivial=0)
        assert result.passed, result.witnesses

    def test_tight_for_tiny_lengths(self):
        assert three_stack_bound(1) == 1
        assert three_stack_bound(2) == 2  # equals the count

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            three_stack_bound(0)

    @staticmethod
    def _summed(n):
        # the factorial closed form, one summand at a time
        return sum(bound_summand(n, k) for k in range(1, (n + 1) // 2 + 1))

    def test_recurrence_matches_closed_form(self):
        assert [n for n in range(1, 301) if three_stack_bound(n) != self._summed(n)] == []

    @pytest.mark.parametrize("n", [1000, 2000])
    def test_recurrence_matches_closed_form_at_large_n(self, n):
        assert three_stack_bound(n) == self._summed(n)

    def test_each_step_is_an_exact_division(self, monkeypatch):
        seen = []

        def spy(numerator, denominator, what):
            seen.append(what)
            return _exact_div(numerator, denominator, what)

        monkeypatch.setattr(counting, "_exact_div", spy)
        three_stack_bound(9)
        # one checked division per term after the first
        assert seen == ["three_stack_bound"] * 4


class TestTrivialBound:
    @pytest.mark.parametrize("n, t, expected", [(2, 1, 16), (1, 3, 16), (3, 2, 729)])
    def test_values(self, n, t, expected):
        assert trivial_bound(n, t) == expected

    def test_dominates_brute_force(self):
        result = verify.check_bound_inequalities(top3=0, top_trivial=6)
        assert result.passed, result.witnesses

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            trivial_bound(0, 1)
        with pytest.raises(ValueError):
            trivial_bound(1, 0)


class TestBruteForce:
    def test_small_counts(self):
        assert brute_force_count(3, 1) == 5
        assert brute_force_count(4, 2) == 22
        assert brute_force_count(4, 3) == 24  # n <= t+1 sorts everything

    def test_frozen_table(self):
        for n in range(1, 7):
            assert brute_force_count(n, 1) == CATALAN[n]
            assert brute_force_count(n, 2) == TWO_STACK[n - 1]
            assert brute_force_count(n, 3) == THREE_STACK[n - 1]

    def test_limit_guard(self):
        with pytest.raises(ValueError, match="exceeds enumeration limit"):
            brute_force_count(11, 1)

    def test_image_descent_tallies(self):
        assert brute_force_image_descent_counts(1) == {0: 1}
        assert brute_force_image_descent_counts(2) == {0: 2}
        assert brute_force_image_descent_counts(5) == {0: 42, 1: 68, 2: 4}

    def test_tallies_partition_the_count(self):
        for n in range(1, 7):
            tallies = brute_force_image_descent_counts(n)
            assert sum(tallies.values()) == brute_force_count(n, 3)


class TestExactDivision:
    def test_quotient(self):
        assert _exact_div(12, 4, "test") == 3

    def test_remainder_fails_loudly(self):
        with pytest.raises(ArithmeticError, match="not divisible"):
            _exact_div(13, 4, "test")

