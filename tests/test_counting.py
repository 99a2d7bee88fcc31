import math
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

import stackwords.counting as counting
from stackwords.counting import (
    _exact_div,
    bound_summand,
    brute_force_count,
    brute_force_image_descent_counts,
    catalan,
    image_fertilities,
    image_tally,
    stack_sort_preimages,
    three_stack_bound,
    trivial_bound,
    two_stack_count,
    two_stack_count_by_descents,
)
from stackwords.machine import is_t_stack_sortable, stack_sort
from stackwords.perms import all_permutations, descent_count

# brute-force values, frozen from exhaustive enumeration
CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]
TWO_STACK = [1, 2, 6, 22, 91, 408, 1938, 9614]
THREE_STACK = [1, 2, 6, 24, 114, 606, 3494, 21426]
THREE_STACK_BOUND = [1, 2, 10, 60, 419, 3220, 26520, 230040, 2077669]


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


class TestByDescents:
    def test_length_four_row(self):
        assert [two_stack_count_by_descents(4, d) for d in range(4)] == [1, 10, 10, 1]

    def test_length_seven_row(self):
        assert [two_stack_count_by_descents(7, d) for d in range(7)] == [1, 56, 462, 900, 462, 56, 1]

    def test_out_of_range_is_zero(self):
        assert two_stack_count_by_descents(4, -1) == 0
        assert two_stack_count_by_descents(4, 4) == 0

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            two_stack_count_by_descents(0, 0)

    @staticmethod
    def factorial_form(n, k):
        f = math.factorial
        numerator = f(n + k - 1) * f(2 * n - k)
        denominator = f(k) * f(n + 1 - k) * f(2 * k - 1) * f(2 * n - 2 * k + 1)
        assert numerator % denominator == 0
        return numerator // denominator

    @pytest.mark.parametrize("rows", [range(1, 121), (200, 300)], ids=["n<=120", "n=200,300"])
    def test_binomial_form_matches_factorial_form(self, rows):
        for n in rows:
            for k in range(1, n + 1):
                assert two_stack_count_by_descents(n, k - 1) == self.factorial_form(n, k), (n, k)

    def test_remainder_fails_loudly(self, monkeypatch):
        # with every binomial 1, the division by k(n+1-k) = 6 at n=4, k=2
        # leaves a remainder, which must raise and not round
        monkeypatch.setattr(counting.math, "comb", lambda a, b: 1)
        with pytest.raises(ArithmeticError, match="two_stack_count_by_descents: 1 is not divisible by 6"):
            two_stack_count_by_descents(4, 1)


class TestThreeStackBound:
    def test_values(self):
        assert [three_stack_bound(n) for n in range(1, 10)] == THREE_STACK_BOUND

    def test_tight_for_tiny_lengths(self):
        assert three_stack_bound(1) == 1
        assert three_stack_bound(2) == 2  # equals the count

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            three_stack_bound(0)

    @staticmethod
    def _summed(n):
        # the binomial closed form, one summand at a time
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

    def test_image_descent_tallies_keep_the_default_guard(self):
        # the counter takes n only, so the default enumeration limit holds
        with pytest.raises(ValueError, match="exceeds enumeration limit"):
            brute_force_image_descent_counts(11)
        with pytest.raises(TypeError):
            brute_force_image_descent_counts(5, limit=20)

    def test_image_descent_tallies(self):
        assert brute_force_image_descent_counts(1) == {0: 1}
        assert brute_force_image_descent_counts(2) == {0: 2}
        assert brute_force_image_descent_counts(5) == {0: 42, 1: 68, 2: 4}

    def test_tallies_partition_the_count(self):
        for n in range(1, 7):
            tallies = brute_force_image_descent_counts(n)
            assert sum(tallies.values()) == brute_force_count(n, 3)

    # The counters sort each p once and test only the distinct images;
    # these oracles test every p, as the counters' definitions read.

    @pytest.mark.parametrize("n", range(8))
    def test_count_matches_the_per_permutation_definition(self, n):
        for t in range(1, 5):
            expected = sum(is_t_stack_sortable(p, t) for p in all_permutations(n))
            assert brute_force_count(n, t) == expected, (n, t)

    @pytest.mark.parametrize("n", range(8))
    def test_image_tallies_match_the_per_permutation_loop(self, n):
        expected: dict[int, int] = {}
        for p in all_permutations(n):
            q = stack_sort(p)
            if is_t_stack_sortable(q, 2):
                d = descent_count(q)
                expected[d] = expected.get(d, 0) + 1
        tallies = brute_force_image_descent_counts(n)
        assert tallies == expected
        assert list(tallies) == list(expected)  # keys in order of first appearance

    def test_pass_count_must_be_positive(self):
        with pytest.raises(ValueError, match="pass count must be positive"):
            brute_force_count(3, 0)

    @pytest.mark.parametrize("n", range(8))
    def test_a_shared_image_tally_gives_the_same_counts(self, n):
        images = image_tally(n)
        assert sum(images.values()) == math.factorial(n)
        assert images == Counter(stack_sort(p) for p in all_permutations(n))


class TestPreimageEngine:
    def test_preimages_match_brute_force(self):
        for n in range(7):
            by_image = {}
            for p in all_permutations(n):
                by_image.setdefault(stack_sort(p), []).append(p)
            for q in all_permutations(n):
                assert sorted(stack_sort_preimages(q)) == sorted(by_image.get(q, [])), q

    def test_iterated_preimages_are_the_sortable_classes(self):
        for n in range(1, 8):
            level = [tuple(range(1, n + 1))]
            counts = []
            for _ in range(3):
                level = [p for q in level for p in stack_sort_preimages(q)]
                counts.append(len(level))
            assert counts == [catalan(n), two_stack_count(n), brute_force_count(n, 3)], n
            if n == 5:
                # a generating tree that inserts the maximum finds only 90
                assert counts[1] == 91

    @pytest.mark.parametrize("start", [-3, 101])
    def test_preimages_of_entries_not_1_to_n(self, start):
        # distinct entries need not be 1..n: the preimages of a shifted q
        # are the brute-force inverse image shifted, listed in the order
        # that q's own preimages come in
        def shift(p):
            return tuple(v + start - 1 for v in p)

        for n in range(7):
            by_image = {}
            for p in all_permutations(n):
                by_image.setdefault(stack_sort(p), []).append(p)
            for q in all_permutations(n):
                listed = list(stack_sort_preimages(shift(q)))
                assert sorted(listed) == [shift(p) for p in by_image.get(q, [])], q
                assert listed == [shift(p) for p in stack_sort_preimages(q)], q

    def test_west_splits_are_the_filtered_split_points(self):
        def ends_in_max(half):
            return not half or half[-1] == max(half)

        for n in range(9):
            for q in all_permutations(n):
                expected = []
                if q and q[-1] == max(q):
                    expected = [(q[:i], q[i:-1]) for i in range(n) if ends_in_max(q[:i]) and ends_in_max(q[i:-1])]
                assert list(counting._west_splits(q)) == expected, q

    def test_west_splits_need_q_to_end_in_its_maximum(self):
        assert list(counting._west_splits((2, 3, 1))) == []
        assert list(counting._west_splits((-1, -2))) == []
        assert list(counting._west_splits(())) == []
        assert list(counting._west_splits((-4,))) == [((), ())]
        # a running maximum started at 0 would drop the last two
        assert list(counting._west_splits((-3, -2, -1))) == [((), (-3, -2)), ((-3,), (-2,)), ((-3, -2), ())]

    def test_fertilities_at_length_0(self):
        # the empty permutation is its own image, with itself as its one preimage
        assert list(image_fertilities(0)) == [((), 1)]

    def test_fertilities_reject_a_negative_length(self):
        with pytest.raises(ValueError):
            next(image_fertilities(-1))

    def test_fertilities_are_those_of_the_preimage_lists(self):
        for n in (6, 7, 8):
            for q, fertility in image_fertilities(n):
                assert fertility == sum(1 for _ in stack_sort_preimages(q)), q

    @pytest.mark.parametrize("n, calls", [(8, 7646), (9, 34279)])
    def test_memo_holds_one_entry_per_order_type(self, n, calls, monkeypatch):
        # each pattern is split once, whatever entries its halves carry; a
        # memo keyed by the raw halves splits it again for each new set of
        # entries (8635 and 38941 calls)
        west_splits = counting._west_splits
        counted = []

        def splits(q):
            counted.append(q)
            return west_splits(q)

        monkeypatch.setattr(counting, "_west_splits", splits)
        list(image_fertilities(n))
        assert len(counted) == calls

    def test_fertilities_sum_to_the_three_stack_count_at_10(self):
        # checked once against brute_force_count(10, 3), a 10! sweep
        assert sum(f for _, f in image_fertilities(10)) == 922862

    def test_memo_is_local_to_one_call(self):
        names = set(vars(counting))
        assert list(image_fertilities(7)) == list(image_fertilities(7))
        assert set(vars(counting)) == names
        # and the module keeps no cache of its own
        caches = [name for name, value in vars(counting).items() if hasattr(value, "cache_info")]
        assert caches == []


class TestExactDivision:
    def test_quotient(self):
        assert _exact_div(12, 4, "test") == 3

    def test_remainder_fails_loudly(self):
        with pytest.raises(ArithmeticError, match="not divisible"):
            _exact_div(13, 4, "test")

