import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

import stackwords.perms as perms_module
from stackwords import verify
from stackwords.perms import (
    all_permutations,
    check_permutation,
    contains_pattern,
    descent_count,
    format_permutation,
    is_identity,
    parse_permutation,
)

from strategies import perms


class TestParse:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("2,3,1", (2, 3, 1)),
            ("231", (2, 3, 1)),
            ("2 3 1", (2, 3, 1)),
            ("  1, 2,3 ", (1, 2, 3)),
            ("1", (1,)),
            ("", ()),
            ("10,9,8,7,6,5,4,3,2,1", (10, 9, 8, 7, 6, 5, 4, 3, 2, 1)),
            ("1 2,3", (1, 2, 3)),
        ],
    )
    def test_valid(self, text, expected):
        assert parse_permutation(text) == expected

    def test_duplicate_reports_value(self):
        with pytest.raises(ValueError, match="duplicate value 2"):
            parse_permutation("2,2,1")

    def test_out_of_range_reports_value(self):
        with pytest.raises(ValueError, match="value 4 out of range"):
            parse_permutation("1,2,4")

    def test_malformed_token(self):
        with pytest.raises(ValueError, match="malformed token"):
            parse_permutation("1,x,2")

    @pytest.mark.parametrize(
        "text, token",
        [
            ("1_0,2,3,4,5,6,7,8,9,1", "1_0"),  # int() reads the underscore as a digit separator
            ("2\u0661", "\u0661"),  # ARABIC-INDIC DIGIT ONE
            ("\uff12\uff11", "\uff12"),  # FULLWIDTH DIGIT TWO
            ("+2,+1", "+2"),
            ("2,-1", "-1"),
            ("2 \u00b9", "\u00b9"),  # SUPERSCRIPT ONE: isdigit() but not a decimal int() reads
        ],
    )
    def test_only_ascii_digits_are_read(self, text, token):
        with pytest.raises(ValueError) as caught:
            parse_permutation(text)
        assert str(caught.value) == f"malformed token {token!r} in permutation {text!r}"

    @pytest.mark.parametrize("text", ["1,,2", ",2,1", "2,1,", "1, ,2", ",", " , 1"])
    def test_empty_entry_rejected(self, text):
        with pytest.raises(ValueError) as caught:
            parse_permutation(text)
        assert str(caught.value) == f"empty entry in permutation {text.strip()!r}"

    def test_zero_invalid_in_digit_form(self):
        with pytest.raises(ValueError, match="out of range"):
            parse_permutation("10")

    @given(perms(max_n=9))
    def test_format_roundtrip(self, p):
        assert parse_permutation(format_permutation(p)) == p


class TestBasics:
    def test_is_identity(self):
        assert is_identity((1, 2, 3))
        assert is_identity([1, 2, 3])
        assert not is_identity([2, 1])
        assert not is_identity((2, 1))
        assert is_identity(())

    @pytest.mark.parametrize(
        "p, expected",
        [((3, 1, 4, 2), 2), ((1, 2, 3, 4), 0), ((4, 3, 2, 1), 3), ((), 0), ((1,), 0)],
    )
    def test_descent_count(self, p, expected):
        assert descent_count(p) == expected

    @given(st.lists(st.integers(-3, 3), max_size=12))
    def test_descent_count_matches_the_positional_definition(self, values):
        # ties are not descents; any sequence of comparable values will do
        expected = sum(1 for i in range(len(values) - 1) if values[i] > values[i + 1])
        assert descent_count(values) == expected
        assert descent_count(tuple(values)) == expected
        assert type(descent_count(values)) is int

    @given(perms(max_n=9))
    def test_descents_of_reverse(self, p):
        if p:
            assert descent_count(p) + descent_count(p[::-1]) == len(p) - 1

    def test_check_permutation_passthrough(self):
        assert check_permutation([3, 1, 2]) == (3, 1, 2)
        assert check_permutation(()) == ()


def oracle_contains(p, q):
    # independent containment check: try every subsequence of the right length
    k = len(q)
    return any(
        all((c[i] > c[j]) == (q[i] > q[j]) for i in range(k) for j in range(k))
        for c in itertools.combinations(p, k)
    )


class TestPatterns:
    def test_spec_examples(self):
        assert contains_pattern((2, 3, 4, 1), (2, 3, 1))
        assert not contains_pattern((1, 2, 3), (2, 3, 1))
        assert contains_pattern((2, 3, 1), (2, 3, 1))

    def test_trivia(self):
        assert contains_pattern((2, 1), ())
        assert contains_pattern((), ())
        assert not contains_pattern((2, 1), (1, 2, 3))
        assert not contains_pattern((2, 1), (1, 1, 1))  # too long to need an order

    def test_against_oracle_exhaustively(self):
        patterns = [q for k in range(4) for q in itertools.permutations(range(1, k + 1))]
        for n in range(6):
            for p in all_permutations(n):
                for q in patterns:
                    assert contains_pattern(p, q) == oracle_contains(p, q), (p, q)
        # the patterns 2341 and 23451 that check_sortability_structure uses
        for n in range(8):
            for p in all_permutations(n):
                for q in ((2, 3, 4, 1), (2, 3, 4, 5, 1)):
                    assert contains_pattern(p, q) == oracle_contains(p, q), (p, q)

    @given(perms(max_n=8), perms(max_n=4))
    def test_against_oracle_random(self, p, q):
        assert contains_pattern(p, q) == oracle_contains(p, q)

    def test_long_pattern_does_not_recurse(self):
        # one resume position per pattern entry, not one call: a pattern
        # longer than the recursion limit still gets an answer
        assert contains_pattern(tuple(range(1, 1201)), tuple(range(1, 1101)))

    def test_long_pattern_absent(self):
        assert not contains_pattern(tuple(range(1, 1201)), tuple(range(1100, 0, -1)))

    def test_links_are_cached_per_pattern(self):
        perms_module._pattern_links.cache_clear()
        for p in all_permutations(5):
            contains_pattern(p, (2, 3, 1))
            contains_pattern(list(p), [2, 3, 1])
        info = perms_module._pattern_links.cache_info()
        assert (info.misses, info.hits) == (1, 2 * 120 - 1)
        assert info.maxsize is not None  # bounded: a caller may meet many patterns

    def test_full_length_patterns_skip_the_links(self):
        # check_permutation_statistics asks contains_pattern(p, p) for every
        # p: each is a new pattern, so looking up its links would only churn
        # the cache. The one miss is the pattern 231.
        perms_module._pattern_links.cache_clear()
        assert verify.check_permutation_statistics(top=6).passed
        assert perms_module._pattern_links.cache_info().misses == 1

    def test_full_length_pattern_on_other_values(self):
        assert contains_pattern((10, 30, 20), (1, 3, 2))
        assert not contains_pattern((10, 30, 20), (2, 1, 3))

    @pytest.mark.parametrize(
        "p, q",
        [
            ((1, 2, 3), (1, 1)),  # the search, whose links would give equal values one slot
            ((1, 2, 3), (1, 2, 2)),
            ((3, 1, 2, 4), (2, 1, 2)),
            ((1, 2), (1, 1)),  # the k == n shortcut, which would read a tie as an order
            ((2, 1), (1, 1)),
            ((1, 2, 3), (3, 1, 3)),
        ],
    )
    def test_repeated_pattern_value_raises(self, p, q):
        with pytest.raises(ValueError, match=f"repeated value {q[-1]}"):
            contains_pattern(p, q)


class TestEnumeration:
    def test_empty_length(self):
        assert list(all_permutations(0)) == [()]

    def test_order_and_count(self):
        items = list(all_permutations(3))
        assert items[0] == (1, 2, 3)
        assert items[-1] == (3, 2, 1)
        assert items == sorted(items)
        assert len(items) == 6

    def test_all_distinct(self):
        items = list(all_permutations(4))
        assert len(items) == 24
        assert len(set(items)) == 24

    def test_limit_guard(self):
        with pytest.raises(ValueError, match="exceeds enumeration limit"):
            all_permutations(11)
        # raising the limit explicitly is allowed
        it = all_permutations(11, limit=11)
        assert next(it) == tuple(range(1, 12))

    def test_negative_length(self):
        with pytest.raises(ValueError, match="negative"):
            all_permutations(-1)
