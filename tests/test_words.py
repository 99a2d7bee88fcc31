import pytest
from hypothesis import given
from hypothesis import strategies as st

from stackwords import verify
from stackwords.counting import binomial
from stackwords.machine import encode, is_genuine_word, is_t_stack_sortable, stack_sort
from stackwords.words import (
    StackWord,
    count_factor,
    decode,
    default_alphabet,
    enumerate_a_placements,
    forbidden_factor_violations,
    image_word,
    validate_word,
)


@st.composite
def perms(draw, max_n=7):
    n = draw(st.integers(0, max_n))
    return tuple(draw(st.permutations(range(1, n + 1))))


class TestValidate:
    def test_two_letter_word(self):
        word = validate_word("AABB", 1)
        assert word.entries == 2
        assert word.stacks == 1
        assert word.alphabet == "AB"

    def test_machine_trace_validates(self):
        word = validate_word("AABCBDCD", 3)
        assert word.entries == 2

    def test_ballot_violation_position(self):
        with pytest.raises(ValueError, match="position 3"):
            validate_word("ABBA", 1)

    def test_unknown_letter(self):
        with pytest.raises(ValueError, match="unknown letter 'E'"):
            validate_word("ABE", 3)

    def test_unequal_counts(self):
        with pytest.raises(ValueError, match="unequal letter counts"):
            validate_word("AAB", 1)

    def test_empty_word_is_valid(self):
        assert validate_word("", 3).entries == 0

    def test_shifted_alphabet(self):
        word = validate_word("BCBDCD", 2, alphabet="BCD")
        assert word.stacks == 2
        assert word.entries == 2

    def test_default_alphabet_bounds(self):
        assert default_alphabet(1) == "AB"
        assert default_alphabet(3) == "ABCD"
        with pytest.raises(ValueError):
            default_alphabet(0)
        with pytest.raises(ValueError):
            default_alphabet(25)

    @given(perms(), st.integers(1, 4))
    def test_every_trace_validates(self, p, t):
        word = encode(p, t)
        assert validate_word(word.letters, t) == word


class TestFactors:
    @pytest.mark.parametrize(
        "letters, factor, expected",
        [("AABCBDCD", "AA", 1), ("BCBDCD", "BB", 0), ("AAA", "AA", 2), ("ABAB", "AB", 2)],
    )
    def test_count_factor(self, letters, factor, expected):
        assert count_factor(letters, factor) == expected

    def test_count_factor_on_word(self):
        assert count_factor(validate_word("AABB", 1), "AA") == 1

    def test_empty_factor_rejected(self):
        with pytest.raises(ValueError):
            count_factor("AB", "")

    def test_clean_trace_has_no_violations(self):
        assert forbidden_factor_violations(encode((2, 1), 3)) == []

    def test_direct_factor_hits(self):
        word = StackWord("AABBCCDD", "ABCD")
        assert forbidden_factor_violations(word) == [("BB", 2), ("CC", 4)]

    def test_interleaved_run_rule(self):
        # CB followed by any number of A's and then C counts as one violation
        assert forbidden_factor_violations(StackWord("CBAAC", "ABCD")) == [("CBA^jC", 0)]
        assert forbidden_factor_violations(StackWord("CBC", "ABCD")) == [("CBA^jC", 0)]

    def test_greedy_rule_factors(self):
        word = StackWord("ADACBDAB", "ABCD")
        hits = forbidden_factor_violations(word)
        assert ("DA", 1) in hits
        assert ("CA", 3) not in hits  # letters[3] is C followed by B
        assert ("DA", 5) in hits

    def test_requires_standard_three_stack_alphabet(self):
        with pytest.raises(ValueError):
            forbidden_factor_violations(validate_word("AABB", 1))
        with pytest.raises(ValueError):
            forbidden_factor_violations(StackWord("BCBDCD", "BCD"))

    def test_aa_factors_count_descents(self):
        # and BB factors of the projection count the image's descents
        result = verify.check_factor_descent_bijections(top=5)
        assert result.passed, result.witnesses


class TestDecode:
    @pytest.mark.parametrize(
        "letters, stacks, expected",
        [("ABCD", 3, (1,)), ("AABCBDCD", 3, (2, 1)), ("AABB", 1, (2, 1)), ("ABAB", 1, (1, 2)), ("", 3, ())],
    )
    def test_examples(self, letters, stacks, expected):
        assert decode(validate_word(letters, stacks)) == expected

    def test_letter_outside_alphabet(self):
        with pytest.raises(ValueError, match="unknown letter 'X' at position 2"):
            decode(StackWord("AXB", "AB"))

    def test_pop_from_empty_stack(self):
        with pytest.raises(ValueError, match="pops an empty stack"):
            decode(StackWord("BACD", "ABCD"))

    def test_degenerate_alphabets_rejected(self):
        with pytest.raises(ValueError):
            validate_word("AA", 0, alphabet="A")
        with pytest.raises(ValueError):
            decode(StackWord("AA", "A"))

    def test_decodes_projection_to_sorted_image(self):
        # the projected word is a 2-stack word over BCD; replaying it
        # recovers the once-sorted image
        p = (2, 3, 1)
        assert is_t_stack_sortable(p, 3)
        v = image_word(encode(p, 3))
        assert decode(v) == stack_sort(p)


class TestProjection:
    def test_examples(self):
        assert image_word(validate_word("ABCD", 3)).letters == "BCD"
        assert image_word(validate_word("AABCBDCD", 3)).letters == "BCBDCD"

    def test_projection_can_create_bb_factors(self):
        word = encode((2, 3, 4, 1), 3)  # image 2314 has one descent
        assert count_factor(word, "BB") == 0
        assert count_factor(image_word(word), "BB") == 1

    def test_requires_three_stacks(self):
        with pytest.raises(ValueError):
            image_word(validate_word("AABB", 1))

    def test_matches_two_stack_word_of_image(self):
        result = verify.check_projection(top=5)
        assert result.passed, result.witnesses


class TestPlacements:
    def test_two_candidates_for_single_descent(self):
        v = validate_word("BCBDCD", 2, alphabet="BCD")
        words = [w.letters for w in enumerate_a_placements(v, 2)]
        assert words == ["ABACBDCD", "AABCBDCD"]
        assert len(words) == binomial(2 * 2 - 2 * 1, 2 - 1)

    def test_forced_insertions_inside_bb_factor(self):
        v = validate_word("BBCBCDCDD", 2, alphabet="BCD")
        words = [w.letters for w in enumerate_a_placements(v, 3)]
        assert words == ["ABAABCBCDCDD"]  # one forced A up front, two inside BB
        assert len(words) == binomial(2 * 3 - 2 * 2, 3 - 1)

    def test_too_many_bb_factors(self):
        v = validate_word("BBCCDD", 2, alphabet="BCD")
        with pytest.raises(ValueError, match="BB factors"):
            list(enumerate_a_placements(v, 2))

    def test_stream_size_and_membership(self):
        result = verify.check_placement_membership(top=5)
        assert result.passed, result.witnesses

    def test_candidates_are_mostly_not_genuine(self):
        # identity of length 3: six candidates, five of which are traces
        # (one for each 1-stack sortable permutation of length 3)
        v = image_word(encode((1, 2, 3), 3))
        candidates = list(enumerate_a_placements(v, 3))
        genuine = [w for w in candidates if is_genuine_word(w)]
        assert len(candidates) == 6
        assert len(genuine) == 5

    def test_rejects_unprojected_words(self):
        with pytest.raises(ValueError):
            list(enumerate_a_placements(validate_word("AABB", 1), 2))

    def test_length_mismatch(self):
        v = validate_word("BCBDCD", 2, alphabet="BCD")
        with pytest.raises(ValueError, match="does not match"):
            list(enumerate_a_placements(v, 3))
