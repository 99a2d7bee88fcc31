import itertools
import re
import tracemalloc
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stackwords.counting import image_fertilities
from stackwords.machine import encode, is_genuine_word, is_t_stack_sortable, stack_sort
from stackwords.words import (
    MAX_STACKS,
    StackWord,
    _compositions,
    count_factor,
    decode,
    default_alphabet,
    enumerate_a_placements,
    forbidden_factor_violations,
    image_word,
    validate_word,
)

from strategies import perms


def recursive_compositions(total, parts):
    # the compositions as first written, one recursive call per part
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in recursive_compositions(total - head, parts - 1):
            yield (head,) + rest


def slot_walk_placements(v, entries):
    # the A-placements as first written: each slot's A's go in on a walk
    # over every letter of v, right after the B that opens the slot
    b_positions = [i for i, ch in enumerate(v.letters) if ch == "B"]
    forced = [1] + [2 if v.letters[b + 1] == "B" else 0 for b in b_positions[:-1]]
    slot_after = {b: slot for slot, b in enumerate(b_positions[:-1], start=1)}
    for occupancy in recursive_compositions(entries - sum(forced), entries):
        parts = ["A" * (forced[0] + occupancy[0])]
        for i, ch in enumerate(v.letters):
            parts.append(ch)
            slot = slot_after.get(i)
            if slot is not None:
                parts.append("A" * (forced[slot] + occupancy[slot]))
        yield StackWord("".join(parts), "ABCD")


def image_projections(top):
    # (n, v) for the image q of every 3-stack sortable p with n <= top: v is
    # q's 2-stack word shifted to BCD, the projection of p's trace
    shift = str.maketrans("ABC", "BCD")
    return [
        (n, StackWord(encode(q, 2).letters.translate(shift), "BCD"))
        for n in range(1, top + 1)
        for q, _ in image_fertilities(n)
    ]


BALLOT_MESSAGE = r"ballot condition violated at position (\d+): .*"
EMPTY_POP_MESSAGE = r"letter '.' at position (\d+) pops an empty stack"


def first_position(pattern, f, *args):
    # the position that the message of f's ValueError gives, if it matches
    try:
        f(*args)
    except ValueError as exc:
        m = re.fullmatch(pattern, str(exc))
        return m and int(m.group(1))
    return None


# one instance of each forbidden factor, CB A^j C with j = 0, 1, 2
FORBIDDEN_INSTANCES = ("BB", "CC", "BAB", "CBC", "CBAC", "CBAAC", "DA", "DB", "CA")


@st.composite
def words_with_violations(draw):
    """ABCD text with at least one forbidden factor spliced in."""
    text = st.text(alphabet="ABCD", max_size=12)
    pieces = draw(st.lists(st.tuples(text, st.sampled_from(FORBIDDEN_INSTANCES)), min_size=1, max_size=4))
    return "".join(filler + factor for filler, factor in pieces) + draw(text)


def seven_rule_scan(letters):
    """The forbidden-factor scan as seven lookahead scans and a sort."""
    rules = (
        ("BB", "BB"), ("CC", "CC"), ("BAB", "BAB"), ("CBA^jC", "CBA*C"),
        ("DA", "DA"), ("DB", "DB"), ("CA", "CA"),
    )
    hits = [(rule, m.start()) for rule, pattern in rules for m in re.finditer(f"(?={pattern})", letters)]
    return sorted(hits, key=lambda h: (h[1], h[0]))


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

    def test_alphabet_of_the_wrong_size(self):
        with pytest.raises(ValueError, match="alphabet 'ABC' does not have 2 letters"):
            validate_word("AB", 1, alphabet="ABC")

    @pytest.mark.parametrize("letters", ["", "AB"])
    def test_alphabet_that_repeats_a_letter(self, letters):
        with pytest.raises(ValueError, match="alphabet 'ABA' is not a run of consecutive move letters"):
            validate_word(letters, 2, alphabet="ABA")

    @pytest.mark.parametrize(
        "alphabet",
        ["ABA", "BAC", "ACE", "αβγδ", "".join(map(chr, range(256)))],
        ids=["repeated", "out_of_order", "gapped", "not_move_letters", "256_letters"],
    )
    def test_alphabet_that_is_not_a_window_is_refused(self, alphabet):
        refusal = re.escape(f"alphabet {alphabet!r} is not a run of consecutive move letters")
        word = StackWord(alphabet, alphabet)
        with pytest.raises(ValueError, match=refusal):
            word.indices()
        with pytest.raises(ValueError, match=refusal):
            decode(word)
        # 255 stacks fail the stack count before the alphabet is read
        stacks = len(alphabet) - 1
        with pytest.raises(ValueError, match=refusal if stacks <= MAX_STACKS else "stack count 255 outside"):
            validate_word(word.letters, stacks, alphabet=alphabet)

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

    @given(perms(max_n=7), st.integers(1, 4))
    def test_every_trace_validates(self, p, t):
        word = encode(p, t)
        assert validate_word(word.letters, t) == word


class TestLeanWords:
    def test_words_have_no_instance_dict(self):
        word = encode((2, 1), 3)
        assert not hasattr(word, "__dict__")
        with pytest.raises(TypeError):
            vars(word)
        # value semantics are unchanged
        assert word == StackWord("AABCBDCD", "ABCD")
        assert hash(word) == hash(StackWord("AABCBDCD", "ABCD"))

    def test_words_share_their_standard_alphabet(self):
        for t in range(1, 25):
            alphabet = default_alphabet(t)
            assert alphabet is default_alphabet(t)
            assert encode((2, 3, 1), t).alphabet is alphabet
            assert validate_word("", t).alphabet is alphabet

    def test_retained_size_per_word(self):
        # 40,320 traces held at once, as a sweep over n = 8 holds them
        inputs = list(itertools.permutations(range(1, 9)))
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            held = [encode(p, 3) for p in inputs]
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            if started:
                tracemalloc.stop()
        assert len(held) == 40320
        # slotted, shared alphabet: about 138 B; a per-word __dict__ alone
        # makes it about 178 B, a fresh alphabet slice alone about 191 B
        assert retained / len(held) < 160, retained / len(held)


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

    @given(st.text("AB", max_size=12), st.text("AB", min_size=1, max_size=14))
    def test_count_factor_matches_the_positional_definition(self, letters, factor):
        # the definition the find loop replaced: every start position,
        # overlaps included; a factor longer than the word occurs nowhere
        expected = sum(1 for i in range(len(letters) - len(factor) + 1) if letters.startswith(factor, i))
        assert count_factor(letters, factor) == expected
        assert count_factor(StackWord(letters, "AB"), factor) == expected

    @pytest.mark.parametrize(
        "letters, factor, expected",
        [("AAAA", "AA", 3), ("ABABA", "ABA", 2), ("AB", "ABA", 0), ("", "A", 0)],
    )
    def test_count_factor_overlaps_and_long_factors(self, letters, factor, expected):
        assert count_factor(letters, factor) == expected

    @given(st.text("AB", max_size=6))
    def test_empty_factor_rejected_on_any_word(self, letters):
        with pytest.raises(ValueError, match="empty factor"):
            count_factor(letters, "")

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

    @given(words_with_violations())
    def test_single_scan_matches_seven_rule_scan(self, letters):
        hits = forbidden_factor_violations(StackWord(letters, "ABCD"))
        assert hits == seven_rule_scan(letters)
        assert hits  # every drawn word breaks a rule

    @given(st.text(alphabet="ABCD", max_size=40))
    def test_single_scan_matches_seven_rule_scan_on_any_word(self, letters):
        assert forbidden_factor_violations(StackWord(letters, "ABCD")) == seven_rule_scan(letters)

    def test_overlapping_hits_are_all_found(self):
        assert forbidden_factor_violations(StackWord("BBBAB", "ABCD")) == [("BB", 0), ("BB", 1), ("BAB", 2)]
        assert forbidden_factor_violations(StackWord("CCBAC", "ABCD")) == [("CC", 0), ("CBA^jC", 1)]

    def test_requires_standard_three_stack_alphabet(self):
        with pytest.raises(ValueError):
            forbidden_factor_violations(validate_word("AABB", 1))
        with pytest.raises(ValueError):
            forbidden_factor_violations(StackWord("BCBDCD", "BCD"))


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

    @pytest.mark.parametrize(
        "letters, alphabet, message",
        [
            # control characters whose codes are valid letter positions
            ("A\x01B", "AB", "unknown letter '\\x01' at position 2"),
            ("\x00AB", "AB", "unknown letter '\\x00' at position 1"),
            ("AABCBDC\x03", "ABCD", "unknown letter '\\x03' at position 8"),
            ("ABCDé", "ABCD", "unknown letter 'é' at position 5"),
            ("AB\u0101", "AB", "unknown letter 'ā' at position 3"),
            ("A\xffB", "AB", "unknown letter 'ÿ' at position 2"),
        ],
    )
    def test_letter_outside_alphabet_is_never_mapped(self, letters, alphabet, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            decode(StackWord(letters, alphabet))

    @pytest.mark.parametrize("alphabet", ["BCDE", "CDEF", "UVWX", "VWXY"])
    def test_any_alphabet_decodes_as_the_standard_one(self, alphabet):
        # any window of the move letters, up to the last one, Y
        rename = str.maketrans("ABCD", alphabet)
        for p in itertools.permutations(range(1, 6)):
            word = encode(p, 3)
            assert decode(StackWord(word.letters.translate(rename), alphabet)) == decode(word)

    def test_unknown_letter_is_named_before_an_empty_pop(self):
        with pytest.raises(ValueError, match="unknown letter 'X' at position 5"):
            decode(StackWord("BACDX", "ABCD"))

    def test_pop_from_empty_stack(self):
        with pytest.raises(ValueError, match="pops an empty stack"):
            decode(StackWord("BACD", "ABCD"))

    def test_entries_left_in_the_stacks(self):
        with pytest.raises(ValueError, match="word leaves entries stranded in the stacks"):
            decode(StackWord("AB", "ABC"))

    @pytest.mark.parametrize(
        "alphabet, letters, message",
        [
            # the first, a middle or the last letter pops an empty stack
            ("AB", "BA", "letter 'B' at position 1 pops an empty stack"),
            ("AB", "ABBA", "letter 'B' at position 3 pops an empty stack"),
            ("AB", "AABBB", "letter 'B' at position 5 pops an empty stack"),
            ("ABC", "CABC", "letter 'C' at position 1 pops an empty stack"),
            ("ABC", "BABC", "letter 'B' at position 1 pops an empty stack"),
            ("ABC", "ABCCAB", "letter 'C' at position 4 pops an empty stack"),
            ("ABC", "ABBCAC", "letter 'B' at position 3 pops an empty stack"),
            ("ABC", "AABCBCC", "letter 'C' at position 7 pops an empty stack"),
            ("ABCD", "DABCD", "letter 'D' at position 1 pops an empty stack"),
            ("ABCD", "CABD", "letter 'C' at position 1 pops an empty stack"),
            ("ABCD", "ABCDDABCD", "letter 'D' at position 5 pops an empty stack"),
            ("ABCD", "ABCCDABD", "letter 'C' at position 4 pops an empty stack"),
            ("ABCD", "AABCBDCDD", "letter 'D' at position 9 pops an empty stack"),
            ("BCDE", "CBDE", "letter 'C' at position 1 pops an empty stack"),
            ("BCD", "BCDD", "letter 'D' at position 4 pops an empty stack"),
            # entries left in a stack
            ("AB", "AAB", "word leaves entries stranded in the stacks"),
            ("ABC", "AABC", "word leaves entries stranded in the stacks"),
            ("ABCD", "ABC", "word leaves entries stranded in the stacks"),
            ("ABCD", "AABCBCD", "word leaves entries stranded in the stacks"),
        ],
    )
    def test_error_messages(self, alphabet, letters, message):
        with pytest.raises(ValueError) as caught:
            decode(StackWord(letters, alphabet))
        assert str(caught.value) == message

    def test_degenerate_alphabets_rejected(self):
        with pytest.raises(ValueError):
            validate_word("AA", 0, alphabet="A")
        with pytest.raises(ValueError):
            decode(StackWord("AA", "A"))

    @pytest.mark.parametrize("alphabet, top", [("ABCD", 7), ("BCD", 8)])
    def test_empty_pop_is_the_first_ballot_violation(self, alphabet, top):
        # over its own letters, a word pops an empty stack at position k
        # exactly when its prefix of length k breaks the ballot condition
        stacks = len(alphabet) - 1
        for size in range(top + 1):
            for letters in map("".join, itertools.product(alphabet, repeat=size)):
                ballot = first_position(BALLOT_MESSAGE, validate_word, letters, stacks, alphabet)
                pop = first_position(EMPTY_POP_MESSAGE, decode, StackWord(letters, alphabet))
                assert ballot == pop, letters

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


class TestPlacements:
    def test_two_candidates_for_single_descent(self):
        v = validate_word("BCBDCD", 2, alphabet="BCD")
        words = [w.letters for w in enumerate_a_placements(v, 2)]
        assert words == ["ABACBDCD", "AABCBDCD"]
        assert len(words) == comb(2 * 2 - 2 * 1, 2 - 1)

    def test_forced_insertions_inside_bb_factor(self):
        v = validate_word("BBCBCDCDD", 2, alphabet="BCD")
        words = [w.letters for w in enumerate_a_placements(v, 3)]
        assert words == ["ABAABCBCDCDD"]  # one forced A up front, two inside BB
        assert len(words) == comb(2 * 3 - 2 * 2, 3 - 1)

    def test_too_many_bb_factors(self):
        v = validate_word("BBCCDD", 2, alphabet="BCD")
        with pytest.raises(ValueError, match="BB factors"):
            list(enumerate_a_placements(v, 2))

    def test_candidates_are_mostly_not_genuine(self):
        # identity of length 3: six candidates, five of which are traces
        # (one for each 1-stack sortable permutation of length 3)
        v = image_word(encode((1, 2, 3), 3))
        candidates = list(enumerate_a_placements(v, 3))
        genuine = [w for w in candidates if is_genuine_word(w)]
        assert len(candidates) == 6
        assert len(genuine) == 5

    def test_compositions_match_the_recursive_definition(self):
        for total in range(9):
            for parts in range(1, 10):
                assert list(_compositions(total, parts)) == list(recursive_compositions(total, parts)), (total, parts)

    def test_streams_match_the_slot_walk(self):
        # the candidates built from v's B-segments are those of a walk over
        # every letter of v, in the same order, for every projection with n <= 8
        for n, v in image_projections(8):
            assert [w.letters for w in enumerate_a_placements(v, n)] == [
                w.letters for w in slot_walk_placements(v, n)
            ], (n, v.letters)

    def test_many_entries_do_not_recurse(self):
        # the compositions come from stars and bars, not one call per entry
        n = 1200
        v = image_word(encode(tuple(range(1, n + 1)), 3))
        first = next(enumerate_a_placements(v, n))
        assert first.letters.count("A") == n
        assert image_word(first) == v

    def test_rejects_unprojected_words(self):
        with pytest.raises(ValueError):
            list(enumerate_a_placements(validate_word("AABB", 1), 2))

    def test_no_entries(self):
        with pytest.raises(ValueError, match="need at least one entry"):
            list(enumerate_a_placements(StackWord("", "BCD"), 0))

    def test_length_mismatch(self):
        v = validate_word("BCBDCD", 2, alphabet="BCD")
        with pytest.raises(ValueError, match="does not match"):
            list(enumerate_a_placements(v, 3))
