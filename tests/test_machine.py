import pytest
from hypothesis import given
from hypothesis import strategies as st

from stackwords import verify
from stackwords.machine import (
    encode,
    is_genuine_word,
    is_t_stack_sortable,
    iterate_stack_sort,
    min_sorting_passes,
    run_series_machine,
    stack_sort,
)
from stackwords.perms import is_identity
from stackwords.words import StackWord, validate_word


@st.composite
def perms(draw, max_n=8):
    n = draw(st.integers(0, max_n))
    return tuple(draw(st.permutations(range(1, n + 1))))


class TestStackSort:
    @pytest.mark.parametrize(
        "p, expected",
        [
            ((2, 3, 1), (2, 1, 3)),
            ((2, 3, 4, 1), (2, 3, 1, 4)),
            ((2, 3, 1, 4), (2, 1, 3, 4)),
            ((1, 2, 3, 4, 5), (1, 2, 3, 4, 5)),
            ((), ()),
            ((1,), (1,)),
        ],
    )
    def test_examples(self, p, expected):
        assert stack_sort(p) == expected

    @given(perms())
    def test_output_is_permutation(self, p):
        assert sorted(stack_sort(p)) == sorted(p)

    @given(perms())
    def test_last_entry_is_maximum(self, p):
        if p:
            assert stack_sort(p)[-1] == len(p)


class TestIterate:
    def test_two_passes_sort_231(self):
        assert iterate_stack_sort((2, 3, 1), 2) == (1, 2, 3)

    def test_chain_for_2341(self):
        assert iterate_stack_sort((2, 3, 4, 1), 1) == (2, 3, 1, 4)
        assert iterate_stack_sort((2, 3, 4, 1), 2) == (2, 1, 3, 4)
        assert iterate_stack_sort((2, 3, 4, 1), 3) == (1, 2, 3, 4)

    @given(perms())
    def test_zero_passes(self, p):
        assert iterate_stack_sort(p, 0) == p

    def test_negative_passes(self):
        with pytest.raises(ValueError):
            iterate_stack_sort((1,), -1)


class TestSortability:
    def test_231_needs_two_passes(self):
        assert not is_t_stack_sortable((2, 3, 1), 1)
        assert is_t_stack_sortable((2, 3, 1), 2)

    def test_2341_needs_three_passes(self):
        assert not is_t_stack_sortable((2, 3, 4, 1), 2)
        assert is_t_stack_sortable((2, 3, 4, 1), 3)

    @pytest.mark.parametrize("t", [1, 2, 3, 5])
    def test_identity_always_sortable(self, t):
        assert is_t_stack_sortable((1, 2, 3, 4), t)
        assert is_t_stack_sortable((), t)

    def test_pass_count_must_be_positive(self):
        with pytest.raises(ValueError):
            is_t_stack_sortable((1,), 0)

    @pytest.mark.parametrize("p, expected", [((1, 2, 3), 0), ((2, 3, 1), 2), ((2, 3, 4, 1), 3)])
    def test_min_sorting_passes(self, p, expected):
        assert min_sorting_passes(p) == expected

    @given(perms(max_n=7))
    def test_min_passes_at_most_n_minus_1(self, p):
        passes = min_sorting_passes(p)
        assert passes <= max(len(p) - 1, 0)
        if passes > 1:
            assert not is_t_stack_sortable(p, passes - 1)
        assert is_identity(iterate_stack_sort(p, passes))


class TestSeriesMachine:
    def test_single_entry_makes_each_move_once(self):
        run = run_series_machine((1,), 3)
        assert run.word.letters == "ABCD"
        assert run.output == (1,)

    def test_descent_word(self):
        run = run_series_machine((2, 1), 3)
        assert run.word.letters == "AABCBDCD"
        assert run.output == (1, 2)

    def test_one_stack_machine_is_stack_sort(self):
        run = run_series_machine((2, 3, 1), 1)
        assert run.output == stack_sort((2, 3, 1))
        assert run.word.letters == "ABAABB"

    def test_trace_length(self):
        for t in (1, 2, 3, 4):
            run = run_series_machine((3, 1, 2), t)
            assert len(run.word.letters) == (t + 1) * 3

    def test_matches_iterated_sort_exhaustively(self):
        result = verify.check_series_machine_equivalence(top=5)
        assert result.passed, result.witnesses

    @given(perms(max_n=7), st.integers(1, 4))
    def test_matches_iterated_sort_random(self, p, t):
        assert run_series_machine(p, t).output == iterate_stack_sort(p, t)

    @given(perms(max_n=7), st.integers(1, 4))
    def test_trace_is_a_valid_word(self, p, t):
        run = run_series_machine(p, t)
        assert validate_word(run.word.letters, t) == run.word

    def test_stack_count_bounds(self):
        with pytest.raises(ValueError):
            run_series_machine((1,), 0)
        with pytest.raises(ValueError):
            run_series_machine((1,), 25)

    def test_steps_not_recorded_by_default(self):
        assert run_series_machine((2, 1), 2).steps is None

    def test_step_records(self):
        run = run_series_machine((2, 1), 1, record_steps=True)
        assert [s.letter for s in run.steps] == list(run.word.letters)
        first = run.steps[0].as_record()
        assert first == {"step": 1, "letter": "A", "value": 2, "stacks": [[2]], "output": []}
        # stacks are snapshotted top-first
        two_in = run.steps[1].as_record()
        assert two_in == {"step": 2, "letter": "A", "value": 1, "stacks": [[1, 2]], "output": []}
        assert run.steps[-1].output == (1, 2)


class TestEncode:
    @pytest.mark.parametrize(
        "p, t, letters",
        [((1,), 3, "ABCD"), ((2, 1), 3, "AABCBDCD"), ((1, 2), 1, "ABAB")],
    )
    def test_examples(self, p, t, letters):
        assert encode(p, t).letters == letters

    def test_defined_for_unsortable_inputs(self):
        word = encode((2, 3, 1), 1)  # not 1-stack sortable
        assert validate_word(word.letters, 1) == word

    def test_genuine_words(self):
        assert is_genuine_word(encode((3, 1, 2), 3))
        assert is_genuine_word(encode((2, 3, 1), 2))

    def test_ballot_word_that_is_nobodys_trace(self):
        # valid ballot word, but re-encoding its decode gives AABCBDCD
        word = validate_word("AABBCCDD", 3)
        assert not is_genuine_word(word)

    def test_ballot_violations_are_not_genuine(self):
        assert not is_genuine_word(StackWord("ABBA", "AB"))
