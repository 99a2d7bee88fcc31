import dataclasses
import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import stackwords.machine as machine_module
from stackwords import verify
from stackwords.counting import image_fertilities
from stackwords.machine import (
    MachineStep,
    SeriesRun,
    encode,
    is_genuine_word,
    is_t_stack_sortable,
    iterate_stack_sort,
    min_sorting_passes,
    run_series_machine,
    stack_sort,
)
from stackwords.perms import is_identity
from stackwords.words import StackWord, decode, enumerate_a_placements, validate_word


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

    def test_stops_at_the_fixed_point(self):
        # the identity is reached within n-1 passes; the rest are skipped
        assert iterate_stack_sort((2, 3, 4, 1), 10**12) == (1, 2, 3, 4)

    def test_stops_after_n_minus_1_passes_on_other_entries(self, monkeypatch):
        # (2, 3) never becomes the identity, but it is sorted, so a fixed
        # point: each call makes its n - 1 = 1 pass and returns
        passes = []

        def counted(p):
            passes.append(p)
            if len(passes) > 1:
                raise AssertionError("more than n - 1 passes")
            return stack_sort(p)

        monkeypatch.setattr(machine_module, "stack_sort", counted)
        assert iterate_stack_sort((2, 3), 10**9) == (2, 3)
        passes.clear()
        assert is_t_stack_sortable((2, 3), 10**9) is False


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

    @pytest.mark.parametrize(
        "p, message",
        [((1, 1), "duplicate value 1"), ((0,), "value 0 out of range 1..1"), ((1, 3), "value 3 out of range 1..2")],
    )
    def test_min_sorting_passes_refuses_a_non_permutation(self, p, message, monkeypatch):
        # no number of passes sorts these; a spy stops the pass loop
        # instead of letting it run forever
        passes = []

        def counted(q):
            passes.append(q)
            if len(passes) > 100:
                raise AssertionError(f"still sorting {p} after 100 passes")
            return stack_sort(q)

        monkeypatch.setattr(machine_module, "stack_sort", counted)
        with pytest.raises(ValueError) as caught:
            min_sorting_passes(p)
        assert str(caught.value) == message
        assert passes == []

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

    def test_runs_have_no_instance_dict(self):
        run = run_series_machine((2, 1), 2, record_steps=True)
        assert not hasattr(run, "__dict__")
        assert not hasattr(run.word, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            run.output = ()
        assert run == run_series_machine((2, 1), 2, record_steps=True)

    def test_step_records(self):
        run = run_series_machine((2, 1), 1, record_steps=True)
        assert [s.letter for s in run.steps] == list(run.word.letters)
        first = run.steps[0].as_record()
        assert first == {"step": 1, "letter": "A", "value": 2, "stacks": [[2]], "output": []}
        # stacks are snapshotted top-first
        two_in = run.steps[1].as_record()
        assert two_in == {"step": 2, "letter": "A", "value": 1, "stacks": [[1, 2]], "output": []}
        assert run.steps[-1].output == (1, 2)


def replayed_steps(p, letters, alphabet):
    """(letter, value, stacks top-first, output) after each move, from mutable piles."""
    t = len(alphabet) - 1
    piles = [[] for _ in range(t)]
    out = []
    pending = list(p)
    for letter in letters:
        code = alphabet.index(letter)
        moved = pending.pop(0) if code == 0 else piles[code - 1].pop()
        (piles[code] if code < t else out).append(moved)
        yield letter, moved, [pile[::-1] for pile in piles], list(out)


def reference_series_machine(p, t):
    """
    The greedy machine as a scan over the transfers on plain piles: push
    while the entry fits, else move the top of the lowest stack that fits
    on the next one, else emit. Returns the letters, the output and, for
    each move, (letter, value, stacks top-first, output).
    """
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXY"[: t + 1]
    n = len(p)
    piles = [[] for _ in range(t)]
    first, last = piles[0], piles[t - 1]
    out, letters, steps = [], [], []
    shown = [()] * t  # each pile top-first, sliced again after each move that touches it

    def move(code, value):
        for i in (code - 1, code):
            if 0 <= i < t:
                shown[i] = tuple(piles[i][::-1])
        letters.append(alphabet[code])
        steps.append((alphabet[code], value, tuple(shown), tuple(out)))

    for x in tuple(p) + (n + 1,):  # n + 1 ends the input: it fits nowhere
        while first and first[-1] < x or x > n and len(out) < n:
            for code in range(1, t):
                source, target = piles[code - 1], piles[code]
                if source and (not target or source[-1] < target[-1]):
                    target.append(source.pop())
                    move(code, target[-1])
                    break
            else:
                out.append(last.pop())
                move(t, out[-1])
        if x <= n:
            first.append(x)
            move(0, x)
    return "".join(letters), tuple(out), steps


def assert_matches_reference(p, t):
    run = run_series_machine(p, t, record_steps=True)
    letters, output, steps = reference_series_machine(p, t)
    assert run.word.letters == letters, (p, t)
    assert run.output == output, (p, t)
    assert [(s.letter, s.value, s.stacks, s.output) for s in run.steps] == steps, (p, t)
    assert [s.step for s in run.steps] == list(range(1, len(steps) + 1))


class TestAgainstReferences:
    @pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
    def test_series_machine_exhaustively(self, t):
        for n in range(8):
            for p in itertools.permutations(range(1, n + 1)):
                assert_matches_reference(p, t)

    def test_series_machine_at_length_60(self):
        rng = random.Random(60)
        for i in range(200):
            p = tuple(rng.sample(range(1, 61), 60))
            assert_matches_reference(p, 1 + i % 24)  # every stack count, about eight times each

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_sortability_exhaustively(self, t):
        for n in range(9):
            identity = tuple(range(1, n + 1))
            for p in itertools.permutations(identity):
                assert is_t_stack_sortable(p, t) == (iterate_stack_sort(p, t) == identity), (p, t)

    @pytest.mark.parametrize("p", [(), (1, 1), (3, 3, 1), (2, 2, 1), (5, 3)])
    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_sortability_of_non_permutations(self, p, t):
        # not validated: the answer is still whether t passes give 1..n
        assert is_t_stack_sortable(p, t) == (iterate_stack_sort(p, t) == tuple(range(1, len(p) + 1)))


class TestStepRecords:
    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_steps_match_an_independent_replay(self, t):
        for n in range(7):
            for p in itertools.permutations(range(1, n + 1)):
                run = run_series_machine(p, t, record_steps=True)
                assert isinstance(run.steps, tuple)
                assert len(run.steps) == len(run.word.letters) == (t + 1) * n
                replay = replayed_steps(p, run.word.letters, run.word.alphabet)
                for number, (step, (letter, value, stacks, output)) in enumerate(zip(run.steps, replay), start=1):
                    assert type(step) is MachineStep
                    assert (step.step, step.letter, step.value) == (number, letter, value)
                    assert [list(s) for s in step.stacks] == stacks
                    assert list(step.output) == output
                    # snapshots are shared between steps, so they must not change
                    assert type(step.stacks) is tuple and type(step.output) is tuple
                    assert all(type(s) is tuple for s in step.stacks)

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_a_pop_reuses_the_snapshot_from_before_its_push(self, t):
        for n in range(7):
            for p in itertools.permutations(range(1, n + 1)):
                steps = run_series_machine(p, t, record_steps=True).steps
                pushed = [[] for _ in range(t)]  # per pile, the indices of the steps that pushed onto it
                for i, step in enumerate(steps):
                    code = ord(step.letter) - ord("A")
                    if code:
                        j = pushed[code - 1].pop()
                        before = steps[j - 1].stacks[code - 1] if j else ()
                        assert step.stacks[code - 1] is before, (p, t, i)
                    if code < t:
                        pushed[code].append(i)

    def test_slotted_step_supports_replace_and_as_record(self):
        step = run_series_machine((2, 1), 1, record_steps=True).steps[1]
        assert not hasattr(step, "__dict__")
        changed = dataclasses.replace(step, value=7, output=(7,))
        assert changed.as_record() == {"step": 2, "letter": "A", "value": 7, "stacks": [[1, 2]], "output": [7]}
        assert step.value == 1  # the original is untouched
        with pytest.raises(dataclasses.FrozenInstanceError):
            step.value = 3

    def test_records_are_those_of_their_constructors(self):
        run = run_series_machine((3, 6, 1, 5, 8, 2, 7, 4), 4, record_steps=True)
        built = SeriesRun(word=StackWord(run.word.letters, run.word.alphabet), output=run.output, steps=run.steps)
        pairs = [(run, built), (run.word, built.word)]
        pairs += [(s, MachineStep(s.step, s.letter, s.value, s.stacks, s.output)) for s in run.steps]
        for record, made in pairs:
            assert type(record) is type(made)
            assert record == made and hash(record) == hash(made) and repr(record) == repr(made)
            assert not hasattr(record, "__dict__")
            field = dataclasses.fields(record)[0].name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, field, None)
            assert dataclasses.replace(record) == record

    def test_untraced_run_is_that_of_its_constructor(self):
        run = run_series_machine((2, 3, 1), 2)
        assert type(run) is SeriesRun and type(run.word) is StackWord
        assert run == SeriesRun(StackWord("ABAABCCBC", "ABC"), (1, 2, 3))
        assert repr(run) == repr(SeriesRun(StackWord("ABAABCCBC", "ABC"), (1, 2, 3)))


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

    def test_both_comparisons_agree_with_the_index_comparison(self, monkeypatch):
        # every candidate A-placement of every projection with n <= 6, over
        # ABCD (letters compared) and shifted to BCDE (indices compared)
        def by_indices(word):
            try:
                q = decode(word)
            except ValueError:
                return False
            return encode(q, word.stacks).indices() == word.indices()

        # the projections are the 2-stack words of the images, over BCD
        project, shift = str.maketrans("ABC", "BCD"), str.maketrans("ABCD", "BCDE")
        candidates = [
            w
            for n in range(1, 7)
            for q, _ in image_fertilities(n)
            for w in enumerate_a_placements(StackWord(encode(q, 2).letters.translate(project), "BCD"), n)
        ]
        expected = [by_indices(w) for w in candidates]
        assert 0 < sum(expected) < len(candidates)
        shifted = [StackWord(w.letters.translate(shift), "BCDE") for w in candidates]
        assert [by_indices(w) for w in shifted] == expected

        calls = []
        indices = StackWord.indices
        monkeypatch.setattr(StackWord, "indices", lambda self: calls.append(self) or indices(self))
        assert [is_genuine_word(w) for w in candidates] == expected
        assert calls == []  # standard letters: no index tuples built
        assert [is_genuine_word(w) for w in shifted] == expected
        assert len(calls) >= sum(expected)
