import collections.abc
import dataclasses
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given

import stackwords.machine as machine_module
from stackwords.counting import brute_force_count, image_fertilities
from stackwords.machine import (
    MachineStep,
    MachineSteps,
    SeriesRun,
    encode,
    is_genuine_word,
    is_t_stack_sortable,
    iterate_stack_sort,
    min_sorting_passes,
    run_series_machine,
    stack_sort,
)
from stackwords.perms import descent_count, is_identity
from stackwords.words import (
    MOVE_LETTERS,
    StackWord,
    _move_codes,
    count_factor,
    decode,
    enumerate_a_placements,
    image_word,
    validate_word,
)

from strategies import perms


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

    @given(perms(max_n=8))
    def test_output_is_permutation(self, p):
        assert sorted(stack_sort(p)) == sorted(p)

    @given(perms(max_n=8))
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

    @given(perms(max_n=8))
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
    @pytest.mark.parametrize("t, passes", [(1, 0), (2, 1), (3, 2), (10**9, 4)])
    def test_makes_min_t_n_minus_1_plain_passes(self, t, passes, monkeypatch):
        # no identity stop: exactly min(t, n) - 1 passes before the last
        # one, which is decided without building it
        cases = [(p, iterate_stack_sort(p, t) == (1, 2, 3, 4, 5)) for p in [(1, 2, 3, 4, 5), (2, 3, 4, 5, 1), (5, 4, 3, 2, 1)]]
        made = []

        def counted(p):
            made.append(p)
            return stack_sort(p)

        monkeypatch.setattr(machine_module, "stack_sort", counted)
        for p, expected in cases:
            made.clear()
            assert is_t_stack_sortable(p, t) is expected, (p, t)
            assert len(made) == passes, (p, t)
        made.clear()
        assert is_t_stack_sortable((), t) is True
        assert made == []

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
        assert dataclasses.astuple(run.steps[0]) == (1, "A", 2, ((2,),), ())
        # stacks are snapshotted top-first
        assert dataclasses.astuple(run.steps[1]) == (2, "A", 1, ((1, 2),), ())
        assert run.steps[-1].output == (1, 2)


def replayed_steps(p, letters, alphabet):
    """
    The oracle for the step records: replays the letters on mutable piles
    and yields (letter, value, stacks top-first, output) after each move.
    """
    t = len(alphabet) - 1
    piles = [[] for _ in range(t)]
    out = []
    pending = list(p)
    for letter in letters:
        code = alphabet.index(letter)
        moved = pending.pop(0) if code == 0 else piles[code - 1].pop()
        (piles[code] if code < t else out).append(moved)
        yield letter, moved, tuple(tuple(pile[::-1]) for pile in piles), tuple(out)


def reference_series_machine(p, t):
    """
    The oracle for the moves and the output: the greedy machine as a scan
    over the transfers on plain piles. Push while the entry fits, else move
    the top of the lowest stack that fits on the next one, else emit.
    Returns the letters and the output.
    """
    alphabet = MOVE_LETTERS[: t + 1]
    n = len(p)
    piles = [[] for _ in range(t)]
    first, last = piles[0], piles[t - 1]
    out, letters = [], []
    for x in tuple(p) + (n + 1,):  # n + 1 ends the input: it fits nowhere
        while first and first[-1] < x or x > n and len(out) < n:
            for code in range(1, t):
                source, target = piles[code - 1], piles[code]
                if source and (not target or source[-1] < target[-1]):
                    target.append(source.pop())
                    letters.append(alphabet[code])
                    break
            else:
                out.append(last.pop())
                letters.append(alphabet[t])
        if x <= n:
            first.append(x)
            letters.append(alphabet[0])
    return "".join(letters), tuple(out)


def assert_matches_reference(p, t):
    # the moves and output against the reference machine, then every step
    # record against the replay of the reference's letters
    run = run_series_machine(p, t, record_steps=True)
    letters, output = reference_series_machine(p, t)
    assert (run.word.letters, run.output) == (letters, output), (p, t)
    assert type(run.steps) is MachineSteps
    assert len(run.steps) == len(letters) == (t + 1) * len(p), (p, t)
    replay = replayed_steps(p, letters, MOVE_LETTERS[: t + 1])
    for number, (step, (letter, value, stacks, out)) in enumerate(zip(run.steps, replay), start=1):
        assert type(step) is MachineStep
        record = (step.step, step.letter, step.value, step.stacks, step.output)
        assert record == (number, letter, value, stacks, out), (p, t)
        # snapshots are shared between steps, so they must not change
        assert type(step.stacks) is tuple and type(step.output) is tuple
        assert all(type(s) is tuple for s in step.stacks)


class TestAgainstReferences:
    @pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
    def test_series_machine_exhaustively(self, t):
        for n in range(8):
            for p in itertools.permutations(range(1, n + 1)):
                assert_matches_reference(p, t)

    def test_three_stack_rule_at_length_8(self):
        # the written-out t = 3 rule over every input the sweep gives it;
        # step records are checked against their replay at n <= 7 above
        for p in itertools.permutations(range(1, 9)):
            run = run_series_machine(p, 3)
            assert (run.word.letters, run.output) == reference_series_machine(p, 3), p

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


def assert_projects(p, t):
    # drop the input pushes from the trace of p and move each letter down
    # one: the image's (t-1)-stack word; at t = 3 its BB factors (over BCD,
    # as image_word leaves them) count the image's descents
    letters, q = encode(p, t).letters, stack_sort(p)
    down = str.maketrans(MOVE_LETTERS[1 : t + 1], MOVE_LETTERS[:t])
    assert letters.replace(MOVE_LETTERS[0], "").translate(down) == encode(q, t - 1).letters, (p, t)
    if t == 3:
        assert count_factor(image_word(StackWord(letters, "ABCD")), "BB") == descent_count(q), p


class TestEveryTrace:
    # The stack-word facts hold for every permutation, t-stack sortable or
    # not: every p with n <= 6, every p with n = 7 at t = 3, and (the
    # projection) 100 seeded p with n <= 80 at t <= 24.

    @pytest.mark.parametrize("t", [2, 3, 4, 5])
    def test_the_projection_is_the_images_word_exhaustively(self, t):
        for n in range(8 if t == 3 else 7):
            for p in itertools.permutations(range(1, n + 1)):
                assert_projects(p, t)

    def test_the_projection_is_the_images_word_at_length_80(self):
        rng = random.Random(80)
        for _ in range(100):
            n = rng.randint(1, 80)
            assert_projects(tuple(rng.sample(range(1, n + 1), n)), rng.randint(2, 24))

    @pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
    def test_every_trace_is_genuine_and_the_traces_number_the_sortable(self, t):
        # a trace decodes to a t-sortable permutation with the same trace,
        # so the n! traces of one n are as many as the t-sortable p
        for n in range(8 if t == 3 else 7):
            traces = set()
            for p in itertools.permutations(range(1, n + 1)):
                w = encode(p, t)
                assert is_genuine_word(w), (p, t)
                assert is_t_stack_sortable(decode(w), t), (p, t)
                traces.add(w.letters)
            assert len(traces) == brute_force_count(n, t), (n, t)


def count_inits(monkeypatch, cls):
    """The arguments of every cls built from here on."""
    calls = []
    init = cls.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting_init)
    return calls


class TestStepRecords:
    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_a_pop_reuses_the_snapshot_from_before_its_push(self, t):
        for n in range(7):
            for p in itertools.permutations(range(1, n + 1)):
                steps = tuple(run_series_machine(p, t, record_steps=True).steps)  # one read
                pushed = [[] for _ in range(t)]  # per pile, the indices of the steps that pushed onto it
                for i, step in enumerate(steps):
                    code = ord(step.letter) - ord("A")
                    if code:
                        j = pushed[code - 1].pop()
                        before = steps[j - 1].stacks[code - 1] if j else ()
                        assert step.stacks[code - 1] is before, (p, t, i)
                    if code < t:
                        pushed[code].append(i)

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_every_step_comes_from_the_constructor(self, t, monkeypatch):
        calls = count_inits(monkeypatch, MachineStep)
        for p in [(), (1,), (2, 1), (2, 3, 1), (3, 1, 4, 5, 2), (6, 1, 5, 2, 4, 3, 7)]:
            calls.clear()
            steps = run_series_machine(p, t, record_steps=True).steps
            assert calls == [], (p, t)  # nothing is built until the steps are read
            tuple(steps)
            assert len(calls) == len(steps) == (t + 1) * len(p), (p, t)

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_reversed_replays_once(self, t, monkeypatch):
        # not one replay per index, as the sequence protocol's fallback
        # through steps[i] would make
        calls = count_inits(monkeypatch, MachineStep)
        for p in [(), (1,), (2, 1), (2, 3, 1), (3, 1, 4, 5, 2), tuple(range(60, 0, -1))]:
            steps = run_series_machine(p, t, record_steps=True).steps
            calls.clear()
            backwards = list(reversed(steps))
            assert len(calls) == len(steps) == (t + 1) * len(p), (p, t)
            assert backwards == list(steps)[::-1], (p, t)

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_indexing_replays_the_records_of_a_full_read(self, t):
        for p in [(), (1,), (2, 1), (2, 3, 1), (3, 1, 4, 5, 2), (6, 1, 5, 2, 4, 3, 7)]:
            steps = run_series_machine(p, t, record_steps=True).steps
            records = list(steps)
            assert list(steps) == records  # a second read gives equal records
            size = len(records)
            assert len(steps) == size
            for i in range(size):
                assert steps[i] == records[i] and steps[i - size] == records[i - size], (p, t, i)
            for outside in (size, -size - 1):
                with pytest.raises(IndexError):
                    steps[outside]

    def test_the_view_is_a_frozen_slotted_record_without_sequence_mixins(self):
        run = run_series_machine((3, 1, 4, 5, 2), 3, record_steps=True)
        rerun = run_series_machine((3, 1, 4, 5, 2), 3, record_steps=True)
        assert run == rerun and hash(run) == hash(rerun)
        assert run.steps == MachineSteps((3, 1, 4, 5, 2), run.word)
        assert run.steps.word is run.word
        assert not hasattr(run.steps, "__dict__")
        assert not isinstance(run.steps, collections.abc.Sequence)
        with pytest.raises(dataclasses.FrozenInstanceError):
            run.steps.word = None
        with pytest.raises(TypeError):
            run.steps[1:3]

    def test_a_kept_traced_run_holds_no_step_records(self):
        # eager step records held about 79 KB per run at this size
        rng = random.Random(60)
        perms = [tuple(rng.sample(range(1, 61), 60)) for _ in range(200)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            runs = [run_series_machine(p, 4, record_steps=True) for p in perms]
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held / len(runs) < 4096, held / len(runs)

    def test_slotted_step_supports_replace(self):
        step = run_series_machine((2, 1), 1, record_steps=True).steps[1]
        assert not hasattr(step, "__dict__")
        changed = dataclasses.replace(step, value=7, output=(7,))
        assert dataclasses.astuple(changed) == (2, "A", 7, ((1, 2),), (7,))
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


class TestOneKernel:
    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_only_run_series_machine_builds_a_run(self, t, monkeypatch):
        calls = count_inits(monkeypatch, SeriesRun)
        for p in [(), (1,), (2, 1), (2, 3, 1), (3, 1, 4, 5, 2), (6, 1, 5, 2, 4, 3, 7)]:
            calls.clear()
            word = encode(p, t)
            assert is_genuine_word(word)
            assert calls == [], (p, t)
            assert run_series_machine(p, t).word == word
            assert len(calls) == 1, (p, t)

    def test_genuine_words_by_the_old_definition(self, monkeypatch):
        # the definition through the public API: re-encode the decoded
        # permutation and compare the move codes of the two words
        def by_reencoding(word):
            try:
                q = decode(word)
            except ValueError:
                return False
            again = encode(q, word.stacks)
            return _move_codes(again.letters, again.alphabet) == _move_codes(word.letters, word.alphabet)

        project, window = str.maketrans("ABC", "BCD"), str.maketrans("ABCD", "VWXY")
        candidates, projections = [], []
        for n in range(1, 7):
            for q, _ in image_fertilities(n):
                v = StackWord(encode(q, 2).letters.translate(project), "BCD")
                projections.append(v)
                candidates.extend(enumerate_a_placements(v, n))
        # over BCD: the projections, genuine 2-stack words, and their reversals,
        # mostly not even ballot words
        bcd = projections + [StackWord(v.letters[::-1], "BCD") for v in projections]
        vwxy = [StackWord(w.letters.translate(window), "VWXY") for w in candidates]
        # a ballot fault, and a ballot word that is nobody's trace
        faults = [StackWord("ABBA", "AB"), StackWord("AABBCCDD", "ABCD")]
        expected = {w: by_reencoding(w) for w in candidates + bcd + vwxy + faults}
        assert 0 < sum(expected[w] for w in candidates) < len(candidates)
        assert 0 < sum(expected[w] for w in bcd) < len(bcd)
        assert [expected[w] for w in vwxy] == [expected[w] for w in candidates]
        assert [expected[w] for w in faults] == [False, False]

        calls = count_inits(monkeypatch, SeriesRun)
        assert {w: is_genuine_word(w) for w in expected} == expected
        assert calls == []


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
        # ABCD and shifted to BCDE: the move codes are compared either way
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
        assert [is_genuine_word(w) for w in shifted] == expected
        assert calls == []  # no index tuples built over either alphabet
