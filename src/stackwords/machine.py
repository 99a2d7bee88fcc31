"""
One-pass stack sorting, its iterates, and the greedy series-of-stacks
machine whose move trace is the stack word of a permutation.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .perms import Perm, check_permutation
from .words import MOVE_LETTERS, StackWord, decode, default_alphabet


def stack_sort(p: Sequence[int]) -> Perm:
    """
    One pass through a single stack kept increasing top-to-bottom: each
    entry pops everything smaller than itself to the output, then goes on
    the stack; the stack is flushed at the end.

    >>> stack_sort((2, 3, 1))
    (2, 1, 3)
    >>> stack_sort((2, 3, 4, 1))
    (2, 3, 1, 4)
    """
    stack: list[int] = []
    out: list[int] = []
    for x in p:
        while stack and stack[-1] < x:
            out.append(stack.pop())
        stack.append(x)
    while stack:
        out.append(stack.pop())
    return tuple(out)


def iterate_stack_sort(p: Sequence[int], times: int) -> Perm:
    """
    Apply stack_sort the given number of times (0 returns p unchanged).
    Runs at most n-1 passes, which sort any n entries, since a sorted
    sequence is a fixed point; a p of 1..n stops sooner, once the identity
    appears. So a large count costs no more than n-1 passes, whatever p is.
    """
    if times < 0:
        raise ValueError(f"negative pass count {times}")
    cur = tuple(p)
    identity = tuple(range(1, len(cur) + 1))
    for _ in range(min(times, len(cur) - 1)):
        if cur == identity:
            break
        cur = stack_sort(cur)
    return cur


def is_t_stack_sortable(p: Sequence[int], t: int) -> bool:
    """
    True iff t passes of stack_sort turn p into the identity. Stops early
    once the identity appears (it is a fixed point). The last pass is
    never built: it fails at the first entry that leaves the stack out of
    turn, that is, anything but 1, 2, ..., n in order.

    >>> is_t_stack_sortable((2, 3, 1), 1), is_t_stack_sortable((2, 3, 1), 2)
    (False, True)
    """
    if t < 1:
        raise ValueError(f"pass count must be positive, got {t}")
    cur = iterate_stack_sort(p, t - 1) if t > 1 else p
    stack: list[int] = []
    want = 1  # the value the identity puts next
    for x in cur:
        while stack and stack[-1] < x:
            if stack.pop() != want:
                return False
            want += 1
        stack.append(x)
    # the flush pops the rest top first: they must be n, ..., want bottom-up
    return stack == list(range(len(cur), want - 1, -1))


def min_sorting_passes(p: Sequence[int]) -> int:
    """
    The least t with iterate_stack_sort(p, t) equal to the identity;
    always at most n-1. Raises ValueError unless p is a permutation of
    1..n, for which no number of passes would do.

    >>> min_sorting_passes((2, 3, 4, 1))
    3
    """
    cur = check_permutation(p)
    identity = tuple(range(1, len(cur) + 1))
    passes = 0
    while cur != identity:
        cur = stack_sort(cur)
        passes += 1
    return passes


@dataclass(frozen=True, slots=True)
class MachineStep:
    """
    One move of the series machine; stacks are snapshotted top-first.
    Consecutive steps share the snapshot tuples of the piles a move does
    not touch, which is safe because tuples never change.
    """

    step: int
    letter: str
    value: int
    stacks: tuple[tuple[int, ...], ...]
    output: tuple[int, ...]

    def as_record(self) -> dict:
        return {
            "step": self.step,
            "letter": self.letter,
            "value": self.value,
            "stacks": [list(s) for s in self.stacks],
            "output": list(self.output),
        }


@dataclass(frozen=True, slots=True)
class SeriesRun:
    word: StackWord
    output: Perm
    steps: tuple[MachineStep, ...] | None = None


# move code i is written as the i-th move letter, whatever the stack count
_LETTER_OF_CODE = bytes.maketrans(bytes(range(len(MOVE_LETTERS))), MOVE_LETTERS.encode("ascii"))


# The records below are built through their slot descriptors: the frozen
# __init__ makes one object.__setattr__ call per field, which the replay
# would pay at every move. The result is the same frozen instance (same
# type, equality, hash and repr), and it still refuses assignment. The
# setters are default arguments so that each call reads them as locals.
def _stack_word(
    letters: str,
    alphabet: str,
    _new=object.__new__,
    _letters=StackWord.letters.__set__,
    _alphabet=StackWord.alphabet.__set__,
) -> StackWord:
    word = _new(StackWord)
    _letters(word, letters)
    _alphabet(word, alphabet)
    return word


def _series_run(
    word: StackWord,
    output: Perm,
    steps: tuple[MachineStep, ...] | None,
    _new=object.__new__,
    _word=SeriesRun.word.__set__,
    _output=SeriesRun.output.__set__,
    _steps=SeriesRun.steps.__set__,
) -> SeriesRun:
    run = _new(SeriesRun)
    _word(run, word)
    _output(run, output)
    _steps(run, steps)
    return run


def _machine_step(
    step: int,
    letter: str,
    value: int,
    stacks: tuple[tuple[int, ...], ...],
    output: tuple[int, ...],
    _new=object.__new__,
    _step=MachineStep.step.__set__,
    _letter=MachineStep.letter.__set__,
    _value=MachineStep.value.__set__,
    _stacks=MachineStep.stacks.__set__,
    _output=MachineStep.output.__set__,
) -> MachineStep:
    record = _new(MachineStep)
    _step(record, step)
    _letter(record, letter)
    _value(record, value)
    _stacks(record, stacks)
    _output(record, output)
    return record


def run_series_machine(p: Sequence[int], stacks: int, record_steps: bool = False) -> SeriesRun:
    """
    Pass p through ``stacks`` stacks placed in series under the greedy
    rule, and return the move trace together with the output.

    Move priority at each step:

    1. if the next input entry fits (first stack empty, or entry smaller
       than its top), push it onto the first stack;
    2. otherwise move the top of the lowest-numbered stack whose top fits
       on the next stack (smaller than its top, or next stack empty);
    3. otherwise pop the final stack to the output.

    The output always equals iterate_stack_sort(p, stacks); the trace is
    what makes the machine interesting.

    >>> run_series_machine((2, 1), 3).word.letters
    'AABCBDCD'
    """
    p = check_permutation(p)
    alphabet = default_alphabet(stacks)
    t = stacks
    n = len(p)
    # Each pile stands on a sentinel n + 1, larger than every entry, so an
    # empty pile is one whose top is n + 1: a top fits on the next pile iff
    # it is smaller than that pile's top, and a sentinel never fits.
    piles: list[list[int]] = [[n + 1] for _ in range(t)]
    first, last = piles[0], piles[t - 1]
    # (code, source, target) of each move from one stack to the next
    transfers = list(zip(range(1, t), piles, piles[1:]))
    out: list[int] = []
    emit = out.append
    codes = bytearray()  # the letters as positions in the alphabet
    record = codes.append

    # Before each input entry x is pushed, make the other moves until it
    # fits on the first stack; after the last entry, until the output is
    # complete. Every push keeps its stack increasing from the top: a
    # transfer is made only onto a larger top, and x (distinct from every
    # entry) is pushed only once the first stack's top is not smaller.
    for x in p:
        while first[-1] < x:
            for code, source, target in transfers:
                if source[-1] < target[-1]:
                    target.append(source.pop())
                    record(code)
                    break
            else:
                emit(last.pop())
                record(t)
        first.append(x)
        record(0)
    # the same moves once the input is spent (repeated, not a call per move)
    while len(out) < n:
        for code, source, target in transfers:
            if source[-1] < target[-1]:
                target.append(source.pop())
                record(code)
                break
        else:
            emit(last.pop())
            record(t)

    if len(codes) != (t + 1) * n:
        raise RuntimeError(f"internal error: trace length {len(codes)} != {(t + 1) * n}")
    if piles != [[n + 1]] * t:  # an entry is left over, or a sentinel was emitted
        raise RuntimeError("internal error: the piles do not end on their sentinels alone")
    word = _stack_word(codes.translate(_LETTER_OF_CODE).decode("ascii"), alphabet)
    steps = _replay_steps(p, codes, alphabet) if record_steps else None
    return _series_run(word, tuple(out), steps)


def _replay_steps(p: Perm, codes: bytes, alphabet: str) -> tuple[MachineStep, ...]:
    # Replay the trace on top-first snapshot tuples. Each pile keeps the
    # snapshots it has held, bottom-up: a push adds one tuple, and a pop
    # goes back to the tuple from before the matching push instead of
    # slicing a new one. Every step shares the snapshots of the piles its
    # move leaves alone (and the output, unless it emits).
    t = len(alphabet) - 1
    held: list[list[tuple[int, ...]]] = [[()] for _ in range(t)]
    shown: list[tuple[int, ...]] = [()] * t
    out: tuple[int, ...] = ()
    pos = 0
    steps = []
    for step, code in enumerate(codes, start=1):
        if code:
            source = held[code - 1]
            moved = source.pop()[0]
            shown[code - 1] = source[-1]
        else:
            moved = p[pos]
            pos += 1
        if code < t:
            target = held[code]
            target.append((moved,) + target[-1])
            shown[code] = target[-1]
        else:
            out += (moved,)
        steps.append(_machine_step(step, alphabet[code], moved, tuple(shown), out))
    return tuple(steps)


def encode(p: Sequence[int], stacks: int) -> StackWord:
    """The stack word of p: the trace of the greedy series machine."""
    return run_series_machine(p, stacks).word


def is_genuine_word(word: StackWord) -> bool:
    """
    True iff the word is the actual trace of some permutation, i.e.
    re-encoding its decoded permutation reproduces it. Candidate words
    from :func:`stackwords.words.enumerate_a_placements` typically fail this.
    """
    try:
        q = decode(word)
    except ValueError:
        return False
    again = encode(q, word.stacks)
    if word.alphabet == again.alphabet:  # the standard letters: compare them as they are
        return again.letters == word.letters
    return again.indices() == word.indices()

