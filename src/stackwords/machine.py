"""
One-pass stack sorting, its iterates, and the greedy series-of-stacks
machine whose move trace is the stack word of a permutation.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

from .perms import Perm, check_permutation
from .words import MOVE_LETTERS, StackWord, _move_codes, decode, default_alphabet

__all__ = [
    "stack_sort",
    "iterate_stack_sort",
    "is_t_stack_sortable",
    "min_sorting_passes",
    "MachineStep",
    "MachineSteps",
    "SeriesRun",
    "run_series_machine",
    "encode",
    "is_genuine_word",
]


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
    True iff t passes of stack_sort turn p into the identity. It makes
    min(t, n) - 1 plain passes, since n - 1 passes sort any n distinct
    entries and a sorted sequence is a fixed point, so a huge t costs no
    more than n passes; it looks for the identity only in the last pass.
    That pass is never built: it fails at the first entry that leaves the
    stack out of turn, that is, anything but 1, 2, ..., n in order.

    >>> is_t_stack_sortable((2, 3, 1), 1), is_t_stack_sortable((2, 3, 1), 2)
    (False, True)
    """
    if t < 1:
        raise ValueError(f"pass count must be positive, got {t}")
    cur = p
    if t > 1:  # at t = 1 no loop is set up: that alone measured +30% per call
        for _ in range(min(t, len(p)) - 1):
            cur = stack_sort(cur)
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


@dataclass(frozen=True, slots=True)
class MachineSteps:
    """
    The steps of a traced run, replayed from its stack word on each read
    rather than stored: it holds the run's checked input and its word, so
    a run that is kept costs its word, not (t+1)n records.

    Iterating yields one :class:`MachineStep` per move, in order. Within
    one read a pop reuses the snapshot from before its push, and each step
    shares the snapshots of the piles its move leaves alone. ``len`` is
    the word's length. ``steps[i]`` takes an int, negative counting from
    the end, replays from the first move and keeps nothing; a caller that
    reads many steps should iterate once instead. ``reversed`` replays
    once and holds that read's records while it yields them backwards.
    """

    permutation: Perm
    word: StackWord

    def __len__(self) -> int:
        return len(self.word.letters)

    def __iter__(self) -> Iterator[MachineStep]:
        # Replay the trace on top-first snapshot tuples. Each pile keeps the
        # snapshots it has held, bottom-up: a push adds one tuple, and a pop
        # goes back to the tuple from before the matching push instead of
        # slicing a new one.
        p, alphabet = self.permutation, self.word.alphabet
        t = len(alphabet) - 1
        held: list[list[tuple[int, ...]]] = [[()] for _ in range(t)]
        shown: list[tuple[int, ...]] = [()] * t
        out: tuple[int, ...] = ()
        pos = 0
        for step, code in enumerate(_move_codes(self.word.letters, alphabet), start=1):
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
            yield MachineStep(step, alphabet[code], moved, tuple(shown), out)

    def __reversed__(self) -> Iterator[MachineStep]:
        return reversed(list(self))

    def __getitem__(self, index: int) -> MachineStep:
        size = len(self)
        i = operator.index(index)
        if i < 0:
            i += size
        if not 0 <= i < size:
            raise IndexError(f"step index {index} outside a run of {size} steps")
        return next(itertools.islice(self, i, None))


@dataclass(frozen=True, slots=True)
class SeriesRun:
    """
    The trace and output of one pass through the series machine. ``steps``
    is None unless the run was made with ``record_steps``; then it is a
    :class:`MachineSteps` view that replays the run's moves from ``word``
    on each read, so every read yields equal records.
    """

    word: StackWord
    output: Perm
    steps: MachineSteps | None = None


# move code i is written as the i-th move letter, whatever the stack count
_LETTER_OF_CODE = bytes.maketrans(bytes(range(len(MOVE_LETTERS))), MOVE_LETTERS.encode("ascii"))


def _greedy_moves(p: Perm, t: int) -> tuple[bytearray, list[int]]:
    # The greedy machine on a checked p with 1 <= t <= MAX_STACKS stacks:
    # its move codes (each letter's position in the alphabet) and its output.
    n = len(p)
    # Each pile stands on a sentinel n + 1, larger than every entry, so an
    # empty pile is one whose top is n + 1: a top fits on the next pile iff
    # it is smaller than that pile's top, and a sentinel never fits.
    piles: list[list[int]] = [[n + 1] for _ in range(t)]
    out: list[int] = []
    emit = out.append
    codes = bytearray()
    record = codes.append

    # Before each input entry x is pushed, make the other moves until it
    # fits on the first stack; after the last entry, until the output is
    # complete. Every push keeps its stack increasing from the top: a
    # transfer is made only onto a larger top, and x (distinct from every
    # entry) is pushed only once the first stack's top is not smaller.
    if t == 3:
        # the paper's three stacks, the same rule written out: B, else C, else D
        a, b, c = piles
        for x in p:
            while a[-1] < x:
                if a[-1] < b[-1]:
                    b.append(a.pop())
                    record(1)
                elif b[-1] < c[-1]:
                    c.append(b.pop())
                    record(2)
                else:
                    emit(c.pop())
                    record(3)
            a.append(x)
            record(0)
        # the same moves once the input is spent (repeated, not a call per move)
        while len(out) < n:
            if a[-1] < b[-1]:
                b.append(a.pop())
                record(1)
            elif b[-1] < c[-1]:
                c.append(b.pop())
                record(2)
            else:
                emit(c.pop())
                record(3)
    else:
        first, last = piles[0], piles[t - 1]
        # (code, source, target) of each move from one stack to the next
        transfers = list(zip(range(1, t), piles, piles[1:]))
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
        # the same moves once the input is spent
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
    return codes, out


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

    One private kernel makes the moves for this function, :func:`encode`
    and :func:`is_genuine_word`. At three stacks it writes the rule out
    over the piles A, B and C: a top of A that fits on B moves (letter
    B), else a top of B that fits on C moves (C), else C pops to the
    output (D). Every other stack count scans the transfers in order.

    The output always equals iterate_stack_sort(p, stacks); the trace is
    what makes the machine interesting.

    >>> run_series_machine((2, 1), 3).word.letters
    'AABCBDCD'
    """
    p = check_permutation(p)
    alphabet = default_alphabet(stacks)
    codes, out = _greedy_moves(p, stacks)
    word = StackWord(codes.translate(_LETTER_OF_CODE).decode("ascii"), alphabet)
    return SeriesRun(word, tuple(out), MachineSteps(p, word) if record_steps else None)


def encode(p: Sequence[int], stacks: int) -> StackWord:
    """
    The stack word of p: the trace of the greedy series machine, from the
    kernel behind :func:`run_series_machine` (the three-stack rule written
    out at t = 3), with no run record and no output tuple built.
    """
    p = check_permutation(p)
    alphabet = default_alphabet(stacks)
    return StackWord(_greedy_moves(p, stacks)[0].translate(_LETTER_OF_CODE).decode("ascii"), alphabet)


def is_genuine_word(word: StackWord) -> bool:
    """
    True iff the word is the actual trace of some permutation, i.e.
    re-encoding its decoded permutation reproduces it, move code for move
    code, over whatever window of the move letters the word uses. The
    machine's move codes are compared with the word's directly; no letters
    are built. Candidate words from
    :func:`stackwords.words.enumerate_a_placements` typically fail this.

    Every t-stack trace is genuine and decodes to a t-stack sortable
    permutation, so the traces of all n! permutations number the
    t-sortable ones: measured for n <= 7 and t <= 5, and at n = 8 for
    t <= 4 (1430, 9614, 21426 and 31104 words), not proved.
    """
    try:
        q = decode(word)
    except ValueError:
        return False
    # decode returns a permutation of 1..n, and it refuses any stack count
    # outside 1..MAX_STACKS, so q and word.stacks are checked
    return _greedy_moves(q, word.stacks)[0] == _move_codes(word.letters, word.alphabet)
