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
    Stops once the identity appears, a fixed point that any p of length n
    reaches within n-1 passes, so large counts cost no more than that.
    """
    if times < 0:
        raise ValueError(f"negative pass count {times}")
    cur = tuple(p)
    identity = tuple(range(1, len(cur) + 1))
    for _ in range(times):
        if cur == identity:
            break
        cur = stack_sort(cur)
    return cur


def is_t_stack_sortable(p: Sequence[int], t: int) -> bool:
    """
    True iff t passes of stack_sort turn p into the identity. Stops early
    once the identity appears (it is a fixed point).

    >>> is_t_stack_sortable((2, 3, 1), 1), is_t_stack_sortable((2, 3, 1), 2)
    (False, True)
    """
    if t < 1:
        raise ValueError(f"pass count must be positive, got {t}")
    return iterate_stack_sort(p, t) == tuple(range(1, len(p) + 1))


def min_sorting_passes(p: Sequence[int]) -> int:
    """
    The least t with iterate_stack_sort(p, t) equal to the identity;
    always at most n-1.

    >>> min_sorting_passes((2, 3, 4, 1))
    3
    """
    cur = tuple(p)
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
    piles: list[list[int]] = [[] for _ in range(t)]
    first, last = piles[0], piles[t - 1]
    # (code, source, target) of each move from one stack to the next
    transfers = list(zip(range(1, t), piles, piles[1:]))
    out: list[int] = []
    codes = bytearray()  # the letters as positions in the alphabet
    record = codes.append

    # Before each input entry x is pushed, make the other moves until it
    # fits on the first stack; after the last entry, until the output is
    # complete. n + 1 stands for the end of the input: it fits nowhere.
    # Every push keeps its stack increasing from the top: a transfer is
    # made only onto a larger top, and x (distinct from every entry) is
    # pushed only once the first stack's top is not smaller.
    for x in p + (n + 1,):
        while first and first[-1] < x or x > n and len(out) < n:
            for code, source, target in transfers:
                if source and (not target or source[-1] < target[-1]):
                    target.append(source.pop())
                    record(code)
                    break
            else:
                if not last:
                    raise RuntimeError("internal error: no move available but output incomplete")
                out.append(last.pop())
                record(t)
        if x <= n:
            first.append(x)
            record(0)

    if len(codes) != (t + 1) * n:
        raise RuntimeError(f"internal error: trace length {len(codes)} != {(t + 1) * n}")
    word = StackWord(codes.translate(_LETTER_OF_CODE).decode("ascii"), alphabet)
    steps = _replay_steps(p, codes, alphabet) if record_steps else None
    return SeriesRun(word=word, output=tuple(out), steps=steps)


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
        steps.append(MachineStep(step, alphabet[code], moved, tuple(shown), out))
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

