"""
One-pass stack sorting, its iterates, and the greedy series-of-stacks
machine whose move trace is the stack word of a permutation.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .perms import Perm, check_permutation, is_identity
from .words import MAX_STACKS, StackWord, decode, default_alphabet


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
    """Apply stack_sort the given number of times (0 returns p unchanged)."""
    if times < 0:
        raise ValueError(f"negative pass count {times}")
    cur = tuple(p)
    for _ in range(times):
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
    cur = tuple(p)
    for _ in range(t):
        if is_identity(cur):
            return True
        cur = stack_sort(cur)
    return is_identity(cur)


def min_sorting_passes(p: Sequence[int]) -> int:
    """
    The least t with iterate_stack_sort(p, t) equal to the identity;
    always at most n-1.

    >>> min_sorting_passes((2, 3, 4, 1))
    3
    """
    cur = tuple(p)
    passes = 0
    while not is_identity(cur):
        cur = stack_sort(cur)
        passes += 1
    return passes


@dataclass(frozen=True)
class MachineStep:
    """One move of the series machine; stacks are snapshotted top-first."""

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


@dataclass(frozen=True)
class SeriesRun:
    word: StackWord
    output: Perm
    steps: tuple[MachineStep, ...] | None = None


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
    if not 1 <= stacks <= MAX_STACKS:
        raise ValueError(f"stack count {stacks} outside 1..{MAX_STACKS}")
    t = stacks
    n = len(p)
    alphabet = default_alphabet(t)
    piles: list[list[int]] = [[] for _ in range(t)]
    out: list[int] = []
    letters: list[str] = []
    steps: list[MachineStep] | None = [] if record_steps else None
    pos = 0

    while len(out) < n:
        if pos < n and (not piles[0] or p[pos] < piles[0][-1]):
            moved = p[pos]
            pos += 1
            piles[0].append(moved)
            letter = 0
            landed = piles[0]
        else:
            for i in range(t - 1):
                if piles[i] and (not piles[i + 1] or piles[i][-1] < piles[i + 1][-1]):
                    moved = piles[i].pop()
                    piles[i + 1].append(moved)
                    letter = i + 1
                    landed = piles[i + 1]
                    break
            else:
                if not piles[t - 1]:
                    raise RuntimeError("internal error: no move available but output incomplete")
                moved = piles[t - 1].pop()
                out.append(moved)
                letter = t
                landed = None
        if landed is not None and len(landed) >= 2 and landed[-1] >= landed[-2]:
            raise RuntimeError(
                f"internal error: stack order violated placing {moved} on {landed[-2]}"
            )
        letters.append(alphabet[letter])
        if steps is not None:
            steps.append(
                MachineStep(
                    step=len(letters),
                    letter=alphabet[letter],
                    value=moved,
                    stacks=tuple(tuple(reversed(pile)) for pile in piles),
                    output=tuple(out),
                )
            )

    if len(letters) != (t + 1) * n:
        raise RuntimeError(f"internal error: trace length {len(letters)} != {(t + 1) * n}")
    word = StackWord("".join(letters), alphabet)
    return SeriesRun(word=word, output=tuple(out), steps=tuple(steps) if steps is not None else None)


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
    return encode(q, word.stacks).indices() == word.indices()

