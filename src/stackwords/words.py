"""
Stack words: the move records of permutations traversing stacks in series.

Sending n entries through t stacks uses t+1 kinds of moves, so the full
trace is a word with exactly n copies of each of t+1 letters. Letters are
uppercase, in move order: the first letter pushes from the input onto the
first stack, each middle letter moves a stack top to the next stack, the
last letter emits from the final stack to the output. The standard
alphabet for t stacks is ``"AB"``, ``"ABC"``, ``"ABCD"``, ...

Every trace satisfies the ballot condition: in each prefix the letter
counts weakly decrease along the alphabet (the i-th occurrence of each
letter precedes the i-th occurrence of the next one). The converse fails
for t >= 2: a ballot word need not be the trace of any permutation, which
is exactly what makes such words useful as an over-counting device.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

MAX_STACKS = 24
MOVE_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXY"


def default_alphabet(stacks: int) -> str:
    """The t+1 standard letters for a t-stack word."""
    if not 1 <= stacks <= MAX_STACKS:
        raise ValueError(f"stack count {stacks} outside 1..{MAX_STACKS}")
    return MOVE_LETTERS[: stacks + 1]


@dataclass(frozen=True)
class StackWord:
    """
    A word over an ordered move alphabet. ``alphabet`` lists the t+1
    letters in move order; a projection may use a shifted alphabet such
    as ``"BCD"`` for a 2-stack word. The constructor does not validate:
    use :func:`validate_word` for checked construction.
    """

    letters: str
    alphabet: str

    @property
    def stacks(self) -> int:
        return len(self.alphabet) - 1

    @property
    def entries(self) -> int:
        return len(self.letters) // len(self.alphabet)

    def indices(self) -> tuple[int, ...]:
        """Letters as positions in the alphabet (0 = input push)."""
        pos = {ch: i for i, ch in enumerate(self.alphabet)}
        try:
            return tuple(pos[ch] for ch in self.letters)
        except KeyError as exc:
            letter = exc.args[0]
            at = self.letters.index(letter) + 1
            raise ValueError(f"unknown letter {letter!r} at position {at}, not in alphabet {self.alphabet!r}") from None

    def __str__(self) -> str:
        return self.letters


def validate_word(text: str, stacks: int, alphabet: str | None = None) -> StackWord:
    """
    Parse and validate a stack word: known letters only, equal letter
    counts, and the ballot condition on every prefix.

    >>> validate_word("AABB", 1).entries
    2
    >>> validate_word("ABBA", 1)
    Traceback (most recent call last):
        ...
    ValueError: ballot condition violated at position 3: prefix 'ABB' has more 'B' than 'A'
    """
    if not 1 <= stacks <= MAX_STACKS:
        raise ValueError(f"stack count {stacks} outside 1..{MAX_STACKS}")
    if alphabet is None:
        alphabet = default_alphabet(stacks)
    if len(alphabet) != stacks + 1:
        raise ValueError(f"alphabet {alphabet!r} does not have {stacks + 1} letters")
    pos = {ch: i for i, ch in enumerate(alphabet)}
    counts = [0] * len(alphabet)
    for at, ch in enumerate(text, start=1):
        i = pos.get(ch)
        if i is None:
            raise ValueError(f"unknown letter {ch!r} at position {at}")
        counts[i] += 1
        if i > 0 and counts[i] > counts[i - 1]:
            raise ValueError(
                f"ballot condition violated at position {at}: prefix {text[:at]!r} "
                f"has more {ch!r} than {alphabet[i - 1]!r}"
            )
    if len(set(counts)) > 1:
        named = ", ".join(f"{ch}:{c}" for ch, c in zip(alphabet, counts))
        raise ValueError(f"unequal letter counts ({named})")
    return StackWord(text, alphabet)


def count_factor(word: StackWord | str, factor: str) -> int:
    """
    Occurrences of ``factor`` as a contiguous substring, counted with
    overlaps: "AA" occurs twice in "AAA".

    >>> count_factor("AAA", "AA")
    2
    """
    letters = word.letters if isinstance(word, StackWord) else word
    if not factor:
        raise ValueError("empty factor")
    return sum(1 for i in range(len(letters) - len(factor) + 1) if letters.startswith(factor, i))


# Factors that can never occur in the 3-stack trace of a permutation.
# BB, CC, BAB and CB A^j C would put a larger entry on top of a smaller
# one in the second or third stack; DA, DB and CA would mean the greedy
# rule skipped a move that was already available.
_FORBIDDEN_RULES = (
    ("BB", re.compile(r"(?=BB)")),
    ("CC", re.compile(r"(?=CC)")),
    ("BAB", re.compile(r"(?=BAB)")),
    ("CBA^jC", re.compile(r"(?=CBA*C)")),
    ("DA", re.compile(r"(?=DA)")),
    ("DB", re.compile(r"(?=DB)")),
    ("CA", re.compile(r"(?=CA)")),
)


def forbidden_factor_violations(word: StackWord) -> list[tuple[str, int]]:
    """
    Scan a 3-stack word for the seven forbidden factors and return every
    occurrence as ``(rule, start_index)``, ordered by position. An empty
    list means the word passes all necessary trace conditions (which are
    not sufficient: a clean word may still be nobody's trace).

    >>> forbidden_factor_violations(validate_word("AABCBDCD", 3))
    []
    """
    if word.alphabet != "ABCD":
        raise ValueError(f"forbidden-factor rules apply to 3-stack words over ABCD, not {word.alphabet!r}")
    hits = []
    for rule, pattern in _FORBIDDEN_RULES:
        for m in pattern.finditer(word.letters):
            hits.append((rule, m.start()))
    hits.sort(key=lambda h: (h[1], h[0]))
    return hits


def decode(word: StackWord) -> tuple[int, ...]:
    """
    Replay a word with anonymous tokens and read off the permutation it
    encodes: the k-th emitted token is assigned value k, and the values
    are returned in original input order.

    For the trace of a t-stack sortable permutation p this recovers p
    exactly (the machine emits such a p in sorted order). Any ballot word
    replays without error, but the result is only meaningful as "the
    permutation this word would sort"; to test whether the word really is
    a trace, see :func:`stackwords.machine.is_genuine_word`.

    >>> decode(validate_word("AABB", 1))
    (2, 1)
    >>> decode(validate_word("ABAB", 1))
    (1, 2)
    """
    t = word.stacks
    if t < 1:
        raise ValueError(f"cannot replay a word over the {len(word.alphabet)}-letter alphabet {word.alphabet!r}")
    stacks: list[list[int]] = [[] for _ in range(t)]
    value_of: dict[int, int] = {}
    next_token = 0
    emitted = 0
    for at, i in enumerate(word.indices(), start=1):
        if i == 0:
            stacks[0].append(next_token)
            next_token += 1
        else:
            if not stacks[i - 1]:
                raise ValueError(f"letter {word.letters[at - 1]!r} at position {at} pops an empty stack")
            token = stacks[i - 1].pop()
            if i < t:
                stacks[i].append(token)
            else:
                emitted += 1
                value_of[token] = emitted
    if any(stacks) or next_token != emitted:
        raise ValueError("word leaves entries stranded in the stacks")
    return tuple(value_of[tok] for tok in range(next_token))


def image_word(word: StackWord) -> StackWord:
    """
    Drop all input-push letters from a 3-stack word, leaving the subword
    over {B, C, D}: the 2-stack word describing how the once-sorted image
    traverses the last two stacks. Dropping A's can create BB factors.

    >>> image_word(validate_word("AABCBDCD", 3)).letters
    'BCBDCD'
    """
    if word.alphabet != "ABCD":
        raise ValueError(f"projection applies to 3-stack words over ABCD, not {word.alphabet!r}")
    return StackWord(word.letters.replace("A", ""), "BCD")


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    # All nonnegative vectors of the given length summing to total, in
    # lexicographic order (so the stream order is reproducible).
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def enumerate_a_placements(v: StackWord, entries: int) -> Iterator[StackWord]:
    """
    Given a 2-stack word v over {B, C, D} with k-1 BB factors, generate
    every way to reinsert the n input-push A's that could make v the
    projection of a 3-stack trace:

    - two A's are forced inside each BB factor (no BB or BAB allowed),
      and one A is forced in front of the first B;
    - the remaining n-2k+1 free A's may only go left of the first B or
      immediately after a non-final B (an A after any other letter would
      create a CA or DA factor), giving n admissible slots.

    The stream has exactly binomial(2n-2k, n-1) distinct words. They are
    candidates only: each genuine 3-stack trace with projection v appears,
    but most candidates are not the trace of any permutation.
    """
    if v.alphabet != "BCD":
        raise ValueError(f"expected a projected word over BCD, got alphabet {v.alphabet!r}")
    if len(v.letters) != 3 * entries:
        raise ValueError(f"word length {len(v.letters)} does not match {entries} entries")
    validate_word(v.letters, 2, alphabet="BCD")
    if entries < 1:
        raise ValueError("need at least one entry")

    b_positions = [i for i, ch in enumerate(v.letters) if ch == "B"]
    forced = [1] + [2 if v.letters[b + 1] == "B" else 0 for b in b_positions[:-1]]
    free = entries - sum(forced)
    if free < 0:
        raise ValueError(
            f"{count_factor(v, 'BB')} BB factors force {sum(forced)} A's, more than the {entries} available"
        )

    slot_after = {b: slot for slot, b in enumerate(b_positions[:-1], start=1)}
    for occupancy in _compositions(free, entries):
        parts = ["A" * (forced[0] + occupancy[0])]
        for i, ch in enumerate(v.letters):
            parts.append(ch)
            slot = slot_after.get(i)
            if slot is not None:
                parts.append("A" * (forced[slot] + occupancy[slot]))
        yield StackWord("".join(parts), "ABCD")

