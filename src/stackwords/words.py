"""
Stack words: the move records of permutations traversing stacks in series.

Sending n entries through t stacks uses t+1 kinds of moves, so the full
trace is a word with exactly n copies of each of t+1 letters. Letters are
uppercase, in move order: the first letter pushes from the input onto the
first stack, each middle letter moves a stack top to the next stack, the
last letter emits from the final stack to the output. The standard
alphabet for t stacks is ``"AB"``, ``"ABC"``, ``"ABCD"``, ... Every
alphabet is a window of the move letters ``A`` to ``Y``: a run of
consecutive ones, such as ``"BCD"`` for the projection of a 3-stack
word. One cached translate table per window turns letters into move
codes, and it refuses any other alphabet.

Every trace satisfies the ballot condition: in each prefix the letter
counts weakly decrease along the alphabet (the i-th occurrence of each
letter precedes the i-th occurrence of the next one). The converse fails
for t >= 2: a ballot word need not be the trace of any permutation, which
is exactly what makes such words useful as an over-counting device.
"""
from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "MAX_STACKS",
    "default_alphabet",
    "StackWord",
    "validate_word",
    "count_factor",
    "forbidden_factor_violations",
    "decode",
    "image_word",
    "enumerate_a_placements",
]

MAX_STACKS = 24
MOVE_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXY"
# the standard alphabet of each stack count t, built once, so every word
# of t stacks shares one string (index 0 is unused: t >= 1)
_ALPHABETS = tuple(MOVE_LETTERS[: t + 1] for t in range(MAX_STACKS + 1))


def default_alphabet(stacks: int) -> str:
    """The t+1 standard letters for a t-stack word."""
    if not 1 <= stacks <= MAX_STACKS:
        raise ValueError(f"stack count {stacks} outside 1..{MAX_STACKS}")
    return _ALPHABETS[stacks]


@dataclass(frozen=True, slots=True)
class StackWord:
    """
    A word over an ordered move alphabet. ``alphabet`` lists the t+1
    letters in move order, a window of the move letters; a projection
    uses a shifted one such as ``"BCD"`` for a 2-stack word. The
    constructor does not validate: use :func:`validate_word` for checked
    construction. Words are held in bulk, so they are slotted: no
    per-instance ``__dict__``.
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
        return tuple(_known_codes(self.letters, self.alphabet))

    def __str__(self) -> str:
        return self.letters


_UNKNOWN = 255  # the move code of every character that is not a letter


@functools.lru_cache(maxsize=64)
def _letter_codes(alphabet: str) -> bytes:
    # a bytes.translate table taking each letter, as its latin-1 byte, to
    # its position in the alphabet and every other byte to _UNKNOWN. Only
    # a window of MOVE_LETTERS has one; "" passes this test too, so
    # validate_word and decode check the stack count first.
    if alphabet not in MOVE_LETTERS:
        raise ValueError(f"alphabet {alphabet!r} is not a run of consecutive move letters")
    table = bytearray([_UNKNOWN]) * 256
    for i, ch in enumerate(alphabet):
        table[ord(ch)] = i
    return bytes(table)


def _move_codes(letters: str, alphabet: str) -> bytes:
    # each letter's position in the alphabet; a character that is not
    # latin-1 encodes as "?", so it is _UNKNOWN too and positions stay aligned
    return letters.encode("latin-1", "replace").translate(_letter_codes(alphabet))


def _known_codes(letters: str, alphabet: str) -> bytes:
    codes = _move_codes(letters, alphabet)
    at = codes.find(_UNKNOWN) + 1
    if at:
        raise ValueError(f"unknown letter {letters[at - 1]!r} at position {at}, not in alphabet {alphabet!r}")
    return codes


def _ballot_scan(letters: str, alphabet: str) -> tuple[list[int], int]:
    # One pass over the word: the count of each letter of the alphabet, and
    # the 1-based position of the first letter that is not in the alphabet
    # or that outnumbers the letter before it, which is the move that pops
    # an empty stack (0 if there is none; the counts stop at that letter).
    counts = [0] * len(alphabet)
    for at, i in enumerate(_move_codes(letters, alphabet), start=1):
        if i == _UNKNOWN:
            return counts, at
        counts[i] += 1
        if i and counts[i] > counts[i - 1]:
            return counts, at
    return counts, 0


def validate_word(text: str, stacks: int, alphabet: str | None = None) -> StackWord:
    """
    Parse and validate a stack word: an alphabet of t+1 consecutive move
    letters (the standard one by default), known letters only, equal
    letter counts, and the ballot condition on every prefix.

    >>> validate_word("AABB", 1).entries
    2
    >>> validate_word("ABBA", 1)
    Traceback (most recent call last):
        ...
    ValueError: ballot condition violated at position 3: prefix 'ABB' has more 'B' than 'A'
    """
    standard = default_alphabet(stacks)  # checks the stack count first
    if alphabet is None:
        alphabet = standard
    if len(alphabet) != stacks + 1:
        raise ValueError(f"alphabet {alphabet!r} does not have {stacks + 1} letters")
    counts, at = _ballot_scan(text, alphabet)
    if at:
        ch = text[at - 1]
        if ch not in alphabet:
            raise ValueError(f"unknown letter {ch!r} at position {at}")
        raise ValueError(
            f"ballot condition violated at position {at}: prefix {text[:at]!r} "
            f"has more {ch!r} than {alphabet[alphabet.index(ch) - 1]!r}"
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
    count = 0
    at = letters.find(factor)
    while at >= 0:
        count += 1
        at = letters.find(factor, at + 1)  # one letter on, to keep overlaps
    return count


# Factors that can never occur in the 3-stack trace of a permutation.
# BB, CC, BAB and CB A^j C would put a larger entry on top of a smaller
# one in the second or third stack; DA, DB and CA would mean the greedy
# rule skipped a move that was already available.
_FORBIDDEN_RULES = (
    ("BB", "BB"),
    ("CC", "CC"),
    ("BAB", "BAB"),
    ("CBA^jC", "CBA*C"),
    ("DA", "DA"),
    ("DB", "DB"),
    ("CA", "CA"),
)
# One scan for all seven. No two rules share their first two letters, so
# at most one rule matches at a position and those two letters name it.
# (Capturing groups would name it too, but make each scan about three
# times slower.)
_FORBIDDEN_SCAN = re.compile("|".join(pattern for _, pattern in _FORBIDDEN_RULES))
_RULE_OF_PREFIX = {pattern[:2]: rule for rule, pattern in _FORBIDDEN_RULES}


def forbidden_factor_violations(word: StackWord) -> list[tuple[str, int]]:
    """
    Scan a 3-stack word for the seven forbidden factors and return every
    occurrence as ``(rule, start_index)``, ordered by position. An empty
    list means the word passes all necessary trace conditions (which are
    not sufficient: a clean word may still be nobody's trace).

    >>> forbidden_factor_violations(validate_word("AABCBDCD", 3))
    []
    >>> forbidden_factor_violations(StackWord("ABBCAD", "ABCD"))
    [('BB', 1), ('CA', 3)]
    """
    if word.alphabet != "ABCD":
        raise ValueError(f"forbidden-factor rules apply to 3-stack words over ABCD, not {word.alphabet!r}")
    letters = word.letters
    hits = []
    # each search resumes one letter after the last hit, so overlapping
    # hits are all found, in order of position
    m = _FORBIDDEN_SCAN.search(letters)
    while m:
        at = m.start()
        hits.append((_RULE_OF_PREFIX[letters[at : at + 2]], at))
        m = _FORBIDDEN_SCAN.search(letters, at + 1)
    return hits


def decode(word: StackWord) -> tuple[int, ...]:
    """
    Replay a word with anonymous tokens and read off the permutation it
    encodes: the k-th emitted token is assigned value k, and the values
    are returned in original input order.

    For the trace of a t-stack sortable permutation p this recovers p
    exactly (the machine emits such a p in sorted order). For the trace of
    any other p it gives a t-sortable permutation with that same trace:
    measured for every p with n <= 7 and t <= 5, not proved. Any ballot word
    replays without error, but the result is only meaningful as "the
    permutation this word would sort"; to test whether the word really is
    a trace, see :func:`stackwords.machine.is_genuine_word`. The alphabet
    must be a window of the move letters, and an unknown letter is named
    before the replay starts.

    >>> decode(validate_word("AABB", 1))
    (2, 1)
    >>> decode(validate_word("ABAB", 1))
    (1, 2)
    """
    t = word.stacks
    if t < 1:
        raise ValueError(f"cannot replay a word over the {len(word.alphabet)}-letter alphabet {word.alphabet!r}")
    codes = _known_codes(word.letters, word.alphabet)
    stacks: list[list[int]] = [[] for _ in range(t)]
    first, last = stacks[0], stacks[t - 1]
    value_of = [0] * codes.count(0)  # by token, in input order
    next_token = 0
    emitted = 0
    try:
        for i in codes:
            if i == 0:
                first.append(next_token)
                next_token += 1
            elif i == t:
                emitted += 1
                value_of[last.pop()] = emitted
            else:
                stacks[i].append(stacks[i - 1].pop())
    except IndexError:  # every letter is known here, so the scan stops at the empty pop
        at = _ballot_scan(word.letters, word.alphabet)[1]
        raise ValueError(f"letter {word.letters[at - 1]!r} at position {at} pops an empty stack") from None
    if any(stacks):
        raise ValueError("word leaves entries stranded in the stacks")
    return tuple(value_of)


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
    # lexicographic order (so the stream order is reproducible), by stars
    # and bars: parts - 1 bars among total + parts - 1 slots, no recursion.
    slots = total + parts - 1
    for bars in itertools.combinations(range(slots), parts - 1):
        yield tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (slots,)))


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

    The stream has exactly C(2n-2k, n-1) distinct words. They are
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

    # v = B s1 B s2 ... B sn: the slots stand before the first B and right
    # after each B but the last, and an empty si is a BB factor
    *inner, last = v.letters.split("B")[1:]
    forced = [1] + [0 if s else 2 for s in inner]
    free = entries - sum(forced)
    if free < 0:
        raise ValueError(f"{inner.count('')} BB factors force {sum(forced)} A's, more than the {entries} available")

    heads = ["B"] + [s + "B" for s in inner]  # what follows the A's of each slot
    for occupancy in _compositions(free, entries):
        yield StackWord("".join(["A" * (f + o) + h for f, o, h in zip(forced, occupancy, heads)]) + last, "ABCD")
