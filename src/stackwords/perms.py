"""
Permutations in one-line notation.

A permutation of length n is a tuple of the values 1..n in some order,
e.g. ``(2, 3, 1)``. The empty tuple is the length-0 permutation and counts
as the identity. All functions treat permutations as immutable values;
positions are 0-based internally while values stay 1-based, matching the
usual one-line notation.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import operator
from typing import Iterator, Sequence

__all__ = [
    "Perm",
    "DEFAULT_ENUMERATION_LIMIT",
    "check_permutation",
    "parse_permutation",
    "format_permutation",
    "is_identity",
    "descent_count",
    "contains_pattern",
    "all_permutations",
]

Perm = tuple[int, ...]

# Guard for the exhaustive enumerators; callers may raise it consciously.
DEFAULT_ENUMERATION_LIMIT = 10


def check_permutation(entries: Sequence[int]) -> Perm:
    """
    Validate that ``entries`` is a rearrangement of exactly {1, ..., n}
    and return it as a tuple. Raises ValueError naming the first
    offending value.

    >>> check_permutation([2, 3, 1])
    (2, 3, 1)
    >>> check_permutation([2, 2, 1])
    Traceback (most recent call last):
        ...
    ValueError: duplicate value 2
    """
    p = tuple(entries)
    n = len(p)
    seen = [False] * (n + 1)
    for v in p:
        if not 1 <= v <= n:
            raise ValueError(f"value {v} out of range 1..{n}")
        if seen[v]:
            raise ValueError(f"duplicate value {v}")
        seen[v] = True
    return p


def parse_permutation(text: str) -> Perm:
    """
    Parse one-line notation: a comma- or whitespace-separated list of
    integers, or a compact digit string (one digit per value, n <= 9).
    Entries are ASCII digits only, so no sign, underscore or other
    script's digit is read. No entry may be empty: each comma stands
    between two entries.

    >>> parse_permutation("2,3,1")
    (2, 3, 1)
    >>> parse_permutation("231")
    (2, 3, 1)
    >>> parse_permutation("10 9 8 7 6 5 4 3 2 1")[:3]
    (10, 9, 8)
    """
    text = text.strip()
    if not text:
        return ()
    if "," in text or any(ch.isspace() for ch in text):
        if not all(entry.strip() for entry in text.split(",")):
            raise ValueError(f"empty entry in permutation {text!r}")
        tokens = text.replace(",", " ").split()
    elif len(text) > 1:
        tokens = list(text)  # compact digit form
    else:
        tokens = [text]
    for tok in tokens:
        if not (tok.isascii() and tok.isdigit()):
            raise ValueError(f"malformed token {tok!r} in permutation {text!r}")
    return check_permutation([int(tok) for tok in tokens])


def format_permutation(p: Sequence[int]) -> str:
    """
    Render one-line notation: compact digits for n <= 9, comma-separated
    otherwise.

    >>> format_permutation((2, 3, 1))
    '231'
    """
    if len(p) <= 9:
        return "".join(str(v) for v in p)
    return ",".join(str(v) for v in p)


def is_identity(p: Sequence[int]) -> bool:
    """
    >>> is_identity((1, 2, 3)), is_identity((2, 1)), is_identity(())
    (True, False, True)
    """
    return tuple(p) == tuple(range(1, len(p) + 1))


def descent_count(p: Sequence[int]) -> int:
    """
    Number of positions i with p[i] > p[i+1].

    >>> descent_count((3, 1, 4, 2))
    2
    >>> descent_count((1, 2, 3, 4))
    0
    """
    return sum(map(operator.gt, p, itertools.islice(p, 1, None)))


@functools.lru_cache(maxsize=128)
def _pattern_links(q: Perm) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # For each pattern position j, the earlier positions holding the
    # nearest smaller and nearest larger pattern values, or k and k + 1
    # (the slots of the two sentinels) if there is none.
    k = len(q)
    position = {v: j for j, v in enumerate(q)}
    if len(position) < k:
        raise _repeated_value(q)
    below, above = [], []
    seen: list[int] = []  # the values of q[:j], sorted
    for v in q:
        at = bisect.bisect(seen, v)
        below.append(position[seen[at - 1]] if at else k)
        above.append(position[seen[at]] if at < len(seen) else k + 1)
        seen.insert(at, v)
    return tuple(below), tuple(above)


def _repeated_value(q: Sequence[int]) -> ValueError:
    v = next(v for j, v in enumerate(q) if v in q[:j])
    return ValueError(f"repeated value {v} in pattern {tuple(q)}")


def contains_pattern(p: Sequence[int], q: Sequence[int]) -> bool:
    """
    True iff some subsequence of p is order-isomorphic to q. Exhaustive
    search with early pruning, depth first in one loop that keeps a resume
    position per pattern entry instead of recursing, so long patterns do
    not reach the recursion limit; meant for desk-scale inputs only.
    A q that repeats a value raises ValueError naming it, unless q is
    empty or longer than p, where the answer does not depend on q's order.

    >>> contains_pattern((2, 3, 4, 1), (2, 3, 1))
    True
    >>> contains_pattern((1, 2, 3), (2, 3, 1))
    False
    """
    k = len(q)
    if k == 0:
        return True
    n = len(p)
    if k > n:
        return False
    if k == n:
        # p itself is the only candidate: it must rise along q's order of
        # values. This skips the links, whose cache one-off full-length
        # patterns would only churn.
        if len(set(q)) < k:
            raise _repeated_value(q)
        order = sorted(range(k), key=q.__getitem__)
        return all(p[a] < p[b] for a, b in zip(order, order[1:]))
    # A candidate for pattern position j extends the chosen prefix iff it
    # lies strictly between the entries chosen at the positions of its
    # nearest smaller and larger pattern values; two sentinels stand in
    # for a missing neighbour, so p's values need not be 1..n.
    below, above = _pattern_links(tuple(q))
    chosen = [0] * k + [min(p) - 1, max(p) + 1]
    resume = [0] * k  # where the scan goes on after backtracking to j
    # Pattern position j scans p[i] for i < stop = n - k + j + 1, which
    # leaves room for the remaining pattern entries.
    j = i = 0
    stop = n - k + 1
    low, high = chosen[below[0]], chosen[above[0]]
    while True:
        if i < stop:
            v = p[i]
            i += 1
            if low < v < high:
                chosen[j] = v
                resume[j] = i
                j += 1
                if j == k:
                    return True
                stop += 1
                low, high = chosen[below[j]], chosen[above[j]]
        else:
            j -= 1
            if j < 0:
                return False
            i = resume[j]
            stop -= 1
            low, high = chosen[below[j]], chosen[above[j]]


def all_permutations(n: int, limit: int = DEFAULT_ENUMERATION_LIMIT) -> Iterator[Perm]:
    """
    Yield all n! permutations of 1..n in lexicographic order.

    The limit guards against runaway enumeration; pass a larger one
    explicitly if you actually want more.

    >>> list(all_permutations(0))
    [()]
    >>> next(all_permutations(3)), list(all_permutations(3))[-1]
    ((1, 2, 3), (3, 2, 1))
    """
    if n < 0:
        raise ValueError(f"negative length {n}")
    if n > limit:
        raise ValueError(f"length {n} exceeds enumeration limit {limit}")
    return iter(itertools.permutations(range(1, n + 1)))

