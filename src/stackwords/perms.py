"""
Permutations in one-line notation.

A permutation of length n is a tuple of the values 1..n in some order,
e.g. ``(2, 3, 1)``. The empty tuple is the length-0 permutation and counts
as the identity. All functions treat permutations as immutable values;
positions are 0-based internally while values stay 1-based, matching the
usual one-line notation.
"""
from __future__ import annotations

import itertools
from typing import Iterator, Sequence

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
        tokens = text.replace(",", " ").split()
    elif len(text) > 1:
        tokens = list(text)  # compact digit form
    else:
        tokens = [text]
    values = []
    for tok in tokens:
        try:
            values.append(int(tok))
        except ValueError:
            raise ValueError(f"malformed token {tok!r} in permutation {text!r}") from None
    return check_permutation(values)


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
    return all(v == i + 1 for i, v in enumerate(p))


def descent_count(p: Sequence[int]) -> int:
    """
    Number of positions i with p[i] > p[i+1].

    >>> descent_count((3, 1, 4, 2))
    2
    >>> descent_count((1, 2, 3, 4))
    0
    """
    return sum(1 for i in range(len(p) - 1) if p[i] > p[i + 1])


def contains_pattern(p: Sequence[int], q: Sequence[int]) -> bool:
    """
    True iff some subsequence of p is order-isomorphic to q. Exhaustive
    search with early pruning; meant for desk-scale inputs only.

    >>> contains_pattern((2, 3, 4, 1), (2, 3, 1))
    True
    >>> contains_pattern((1, 2, 3), (2, 3, 1))
    False
    """
    k = len(q)
    if k == 0:
        return True
    if k > len(p):
        return False

    def extend(start: int, chosen: list[int]) -> bool:
        j = len(chosen)
        if j == k:
            return True
        # leave enough room for the remaining pattern entries
        for i in range(start, len(p) - (k - j) + 1):
            v = p[i]
            if all((v > w) == (q[j] > q[jj]) for jj, w in enumerate(chosen)):
                chosen.append(v)
                if extend(i + 1, chosen):
                    return True
                chosen.pop()
        return False

    return extend(0, [])


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

