"""
Exact enumeration of t-stack sortable permutations: closed formulas where
they exist (t = 1, 2), upper bounds where they do not (t = 3), and
brute-force counters that cross-check every formula at desk scale.

All arithmetic is exact big-integer arithmetic. Formula divisions are
checked for exact divisibility: a remainder can only mean a transcription
bug, and fails loudly.
"""
from __future__ import annotations

import functools
import math

from .machine import is_t_stack_sortable, stack_sort
from .perms import DEFAULT_ENUMERATION_LIMIT, all_permutations, descent_count

_factorial = functools.lru_cache(maxsize=None)(math.factorial)


def binomial(a: int, b: int) -> int:
    """C(a, b), with 0 for b < 0 or b > a."""
    if a < 0:
        raise ValueError(f"negative upper index {a}")
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def _exact_div(numerator: int, denominator: int, what: str) -> int:
    q, r = divmod(numerator, denominator)
    if r:
        raise ArithmeticError(f"{what}: {numerator} is not divisible by {denominator}")
    return q


def catalan(n: int) -> int:
    """
    The n-th Catalan number C(2n, n)/(n+1): the number of 1-stack
    sortable permutations of length n.

    >>> [catalan(n) for n in range(7)]
    [1, 1, 2, 5, 14, 42, 132]
    """
    if n < 0:
        raise ValueError(f"negative length {n}")
    return _exact_div(math.comb(2 * n, n), n + 1, "catalan")


def two_stack_count(n: int) -> int:
    """
    The number of 2-stack sortable permutations of length n:
    2 * C(3n, n) / ((n+1)(2n+1)).

    >>> [two_stack_count(n) for n in range(1, 6)]
    [1, 2, 6, 22, 91]
    """
    if n < 1:
        raise ValueError(f"length must be positive, got {n}")
    return _exact_div(2 * math.comb(3 * n, n), (n + 1) * (2 * n + 1), "two_stack_count")


def two_stack_count_by_descents(n: int, d: int) -> int:
    """
    The number of 2-stack sortable permutations of length n with exactly
    d descents. With k = d + 1:

        (n+k-1)! (2n-k)! / ( k! (n+1-k)! (2k-1)! (2n-2k+1)! )

    Zero outside 1 <= k <= n.

    >>> [two_stack_count_by_descents(4, d) for d in range(4)]
    [1, 10, 10, 1]
    """
    if n < 1:
        raise ValueError(f"length must be positive, got {n}")
    k = d + 1
    if not 1 <= k <= n:
        return 0
    numerator = _factorial(n + k - 1) * _factorial(2 * n - k)
    denominator = (
        _factorial(k)
        * _factorial(n + 1 - k)
        * _factorial(2 * k - 1)
        * _factorial(2 * n - 2 * k + 1)
    )
    return _exact_div(numerator, denominator, "two_stack_count_by_descents")


def bound_summand(n: int, k: int) -> int:
    """
    The k-th summand of the 3-stack insertion bound: the 2-stack sortable
    images of length n with k-1 descents, times the C(2n-2k, n-1) ways to
    put the A's back into each one's projected word. Nonzero exactly for
    1 <= k <= floor((n+1)/2); k must not exceed n.

    >>> [bound_summand(4, k) for k in (1, 2)]
    [20, 40]
    """
    return two_stack_count_by_descents(n, k - 1) * binomial(2 * n - 2 * k, n - 1)


def three_stack_bound(n: int) -> int:
    """
    An upper bound for the number of 3-stack sortable permutations of
    length n, by counting candidate reinsertions of the input-push moves
    into each possible projected word: the sum of bound_summand(n, k) for
    k = 1 .. floor((n+1)/2). This is a bound, not a count: no closed
    formula for the t = 3 count is known.

    The summand a(k) is a hypergeometric term in k, so the sum is taken
    as a running product from a(1) = C(2n-2, n-1) with the term ratio

        a(k+1)/a(k) = (n+k)(n+1-k)(2n-2k+1)(n-2k+1)(n-2k)
                      / ((2n-k)(k+1)(2k)(2k+1)(2n-2k-1))

    (the term-ratio technique of Petkovsek, Wilf and Zeilberger, A = B,
    1996): one small multiply and one exact division per term, instead
    of six big factorials. bound_summand is the closed-form oracle.

    >>> [three_stack_bound(n) for n in range(1, 5)]
    [1, 2, 10, 60]
    """
    if n < 1:
        raise ValueError(f"length must be positive, got {n}")
    term = binomial(2 * n - 2, n - 1)  # bound_summand(n, 1), as N(n, 1) = 1
    total = term
    for k in range(1, (n + 1) // 2):
        num = (n + k) * (n + 1 - k) * (2 * n - 2 * k + 1) * (n - 2 * k + 1) * (n - 2 * k)
        den = (2 * n - k) * (k + 1) * (2 * k) * (2 * k + 1) * (2 * n - 2 * k - 1)
        term = _exact_div(term * num, den, "three_stack_bound")
        total += term
    return total


def trivial_bound(n: int, t: int) -> int:
    """
    The easy bound (t+1)^(2n) for the number of t-stack sortable
    permutations of length n, which holds because every such permutation
    avoids one particular pattern of length t+2.
    """
    if n < 1 or t < 1:
        raise ValueError(f"need positive n and t, got n={n}, t={t}")
    return (t + 1) ** (2 * n)


def brute_force_count(n: int, t: int, limit: int = DEFAULT_ENUMERATION_LIMIT) -> int:
    """
    Count t-stack sortable permutations of length n by enumerating all n!
    of them. The independent oracle for every formula above.
    """
    return sum(1 for p in all_permutations(n, limit) if is_t_stack_sortable(p, t))


def brute_force_image_descent_counts(
    n: int, limit: int = DEFAULT_ENUMERATION_LIMIT
) -> dict[int, int]:
    """
    For 3-stack sortable p of length n, tally how many descents the
    once-sorted image stack_sort(p) has. Keys are descent counts with a
    nonzero tally; the tallies sum to brute_force_count(n, 3).
    """
    counts: dict[int, int] = {}
    for p in all_permutations(n, limit):
        q = stack_sort(p)
        # p is 3-stack sortable iff its image is 2-stack sortable
        if is_t_stack_sortable(q, 2):
            d = descent_count(q)
            counts[d] = counts.get(d, 0) + 1
    return counts
