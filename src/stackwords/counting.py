"""
Exact enumeration of t-stack sortable permutations: closed formulas where
they exist (t = 1, 2), upper bounds where they do not (t = 3), and
brute-force counters that cross-check every formula at desk scale.

All arithmetic is exact big-integer arithmetic. Formula divisions are
checked for exact divisibility: a remainder can only mean a transcription
bug, and fails loudly.
"""
from __future__ import annotations

import math
from collections import Counter
from typing import Iterator, Sequence

from .machine import is_t_stack_sortable, stack_sort
from .perms import DEFAULT_ENUMERATION_LIMIT, Perm, all_permutations, descent_count

__all__ = [
    "catalan",
    "two_stack_count",
    "two_stack_count_by_descents",
    "bound_summand",
    "three_stack_bound",
    "trivial_bound",
    "image_tally",
    "brute_force_count",
    "brute_force_image_descent_counts",
    "stack_sort_preimages",
    "image_fertilities",
]


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
          = C(n+k-1, 2k-1) C(2n-k, k-1) / ( k (n+1-k) )

    The second form takes two binomials and one small exact division in
    place of six big factorials. Zero outside 1 <= k <= n.

    >>> [two_stack_count_by_descents(4, d) for d in range(4)]
    [1, 10, 10, 1]
    """
    if n < 1:
        raise ValueError(f"length must be positive, got {n}")
    k = d + 1
    if not 1 <= k <= n:
        return 0
    return _exact_div(
        math.comb(n + k - 1, 2 * k - 1) * math.comb(2 * n - k, k - 1),
        k * (n + 1 - k),
        "two_stack_count_by_descents",
    )


def bound_summand(n: int, k: int) -> int:
    """
    The k-th summand of the 3-stack insertion bound: the 2-stack sortable
    images of length n with k-1 descents, times the C(2n-2k, n-1) ways to
    put the A's back into each one's projected word. Nonzero exactly for
    1 <= k <= floor((n+1)/2); k must not exceed n.

    >>> [bound_summand(4, k) for k in (1, 2)]
    [20, 40]
    """
    return two_stack_count_by_descents(n, k - 1) * math.comb(2 * n - 2 * k, n - 1)


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
    of three big binomials. bound_summand is the closed-form oracle.

    >>> [three_stack_bound(n) for n in range(1, 5)]
    [1, 2, 10, 60]
    """
    if n < 1:
        raise ValueError(f"length must be positive, got {n}")
    term = math.comb(2 * n - 2, n - 1)  # bound_summand(n, 1), as N(n, 1) = 1
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


def image_tally(n: int, limit: int = DEFAULT_ENUMERATION_LIMIT) -> Counter[Perm]:
    """
    How many of the n! permutations of length n stack_sort sends to each
    image: the one sweep behind each brute-force counter below.

    >>> image_tally(2) == {(1, 2): 2}
    True
    """
    return Counter(map(stack_sort, all_permutations(n, limit)))


def brute_force_count(n: int, t: int, limit: int = DEFAULT_ENUMERATION_LIMIT) -> int:
    """
    Count t-stack sortable permutations of length n by enumerating all n!
    of them. The independent oracle for every formula above.

    Each permutation is sorted once; p is t-stack sortable iff its image
    is (t-1)-stack sortable, so only the at most (n-1)! distinct images
    are tested further, each weighted by how many p share it.
    """
    all_permutations(n, limit)  # rejects a bad n before a bad t
    if t < 1:
        raise ValueError(f"pass count must be positive, got {t}")
    images = image_tally(n, limit)
    if t == 1:
        return images[tuple(range(1, n + 1))]
    return sum(count for q, count in images.items() if is_t_stack_sortable(q, t - 1))


def brute_force_image_descent_counts(n: int) -> dict[int, int]:
    """
    For 3-stack sortable p of length n, tally how many descents the
    once-sorted image stack_sort(p) has. Keys are descent counts with a
    nonzero tally; the tallies sum to brute_force_count(n, 3).
    """
    counts: dict[int, int] = {}
    for q, count in image_tally(n).items():
        # p is 3-stack sortable iff its image is 2-stack sortable
        if is_t_stack_sortable(q, 2):
            d = descent_count(q)
            counts[d] = counts.get(d, 0) + count
    return counts


def _west_splits(q: Perm) -> Iterator[tuple[Perm, Perm]]:
    # the splits q = L + R + (m,) of West's decomposition (see
    # stack_sort_preimages) whose halves can be images: none unless q ends
    # in its maximum m, and then those whose L and R each end in their own
    # maximum (an empty half does). With body = q[:-1], R = body[i:] does
    # iff i is past every entry of body larger than body[-1], so one scan
    # back from the end finds the least such i, start. The entries need
    # only be distinct, so L's running maximum starts at q[0], not at 0.
    if not q or q[-1] != max(q):
        return
    body, top, start = q[:-1], q[0], len(q) - 1
    while start and body[start - 1] <= body[-1]:
        start -= 1
    for i in range(len(q)):
        if i:
            if body[i - 1] < top:
                continue  # the left half does not end in its maximum
            top = body[i - 1]
        if i >= start:
            yield body[:i], body[i:]


def stack_sort_preimages(q: Sequence[int]) -> Iterator[Perm]:
    """
    Yield every p with stack_sort(p) == q. West's decomposition: for
    p = L m R with m its maximum, stack_sort(p) = stack_sort(L)
    stack_sort(R) m. So q has preimages only if it ends in its maximum m,
    and then they are L + (m,) + R over each split q = q[:i] . q[i:-1],
    with L a preimage of q[:i] and R one of q[i:-1]. The entries of q
    need only be distinct.

    Iterated from the identity it gives the 231-avoiders (1-stack
    sortable), then the 2-stack sortable permutations, and so on.

    >>> sorted(stack_sort_preimages((1, 2, 3)))
    [(1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 1, 2), (3, 2, 1)]
    >>> list(stack_sort_preimages((2, 1)))
    []
    """
    q = tuple(q)
    if not q:
        yield ()
        return
    for left_image, right_image in _west_splits(q):
        rights = list(stack_sort_preimages(right_image))
        if rights:
            for left in stack_sort_preimages(left_image):
                for right in rights:
                    yield left + (q[-1],) + right


def image_fertilities(n: int) -> Iterator[tuple[Perm, int]]:
    """
    Yield (q, |stack_sort^-1(q)|) for each 2-stack sortable q of length n
    with at least one preimage. The preimages of q are exactly the
    3-stack sortable p with stack_sort(p) == q, so the fertilities sum to
    the 3-stack sortable count.

    The fertility follows West's decomposition without listing the
    preimages: it is the sum, over the splits q = q[:i] . q[i:-1] whose
    halves both end in their maximum, of the product of the halves'
    fertilities. The halves are passed on as they are, and each half's
    fertility is memoised by its order type (the positions of its entries
    in increasing order of value), in a table that lives for this call
    only; a half is shorter than n, so no image of length n enters it.

    >>> sorted(image_fertilities(3))
    [((1, 2, 3), 5), ((2, 1, 3), 1)]
    """
    if n < 0:
        raise ValueError(f"negative length {n}")
    memo: dict[tuple[int, ...], int] = {}

    def fertility(q: Perm) -> int:
        total = 0
        for left, right in _west_splits(q):
            left_count = half_fertility(left)
            if left_count:
                total += left_count * half_fertility(right)
        return total

    def half_fertility(half: Perm) -> int:
        if len(half) <= 1:
            return 1
        key = tuple(sorted(range(len(half)), key=half.__getitem__))
        if key not in memo:
            memo[key] = fertility(half)
        return memo[key]

    if n == 0:
        yield (), 1
        return
    # Only images ending in n have preimages, and q = L n is 2-stack
    # sortable iff L is, as stack_sort(L n) = stack_sort(L) n: so L runs
    # over the 2-stack sortable permutations of length n - 1.
    for avoider in stack_sort_preimages(range(1, n)):
        for body in stack_sort_preimages(avoider):
            q = body + (n,)
            count = fertility(q)
            if count:
                yield q, count
