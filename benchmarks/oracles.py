"""
Reference answers for the benchmark's correctness checks.

Nothing here imports stackwords: every value is either computed by a
different algorithm than the library uses, or pinned from a published
source or an independent exact computation. A defect in the library
therefore cannot hide by also corrupting the oracle.
"""
from __future__ import annotations

import hashlib
import math

# 3-stack sortable permutations of length n (OEIS A134664); recounted by
# the workloads with stack_sort below as well.
THREE_STACK_COUNTS = {1: 1, 2: 2, 3: 6, 4: 24, 5: 114, 6: 606, 7: 3494, 8: 21426}

# sha256 of three_stack_bound(n).to_bytes(big-endian, minimal length).
# Computed from bound() below; hashing bytes, not str(), keeps clear of
# the interpreter's int-to-str digit limit.
BOUND_DIGESTS = {
    50: "d328dce820fd844345adf08506f7286c9eaff510e8970227f8b1b74856a05814",
    100: "f1213e80272f64534d2ffa83d87b729f938435431d25abb5720b648b171565c7",
    200: "7455b3daa0e937fe0a61c084c76981cc98c13ef47101705812bf6ad61988b85d",
    500: "4ec6cdcfeba72f8f56907a00a126d4397d4d7a2c43817696e9d50caf9352fb6c",
    1000: "ccb3563d3b62a80fb54383b86cc711a601671659fbf3a5cab089e8f690bcabf4",
    2000: "645a9154f8140cd8df99523d08be848c93078683c247909aa62c3ae7169e31fa",
}

# Maximum of the growth-rate function: x* from the closed-form radical,
# g* as stated by the paper.
X_STAR = 0.28839189261893894
G_STAR = 12.53296
X_TOLERANCE = 1e-7
G_TOLERANCE = 5e-5


def digest(value: int) -> str:
    return hashlib.sha256(value.to_bytes((value.bit_length() + 7) // 8, "big")).hexdigest()


def stack_sort(p: tuple[int, ...]) -> tuple[int, ...]:
    """West's decomposition: s(L n R) = s(L) s(R) n."""
    if not p:
        return ()
    i = p.index(max(p))
    return stack_sort(p[:i]) + stack_sort(p[i + 1 :]) + (p[i],)


def iterate(p: tuple[int, ...], times: int) -> tuple[int, ...]:
    for _ in range(times):
        p = stack_sort(p)
    return p


def is_identity(p: tuple[int, ...]) -> bool:
    return p == tuple(range(1, len(p) + 1))


def min_passes(p: tuple[int, ...]) -> int:
    passes = 0
    while not is_identity(p):
        p = stack_sort(p)
        passes += 1
    return passes


def descents(p: tuple[int, ...]) -> int:
    return sum(a > b for a, b in zip(p, p[1:]))


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def two_stack_count(n: int) -> int:
    f = math.factorial
    return 2 * f(3 * n) // (f(n + 1) * f(2 * n + 1))


def refined(n: int, k: int) -> int:
    """2-stack sortable permutations of length n with k-1 descents."""
    f = math.factorial
    return f(n + k - 1) * f(2 * n - k) // (f(k) * f(n + 1 - k) * f(2 * k - 1) * f(2 * n - 2 * k + 1))


def bound(n: int) -> int:
    """The 3-stack insertion bound, straight from factorials."""
    return sum(refined(n, k) * math.comb(2 * n - 2 * k, n - 1) for k in range(1, (n + 1) // 2 + 1))


def summand_nth_root(n: int, x: float) -> float:
    """n-th root of the k = round(x n) summand of the bound, via lgamma."""
    k = round(x * n)
    lg = math.lgamma
    log_refined = (
        lg(n + k) + lg(2 * n - k + 1) - lg(k + 1) - lg(n + 2 - k) - lg(2 * k) - lg(2 * n - 2 * k + 2)
    )
    log_binomial = lg(2 * n - 2 * k + 1) - lg(n) - lg(n - 2 * k + 2)
    return math.exp((log_refined + log_binomial) / n)


def replay(p: tuple[int, ...], letters: str, stacks: int) -> tuple[int, ...] | None:
    """
    Carry out a move word on p through stacks in series. Returns the
    output, or None if a move pops an empty stack, runs out of input, or
    puts an entry on a smaller one (each stack must stay increasing from
    top to bottom).
    """
    piles: list[list[int]] = [[] for _ in range(stacks)]
    out: list[int] = []
    pos = 0
    for ch in letters:
        i = ord(ch) - ord("A")
        if i == 0:
            if pos == len(p):
                return None
            x = p[pos]
            pos += 1
        elif piles[i - 1]:
            x = piles[i - 1].pop()
        else:
            return None
        if i == stacks:
            out.append(x)
            continue
        if piles[i] and piles[i][-1] < x:
            return None
        piles[i].append(x)
    return tuple(out) if pos == len(p) and not any(piles) else None


def factor_count(letters: str, factor: str) -> int:
    """Overlapping occurrences of a factor."""
    return sum(letters.startswith(factor, i) for i in range(len(letters)))
