"""
The exponential growth rate of the dominant term in the three-stack
bound.

Writing k = x*n, the n-th root of the k-th summand of
:func:`stackwords.counting.three_stack_bound` converges to a function
growth_rate(x) on [0, 1/2]. Its maximum, about 12.53296 at
x ~ 0.2883919, bounds the limit of the n-th root of the 3-stack sortable
count. Everything here is double-precision with explicit tolerances; all
products of powers are evaluated in log space to stay stable near the
endpoints, where x*ln(x) and (2x-1)*ln(1-2x) are extended by their limit
value 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .counting import bound_summand, three_stack_bound

__all__ = [
    "growth_rate",
    "growth_rate_unsimplified",
    "critical_point",
    "GrowthMaximum",
    "maximize_growth_rate",
    "summand_nth_root",
    "bound_nth_root",
]

_EDGE = 1e-9  # search interval is [_EDGE, 0.5 - _EDGE]
# Near x* ~ 0.29 doubles are 5.6e-17 apart: a bracket cannot shrink
# below a few of those, so a smaller tolerance would never stop the
# search. 1e-15 keeps a margin.
_MIN_TOLERANCE = 1e-15

MAXIMIZER_METHODS = ("golden_section", "derivative_bisection")


def _log_growth_rate(x: float) -> float:
    if not 0.0 <= x <= 0.5:
        raise ValueError(f"x={x} outside [0, 1/2]")
    total = math.log1p(x) + (2.0 - x) * math.log(2.0 - x)
    if x > 0.0:
        total -= 3.0 * x * math.log(x)  # x ln x -> 0 as x -> 0+
    total += (x - 1.0) * math.log1p(-x)
    if x < 0.5:
        total += (2.0 * x - 1.0) * math.log1p(-2.0 * x)  # -> 0 as x -> 1/2-
    total += x * math.log((x + 1.0) / 4.0)
    return total


def _log_growth_slope(x: float) -> float:
    # The derivative of _log_growth_rate on (0, 1/2). Its numerator minus
    # its denominator is 1 - 4x + 3x^2 - 4x^3, a strictly decreasing cubic
    # whose one real root is critical_point(): the slope changes sign once.
    return math.log((1.0 - x) * (1.0 + x) * (1.0 - 2.0 * x) ** 2 / (4.0 * x**3 * (2.0 - x)))


def growth_rate(x: float) -> float:
    """
    (1+x) * (2-x)^(2-x) * x^(-3x) * (1-x)^(x-1) * (1-2x)^(2x-1) * ((x+1)/4)^x

    on [0, 1/2], extended continuously to the endpoints: growth_rate(0)
    is 4 and growth_rate(0.5) is 27/4.

    >>> growth_rate(0.0)
    4.0
    """
    return math.exp(_log_growth_rate(x))


def growth_rate_unsimplified(x: float) -> float:
    """
    The same function before algebraic simplification:

        (1+x)^(1+x) (2-x)^(2-x) (2-2x)^(2-2x)
        --------------------------------------------------
        x^x (1-x)^(1-x) (2x)^(2x) (2-2x)^(2-2x) (1-2x)^(1-2x)

    Defined on the open interval only; used to cross-check growth_rate
    (they agree to ~1e-15 relative on a fine grid).
    """
    if not 0.0 < x < 0.5:
        raise ValueError(f"x={x} outside (0, 1/2)")
    total = (
        (1.0 + x) * math.log1p(x)
        + (2.0 - x) * math.log(2.0 - x)
        + (2.0 - 2.0 * x) * math.log(2.0 - 2.0 * x)
        - x * math.log(x)
        - (1.0 - x) * math.log1p(-x)
        - 2.0 * x * math.log(2.0 * x)
        - (2.0 - 2.0 * x) * math.log(2.0 - 2.0 * x)
        - (1.0 - 2.0 * x) * math.log1p(-2.0 * x)
    )
    return math.exp(total)


def critical_point() -> float:
    """
    The closed-form root of the derivative of growth_rate:

        (27 + 12*sqrt(417))^(1/3) / 12
        - 13 / (4 * (27 + 12*sqrt(417))^(1/3))
        + 1/4

    about 0.2883918927.
    """
    r = (27.0 + 12.0 * math.sqrt(417.0)) ** (1.0 / 3.0)
    return r / 12.0 - 13.0 / (4.0 * r) + 0.25


@dataclass(frozen=True)
class GrowthMaximum:
    x_star: float
    g_star: float
    method: str
    iterations: int
    tolerance: float


def _golden_section(lo: float, hi: float, tolerance: float) -> tuple[float, int]:
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc = _log_growth_rate(c)
    fd = _log_growth_rate(d)
    iterations = 0
    # probes that compare equal stand where the maximum is flat to
    # rounding: there is nothing left to rank
    while b - a > tolerance and fc != fd:
        iterations += 1
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = _log_growth_rate(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = _log_growth_rate(d)
    return (a + b) / 2.0, iterations


def _derivative_bisection(lo: float, hi: float, tolerance: float) -> tuple[float, int]:
    a, b = lo, hi
    iterations = 0
    while b - a > tolerance:
        iterations += 1
        mid = (a + b) / 2.0
        if _log_growth_slope(mid) > 0.0:
            a = mid
        else:
            b = mid
    return (a + b) / 2.0, iterations


def maximize_growth_rate(tolerance: float = 1e-10, method: str = "golden_section") -> GrowthMaximum:
    """
    Locate the maximum of growth_rate on (0, 1/2) to the given tolerance
    in x. There is one: the closed-form slope of the log has the sign of
    a strictly decreasing cubic, so growth_rate increases up to
    critical_point() and decreases after it. Both searches rely on that.
    Derivative-free golden-section search is the default; the
    derivative_bisection method, on the sign of the closed-form slope of
    the log, is an independent cross-check. Bisection lands within the
    tolerance of critical_point(). Golden section compares values of a
    function that is flat at its maximum, and stops once its two probes
    compare equal, about 1.6e-9 from critical_point(): at a tolerance of
    1e-10 or less it takes the same iterations whatever the tolerance.
    The result's tolerance is still the one asked for.
    """
    if not math.isfinite(tolerance) or tolerance < _MIN_TOLERANCE:
        raise ValueError(f"tolerance must be finite and at least {_MIN_TOLERANCE}, got {tolerance}")
    if method not in MAXIMIZER_METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {MAXIMIZER_METHODS}")
    lo, hi = _EDGE, 0.5 - _EDGE
    if method == "golden_section":
        x_star, iterations = _golden_section(lo, hi, tolerance)
    else:
        x_star, iterations = _derivative_bisection(lo, hi, tolerance)
    return GrowthMaximum(
        x_star=x_star,
        g_star=growth_rate(x_star),
        method=method,
        iterations=iterations,
        tolerance=tolerance,
    )


def summand_nth_root(n: int, x: float) -> float:
    """
    The n-th root of the exact k-th summand of the three-stack bound at
    k = round(x*n), computed with big-integer arithmetic and converted
    through the log. Approaches growth_rate(x) from below as n grows;
    the gap behaves like exp(-(3.5*ln(n) + O(1))/n), so convergence is
    slow: still ~2.5% at n = 1000.
    """
    k = round(x * n)
    if not 1 <= k <= (n + 1) // 2:
        raise ValueError(f"k={k} from x={x} outside 1..{(n + 1) // 2}")
    return math.exp(math.log(bound_summand(n, k)) / n)


def bound_nth_root(n: int) -> float:
    """
    The n-th root of the exact three-stack bound; increases toward the
    limiting growth rate (the maximum of growth_rate) as n grows.
    """
    return math.exp(math.log(three_stack_bound(n)) / n)

