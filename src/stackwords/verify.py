"""
Self-verification: every formula, bound, and structural claim in the
package checked against brute force at desk scale. Each check returns a
result with concrete witnesses on failure. Each check takes its sizes
as arguments; ``BOUNDS`` holds them per level. The ``quick`` level keeps
exhaustive sweeps to n <= 6 (well under a second); ``full`` pushes them
to n <= 9 where that matters (four to five seconds on a 2-CPU machine
with Python 3.11).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from .counting import (
    binomial,
    bound_summand,
    brute_force_count,
    brute_force_image_descent_counts,
    catalan,
    image_fertilities,
    image_tally,
    three_stack_bound,
    trivial_bound,
    two_stack_count,
    two_stack_count_by_descents,
)
from .growth import (
    bound_nth_root,
    critical_point,
    growth_rate,
    growth_rate_unsimplified,
    maximize_growth_rate,
    summand_nth_root,
    _log_growth_rate,
)
from .machine import (
    encode,
    is_t_stack_sortable,
    iterate_stack_sort,
    run_series_machine,
    stack_sort,
)
from .perms import (
    all_permutations,
    contains_pattern,
    descent_count,
    format_permutation,
)
from .words import StackWord, count_factor, decode, enumerate_a_placements, forbidden_factor_violations, image_word, validate_word

_MAX_WITNESSES = 5


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    witnesses: list[str] = field(default_factory=list)


def _result(name: str, detail: str, witnesses: list[str]) -> CheckResult:
    shown = witnesses[:_MAX_WITNESSES]
    if len(witnesses) > _MAX_WITNESSES:
        shown.append(f"... {len(witnesses) - _MAX_WITNESSES} more")
    return CheckResult(name=name, passed=not witnesses, detail=detail, witnesses=shown)


def check_permutation_statistics(top: int) -> CheckResult:
    bad = []
    for n in range(top + 1):
        avoiders = 0
        for p in all_permutations(n):
            if not contains_pattern(p, (2, 3, 1)):
                avoiders += 1
            if n >= 1 and descent_count(p) + descent_count(p[::-1]) != n - 1:
                bad.append(f"descent/reverse mismatch at p={format_permutation(p)}")
            if not contains_pattern(p, p) or not contains_pattern(p, ()):
                bad.append(f"trivial containment failed at p={format_permutation(p)}")
            if contains_pattern(p, tuple(range(1, n + 2))):
                bad.append(f"p={format_permutation(p)} contains a longer pattern")
        if avoiders != catalan(n):
            bad.append(f"n={n}: {avoiders} 231-avoiders != catalan {catalan(n)}")
    return _result("permutation_statistics", f"descents, containment, 231-avoiders for n <= {top}", bad)


def _count_oracle(name: str, t: int, formula: Callable[[int], int], label: str, top: int) -> CheckResult:
    bad = []
    for n in range(1, top + 1):
        brute, exact = brute_force_count(n, t), formula(n)
        if brute != exact:
            bad.append(f"n={n}: brute {brute} != {label} {exact}")
    return _result(name, f"{t}-stack sortable count vs formula for n <= {top}", bad)


def check_catalan_oracle(top: int) -> CheckResult:
    return _count_oracle("catalan_oracle", 1, catalan, "catalan", top)


def check_two_stack_oracle(top: int) -> CheckResult:
    return _count_oracle("two_stack_oracle", 2, two_stack_count, "formula", top)


def check_descent_refinement_oracle(top: int) -> CheckResult:
    bad = []
    for n in range(1, top + 1):
        tallies = Counter(descent_count(p) for p in all_permutations(n) if is_t_stack_sortable(p, 2))
        for d in range(n):
            formula = two_stack_count_by_descents(n, d)
            if tallies[d] != formula:
                bad.append(f"n={n} d={d}: brute {tallies[d]} != formula {formula}")
    return _result("descent_refinement_oracle", f"2-stack counts by descents vs formula for n <= {top}", bad)


def check_descent_refinement_algebra(top: int) -> CheckResult:
    bad = []
    for n in range(1, top + 1):
        row = [two_stack_count_by_descents(n, d) for d in range(n)]
        if sum(row) != two_stack_count(n):
            bad.append(f"n={n}: descent counts do not sum to the total")
        if row != row[::-1]:
            bad.append(f"n={n}: descent counts not symmetric")
    return _result("descent_refinement_algebra", f"sum and symmetry identities for n <= {top}", bad)


def check_sortability_structure(top: int, avoid_top: int) -> CheckResult:
    bad = []
    for n in range(avoid_top + 1):
        for p in all_permutations(n):
            if n >= 1 and is_t_stack_sortable(p, 1) != (not contains_pattern(p, (2, 3, 1))):
                bad.append(f"p={format_permutation(p)}: 1-sortability vs 231-avoidance mismatch")
    for n in range(1, top + 1):
        for p in all_permutations(n):
            sortable = [is_t_stack_sortable(p, t) for t in (1, 2, 3, 4)]
            if any(a and not b for a, b in zip(sortable, sortable[1:])):
                bad.append(f"p={format_permutation(p)}: sortability not monotone in t")
            if n >= 2 and not is_t_stack_sortable(p, n - 1):
                bad.append(f"p={format_permutation(p)}: not (n-1)-stack sortable")
            for t in (1, 2, 3):
                pattern = tuple(range(2, t + 3)) + (1,)
                if sortable[t - 1] and contains_pattern(p, pattern):
                    bad.append(
                        f"p={format_permutation(p)}: {t}-sortable but contains "
                        f"{format_permutation(pattern)}"
                    )
    return _result("sortability_structure", f"monotonicity and pattern avoidance for n <= {top}", bad)


def check_series_machine_equivalence(top: int) -> CheckResult:
    bad = []
    for n in range(top + 1):
        for p in all_permutations(n):
            for t in (1, 2, 3, 4):
                run = run_series_machine(p, t)
                if run.output != iterate_stack_sort(p, t):
                    bad.append(
                        f"p={format_permutation(p)} t={t}: machine "
                        f"{format_permutation(run.output)} != iterate "
                        f"{format_permutation(iterate_stack_sort(p, t))}"
                    )
                try:
                    validate_word(run.word.letters, t)
                except ValueError as exc:
                    bad.append(f"p={format_permutation(p)} t={t}: invalid trace ({exc})")
    return _result(
        "series_machine_equivalence",
        f"greedy machine output vs iterated sort, trace validity, n <= {top}, t <= 4",
        bad,
    )


def check_forbidden_factors(top: int) -> CheckResult:
    bad = []
    for n in range(top + 1):
        for p in all_permutations(n):
            hits = forbidden_factor_violations(encode(p, 3))
            if hits:
                bad.append(f"p={format_permutation(p)}: {hits}")
    return _result("forbidden_factors", f"no forbidden factor in any 3-stack trace, n <= {top}", bad)


def check_codec_roundtrip(top: int) -> CheckResult:
    bad = []
    for n in range(top + 1):
        for p in all_permutations(n):
            for t in (1, 2, 3):
                recovered = decode(encode(p, t))
                if (recovered == p) != is_t_stack_sortable(p, t):
                    bad.append(f"p={format_permutation(p)} t={t}: decode gave {format_permutation(recovered)}")
    return _result(
        "codec_roundtrip",
        f"decode(encode(p)) == p exactly for sortable p, n <= {top}, t <= 3",
        bad,
    )


def check_projection(top: int) -> CheckResult:
    bad = []
    for n in range(top + 1):
        for p in all_permutations(n):
            if not is_t_stack_sortable(p, 3):
                continue
            projected = image_word(encode(p, 3))
            direct = encode(stack_sort(p), 2)
            if projected.indices() != direct.indices():
                bad.append(
                    f"p={format_permutation(p)}: projection {projected.letters} != "
                    f"2-stack word {direct.letters} of the image"
                )
    return _result(
        "projection",
        f"A-stripped trace equals the image's 2-stack word, n <= {top}",
        bad,
    )


def check_factor_descent_bijections(top: int) -> CheckResult:
    bad = []
    for n in range(top + 1):
        for p in all_permutations(n):
            descents = descent_count(p)
            for t in (1, 2, 3):
                word = encode(p, t)
                if count_factor(word, "AA") != descents:
                    bad.append(f"p={format_permutation(p)} t={t}: AA count != descents")
            if is_t_stack_sortable(p, 3):
                v = image_word(word)  # the t = 3 trace from the loop above
                if count_factor(v, "BB") != descent_count(stack_sort(p)):
                    bad.append(f"p={format_permutation(p)}: BB count in projection != image descents")
    return _result(
        "factor_descent_bijections",
        f"AA factors count descents; BB factors count image descents, n <= {top}",
        bad,
    )


def check_placement_membership(top: int) -> CheckResult:
    bad = []
    for n in range(1, top + 1):
        by_projection: dict[str, list] = {}
        for p in all_permutations(n):
            if is_t_stack_sortable(p, 3):
                w = encode(p, 3)
                by_projection.setdefault(image_word(w).letters, []).append((p, w))
        for v_letters, members in by_projection.items():
            v = StackWord(v_letters, "BCD")
            candidates = {w.letters for w in enumerate_a_placements(v, n)}
            k = count_factor(v, "BB") + 1
            expected = binomial(2 * n - 2 * k, n - 1)
            if len(candidates) != expected:
                bad.append(f"v={v_letters}: {len(candidates)} candidates != C(2n-2k, n-1) = {expected}")
            for p, w in members:
                if w.letters not in candidates:
                    bad.append(f"p={format_permutation(p)}: trace {w.letters} missing from candidates of {v_letters}")
    return _result(
        "placement_membership",
        f"every trace among its projection's candidates, stream sizes exact, n <= {top}",
        bad,
    )


def _ballot_words(n: int) -> list[str]:
    # all words with n 'A' and n 'B' where every prefix has #A >= #B
    out: list[str] = []

    def grow(prefix: list[str], a: int, b: int) -> None:
        if a + b == 2 * n:
            out.append("".join(prefix))
            return
        if a < n:
            prefix.append("A")
            grow(prefix, a + 1, b)
            prefix.pop()
        if b < a:
            prefix.append("B")
            grow(prefix, a, b + 1)
            prefix.pop()

    grow([], 0, 0)
    return out


def check_one_stack_word_count(top: int) -> CheckResult:
    bad = []
    for n in range(top + 1):
        words_n = _ballot_words(n)
        if len(words_n) != catalan(n):
            bad.append(f"n={n}: {len(words_n)} ballot words != catalan {catalan(n)}")
        for w in words_n:
            validate_word(w, 1)
    return _result("one_stack_word_count", f"valid 1-stack words are Catalan-many, n <= {top}", bad)


def check_bound_inequalities(top3: int, top_trivial: int) -> CheckResult:
    bad = []
    for n in range(1, max(top3, top_trivial) + 1):
        if n <= top3:
            # the paper's lemma image by image: an image with k - 1 descents
            # has at most C(2n-2k, n-1) preimages; the tallies sum them by descents
            tallies: dict[int, int] = {}
            for q, fertility in image_fertilities(n):
                d = descent_count(q)
                tallies[d] = tallies.get(d, 0) + fertility
                cap = binomial(2 * n - 2 * (d + 1), n - 1)
                if fertility > cap:
                    bad.append(f"n={n} q={format_permutation(q)}: {fertility} preimages exceed per-image cap {cap}")
            for d, tally in tallies.items():
                cap = bound_summand(n, d + 1)
                if tally > cap:
                    bad.append(f"n={n} d={d}: {tally} exceeds per-descent cap {cap}")
            bound = three_stack_bound(n)
            # the term-ratio recurrence against its binomial closed form
            summed = sum(bound_summand(n, k) for k in range(1, (n + 1) // 2 + 1))
            if bound != summed:
                bad.append(f"n={n}: bound {bound} differs from its summed closed form {summed}")
            if sum(tallies.values()) > bound:
                bad.append(f"n={n}: 3-stack count {sum(tallies.values())} exceeds bound {bound}")
        if n <= top_trivial:
            # one n! sweep serves t = 1, 2 and 3, and is the brute-force
            # oracle for the engine's tallies
            images = image_tally(n)
            for t in (1, 2, 3):
                if t == 3 and n <= top3:
                    brute = brute_force_image_descent_counts(n, images=images)
                    if brute != tallies:
                        bad.append(f"n={n}: preimage tallies {tallies} != brute force {brute}")
                    count = sum(brute.values())
                else:
                    count = brute_force_count(n, t, images=images)
                if count > trivial_bound(n, t):
                    bad.append(f"n={n} t={t}: count exceeds trivial bound")
    return _result(
        "bound_inequalities",
        f"per-image, per-descent and aggregate 3-stack bounds to n <= {top3}; trivial bound to n <= {top_trivial}",
        bad,
    )


def check_growth_function() -> CheckResult:
    bad = []
    for i in range(999):
        x = 0.0005 + i * (0.4995 - 0.0005) / 998
        a, b = growth_rate(x), growth_rate_unsimplified(x)
        if abs(a - b) / a > 1e-11:
            bad.append(f"x={x}: simplified {a} vs unsimplified {b}")
    if abs(growth_rate(0.0) - 4.0) > 1e-9:
        bad.append(f"left endpoint {growth_rate(0.0)} != 4")
    if abs(growth_rate(0.5) - 6.75) > 1e-9:
        bad.append(f"right endpoint {growth_rate(0.5)} != 27/4")
    x_closed = critical_point()
    for method in ("golden_section", "derivative_bisection"):
        found = maximize_growth_rate(1e-10, method)
        if abs(found.x_star - x_closed) > 1e-7:
            bad.append(f"{method} maximizer {found.x_star} vs closed form {x_closed}")
        if abs(found.g_star - 12.53296) > 5e-5:
            bad.append(f"{method} maximum {found.g_star} not within 5e-5 of 12.53296")
    h = 1e-6
    slope = (_log_growth_rate(x_closed + h) - _log_growth_rate(x_closed - h)) / (2 * h)
    if abs(slope) > 1e-5:
        bad.append(f"log growth rate not stationary at closed-form point (slope {slope})")
    return _result(
        "growth_function",
        "two forms agree on a 999-point grid; endpoints, maximizers, stationarity",
        bad,
    )


def check_growth_bridge(sample: tuple[int, ...]) -> CheckResult:
    bad = []
    x_star = critical_point()
    g_star = growth_rate(x_star)
    errors = [abs(summand_nth_root(n, x_star) - g_star) / g_star for n in (200, 500, 1000)]
    if not all(a > b for a, b in zip(errors, errors[1:])):
        bad.append(f"summand root error not decreasing over n in (200, 500, 1000): {errors}")
    if errors[-1] > 0.03:
        bad.append(f"summand root at n=1000 off by {errors[-1]:.4f} (> 3%)")
    roots = [bound_nth_root(n) for n in sample]
    if not all(a < b for a, b in zip(roots, roots[1:])):
        bad.append(f"bound roots not increasing over {sample}: {roots}")
    for n, root in zip(sample, roots):
        if root >= 12.6:
            bad.append(f"bound root at n={n} is {root} >= 12.6")
        # < n summands, each at most the largest one
        if root >= g_star * n ** (2.0 / n):
            bad.append(f"bound root at n={n} exceeds g_star * n^(2/n)")
    return _result(
        "growth_bridge",
        f"exact summand and bound roots approach the growth maximum; samples {sample}",
        bad,
    )


ALL_CHECKS = (
    check_permutation_statistics,
    check_catalan_oracle,
    check_two_stack_oracle,
    check_descent_refinement_oracle,
    check_descent_refinement_algebra,
    check_sortability_structure,
    check_series_machine_equivalence,
    check_forbidden_factors,
    check_codec_roundtrip,
    check_projection,
    check_factor_descent_bijections,
    check_placement_membership,
    check_one_stack_word_count,
    check_bound_inequalities,
    check_growth_function,
    check_growth_bridge,
)


# Sizes per level, keyed by family name: the keyword arguments of check_<family>.
BOUNDS = {
    "quick": {
        "permutation_statistics": {"top": 6},
        "catalan_oracle": {"top": 6},
        "two_stack_oracle": {"top": 6},
        "descent_refinement_oracle": {"top": 6},
        "descent_refinement_algebra": {"top": 120},
        "sortability_structure": {"top": 6, "avoid_top": 6},
        "series_machine_equivalence": {"top": 6},
        "forbidden_factors": {"top": 6},
        "codec_roundtrip": {"top": 6},
        "projection": {"top": 6},
        "factor_descent_bijections": {"top": 6},
        "placement_membership": {"top": 6},
        "one_stack_word_count": {"top": 6},
        "bound_inequalities": {"top3": 6, "top_trivial": 6},
        "growth_function": {},
        "growth_bridge": {"sample": (10, 50, 200)},
    },
    "full": {
        "permutation_statistics": {"top": 8},
        "catalan_oracle": {"top": 8},
        "two_stack_oracle": {"top": 8},
        "descent_refinement_oracle": {"top": 7},
        "descent_refinement_algebra": {"top": 300},
        "sortability_structure": {"top": 7, "avoid_top": 8},
        "series_machine_equivalence": {"top": 7},
        "forbidden_factors": {"top": 7},
        "codec_roundtrip": {"top": 7},
        "projection": {"top": 7},
        "factor_descent_bijections": {"top": 7},
        "placement_membership": {"top": 7},
        "one_stack_word_count": {"top": 8},
        "bound_inequalities": {"top3": 9, "top_trivial": 8},
        "growth_function": {},
        "growth_bridge": {"sample": (10, 50, 200, 1000, 2000)},
    },
}

LEVELS = tuple(BOUNDS)


def run_verification(level: str = "quick") -> list[CheckResult]:
    """
    Run every family in ALL_CHECKS with its sizes from BOUNDS[level]. A
    check that raises becomes a failed result for its family, with the
    exception as its witness, and the other families still run.
    """
    if level not in BOUNDS:
        raise ValueError(f"unknown level {level!r}, expected one of {LEVELS}")
    row = BOUNDS[level]
    results = []
    for check in ALL_CHECKS:
        family = check.__name__.removeprefix("check_")
        try:
            results.append(check(**row[family]))
        except Exception as exc:
            results.append(_result(family, "the check raised an exception", [f"{type(exc).__name__}: {exc}"]))
    return results
