"""
Self-verification: every formula, bound, and structural claim in the
package checked against brute force at desk scale. Each check returns a
result with concrete witnesses on failure. Each check takes its sizes
as arguments. The table ``_FAMILIES`` has one row per family, in report
order: its check, the ``_Family`` class it adds to the shared sweep (or
None) and its sizes per level. ``ALL_CHECKS``, ``BOUNDS`` and the map of
sweeping families are read off it, so a new family is its check and one
row. The ``quick`` level keeps exhaustive sweeps to n <= 6. ``full``
takes the n! sweeps of ``permutation_statistics``, the two count oracles
and the brute-force part of ``bound_inequalities`` to n <= 8 and the
other n! sweeps to n <= 7; only the preimage engine reaches n = 9.
``run_verification`` runs the eight families that share one streaming
sweep over every permutation of each n in its own process, and every
other check at the same time in one forked child; each
``check_<family>`` of a sweeping family runs the same sweep with only
its own family.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import signal
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Callable

from .counting import (
    bound_summand,
    brute_force_count,
    brute_force_image_descent_counts,
    catalan,
    image_fertilities,
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
    _log_growth_slope,
)
from .machine import (
    encode,
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
    witnesses: list[str]


def _result(name: str, detail: str, witnesses: list[str]) -> CheckResult:
    shown = witnesses[:_MAX_WITNESSES]
    if len(witnesses) > _MAX_WITNESSES:
        shown.append(f"... {len(witnesses) - _MAX_WITNESSES} more")
    return CheckResult(name=name, passed=not witnesses, detail=detail, witnesses=shown)


def _family_name(check: Callable[..., CheckResult]) -> str:
    return check.__name__.removeprefix("check_")


class _Seen:
    """
    One permutation of the sweep and what two or more families read from
    it: its image, sortability, stack words, descents and the projection
    of its 3-stack trace. A value that one family alone reads, that
    family computes itself. Each value is computed on first use, at most
    once, and goes when the sweep moves on to the next permutation. A
    value whose computation raises is not kept, so every family that asks
    for it meets the exception.
    """

    __slots__ = ("p", "n", "_identity", "_image", "_cur", "_passes", "_words", "_descents", "_projection")

    def __init__(self, p: tuple[int, ...], identity: tuple[int, ...]):
        self.p, self.n, self._identity = p, len(p), identity
        self._image = self._descents = self._projection = None
        self._cur, self._passes = p, 0  # the stack-sort iterates so far
        self._words: list[StackWord | None] = [None] * 4

    def image(self) -> tuple[int, ...]:
        if self._image is None:
            self._image = stack_sort(self.p)
        return self._image

    def sortable(self, t: int) -> bool:
        # iterate only as far as t needs, and never past the identity (a
        # fixed point), so the pass count reached there is the least one
        while self._passes < t and self._cur != self._identity:
            self._cur = stack_sort(self._cur) if self._passes else self.image()
            self._passes += 1
        return self._cur == self._identity and self._passes <= t

    def word(self, t: int) -> StackWord:
        """encode(p, t), for t <= 3."""
        w = self._words[t]
        if w is None:
            w = self._words[t] = encode(self.p, t)
        return w

    def descents(self) -> int:
        if self._descents is None:
            self._descents = descent_count(self.p)
        return self._descents

    def projection(self) -> StackWord:
        """
        image_word(word(3)): the trace with its input pushes dropped,
        which is the image's 2-stack word over BCD for every p, 3-stack
        sortable or not.
        """
        if self._projection is None:
            self._projection = image_word(self.word(3))
        return self._projection


class _Family:
    """
    A property family that reads a sweep, shared or its own. Each family
    has one size, ``top``: ``visit`` sees every permutation of each n in
    ``sizes`` (``first`` up to ``top``) in all_permutations order, then
    ``finish`` closes that n.
    Witnesses collect in ``bad`` in that order; an exception ends the
    family's part in the sweep, is kept in ``error`` and raised by
    ``result``. ``detail`` is formatted with ``top``.
    """

    name: str
    detail: str
    first = 0

    def __init__(self, top: int):
        self.sizes = range(self.first, top + 1)
        self.detail = self.detail.format(top=top)
        self.bad: list[str] = []
        self.error: Exception | None = None

    def finish(self, n: int) -> None:
        pass

    def result(self) -> CheckResult:
        if self.error is not None:
            raise self.error
        return _result(self.name, self.detail, self.bad)


def _sweep(families: list[_Family]) -> None:
    """
    Walk all_permutations(n) once for each n that some family reads, and
    show each permutation to every family reading that n. Nothing outlives
    the permutation but what the families keep themselves.
    """
    for n in range(max((f.sizes.stop for f in families), default=0)):
        active = [f for f in families if n in f.sizes and f.error is None]
        if not active:
            continue
        identity = tuple(range(1, n + 1))
        for p in all_permutations(n):
            seen = _Seen(p, identity)
            for f in active:
                try:
                    f.visit(seen)
                except Exception as exc:
                    f.error = exc
                    active = [g for g in active if g is not f]  # the loop goes on over the old list
            if not active:
                break
        for f in active:
            try:
                f.finish(n)
            except Exception as exc:
                f.error = exc


def _sweep_alone(family: _Family) -> CheckResult:
    _sweep([family])
    return family.result()


class _PermutationStatistics(_Family):
    name = "permutation_statistics"
    detail = "descents, containment, 231-avoiders for n <= {top}"

    def __init__(self, top: int):
        super().__init__(top)
        self.avoiders = 0

    def visit(self, seen: _Seen) -> None:
        p, n = seen.p, seen.n
        avoids_231 = not contains_pattern(p, (2, 3, 1))
        self.avoiders += avoids_231
        if n >= 1 and seen.sortable(1) != avoids_231:
            self.bad.append(f"p={format_permutation(p)}: 1-sortability vs 231-avoidance mismatch")
        if n >= 1 and seen.descents() + descent_count(p[::-1]) != n - 1:
            self.bad.append(f"descent/reverse mismatch at p={format_permutation(p)}")
        if not contains_pattern(p, p) or not contains_pattern(p, ()):
            self.bad.append(f"trivial containment failed at p={format_permutation(p)}")
        if contains_pattern(p, tuple(range(1, n + 2))):
            self.bad.append(f"p={format_permutation(p)} contains a longer pattern")

    def finish(self, n: int) -> None:
        if self.avoiders != catalan(n):
            self.bad.append(f"n={n}: {self.avoiders} 231-avoiders != catalan {catalan(n)}")
        self.avoiders = 0


def check_permutation_statistics(top: int) -> CheckResult:
    return _sweep_alone(_PermutationStatistics(top=top))


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


class _DescentRefinementOracle(_Family):
    name = "descent_refinement_oracle"
    detail = "2-stack counts by descents vs formula for n <= {top}"
    first = 1

    def __init__(self, top: int):
        super().__init__(top)
        self.tallies: Counter[int] = Counter()

    def visit(self, seen: _Seen) -> None:
        if seen.sortable(2):
            self.tallies[seen.descents()] += 1

    def finish(self, n: int) -> None:
        for d in range(n):
            formula = two_stack_count_by_descents(n, d)
            if self.tallies[d] != formula:
                self.bad.append(f"n={n} d={d}: brute {self.tallies[d]} != formula {formula}")
        self.tallies = Counter()


def check_descent_refinement_oracle(top: int) -> CheckResult:
    return _sweep_alone(_DescentRefinementOracle(top=top))


def check_descent_refinement_algebra(top: int) -> CheckResult:
    bad = []
    for n in range(1, top + 1):
        row = [two_stack_count_by_descents(n, d) for d in range(n)]
        if sum(row) != two_stack_count(n):
            bad.append(f"n={n}: descent counts do not sum to the total")
        if row != row[::-1]:
            bad.append(f"n={n}: descent counts not symmetric")
    return _result("descent_refinement_algebra", f"sum and symmetry identities for n <= {top}", bad)


class _SortabilityStructure(_Family):
    """
    Every p with n >= 2 is (n-1)-stack sortable, and a t-sortable p avoids
    2341 (t = 2) and 23451 (t = 3). The t = 1 case, 231, is
    permutation_statistics' clause, which checks the equivalence.
    """

    name = "sortability_structure"
    detail = "(n-1)-sortability and pattern avoidance for n <= {top}"

    def visit(self, seen: _Seen) -> None:
        p, n = seen.p, seen.n
        if n >= 2 and not seen.sortable(n - 1):
            self.bad.append(f"p={format_permutation(p)}: not (n-1)-stack sortable")
        for t, pattern in ((2, (2, 3, 4, 1)), (3, (2, 3, 4, 5, 1))):
            if seen.sortable(t) and contains_pattern(p, pattern):
                self.bad.append(f"p={format_permutation(p)}: {t}-sortable but contains {format_permutation(pattern)}")


def check_sortability_structure(top: int) -> CheckResult:
    return _sweep_alone(_SortabilityStructure(top=top))


class _SeriesMachineEquivalence(_Family):
    # runs its own machine and iterates: this family checks them, and
    # reads only p from the sweep, so it sweeps alone, in run_verification's child
    name = "series_machine_equivalence"
    detail = "greedy machine output vs iterated sort, trace validity, n <= {top}, t <= 4"

    def visit(self, seen: _Seen) -> None:
        p = expected = seen.p
        for t in (1, 2, 3, 4):
            run = run_series_machine(p, t)
            expected = iterate_stack_sort(expected, 1)  # t passes over p
            if run.output != expected:
                self.bad.append(
                    f"p={format_permutation(p)} t={t}: machine "
                    f"{format_permutation(run.output)} != iterate {format_permutation(expected)}"
                )
            try:
                validate_word(run.word.letters, t)
            except ValueError as exc:
                self.bad.append(f"p={format_permutation(p)} t={t}: invalid trace ({exc})")


def check_series_machine_equivalence(top: int) -> CheckResult:
    return _sweep_alone(_SeriesMachineEquivalence(top=top))


class _ForbiddenFactors(_Family):
    name = "forbidden_factors"
    detail = "no forbidden factor in any 3-stack trace, n <= {top}"

    def visit(self, seen: _Seen) -> None:
        hits = forbidden_factor_violations(seen.word(3))
        if hits:
            self.bad.append(f"p={format_permutation(seen.p)}: {hits}")


def check_forbidden_factors(top: int) -> CheckResult:
    return _sweep_alone(_ForbiddenFactors(top=top))


class _CodecRoundtrip(_Family):
    name = "codec_roundtrip"
    detail = "decode(encode(p)) == p exactly for sortable p, n <= {top}, t <= 3"

    def visit(self, seen: _Seen) -> None:
        p = seen.p
        for t in (1, 2, 3):
            recovered = decode(seen.word(t))
            if (recovered == p) != seen.sortable(t):
                self.bad.append(f"p={format_permutation(p)} t={t}: decode gave {format_permutation(recovered)}")


def check_codec_roundtrip(top: int) -> CheckResult:
    return _sweep_alone(_CodecRoundtrip(top=top))


class _Projection(_Family):
    """
    The paper's lemma on every p, 3-stack sortable or not: the trace with
    its input pushes dropped is the 2-stack word of the image.
    """

    name = "projection"
    detail = "A-stripped trace equals the image's 2-stack word, n <= {top}"

    def visit(self, seen: _Seen) -> None:
        projected = seen.projection()
        direct = encode(seen.image(), 2)
        if projected.indices() != direct.indices():
            self.bad.append(
                f"p={format_permutation(seen.p)}: projection {projected.letters} != "
                f"2-stack word {direct.letters} of the image"
            )


def check_projection(top: int) -> CheckResult:
    return _sweep_alone(_Projection(top=top))


class _FactorDescentBijections(_Family):
    """
    On every p: the AA factors of each t-stack trace, t <= 3, count the
    descents of p, and the BB factors of the projection count those of
    the image.
    """

    name = "factor_descent_bijections"
    detail = "AA factors count descents; BB factors count image descents, n <= {top}"

    def visit(self, seen: _Seen) -> None:
        p = seen.p
        for t in (1, 2, 3):
            if count_factor(seen.word(t), "AA") != seen.descents():
                self.bad.append(f"p={format_permutation(p)} t={t}: AA count != descents")
        if count_factor(seen.projection(), "BB") != descent_count(seen.image()):
            self.bad.append(f"p={format_permutation(p)}: BB count in projection != image descents")


def check_factor_descent_bijections(top: int) -> CheckResult:
    return _sweep_alone(_FactorDescentBijections(top=top))


class _PlacementMembership(_Family):
    """
    Reads the traces of 3-stack sortable p only, unlike projection. A
    witness gets p back from its trace by decode, which is exact only for
    3-sortable p (codec_roundtrip checks that). And every trace of one n
    is held, as letters, until that n closes, so holding those of all n!
    permutations would raise the memory held at n = 7.
    """

    name = "placement_membership"
    detail = "every trace among its projection's candidates, stream sizes exact, n <= {top}"
    first = 1

    def __init__(self, top: int):
        super().__init__(top)
        self.by_projection: dict[StackWord, list[str]] = {}

    def visit(self, seen: _Seen) -> None:
        if seen.sortable(3):
            self.by_projection.setdefault(seen.projection(), []).append(seen.word(3).letters)

    def finish(self, n: int) -> None:
        by_projection, self.by_projection = self.by_projection, {}
        for v, traces in by_projection.items():
            candidates = {w.letters for w in enumerate_a_placements(v, n)}
            k = count_factor(v, "BB") + 1
            expected = math.comb(2 * n - 2 * k, n - 1)
            if len(candidates) != expected:
                self.bad.append(f"v={v.letters}: {len(candidates)} candidates != C(2n-2k, n-1) = {expected}")
            for trace in traces:
                if trace not in candidates:
                    p = decode(StackWord(trace, "ABCD"))
                    self.bad.append(f"p={format_permutation(p)}: trace {trace} missing from candidates of {v.letters}")


def check_placement_membership(top: int) -> CheckResult:
    return _sweep_alone(_PlacementMembership(top=top))


def _ballot_words(n: int) -> list[str]:
    # all words with n 'A' and n 'B' where every prefix has #A >= #B,
    # that is, where the i-th A (from 0) stands at or before position 2i
    return [
        "".join("A" if k in a_at else "B" for k in range(2 * n))
        for a_at in itertools.combinations(range(2 * n), n)
        if all(at <= 2 * i for i, at in enumerate(a_at))
    ]


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
                cap = math.comb(2 * n - 2 * (d + 1), n - 1)
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
            # one n! sweep is the brute-force oracle for the engine's tallies
            # and gives the 3-stack count; the 1- and 2-stack counts are the
            # formulas that catalan_oracle and two_stack_oracle check
            brute = brute_force_image_descent_counts(n)
            for t, count in enumerate((catalan(n), two_stack_count(n), sum(brute.values())), 1):
                if t == 3 and n <= top3 and brute != tallies:
                    bad.append(f"n={n}: preimage tallies {tallies} != brute force {brute}")
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
    slope = _log_growth_slope(x_closed)
    if abs(slope) > 1e-12:
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


LEVELS = ("quick", "full")

# One row per family, in report order: its check; the _Family class it adds
# to run_verification's shared n! sweep, or None for a check that the forked
# child runs; and its sizes at each of LEVELS, as the check's keyword arguments.
_FAMILIES = (
    (check_permutation_statistics, _PermutationStatistics, {"top": 6}, {"top": 8}),
    (check_catalan_oracle, None, {"top": 6}, {"top": 8}),
    (check_two_stack_oracle, None, {"top": 6}, {"top": 8}),
    (check_descent_refinement_oracle, _DescentRefinementOracle, {"top": 6}, {"top": 7}),
    (check_descent_refinement_algebra, None, {"top": 120}, {"top": 300}),
    (check_sortability_structure, _SortabilityStructure, {"top": 6}, {"top": 7}),
    (check_series_machine_equivalence, None, {"top": 6}, {"top": 7}),
    (check_forbidden_factors, _ForbiddenFactors, {"top": 6}, {"top": 7}),
    (check_codec_roundtrip, _CodecRoundtrip, {"top": 6}, {"top": 7}),
    (check_projection, _Projection, {"top": 6}, {"top": 7}),
    (check_factor_descent_bijections, _FactorDescentBijections, {"top": 6}, {"top": 7}),
    (check_placement_membership, _PlacementMembership, {"top": 6}, {"top": 7}),
    (check_one_stack_word_count, None, {"top": 6}, {"top": 8}),
    (check_bound_inequalities, None, {"top3": 6, "top_trivial": 6}, {"top3": 9, "top_trivial": 8}),
    (check_growth_function, None, {}, {}),
    (check_growth_bridge, None, {"sample": (10, 50, 200)}, {"sample": (10, 50, 200, 1000, 2000)}),
)

ALL_CHECKS = tuple(check for check, *_ in _FAMILIES)
# Sizes per level, keyed by family name.
BOUNDS = {level: {_family_name(check): sizes[i] for check, _, *sizes in _FAMILIES} for i, level in enumerate(LEVELS)}
# The families that share the n! sweep of run_verification, by their check function.
_SWEEPING = {check: family for check, family, *_ in _FAMILIES if family is not None}


def _raised(family: str, exc: BaseException) -> CheckResult:
    return _result(family, "the check raised an exception", [f"{type(exc).__name__}: {exc}"])


def _run_checks(checks: list[Callable[..., CheckResult]], row: dict[str, dict]) -> list[CheckResult]:
    """Call each check with its sizes from row; one that raises fails its family."""
    results = []
    for check in checks:
        family = _family_name(check)
        try:
            results.append(check(**row[family]))
        except Exception as exc:
            results.append(_raised(family, exc))
    return results


def _child(
    checks: list[Callable[..., CheckResult]],
    row: dict[str, dict],
    sigmask: set[signal.Signals],
    read_end: int,
    write_end: int,
) -> None:
    # never returns into the caller's stack: os._exit on every path, an
    # interrupt included, so the child runs no cleanup of the parent's
    code = 1
    try:
        signal.pthread_sigmask(signal.SIG_SETMASK, sigmask)
        os.close(read_end)
        with open(write_end, "wb") as pipe:
            pipe.write(json.dumps([asdict(r) for r in _run_checks(checks, row)]).encode())
        code = 0
    finally:
        os._exit(code)


def _run_beside(
    checks: list[Callable[..., CheckResult]], row: dict[str, dict], work: Callable[[], None]
) -> list[CheckResult]:
    """
    _run_checks(checks, row), in one forked child while work() runs in
    this process; here, after work(), where there is no check to run or
    os.fork is missing or fails.
    A child that ends without a complete result fails each of its
    families, with its exit status as the witness. The child is killed,
    if need be, and reaped before this returns or raises.
    """
    pid = None
    if checks and hasattr(os, "fork"):
        read_end, write_end = os.pipe()
        sigmask = signal.pthread_sigmask(signal.SIG_BLOCK, ())
        try:
            # SIGINT waits, blocked, from before the fork until each process
            # stands inside the try that cleans up after it
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            pid = os.fork()
        except OSError:
            pass
        finally:
            if pid is None:
                os.close(read_end)
                os.close(write_end)
                signal.pthread_sigmask(signal.SIG_SETMASK, sigmask)
    if pid is None:
        work()
        return _run_checks(checks, row)
    if pid == 0:
        _child(checks, row, sigmask, read_end, write_end)
    os.close(write_end)
    with open(read_end, "rb") as pipe:
        try:
            signal.pthread_sigmask(signal.SIG_SETMASK, sigmask)
            work()
            data = pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code == 0:
        try:
            return [CheckResult(**fields) for fields in json.loads(data)]
        except ValueError:
            pass
    ended = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
    exc = ChildProcessError(f"the checking child process ended ({ended}) without a complete result")
    return [_raised(_family_name(check), exc) for check in checks]


def run_verification(level: str = "quick") -> list[CheckResult]:
    """
    Run every family in ALL_CHECKS with its sizes from BOUNDS[level], and
    return the results in that order. The families of _SWEEPING share one
    n! sweep in this process; meanwhile one forked child runs every other
    check of this module. An entry of ALL_CHECKS that is not this module's
    own check function (a timing wrapper, say) runs in this process.
    A check that raises becomes a failed result for its family, with the
    exception as its witness, and the other families still run.
    """
    if level not in BOUNDS:
        raise ValueError(f"unknown level {level!r}, expected one of {LEVELS}")
    row = BOUNDS[level]
    swept = {check: family(**row[family.name]) for check, family in _SWEEPING.items() if check in ALL_CHECKS}
    own = [check for check in ALL_CHECKS if check not in swept and check is globals().get(check.__name__)]
    others = [check for check in ALL_CHECKS if check not in swept and check not in own]
    results = {}

    def here() -> None:
        _sweep(list(swept.values()))
        for check, family in swept.items():
            results[check] = family.result() if family.error is None else _raised(family.name, family.error)
        results.update(zip(others, _run_checks(others, row)))

    results.update(zip(own, _run_beside(own, row, here)))
    return [results[check] for check in ALL_CHECKS]
