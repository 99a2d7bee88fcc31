"""
Acceptance suite: one test per numbered criterion, each printing a single
pass/fail line (run with ``pytest tests/test_acceptance.py -s -v`` to see
them). Tolerances and runtime caps are pinned here, not configurable.

Criterion 10 is expected to fail: the n-th root of the exact dominant
summand at n = 1000 sits 2.47% below the limiting growth rate, outside
the required 2%. The gap is fully determined by exact integer arithmetic
(it shrinks like exp(-(3.5 ln n + C)/n) and first drops under 2% between
n = 1250 and n = 1300), so no implementation can meet the stated
tolerance at n = 1000. The assertion is kept faithful rather than
loosened.
"""
import time

from stackwords.counting import catalan, two_stack_count
from stackwords.growth import (
    bound_nth_root,
    critical_point,
    maximize_growth_rate,
    summand_nth_root,
)
from stackwords.verify import (
    check_bound_inequalities,
    check_catalan_oracle,
    check_codec_roundtrip,
    check_descent_refinement_algebra,
    check_descent_refinement_oracle,
    check_forbidden_factors,
    check_growth_function,
    check_placement_membership,
    check_projection,
    check_series_machine_equivalence,
    check_two_stack_oracle,
)

CATALAN_TABLE = [1, 2, 5, 14, 42, 132, 429, 1430]


def _witnesses(*results) -> list[str]:
    return [f"{r.name}: {w}" for r in results for w in r.witnesses]


def _finish(number: int, name: str, failures: list[str], started: float, cap: float) -> None:
    elapsed = time.perf_counter() - started
    if elapsed >= cap:
        failures.append(f"runtime {elapsed:.1f}s exceeded the {cap:.0f}s cap")
    verdict = "PASS" if not failures else "FAIL"
    print(f"criterion {number:2d} [{verdict}] {name} ({elapsed:.1f}s)")
    assert not failures, failures


def test_criterion_01_catalan_oracle():
    started = time.perf_counter()
    failures = _witnesses(check_catalan_oracle(top=8))
    if [catalan(n) for n in range(1, 9)] != CATALAN_TABLE:
        failures.append(f"catalan(1..8) differs from the table {CATALAN_TABLE}")
    _finish(1, "1-stack sortable counts match the Catalan formula, n <= 8", failures, started, 10)


def test_criterion_02_two_stack_formula_oracle():
    started = time.perf_counter()
    failures = _witnesses(check_two_stack_oracle(top=8))
    if two_stack_count(4) != 22:
        failures.append(f"two_stack_count(4) = {two_stack_count(4)} != 22")
    _finish(2, "2-stack sortable counts match the closed formula, n <= 8", failures, started, 30)


def test_criterion_03_descent_refinement_oracle():
    started = time.perf_counter()
    failures = _witnesses(check_descent_refinement_oracle(top=7), check_descent_refinement_algebra(top=300))
    _finish(3, "descent refinement matches brute force (n <= 7) and sums exactly (n <= 300)", failures, started, 30)


def test_criterion_04_per_descent_and_aggregate_bounds():
    started = time.perf_counter()
    failures = _witnesses(check_bound_inequalities(top3=9, top_trivial=8))
    _finish(4, "per-descent caps and aggregate 3-stack bound hold, n <= 9", failures, started, 300)


def test_criterion_05_forbidden_factors_absent():
    started = time.perf_counter()
    failures = _witnesses(check_forbidden_factors(top=7))
    _finish(5, "no forbidden factor in any 3-stack trace, n <= 7", failures, started, 120)


def test_criterion_06_codec_roundtrip_and_projection():
    started = time.perf_counter()
    failures = _witnesses(check_codec_roundtrip(top=7), check_projection(top=7))
    _finish(6, "decode(encode(p)) == p for sortable p; projection is the image's word, n <= 7", failures, started, 120)


def test_criterion_07_series_machine_equivalence():
    started = time.perf_counter()
    failures = _witnesses(check_series_machine_equivalence(top=7))
    _finish(7, "greedy series machine equals iterated stack sort, n <= 7, t <= 4", failures, started, 120)


def test_criterion_08_placement_membership_and_cardinality():
    started = time.perf_counter()
    failures = _witnesses(check_placement_membership(top=7))
    _finish(8, "every trace appears among its projection's candidates; stream sizes exact, n <= 7", failures, started, 120)


def test_criterion_09_growth_rate_maximization():
    started = time.perf_counter()
    failures = _witnesses(check_growth_function())
    if abs(critical_point() - 0.2883918927) > 1e-8:
        failures.append(f"closed form {critical_point()} != 0.2883918927")
    _finish(9, "maximizers agree; value 12.53296 to 5e-5; forms identical; endpoint 27/4", failures, started, 1)


def test_criterion_10_exact_to_asymptotic_bridge():
    started = time.perf_counter()
    failures = []
    g_star = maximize_growth_rate(1e-10).g_star
    samples = (10, 50, 200, 1000, 2000)
    roots = [bound_nth_root(n) for n in samples]
    if not 11.5 <= roots[-1] <= 12.6:
        failures.append(f"bound root at n=2000 is {roots[-1]}, outside [11.5, 12.6]")
    if roots != sorted(roots):
        failures.append(f"bound roots not increasing over {samples}: {roots}")
    root = summand_nth_root(1000, critical_point())
    rel = abs(root - g_star) / g_star
    if rel > 0.02:
        failures.append(
            f"summand root at n=1000 is {root:.6f}, {rel:.4%} from the maximum "
            f"{g_star:.6f}; required within 2% (unattainable: the exact gap at "
            f"n=1000 is 2.47%)"
        )
    _finish(10, "exact bound roots converge into [11.5, 12.6]; summand root within 2% at n=1000", failures, started, 30)
