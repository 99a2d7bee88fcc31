import math

import pytest

import stackwords.counting as counting
import stackwords.verify as verify
from stackwords.machine import stack_sort
from stackwords.words import StackWord


def test_quick_level_all_pass():
    results = verify.run_verification("quick")
    assert len(results) == len(verify.ALL_CHECKS)
    assert all(r.passed for r in results), [r.name for r in results if not r.passed]
    assert all(r.witnesses == [] for r in results)


def test_unknown_level_rejected():
    with pytest.raises(ValueError):
        verify.run_verification("paranoid")


def test_failures_carry_witnesses(monkeypatch):
    # sabotage the formula the check compares against; the report must
    # name a concrete witness
    monkeypatch.setattr(verify, "catalan", lambda n: 999)
    result = verify.check_catalan_oracle(top=6)
    assert not result.passed
    assert result.witnesses
    assert "999" in result.witnesses[0]


def test_direct_calls_still_raise(monkeypatch):
    # only run_verification turns an exception into a failed result
    def broken(word):
        raise ValueError("decoder broke")

    monkeypatch.setattr(verify, "decode", broken)
    with pytest.raises(ValueError, match="decoder broke"):
        verify.check_codec_roundtrip(top=3)


def test_witness_lists_are_truncated(monkeypatch):
    monkeypatch.setattr(verify, "catalan", lambda n: -1)
    result = verify.check_catalan_oracle(top=8)
    assert not result.passed
    assert len(result.witnesses) <= verify._MAX_WITNESSES + 1
    assert result.witnesses[-1].endswith("more")


# One wrong dependency per case, for every family that an acceptance
# criterion or a unit test delegates to: each check must notice it and
# report a witness.
_SABOTAGE = [
    ("catalan_oracle", "catalan", lambda n: -1),
    ("two_stack_oracle", "two_stack_count", lambda n: -1),
    ("descent_refinement_oracle", "two_stack_count_by_descents", lambda n, d: -1),
    ("descent_refinement_algebra", "two_stack_count", lambda n: -1),
    ("bound_inequalities", "three_stack_bound", lambda n: 0),
    ("bound_inequalities", "trivial_bound", lambda n, t: 0),
    # too big for the inequalities: only the closed-form oracle catches it
    ("bound_inequalities", "three_stack_bound", lambda n: 10**9),
    ("forbidden_factors", "forbidden_factor_violations", lambda w: [("BB", 0)]),
    ("codec_roundtrip", "decode", lambda w: ()),
    ("projection", "image_word", lambda w: StackWord("", "BCD")),
    ("factor_descent_bijections", "count_factor", lambda w, factor: -1),
    ("series_machine_equivalence", "iterate_stack_sort", lambda p, t: p),
    ("placement_membership", "enumerate_a_placements", lambda v, n: iter(())),
    ("growth_function", "critical_point", lambda: 0.25),
    # the preimage engine: a fertility no image can have, then no images at all
    ("bound_inequalities", "image_fertilities", lambda n: iter([(tuple(range(1, n + 1)), 10**9)])),
    ("bound_inequalities", "image_fertilities", lambda n: iter(())),
]


def _case_ids(cases):
    # the family, plus the patched name from a family's second case on,
    # plus a number from that name's second case on
    families, ids = set(), []
    for family, name, _ in cases:
        case_id = f"{family}-{name}" if family in families else family
        families.add(family)
        repeats = ids.count(case_id)
        ids.append(case_id)
        yield f"{case_id}-{repeats + 1}" if repeats else case_id


@pytest.mark.parametrize("family, name, wrong", _SABOTAGE, ids=list(_case_ids(_SABOTAGE)))
def test_each_delegated_check_can_fail(monkeypatch, family, name, wrong):
    monkeypatch.setattr(verify, name, wrong)
    result = getattr(verify, f"check_{family}")(**verify.BOUNDS["quick"][family])
    assert result.passed is False
    assert result.witnesses


@pytest.mark.parametrize(
    "case, caught_by",
    [(_SABOTAGE[-2], "per-image cap"), (_SABOTAGE[-1], "brute force")],
    ids=["huge_fertility", "no_images"],
)
def test_engine_faults_name_the_check_that_caught_them(monkeypatch, case, caught_by):
    family, name, wrong = case
    monkeypatch.setattr(verify, name, wrong)
    result = getattr(verify, f"check_{family}")(**verify.BOUNDS["quick"][family])
    assert any(caught_by in witness for witness in result.witnesses), result.witnesses


def test_bound_inequalities_sorts_each_permutation_once(monkeypatch):
    # the t = 1, 2 and 3 brute counts and the image-descent tallies share
    # one n! sweep per n; the preimage engine sorts nothing
    sorted_perms = []

    def counted_sort(p):
        sorted_perms.append(p)
        return stack_sort(p)

    monkeypatch.setattr(counting, "stack_sort", counted_sort)
    result = verify.check_bound_inequalities(top3=6, top_trivial=6)
    assert result.passed, result.witnesses
    assert len(sorted_perms) == sum(math.factorial(n) for n in range(1, 7))
