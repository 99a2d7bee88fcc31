import pytest

import stackwords.verify as verify
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
]


def _case_ids(cases):
    # the family, plus the patched name from a family's second case on
    seen = set()
    for family, name, _ in cases:
        yield f"{family}-{name}" if family in seen else family
        seen.add(family)


@pytest.mark.parametrize("family, name, wrong", _SABOTAGE, ids=list(_case_ids(_SABOTAGE)))
def test_each_delegated_check_can_fail(monkeypatch, family, name, wrong):
    monkeypatch.setattr(verify, name, wrong)
    result = getattr(verify, f"check_{family}")(**verify.BOUNDS["quick"][family])
    assert result.passed is False
    assert result.witnesses
