import math
from collections import Counter

import pytest

import stackwords.counting as counting
import stackwords.verify as verify
from stackwords.machine import is_t_stack_sortable, stack_sort
from stackwords.perms import all_permutations
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
    ("growth_function", "_log_growth_slope", lambda x: 1.0),
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


def _alone(check):
    # one family on its own, an exception turned into a failed result the
    # way run_verification reports it
    family = check.__name__.removeprefix("check_")
    try:
        return check(**verify.BOUNDS["quick"][family])
    except Exception as exc:
        return verify.CheckResult(family, False, "the check raised an exception", [f"{type(exc).__name__}: {exc}"])


@pytest.fixture(scope="module")
def clean_alone():
    return [_alone(check) for check in verify.ALL_CHECKS]


def test_shared_sweep_matches_each_family_alone(clean_alone):
    # name, passed, detail and witnesses, in ALL_CHECKS order
    assert verify.run_verification("quick") == clean_alone


_SWEEPING_FAMILIES = {check.__name__.removeprefix("check_") for check in verify._SWEEPING}
_SWEEPING_SABOTAGE = [case for case in _SABOTAGE if case[0] in _SWEEPING_FAMILIES]


@pytest.mark.parametrize("family, name, wrong", _SWEEPING_SABOTAGE, ids=[case[0] for case in _SWEEPING_SABOTAGE])
def test_shared_sweep_matches_each_family_alone_under_sabotage(monkeypatch, family, name, wrong):
    monkeypatch.setattr(verify, name, wrong)
    shared = verify.run_verification("quick")
    assert shared == [_alone(check) for check in verify.ALL_CHECKS]
    assert not shared[[r.name for r in shared].index(family)].passed


@pytest.mark.parametrize(
    "name, family",
    [("decode", "codec_roundtrip"), ("run_series_machine", "series_machine_equivalence")],
    ids=["decode", "run_series_machine"],
)
def test_a_raising_family_leaves_the_others_clean(monkeypatch, clean_alone, name, family):
    def broken(*args):
        raise RuntimeError(f"{name} broke")

    monkeypatch.setattr(verify, name, broken)
    shared = verify.run_verification("quick")
    failed = [r for r in shared if not r.passed]
    assert [(r.name, r.witnesses) for r in failed] == [(family, [f"RuntimeError: {name} broke"])]
    assert [r for r in shared if r.name != family] == [r for r in clean_alone if r.name != family]


def test_a_family_that_raises_leaves_the_sweep_to_the_others():
    class Seen(verify._Family):
        detail, first = "", 1

        def visit(self, seen):
            self.bad.append(seen.p)

    class RaisesAt213(Seen):
        first = 0

        def visit(self, seen):
            if seen.p == (2, 1, 3):
                raise ValueError("stop")
            super().visit(seen)

    raising, after = RaisesAt213(top=3), Seen(top=3)
    verify._sweep([raising, after])
    assert str(raising.error) == "stop"
    assert raising.bad == [(), (1,), (1, 2), (2, 1), (1, 2, 3), (1, 3, 2)]
    assert after.error is None
    assert after.bad == [p for n in range(1, 4) for p in all_permutations(n)]


def test_the_sweep_computes_each_word_once(monkeypatch):
    # One encode(p, t) per p and t <= 3, plus the image's 2-stack word for
    # each 3-stack sortable p; the machine family keeps its own four runs
    # per p. Families sweeping on their own encode about 8400 times.
    calls = Counter()

    def spy(name):
        real = getattr(verify, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(verify, name, counted)

    spy("encode")
    spy("run_series_machine")
    assert all(r.passed for r in verify.run_verification("quick"))
    perms = sum(math.factorial(n) for n in range(7))  # n <= 6, the quick level's sweeps
    three_sortable = sum(is_t_stack_sortable(p, 3) for n in range(7) for p in all_permutations(n))
    assert (perms, three_sortable) == (874, 754)
    assert calls["encode"] <= 3 * perms + three_sortable
    assert calls["run_series_machine"] == 4 * perms


def test_avoidance_witnesses_come_first(monkeypatch):
    # every p "contains" every pattern, so both loops of
    # sortability_structure report; the avoid loop's witnesses lead for
    # all n, as when it ran before the other loop
    monkeypatch.setattr(verify, "contains_pattern", lambda p, q: True)
    monkeypatch.setattr(verify, "_MAX_WITNESSES", 100)
    result = verify.check_sortability_structure(top=3, avoid_top=3)
    avoid = ["231-avoidance mismatch" in w for w in result.witnesses]
    assert avoid == [True] * 8 + [False] * 26
