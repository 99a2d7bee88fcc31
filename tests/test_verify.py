import functools
import math
import os
import time
from collections import Counter
from dataclasses import replace

import pytest

import stackwords.counting as counting
import stackwords.verify as verify
from stackwords.cli import main
from stackwords.counting import two_stack_count
from stackwords.growth import growth_rate, maximize_growth_rate
from stackwords.machine import encode, is_t_stack_sortable, run_series_machine, stack_sort
from stackwords.perms import all_permutations, descent_count, format_permutation
from stackwords.words import StackWord


def test_unknown_level_rejected():
    with pytest.raises(ValueError):
        verify.run_verification("paranoid")


@pytest.mark.parametrize("level", verify.LEVELS)
def test_each_level_sizes_every_family_in_report_order(level):
    assert list(verify.BOUNDS) == list(verify.LEVELS)
    assert list(verify.BOUNDS[level]) == [check.__name__.removeprefix("check_") for check in verify.ALL_CHECKS]


def test_each_sweeping_family_is_a_check_with_its_family_class():
    assert verify._SWEEPING
    for check, family in verify._SWEEPING.items():
        assert check in verify.ALL_CHECKS
        assert issubclass(family, verify._Family)
        assert family.name == check.__name__.removeprefix("check_")


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


# One wrong dependency per case, for every family of verify: each check
# must notice it and report a witness.
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
    ("permutation_statistics", "descent_count", lambda p: 0),
    ("one_stack_word_count", "catalan", lambda n: -1),
    ("sortability_structure", "contains_pattern", lambda p, q: True),
    ("growth_bridge", "bound_nth_root", lambda n: 13.0),
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


def test_every_family_has_a_sabotage_case():
    assert {case[0] for case in _SABOTAGE} == {check.__name__.removeprefix("check_") for check in verify.ALL_CHECKS}


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


def _reversed_trace(run):
    # a machine whose output is right but whose trace pops before it pushes
    return replace(run, word=replace(run.word, letters=run.word.letters[::-1]))


# One case per clause that no _SABOTAGE case reaches: the family, the wrong
# dependencies, and the text of that clause's witness.
_CLAUSE_SABOTAGE = {
    "trivial_containment": (
        "permutation_statistics",
        {"contains_pattern": lambda p, q: False},
        "trivial containment failed",
    ),
    "not_symmetric": (
        "descent_refinement_algebra",
        # the right row sums, all in d = 0
        {"two_stack_count_by_descents": lambda n, d: 0 if d else two_stack_count(n)},
        "descent counts not symmetric",
    ),
    "not_n_minus_1_sortable": (
        "sortability_structure",
        {"stack_sort": lambda p: p},
        "not (n-1)-stack sortable",
    ),
    "invalid_trace": (
        "series_machine_equivalence",
        {"run_series_machine": lambda p, t: _reversed_trace(run_series_machine(p, t))},
        "invalid trace",
    ),
    "grid_mismatch": (
        "growth_function",
        {"growth_rate_unsimplified": lambda x: 1.0},
        "vs unsimplified",
    ),
    # both forms wrong alike, so the grid still agrees
    "left_endpoint": (
        "growth_function",
        {"growth_rate": lambda x: 6.75, "growth_rate_unsimplified": lambda x: 6.75},
        "left endpoint 6.75 != 4",
    ),
    "right_endpoint": (
        "growth_function",
        {"growth_rate": lambda x: 4.0, "growth_rate_unsimplified": lambda x: 4.0},
        "right endpoint 4.0 != 27/4",
    ),
    "maximum_window": (
        "growth_function",
        {"maximize_growth_rate": lambda tol, method: replace(maximize_growth_rate(tol, method), g_star=12.6)},
        "maximum 12.6 not within 5e-5 of 12.53296",
    ),
    "summand_error_not_decreasing": (
        "growth_bridge",
        {"summand_nth_root": lambda n, x: growth_rate(x)},
        "summand root error not decreasing",
    ),
    "summand_error_above_3_percent": (
        "growth_bridge",
        # errors 0.2, 0.08 and 0.04: decreasing, but 4% at n = 1000
        {"summand_nth_root": lambda n, x: growth_rate(x) * (1 + 40 / n)},
        "(> 3%)",
    ),
    "bound_root_above_summand_cap": (
        "growth_bridge",
        {"bound_nth_root": lambda n: 20.0 + n / 1000},
        "bound root at n=10 exceeds g_star * n^(2/n)",
    ),
}


@pytest.mark.parametrize("family, wrong, witness", list(_CLAUSE_SABOTAGE.values()), ids=list(_CLAUSE_SABOTAGE))
def test_each_clause_can_fail(monkeypatch, family, wrong, witness):
    for name, value in wrong.items():
        monkeypatch.setattr(verify, name, value)
    result = getattr(verify, f"check_{family}")(**verify.BOUNDS["quick"][family])
    assert result.passed is False
    assert any(witness in w for w in result.witnesses), result.witnesses


# The real dependencies, but wrong on every q that is not 2-stack sortable:
# an image meets that only when p is not 3-stack sortable.
def _reversed_off_two_sortable(q, t):
    word = encode(q, t)
    if t == 2 and not is_t_stack_sortable(q, 2):
        return StackWord(word.letters[::-1], word.alphabet)
    return word


def _one_more_off_two_sortable(q):
    return descent_count(q) + (not is_t_stack_sortable(q, 2))


@pytest.mark.parametrize(
    "family, name, wrong, clause",
    [
        ("projection", "encode", _reversed_off_two_sortable, "2-stack word"),
        ("factor_descent_bijections", "descent_count", _one_more_off_two_sortable, "BB count"),
    ],
    ids=["projection", "factor_descent_bijections-BB"],
)
def test_a_lemma_is_checked_on_permutations_that_are_not_3_sortable(monkeypatch, family, name, wrong, clause):
    # the image's 2-stack word, or its descent count, is wrong exactly
    # where p is not 3-stack sortable, so the clause names exactly those p
    monkeypatch.setattr(verify, name, wrong)
    monkeypatch.setattr(verify, "_MAX_WITNESSES", 100)
    result = getattr(verify, f"check_{family}")(top=5)
    expected = [
        f"p={format_permutation(p)}" for n in range(6) for p in all_permutations(n) if not is_t_stack_sortable(p, 3)
    ]
    assert len(expected) == 120 - 114
    assert [w.split(":")[0] for w in result.witnesses if clause in w] == expected


def test_a_trace_missing_from_its_candidates_names_its_permutation(monkeypatch):
    # placement_membership keeps only the trace letters and gets p back by
    # decode: 231's trace is the one candidate of its projection, dropped here
    real = verify.enumerate_a_placements
    monkeypatch.setattr(
        verify, "enumerate_a_placements", lambda v, n: (w for w in real(v, n) if w.letters != "ABAABCDCBDCD")
    )
    assert verify.check_placement_membership(top=3).witnesses == [
        "v=BBCDCBDCD: 0 candidates != C(2n-2k, n-1) = 1",
        "p=231: trace ABAABCDCBDCD missing from candidates of BBCDCBDCD",
    ]


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


def test_each_check_reports_under_its_family_name(clean_alone):
    # the name a result carries is written apart from its check's name;
    # clean_alone called each check_<name> with BOUNDS["quick"][name]
    names = list(verify.BOUNDS["quick"])
    assert len(names) == 16
    assert [(r.name, r.passed) for r in clean_alone] == [(name, True) for name in names], "\n".join(
        f"{r.name}: {r.witnesses}" for r in clean_alone if not r.passed
    )


def test_shared_sweep_matches_each_family_alone(clean_alone):
    # name, passed, detail and witnesses, in ALL_CHECKS order
    assert verify.run_verification("quick") == clean_alone


# every family that walks the n! permutations: those of the shared sweep,
# and the machine family, whose check sweeps on its own in the forked child
_SWEEPING_FAMILIES = {family.name for family in verify._Family.__subclasses__()}
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


def test_the_sweep_computes_each_word_once(monkeypatch, tmp_path):
    # Per p: one encode(p, t) for each t <= 3, the image's 2-stack word
    # and one projection of the 3-stack trace; the machine family keeps its
    # own four runs per p. Families sweeping on their own encode about
    # 8600 times. Each call appends its initial to one file, so the forked
    # child's calls count too.
    log = os.open(tmp_path / "calls", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def spy(name):
        real = getattr(verify, name)

        def counted(*args, **kwargs):
            os.write(log, name[:1].encode())
            return real(*args, **kwargs)

        monkeypatch.setattr(verify, name, counted)

    spy("encode")
    spy("image_word")
    spy("run_series_machine")
    try:
        assert all(r.passed for r in verify.run_verification("quick"))
    finally:
        os.close(log)
    letters = Counter((tmp_path / "calls").read_text())
    calls = {"encode": letters["e"], "image_word": letters["i"], "run_series_machine": letters["r"]}
    perms = sum(math.factorial(n) for n in range(7))  # n <= 6, the quick level's sweeps
    assert perms == 874
    assert calls["encode"] <= 4 * perms
    assert calls["image_word"] == perms
    assert calls["run_series_machine"] == 4 * perms


def test_the_231_check_belongs_to_permutation_statistics(monkeypatch):
    # every p "contains" 231, so each 1-sortable p with n >= 1 is a
    # mismatch; permutation_statistics names them in all_permutations
    # order. sortability_structure checks 2341 and 23451 only: it still
    # fails, but names no p for 231
    monkeypatch.setattr(verify, "contains_pattern", lambda p, q: True)
    monkeypatch.setattr(verify, "_MAX_WITNESSES", 100)
    mismatch = "1-sortability vs 231-avoidance mismatch"
    expected = [
        f"p={format_permutation(p)}: {mismatch}"
        for n in range(1, 4)
        for p in all_permutations(n)
        if is_t_stack_sortable(p, 1)
    ]
    assert len(expected) == 1 + 2 + 5
    statistics = verify.check_permutation_statistics(top=3)
    assert [w for w in statistics.witnesses if mismatch in w] == expected
    structure = verify.check_sortability_structure(top=3)
    assert not structure.passed
    assert not any(mismatch in w or "contains 231" in w for w in structure.witnesses), structure.witnesses


def test_only_families_that_need_n_at_least_1_start_there():
    starts = {family.name: family(top=3).sizes.start for family in verify._SWEEPING.values()}
    assert {name for name, start in starts.items() if start} == {"descent_refinement_oracle", "placement_membership"}
    assert set(starts.values()) == {0, 1}


# the checks that run in the forked child: this module's own, not in _SWEEPING
_CHILD_FAMILIES = [
    check.__name__.removeprefix("check_") for check in verify.ALL_CHECKS if check not in verify._SWEEPING
]


def _growth_rate_exits(monkeypatch, status):
    # growth_rate is read by growth_function and growth_bridge only
    test_process = os.getpid()

    def exits(x):
        assert os.getpid() != test_process, "a child-run check ran in this process"
        os._exit(status)

    monkeypatch.setattr(verify, "growth_rate", exits)


@pytest.fixture
def growth_rate_exits_3(monkeypatch):
    _growth_rate_exits(monkeypatch, 3)


def _child_exited(status):
    return f"ChildProcessError: the checking child process ended (exit status {status}) without a complete result"


def test_a_child_that_dies_fails_its_families_only(growth_rate_exits_3, clean_alone):
    shared = verify.run_verification("quick")
    failed = [r for r in shared if not r.passed]
    assert [(r.name, r.detail, r.witnesses) for r in failed] == [
        (family, "the check raised an exception", [_child_exited(3)]) for family in _CHILD_FAMILIES
    ]
    assert [r for r in shared if r.passed] == [r for r in clean_alone if r.name not in _CHILD_FAMILIES]


def test_a_child_that_exits_0_without_a_result_fails_its_families(monkeypatch, capsys):
    # status 0 but nothing on the pipe: the JSON does not parse
    _growth_rate_exits(monkeypatch, 0)
    code = main(["verify"])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    failed = [line.split(":")[0].removeprefix("FAIL ") for line in out.splitlines() if line.startswith("FAIL ")]
    assert failed == _CHILD_FAMILIES
    assert out.count(f"witness: {_child_exited(0)}") == len(_CHILD_FAMILIES)


def test_a_child_that_dies_makes_the_cli_exit_1(growth_rate_exits_3, capsys):
    code = main(["verify"])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    assert out.count(f"witness: {_child_exited(3)}") == len(_CHILD_FAMILIES)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_no_child_is_left_after_a_return():
    verify.run_verification("quick")
    _assert_no_child_left()


def _interrupt_the_sweep(monkeypatch):
    def interrupted(families):
        raise KeyboardInterrupt

    monkeypatch.setattr(verify, "_sweep", interrupted)
    return KeyboardInterrupt


def test_no_child_is_left_after_a_raise(monkeypatch):
    # an interrupt in this process while the child is stuck in a check:
    # the child is killed, not waited for
    def stuck(n):
        time.sleep(60)
        os._exit(0)

    _interrupt_the_sweep(monkeypatch)
    monkeypatch.setattr(verify, "catalan", stuck)  # read by the child's first check
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        verify.run_verification("quick")
    assert time.monotonic() - start < 30
    _assert_no_child_left()


def _fork_refused():
    raise OSError("fork refused")


@pytest.mark.parametrize("fork", [None, _fork_refused], ids=["missing", "raises_oserror"])
def test_without_fork_the_checks_run_here_with_the_same_results(monkeypatch, fork):
    forked = verify.run_verification("quick")
    if fork is None:
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", fork)
    assert verify.run_verification("quick") == forked


# each path through run_verification's fork, set up on monkeypatch; each
# returns the exception run_verification then raises, or None
_FORK_PATHS = {
    "returns": lambda monkeypatch: None,
    "fork_missing": lambda monkeypatch: monkeypatch.delattr(os, "fork"),
    "fork_raises_oserror": lambda monkeypatch: monkeypatch.setattr(os, "fork", _fork_refused),
    "child_exits_without_a_result": lambda monkeypatch: _growth_rate_exits(monkeypatch, 0),
    "sweep_interrupted": _interrupt_the_sweep,
}


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd to list open descriptors")
@pytest.mark.parametrize("path", sorted(_FORK_PATHS))
def test_no_descriptor_is_left_open(monkeypatch, path):
    raised = _FORK_PATHS[path](monkeypatch)
    before = sorted(os.listdir("/proc/self/fd"))
    if raised is None:
        verify.run_verification("quick")
    else:
        with pytest.raises(raised):
            verify.run_verification("quick")
    assert sorted(os.listdir("/proc/self/fd")) == before
    _assert_no_child_left()


def test_no_child_is_forked_when_every_entry_is_a_wrapper(monkeypatch, clean_alone):
    # as in a traced benchmark run: the child would have no check to run
    def wrapped(check):
        @functools.wraps(check)
        def run(**sizes):
            return check(**sizes)

        return run

    def fork():
        pytest.fail("forked a child with no check to run")

    monkeypatch.setattr(verify, "ALL_CHECKS", tuple(wrapped(check) for check in verify.ALL_CHECKS))
    monkeypatch.setattr(os, "fork", fork)
    assert verify.run_verification("quick") == clean_alone


@pytest.mark.parametrize("family", ["growth_function", "codec_roundtrip"])
def test_a_wrapper_entry_runs_in_this_process(monkeypatch, clean_alone, family):
    # functools.wraps copies __name__ and __module__: only identity tells
    # a wrapper from the module's own check
    check = getattr(verify, f"check_{family}")
    calls = []

    @functools.wraps(check)
    def recorded(**sizes):
        calls.append(os.getpid())
        return check(**sizes)

    monkeypatch.setattr(verify, "ALL_CHECKS", tuple(recorded if c is check else c for c in verify.ALL_CHECKS))
    assert verify.run_verification("quick") == clean_alone
    assert calls == [os.getpid()]
