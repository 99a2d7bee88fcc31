"""
The CI gate that decides whether the tier-1 job is green, fed small
synthetic JUnit reports.
"""
import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).parent.parent / ".github" / "scripts" / "check_tier1_report.py"
_spec = importlib.util.spec_from_file_location("check_tier1_report", SCRIPT)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

CRITERION_10 = ("tests.test_acceptance", "test_criterion_10_exact_to_asymptotic_bridge")
OTHER = ("tests.test_cli.TestSort", "test_text_output")
GAP = "AssertionError: exact gap 2.4699% exceeds the 2% tolerance at n=1000"


def _case(test, inner=""):
    classname, name = test
    return f'<testcase classname="{classname}" name="{name}" time="0.1">{inner}</testcase>'


def _report(tmp_path, *cases):
    path = tmp_path / "tier1-report.xml"
    path.write_text(
        '<?xml version="1.0" encoding="utf-8"?><testsuites><testsuite name="pytest">'
        + "".join(cases)
        + "</testsuite></testsuites>"
    )
    return str(path)


@pytest.mark.parametrize(
    "failure",
    [f'<failure message="{GAP}">AssertionError</failure>', f'<failure message="AssertionError">{GAP}</failure>'],
    ids=["gap_in_message", "gap_in_text"],
)
def test_only_criterion_10_failing_with_its_gap_is_green(tmp_path, failure):
    report = _report(tmp_path, _case(OTHER), _case(CRITERION_10, failure))
    assert gate.problems(report) == []
    assert gate.main(["check_tier1_report.py", report]) == 0


def test_criterion_10_failing_without_its_gap_is_one_problem(tmp_path):
    failure = '<failure message="AssertionError: gap 3% exceeds 2%">x</failure>'
    report = _report(tmp_path, _case(OTHER), _case(CRITERION_10, failure))
    assert len(gate.problems(report)) == 1
    assert "2.4699%" in gate.problems(report)[0]


def test_another_failing_test_is_a_problem(tmp_path):
    report = _report(
        tmp_path,
        _case(OTHER, '<failure message="assert 1 == 2">x</failure>'),
        _case(CRITERION_10, f'<failure message="{GAP}">x</failure>'),
    )
    assert gate.problems(report) == ["failed: tests.test_cli.TestSort.test_text_output"]


def test_an_erroring_test_is_a_problem(tmp_path):
    report = _report(
        tmp_path,
        _case(OTHER, '<error message="fixture broke">x</error>'),
        _case(CRITERION_10, f'<failure message="{GAP}">x</failure>'),
    )
    assert gate.problems(report) == ["errored: tests.test_cli.TestSort.test_text_output"]
    assert gate.main(["check_tier1_report.py", report]) == 1


def test_criterion_10_passing_is_a_problem(tmp_path):
    report = _report(tmp_path, _case(OTHER), _case(CRITERION_10))
    problems = gate.problems(report)
    assert len(problems) == 1
    assert "did not fail" in problems[0]


@pytest.mark.parametrize(
    "content", [None, '<?xml version="1.0"?><testsuites><testsuite name="pytest">'], ids=["missing", "truncated"]
)
def test_an_unreadable_report_is_one_line_and_exit_1(tmp_path, capsys, content):
    report = tmp_path / "tier1-report.xml"
    if content is not None:
        report.write_text(content)
    assert gate.main(["check_tier1_report.py", str(report)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(f"cannot read {report}: ")
    assert "Traceback" not in err
