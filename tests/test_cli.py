import contextlib
import io
import json

import pytest

from stackwords.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSort:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "sort", "231", "-t", "2")
        assert code == 0
        assert "123" in out
        assert "minimal passes to sort: 2" in out

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "sort", "2341", "-t", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "input": "2341",
            "passes": 2,
            "result": "2134",
            "sortable": False,
            "min_passes": 3,
        }

    def test_identity_needs_no_passes(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "sort", "123", "-t", "1")
        payload = json.loads(out)
        assert payload["result"] == "123"
        assert payload["sortable"] is True
        assert payload["min_passes"] == 0

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run(capsys, "sort", "2,2,1")
        assert code == 2
        assert "duplicate value 2" in err


class TestWord:
    def test_encode(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "word", "encode", "21", "-t", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["word"] == "AABCBDCD"
        assert payload["projection"] == "BCBDCD"
        assert payload["aa_factors"] == 1
        assert payload["violations"] == []

    def test_encode_without_three_stacks_has_no_projection(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "word", "encode", "21", "-t", "2")
        payload = json.loads(out)
        assert code == 0
        assert "projection" not in payload

    def test_encode_trace(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "word", "encode", "21", "-t", "1", "--trace")
        payload = json.loads(out)
        assert [s["letter"] for s in payload["steps"]] == list("AABB")
        assert payload["steps"][0] == {"step": 1, "letter": "A", "value": 2, "stacks": [[2]], "output": []}

    def test_decode(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "word", "decode", "ABCD", "-t", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"word": "ABCD", "stacks": 3, "permutation": "1", "roundtrip": True}

    def test_decode_ballot_violation_exits_2(self, capsys):
        code, _, err = run(capsys, "word", "decode", "ABBA", "-t", "1")
        assert code == 2
        assert "position 3" in err


class TestCount:
    def test_formula_and_brute_agree(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "count", "-n", "4", "-t", "2", "--mode", "both")
        assert code == 0
        payload = json.loads(out)
        assert payload["formula"] == 22
        assert payload["brute"] == 22
        assert payload["verdict"] == "AGREE"

    def test_three_stacks_reports_bound_not_count(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "count", "-n", "3", "-t", "3", "--mode", "both")
        assert code == 0
        payload = json.loads(out)
        assert payload["upper_bound"] == 10
        assert payload["brute"] == 6
        assert payload["verdict"] == "CONSISTENT"
        assert "formula" not in payload
        assert "upper bound" in payload["warning"]

    def test_four_stacks_falls_back_to_trivial_bound(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "count", "-n", "3", "-t", "4", "--mode", "both")
        assert code == 0
        payload = json.loads(out)
        assert payload["upper_bound"] == 5**6
        assert payload["verdict"] == "CONSISTENT"

    def test_enumeration_limit(self, capsys):
        code, _, err = run(capsys, "count", "-n", "11", "-t", "1", "--mode", "brute")
        assert code == 2
        assert "enumeration limit" in err

    def test_enumeration_limit_checked_before_the_bound(self, capsys):
        # the enumeration limit is checked before any formula work or the
        # digit cap, so the message names the limit the user asked for
        code, out, err = run(capsys, "count", "-n", "4000", "-t", "3")
        assert code == 2
        assert out == ""
        assert "enumeration limit" in err

    def test_formula_digit_cap(self, capsys):
        code, out, err = run(capsys, "count", "-n", "4000", "-t", "3", "--mode", "formula")
        assert code == 2
        assert out == ""
        assert "n=4000, t=3: (t+1)^(2n) has more than 4300 digits" in err

    def test_limit_flag_is_capped(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--limit", "13", "count", "-n", "4", "-t", "1"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "count", "-n", "4", "-t", "1", "--mode", "formula")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "key,value"
        assert "formula,14" in lines


class TestBound:
    def test_three_stack_bounds(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "bound", "-n", "5", "-t", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"n": 5, "t": 3, "trivial_bound": 4**10, "insertion_bound": 419}

    def test_other_t_has_trivial_bound_only(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "bound", "-n", "3", "-t", "2")
        payload = json.loads(out)
        assert payload == {"n": 3, "t": 2, "trivial_bound": 729}

    @pytest.mark.parametrize("n, t", [(4000, 3), (3000, 100)])
    def test_digit_cap(self, capsys, n, t):
        # (t+1)^(2n) would have more digits than any printed integer may
        code, out, err = run(capsys, "bound", "-n", str(n), "-t", str(t))
        assert code == 2
        assert out == ""
        assert f"n={n}, t={t}: (t+1)^(2n) has more than 4300 digits" in err

    def test_largest_bounds_below_the_cap_print(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "bound", "-n", "3000", "-t", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["trivial_bound"] == 4**6000
        assert len(str(payload["insertion_bound"])) > 3000


@pytest.fixture(scope="class")
def asymptote_json_runs():
    # two JSON runs shared by the class; capsys is per test, so capture here
    runs = []
    for _ in range(2):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["--format", "json", "asymptote"])
        runs.append((code, out.getvalue()))
    return runs


class TestAsymptote:
    def test_json_payload(self, asymptote_json_runs):
        code, out = asymptote_json_runs[0]
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["x_star"] - 0.2883918927) < 1e-7
        assert abs(payload["x_star_closed_form"] - 0.2883918927) < 1e-8
        assert abs(payload["x_star_bisection"] - payload["x_star"]) < 1e-7
        assert abs(payload["g_star"] - 12.53296) < 5e-5
        assert payload["method"] == "golden_section"
        assert payload["tolerance"] == 1e-10
        roots = {row["n"]: row["bound_nth_root"] for row in payload["convergence"]}
        assert sorted(roots) == [10, 50, 200, 1000, 2000]
        assert 11.5 < roots[2000] < 12.6

    def test_csv_convergence_table(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "asymptote")
        lines = out.strip().splitlines()
        assert lines[0] == "n,bound_nth_root"
        assert len(lines) == 6

    def test_deterministic_json(self, asymptote_json_runs):
        (_, first), (_, second) = asymptote_json_runs
        assert first == second


class TestVerify:
    def test_quick_level_passes(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "verify", "--level", "quick")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert len(payload["checks"]) >= 15
        assert all(check["passed"] for check in payload["checks"])

    def test_text_report(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert "PASS catalan_oracle" in out
        assert "property families passed" in out


class TestUsage:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_nonpositive_tolerance(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--tolerance", "0", "asymptote"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_nonfinite_tolerance(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--tolerance", "nan", "asymptote"])
        assert excinfo.value.code == 2
        assert "finite" in capsys.readouterr().err
