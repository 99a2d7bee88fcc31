import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import pathlib
import shlex
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stackwords.cli as cli
from stackwords.cli import MAX_PERMUTATION_LENGTH, main
from stackwords.machine import encode

SRC = pathlib.Path(__file__).parent.parent / "src"


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

    def test_huge_pass_count_stops_at_the_identity(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "sort", "21", "-t", "1000000000")
        assert code == 0
        payload = json.loads(out)
        assert payload["result"] == "12"
        assert payload["passes"] == 1000000000

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run(capsys, "sort", "2,2,1")
        assert code == 2
        assert "duplicate value 2" in err

    def test_empty_entry_exits_2(self, capsys):
        code, out, err = run(capsys, "sort", "1,,2")
        assert code == 2
        assert out == ""
        assert "empty entry in permutation '1,,2'" in err

    @pytest.mark.parametrize("text", ["1_0,2,3,4,5,6,7,8,9,1", "2\u0661", "\uff12\uff11", "+2,+1"])
    def test_a_token_not_in_ascii_digits_exits_2(self, capsys, text):
        code, out, err = run(capsys, "sort", text)
        assert code == 2
        assert out == ""
        assert "malformed token" in err


# sha256 of the exact stdout of word encode --trace in each format, for a
# permutation past n = 9 (comma-separated CSV cells) and the empty one
TRACE_SHA256 = {
    ("text", "10,2,3,4,5,6,7,8,9,1,11", "2"): "a8d8ac04a659ab9512385867936c35f49223f4cdc8ab9d69c0fc737d29610578",
    ("json", "10,2,3,4,5,6,7,8,9,1,11", "2"): "4cdd938fda405b69a3b3a02178981981edb11d4cf2a55fd5cee326a02f7a7487",
    ("csv", "10,2,3,4,5,6,7,8,9,1,11", "2"): "b582ceb149d5de7ac0648ed44a58afb3228d858f0571a17108273d9133be1f08",
    ("text", "", "3"): "cede5d4f6d3c4f022cfd2b421d2c48a227c78d4fba26c0b6bca30507dbb2e5fb",
    ("json", "", "3"): "72316d8ed6d96232013146da2731feadf1249abba2370b5019c17dcb43c3ddb1",
    ("csv", "", "3"): "2c8020416f3601c8df064e099350d1444266b9454158c5ebaee9cfb02edc62a9",
}

# word encode --trace at its worst case under the length cap, a decreasing
# permutation of 200 through 24 stacks: (t+1)n = 5000 steps. Every format
# prints its step lines or rows as the steps are replayed; these digests,
# taken while text and JSON still printed from whole lists, pin the bytes.
WORST_TRACE_ARGV = ["word", "encode", ",".join(map(str, range(200, 0, -1))), "-t", "24", "--trace"]
WORST_TRACE_SHA256 = {
    "text": "594336ccff491965615a08880ca6b9908a170e0aa56c155149c28f2db840068b",
    "json": "e5af17b5a6f0a5c93e70bbe62cbc727b6c9b6af2bd3a97e2e03ebb47e0f81b23",
    "csv": "cbffd8d290fbacbc4fc7935662d39d386eb09ba8dbcd0f827c8d12d8d14c015d",
}


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

    @pytest.mark.parametrize(
        "perm, t", [("2413", 3), ("21", 1), ("10,2,3,4,5,6,7,8,9,1,11", 2), ("", 1)], ids=["n4", "n2", "n11", "n0"]
    )
    def test_encode_trace_csv_is_a_steps_table(self, capsys, perm, t):
        # one row per machine step, in plain one-line notation: a CSV
        # reader gets the steps back, and their letters spell the word
        code, out, _ = run(capsys, "--format", "csv", "word", "encode", perm, "-t", str(t), "--trace")
        assert code == 0
        header, *rows = csv.reader(io.StringIO(out))
        assert header == ["step", "letter", "value", "stacks", "output"]
        _, out, _ = run(capsys, "--format", "json", "word", "encode", perm, "-t", str(t))
        payload = json.loads(out)
        n = len(perm.split(",")) if "," in perm else len(perm)
        assert len(rows) == (t + 1) * n
        assert "".join(row[1] for row in rows) == payload["word"]
        assert [row[0] for row in rows] == [str(i) for i in range(1, len(rows) + 1)]
        assert all(row[3].count("; ") == t - 1 for row in rows)
        if rows:
            assert rows[-1][3:] == ["; " * (t - 1), payload["output"]]

    @pytest.mark.parametrize("output_format, perm, t", sorted(TRACE_SHA256))
    def test_trace_is_byte_stable(self, capsys, output_format, perm, t):
        code, out, err = run(capsys, "--format", output_format, "word", "encode", perm, "-t", t, "--trace")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == TRACE_SHA256[output_format, perm, t], out

    @pytest.mark.parametrize("output_format", sorted(WORST_TRACE_SHA256))
    def test_worst_case_trace_is_byte_stable(self, capsys, output_format):
        code, out, err = run(capsys, "--format", output_format, *WORST_TRACE_ARGV)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == WORST_TRACE_SHA256[output_format]

    def test_decode(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "word", "decode", "ABCD", "-t", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"word": "ABCD", "stacks": 3, "permutation": "1", "roundtrip": True}

    def test_decode_ballot_violation_exits_2(self, capsys):
        code, _, err = run(capsys, "word", "decode", "ABBA", "-t", "1")
        assert code == 2
        assert "position 3" in err

    def test_decode_trace_exits_2(self, capsys):
        code, out, err = run(capsys, "word", "decode", "ABCD", "-t", "3", "--trace")
        assert (code, out) == (2, "")
        assert err == "error: --trace applies to word encode only\n"


class TestLengthCap:
    # the slowest inputs: sort needs n-1 passes on 2..n,1, and a decreasing
    # permutation makes the largest trace snapshots
    @staticmethod
    def rotated(n):
        return ",".join(map(str, [*range(2, n + 1), 1]))

    @staticmethod
    def decreasing(n):
        return ",".join(map(str, range(n, 0, -1)))

    def test_longest_permutation_is_accepted(self, capsys):
        n = MAX_PERMUTATION_LENGTH
        code, out, _ = run(capsys, "--format", "json", "sort", self.rotated(n), "-t", "1")
        assert code == 0
        assert json.loads(out)["min_passes"] == n - 1
        code, out, _ = run(capsys, "--format", "json", "word", "encode", self.decreasing(n), "-t", "3", "--trace")
        assert code == 0
        assert len(json.loads(out)["steps"]) == 4 * n

    @pytest.mark.parametrize("command", [("sort",), ("word", "encode"), ("word", "encode", "--trace")])
    def test_one_entry_more_exits_2(self, capsys, command):
        n = MAX_PERMUTATION_LENGTH + 1
        code, out, err = run(capsys, *command[:2], self.decreasing(n), *command[2:])
        assert code == 2
        assert out == ""
        assert f"permutation of length {n} is longer than the cap of {MAX_PERMUTATION_LENGTH}" in err

    def test_longest_word_decodes(self, capsys):
        n = MAX_PERMUTATION_LENGTH
        word = encode(tuple(range(n, 0, -1)), 3).letters
        code, out, _ = run(capsys, "--format", "json", "word", "decode", word, "-t", "3")
        assert code == 0
        assert json.loads(out)["permutation"] == self.decreasing(n)

    def test_one_word_entry_more_exits_2(self, capsys):
        n = MAX_PERMUTATION_LENGTH + 1
        word = encode(tuple(range(n, 0, -1)), 3).letters
        code, out, err = run(capsys, "word", "decode", word, "-t", "3")
        assert code == 2
        assert out == ""
        assert f"word of length {4 * n} is longer than the cap of {4 * MAX_PERMUTATION_LENGTH} letters" in err

    def test_a_bad_stack_count_is_named_before_the_word_cap(self, capsys):
        code, out, err = run(capsys, "word", "decode", "AB" * MAX_PERMUTATION_LENGTH, "-t", "0")
        assert (code, out) == (2, "")
        assert "stack count 0 outside 1..24" in err


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

    @pytest.mark.parametrize(
        "name, t, verdict",
        [("catalan", "1", "DISAGREE"), ("three_stack_bound", "3", "INCONSISTENT")],
        ids=["formula", "bound"],
    )
    def test_a_failed_verdict_exits_1(self, capsys, monkeypatch, name, t, verdict):
        monkeypatch.setattr(cli, name, lambda n: 0)
        code, out, err = run(capsys, "count", "-n", "4", "-t", t, "--mode", "both")
        assert (code, err) == (1, "")
        assert out.splitlines()[-1] == f"verdict: {verdict}"

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

    def test_limit_flag_lowers_the_limit(self, capsys):
        code, out, err = run(capsys, "--limit", "6", "count", "-n", "7", "-t", "1")
        assert (code, out) == (2, "")
        assert "exceeds enumeration limit 6" in err

    def test_limit_flag_admits_n_up_to_the_limit(self, capsys):
        code, out, err = run(capsys, "--limit", "7", "count", "-n", "7", "-t", "2", "--mode", "brute")
        assert (code, out, err) == (0, "brute-force count: 1938\n", "")

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


# sha256 of the exact stdout of asymptote at the default tolerance, as
# QUICK_REPORT_SHA256 below pins verify's; JSON carries x_star_bisection
# in full, so only the text and CSV forms are pinned
ASYMPTOTE_SHA256 = {
    "text": "f99cddb58b048488849167712ee390f26d4a17f8b1b25c5f554c3d357ec0e61f",
    "csv": "442fc7224174425b49015843a682b4afda5195de5e6dd271de650faf54bc8b7d",
}


class TestAsymptote:
    @pytest.mark.parametrize("output_format", sorted(ASYMPTOTE_SHA256))
    def test_report_is_byte_stable(self, capsys, output_format):
        code, out, err = run(capsys, "--format", output_format, "asymptote")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == ASYMPTOTE_SHA256[output_format], out

    def test_json_payload(self, asymptote_json_runs):
        code, out = asymptote_json_runs[0]
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["x_star"] - 0.2883918927) < 1e-7
        assert abs(payload["x_star_closed_form"] - 0.2883918927) < 1e-8
        assert abs(payload["x_star_bisection"] - payload["x_star"]) < 1e-7
        assert abs(payload["x_star_bisection"] - payload["x_star_closed_form"]) <= 1e-10
        assert abs(payload["g_star"] - 12.53296) < 5e-5
        assert payload["method"] == "golden_section"
        assert payload["tolerance"] == 1e-10
        roots = {row["n"]: row["bound_nth_root"] for row in payload["convergence"]}
        assert sorted(roots) == [10, 50, 200, 1000, 2000]
        assert 11.5 < roots[2000] < 12.6

    def test_a_coarser_tolerance(self, capsys):
        code, out, err = run(capsys, "--format", "json", "--tolerance", "1e-6", "asymptote")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["tolerance"] == 1e-6
        assert payload["iterations"] == 28
        assert abs(payload["x_star_bisection"] - payload["x_star_closed_form"]) <= 1e-6

    def test_golden_section_stops_at_46_iterations_below_1e_10(self, capsys):
        # the probes compare equal before the bracket reaches the tolerance
        code, out, err = run(capsys, "--format", "json", "--tolerance", "1e-12", "asymptote")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert (payload["tolerance"], payload["iterations"]) == (1e-12, 46)

    def test_csv_convergence_table(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "asymptote")
        lines = out.strip().splitlines()
        assert lines[0] == "n,bound_nth_root"
        assert len(lines) == 6

    def test_deterministic_json(self, asymptote_json_runs):
        (_, first), (_, second) = asymptote_json_runs
        assert first == second


# sha256 of the exact stdout of verify --level quick in each format. A
# change that means to alter the report updates these and says so in
# CHANGES.md; any other byte change fails here.
QUICK_REPORT_SHA256 = {
    "text": "03c4914694c54e5b235f33c2204b56490a1998cdc3c0b442047f22b4278e2798",
    "json": "29390348c6ff85f34c5084e9ee2ed644818c3616c7bffe569f7dbc682447792f",
    "csv": "1dc9e3940537ee3ea32158212c1d70dfb19ec02066b52119154472a26fdadca8",
}
# the same for verify --level full, in text only
FULL_REPORT_SHA256 = "0d97e7fa8fc65a1c4bacf743cf9ca239be229b98bbebc68326ec25118973d19d"


class TestVerify:
    @pytest.mark.parametrize("output_format", sorted(QUICK_REPORT_SHA256))
    def test_quick_report_is_byte_stable(self, capsys, output_format):
        code, out, err = run(capsys, "--format", output_format, "verify", "--level", "quick")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == QUICK_REPORT_SHA256[output_format], out

    def test_full_report_is_byte_stable(self, capsys):
        code, out, err = run(capsys, "verify", "--level", "full")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == FULL_REPORT_SHA256, out

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

    @pytest.mark.parametrize(
        "name, exc, family",
        [
            ("decode", ValueError("decoder broke"), "codec_roundtrip"),
            ("run_series_machine", RuntimeError("machine broke"), "series_machine_equivalence"),
        ],
        ids=["value_error", "runtime_error"],
    )
    def test_a_check_that_raises_fails_its_family(self, capsys, monkeypatch, name, exc, family):
        # not a usage error and not a traceback: the family fails with the
        # exception as its witness, and every other family still reports
        import stackwords.verify as verify

        def broken(*args):
            raise exc

        monkeypatch.setattr(verify, name, broken)
        code, out, err = run(capsys, "verify")
        assert code == 1
        assert err == ""
        assert f"FAIL {family}: the check raised an exception" in out
        assert f"witness: {type(exc).__name__}: {exc}" in out
        assert out.count("PASS ") == len(verify.ALL_CHECKS) - 1
        assert f"{len(verify.ALL_CHECKS) - 1}/{len(verify.ALL_CHECKS)} property families passed" in out

    @pytest.mark.parametrize("level", ["slow", "", "QUICK"])
    def test_an_unknown_level_is_one_error_line(self, capsys, level):
        # run_verification is the one check of --level: main reports its
        # ValueError, with no argparse usage line before it
        import stackwords.verify as verify

        code, out, err = run(capsys, "verify", "--level", level)
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: unknown level {level!r}, expected one of {verify.LEVELS}"]

    def test_help_names_every_level(self, capsys):
        import stackwords.verify as verify

        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--help"])
        assert excinfo.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: stackwords verify [-h]") and err == ""
        assert all(level in out for level in verify.LEVELS)


# run in a fresh interpreter: which of verify and csv each command loads
_LOADED_MODULES_SCRIPT = """
import contextlib, io, sys
import stackwords.cli as cli

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0, argv

def loaded():
    return [name for name in ("stackwords.verify", "csv") if name in sys.modules]

print(loaded())
for argv in (["sort", "231"], ["word", "encode", "231", "--trace"], ["word", "decode", "AABB", "-t", "1"],
             ["count", "-n", "5", "-t", "3"], ["bound", "-n", "5"], ["asymptote"]):
    run(*argv)
print(loaded())
run("--format", "csv", "sort", "231")
print(loaded())
run("verify", "--level", "quick")
print(loaded())
"""


class TestLazyImports:
    def test_verify_and_csv_load_only_where_used(self):
        fresh = subprocess.run(
            [sys.executable, "-c", _LOADED_MODULES_SCRIPT],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert fresh.stdout.splitlines() == ["[]", "[]", "['csv']", "['stackwords.verify', 'csv']"], fresh.stderr


_TRACED_PERMUTATIONS = {0: "", 2: "21", 11: "10,2,3,4,5,6,7,8,9,1,11"}


class TestStreamedJson:
    # _emit prints a table's rows one by one between the two halves of the
    # payload dumped with the table emptied: the bytes must be one dump's
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--level", "quick"],
            ["asymptote"],
            *(
                ["word", "encode", perm, "-t", str(t), "--trace"]
                for perm in _TRACED_PERMUTATIONS.values()
                for t in (1, 2, 3)
            ),
        ],
        ids=["verify_quick", "asymptote", *(f"trace_n{n}_t{t}" for n in _TRACED_PERMUTATIONS for t in (1, 2, 3))],
    )
    def test_streamed_json_equals_one_dump(self, capsys, argv):
        code, out, err = run(capsys, "--format", "json", *argv)
        assert (code, err) == (0, "")
        assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"

    def test_the_first_row_prints_before_the_last_is_read(self):
        out = io.StringIO()
        seen = []  # what was printed when each row was drawn
        rows = [{"step": i, "stacks": [[i], []]} for i in range(3)]

        def draw():
            for row in rows:
                seen.append(out.getvalue())
                yield row

        # empty lists on both sides of the table, as "violations" can be
        payload = {"aa": [], "steps": draw(), "zz": []}
        with contextlib.redirect_stdout(out):
            cli._emit(argparse.Namespace(output_format="json"), payload, [], "steps")
        first = json.dumps(rows[0], sort_keys=True)
        assert first not in seen[0]
        assert first in seen[-1]
        assert out.getvalue() == json.dumps({**payload, "steps": rows}, sort_keys=True) + "\n"


_TRACE_ARGV = ["--format", "csv", "word", "encode", "10,2,3,4,5,6,7,8,9,1,11", "-t", "2", "--trace"]


class TestClosedPipe:
    # PYTHONUNBUFFERED set: the handler's own write meets the closed pipe;
    # unset: the output is still buffered, and main's final flush meets it,
    # unless the output outgrows the buffer, as the worst-case trace does:
    # then a write in the middle of the step replay meets it.
    # --help is written and flushed by the parser, inside parse_args.
    @pytest.mark.parametrize(
        "unbuffered, argv",
        [
            ("1", _TRACE_ARGV),
            ("", _TRACE_ARGV),
            ("", WORST_TRACE_ARGV),
            ("", ["--format", "json", *WORST_TRACE_ARGV]),
            ("1", ["--help"]),
            ("", ["--help"]),
            ("1", ["sort", "--help"]),
            ("", ["sort", "--help"]),
        ],
        ids=[
            "in_the_handler", "in_the_final_flush", "in_the_step_replay", "in_the_json_step_replay",
            "help", "help_buffered", "sort_help", "sort_help_buffered",
        ],
    )
    def test_a_closed_stdout_exits_141_without_a_traceback(self, unbuffered, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)  # before the child starts: its first write fails
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONUNBUFFERED": unbuffered}
        try:
            child = subprocess.run(
                [sys.executable, "-m", "stackwords.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert (child.returncode, child.stderr.decode()) == (141, "")


class TestInterrupt:
    def test_ctrl_c_exits_130_and_leaves_no_process(self):
        # SIGINT to the whole group, as a terminal sends Ctrl-C, once
        # verify has forked its child: both processes are interrupted
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.Popen(
            [sys.executable, "-m", "stackwords.cli", "verify", "--level", "full"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, start_new_session=True,
        )
        pgid = proc.pid
        try:
            children = pathlib.Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
            if not children.exists():
                pytest.skip("needs /proc/<pid>/task/<pid>/children to see the forked child")
            deadline = time.monotonic() + 30
            while not children.read_text().strip() and proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert proc.poll() is None, "verify ended before it could be interrupted"
            os.killpg(pgid, signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(pgid, signal.SIGKILL)
            proc.wait()
        assert (proc.returncode, out, err) == (130, b"", b"")
        with pytest.raises(ProcessLookupError):
            os.killpg(pgid, 0)


class TestUsage:
    @pytest.mark.parametrize(
        "argv, usage",
        [(["--help"], "usage: stackwords [-h]"), (["sort", "--help"], "usage: stackwords sort [-h]")],
        ids=["help", "sort_help"],
    )
    def test_help_exits_0_on_stdout(self, capsys, argv, usage):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith(usage) and err == ""

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


class TestSharedParser:
    # main parses every call of a process with one parser, built on its first call

    def test_parsers_are_built_during_the_first_call_only(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        cli._parser.cache_clear()  # as in a fresh process, whatever ran before
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        per_call = []
        for argv in (["sort", "231"], ["bound", "-n", "5"], ["word", "encode", "231"], ["asymptote"]):
            before = len(built)
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, "") and out
            per_call.append(len(built) - before)
        assert built[0] == "stackwords"
        assert per_call == [len(built), 0, 0, 0]
        assert cli.build_parser() is not cli.build_parser()  # still a fresh parser to any caller

    def test_nothing_carries_over_between_calls(self, capsys):
        sort_argv = ["sort", "2341", "-t", "2"]
        fresh = subprocess.run(
            [sys.executable, "-m", "stackwords.cli", *sort_argv],
            capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(SRC)},
        ).stdout
        assert fresh.startswith("result after 2 pass(es): 2134\n")

        code, out, err = run(capsys, "--limit", "6", "count", "-n", "7", "-t", "1")
        assert (code, out) == (2, "") and "exceeds enumeration limit 6" in err
        assert run(capsys, "count", "-n", "7", "-t", "1", "--mode", "brute") == (0, "brute-force count: 429\n", "")

        assert run(capsys, "--format", "csv", "asymptote")[1].startswith("n,bound_nth_root\r\n")
        assert run(capsys, *sort_argv) == (0, fresh, "")

        tolerances = [json.loads(run(capsys, "--format", "json", *flags, "asymptote")[1])["tolerance"]
                      for flags in (["--tolerance", "1e-6"], [])]
        assert tolerances == [1e-6, 1e-10]

        for argv, status in ((["sort"], 2), (["--help"], 0), (["sort", "--help"], 0)):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == status
            capsys.readouterr()
            assert run(capsys, *sort_argv) == (0, fresh, "")


def readme_command_lines():
    """The lines of the sh block under README's "## Command line"."""
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    return readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0].splitlines()


class TestReadme:
    @pytest.mark.parametrize("line", readme_command_lines())
    def test_command_line_example_runs(self, capsys, line):
        program, *argv = shlex.split(line, comments=True)
        assert program == "stackwords"
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out


_small = st.integers(-2, 7).map(str)
# prefixes of a shuffled 1..7: some are permutations, the rest parse errors
_perm_text = st.permutations("1234567").flatmap(lambda p: st.integers(0, 7).map(lambda n: "".join(p[:n])))
_garbage = st.text("0123456789,", max_size=6)
# verify at a valid level runs for seconds, so only its usage errors are drawn
_argv = st.one_of(
    st.tuples(st.just("sort"), _perm_text | _garbage, st.just("-t"), st.integers(-2, 10**9).map(str)),
    st.tuples(st.just("word"), st.just("encode"), _perm_text, st.just("-t"), _small),
    st.tuples(st.just("word"), st.just("decode"), st.text("ABCDE", max_size=8), st.just("-t"), _small),
    st.tuples(
        st.just("count"), st.just("-n"), _small, st.just("-t"), _small,
        st.just("--mode"), st.sampled_from(["formula", "brute", "both"]),
    ),
    st.tuples(st.just("bound"), st.just("-n"), _small, st.just("-t"), _small),
    st.tuples(st.just("asymptote")),
    st.tuples(st.just("verify"), st.just("--level"), st.sampled_from(["", "slow", "QUICK"])),
)


class TestFuzz:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["text", "json", "csv"]), _argv)
    def test_exit_codes_and_no_traceback(self, output_format, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(["--format", output_format, *argv])
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err.getvalue()
