"""
Reduced-size self-test of the benchmark harness.

    python3 benchmarks/selftest.py

Runs every workload at the small sizes (``run.py --small``), untraced
and traced, and checks the result line against BENCHMARK.json, the
predicted zero and non-zero per-layer metrics, the spans file, failure
accounting, the compare verdicts on made-up samples, and that a
directory holding only BENCHMARK.json and benchmarks/ exits non-zero
without a result. Takes about half a minute. Writes only under
benchmarks/results/selftest/.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "results" / "selftest"
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
from spans import Checker, Raised, each  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())

# Layers each workload must leave at zero, and metrics it must move.
ZERO = {
    "sweep": ("counting.bound", "counting.refine", "growth.", "verify.", "cli.", "words.violations"),
    "asymptotics": ("perms.", "machine.", "words.", "counting.brute", "counting.image_descents", "verify.", "cli."),
    "session": ("perms.", "words.placements", "words.candidates", "words.genuine_ratio", "counting.refine"),
}
NONZERO = {
    "sweep": ("perms.", "machine.", "words.scan", "words.decode", "words.project", "words.placements",
              "words.candidates", "words.genuine_ratio", "counting.brute", "counting.image_descents"),
    "asymptotics": ("counting.bound", "counting.refine", "growth."),
    "session": ("verify.", "cli.", "counting.brute", "counting.bound", "growth.maximize", "growth.bound_root"),
}

failures: list[str] = []


def expect(ok: bool, message: str) -> None:
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        failures.append(message)


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "7", "--seconds", "0.1",
         "--trace", str(trace), "--small", "--out", str(OUT)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_workload(workload: str) -> None:
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = run(workload, trace)
        expect(proc.returncode == 0, f"{workload} trace={trace}: exit 0 ({proc.stderr[-500:]})")
        if proc.returncode:
            continue
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        expect(set(line) == {"correct", "attempted", "failed", "metrics"}, f"{workload} trace={trace}: result keys")
        expect(line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1,
               f"{workload} trace={trace}: correct, {line['failed']}/{line['attempted']} failed")
        units = {m["name"]: m["unit"] for m in CONFIG[kind]}
        got = {name: m["unit"] for name, m in line["metrics"].items()}
        expect(got == units, f"{workload} trace={trace}: every {kind} metric with its unit")
        values = {name: m["value"] for name, m in line["metrics"].items()}
        expect(all(isinstance(v, (int, float)) for v in values.values()), f"{workload} trace={trace}: numeric values")
        if trace == 0:
            expect(all(v > 0 for v in values.values()), f"{workload}: end-to-end metrics are non-zero")
            continue
        measured = {k: v for k, v in values.items() if k != "trace.overhead_s"}
        zero = [k for k, v in measured.items() if k.startswith(ZERO[workload]) and v != 0]
        nonzero = [k for k, v in measured.items() if k.startswith(NONZERO[workload]) and v == 0]
        expect(not zero, f"{workload}: predicted zeros are zero {zero}")
        expect(not nonzero, f"{workload}: layers it uses are non-zero {nonzero}")
        spans = sorted(OUT.glob(f"{workload}-seed7-trace1-*.spans.jsonl"))
        first = json.loads(spans[-1].read_text().splitlines()[0]) if spans else {}
        expect(set(first) == {"name", "start", "end", "parent", "run"}, f"{workload}: spans file fields")


def check_accounting() -> None:
    def boom(x):
        raise ValueError(x)

    results = each(boom, [1, 2])
    ck = Checker()
    ck.attempt(3)
    for r in results:
        ck.expect(r == 0, "boom", r)
    ck.expect(lambda: {}["missing"], "malformed result")
    expect(all(isinstance(r, Raised) for r in results) and (ck.attempted, ck.failed) == (3, 3),
           "exceptions and malformed results count as failed operations")


def check_compare() -> None:
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    cases = {
        "improved": [v * 0.8 for v in parent],
        "no worse": [v * 1.01 for v in parent],
        "worse": [v * 1.5 for v in parent],
    }
    for wanted, change in cases.items():
        got, _ = compare.verdict(parent, change, "lower", 0.1)
        expect(got == wanted, f"compare: {wanted} (got {got})")
    wide = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    got, _ = compare.verdict(wide, [v * 1.05 for v in wide], "lower", 0.1)
    expect(got == "unresolved", f"compare: unresolved when the parent spread exceeds the bound (got {got})")
    got, _ = compare.verdict(wide, [v * 2.0 for v in wide], "lower", 0.1)
    expect(got == "unresolved", f"compare: unresolved while the runs overlap (got {got})")
    got, _ = compare.verdict(wide, [v + 20.0 for v in wide], "lower", 0.1)
    expect(got == "worse", f"compare: worse when every change run is worse (got {got})")
    got, _ = compare.verdict(parent, [v * 1.2 for v in parent], "higher", None)
    expect(got == "improved", f"compare: higher-is-better per-layer metric (got {got})")


def check_stripped() -> None:
    stripped = OUT / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    stripped.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", stripped)
    shutil.copytree(BENCH, stripped / "benchmarks", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run("sweep", 0, cwd=stripped)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"without src/: exit {proc.returncode} and no result line")
    shutil.rmtree(stripped)


def main() -> int:
    shutil.rmtree(OUT, ignore_errors=True)
    check_accounting()
    check_compare()
    check_stripped()
    for workload in ("sweep", "asymptotics", "session"):
        check_workload(workload)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
