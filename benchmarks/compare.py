"""
Compare two sets of benchmark results, a parent and a change.

    python3 benchmarks/compare.py PARENT_DIR CHANGE_DIR [--layers]

Each directory holds the result files that run.py wrote (``--out``).
Runs of one workload are paired in the order they started: the i-th
parent run with the i-th change run. Make them alternate (parent first
in one pair, change first in the next); the report says whether they
did. For every (workload, metric) the verdict is:

- improved: at least ten pairs, the change wins at least 9/10 of them
  (ties count for neither side), and the medians differ by more than
  the parent's interquartile range;
- no worse: the change's median is worse than the parent's by at most
  the metric's bound from BENCHMARK.json;
- unresolved: the parent's own spread (IQR over median) is wider than
  the bound, and the runs of the two sides overlap; per-layer metrics,
  which have no bound, are unresolved unless improved or worse by the
  same pair rule;
- worse: anything else.

Every change is shown as a share of the parent median, with that median.
End-to-end metrics come from --trace 0 runs, per-layer metrics
(--layers) from --trace 1 runs. Exits 1 if any verdict is "worse".
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory: Path, traced: bool) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        result = json.loads(path.read_text())
        if bool(result.get("trace")) == traced and result.get("size") == "full":
            runs.setdefault(result["workload"], []).append(result)
    for group in runs.values():
        group.sort(key=lambda r: r["started_at"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float | None) -> tuple[str, int]:
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    losses = sum(sign * (c - p) > 0 for p, c in pairs)
    q1, p_med, q3 = quartiles(parent)
    c_med = statistics.median(change)
    gap_clear = abs(c_med - p_med) > q3 - q1
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and gap_clear and sign * (c_med - p_med) < 0:
        return "improved", wins
    if bound is None:
        if len(pairs) >= MIN_PAIRS and losses >= WIN_SHARE * len(pairs) and gap_clear and sign * (c_med - p_med) > 0:
            return "worse", wins
        return "unresolved", wins
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    all_worse = all(sign * (c - p) > 0 for c in change for p in parent)
    if p_med and (q3 - q1) / abs(p_med) > bound and not (all_better or all_worse):
        return "unresolved", wins
    worse_share = sign * (c_med - p_med) / abs(p_med) if p_med else (0.0 if c_med == p_med else float("inf"))
    return ("no worse" if worse_share <= bound else "worse"), wins


def alternated(parent: list[dict], change: list[dict]) -> bool:
    firsts = [p["started_at"] < c["started_at"] for p, c in zip(parent, change)]
    return all(a != b for a, b in zip(firsts, firsts[1:]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0].strip())
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--layers", action="store_true", help="compare per-layer metrics of traced runs")
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = config["per_layer" if args.layers else "end_to_end"]
    parent_runs, change_runs = load(args.parent, args.layers), load(args.change, args.layers)

    any_worse = False
    for workload in sorted(set(parent_runs) & set(change_runs)):
        parent, change = parent_runs[workload], change_runs[workload]
        n = min(len(parent), len(change))
        parent, change = parent[:n], change[:n]
        failed = (sum(r["failed"] for r in parent), sum(r["failed"] for r in change))
        print(
            f"{workload}: {n} pairs, alternating: {'yes' if alternated(parent, change) else 'no'}, "
            f"failed operations parent {failed[0]} change {failed[1]}"
        )
        for metric in metrics:
            name, unit = metric["name"], metric["unit"]
            p = [r["metrics"][name]["value"] for r in parent if name in r["metrics"]]
            c = [r["metrics"][name]["value"] for r in change if name in r["metrics"]]
            if not p or not c:
                continue
            result, wins = verdict(p, c, metric["better"], metric.get("bound"))
            any_worse |= result == "worse"
            pq1, pm, pq3 = quartiles(p)
            cq1, cm, cq3 = quartiles(c)
            share = f"{(cm - pm) / pm:+.2%} of parent median {pm:.6g} {unit}" if pm else "parent median 0"
            print(
                f"  {name:<38} parent {pm:.6g} [{pq1:.6g}, {pq3:.6g}]  change {cm:.6g} [{cq1:.6g}, {cq3:.6g}] {unit}"
                f"  {share}, wins {wins}/{len(p)}: {result}"
            )
    if not set(parent_runs) & set(change_runs):
        print("no workload has full-size results on both sides", file=sys.stderr)
        return 2
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
