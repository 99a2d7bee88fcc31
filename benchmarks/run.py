"""
The stackwords benchmark.

    python3 benchmarks/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --list

One run is a closed loop with one client: fresh worker processes, one
at a time, each starting when the previous one has ended. With
``--trace 0`` it first starts SETUP_SAMPLES workers that only set up,
then whole jobs until ``--seconds`` have passed, and at least MIN_JOBS.
With ``--trace 1`` jobs alternate untraced and traced, and the
difference of their median wall times is the tracing overhead.

It prints every metric with its unit, then, as the last line, one JSON
object: {"correct", "attempted", "failed", "metrics"}. The metrics are
the end_to_end list of BENCHMARK.json with --trace 0 and the per_layer
list with --trace 1. A result file with the raw samples, the
environment and, when traced, a spans file go to benchmarks/results/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 12
# the session job alone takes about 20 s; two jobs give every run a median of two
MIN_JOBS = 2
WORKER_TIMEOUT_S = 170
# keeps a run well inside 180 s whatever --seconds asks for
RUN_LIMIT_S = 100
RATIOS = {
    "machine.sortable_ratio": ("machine.sortable_true", "machine.sortable_calls"),
    "words.genuine_ratio": ("words.genuine", "words.candidates"),
}


class WorkerError(RuntimeError):
    pass


def clock() -> float:
    # CLOCK_MONOTONIC is one system-wide clock, so a worker can subtract the parent's reading
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def start_worker(spec: dict) -> dict:
    spec = dict(spec, spawned_at=clock())
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "commit": git_commit(),
    }


def layer_values(rep: dict) -> tuple[dict, Counter]:
    busy: dict[str, float] = {}
    for name, start, end, _parent, _run in rep["spans"]:
        busy[name] = busy.get(name, 0.0) + (end - start)
    return busy, Counter(rep["counts"])


def per_layer(names: list[str], traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    per_rep = [layer_values(rep) for rep in traced]
    values = {}
    for name in names:
        if name == "trace.overhead_s":
            values[name] = statistics.median(r["wall_s"] for r in traced) - statistics.median(
                r["wall_s"] for r in untraced
            )
        elif name in RATIOS:
            num, den = RATIOS[name]
            values[name] = statistics.median(c[num] / c[den] if c[den] else 0.0 for _, c in per_rep)
        elif name.endswith("_s"):
            values[name] = statistics.median(busy.get(name[:-2], 0.0) for busy, _ in per_rep)
        else:
            values[name] = statistics.median(c[name] for _, c in per_rep)
    return values


def run(args, config: dict) -> dict:
    size = "small" if args.small else "full"
    started_at = time.time()
    spec = {"workload": args.workload, "seed": args.seed, "size": size, "setup_only": False, "trace": False}
    setup = [start_worker(dict(spec, setup_only=True))["setup_s"] for _ in range(0 if args.trace else SETUP_SAMPLES)]
    reps: list[dict] = []
    began = clock()
    while True:
        elapsed = clock() - began
        if len(reps) >= MIN_JOBS and elapsed >= min(args.seconds, RUN_LIMIT_S):
            break
        traced = bool(args.trace) and len(reps) % 2 == 1
        rep = start_worker(dict(spec, trace=traced, run_id=f"{args.workload}-s{args.seed}-r{len(reps)}"))
        rep["traced"] = traced
        reps.append(rep)

    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    setup += [r["setup_s"] for r in reps]
    if args.trace:
        metrics = per_layer([m["name"] for m in config["per_layer"]], traced, untraced)
        units = {m["name"]: m["unit"] for m in config["per_layer"]}
    else:
        measured = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(r["wall_s"] for r in untraced),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
        metrics = {m["name"]: measured[m["name"]] for m in config["end_to_end"]}
        units = {m["name"]: m["unit"] for m in config["end_to_end"]}
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "size": size,
        "params": reps[0]["params"],
        "started_at": started_at,
        "environment": environment(),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "messages": [m for r in reps for m in r["messages"]][:20],
        "setup_samples": setup,
        "reps": [{k: v for k, v in r.items() if k not in ("spans", "params")} for r in reps],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "spans": [span for r in traced for span in r["spans"]],
    }


def write_result(result: dict, out: Path) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    spans = result.pop("spans")
    if spans:
        spans_path = out / f"{stem}.spans.jsonl"
        with spans_path.open("w") as fh:
            for name, start, end, parent, run_id in spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "run": run_id}) + "\n")
        result["spans_file"] = spans_path.name
    path = out / f"{stem}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    return path


def list_metrics(config: dict) -> None:
    for kind in ("end_to_end", "per_layer"):
        print(f"{kind}:")
        for m in config[kind]:
            extra = f"  bound {m['bound']}" if "bound" in m else ""
            print(f"  {m['name']:<40} {m['unit']:<6} {m['better']} is better{extra}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0].strip())
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="reduced sizes, for the harness self-test")
    parser.add_argument("--out", type=Path, default=BENCH / "results", help="directory for result files")
    parser.add_argument("--list", action="store_true", help="print every metric with its unit and exit")
    args = parser.parse_args(argv)

    try:
        config = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.list:
        list_metrics(config)
        return 0
    if args.workload not in {w["name"] for w in config["workloads"]}:
        parser.error(f"--workload must be one of {[w['name'] for w in config['workloads']]}")
    if not (ROOT / "src" / "stackwords" / "__init__.py").is_file():
        print(f"error: no stackwords package under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2

    try:
        result = run(args, config)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    path = write_result(result, args.out)
    for name, metric in result["metrics"].items():
        print(f"  {name:<40} {metric['value']:>16.6f} {metric['unit']}")
    print(f"  {'fail_ratio':<40} {result['fail_ratio']:>16.6f} ratio ({result['failed']}/{result['attempted']})")
    for message in result["messages"]:
        print(f"  failed: {message}")
    print(f"  result file: {path.relative_to(ROOT) if path.is_relative_to(ROOT) else path}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
