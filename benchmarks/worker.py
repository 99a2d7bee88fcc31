"""
One fresh interpreter of the benchmark: import stackwords from src/,
make one workload's inputs, run its job once and print one JSON line.
With "setup_only" it stops after the inputs, which is how run.py takes
repeated set-up samples.

run.py starts it as ``python3 benchmarks/worker.py '<json spec>'``.
"""
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    spec = json.loads(sys.argv[1])
    import workloads
    from spans import Checker, Tracer

    make_inputs, job = workloads.WORKLOADS[spec["workload"]]
    params = workloads.PARAMS[spec["workload"]][spec["size"]]
    inputs = make_inputs(spec["seed"], params)
    # from the parent's spawn to the first timed call: interpreter start,
    # imports and input generation
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - spec["spawned_at"]
    if spec["setup_only"]:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = Tracer(spec["run_id"], record=spec["trace"])
    checker = Checker()
    job(inputs, params, tracer, checker)
    print(
        json.dumps(
            {
                "params": params,
                "setup_s": setup_s,
                "wall_s": tracer.wall_s,
                # ru_maxrss is in KiB on Linux
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "messages": checker.messages,
                "counts": tracer.counts,
                "spans": tracer.spans,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
