"""One pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N
                                [--trace] [--setup-only]

Set-up is everything before the measured part: interpreter start, the
imports and building the input groups.  The worker prints one JSON line
holding the moment set-up ended on the ``time.monotonic`` clock, which the
parent compares with the moment it started this process, and, unless
``--setup-only``, the pass: wall and CPU time of the measured part, as
measured and scaled to the reference machine speed (``speed.py``), the
process's peak RSS, every item's outcome and, with ``--trace``, the
per-layer metrics.
"""

import argparse
import contextlib
import dataclasses
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    from speed import SpeedSampler
    from tracer import Tracer
    from workloads import WORKLOADS, run_pass

    workload = WORKLOADS[args.workload](args.seed)
    out = {"setup_done": time.monotonic()}
    if not args.setup_only:
        tracer = Tracer() if args.trace else None
        sampler = SpeedSampler()
        cpu0, t0 = time.process_time(), time.perf_counter()
        traced = tracer.installed() if tracer else contextlib.nullcontext()
        with sampler, traced:
            res = run_pass(workload)
        wall = time.perf_counter() - t0 - sampler.busy_s
        cpu = time.process_time() - cpu0 - sampler.busy_s
        speed = sampler.speed()
        out.update(dataclasses.asdict(res), wall_raw_s=wall, cpu_raw_s=cpu,
                   speed=speed, wall_s=wall * speed, cpu_s=cpu * speed,
                   peak_rss_mb=resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss / 1024)
        if tracer:
            out["layers"] = tracer.metrics(wall + sampler.busy_s)
            out["steps"] = tracer.steps
    print(json.dumps(out))


if __name__ == "__main__":
    main()
