"""The benchmark of the burnside package: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The load is a closed loop with one
client: passes of the workload run one after another, each in a fresh
interpreter (``worker.py``), because group caches persist within a
process, a command-line user always starts cold, and peak RSS is a
per-process high-water mark.  Passes repeat until ``--seconds`` have
passed; a pass longer than that runs once.  End-to-end metrics are medians
over the passes.  Set-up time is the median over workers that only set
up.  Times are scaled to a reference machine speed (``speed.py``): wall
and CPU time by the speed sampled during each pass, set-up time by a bare
interpreter start made next to each set-up; the times as measured are
printed next to them.

With ``--trace 1`` one more pass runs with the tracer installed
(``tracer.py``) and the per-layer metrics come from it; the tracing
overhead is its wall time minus the median untraced one.

Every item's output is checked; an item that fails counts toward
``failed`` and the run goes on.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
# a bare interpreter start: the calibration of every set-up probe
BARE_START = 'import time; print(\'{"setup_done": %r}\' % time.monotonic())'
# every run must end within 180 s, whatever the passes cost
DEADLINE_S = 170.0

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("classes_per_s", "1/s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))
# per-layer metrics the run adds to the traced pass's own
RUN_LAYER = (("trace.overhead_s", "s", "lower"),
             ("failed_ratio", "ratio", "lower"),
             ("raw.wall_s", "s", "lower"),
             ("raw.cpu_s", "s", "lower"),
             ("raw.setup_s", "s", "lower"),
             ("machine.speed", "ratio", "higher"),
             ("machine.start_s", "s", "lower"))


class RunError(Exception):
    """A worker could not deliver a result."""


def load_sources():
    """Import the workloads and tracer from the checkout's sources, and
    the paper's published probe rows from the test fixtures."""
    fixtures = ROOT / "tests" / "fixtures.py"
    if not (ROOT / "src" / "burnside").is_dir() or not fixtures.is_file():
        raise RunError(f"no burnside checkout at {ROOT} "
                       "(needs src/burnside and tests/fixtures.py)")
    sys.path.insert(0, str(ROOT / "src"))
    spec = importlib.util.spec_from_file_location("fixtures", fixtures)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    import tracer
    import workloads
    return workloads.WORKLOADS, tracer.metric_specs(), mod.BENCH_ROWS


def spawn(argv: list[str], deadline: float) -> dict:
    """One child interpreter; its JSON line, with the time from spawning
    it to the end of its set-up."""
    start = time.monotonic()
    if start >= deadline:
        raise RunError("out of time before the next worker")
    try:
        proc = subprocess.run(
            [sys.executable, *argv], capture_output=True, text=True,
            cwd=ROOT, timeout=deadline - start)
    except subprocess.TimeoutExpired:
        raise RunError("a worker ran past the run's deadline") from None
    if proc.returncode:
        raise RunError(f"{argv} exited with {proc.returncode}:\n"
                       + proc.stderr[-4000:])
    doc = json.loads(proc.stdout.splitlines()[-1])
    doc["setup_s"] = doc["setup_done"] - start
    return doc


def run(workload: str, seed: int, seconds: int, trace: bool,
        deadline: float) -> dict:
    """Set-up probes, untraced passes and, with ``trace``, one traced pass.

    Each set-up probe is paired with a bare interpreter start; its set-up
    time is scaled by the reference start over that one."""
    worker = [str(HERE / "worker.py"), "--workload", workload,
              "--seed", str(seed)]
    probes = []
    for _ in range(SETUP_PROBES):
        bare = spawn(["-c", BARE_START], deadline)["setup_s"]
        raw = spawn(worker + ["--setup-only"], deadline)["setup_s"]
        probes.append({"raw": raw, "bare": bare,
                       "scaled": raw * speed.REFERENCE_START_S / bare})
    passes: list[dict] = []
    first = time.monotonic()
    while not passes or time.monotonic() - first < seconds:
        passes.append(spawn(worker, deadline))
    traced = spawn(worker + ["--trace"], deadline) if trace else None
    return {"probes": probes, "passes": passes, "traced": traced}


def median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def report(workload: str, seed: int, seconds: int, got: dict,
           paper_rows: dict, specs: list) -> dict:
    """Print the run for a reader; return the result object."""
    passes, traced = got["passes"], got["traced"]
    ran = passes + ([traced] if traced else [])
    attempted = sum(p["attempted"] for p in ran)
    failed = sum(p["failed"] for p in ran)
    print(f"workload {workload}  seed {seed}  passes {len(passes)} "
          f"(>= {seconds} s)  traced {'yes' if traced else 'no'}")
    for k, item in enumerate(passes[0]["items"]):
        s = statistics.median(p["items"][k]["s"] for p in passes)
        print(f"  item {item['name']:<26} {s:9.3f} s  "
              f"{item['classes']:5d} classes  "
              f"{'ok' if item['ok'] else 'FAILED'}")
    for p in ran:
        for line in p["failures"]:
            print(f"  failure: {line}")
    print(f"  items attempted {attempted}  failed {failed}  "
          f"failed_ratio {failed / attempted:.4g}")
    probes = sum(e[1] for e in passes[0]["extensions"])
    max_probe = max((e[2] for e in passes[0]["extensions"]), default=0)
    print(f"  probes {probes}  max_probe {max_probe}  "
          "(explicit probe sets over the workload, and the largest)")
    for group, n, size in passes[0]["extensions"]:
        if group not in paper_rows:
            continue
        want = tuple(paper_rows[group][3:5])
        flag = ("" if (n, size) == want else
                "  DEVIATES (reported, not counted as a failure; "
                "compare probe metrics only at equal seeds)")
        print(f"  paper {group}: probes {n} max_probe {size}  "
              f"(published {want[0]} / {want[1]}){flag}")

    raw = {"raw.wall_s": median_of(passes, "wall_raw_s"),
           "raw.cpu_s": median_of(passes, "cpu_raw_s"),
           "raw.setup_s": median_of(got["probes"], "raw"),
           "machine.speed": median_of(passes, "speed"),
           "machine.start_s": median_of(got["probes"], "bare")}
    print(f"  as measured: wall {raw['raw.wall_s']:.4f} s  cpu "
          f"{raw['raw.cpu_s']:.4f} s  at machine speed "
          f"{raw['machine.speed']:.4f} of the reference; set-up "
          f"{raw['raw.setup_s']:.4f} s  bare interpreter start "
          f"{raw['machine.start_s']:.4f} s")
    if traced is None:
        metrics = {
            "wall_s": median_of(passes, "wall_s"),
            "cpu_s": median_of(passes, "cpu_s"),
            "classes_per_s": statistics.median(
                p["classes"] / p["wall_s"] for p in passes),
            "setup_s": median_of(got["probes"], "scaled"),
            "peak_rss_mb": median_of(passes, "peak_rss_mb"),
        }
        units = dict(END_TO_END)
    else:
        for st in traced["steps"]:
            print(f"  step to order {st['order']:<6} {st['classes']:5d} "
                  f"classes  span {st['span_s']:9.4f} s  "
                  f"stats.millis {st['millis']}")
        untraced = median_of(passes, "wall_s")
        print(f"  wall untraced {untraced:.4f} s  traced "
              f"{traced['wall_s']:.4f} s (scaled)")
        metrics = {**traced["layers"], **raw}
        metrics["trace.overhead_s"] = traced["wall_s"] - untraced
        metrics["failed_ratio"] = failed / attempted
        units = {name: unit for name, unit, _ in specs}
    for name, value in metrics.items():
        print(f"  metric {name} {value:.6g} {units[name]}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    try:
        names, specs, paper_rows = load_sources()
        if args.workload not in names:
            raise RunError(f"unknown workload {args.workload!r}; "
                           f"known: {', '.join(names)}")
        if args.seed < 0 or args.seconds < 1:
            raise RunError("--seed must be >= 0 and --seconds >= 1")
        got = run(args.workload, args.seed, args.seconds,
                  bool(args.trace), deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = report(args.workload, args.seed, args.seconds, got,
                    paper_rows, specs + list(RUN_LAYER))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
