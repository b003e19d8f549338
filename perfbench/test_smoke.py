"""Smoke test of the benchmark on tiny inputs (A4 -> S4, a C2^3 chain).

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import burnside.groups  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "2", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=120)


def printed_metrics(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        words = line.split()
        if words[:1] == ["metric"]:
            out[words[1]] = words[3]
    return out


def test_printed_metrics_match_benchmark_json():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    for workload, trace, key in (("tiny-s4", 0, "end_to_end"),
                                 ("tiny-c2x3", 1, "per_layer")):
        proc = bench(workload, trace)
        assert proc.returncode == 0, proc.stderr
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        assert printed_metrics(proc.stdout) == want
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_corrupted_table_counts_as_failed_and_the_pass_goes_on():
    wl = workloads.tiny_s4(0)
    ext = next(it for it in wl.items if it.name == "S4 extension")
    compute = ext.compute

    def corrupted(ctx):
        pattern = compute(ctx)
        pattern.rows[1][0] += 1
        return pattern
    ext.compute = corrupted
    res = workloads.run_pass(wl)
    assert res.attempted == 3
    # the corrupted table fails its own check and the crosscheck after it
    assert res.failed == 2
    assert [it["ok"] for it in res.items] == [True, False, False]
    assert "first column of row 1" in res.failures[0]


def test_tracer_counts_and_restores_every_binding():
    original = burnside.groups.normalizer
    t = tracer.Tracer()
    with t.installed():
        assert workloads.extension.normalizer is not original
        res = workloads.run_pass(workloads.tiny_c2x3(0))
    assert res.failed == 0
    assert burnside.groups.normalizer is original
    assert workloads.extension.normalizer is original
    layers = t.metrics(1.0)
    assert set(layers) == {name for name, _, _ in tracer.metric_specs()}
    assert layers["marks.solvable_pattern_chain.calls"] == 1
    assert layers["marks.extend_table_of_marks.calls"] == 3
    assert layers["marks.decided.bounds"] + layers["marks.decided.dress"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("tiny-s4", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
