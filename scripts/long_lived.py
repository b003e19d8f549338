"""Memory of a long-lived process that runs many whole computations.

    python3 scripts/long_lived.py [--rounds N]

Run from the root of a checkout.  Each round builds the 240 groups of
the property suite afresh (``tests/fixtures.py``) and, for each, runs
its composition-series chain and then the brute-force table of marks,
the work of ``test_criterion_6_property_suite``, dropping every result.
The perfbench workloads start a fresh interpreter per pass, so they see
no memory that outlives a computation; here it stays in the process.

After each round the script reads the resident set (``VmRSS``), the
peak resident set so far (``ru_maxrss``), the number of full
collections CPython started on its own and the objects in the oldest
generation.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from fixtures import property_suite  # noqa: E402

from burnside import solvable_pattern_chain, table_of_marks_brute  # noqa: E402


def rss_mb() -> float:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024
    return float("nan")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args(argv)
    gc.collect()
    full = gc.get_stats()[2]["collections"]
    rounds = []
    for _ in range(args.rounds):
        start = time.perf_counter()
        for _name, G in property_suite():
            solvable_pattern_chain(G)
            table_of_marks_brute(G)
        rounds.append({
            "wall_s": round(time.perf_counter() - start, 3),
            "rss_mb": round(rss_mb(), 1),
            "peak_rss_mb": round(resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
            "full_collections": gc.get_stats()[2]["collections"] - full,
            "oldest_objects": len(gc.get_objects(2))})
    print(json.dumps({"rounds": rounds,
                      "peak_rss_mb": rounds[-1]["peak_rss_mb"],
                      "final_rss_mb": rounds[-1]["rss_mb"],
                      "wall_s": round(sum(r["wall_s"] for r in rounds), 3)}))


if __name__ == "__main__":
    main()
