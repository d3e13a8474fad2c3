"""Record a results file: two sets of benchmark runs plus a traced breakdown.

    python3 bench/record.py --label seed-commit --out bench/results/baseline.json

A set runs ``run.py`` untraced ``RUNS`` times on every workload, each run
with its own seed (``FIRST_SEED``, ``FIRST_SEED + 1``, ...), and reports
every end-to-end metric's median, quartiles and spread (interquartile
distance over the median).  The first set is followed by one traced run on
the default seed and one on the held-out seed per workload, and then by a
second set on the same seeds, so the two sets of each workload lie about
twenty minutes apart.  For each metric the file gives the shift of the
second median from the first in the worse direction, and whether the
bound of BENCHMARK.json holds: both spreads (except ``setup_s``'s) and the
shift within it.  Runs are made one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layout
import run

WORKLOADS = ("pipeline", "agler", "eval")
RUNS = 10
FIRST_SEED = 101
SEEDS = [FIRST_SEED + i for i in range(RUNS)]


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(layout.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=layout.ROOT, capture_output=True, text=True, timeout=180, check=True)
    lines = proc.stdout.splitlines()
    return {**json.loads(lines[-2]), "result": json.loads(lines[-1]),
            "wall_s": time.perf_counter() - start}


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def run_set(spec: dict, workload: str) -> tuple:
    """Untraced runs on SEEDS: a summary per end-to-end metric, and per-run facts."""
    runs = [bench(workload, seed, spec["run_seconds"], 0) for seed in SEEDS]
    facts = [{key: r["info"][key] for key in ("seed", "items", "items_beyond_tail",
                                             "tail_percentile", "setup_probes_s",
                                             "setup_speed_factors", "host_speed_factor",
                                             "raw")}
             | {"correct": r["result"]["correct"], "failed": r["result"]["failed"],
                "attempted": r["result"]["attempted"], "wall_s": r["wall_s"]}
             for r in runs]
    summaries = {m["name"]: summary([r["result"]["metrics"][m["name"]]["value"]
                                     for r in runs])
                 for m in spec["end_to_end"]}
    return summaries, facts, runs[-1]["info"]["machine"]


def traced(spec: dict, workload: str, seed: int) -> dict:
    out = bench(workload, seed, spec["run_seconds"], 1)
    return {"correct": out["result"]["correct"], "failed": out["result"]["failed"],
            "passes": out["info"]["passes"],
            "counts_repeat": out["info"]["counts_repeat"],
            "same_verdicts": out["info"]["same_verdicts"],
            "metrics": out["info"]["all_metrics"]}


def compare(metric: dict, first: dict, second: dict) -> dict:
    """How far the second set's median is worse than the first's, against the bound."""
    change = (second["median"] - first["median"]) / first["median"]
    shift = change if metric["better"] == "lower" else -change
    spreads = [first["spread"], second["spread"]]
    spreads_hold = metric["name"] == "setup_s" or max(spreads) <= metric["bound"]
    return {"bound": metric["bound"], "shift": shift, "spreads": spreads,
            "holds": spreads_hold and shift <= metric["bound"]}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True, help="what was measured, e.g. a commit")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    spec = json.loads((layout.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seeds = {"default": run.DEFAULT_SEED, "held_out": run.HELD_OUT_SEED}
    sets = [{}, {}]
    report = {"label": args.label, "run_seconds": spec["run_seconds"],
              "seeds": {**seeds, "untraced": SEEDS},
              "end_to_end": {}, "traced": {}, "runs": {}}
    for workload in WORKLOADS:
        sets[0][workload], report["runs"][workload], report["machine"] = run_set(
            spec, workload)
        print(workload, "set 1", {k: round(v["spread"], 4)
                                  for k, v in sets[0][workload].items()}, flush=True)
    for workload in WORKLOADS:
        report["traced"][workload] = {role: traced(spec, workload, seed)
                                      for role, seed in seeds.items()}
    for workload in WORKLOADS:
        sets[1][workload], facts, _ = run_set(spec, workload)
        report["runs"][workload] += facts
        report["end_to_end"][workload] = {
            m["name"]: {"sets": [s[workload][m["name"]] for s in sets],
                        **compare(m, sets[0][workload][m["name"]],
                                  sets[1][workload][m["name"]])}
            for m in spec["end_to_end"]}
        print(workload, "set 2", {k: (round(v["shift"], 4), v["holds"])
                                  for k, v in report["end_to_end"][workload].items()},
              flush=True)
    report["bounds_hold"] = all(v["holds"] for w in report["end_to_end"].values()
                                for v in w.values())
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
