"""The mpsys benchmark: one workload, one caller, a closed loop.

    python3 bench/run.py --workload {pipeline,agler,eval} --seed N \\
        --seconds S --trace {0,1}

Run from any directory; paths are taken relative to this file's checkout.
One process runs the items one after another, each starting when the last
has finished, for ``--seconds`` and then to the end of the current block of
``workloads.BLOCK`` items.  Every item's outputs are checked with
independent arithmetic (``oracle.py``); a failed item has its reason counted.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  Their
times are in seconds at the reference speed of ``calibrate``: each item's
time is divided by the host's speed factor from the reference chunks timed
right before and after it, and each set-up probe's time by the factor that
probe's interpreter measured once it was ready.  The raw figures are on the
info line.

* ``setup_s``: median time from starting a fresh interpreter to the point
  where the first item could run (import plus building the seeded inputs),
  over ``SETUP_PROBES`` interpreters started one after another;
* ``items_per_s``: items completed per second of item time (the checks
  and reference chunks are not timed);
* ``item_p50_ms`` and ``item_tail_ms``: median and the workload's fixed
  tail percentile of per-item latency;
* ``ok_frac``: items that passed their check over items attempted;
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` prints the per-layer metrics.  It runs a fixed block of the
workload's items again and again, alternating a plain pass with a pass
under ``tracer.Tracer``, until ``--seconds`` are used.  Counts come from the
first traced pass and must repeat in every later one; self times are
medians over the traced passes; ``trace.overhead_frac`` compares the median
traced and plain pass times.  The ``setup.*`` import split comes from one
probe interpreter run with ``-X importtime``.

Lines before the last carry context (machine, counts, percentiles); the
last line of standard output is the result object.  The exit code is 0
whenever a result is printed, and 2 if the checkout cannot be used.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import layout

DEFAULT_SEED = 1
HELD_OUT_SEED = 2
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
MAX_TRACEBACKS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("pipeline", "agler", "eval"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# --------------------------------------------------------------- machine

def _loaded_openblas() -> list:
    """Paths of the OpenBLAS libraries mapped into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return []
    return sorted(p for p in paths if p.startswith("/"))


def _blas_threads(path: str):
    import ctypes

    lib = ctypes.CDLL(path)
    for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def machine_block() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {Path(p).name: _blas_threads(p) for p in _loaded_openblas()},
    }


# ----------------------------------------------------------------- set-up

def _probe_command(workload: str, seed: int, importtime: bool) -> list:
    flags = ["-X", "importtime"] if importtime else []
    return [sys.executable, *flags, str(layout.BENCH_DIR / "probe.py"), workload, str(seed)]


def setup_probe(workload: str, seed: int) -> tuple:
    """Seconds from spawning a fresh interpreter to its ready line, the line,
    and the host's speed factor measured by the probe right after it."""
    import calibrate

    start = time.perf_counter()
    with subprocess.Popen(_probe_command(workload, seed, False), cwd=layout.ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        chunks = proc.stdout.readline()
        proc.stdout.read()
        if proc.wait(timeout=PROBE_TIMEOUT_S) != 0 or not line or not chunks:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    speed = statistics.median(json.loads(chunks)) / calibrate.REFERENCE_S
    return ready, json.loads(line), speed


def import_split(workload: str, seed: int) -> dict:
    """Cumulative import times of mpsys and scipy.stats in a fresh interpreter."""
    proc = subprocess.run(_probe_command(workload, seed, True), cwd=layout.ROOT,
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                          check=True)
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3:
            name = parts[2].strip()
            if name in ("mpsys", "scipy.stats"):
                cumulative[name] = int(parts[1]) * 1e-6
    probe = json.loads(proc.stdout.splitlines()[0])
    return {
        "setup.import_mpsys_s": cumulative["mpsys"],
        "setup.import_scipy_stats_s": cumulative.get("scipy.stats", 0.0),
        "setup.build_inputs_s": probe["build_s"],
    }


# ------------------------------------------------------------------ items

class ItemRunner:
    """Runs one item in its own scratch directory and checks its outputs."""

    def __init__(self, workload, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.count = 0
        self.failures: Counter = Counter()
        self.tracebacks = 0

    def _report(self, where: str) -> None:
        if self.tracebacks < MAX_TRACEBACKS:
            self.tracebacks += 1
            print(f"item {self.count} raised in {where}:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)

    def __call__(self, item) -> tuple:
        """(failure reason or None, seconds spent in the program)."""
        self.count += 1
        item_dir = self.workdir / f"item{self.count}"
        item_dir.mkdir()
        try:
            start = time.perf_counter()
            try:
                out = self.workload.run(item, item_dir)
            except Exception:  # an item failure must not end the run
                elapsed = time.perf_counter() - start
                self._report("run")
                reason = "exception"
            else:
                elapsed = time.perf_counter() - start
                try:
                    reason = self.workload.check(item, out)
                except Exception:  # a malformed output is a failed item
                    self._report("check")
                    reason = "exception"
        finally:
            shutil.rmtree(item_dir)
        if reason is not None:
            self.failures[reason] += 1
        return reason, elapsed


def nearest_rank(sorted_values: list, percentile: float) -> float:
    rank = max(1, -(-len(sorted_values) * percentile // 100))
    return sorted_values[int(rank) - 1]


def timed_run(wl, seed: int, seconds: float, runner: ItemRunner) -> tuple:
    import calibrate
    import workloads

    probes = [setup_probe(wl.name, seed) for _ in range(SETUP_PROBES)]
    items, warmup = workloads.inputs(wl, seed)
    runner(warmup)
    calibrate.warm_up()
    raw, latencies, failed = [], [], 0
    before = calibrate.chunk()
    deadline = time.perf_counter() + seconds
    for index in itertools.count():
        if index % workloads.BLOCK == 0 and time.perf_counter() >= deadline:
            break
        reason, elapsed = runner(items[index % len(items)])
        after = calibrate.chunk()
        raw.append(elapsed)
        latencies.append(elapsed / (0.5 * (before + after) / calibrate.REFERENCE_S))
        failed += reason is not None
        before = after
    tail = nearest_rank(sorted(latencies), wl.tail_percentile)
    metrics = {
        "setup_s": statistics.median(ready / speed for ready, _, speed in probes),
        "items_per_s": len(latencies) / sum(latencies),
        "item_p50_ms": 1000 * statistics.median(latencies),
        "item_tail_ms": 1000 * tail,
        "ok_frac": (len(latencies) - failed) / len(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {
        "items": len(latencies),
        "tail_percentile": wl.tail_percentile,
        "items_beyond_tail": sum(1 for x in latencies if x > tail),
        "host_speed_factor": sum(raw) / sum(latencies),
        "raw": {"setup_s": statistics.median(ready for ready, _, _ in probes),
                "items_per_s": len(raw) / sum(raw),
                "item_p50_ms": 1000 * statistics.median(raw)},
        "setup_probes_s": [round(ready, 4) for ready, _, _ in probes],
        "setup_speed_factors": [round(speed, 4) for _, _, speed in probes],
        "setup_split_s": probes[0][1],
    }
    return metrics, info


def traced_run(wl, seed: int, seconds: float, runner: ItemRunner) -> tuple:
    import tracer as tracing
    import workloads

    split = import_split(wl.name, seed)
    items, warmup = workloads.inputs(wl, seed)
    block = items[:wl.trace_block]
    runner(warmup)
    tracer = tracing.Tracer()
    plain_s, traced_s, passes = [], [], []
    same_verdicts = True
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        plain = [runner(item) for item in block]
        tracer.reset()
        with tracer:
            traced = [runner(item) for item in block]
        passes.append(tracer.metrics())
        plain_s.append(sum(elapsed for _, elapsed in plain))
        traced_s.append(sum(elapsed for _, elapsed in traced))
        same_verdicts &= [r for r, _ in plain] == [r for r, _ in traced]
    first = passes[0]
    counts_repeat = all({k: v for k, v in p.items() if not k.endswith("self_s")}
                        == {k: v for k, v in first.items() if not k.endswith("self_s")}
                        for p in passes)
    metrics = {key: statistics.median(p[key] for p in passes)
               if key.endswith("self_s") else value for key, value in first.items()}
    metrics.update(split)
    metrics["trace.overhead_frac"] = statistics.median(traced_s) / statistics.median(plain_s) - 1
    for reason in workloads.FAIL_REASONS:
        metrics[f"fail.{reason}"] = runner.failures[reason]
    info = {"passes": len(passes), "block_items": len(block),
            "same_verdicts": same_verdicts, "counts_repeat": counts_repeat,
            "all_metrics": {k: metrics[k] for k in sorted(metrics)}}
    return metrics, info


# ------------------------------------------------------------------- main

def main(argv=None) -> int:
    args = parse_args(argv)
    # Before numpy is first imported, so this process and its probes use it.
    os.environ["OPENBLAS_NUM_THREADS"] = str(layout.BLAS_THREADS)
    try:
        layout.use_checkout_sources()
        spec = json.loads((layout.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        import mpsys

        layout.check_imported(mpsys)
    except (layout.LayoutError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    machine = machine_block()
    workdir = layout.WORK_DIR / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        runner = ItemRunner(wl, workdir)
        if args.trace:
            metrics, info = traced_run(wl, args.seed, args.seconds, runner)
            declared = spec["per_layer"]
        else:
            metrics, info = timed_run(wl, args.seed, args.seconds, runner)
            declared = spec["end_to_end"]
    finally:
        layout.remove_scratch(workdir)
    info.update(workload=wl.name, seed=args.seed, trace=args.trace,
                failures=dict(runner.failures), machine=machine)
    failed = sum(runner.failures.values())
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": (failed == 0 and info.get("same_verdicts", True)
                    and info.get("counts_repeat", True)),
        "attempted": runner.count,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
