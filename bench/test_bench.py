"""Tests of the benchmark itself: its checks catch bad outputs, its tracer
counts every call, and its result line keeps the declared shape.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import cProfile
import dataclasses
import itertools
import json
import os
import pstats
import shutil
import subprocess
import sys
from contextlib import contextmanager

import numpy as np
import pytest

import layout

layout.use_checkout_sources()

import mpsys  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

_dirs = itertools.count()


@contextmanager
def scratch_dir():
    path = layout.WORK_DIR / f"test-{os.getpid()}-{next(_dirs)}"
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        layout.remove_scratch(path)


def first_item(name: str):
    wl = workloads.WORKLOADS[name]
    items, _ = workloads.inputs(wl, run.DEFAULT_SEED)
    return wl, items[0]


# ------------------------------------------------------- positive controls

def test_pipeline_check_catches_corrupted_factor_file():
    wl, item = first_item("pipeline")
    with scratch_dir() as path:
        out = wl.run(item, path)
        assert wl.check(item, out) is None
        theta1 = out["factor_dir"] / "theta1.json"
        payload = json.loads(theta1.read_text())
        payload["d"][0][0][0][0] += 1e-3
        theta1.write_text(json.dumps(payload))
        assert wl.check(item, out) == "residual"


def test_pipeline_check_catches_wrong_verdict():
    wl, item = first_item("pipeline")
    with scratch_dir() as path:
        out = wl.run(item, path)
        code, report = out["reports"][3]
        out["reports"][3] = (code, {**report, "verdict": "inconclusive"})
        assert wl.check(item, out) == "verdict"


def test_agler_check_catches_bad_witness_and_false_alarm():
    wl, item = first_item("agler")
    with scratch_dir() as path:
        passed, falsified = wl.run(item, path)
    assert wl.check(item, (passed, falsified)) is None
    drifted = dataclasses.replace(falsified, witness_norm=falsified.witness_norm + 1e-6)
    assert wl.check(item, (passed, drifted)) == "residual"
    assert wl.check(item, (falsified, falsified)) == "verdict"
    assert wl.check(item, (passed, passed)) == "verdict"


def test_eval_check_catches_corrupted_outputs():
    wl, item = first_item("eval")
    with scratch_dir() as path:
        out = wl.run(item, path)
    assert wl.check(item, out) is None
    chain, tail = out["left"]
    bent = dataclasses.replace(
        chain, factors=(tuple(1.001 * m for m in chain.factors[0]),) + chain.factors[1:])
    for key, value, reason in [
        ("left", (bent, tail), "residual"),
        ("tf_residual", 1e-6, "residual"),
        ("multiplicity", out["multiplicity"] + 1, "verdict"),
    ]:
        assert wl.check(item, {**out, key: value}) == reason, key


def test_strata_are_balanced_within_one_block():
    items = workloads.build_pipeline(run.DEFAULT_SEED, 81)
    block = workloads.BLOCK
    for start in range(0, 81, block):
        assert sorted((it.n, it.du) for it in items[start:start + block]) == sorted(
            itertools.product((1, 2, 3), repeat=2))
    assert sorted((it.n, it.du, it.dx2, it.dx1) for it in items) == sorted(
        itertools.product((1, 2, 3), repeat=4))


# ------------------------------------------------------------------ tracer

def profiled_calls(profile: cProfile.Profile, fn) -> int:
    code = fn.__code__
    key = (code.co_filename, code.co_firstlineno, code.co_name)
    entry = pstats.Stats(profile).stats.get(key)
    return entry[1] if entry else 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracer_counts_equal_cprofile_and_repeat(name):
    wl, item = first_item(name)
    with scratch_dir() as path:
        profile = cProfile.Profile()
        out = profile.runcall(wl.run, item, path)
        plain_verdict = wl.check(item, out)
    tracer = tracing.Tracer()
    runs = []
    for _ in range(2):
        tracer.reset()
        with scratch_dir() as path:
            with tracer:
                out = wl.run(item, path)
            runs.append((wl.check(item, out), tracer.metrics()))
    counts = [{k: v for k, v in metrics.items() if not k.endswith("self_s")}
              for _, metrics in runs]
    assert counts[0] == counts[1]
    assert [verdict for verdict, _ in runs] == [plain_verdict, plain_verdict]
    mismatched = {key: (tracer.calls[key], profiled_calls(profile, fn))
                  for key, fn in tracer.wrapped.items()
                  if tracer.calls[key] != profiled_calls(profile, fn)}
    assert not mismatched
    assert sum(tracer.calls.values()) > 0


def test_tracer_restores_every_binding():
    before = {name: dict(vars(module)) for name, module in sys.modules.items()
              if name.startswith("mpsys")}
    with tracing.Tracer() as tracer:
        assert mpsys.transfer_eval is not tracer.wrapped["systems.transfer_eval"]
    after = {name: dict(vars(sys.modules[name])) for name in before}
    assert all(before[n][k] is after[n][k] for n in before for k in before[n])


# ------------------------------------------------------------ result line

def bench_command(name: str, trace: int) -> list:
    return [sys.executable, "bench/run.py", "--workload", name, "--seed", "1",
            "--seconds", "1", "--trace", str(trace)]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_has_every_declared_metric(trace, section):
    spec = json.loads((layout.ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(bench_command("eval", trace), cwd=layout.ROOT,
                          capture_output=True, text=True, timeout=180, check=True)
    *_, info_line, result_line = proc.stdout.splitlines()
    info, result = json.loads(info_line)["info"], json.loads(result_line)
    if trace:
        assert info["counts_repeat"] and info["same_verdicts"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in spec[section]]
    for m in spec[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert np.isfinite(result["metrics"][m["name"]]["value"])


def test_refuses_to_run_without_the_sources():
    with scratch_dir() as path:
        shutil.copy(layout.ROOT / "BENCHMARK.json", path)
        shutil.copytree(layout.BENCH_DIR, path / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(bench_command("eval", 0), cwd=path,
                              capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
