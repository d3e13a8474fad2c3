"""The benchmark's three workloads: seeded inputs, one item of work, a check.

Each workload builds a pool of item inputs from the workload seed (set-up),
runs one item through the package's public API (the timed part), and
checks the item's outputs with the independent arithmetic in ``oracle``
(untimed).  A check returns None for a correct item or the failure reason:
``"exception"``, ``"verdict"`` (a wrong answer) or ``"residual"`` (a
recomputed residual above ``oracle.RESIDUAL_BOUND``).

The library is always called through its module (``systems.transfer_eval``,
not a name imported from it), so the tracer's rebinding sees every call.

Item shapes are drawn like the acceptance criteria but as a seeded full
factorial design (see ``_factorial``), so two seeds run the same mix of
sizes and differ mainly in the matrices.  That keeps run-to-run spread
small without changing the distribution the criteria sample from.
"""

from __future__ import annotations

import io
import itertools
import json
from contextlib import redirect_stdout
from dataclasses import dataclass
from importlib import import_module
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from mpsys import agler, cli, factorization, systems

# ``mpsys.cascade`` is also the name of a function the package re-exports.
cascade = import_module("mpsys.cascade")

import oracle

FAIL_REASONS = ("exception", "verdict", "residual")
# Items in one ``_factorial`` block: every workload's row group (N with du)
# has 3 x 3 values.  A timed run ends only on a block boundary, so every
# run holds each row group equally often.
BLOCK = 9
AGLER_R = 0.9
AGLER_TOL = 1e-8


@dataclass(frozen=True)
class Workload:
    """How to build, run and check one workload's items.

    ``tail_percentile`` is fixed per workload so that runs of different
    commits report the same percentile; each leaves at least ten items
    beyond it in a run at the seed commit's rate.  Higher percentiles would
    qualify on agler and eval, but there they mostly track bursts of host
    contention rather than the program.  On pipeline the shapes with N > 1
    and du = 3 (two ninths of the items) and two N = 1 shapes cost several
    times the others; p80 lies just inside their cluster, whose lower part
    (about 1.1 s a shape) varies least from seed to seed.
    ``pool`` is a whole number of ``_factorial`` cycles, so a run that
    wraps around the pool keeps the shapes balanced.  A timed run ends on a
    block boundary (``BLOCK``).
    ``trace_block`` is the number of items in one traced pass.
    """

    name: str
    build: Callable[[int, int], list]
    run: Callable[[object, Path], object]
    check: Callable[[object, object], Optional[str]]
    pool: int
    tail_percentile: float
    trace_block: int


def _factorial(seed: int, tag: int, rows: list, cols: list, count: int) -> list:
    """``count`` shape tuples that run through the whole product ``rows x cols``.

    One cycle of ``len(rows) * len(cols)`` items is ``len(cols)`` blocks of
    ``len(rows)`` items.  Every block holds each row value once, and in
    block ``k`` row ``i`` meets column ``(i + k) % len(cols)``, so across a
    cycle each row meets each column once and every shape runs.  Only the
    order of the items inside a block is seeded: block ``k`` holds the same
    shapes for every seed, so two runs that complete the same number of
    blocks run the same mix of sizes whatever their seeds.  A run covers
    less than a cycle of pipeline (81 items), and its blocks differ in cost
    by up to 60%: with the block order seeded, the mix alone moved
    pipeline's items/s from seed to seed.  Each shape is uniform on the
    product, as in the criteria; seeds differ in the matrices and in the
    order inside a block.
    """
    shapes: list = []
    for cycle in itertools.count():
        if len(shapes) >= count:
            break
        rng = np.random.default_rng([seed, tag, cycle])
        for k in range(len(cols)):
            shapes.extend(rows[i] + cols[(i + k) % len(cols)]
                          for i in rng.permutation(len(rows)))
    return shapes[:count]


def _seeds(rng: np.random.Generator, count: int) -> list:
    return [int(x) for x in rng.integers(0, 2**31 - 1, size=count)]


def _max_residual(pairs) -> float:
    return max(float(np.linalg.norm(lhs - rhs, 2)) for lhs, rhs in pairs)


# ------------------------------------------------------------------ pipeline
#
# The CLI path generate x2 -> cascade -> factor --mode problem2 -> agler,
# run in-process through mpsys.cli.run with files in the item's directory.
# Shapes as in acceptance criterion 09: N in 1..3, du, dx2, dx1 in 1..3.

@dataclass(frozen=True)
class PipelineItem:
    n: int
    du: int
    dx2: int
    dx1: int
    seed2: int
    seed1: int
    seed: int


def build_pipeline(seed: int, count: int) -> list:
    n_du = list(itertools.product((1, 2, 3), repeat=2))
    dxs = list(itertools.product((1, 2, 3), repeat=2))
    rng = np.random.default_rng([seed, 1])
    return [PipelineItem(n, du, dx2, dx1, *_seeds(rng, 3))
            for n, du, dx2, dx1 in _factorial(seed, 1, n_du, dxs, count)]


def _cli(argv: list) -> tuple:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.run([str(a) for a in argv])
    text = buffer.getvalue()
    return code, json.loads(text) if text else None


def run_pipeline(item: PipelineItem, workdir: Path) -> dict:
    files = {key: workdir / f"{key}.json" for key in ("alpha2", "alpha1", "cascade")}
    factor_dir = workdir / "problem2"
    dims = ["--n-params", item.n, "--dim-u", item.du, "--dim-y", item.du]
    steps = [
        ["generate", "conservative", *dims, "--dim-x", item.dx2,
         "--seed", item.seed2, "--out", files["alpha2"]],
        ["generate", "conservative", *dims, "--dim-x", item.dx1,
         "--seed", item.seed1, "--out", files["alpha1"]],
        ["cascade", files["alpha2"], files["alpha1"], "--out", files["cascade"],
         "--seed", item.seed],
        ["factor", files["cascade"], "--mode", "problem2", "--out-dir", factor_dir,
         "--seed", item.seed],
        ["agler", files["cascade"], "--trials", 10, "--seed", item.seed],
    ]
    return {"reports": [_cli(argv) for argv in steps],
            "files": files, "factor_dir": factor_dir}


def check_pipeline(item: PipelineItem, out: dict) -> Optional[str]:
    reports = out["reports"]
    if any(code == cli.ERROR for code, _ in reports):
        return "exception"
    if any(code != cli.PASS for code, _ in reports):
        return "verdict"
    gen2, gen1, _, factor, _ = (report for _, report in reports)
    if not (gen2["conservative"] and gen1["conservative"]):
        return "verdict"
    if factor["verdict"] != "factored":
        return "verdict"
    read = oracle.read_system
    alpha2, alpha1, combined = (read(out["files"][k]) for k in ("alpha2", "alpha1", "cascade"))
    theta2 = read(out["factor_dir"] / "theta2.json")
    theta1 = read(out["factor_dir"] / "theta1.json")
    pairs = []
    for z in oracle.polydisk_points(np.random.default_rng(item.seed), item.n, 8, 0.5):
        lhs = oracle.transfer(combined, z)
        pairs.append((lhs, oracle.transfer(alpha2, z) @ oracle.transfer(alpha1, z)))
        pairs.append((lhs, oracle.transfer(theta2, z) @ oracle.transfer(theta1, z)))
    return "residual" if _max_residual(pairs) > oracle.RESIDUAL_BOUND else None


# --------------------------------------------------------------------- agler
#
# One random conservative system (criterion 07 shapes: N in 1..3, dx in
# 1..4, du in 1..3).  It must pass 50 trials; scaled by 1.5 it must be
# falsified, and the witness is re-verified with the exact tuple formula.

@dataclass(frozen=True)
class AglerItem:
    system: object
    scaled: object
    seed: int


def build_agler(seed: int, count: int) -> list:
    n_du = list(itertools.product((1, 2, 3), repeat=2))
    dxs = [(dx,) for dx in (1, 2, 3, 4)]
    rng = np.random.default_rng([seed, 2])
    items = []
    for n, du, dx in _factorial(seed, 2, n_du, dxs, count):
        system_seed, trial_seed = _seeds(rng, 2)
        system = systems.random_conservative(n, dx, du, du, seed=system_seed)
        items.append(AglerItem(system, systems.scale_output(system, 1.5), trial_seed))
    return items


def run_agler(item: AglerItem, workdir: Path) -> tuple:
    kwargs = {"trials": 50, "r": AGLER_R, "tol": AGLER_TOL, "seed": item.seed}
    return (agler.agler_test(item.system, **kwargs),
            agler.agler_test(item.scaled, **kwargs))


def _is_commuting_contraction_tuple(mats) -> bool:
    if any(np.linalg.norm(m, 2) > 1.0 + 1e-12 for m in mats):
        return False
    return all(np.linalg.norm(a @ b - b @ a, 2) <= 1e-10
               for a, b in itertools.combinations(mats, 2))


def check_agler(item: AglerItem, out: tuple) -> Optional[str]:
    passed, falsified = out
    if passed.falsified or passed.max_norm > 1.0 + AGLER_TOL:
        return "verdict"
    if not falsified.falsified:
        return "verdict"
    mats = [np.asarray(m) for m in falsified.witness.mats]
    if not _is_commuting_contraction_tuple(mats):
        return "verdict"
    exact = float(np.linalg.norm(
        oracle.tuple_transfer(oracle.blocks_of(item.scaled), mats, AGLER_R), 2))
    if exact <= 1.0 + AGLER_TOL:
        return "verdict"
    if abs(exact - falsified.witness_norm) > oracle.RESIDUAL_BOUND:
        return "residual"
    return None


# ---------------------------------------------------------------------- eval
#
# Point evaluation on larger states: a cascade of two conservative systems
# (dx in 4..8, du in 2..4, so the cascade state has 10..20 dimensions) and
# one realized polynomial germ of degree <= 4 whose realization has at most
# GERM_MAX_STATE dimensions.  No candidate search, no tuples, no files.

GERM_MAX_STATE = 24


@dataclass(frozen=True)
class EvalItem:
    alpha2: object
    alpha1: object
    combined: object
    germ: object
    seed: int


def _random_germ(rng: np.random.Generator, n: int):
    du = int(rng.integers(1, 3))
    degree = int(rng.integers(2, 5))
    while degree > 2 and du * sum(n**j for j in range(1, degree)) > GERM_MAX_STATE:
        degree -= 1
    low = int(rng.integers(1, degree + 1))
    coeffs = {}
    for t in itertools.product(range(degree + 1), repeat=n):
        if low <= sum(t) <= degree and (sum(t) in (low, degree) or rng.uniform() < 0.5):
            coeffs[t] = (rng.standard_normal((du, du))
                         + 1j * rng.standard_normal((du, du))) / 4
    return systems.PolyGerm(n, du, du, coeffs)


def build_eval(seed: int, count: int) -> list:
    n_du = list(itertools.product((1, 2, 3), (2, 3, 4)))
    dxs = list(itertools.product(range(4, 9), repeat=2))
    rng = np.random.default_rng([seed, 3])
    items = []
    for n, du, dx2, dx1 in _factorial(seed, 3, n_du, dxs, count):
        seed2, seed1, item_seed = _seeds(rng, 3)
        alpha2 = systems.random_conservative(n, dx2, du, du, seed=seed2)
        alpha1 = systems.random_conservative(n, dx1, du, du, seed=seed1)
        items.append(EvalItem(alpha2, alpha1, cascade.cascade(alpha2, alpha1),
                              _random_germ(rng, n), item_seed))
    return items


def run_eval(item: EvalItem, workdir: Path) -> dict:
    # The reconstruction is the one ``mpsys factor`` reports; its calls go
    # through names in ``mpsys.cli``, which the tracer rebinds.
    reconstruction = cli._reconstruction_residual
    c, seed = item.combined, item.seed
    out = {
        "conservative": systems.is_conservative(c),
        "tf_residual": cascade.verify_factor_tf(c, item.alpha2, item.alpha1,
                                                n_points=100, radius=0.9, seed=seed),
        "multiplicity": factorization.multiplicity(c, 8),
    }
    m = out["multiplicity"]
    out["left"] = factorization.factor_left(c, m)
    out["left_residual"] = reconstruction(c, *out["left"], False, seed)
    out["right"] = factorization.factor_right(c, m)
    tail, chain = out["right"]
    out["right_residual"] = reconstruction(c, chain, tail, True, seed)
    out["cc"] = systems.closely_connected_subspace(c)
    out["dissipative"] = systems.is_dissipative_sampled(c, 100, seed=seed)
    realized = systems.realize_germ(item.germ)
    germ_m = item.germ.min_total_degree()
    out["germ_system"] = realized
    out["germ_left"] = factorization.factor_left(realized, germ_m)
    out["germ_residual"] = reconstruction(realized, *out["germ_left"], False, seed)
    return out


def _expected_multiplicity(item: EvalItem) -> int:
    """Lowest degree of theta2 theta1: 2 unless every D2_j D1_k term cancels."""
    n = item.combined.n_params
    second = {}
    for j, k in itertools.product(range(n), repeat=2):
        t = tuple(int(i == j) + int(i == k) for i in range(n))
        second[t] = second.get(t, 0) + item.alpha2.d[j] @ item.alpha1.d[k]
    return 2 if max(np.linalg.norm(m) for m in second.values()) > 1e-8 else 0


def _factor_residual(blocks: dict, chain, tail, right: bool, points) -> float:
    """||theta(z) - chain(z) tail(z)|| recomputed from the returned blocks."""
    vanishing = oracle.blocks_of(tail.vanishing_part)
    pairs = []
    for z in points:
        head = oracle.chain_product(chain.factors, z)
        rest = tail.constant + oracle.transfer(vanishing, z)
        pairs.append((oracle.transfer(blocks, z), rest @ head if right else head @ rest))
    return _max_residual(pairs)


def check_eval(item: EvalItem, out: dict) -> Optional[str]:
    c = item.combined
    blocks = oracle.blocks_of(c)
    if oracle.conservativity_residual(blocks) > oracle.RESIDUAL_BOUND:
        return "residual"
    if not out["conservative"].is_conservative:
        return "verdict"
    expected = _expected_multiplicity(item)
    if expected and out["multiplicity"] != expected:
        return "verdict"
    verdict = out["dissipative"]
    if not verdict.passed or abs(verdict.max_norm - 1.0) > oracle.RESIDUAL_BOUND:
        return "verdict"
    if out["germ_left"][0].length != item.germ.min_total_degree():
        return "verdict"

    rng = np.random.default_rng(item.seed)
    points = oracle.polydisk_points(rng, c.n_params, 3, 0.4)
    q = out["cc"].basis
    outside = np.eye(c.dim_x) - q @ q.conj().T
    seeds = np.hstack([*c.b, *(m.conj().T for m in c.c)])
    images = np.hstack([*(a @ q for a in c.a), *(a.conj().T @ q for a in c.a)])
    germ_blocks = oracle.blocks_of(out["germ_system"])
    tail, chain = out["right"]
    residuals = [
        out["tf_residual"], out["left_residual"], out["right_residual"],
        out["germ_residual"],
        float(np.linalg.norm(q.conj().T @ q - np.eye(q.shape[1]), 2)),
        float(np.linalg.norm(outside @ seeds, 2)),
        float(np.linalg.norm(outside @ images, 2)),
        _max_residual((oracle.transfer(blocks, z),
                       oracle.transfer(oracle.blocks_of(item.alpha2), z)
                       @ oracle.transfer(oracle.blocks_of(item.alpha1), z))
                      for z in points),
        _factor_residual(blocks, *out["left"], False, points),
        _factor_residual(blocks, chain, tail, True, points),
        _factor_residual(germ_blocks, *out["germ_left"], False, points),
        _max_residual((oracle.transfer(germ_blocks, z),
                       oracle.germ_value(item.germ.coeffs, z)) for z in points),
    ]
    return "residual" if max(residuals) > oracle.RESIDUAL_BOUND else None


WORKLOADS = {
    "pipeline": Workload("pipeline", build_pipeline, run_pipeline, check_pipeline,
                         pool=243, tail_percentile=80, trace_block=16),
    "agler": Workload("agler", build_agler, run_agler, check_agler,
                      pool=180, tail_percentile=80, trace_block=12),
    "eval": Workload("eval", build_eval, run_eval, check_eval,
                     pool=450, tail_percentile=90, trace_block=64),
}


def inputs(workload: Workload, seed: int) -> tuple:
    """The seeded item pool and one more item used only to warm up."""
    items = workload.build(seed, workload.pool + 1)
    return items[:-1], items[-1]
