"""Command-line front end.

Subcommands compose the library into reproducible runs: generate, check,
cascade, decompose, factor, agler.  Every run prints a JSON report whose
body is byte-identical across runs with the same command and seed (the
timing field is the only exception and is excluded from that guarantee).

One rule decides every exit code: a handler returns its report alone, and a
report with a verdict states it as a string ``verdict`` whose ``kind``, one
of ``KINDS``, says what it rests on.  ``run`` exits 2 exactly when the
verdict is in ``FAILING``, 0 otherwise, and 1 on a usage, parse or
precondition error.  Seeds are flags only; no environment variable can
override them.  ``generate``, ``check`` and ``factor`` refuse a flag their
mode does not read (``MODE_FLAGS``).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

from .agler import agler_test
from .cascade import cascade, decompose, sample_polydisk, verify_factor_tf
from .factorization import (
    _factor_left,
    _factor_right,
    chain_eval,
    factor_homogeneous,
    multiplicity,
    solve_problem2,
    tail_eval,
)
from .systems import (
    _spectral_norms,
    closely_connected_subspace,
    is_conservative,
    is_dissipative_sampled,
    random_conservative,
    realize_germ,
    transfer_eval,
    unitary_part,
)
from .tolerances import AGLER_TOL, CONSERVATIVE_TOL, RANK_TOL, RESIDUAL_TOL, TAYLOR_DROP_TOL
from . import serialization as ser

PASS, ERROR, FAIL = 0, 1, 2

# What a verdict rests on: an algebraic identity or rank test, a witness
# whose residual is recomputed, or samples that found no counterexample.
KINDS = ("exact", "certified", "heuristic")
# The verdicts that exit FAIL; every other report exits PASS.
FAILING = frozenset({"not-conservative", "not-dissipative", "not-closely-connected",
                     "has-unitary-part", "zero-function", "not-reproduced",
                     "no-cascade-decomposition", "not-member"})

# For generate, check and factor: the attribute that holds the mode, how an
# error names it, and the flags each mode reads with their defaults (None:
# unset unless given).  ``run`` fills the defaults in and refuses, in table
# order, any other of these flags before the handler runs.
MODE_FLAGS = {
    "generate": ("what", "generate", {
        "conservative": {"n_params": 2, "dim_x": 4, "dim_u": 2, "dim_y": 2, "seed": 0},
        "germ-realization": {"germ": None},
    }),
    "check": ("what", "--what", {
        "conservative": {"residual_tol": CONSERVATIVE_TOL},
        "dissipative": {"residual_tol": CONSERVATIVE_TOL, "torus_samples": 100, "seed": 0},
        "closely-connected": {"rank_tol": RANK_TOL},
        "unitary-part": {},
        "multiplicity": {},
    }),
    "factor": ("mode", "--mode", {
        "left": {"seed": 0, "residual_tol": RESIDUAL_TOL},
        "right": {"seed": 0, "residual_tol": RESIDUAL_TOL},
        "homogeneous": {},
        "problem2": {"seed": 0, "residual_tol": RESIDUAL_TOL},
    }),
}
_UNSET_TYPES = {"germ": str}  # the flags without a default


def _mode_flag_names(modes: dict) -> list:
    return list(dict.fromkeys(name for reads in modes.values() for name in reads))


def _apply_mode_flags(ns) -> None:
    if ns.cmd not in MODE_FLAGS:
        return
    attr, word, modes = MODE_FLAGS[ns.cmd]
    mode = getattr(ns, attr)
    reads = modes[mode]
    for name in _mode_flag_names(modes):
        value = getattr(ns, name)
        if value is not None and name not in reads:
            raise CliError(f"--{name.replace('_', '-')} does not apply to {word} {mode}")
        setattr(ns, name, reads.get(name) if value is None else value)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


class CliError(Exception):
    pass


def _report(args, **fields) -> dict:
    return {"command": " ".join(args), "schema_version": ser.SCHEMA_VERSION, **fields}


def _reproduced(residual: float, tol: float) -> str:
    """The verdict on a product checked by one residual."""
    return "reproduced" if residual < tol else "not-reproduced"


def _emit(report: dict, started: float) -> None:
    report["timing_s"] = round(time.perf_counter() - started, 6)
    print(json.dumps(report, indent=2, sort_keys=True))


def cmd_generate(ns, argv) -> dict:
    if ns.what == "conservative":
        system = random_conservative(ns.n_params, ns.dim_x, ns.dim_u, ns.dim_y, seed=ns.seed)
        report_fields = {"seed": ns.seed}
    else:  # germ-realization
        if ns.germ is None:
            raise CliError("generate germ-realization needs --germ")
        germ = ser.load_germ(ns.germ)
        system = realize_germ(germ)
        report_fields = {"germ": str(ns.germ)}
    ser.save_json(ns.out, ser.system_to_dict(system))
    conservativity = is_conservative(system)
    return _report(argv, system_kind=ns.what, out=str(ns.out),
                   dims={"n_params": system.n_params, "dim_x": system.dim_x,
                         "dim_u": system.dim_u, "dim_y": system.dim_y},
                   conservative=conservativity.is_conservative,
                   conservativity_residual=conservativity.worst_residual,
                   tolerances={"conservativity_tol": CONSERVATIVE_TOL}, **report_fields)


def cmd_check(ns, argv) -> dict:
    system = ser.load_system(ns.path)
    # each report echoes only the thresholds its verdict used
    tolerances = {"residual_tol": ns.residual_tol}
    if ns.what == "conservative":
        rep = is_conservative(system, ns.residual_tol)
        return _report(argv, what=ns.what, kind="exact",
                       verdict="conservative" if rep.is_conservative else "not-conservative",
                       residual=rep.worst_residual,
                       failing_k=rep.failing,
                       tolerances=tolerances)
    if ns.what == "dissipative":
        if ns.torus_samples < 1:  # no sample would pass vacuously
            raise CliError(f"--torus-samples must be >= 1, got {ns.torus_samples}")
        sampled = is_dissipative_sampled(system, n_samples=ns.torus_samples,
                                         tol=ns.residual_tol, seed=ns.seed)
        # a pass only failed to find a point; a fail names its witness point
        return _report(argv, what=ns.what,
                       kind="heuristic" if sampled.passed else "certified",
                       verdict="not-falsified" if sampled.passed else "not-dissipative",
                       max_pencil_norm=sampled.max_norm,
                       witness=ser.matrix_to_json(sampled.witness) if sampled.witness is not None else None,
                       torus_samples=ns.torus_samples, seed=ns.seed,
                       tolerances=tolerances)
    if ns.what == "closely-connected":
        sub = closely_connected_subspace(system, ns.rank_tol)
        return _report(argv, what=ns.what, kind="exact",
                       verdict="closely-connected" if sub.dim == system.dim_x
                       else "not-closely-connected",
                       cc_dim=sub.dim, dim_x=system.dim_x, tolerances={"rank_tol": ns.rank_tol})
    if ns.what == "unitary-part":
        part = unitary_part(system)
        return _report(argv, what=ns.what, kind="exact",
                       verdict="completely-non-unitary" if part.dim == 0 else "has-unitary-part",
                       unitary_part_dim=part.dim, dim_x=system.dim_x,
                       tolerances={"rank_tol": RANK_TOL})
    # multiplicity
    m = multiplicity(system)
    return _report(argv, what=ns.what, kind="exact",
                   verdict="nonzero" if m is not None else "zero-function", multiplicity=m,
                   tolerances={"taylor_drop_tol": TAYLOR_DROP_TOL})


def cmd_cascade(ns, argv) -> dict:
    alpha2 = ser.load_system(ns.path2)
    alpha1 = ser.load_system(ns.path1)
    combined = cascade(alpha2, alpha1)
    ser.save_json(ns.out, ser.system_to_dict(combined))
    residual = verify_factor_tf(combined, alpha2, alpha1, seed=ns.seed)
    return _report(argv, kind="heuristic", verdict=_reproduced(residual, ns.residual_tol),
                   out=str(ns.out), dim_x=combined.dim_x,
                   transfer_product_residual=residual, seed=ns.seed,
                   tolerances={"residual_tol": ns.residual_tol})


def _save_all(out_dir: Path, files: dict) -> None:
    """Write each JSON document of ``files`` into ``out_dir``, made first."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        ser.save_json(out_dir / name, data)


def cmd_decompose(ns, argv) -> dict:
    system = ser.load_system(ns.path)
    x2 = ser.load_subspace(ns.x2)
    dec = decompose(system, x2)
    out_dir = Path(ns.out_dir)
    _save_all(out_dir, {"alpha2.json": ser.system_to_dict(dec.alpha2),
                        "alpha1.json": ser.system_to_dict(dec.alpha1),
                        "intermediate.json": ser.subspace_to_dict(dec.intermediate),
                        "x1.json": ser.subspace_to_dict(dec.x1)})
    residual = verify_factor_tf(system, dec.alpha2, dec.alpha1, seed=ns.seed)
    return _report(argv, kind="heuristic", verdict=_reproduced(residual, ns.residual_tol),
                   out_dir=str(out_dir),
                   dims={"x2": x2.dim, "intermediate": dec.intermediate.dim, "x1": dec.x1.dim},
                   transfer_product_residual=residual, seed=ns.seed,
                   tolerances={"residual_tol": ns.residual_tol})


def _reconstruction_residual(system, chain, tail, right: bool, seed: int) -> float:
    z = sample_polydisk(system.n_params, 20, 0.4, seed)
    if right:
        approx = tail_eval(tail, z) @ chain_eval(chain, z)
    else:
        approx = chain_eval(chain, z) @ tail_eval(tail, z)
    diff = transfer_eval(system, z) - approx
    return float(_spectral_norms(diff).max())


def cmd_factor(ns, argv) -> dict:
    system = ser.load_system(ns.path)
    out_dir = Path(ns.out_dir)  # made only once there is something to write

    if ns.mode == "homogeneous":
        # the chain multiplies theta's own blocks in the order and under the
        # drop rule of its Taylor expansion, so its product is theta term for term
        chain, _ = factor_homogeneous(system)
        _save_all(out_dir, {"chain.json": ser.chain_to_dict(chain)})
        return _report(argv, mode=ns.mode, kind="exact", verdict="reproduced",
                       degree=chain.length, out_dir=str(out_dir),
                       tolerances={"taylor_drop_tol": TAYLOR_DROP_TOL})

    tolerances = {"residual_tol": ns.residual_tol}
    if ns.mode == "problem2":
        outcome = solve_problem2(system, seed=ns.seed, tol=ns.residual_tol)
        if outcome.verdict != "factored":
            # exact for this closely-connected realization, not for all of theta's
            return _report(argv, mode=ns.mode, kind="exact", verdict=outcome.verdict,
                           cc_dim=outcome.cc_dim, least_x2_dim=outcome.least_x2.dim,
                           seed=ns.seed, tolerances=tolerances)
        _save_all(out_dir, {"theta2.json": ser.system_to_dict(outcome.theta2),
                            "theta1.json": ser.system_to_dict(outcome.theta1),
                            "witness_x2.json": ser.subspace_to_dict(outcome.least_x2)})
        # accepted on the sampled residual of verify_factor_tf
        return _report(argv, mode=ns.mode, kind="heuristic", verdict=outcome.verdict,
                       out_dir=str(out_dir), intermediate_dim=outcome.intermediate_dim,
                       witness_x2_dim=outcome.least_x2.dim,
                       reconstruction_residual=outcome.residual,
                       seed=ns.seed, tolerances=tolerances)

    m = multiplicity(system)  # the one expansion of theta: m needs no re-check
    if m is None:
        raise CliError("transfer function vanishes identically")
    right = ns.mode == "right"
    if right:
        tail, chain = _factor_right(system, m)
    else:
        chain, tail = _factor_left(system, m)
    _save_all(out_dir, {
        "chain.json": ser.chain_to_dict(chain),
        "tail_constant.json": {"schema_version": ser.SCHEMA_VERSION, "kind": "matrix",
                               "matrix": ser.matrix_to_json(tail.constant)},
        "tail_vanishing.json": ser.system_to_dict(tail.vanishing_part),
    })
    residual = _reconstruction_residual(system, chain, tail, right, ns.seed)
    return _report(argv, mode=ns.mode, kind="heuristic",
                   verdict=_reproduced(residual, ns.residual_tol), multiplicity=m,
                   out_dir=str(out_dir), reconstruction_residual=residual, seed=ns.seed,
                   tolerances={**tolerances, "taylor_drop_tol": TAYLOR_DROP_TOL})


def cmd_agler(ns, argv) -> dict:
    system = ser.load_system(ns.path)
    outcome = agler_test(system, trials=ns.trials, r=ns.r, tol=ns.tol, seed=ns.seed)
    conservativity = is_conservative(system)
    if outcome.falsified and conservativity.is_conservative:
        raise CliError(f"internal error: a conservative input was falsified at draw "
                       f"{outcome.trials} (norm {outcome.witness_norm!r})")
    # a conservative input is a member: G_k = P_k U gives ||theta(rT)|| <= 1
    kind, verdict = (("certified", "not-member") if outcome.falsified else
                     ("exact", "member") if conservativity.is_conservative else
                     ("heuristic", "not-falsified"))
    witness = ([ser.matrix_to_json(m) for m in outcome.witness.mats]
               if outcome.falsified else None)
    return _report(argv, kind=kind, verdict=verdict, trials=outcome.trials, r=ns.r,
                   max_norm=outcome.max_norm, witness=witness,
                   witness_norm=outcome.witness_norm,
                   conservativity_residual=conservativity.worst_residual, seed=ns.seed,
                   tolerances={"tol": ns.tol, "conservativity_tol": CONSERVATIVE_TOL})


def _add_common_tols(parser):
    parser.add_argument("--residual-tol", type=float, default=RESIDUAL_TOL)
    parser.add_argument("--seed", type=int, default=0)


def _add_mode_flags(parser, cmd: str) -> None:
    """The selector's choices and the flags of ``MODE_FLAGS[cmd]``, with help
    naming the modes that read each flag; defaults are filled in by run."""
    attr, word, modes = MODE_FLAGS[cmd]
    if word.startswith("--"):
        parser.add_argument(word, required=True, choices=list(modes))
    else:
        parser.add_argument(attr, choices=list(modes))
    for name in _mode_flag_names(modes):
        readers = [mode for mode, reads in modes.items() if name in reads]
        default = modes[readers[0]][name]
        shown = "" if default is None else f" (default {default})"
        parser.add_argument("--" + name.replace("_", "-"),
                            type=_UNSET_TYPES.get(name, type(default)),
                            help=f"read by {word} {', '.join(readers)}{shown}")


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process and shared by every ``run``."""
    parser = _Parser(prog="mpsys", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("generate", help="generate a system file")
    _add_mode_flags(p, "generate")
    p.add_argument("--out", required=True)

    p = sub.add_parser("check", help="check a property of a system file")
    p.add_argument("path")
    _add_mode_flags(p, "check")

    p = sub.add_parser("cascade", help="cascade connection of two system files")
    p.add_argument("path2", help="the outer system (applied second)")
    p.add_argument("path1", help="the inner system (applied first)")
    p.add_argument("--out", required=True)
    _add_common_tols(p)

    p = sub.add_parser("decompose",
                       help="cascade decomposition along an invariant subspace")
    p.add_argument("path")
    p.add_argument("--x2", required=True, help="subspace file for X2")
    p.add_argument("--out-dir", required=True)
    _add_common_tols(p)

    p = sub.add_parser("factor", help="factor a transfer function")
    p.add_argument("path")
    _add_mode_flags(p, "factor")
    p.add_argument("--out-dir", default="factor-out")

    p = sub.add_parser("agler", help="try to falsify Agler-Schur membership")
    p.add_argument("path")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--r", type=float, default=0.9)
    p.add_argument("--tol", type=float, default=AGLER_TOL)
    p.add_argument("--seed", type=int, default=0)

    return parser


def run(argv) -> int:
    started = time.perf_counter()
    try:
        ns = build_parser().parse_args(argv)
        _apply_mode_flags(ns)
        # the handler is looked up on each call, not stored in the shared
        # parser, so a rebinding of cmd_<name> (a wrapper, a patch) is seen
        report = globals()[f"cmd_{ns.cmd}"](ns, argv)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR
    except (ser.FileFormatError, OSError, ValueError, ArithmeticError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return ERROR
    _emit(report, started)
    return FAIL if report.get("verdict") in FAILING else PASS


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
