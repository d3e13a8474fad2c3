"""Fingerprint the outputs that a refactor without behaviour change must keep.

Records, for one source tree:

* ``solve_problem2`` on the 100 pairs of acceptance criterion 09, on the
  pipeline benchmark items of seeds 1 and 2 (the CLI's call, with the
  item's seed) and on ``pairs.irreducible_realization`` for dim_x 2-5 and
  seeds 0-4, where dim_x >= 3 has no cascade decomposition: the witness
  basis, ``intermediate_dim``, the residual and both factors, as SHA-256
  digests of the raw float bytes, together with the witness projector and
  the closely-connected projector of the system;
* ``agler_test`` on the agler benchmark items of seeds 1 and 2, on each
  system and on its 1.5x scaling, with the workload's call (50 trials,
  r = 0.9, tol = 1e-8): ``max_norm`` and ``witness_norm`` as hex, the
  number of trials, a SHA-256 digest of the witness matrices, and the
  distance of ``witness_norm`` from the norm that ``oracle.tuple_transfer``
  computes on the witness;
* ``run_eval`` on the eval benchmark items of seeds 1 and 2: the floats it
  reports (the cascade's transfer-function residual, the left, right and
  germ reconstruction residuals, and the sampled dissipativity
  ``max_norm``) as hex;
* the JSON report bodies (``timing_s`` removed) and the standard error of
  a fixed set of CLI commands run with relative paths in a fresh directory,
  and for each command with ``--out-dir`` whether it made that directory.
  They include ``agler`` on the realization of the degree-3, N = 2 germ
  0.9 z1 + 0.9 z1 z2^2, whose A_T is nilpotent with ||A_T||_2 above 1,
  and ``generate germ-realization`` of a degree-4, N = 3 germ with
  dim_u = 1, whose ``dims`` pin the realized state layout (one slot per
  multi-index t with 1 <= |t| <= 3: dim_x = 19).

Usage::

    python3 scripts/output_identity.py record --src SRC_DIR --out A.json
    python3 scripts/output_identity.py record --src OTHER_SRC --out B.json
    python3 scripts/output_identity.py compare A.json B.json

``compare`` checks that verdicts, dimensions, exit codes and the
non-numeric report fields are equal, that every ``agler_test`` and
``run_eval`` record is bit-identical, and that every agler witness norm is
within ``oracle.RESIDUAL_BOUND`` of the oracle's; it counts the
``agler_test`` calls whose verdict (falsified or not) differs apart from
the other record differences, and for the ``agler_test`` and ``run_eval``
records that differ it prints each differing field with its count and the
largest relative gap of a float field.  Where the problem-2 digests differ it
reports the largest entrywise difference of the witness and
closely-connected projectors; over the report bodies it reports the
largest difference of a float.  It exits 0 when all of that holds and both differences are at most
``TOL``.  Differences in the reports' ``tolerances`` fields are listed, not
counted.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
TOL = 1e-12


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _system_digest(s) -> str:
    return _digest(*s.a, *s.b, *s.c, *s.d)


def _matrix(m) -> dict:
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def _outcome(out, cc) -> dict:
    """The search's outcome; ``cc`` is the closely-connected subspace of the
    cascade it came from."""
    record = {"cc_dim": cc.dim, "cc_projector": _matrix(cc.projector())}
    if out.verdict != "factored":
        return {"verdict": None, **record}
    return {
        "intermediate_dim": out.intermediate_dim,
        "witness_dim": out.least_x2.dim,
        "witness": _digest(out.least_x2.basis),
        "witness_projector": _matrix(out.least_x2.projector()),
        "residual": float(out.residual).hex(),
        "theta2": _system_digest(out.theta2),
        "theta1": _system_digest(out.theta1),
        **record,
    }


def problem2_outcomes() -> dict:
    from mpsys.cascade import cascade
    from mpsys.factorization import solve_problem2
    from mpsys.systems import closely_connected_subspace, random_conservative
    from pairs import from_factorization, irreducible_realization
    import workloads

    results = {}
    rng = np.random.default_rng(900)  # the pairs of acceptance criterion 09
    for i in range(100):
        n = 1 + i % 3
        du = int(rng.integers(1, 4))
        alpha2 = random_conservative(n, int(rng.integers(1, 4)), du, du, seed=900 + i)
        alpha1 = random_conservative(n, int(rng.integers(1, 4)), du, du, seed=950 + i)
        acc, _, _ = from_factorization(alpha2, alpha1)
        cc = closely_connected_subspace(cascade(alpha2, alpha1))
        results[f"criterion09/{i}"] = _outcome(solve_problem2(acc, seed=i), cc)
    pool = workloads.WORKLOADS["pipeline"].pool
    for seed in (1, 2):
        for j, item in enumerate(workloads.build_pipeline(seed, pool)):
            alpha2 = random_conservative(item.n, item.dx2, item.du, item.du, seed=item.seed2)
            alpha1 = random_conservative(item.n, item.dx1, item.du, item.du, seed=item.seed1)
            combined = cascade(alpha2, alpha1)
            results[f"pipeline{seed}/{j}"] = _outcome(
                solve_problem2(combined, seed=item.seed), closely_connected_subspace(combined))
    for dx in range(2, 6):
        for seed in range(5):
            s = irreducible_realization(dx, seed)
            results[f"irreducible{dx}/{seed}"] = _outcome(
                solve_problem2(s, seed=seed), closely_connected_subspace(s))
    return results


def _agler_record(report, system) -> dict:
    import oracle
    import workloads

    record = {
        "max_norm": float(report.max_norm).hex(),
        "witness_norm": float(report.witness_norm).hex(),
        "trials": report.trials,
        "witness": None,
    }
    if report.falsified:
        exact = np.linalg.norm(oracle.tuple_transfer(
            oracle.blocks_of(system), report.witness.mats, workloads.AGLER_R), 2)
        record["witness"] = _digest(*report.witness.mats)
        record["oracle_gap"] = abs(float(exact) - report.witness_norm)
    return record


def agler_outcomes() -> dict:
    import workloads

    pool = workloads.WORKLOADS["agler"].pool
    results = {}
    for seed in (1, 2):
        for j, item in enumerate(workloads.build_agler(seed, pool)):
            passed, falsified = workloads.run_agler(item, None)
            results[f"agler{seed}/{j}"] = _agler_record(passed, item.system)
            results[f"agler{seed}/{j}/scaled"] = _agler_record(falsified, item.scaled)
    return results


EVAL_RESIDUALS = ("tf_residual", "left_residual", "right_residual", "germ_residual")


def eval_outcomes() -> dict:
    import workloads

    pool = workloads.WORKLOADS["eval"].pool
    results = {}
    for seed in (1, 2):
        for j, item in enumerate(workloads.build_eval(seed, pool)):
            out = workloads.run_eval(item, None)
            record = {key: float(out[key]).hex() for key in EVAL_RESIDUALS}
            record["max_norm"] = float(out["dissipative"].max_norm).hex()
            results[f"eval{seed}/{j}"] = record
    return results


COMMANDS = [
    ["generate", "conservative", "--n-params", "2", "--dim-x", "4", "--seed", "5",
     "--out", "g.json"],
    ["generate", "germ-realization", "--germ", "germ.json", "--out", "real.json"],
    ["generate", "germ-realization", "--germ", "germ.json", "--dim-x", "7", "--out",
     "real7.json"],
    ["check", "sys.json", "--what", "conservative"],
    ["check", "sys.json", "--what", "conservative", "--rank-tol", "7"],
    ["check", "broken.json", "--what", "conservative"],
    ["check", "sys.json", "--what", "dissipative", "--seed", "6"],
    ["check", "broken.json", "--what", "dissipative"],
    ["check", "sys.json", "--what", "closely-connected"],
    ["check", "sys.json", "--what", "closely-connected", "--rank-tol", "1e-6"],
    ["check", "sys.json", "--what", "unitary-part"],
    ["check", "sys.json", "--what", "unitary-part", "--residual-tol", "5", "--rank-tol", "7"],
    ["check", "sys.json", "--what", "multiplicity"],
    ["cascade", "b2.json", "b1.json", "--out", "c.json", "--seed", "7"],
    ["check", "c.json", "--what", "multiplicity", "--residual-tol", "5", "--rank-tol", "7"],
    ["decompose", "c.json", "--x2", "x2.json", "--out-dir", "dec"],
    ["factor", "c.json", "--mode", "problem2", "--out-dir", "p2", "--seed", "8"],
    ["factor", "c.json", "--mode", "left", "--out-dir", "fl"],
    ["factor", "c.json", "--mode", "left", "--multiplicity", "2", "--out-dir", "flm"],
    ["factor", "c.json", "--mode", "right", "--out-dir", "fr"],
    ["factor", "hom.json", "--mode", "homogeneous", "--out-dir", "fh"],
    ["factor", "hom.json", "--mode", "homogeneous", "--out-dir", "fh5",
     "--residual-tol", "5"],
    ["check", "z9.json", "--what", "multiplicity"],
    ["factor", "z9.json", "--mode", "left", "--out-dir", "f9"],
    ["factor", "z29.json", "--mode", "homogeneous", "--out-dir", "h29"],
    ["agler", "sys.json", "--trials", "10", "--seed", "9"],
    ["agler", "scaled.json", "--trials", "10", "--seed", "9"],
    ["generate", "germ-realization", "--germ", "germ3.json", "--out", "real3.json"],
    ["agler", "real3.json", "--trials", "50", "--seed", "0"],
    ["generate", "germ-realization", "--germ", "germ4.json", "--out", "real4.json"],
]


def cli_reports() -> dict:
    from mpsys import serialization as ser
    from mpsys.cascade import cascade
    from mpsys.cli import run
    from mpsys.subspaces import Subspace
    from mpsys.systems import MultiSystem, PolyGerm, random_conservative, scale_output
    from pairs import shift_power, z2_plus_z9

    def save(name, s):
        ser.save_json(name, ser.system_to_dict(s))

    s = random_conservative(2, 3, 2, 2, seed=1)
    save("sys.json", s)
    save("broken.json", MultiSystem(a=[s.a[0] + 1e-3, s.a[1]], b=s.b, c=s.c, d=s.d))
    save("scaled.json", scale_output(s, 1.5))
    save("b2.json", random_conservative(2, 2, 2, 2, seed=2))
    save("b1.json", random_conservative(2, 2, 2, 2, seed=3))
    hom = random_conservative(2, 0, 2, 2, seed=4)
    for j in range(1, 3):
        hom = cascade(random_conservative(2, 0, 2, 2, seed=4 + j), hom)
    save("hom.json", hom)
    save("z9.json", shift_power(1, 8))  # theta = z^9, dim_x = 8
    save("z29.json", z2_plus_z9())  # not homogeneous: factor --mode homogeneous fails
    ser.save_json("x2.json", ser.subspace_to_dict(Subspace(6, np.eye(6)[:, :2])))
    ser.save_json("germ.json", ser.germ_to_dict(
        PolyGerm(2, 1, 1, {(1, 1): np.array([[0.5]]), (2, 0): np.array([[0.25]])})))
    ser.save_json("germ3.json", ser.germ_to_dict(
        PolyGerm(2, 1, 1, {(1, 0): np.array([[0.9]]), (1, 2): np.array([[0.9]])})))
    ser.save_json("germ4.json", ser.germ_to_dict(
        PolyGerm(3, 1, 1, {(1, 0, 0): np.array([[0.5]]), (1, 1, 0): np.array([[0.25]]),
                           (2, 1, 1): np.array([[0.125]])})))

    reports = {}
    for argv in COMMANDS:
        buffer, errors = io.StringIO(), io.StringIO()
        with redirect_stdout(buffer), redirect_stderr(errors):
            code = run(argv)
        body = json.loads(buffer.getvalue()) if buffer.getvalue() else None
        if body is not None:
            body.pop("timing_s")
        reports[" ".join(argv)] = {"exit": code, "body": body, "stderr": errors.getvalue()}
        if "--out-dir" in argv:
            out_dir = Path(argv[argv.index("--out-dir") + 1])
            reports[" ".join(argv)]["out_dir_made"] = out_dir.is_dir()
    return reports


def record(src: Path, out: Path) -> None:
    sys.path[:0] = [str(src.resolve()), str(REPO / "bench"), str(REPO / "tests")]
    results = {"problem2": problem2_outcomes(), "agler": agler_outcomes(),
               "eval": eval_outcomes()}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            results["cli"] = cli_reports()
        finally:
            os.chdir(cwd)
    out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")


def _projector_gap(a: dict, b: dict) -> float:
    pa, pb = (np.array(m["re"]) + 1j * np.array(m["im"]) for m in (a, b))
    return float(np.abs(pa - pb).max(initial=0.0))


def _float_gap(a, b, where: str, mismatches: list) -> float:
    """Largest difference of two floats at the same place in two JSON values;
    anything else that differs is appended to ``mismatches``."""
    number = (int, float)
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        return max((_float_gap(a[k], b[k], f"{where}.{k}", mismatches) for k in a),
                   default=0.0)
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return max((_float_gap(x, y, f"{where}[{i}]", mismatches)
                    for i, (x, y) in enumerate(zip(a, b))), default=0.0)
    if (isinstance(a, float) or isinstance(b, float)) and all(
            isinstance(x, number) and not isinstance(x, bool) for x in (a, b)):
        return abs(a - b)
    if a != b:
        mismatches.append(where)
    return 0.0


FLOAT_FIELDS = ("max_norm", "witness_norm", "oracle_gap", *EVAL_RESIDUALS)


def _field_report(a: dict, b: dict, keys) -> str:
    """The fields that differ between the records ``keys`` of ``a`` and
    ``b``, each with the number of records it differs in, and the largest
    relative gap of a float field."""
    counts, gap = {}, 0.0
    for key in keys:
        ra, rb = a[key], b.get(key, {})
        for field in sorted(ra.keys() | rb.keys()):
            x, y = ra.get(field), rb.get(field)
            if x == y:
                continue
            counts[field] = counts.get(field, 0) + 1
            if field in FLOAT_FIELDS and x is not None and y is not None:
                x, y = (float.fromhex(v) if isinstance(v, str) else v for v in (x, y))
                gap = max(gap, abs(x - y) / (max(abs(x), abs(y)) or 1.0))
    fields = ", ".join(f"{field} {count}" for field, count in sorted(counts.items()))
    return f"differing fields: {fields}; largest relative gap {gap:.3e}"


def compare(a_path: Path, b_path: Path) -> int:
    sys.path.insert(0, str(REPO / "bench"))
    import oracle

    a, b = (json.loads(Path(p).read_text()) for p in (a_path, b_path))
    bad = []
    exact = ("verdict", "intermediate_dim", "witness_dim", "cc_dim")
    witness_gap = cc_gap = residual_gap = 0.0
    digests_differ = 0
    for key, ra in a["problem2"].items():
        rb = b["problem2"][key]
        if any(ra.get(f) != rb.get(f) for f in exact):
            bad.append(f"problem2 {key}: verdict or dimension differs")
            continue
        cc_gap = max(cc_gap, _projector_gap(ra["cc_projector"], rb["cc_projector"]))
        if "witness" not in ra:
            continue
        if any(ra[f] != rb[f] for f in ("witness", "theta2", "theta1")):
            digests_differ += 1
            witness_gap = max(witness_gap, _projector_gap(ra["witness_projector"],
                                                          rb["witness_projector"]))
        residual_gap = max(residual_gap, abs(float.fromhex(ra["residual"])
                                             - float.fromhex(rb["residual"])))
    hits = sum("witness" in v for v in a["problem2"].values())
    print(f"problem2: {len(a['problem2'])} searches compared, {hits} factored, "
          f"{digests_differ} with a witness or factor not bit-identical")
    print(f"problem2: largest witness projector difference {witness_gap:.3e}, "
          f"closely-connected projector {cc_gap:.3e}, residual {residual_gap:.3e}")

    changed = [key for key, ra in a["agler"].items() if b["agler"].get(key) != ra]
    bad += [f"agler {key}: record differs" for key in changed]
    witnesses = sum(v["witness"] is not None for v in a["agler"].values())
    print(f"agler: {len(a['agler'])} agler_test calls compared, {witnesses} with a witness, "
          f"{len(changed)} not bit-identical")
    if changed:
        print(f"agler: {_field_report(a['agler'], b['agler'], changed)}")
    flipped = [key for key, ra in a["agler"].items()
               if (ra["witness"] is None) != (b["agler"][key]["witness"] is None)]
    bad += [f"agler {key}: verdict differs" for key in flipped]
    gaps = [v["oracle_gap"] for side in (a, b) for v in side["agler"].values()
            if v["witness"] is not None]
    oracle_gap = max(gaps, default=0.0)
    print(f"agler: {len(flipped)} verdicts differ; largest distance of a witness norm "
          f"from the oracle's {oracle_gap:.3e}")
    if oracle_gap > oracle.RESIDUAL_BOUND:
        bad.append(f"an agler witness norm is more than {oracle.RESIDUAL_BOUND:.0e} "
                   f"from the oracle's")

    changed = [key for key, ra in a["eval"].items() if b["eval"].get(key) != ra]
    bad += [f"eval {key}: record differs" for key in changed]
    print(f"eval: {len(a['eval'])} run_eval items compared, {len(changed)} not bit-identical")
    if changed:
        print(f"eval: {_field_report(a['eval'], b['eval'], changed)}")

    report_gap = 0.0
    for cmd in COMMANDS:
        key = " ".join(cmd)
        ra, rb = a["cli"][key], b["cli"][key]
        tol_a = (ra["body"] or {}).pop("tolerances", None)
        tol_b = (rb["body"] or {}).pop("tolerances", None)
        mismatches = []
        report_gap = max(report_gap, _float_gap(ra, rb, "report", mismatches))
        if mismatches:
            bad.append(f"cli {key}: {', '.join(mismatches)} differ")
        if tol_a != tol_b:
            print(f"cli: tolerances {tol_a} -> {tol_b}: {key}")
    print(f"cli: {len(COMMANDS)} reports compared, largest float difference {report_gap:.3e}")
    if max(witness_gap, cc_gap, report_gap) > TOL:
        bad.append(f"a difference exceeds {TOL:.0e}")
    for line in bad:
        print(line)
    print(f"agree to {TOL:.0e}" if not bad else f"{len(bad)} difference(s)")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("record")
    p.add_argument("--src", type=Path, default=REPO / "src")
    p.add_argument("--out", type=Path, required=True)
    p = sub.add_parser("compare")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    ns = parser.parse_args()
    if ns.cmd == "record":
        record(ns.src, ns.out)
        return 0
    return compare(ns.a, ns.b)


if __name__ == "__main__":
    sys.exit(main())
