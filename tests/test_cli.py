"""End-to-end tests of the command-line interface (exit codes and files)."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mpsys
from mpsys import cli, factorization, systems
from mpsys import serialization as ser
from mpsys import tolerances
from mpsys.cascade import cascade, decompose, verify_factor_tf
from mpsys.cli import run
from mpsys.subspaces import Subspace
from mpsys.agler import agler_test
from mpsys.factorization import solve_problem2
from mpsys.systems import (ConservativityError, MultiSystem, random_conservative,
                           restrict_to_cc, scale_output)

from pairs import (block_triangular_zero, counting, irreducible_realization, shift_power,
                   z2_plus_z9)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_body(out):
    body = json.loads(out)
    body.pop("timing_s")
    return body


def write_system(path, s):
    ser.save_json(path, ser.system_to_dict(s))


def test_generate_and_check_conservative(tmp_path, capsys):
    out = tmp_path / "sys.json"
    code, stdout, _ = invoke(capsys, "generate", "conservative",
                             "--n-params", "2", "--dim-x", "4",
                             "--seed", "3", "--out", str(out))
    assert code == 0
    assert report_body(stdout)["conservative"] is True
    assert ser.load_system(out).dim_x == 4

    code, stdout, _ = invoke(capsys, "check", str(out), "--what", "conservative")
    assert code == 0
    assert report_body(stdout)["verdict"] == "conservative"


def test_check_fails_on_broken_system(tmp_path, capsys):
    s = random_conservative(2, 3, 2, 2, seed=0)
    broken = MultiSystem(a=[s.a[0] + 1e-3, s.a[1]], b=s.b, c=s.c, d=s.d)
    path = tmp_path / "broken.json"
    write_system(path, broken)
    for what in ("conservative", "dissipative"):
        code, stdout, _ = invoke(capsys, "check", str(path), "--what", what)
        assert code == 2
        assert report_body(stdout)["verdict"] == f"not-{what}"



def test_check_dissipative_needs_a_sample(tmp_path, capsys):
    # --torus-samples 0 would pass vacuously; both counts are usage errors
    path = tmp_path / "sys.json"
    write_system(path, random_conservative(2, 3, 2, 2, seed=0))
    for count in ("0", "-2"):
        code, stdout, err = invoke(capsys, "check", str(path), "--what", "dissipative",
                                   "--torus-samples", count)
        assert code == 1 and stdout == ""
        assert err == f"error: --torus-samples must be >= 1, got {count}\n"

def test_cascade_and_decompose_round_trip(tmp_path, capsys):
    p2, p1 = tmp_path / "b2.json", tmp_path / "b1.json"
    write_system(p2, random_conservative(2, 3, 2, 2, seed=5))
    write_system(p1, random_conservative(2, 3, 2, 2, seed=7))
    casc = tmp_path / "casc.json"
    code, stdout, _ = invoke(capsys, "cascade", str(p2), str(p1), "--out", str(casc))
    assert code == 0
    assert report_body(stdout)["transfer_product_residual"] < 1e-9

    combined = ser.load_system(casc)
    basis = np.zeros((combined.dim_x, 3), dtype=complex)
    basis[:3, :3] = np.eye(3)
    x2 = tmp_path / "x2.json"
    ser.save_json(x2, ser.subspace_to_dict(Subspace(combined.dim_x, basis)))
    code, stdout, _ = invoke(capsys, "decompose", str(casc), "--x2", str(x2),
                             "--out-dir", str(tmp_path / "dec"))
    assert code == 0
    body = report_body(stdout)
    assert body["transfer_product_residual"] < 1e-9
    assert (tmp_path / "dec" / "alpha2.json").exists()
    # every produced file re-validates on read
    ser.load_system(tmp_path / "dec" / "alpha2.json")
    ser.load_system(tmp_path / "dec" / "alpha1.json")
    ser.load_subspace(tmp_path / "dec" / "intermediate.json")
    ser.load_subspace(tmp_path / "dec" / "x1.json")


def test_decompose_quotes_the_condition_ii_residual(tmp_path, capsys):
    # X2 plus one coordinate of V in a conservative N = 2 cascade satisfies
    # condition (i) but not condition (ii)
    casc, x2 = tmp_path / "casc.json", tmp_path / "x2.json"
    combined = cascade(random_conservative(2, 3, 2, 2, seed=5),
                       random_conservative(2, 3, 2, 2, seed=7))
    write_system(casc, combined)
    x2_and_v1 = Subspace(combined.dim_x, np.eye(combined.dim_x)[:, :4])
    ser.save_json(x2, ser.subspace_to_dict(x2_and_v1))
    code, stdout, err = invoke(capsys, "decompose", str(casc), "--x2", str(x2),
                               "--out-dir", str(tmp_path / "dec"))
    assert (code, stdout) == (1, "")
    assert re.fullmatch(r"error: CascadeError: condition \(ii\) fails: residual "
                        r"\d\.\d{3}e-0[12]\n", err), err
    assert "dim M" not in err
    assert not (tmp_path / "dec").exists()


def test_factor_problem2_on_cascade(tmp_path, capsys):
    p2, p1 = tmp_path / "b2.json", tmp_path / "b1.json"
    write_system(p2, random_conservative(2, 2, 2, 2, seed=11))
    write_system(p1, random_conservative(2, 2, 2, 2, seed=13))
    casc = tmp_path / "casc.json"
    invoke(capsys, "cascade", str(p2), str(p1), "--out", str(casc))
    code, stdout, _ = invoke(capsys, "factor", str(casc), "--mode", "problem2",
                             "--out-dir", str(tmp_path / "p2"))
    assert code == 0
    body = report_body(stdout)
    assert body["verdict"] == "factored"
    # the multiplicity's degree cap follows from dim_x and is not a threshold
    assert body["tolerances"] == {"residual_tol": tolerances.RESIDUAL_TOL}
    ser.load_system(tmp_path / "p2" / "theta2.json")
    ser.load_system(tmp_path / "p2" / "theta1.json")


def test_factor_problem2_rejects_multiplicity_one(tmp_path, capsys):
    path = tmp_path / "m1.json"
    write_system(path, random_conservative(2, 3, 2, 2, seed=17))
    code, _, err = invoke(capsys, "factor", str(path), "--mode", "problem2",
                          "--out-dir", str(tmp_path / "out"))
    assert code == 1
    assert "error" in err


def test_factor_problem2_exact_no_and_its_errors(tmp_path, capsys):
    path = tmp_path / "irreducible.json"
    write_system(path, irreducible_realization(4, seed=0))
    code, stdout, _ = invoke(capsys, "factor", str(path), "--mode", "problem2",
                             "--out-dir", str(tmp_path / "no"), "--seed", "3")
    assert code == 2
    body = report_body(stdout)
    assert body["verdict"] == "no-cascade-decomposition"
    assert body["least_x2_dim"] == body["cc_dim"] == 4
    assert body["seed"] == 3 and "budget" not in body
    assert not (tmp_path / "no" / "theta2.json").exists()

    p2, p1 = tmp_path / "b2.json", tmp_path / "b1.json"
    write_system(p2, random_conservative(1, 1, 1, 1, seed=11))
    write_system(p1, random_conservative(1, 1, 1, 1, seed=13))
    casc = tmp_path / "casc.json"
    invoke(capsys, "cascade", str(p2), str(p1), "--out", str(casc))
    code, stdout, err = invoke(capsys, "factor", str(casc), "--mode", "problem2",
                               "--budget", "8", "--out-dir", str(tmp_path / "p2"))
    assert code == 1 and stdout == "" and "--budget" in err
    code, stdout, err = invoke(capsys, "factor", str(casc), "--mode", "problem2",
                               "--residual-tol", "1e-30", "--out-dir", str(tmp_path / "p2"))
    assert code == 1 and stdout == ""
    assert "CascadeError" in err and "residual" in err
    # the benchmark pipeline's call
    code, stdout, _ = invoke(capsys, "factor", str(casc), "--mode", "problem2",
                             "--out-dir", str(tmp_path / "p2"), "--seed", "5")
    assert code == 0
    assert report_body(stdout)["verdict"] == "factored"


def test_factor_problem2_exact_no_computes_each_result_once(tmp_path, capsys, monkeypatch):
    calls = {name: [] for name in ("restrict_to_cc", "closely_connected_subspace",
                                   "invariant_subspace_candidates", "is_conservative")}
    for module in (systems, factorization, cli):
        for name, counter in calls.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(getattr(module, name), counter))
    path = tmp_path / "irreducible.json"
    write_system(path, irreducible_realization(4, seed=0))
    code, stdout, _ = invoke(capsys, "factor", str(path), "--mode", "problem2",
                             "--out-dir", str(tmp_path / "no"))
    assert code == 2
    assert {name: len(counter) for name, counter in calls.items()} == dict.fromkeys(calls, 1)
    body = report_body(stdout)
    assert sorted(body) == ["cc_dim", "command", "kind", "least_x2_dim", "mode",
                            "schema_version", "seed", "tolerances", "verdict"]
    assert body["verdict"] == "no-cascade-decomposition"
    assert body["cc_dim"] == body["least_x2_dim"] == 4


def test_factor_homogeneous_default_cap_is_m_plus_dim_x(tmp_path, capsys):
    path = tmp_path / "z2_z9.json"  # theta = z^2 + z^9 with dim_x = 8
    write_system(path, z2_plus_z9())
    code, stdout, err = invoke(capsys, "factor", str(path), "--mode", "homogeneous",
                               "--out-dir", str(tmp_path / "h"))
    assert code == 1 and stdout == ""
    assert "not homogeneous of degree 2: nonzero term at (9,)" in err
    assert not (tmp_path / "h").exists()  # a failed run leaves no empty --out-dir
    # the degree is determined by theta, and no cap can be set below m + dim_x
    for extra, message in ((("--multiplicity", "2"), "unrecognized arguments: --multiplicity 2"),
                           (("--degree-cap", "8"), "unrecognized arguments: --degree-cap 8")):
        code, stdout, err = invoke(capsys, "factor", str(path), "--mode", "homogeneous",
                                   "--out-dir", str(tmp_path / "h"), *extra)
        assert code == 1 and stdout == "" and message in err, extra


def test_factor_homogeneous_expands_theta_once(tmp_path, capsys, monkeypatch):
    calls = []
    for module in (systems, factorization):
        monkeypatch.setattr(module, "_taylor_levels", counting(module._taylor_levels, calls))
    hom = tmp_path / "hom.json"  # theta is homogeneous of degree 3, dim_x = 4
    s = random_conservative(2, 0, 2, 2, seed=4)
    for j in (1, 2):
        s = cascade(random_conservative(2, 0, 2, 2, seed=4 + j), s)
    write_system(hom, s)
    code, stdout, _ = invoke(capsys, "factor", str(hom), "--mode", "homogeneous",
                             "--out-dir", str(tmp_path / "h"))
    assert code == 0 and len(calls) == 1
    body = report_body(stdout)
    assert body["degree"] == 3 and body["verdict"] == "reproduced"
    assert "coefficient_residual" not in body


def test_factor_left_and_right_expand_theta_once(tmp_path, capsys, monkeypatch):
    calls = []
    for module in (systems, factorization):
        monkeypatch.setattr(module, "_taylor_levels", counting(module._taylor_levels, calls))
    path = tmp_path / "casc.json"  # multiplicity 2
    write_system(path, cascade(random_conservative(2, 2, 2, 2, seed=5),
                               random_conservative(2, 2, 2, 2, seed=7)))
    for mode in ("left", "right"):
        calls.clear()
        code, stdout, _ = invoke(capsys, "factor", str(path), "--mode", mode,
                                 "--out-dir", str(tmp_path / mode))
        assert code == 0 and len(calls) == 1, mode
        assert report_body(stdout)["multiplicity"] == 2


def test_z9_has_multiplicity_nine_and_factors_on_the_left(tmp_path, capsys):
    path = tmp_path / "z9.json"  # theta = z^9 with dim_x = 8
    write_system(path, shift_power(1, 8))
    code, stdout, _ = invoke(capsys, "check", str(path), "--what", "multiplicity")
    assert code == 0 and report_body(stdout)["multiplicity"] == 9
    code, stdout, _ = invoke(capsys, "factor", str(path), "--mode", "left",
                             "--out-dir", str(tmp_path / "left"))
    assert code == 0
    body = report_body(stdout)
    assert body["multiplicity"] == 9 and body["reconstruction_residual"] < 1e-12
    assert ser.load_json(tmp_path / "left" / "chain.json")["spaces"] == [1] + [8] * 8 + [9]


def test_zero_function_is_exact(tmp_path, capsys):
    path = tmp_path / "zero.json"
    write_system(path, block_triangular_zero(2, 3, 2, seed=5))
    code, stdout, _ = invoke(capsys, "check", str(path), "--what", "multiplicity")
    assert code == 2
    body = report_body(stdout)
    assert body["verdict"] == "zero-function" and body["multiplicity"] is None
    assert "degree_cap" not in body
    code, stdout, err = invoke(capsys, "factor", str(path), "--mode", "left",
                               "--out-dir", str(tmp_path / "left"))
    assert code == 1 and stdout == "" and "vanishes identically" in err
    # no multiplicity can be declared for theta = 0, or for any other theta
    for mode, m in (("left", "4"), ("right", "40")):
        code, stdout, err = invoke(capsys, "factor", str(path), "--mode", mode,
                                   "--multiplicity", m, "--out-dir", str(tmp_path / mode))
        assert code == 1 and stdout == ""
        assert f"unrecognized arguments: --multiplicity {m}" in err


def test_a_factor_run_that_writes_nothing_makes_no_out_dir(tmp_path, capsys):
    cases = [("z2_z9.json", z2_plus_z9(), "homogeneous", 1),  # not homogeneous
             ("zero.json", block_triangular_zero(2, 3, 2, seed=5), "left", 1),  # theta = 0
             ("no.json", irreducible_realization(4, seed=0), "problem2", 2)]  # exact no
    for name, system, mode, expected in cases:
        write_system(tmp_path / name, system)
        out = tmp_path / f"out-{mode}"
        code, _, _ = invoke(capsys, "factor", str(tmp_path / name), "--mode", mode,
                            "--out-dir", str(out))
        assert code == expected and not out.exists(), mode


def test_factor_left_and_right(tmp_path, capsys):
    s = random_conservative(2, 4, 2, 2, seed=19)
    zero_d = MultiSystem(a=s.a, b=s.b, c=s.c, d=[np.zeros_like(d) for d in s.d])
    path = tmp_path / "z.json"
    write_system(path, zero_d)
    for mode in ("left", "right"):
        code, stdout, _ = invoke(capsys, "factor", str(path), "--mode", mode,
                                 "--out-dir", str(tmp_path / mode))
        assert code == 0
        assert report_body(stdout)["reconstruction_residual"] < 1e-9
        ser.chain_from_dict(ser.load_json(tmp_path / mode / "chain.json"))


def test_agler_pass_and_fail(tmp_path, capsys):
    s = random_conservative(2, 3, 2, 2, seed=23)
    path = tmp_path / "sys.json"
    write_system(path, s)
    code, stdout, _ = invoke(capsys, "agler", str(path), "--trials", "10")
    assert code == 0
    assert report_body(stdout)["witness"] is None

    scaled = MultiSystem(a=s.a, b=s.b, c=[1.5 * m for m in s.c],
                         d=[1.5 * m for m in s.d])
    bad = tmp_path / "scaled.json"
    write_system(bad, scaled)
    code, stdout, _ = invoke(capsys, "agler", str(bad), "--trials", "50")
    assert code == 2
    body = report_body(stdout)
    assert body["witness"] is not None
    assert body["witness_norm"] > 1.0 + 1e-8


@pytest.mark.parametrize("scale, kind, verdict, code", [
    (1.0, "exact", "member", 0),
    (1.5, "certified", "not-member", 2),
    (0.5, "heuristic", "not-falsified", 0),
])
def test_agler_states_its_verdict_kind(scale, kind, verdict, code, tmp_path, capsys):
    s = random_conservative(2, 3, 2, 2, seed=23)
    path = tmp_path / "sys.json"
    write_system(path, scale_output(s, scale))
    exit_code, stdout, _ = invoke(capsys, "agler", str(path), "--trials", "20",
                                  "--seed", "3")
    assert exit_code == code
    body = report_body(stdout)
    assert (body["kind"], body["verdict"]) == (kind, verdict)
    # the trials run on every input: --trials and --seed are always read
    assert body["seed"] == 3 and 1 <= body["trials"] <= 20
    assert (body["witness"] is not None) == (kind == "certified")
    assert (body["conservativity_residual"] <= tolerances.CONSERVATIVE_TOL) == (scale == 1.0)
    assert body["tolerances"] == {"tol": tolerances.AGLER_TOL,
                                  "conservativity_tol": tolerances.CONSERVATIVE_TOL}


def test_every_command_draws_the_conservative_line_at_one_threshold(tmp_path, capsys):
    # the worst residual, 3e-10, lies between CONSERVATIVE_TOL and RESIDUAL_TOL
    s = random_conservative(2, 3, 2, 2, seed=1)
    path = tmp_path / "near.json"
    write_system(path, MultiSystem(a=[s.a[0] + 3e-10 * np.eye(3), s.a[1]], b=s.b, c=s.c,
                                   d=s.d))
    code, stdout, _ = invoke(capsys, "check", str(path), "--what", "conservative")
    body = report_body(stdout)
    assert tolerances.CONSERVATIVE_TOL < body["residual"] < tolerances.RESIDUAL_TOL
    assert code == 2 and body["verdict"] == "not-conservative"
    code, stdout, _ = invoke(capsys, "agler", str(path), "--trials", "20")
    assert code == 0 and report_body(stdout)["kind"] == "heuristic"
    # a cascade moved off conservativity by 4.8e-10: the commands and calls
    # that require a conservative input refuse what check calls not conservative
    c = cascade(random_conservative(2, 2, 2, 2, seed=1), random_conservative(2, 2, 2, 2, seed=2))
    moved = MultiSystem(a=[c.a[0] + 3e-10 * np.eye(c.dim_x), c.a[1]], b=c.b, c=c.c, d=c.d)
    x2 = Subspace(c.dim_x, np.eye(c.dim_x)[:, :2])
    path, x2_path = tmp_path / "moved.json", tmp_path / "x2.json"
    write_system(path, moved)
    ser.save_json(x2_path, ser.subspace_to_dict(x2))
    code, stdout, _ = invoke(capsys, "check", str(path), "--what", "conservative")
    body = report_body(stdout)
    assert tolerances.CONSERVATIVE_TOL < body["residual"] < tolerances.RESIDUAL_TOL
    assert code == 2 and body["verdict"] == "not-conservative"
    for argv in (("decompose", path, "--x2", x2_path, "--out-dir", tmp_path / "d"),
                 ("factor", path, "--mode", "problem2", "--out-dir", tmp_path / "p")):
        code, stdout, err = invoke(capsys, *map(str, argv))
        assert code == 1 and stdout == "", argv
        assert err.startswith("error: ConservativityError: system is not conservative"), argv
    for call in (lambda: solve_problem2(moved), lambda: decompose(moved, x2),
                 lambda: restrict_to_cc(moved)):
        with pytest.raises(ConservativityError):
            call()


def test_agler_certifies_a_realized_germ_outside_the_class(tmp_path, capsys):
    # A_T of the realization is nilpotent with ||A_T||_2 above 1: the
    # witness stage evaluates where the point stage does
    from mpsys.systems import PolyGerm
    germ = PolyGerm(2, 1, 1, {(1, 0): np.array([[0.9]]), (1, 2): np.array([[0.9]])})
    gpath, real = tmp_path / "germ.json", tmp_path / "real.json"
    ser.save_json(gpath, ser.germ_to_dict(germ))
    code, _, _ = invoke(capsys, "generate", "germ-realization", "--germ", str(gpath),
                        "--out", str(real))
    assert code == 0
    code, stdout, _ = invoke(capsys, "agler", str(real), "--trials", "50", "--seed", "0")
    body = report_body(stdout)
    assert code == 2 and (body["kind"], body["verdict"]) == ("certified", "not-member")
    assert body["trials"] == 3 and abs(body["witness_norm"] - 1.0975973845028324) < 1e-12


def test_agler_refuses_a_falsified_conservative_input(tmp_path, capsys, monkeypatch):
    s = random_conservative(2, 3, 2, 2, seed=23)
    path = tmp_path / "sys.json"
    write_system(path, s)
    falsified = agler_test(scale_output(s, 1.5), trials=50)
    monkeypatch.setattr(cli, "agler_test", lambda *args, **kwargs: falsified)
    code, stdout, err = invoke(capsys, "agler", str(path))
    assert code == 1 and stdout == ""
    assert err.startswith("error: internal error: a conservative input")


def test_agler_rejects_trials_below_one_and_r_outside_unit_interval(tmp_path, capsys):
    path = tmp_path / "sys.json"
    write_system(path, random_conservative(2, 3, 2, 2, seed=23))
    for flag, value, message in (("--trials", "0", "trials must be >= 1"),
                                 ("--trials", "-3", "trials must be >= 1"),
                                 ("--r", "1.0", "r must lie in (0, 1)")):
        code, stdout, err = invoke(capsys, "agler", str(path), flag, value)
        assert code == 1
        assert stdout == ""
        assert message in err


def test_usage_errors_exit_one(tmp_path, capsys):
    code, _, err = invoke(capsys, "check", str(tmp_path / "missing.json"),
                          "--what", "conservative")
    assert code == 1
    code, _, err = invoke(capsys, "check", "x.json", "--what", "bogus")
    assert code == 1
    code, _, err = invoke(capsys, "frobnicate")
    assert code == 1


def process_env():
    return {**os.environ, "PYTHONPATH": str(Path(mpsys.__file__).resolve().parents[1])}


def test_one_cascade_computes_its_row_gram_constants_once(monkeypatch):
    # the cascade is evaluated by verify_factor_tf and by both reconstruction
    # residuals of the eval benchmark; its constants, and those of every
    # other system evaluated, are computed on the first call only, and the
    # left tail, whose X rows are the cascade's, takes the cascade's
    computed, compute = [], systems._row_gram_constants

    def recording(s):
        computed.append(s)
        return compute(s)

    monkeypatch.setattr(systems, "_row_gram_constants", recording)
    alpha2, alpha1 = random_conservative(2, 3, 2, 2, seed=6), random_conservative(2, 4, 2, 2, seed=7)
    c = cascade(alpha2, alpha1)
    verify_factor_tf(c, alpha2, alpha1, n_points=20, seed=1)
    m = factorization.multiplicity(c)
    left_chain, left_tail = factorization.factor_left(c, m)
    cli._reconstruction_residual(c, left_chain, left_tail, False, 1)
    tail, chain = factorization.factor_right(c, m)
    cli._reconstruction_residual(c, chain, tail, True, 1)
    assert sum(t is c for t in computed) == 1
    assert len({id(t) for t in computed}) == len(computed) == 4  # c, alpha2, alpha1, right tail
    assert left_tail.vanishing_part._row_gram is c._row_gram


def test_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_shared_parser_keeps_no_state_between_runs(tmp_path, capsys):
    # a usage error, then a valid run in the same process: the report body
    # equals the one of a fresh process
    path = tmp_path / "sys.json"
    write_system(path, random_conservative(2, 3, 2, 2, seed=29))
    argv = ["check", str(path), "--what", "dissipative", "--seed", "4"]
    code, stdout, err = invoke(capsys, "check", str(path), "--what", "bogus", "--seed", "9")
    assert code == 1 and stdout == "" and "invalid choice" in err
    code, stdout, _ = invoke(capsys, *argv)
    assert code == 0
    fresh = subprocess.run([sys.executable, "-m", "mpsys.cli", *argv], capture_output=True,
                           text=True, env=process_env(), timeout=120)
    assert fresh.returncode == 0

    def body(text):
        return [ln for ln in text.splitlines() if "timing_s" not in ln]

    assert body(stdout) == body(fresh.stdout)


def test_malformed_system_files_are_clean_errors(tmp_path):
    # run as a process, so an uncaught exception would show as a traceback
    good = ser.system_to_dict(random_conservative(1, 2, 2, 2, seed=0))
    no_n_params = {k: v for k, v in good.items() if k != "n_params"}
    env = process_env()
    for name, text in (("list.json", "[1, 2]\n"),
                       ("no_n_params.json", json.dumps(no_n_params)),
                       ("str_dim.json", json.dumps({**good, "dim_x": "two"})),
                       ("int_blocks.json", json.dumps({**good, "a": 3}))):
        path = tmp_path / name
        path.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "mpsys.cli", "check", str(path), "--what", "conservative"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1, name
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr, name


def test_rank_tol_is_a_check_flag_only(tmp_path, capsys):
    path = tmp_path / "sys.json"
    write_system(path, random_conservative(2, 3, 2, 2, seed=31))
    x2 = tmp_path / "x2.json"
    ser.save_json(x2, ser.subspace_to_dict(Subspace(3, np.zeros((3, 0)))))
    for argv in (["factor", str(path), "--mode", "left", "--out-dir", str(tmp_path / "f")],
                 ["cascade", str(path), str(path), "--out", str(tmp_path / "c.json")],
                 ["decompose", str(path), "--x2", str(x2), "--out-dir", str(tmp_path / "d")]):
        code, stdout, err = invoke(capsys, *argv, "--rank-tol", "1e-6")
        assert code == 1 and stdout == ""
        assert "unrecognized arguments: --rank-tol 1e-6" in err
    code, stdout, _ = invoke(capsys, "check", str(path), "--what", "closely-connected",
                             "--rank-tol", "1e-6")
    assert code == 0
    assert report_body(stdout)["tolerances"]["rank_tol"] == 1e-6


def test_reports_echo_only_the_thresholds_they_apply(tmp_path, capsys):
    path = tmp_path / "sys.json"
    write_system(path, random_conservative(2, 3, 2, 2, seed=31))
    hom = tmp_path / "hom.json"  # theta is homogeneous of degree 2
    write_system(hom, cascade(random_conservative(2, 0, 2, 2, seed=5),
                              random_conservative(2, 0, 2, 2, seed=4)))
    cases = [
        (("check", path, "--what", "conservative"),
         {"residual_tol": tolerances.CONSERVATIVE_TOL}),
        (("check", path, "--what", "dissipative"),
         {"residual_tol": tolerances.CONSERVATIVE_TOL}),
        (("check", path, "--what", "conservative", "--residual-tol", "5"),
         {"residual_tol": 5.0}),
        (("check", path, "--what", "unitary-part"),
         {"rank_tol": tolerances.RANK_TOL}),
        (("check", path, "--what", "multiplicity"),
         {"taylor_drop_tol": tolerances.TAYLOR_DROP_TOL}),
        (("factor", hom, "--mode", "homogeneous", "--out-dir", tmp_path / "h"),
         {"taylor_drop_tol": tolerances.TAYLOR_DROP_TOL}),
        (("factor", hom, "--mode", "left", "--out-dir", tmp_path / "l"),
         {"residual_tol": tolerances.RESIDUAL_TOL,
          "taylor_drop_tol": tolerances.TAYLOR_DROP_TOL}),
        (("factor", hom, "--mode", "right", "--out-dir", tmp_path / "r"),
         {"residual_tol": tolerances.RESIDUAL_TOL,
          "taylor_drop_tol": tolerances.TAYLOR_DROP_TOL}),
    ]
    for argv, applied in cases:
        code, stdout, _ = invoke(capsys, *map(str, argv))
        assert code == 0, argv
        assert report_body(stdout)["tolerances"] == applied, argv


CHECK_UNREAD = {
    "conservative": ("--seed", "--rank-tol", "--torus-samples"),
    "dissipative": ("--rank-tol",),
    "closely-connected": ("--seed", "--residual-tol", "--torus-samples"),
    "unitary-part": ("--seed", "--residual-tol", "--rank-tol", "--torus-samples"),
    "multiplicity": ("--seed", "--residual-tol", "--rank-tol", "--torus-samples"),
}


@pytest.mark.parametrize("what", sorted(CHECK_UNREAD))
def test_check_rejects_flags_its_what_does_not_read(what, tmp_path, capsys):
    # refused before the file is read: the path does not exist
    missing = str(tmp_path / "missing.json")
    for flag in CHECK_UNREAD[what]:
        code, stdout, err = invoke(capsys, "check", missing, "--what", what, flag, "5")
        assert code == 1 and stdout == "", flag
        assert err == f"error: {flag} does not apply to --what {what}\n"
    code, _, err = invoke(capsys, "check", missing, "--what", what)
    assert code == 1 and "FileNotFoundError" in err


def test_factor_homogeneous_rejects_seed_and_residual_tol(tmp_path, capsys):
    hom = tmp_path / "hom.json"  # theta is homogeneous of degree 2
    write_system(hom, cascade(random_conservative(2, 0, 2, 2, seed=5),
                              random_conservative(2, 0, 2, 2, seed=4)))
    out = ("--out-dir", str(tmp_path / "h"))
    for extra, flag in ((("--seed", "5", "--residual-tol", "5"), "--seed"),
                        (("--seed", "0"), "--seed"),
                        (("--residual-tol", "5"), "--residual-tol")):
        code, stdout, err = invoke(capsys, "factor", str(hom), "--mode", "homogeneous",
                                   *out, *extra)
        assert code == 1 and stdout == "", extra
        assert err == f"error: {flag} does not apply to --mode homogeneous\n"
        assert not (tmp_path / "h").exists()
    code, stdout, _ = invoke(capsys, "factor", str(hom), "--mode", "homogeneous", *out)
    assert code == 0
    assert "seed" not in report_body(stdout)
    # the other modes read both flags, with the same defaults as before
    for mode in ("left", "right", "problem2"):
        out = ("--out-dir", str(tmp_path / mode))
        for extra, seed, tol in (((), 0, tolerances.RESIDUAL_TOL),
                                 (("--seed", "5", "--residual-tol", "5"), 5, 5.0)):
            code, stdout, _ = invoke(capsys, "factor", str(hom), "--mode", mode, *out, *extra)
            assert code == 0, (mode, extra)
            body = report_body(stdout)
            assert body["seed"] == seed and type(body["seed"]) is int
            assert body["tolerances"]["residual_tol"] == tol, (mode, extra)


def unread_flags():
    """(command, mode, flag, message) for every flag of ``cli.MODE_FLAGS``
    that a mode does not read."""
    for cmd, (_, word, modes) in cli.MODE_FLAGS.items():
        names = {name for reads in modes.values() for name in reads}
        for mode, reads in modes.items():
            for name in sorted(names - set(reads)):
                flag = "--" + name.replace("_", "-")
                yield cmd, mode, flag, f"error: {flag} does not apply to {word} {mode}\n"


@pytest.mark.parametrize("cmd, mode, flag, message", list(unread_flags()))
def test_every_mode_refuses_the_flags_it_does_not_read(cmd, mode, flag, message, tmp_path,
                                                       capsys):
    # refused before any file is read or written: the input path does not exist
    missing, out = str(tmp_path / "missing.json"), tmp_path / "out"
    argv = {"generate": ["generate", mode, "--out", str(out)],
            "check": ["check", missing, "--what", mode],
            "factor": ["factor", missing, "--mode", mode, "--out-dir", str(out)]}[cmd]
    code, stdout, err = invoke(capsys, *argv, flag, "5")
    assert (code, stdout, err) == (1, "", message)
    assert not out.exists()


def test_flags_that_were_silently_ignored_are_refused(tmp_path, capsys):
    gpath = tmp_path / "germ.json"
    ser.save_json(gpath, ser.germ_to_dict(systems.PolyGerm(2, 1, 1, {(1, 1): np.eye(1)})))
    casc = tmp_path / "c.json"
    write_system(casc, cascade(random_conservative(2, 2, 2, 2, seed=11),
                               random_conservative(2, 2, 2, 2, seed=13)))
    out = tmp_path / "out.json"
    for argv, message in (
            (("generate", "germ-realization", "--germ", gpath, "--dim-x", "7", "--n-params",
              "3", "--seed", "5", "--out", out),
             "--n-params does not apply to generate germ-realization"),
            (("generate", "conservative", "--germ", gpath, "--out", out),
             "--germ does not apply to generate conservative")):
        code, stdout, err = invoke(capsys, *map(str, argv))
        assert (code, stdout, err) == (1, "", f"error: {message}\n"), argv
        assert not out.exists()
    # factor computes the multiplicity it factors by, so it takes none
    code, stdout, err = invoke(capsys, "factor", str(casc), "--mode", "problem2",
                               "--multiplicity", "7", "--out-dir", str(out))
    assert (code, stdout) == (1, "") and not out.exists()
    assert err.endswith("error: unrecognized arguments: --multiplicity 7\n")


def test_germ_realization_needs_a_germ(tmp_path, capsys):
    out = tmp_path / "r.json"
    code, stdout, err = invoke(capsys, "generate", "germ-realization", "--out", str(out))
    assert (code, stdout) == (1, "") and not out.exists()
    assert err == "error: generate germ-realization needs --germ\n"


def test_degree_cap_is_not_a_flag(tmp_path, capsys):
    path = str(tmp_path / "missing.json")
    for argv in (("check", path, "--what", "multiplicity"),
                 ("factor", path, "--mode", "left"),
                 ("factor", path, "--mode", "problem2")):
        code, stdout, err = invoke(capsys, *argv, "--degree-cap", "8")
        assert code == 1 and stdout == ""
        assert "unrecognized arguments: --degree-cap 8" in err, argv


def test_seeded_reports_are_byte_identical(tmp_path, capsys):
    path = tmp_path / "sys.json"
    write_system(path, random_conservative(2, 3, 2, 2, seed=29))

    def body_lines(argv):
        code, stdout, _ = invoke(capsys, *argv)
        assert code == 0
        return [ln for ln in stdout.splitlines() if "timing_s" not in ln]

    for argv in (
        ["check", str(path), "--what", "dissipative", "--seed", "4"],
        ["agler", str(path), "--trials", "8", "--seed", "4"],
        ["generate", "conservative", "--seed", "9", "--out", str(tmp_path / "g.json")],
    ):
        assert body_lines(argv) == body_lines(argv)


def test_germ_realization_generate(tmp_path, capsys):
    from mpsys.systems import PolyGerm
    germ = PolyGerm(2, 1, 1, {(1, 1): np.array([[1.0]])})
    gpath = tmp_path / "germ.json"
    ser.save_json(gpath, ser.germ_to_dict(germ))
    out = tmp_path / "real.json"
    code, stdout, _ = invoke(capsys, "generate", "germ-realization",
                             "--germ", str(gpath), "--out", str(out))
    assert code == 0
    assert ser.load_system(out).dim_x == 2


def test_germ_realization_rejects_a_transposed_coefficient(tmp_path, capsys):
    # 2 x 3 written as 3 x 2: the entry count is right, the shape is not
    payload = ser.germ_to_dict(systems.PolyGerm(2, 3, 2, {(1, 0): np.arange(6.0).reshape(2, 3)}))
    payload["coeffs"][0]["matrix"] = ser.matrix_to_json(np.arange(6.0).reshape(3, 2))
    gpath, out = tmp_path / "germ.json", tmp_path / "real.json"
    ser.save_json(gpath, payload)
    code, stdout, err = invoke(capsys, "generate", "germ-realization",
                               "--germ", str(gpath), "--out", str(out))
    assert (code, stdout) == (1, "") and not out.exists()
    assert err.startswith("error: FileFormatError: malformed coefficient list: expected 2 x 3")


def test_germ_realization_rejects_a_nan_coefficient(tmp_path, capsys):
    payload = {"schema_version": "1", "kind": "germ", "n_params": 2, "dim_u": 1,
               "dim_y": 1, "coeffs": [{"index": [1, 0], "matrix": [[[0.5, 0.0]]]},
                                      {"index": [1, 1], "matrix": [[[float("nan"), 0.0]]]}]}
    gpath = tmp_path / "germ.json"
    gpath.write_text(json.dumps(payload))
    out = tmp_path / "real.json"
    code, stdout, err = invoke(capsys, "generate", "germ-realization",
                               "--germ", str(gpath), "--out", str(out))
    assert code == 1 and stdout == "" and not out.exists()
    assert "coefficient at (1, 1) has non-finite entries" in err


def load_script(name):
    """The module ``scripts/<name>.py``, loaded without running its main()."""
    script = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_cli_chain_runs_with_scipy_blocked():
    # the script sets sys.modules["scipy"] = None, so any scipy import raises
    chain = load_script("cli_without_scipy")
    assert {walk_mode(argv) for argv in chain.CHAIN} == every_mode()
    proc = subprocess.run([sys.executable, chain.__file__], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    codes = [line.rsplit(" -> ", 1)[1] for line in proc.stdout.splitlines()]
    assert codes == ["0"] * len(chain.CHAIN)


def test_output_identity_measures_the_floats_beside_a_field_one_report_lacks():
    identity = load_script("output_identity")
    first = {"exit": 0, "body": {"verdict": "reproduced", "residual": 3.89e-17,
                                 "coefficient_residual": 0.0}}
    second = {"exit": 0, "body": {"verdict": "reproduced", "residual": 2.87e-17}}
    for a, b, side in ((first, second, "first"), (second, first, "second")):
        mismatches = []
        assert identity._float_gap(a, b, "report", mismatches) == abs(3.89e-17 - 2.87e-17)
        assert mismatches == [f"report.body.coefficient_residual ({side} only)"]


def test_output_identity_fails_a_record_only_beyond_a_last_bit_float_move(capsys):
    # a float field that moves by at most TOL is summarized once per field;
    # a verdict, witness, trial count or larger float move fails its record
    identity = load_script("output_identity")
    one = (1.0).hex()
    base = {"max_norm": one, "witness_norm": one, "trials": 50, "witness": "d1",
            "oracle_gap": 1e-16}
    nudged = {**base, "max_norm": (1.0 + 2.0 ** -52).hex(), "oracle_gap": 2e-16}
    section = {"agler": {"x": base, "y": base}}
    assert identity._faults("agler", section, {"agler": {"x": nudged, "y": nudged}},
                            ["x", "y"]) == []
    for field, value in (("trials", 49), ("witness", "d2"), ("witness", None),
                         ("max_norm", (1.0 + 2 * identity.TOL).hex()),
                         ("max_norm", "nan"), ("oracle_gap", 1e-11)):
        moved = {"agler": {"x": nudged, "y": {**base, field: value}}}
        assert identity._faults("agler", section, moved, ["x", "y"]) == [
            f"agler y: {field} differ"]
    lacking = {key: value for key, value in base.items() if key != "trials"}
    assert identity._faults("agler", section, {"agler": {"x": base, "y": lacking}},
                            ["y"]) == ["agler y: trials differ"]
    report = identity._field_report(section["agler"], {"x": nudged, "y": nudged}, ["x", "y"])
    assert report.startswith("differing fields: max_norm 2 (largest gap 2.220e-16 absolute")


# (argv, kind, verdict) for every command and mode, and for every FAILING
# verdict an input that reaches it: {d} is the directory of walk_inputs and
# {o} a fresh directory for the outputs.  generate states no verdict.
VERDICT_WALK = [
    ("generate conservative --seed 3 --out {o}/g.json", None, None),
    ("generate germ-realization --germ {d}/germ.json --out {o}/r.json", None, None),
    ("check {d}/sys.json --what conservative", "exact", "conservative"),
    ("check {d}/broken.json --what conservative", "exact", "not-conservative"),
    ("check {d}/sys.json --what dissipative", "heuristic", "not-falsified"),
    ("check {d}/broken.json --what dissipative", "certified", "not-dissipative"),
    ("check {d}/sys.json --what closely-connected", "exact", "closely-connected"),
    ("check {d}/padded.json --what closely-connected", "exact", "not-closely-connected"),
    ("check {d}/sys.json --what unitary-part", "exact", "completely-non-unitary"),
    ("check {d}/padded.json --what unitary-part", "exact", "has-unitary-part"),
    ("check {d}/casc.json --what multiplicity", "exact", "nonzero"),
    ("check {d}/zero.json --what multiplicity", "exact", "zero-function"),
    ("cascade {d}/b2.json {d}/b1.json --out {o}/c.json", "heuristic", "reproduced"),
    ("cascade {d}/b2.json {d}/b1.json --out {o}/c.json --residual-tol 0",
     "heuristic", "not-reproduced"),
    ("decompose {d}/casc.json --x2 {d}/x2.json --out-dir {o}/out", "heuristic", "reproduced"),
    ("decompose {d}/casc.json --x2 {d}/x2.json --out-dir {o}/out --residual-tol 0",
     "heuristic", "not-reproduced"),
    ("factor {d}/casc.json --mode left --out-dir {o}/out", "heuristic", "reproduced"),
    ("factor {d}/casc.json --mode left --out-dir {o}/out --residual-tol 0",
     "heuristic", "not-reproduced"),
    ("factor {d}/casc.json --mode right --out-dir {o}/out", "heuristic", "reproduced"),
    ("factor {d}/casc.json --mode right --out-dir {o}/out --residual-tol 0",
     "heuristic", "not-reproduced"),
    ("factor {d}/hom.json --mode homogeneous --out-dir {o}/out", "exact", "reproduced"),
    ("factor {d}/casc.json --mode problem2 --out-dir {o}/out", "heuristic", "factored"),
    ("factor {d}/irreducible.json --mode problem2 --out-dir {o}/out",
     "exact", "no-cascade-decomposition"),
    ("agler {d}/sys.json --trials 10", "exact", "member"),
    ("agler {d}/half.json --trials 10", "heuristic", "not-falsified"),
    ("agler {d}/scaled.json --trials 50", "certified", "not-member"),
]


def walk_mode(argv) -> tuple:
    """(command, mode) of an argument list; the mode is None for a command
    outside ``cli.MODE_FLAGS``."""
    cmd = argv[0]
    if cmd not in cli.MODE_FLAGS:
        return cmd, None
    word = cli.MODE_FLAGS[cmd][1]
    return cmd, argv[argv.index(word) + 1] if word.startswith("--") else argv[1]


def every_mode() -> set:
    """Every (command, mode) pair: each mode of ``cli.MODE_FLAGS``, and each
    other command with a handler."""
    commands = {name[len("cmd_"):] for name in vars(cli) if name.startswith("cmd_")}
    return ({(cmd, mode) for cmd, (_, _, modes) in cli.MODE_FLAGS.items() for mode in modes}
            | {(cmd, None) for cmd in commands - set(cli.MODE_FLAGS)})


@pytest.fixture(scope="module")
def walk_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("walk")
    s = random_conservative(2, 3, 2, 2, seed=1)
    casc = cascade(random_conservative(2, 2, 2, 2, seed=11),
                   random_conservative(2, 2, 2, 2, seed=13))
    # a state on which the pencil is unitary (A_1 = 0, A_2 = 1), decoupled
    # from input and output
    padded = MultiSystem(a=[np.block([[np.full((1, 1), k), np.zeros((1, 3))],
                                      [np.zeros((3, 1)), s.a[k]]]) for k in range(2)],
                         b=[np.vstack([np.zeros((1, 2)), b]) for b in s.b],
                         c=[np.hstack([np.zeros((2, 1)), c]) for c in s.c], d=s.d)
    hom = cascade(random_conservative(2, 0, 2, 2, seed=5), random_conservative(2, 0, 2, 2, seed=4))
    for name, system in (("sys", s), ("broken", MultiSystem(a=[s.a[0] + 1e-3, s.a[1]], b=s.b,
                                                             c=s.c, d=s.d)),
                         ("scaled", scale_output(s, 1.5)), ("half", scale_output(s, 0.5)),
                         ("b2", random_conservative(2, 2, 2, 2, seed=11)),
                         ("b1", random_conservative(2, 2, 2, 2, seed=13)), ("casc", casc),
                         ("hom", hom), ("padded", padded),
                         ("irreducible", irreducible_realization(4, seed=0)),
                         ("zero", block_triangular_zero(2, 3, 2, seed=5))):
        write_system(d / f"{name}.json", system)
    ser.save_json(d / "x2.json", ser.subspace_to_dict(Subspace(6, np.eye(6)[:, :2])))
    ser.save_json(d / "germ.json", ser.germ_to_dict(
        systems.PolyGerm(2, 1, 1, {(1, 1): np.array([[0.5]])})))
    return d


@pytest.mark.parametrize("argv, kind, verdict", VERDICT_WALK)
def test_one_rule_decides_every_exit_code(argv, kind, verdict, walk_inputs, tmp_path, capsys):
    args = [word.format(d=walk_inputs, o=tmp_path) for word in argv.split()]
    code, stdout, err = invoke(capsys, *args)
    body = report_body(stdout)
    if verdict is None:
        assert code == 0 and "verdict" not in body and "kind" not in body
        assert body["system_kind"] == args[1]
        return
    assert body["kind"] in cli.KINDS and isinstance(body["verdict"], str)
    assert code == (cli.FAIL if body["verdict"] in cli.FAILING else cli.PASS), err
    assert (body["kind"], body["verdict"]) == (kind, verdict)


def test_the_verdict_walk_reaches_every_mode_kind_and_failing_verdict():
    assert {walk_mode(argv.split()) for argv, _, _ in VERDICT_WALK} == every_mode()
    assert {kind for _, kind, _ in VERDICT_WALK} - {None} == set(cli.KINDS)
    assert cli.FAILING <= {verdict for _, _, verdict in VERDICT_WALK}
