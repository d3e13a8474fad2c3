"""Acceptance gate: ten property-based criteria at desk scale.

Each test covers one numbered criterion, prints a single pass/fail line,
and asserts the stated tolerance.  Scales: N <= 3, dim_x <= 16,
dim_u = dim_y <= 4.
"""

import io
from contextlib import redirect_stdout

import numpy as np

from mpsys import serialization as ser
from mpsys.agler import agler_test
from mpsys.cascade import (
    cascade,
    check_condition_ii,
    decompose,
    sample_polydisk,
    verify_factor_tf,
)
from mpsys.cli import run as cli_run
from mpsys.factorization import (
    chain_eval,
    factor_homogeneous,
    factor_left,
    factor_right,
    solve_problem2,
    tail_eval,
)
from mpsys.subspaces import orthonormal_basis, projector_distance
from mpsys.systems import (
    MultiSystem,
    PolyGerm,
    combine,
    is_conservative,
    pencil_blocks,
    random_conservative,
    realize_germ,
    restrict_to_cc,
    sample_torus,
    scale_output,
    taylor_coefficients,
    transfer_eval,
)

from pairs import (chain_to_germ, closcon_property_check, from_factorization, is_a_invariant,
                   search_candidates, whole_space, zero_space)


# ---------------------------------------------------------------- helpers

def conclude(number, title, detail):
    print(f"criterion {number} ({title}): PASS -- {detail}")


def torus_unitarity_residual(s, n_points=100, seed=0):
    gs = pencil_blocks(s)
    eye_in = np.eye(s.dim_x + s.dim_u)
    eye_out = np.eye(s.dim_x + s.dim_y)
    worst = 0.0
    for zeta in sample_torus(s.n_params, n_points, seed):
        g = combine(gs, zeta)
        worst = max(worst, np.linalg.norm(g.conj().T @ g - eye_in, 2))
        worst = max(worst, np.linalg.norm(g @ g.conj().T - eye_out, 2))
    return worst


def zero_d(s):
    return MultiSystem(a=s.a, b=s.b, c=s.c, d=[np.zeros_like(dk) for dk in s.d])


def coordinate_block(ambient, count):
    return orthonormal_basis(np.eye(ambient)[:, :count])


def homogeneous_conservative(n, m, du, seed):
    s = random_conservative(n, 0, du, du, seed=seed)
    for j in range(1, m):
        s = cascade(random_conservative(n, 0, du, du, seed=seed + j), s)
    return s


def padded_with_unitary_block(inner, d0, seed):
    """Conservative system with a decoupled d0-dimensional unitary state block."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((d0, d0)) + 1j * rng.standard_normal((d0, d0))
    w0 = np.linalg.qr(z)[0]
    n, dx = inner.n_params, inner.dim_x
    splits = np.array_split(np.arange(d0), n)
    u0 = []
    for k in range(n):
        p = np.zeros((d0, d0))
        p[splits[k], splits[k]] = 1.0
        u0.append(p @ w0)
    return MultiSystem(
        a=[np.block([[u0[k], np.zeros((d0, dx))],
                     [np.zeros((dx, d0)), inner.a[k]]]) for k in range(n)],
        b=[np.vstack([np.zeros((d0, inner.dim_u)), inner.b[k]]) for k in range(n)],
        c=[np.hstack([np.zeros((inner.dim_y, d0)), inner.c[k]]) for k in range(n)],
        d=list(inner.d),
    )


def defect_space_at(s, x2, zeta):
    dx, du, dy = s.dim_x, s.dim_u, s.dim_y
    target = np.zeros((dx + dy, x2.dim + dy), dtype=complex)
    target[:dx, :x2.dim] = x2.basis
    target[dx:, x2.dim:] = np.eye(dy)
    g = combine(pencil_blocks(s), zeta)
    image = orthonormal_basis(g.conj().T @ target)
    x2_embedded = np.vstack([x2.basis, np.zeros((du, x2.dim))])
    reduced = (np.eye(dx + du) - x2_embedded @ x2_embedded.conj().T) @ image.basis
    return orthonormal_basis(reduced)


def condition_ii_oracle(s, x2, n_points=50, tol=1e-8):
    points = sample_torus(s.n_params, n_points, seed=0)
    reference = defect_space_at(s, x2, points[0])
    for zeta in points[1:]:
        current = defect_space_at(s, x2, zeta)
        if current.dim != reference.dim:
            return False
        if projector_distance(current, reference) > tol:
            return False
    return True


def conservative_pairs(count, seed0, max_dx=3):
    rng = np.random.default_rng(seed0)
    pairs = []
    for i in range(count):
        n = 1 + i % 3
        du = int(rng.integers(1, 4))
        dx2 = int(rng.integers(0, max_dx + 1))
        dx1 = int(rng.integers(0, max_dx + 1))
        pairs.append((
            random_conservative(n, dx2, du, du, seed=seed0 + 2 * i),
            random_conservative(n, dx1, du, du, seed=seed0 + 2 * i + 1),
        ))
    return pairs


# --------------------------------------------------------------- criteria

def test_criterion_01_conservativity_equivalence():
    rng = np.random.default_rng(101)
    agreements = 0
    for i in range(200):
        n = 1 + i % 3
        dx = int(rng.integers(0, 7))
        du = int(rng.integers(1, 5))
        s = random_conservative(n, dx, du, du, seed=100 + i)
        if i >= 100:  # perturbed half
            eps = 10.0 ** rng.uniform(-3, -1)
            noise = eps * (rng.standard_normal(s.a[0].shape if dx else s.d[0].shape))
            if dx:
                s = MultiSystem(a=(s.a[0] + noise,) + s.a[1:], b=s.b, c=s.c, d=s.d)
            else:
                s = MultiSystem(a=s.a, b=s.b, c=s.c, d=(s.d[0] + noise,) + s.d[1:])
        algebraic = is_conservative(s).is_conservative
        sampled = torus_unitarity_residual(s, 100, seed=i) < 1e-8
        assert algebraic == sampled, f"instance {i}: algebraic {algebraic}, sampled {sampled}"
        agreements += 1
    conclude(1, "conservativity equivalence", f"{agreements}/200 verdicts agree")


def test_criterion_02_cascade_transfer_identity():
    worst = 0.0
    for i, (alpha2, alpha1) in enumerate(conservative_pairs(100, 200)):
        combined = cascade(alpha2, alpha1)
        residual = verify_factor_tf(combined, alpha2, alpha1, n_points=20,
                                    radius=0.5, seed=i)
        worst = max(worst, residual)
        assert residual < 1e-9, f"pair {i}: residual {residual:.3e}"
    conclude(2, "cascade transfer identity", f"worst residual {worst:.3e} over 100 pairs")


def test_criterion_03_cascade_decompose_round_trip():
    worst_tf, worst_pencil = 0.0, 0.0
    for i, (beta2, beta1) in enumerate(conservative_pairs(100, 300, max_dx=4)):
        combined = cascade(beta2, beta1)
        n = combined.n_params
        dec = decompose(combined, coordinate_block(combined.dim_x, beta2.dim_x))
        for z in sample_polydisk(n, 20, 0.5, seed=i):
            err2 = np.linalg.norm(transfer_eval(dec.alpha2, z) - transfer_eval(beta2, z), 2)
            err1 = np.linalg.norm(transfer_eval(dec.alpha1, z) - transfer_eval(beta1, z), 2)
            worst_tf = max(worst_tf, err2, err1)
            assert err2 < 1e-8 and err1 < 1e-8, f"pair {i}"
        q = dec.state_basis
        rebuilt = cascade(dec.alpha2, dec.alpha1)
        for k in range(n):
            errs = (
                np.linalg.norm(q @ rebuilt.a[k] @ q.conj().T - combined.a[k], 2),
                np.linalg.norm(q @ rebuilt.b[k] - combined.b[k], 2),
                np.linalg.norm(rebuilt.c[k] @ q.conj().T - combined.c[k], 2),
            )
            worst_pencil = max(worst_pencil, *errs)
            assert max(errs) < 1e-9, f"pair {i}, block {k}"
    conclude(3, "cascade/decompose round trip",
             f"worst transfer {worst_tf:.3e}, worst pencil {worst_pencil:.3e}")


def test_criterion_04_condition_ii_reduction():
    instances = []
    rng = np.random.default_rng(400)
    # cascade-block subspaces (positive instances)
    for i, (alpha2, alpha1) in enumerate(conservative_pairs(60, 400)):
        combined = cascade(alpha2, alpha1)
        instances.append((combined, coordinate_block(combined.dim_x, alpha2.dim_x)))
    # x2 = {0} and x2 = whole space on random conservative systems
    for i in range(80):
        n = 1 + i % 3
        du = int(rng.integers(1, 4))
        dx = int(rng.integers(1, 6))
        s = random_conservative(n, dx, du, du, seed=450 + i)
        instances.append((s, zero_space(dx) if i % 2 else whole_space(dx)))
    # invariant-subspace candidates of cascades (mixed outcomes)
    for i, (alpha2, alpha1) in enumerate(conservative_pairs(20, 470)):
        combined = cascade(alpha2, alpha1)
        for cand in search_candidates(combined, budget=3, seed=i):
            instances.append((combined, cand))
    instances = instances[:200]
    assert len(instances) == 200
    holds_count = 0
    for i, (s, x2) in enumerate(instances):
        verdict = check_condition_ii(s, x2).holds
        oracle = condition_ii_oracle(s, x2, n_points=50)
        assert verdict == oracle, f"instance {i}: rank {verdict}, oracle {oracle}"
        holds_count += verdict
    conclude(4, "condition (ii) reduction",
             f"200/200 agree with the sampled oracle ({holds_count} hold)")


def test_criterion_05_left_right_factorization():
    rng = np.random.default_rng(500)
    systems = []
    # conservative draws: multiplicity 1 as-is, 2 with D zeroed
    for i in range(25):
        n = 1 + i % 3
        du = int(rng.integers(1, 4))
        s = random_conservative(n, int(rng.integers(1, 5)), du, du, seed=500 + i)
        systems.append((s, 1))
        systems.append((zero_d(s), 2))
    # germ realizations with prescribed lowest degree m
    for i in range(50):
        n = 1 + i % 3
        m = 1 + i % 3
        coeffs = {}
        while not any(sum(t) == m for t in coeffs):
            coeffs = {}
            for _ in range(4):
                t = tuple(int(x) for x in rng.integers(0, m + 2, n))
                if m <= sum(t) <= m + 1:
                    coeffs[t] = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        systems.append((realize_germ(PolyGerm(n, 2, 2, coeffs)), m))
    systems = systems[:100]
    assert len(systems) == 100
    assert {m for _, m in systems} == {1, 2, 3}
    worst = 0.0
    for i, (s, m) in enumerate(systems):
        chain, tail = factor_left(s, m)
        psi, rchain = factor_right(s, m)
        for z in sample_polydisk(s.n_params, 20, 0.4, seed=i):
            theta = transfer_eval(s, z)
            left_err = np.linalg.norm(theta - chain_eval(chain, z) @ tail_eval(tail, z), 2)
            right_err = np.linalg.norm(theta - tail_eval(psi, z) @ chain_eval(rchain, z), 2)
            worst = max(worst, left_err, right_err)
            assert left_err < 1e-9 and right_err < 1e-9, f"system {i} (m={m})"
    conclude(5, "left/right factorization", f"worst residual {worst:.3e} over 100 systems")


def test_criterion_06_homogeneous_factorization():
    worst_coeff, worst_norm = 0.0, 0.0
    count = 0
    for i in range(30):
        n = 1 + i % 3
        m = 1 + (i // 3) % 3
        du = 2 + i % 2
        s = homogeneous_conservative(n, m, du, seed=600 + 10 * i)
        chain, _ = factor_homogeneous(s)
        assert chain.length == m, f"system {i}"
        produced = chain_to_germ(chain)
        expected = taylor_coefficients(s, m)
        for t in set(produced.coeffs) | set(expected.coeffs):
            err = np.linalg.norm(
                produced.coeffs.get(t, np.zeros((du, du)))
                - expected.coeffs.get(t, np.zeros((du, du)))
            )
            worst_coeff = max(worst_coeff, err)
            assert err < 1e-10, f"system {i}, index {t}"
        for factor in chain.factors:
            norm = max(
                np.linalg.norm(combine(factor, zeta), 2)
                for zeta in sample_torus(n, 100, seed=i)
            )
            worst_norm = max(worst_norm, norm)
            assert norm <= 1.0 + 1e-8, f"system {i}: factor norm {norm:.12f}"
        count += 1
    conclude(6, "homogeneous factorization",
             f"{count} systems; worst coefficient error {worst_coeff:.3e}, "
             f"worst factor norm {worst_norm:.12f}")


def test_criterion_07_agler_falsifier():
    rng = np.random.default_rng(700)
    worst_pass = 0.0
    falsified = 0
    for i in range(100):
        n = 1 + i % 3
        dx = int(rng.integers(1, 5))
        du = int(rng.integers(1, 4))
        s = random_conservative(n, dx, du, du, seed=700 + i)
        report = agler_test(s, trials=50, r=0.9, seed=i)
        worst_pass = max(worst_pass, report.max_norm)
        assert not report.falsified, f"system {i} falsely falsified"
        assert report.max_norm <= 1.0 + 1e-8
        scaled_report = agler_test(scale_output(s, 1.5), trials=50, r=0.9, seed=i)
        assert scaled_report.falsified, f"scaled system {i} not falsified"
        assert scaled_report.witness_norm > 1.0 + 1e-8
        falsified += 1
    conclude(7, "Agler falsifier soundness",
             f"100 conservative pass (max norm {worst_pass:.6f}); "
             f"{falsified}/100 scaled versions falsified with certified witnesses")


def test_criterion_08_close_connectedness():
    pairs = conservative_pairs(100, 800)
    rng = np.random.default_rng(800)
    for i in range(20):  # adversarial pairs with embedded decoupled unitary blocks
        n = 1 + i % 3
        du = int(rng.integers(1, 4))
        inner2 = random_conservative(n, int(rng.integers(1, 4)), du, du, seed=850 + i)
        inner1 = random_conservative(n, int(rng.integers(1, 4)), du, du, seed=870 + i)
        d0 = int(rng.integers(1, 4))
        if i % 2:
            pairs.append((padded_with_unitary_block(inner2, d0, seed=i), inner1))
        else:
            pairs.append((inner2, padded_with_unitary_block(inner1, d0, seed=i)))
    for i, (alpha2, alpha1) in enumerate(pairs):
        closcon_property_check(alpha2, alpha1)  # raises on implication failure
        for s in (alpha2, alpha1, cascade(alpha2, alpha1)):
            once = restrict_to_cc(s)
            twice = restrict_to_cc(once)
            assert twice.dim_x == once.dim_x, f"pair {i}: restriction not idempotent"
    conclude(8, "close-connectedness",
             "implication holds and restrict_to_cc is idempotent on 120 pairs")


def test_criterion_09_factorization_pipeline():
    rng = np.random.default_rng(900)
    worst = 0.0
    for i in range(100):
        n = 1 + i % 3
        du = int(rng.integers(1, 4))
        alpha2 = random_conservative(n, int(rng.integers(1, 4)), du, du, seed=900 + i)
        alpha1 = random_conservative(n, int(rng.integers(1, 4)), du, du, seed=950 + i)
        acc, p_closure, inter = from_factorization(alpha2, alpha1)
        for candidate in (p_closure, inter):
            assert is_a_invariant(acc, candidate), f"pair {i}: condition (i)"
            assert check_condition_ii(acc, candidate).holds, f"pair {i}: condition (ii)"
        outcome = solve_problem2(acc, seed=i)
        assert outcome.verdict == "factored", f"pair {i}: no cascade decomposition"
        for z in sample_polydisk(n, 20, 0.5, seed=i):
            product = transfer_eval(outcome.theta2, z) @ transfer_eval(outcome.theta1, z)
            err = np.linalg.norm(transfer_eval(acc, z) - product, 2)
            worst = max(worst, err)
            assert err < 1e-9, f"pair {i}: product residual {err:.3e}"
    conclude(9, "factorization pipeline",
             f"100/100 pairs factored; worst product residual {worst:.3e}")


def test_criterion_10_cli_determinism(tmp_path):
    sys_path = tmp_path / "sys.json"
    ser.save_json(sys_path, ser.system_to_dict(random_conservative(2, 3, 2, 2, seed=1)))
    b2, b1 = tmp_path / "b2.json", tmp_path / "b1.json"
    ser.save_json(b2, ser.system_to_dict(random_conservative(2, 2, 2, 2, seed=2)))
    ser.save_json(b1, ser.system_to_dict(random_conservative(2, 2, 2, 2, seed=3)))
    commands = [
        ["generate", "conservative", "--n-params", "2", "--dim-x", "4",
         "--seed", "5", "--out", str(tmp_path / "g.json")],
        ["check", str(sys_path), "--what", "conservative"],
        ["check", str(sys_path), "--what", "dissipative", "--seed", "6"],
        ["check", str(sys_path), "--what", "multiplicity"],
        ["cascade", str(b2), str(b1), "--out", str(tmp_path / "c.json"), "--seed", "7"],
        ["factor", str(tmp_path / "c.json"), "--mode", "problem2",
         "--out-dir", str(tmp_path / "p2"), "--seed", "8"],
        ["agler", str(sys_path), "--trials", "10", "--seed", "9"],
    ]

    def capture(argv):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = cli_run(argv)
        body = "\n".join(
            ln for ln in buffer.getvalue().splitlines() if "timing_s" not in ln
        )
        return code, body

    for argv in commands:
        first = capture(argv)
        second = capture(argv)
        assert first == second, f"command {argv} not reproducible"
    conclude(10, "CLI determinism",
             f"{len(commands)} seeded commands byte-identical excluding timing")
