"""Unit tests for system construction, transfer functions, and conservativity."""

import copy
import itertools
import math
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import block_diag, lu_factor
from scipy.stats import qmc

from mpsys import factorization, systems
from mpsys.cascade import cascade
from mpsys.subspaces import Subspace, orthonormal_basis
from mpsys.systems import (
    ConservativityError,
    MultiSystem,
    PolyGerm,
    ResolventError,
    SystemShapeError,
    adjoint,
    closely_connected_subspace,
    combine,
    compress_to,
    haar_unitary,
    is_conservative,
    is_dissipative_sampled,
    pencil_blocks,
    random_conservative,
    realize_germ,
    require_conservative,
    restrict_to_cc,
    sample_torus,
    scale_output,
    taylor_coefficients,
    transfer_eval,
    unitary_part,
)
from mpsys.tolerances import RESOLVENT_COND_LIMIT, RESOLVENT_SCREEN

from pairs import (
    blockwise_adjoint,
    blockwise_compress_to,
    blockwise_realize_germ,
    blockwise_scale_output,
    counting,
    full_taylor_coefficients,
    germ_eval,
    is_closely_connected,
    same_blocks,
    svd_guarded,
    taylor_test_systems,
)


def random_system(rng, n, dx, du, dy, scale=0.4):
    def block(rows, cols):
        return scale * (rng.standard_normal((rows, cols))
                        + 1j * rng.standard_normal((rows, cols)))
    return MultiSystem(
        a=[block(dx, dx) for _ in range(n)],
        b=[block(dx, du) for _ in range(n)],
        c=[block(dy, dx) for _ in range(n)],
        d=[block(dy, du) for _ in range(n)],
    )


def torus_unitarity_residual(s, n_points=100, seed=0):
    """Sampling oracle: worst deviation of the pencil from unitarity on T^N."""
    gs = pencil_blocks(s)
    eye_in = np.eye(s.dim_x + s.dim_u)
    eye_out = np.eye(s.dim_x + s.dim_y)
    worst = 0.0
    for zeta in sample_torus(s.n_params, n_points, seed):
        g = combine(gs, zeta)
        worst = max(worst, np.linalg.norm(g.conj().T @ g - eye_in, 2))
        worst = max(worst, np.linalg.norm(g @ g.conj().T - eye_out, 2))
    return worst


def assert_stack_is_per_point(evaluate, f, points):
    """A (P, N) stack gives the per-point values, stacked along axis 0."""
    per_point = np.stack([evaluate(f, z) for z in points])
    np.testing.assert_allclose(evaluate(f, points), per_point, rtol=0, atol=1e-14)


def test_validate_catches_shape_mismatch():
    good = random_system(np.random.default_rng(0), 2, 3, 2, 2)
    with pytest.raises(SystemShapeError, match="b\\[1\\]"):
        MultiSystem(a=good.a, b=(good.b[0], good.b[1][:, :1]), c=good.c, d=good.d)


def test_validate_catches_length_mismatch():
    good = random_system(np.random.default_rng(0), 2, 3, 2, 2)
    with pytest.raises(SystemShapeError, match="c-list"):
        MultiSystem(a=good.a, b=good.b, c=good.c[:1], d=good.d)


@pytest.mark.parametrize("block", [complex(np.nan, 0.0), complex(0.0, np.inf)])
def test_validate_rejects_a_non_finite_real_or_imaginary_part(block):
    bad = np.eye(2, dtype=complex)
    bad[1, 0] = block
    with pytest.raises(SystemShapeError, match=r"a\[1\] has non-finite entries"):
        MultiSystem(a=[np.eye(2), bad], b=[np.ones((2, 1))] * 2,
                    c=[np.ones((1, 2))] * 2, d=[np.zeros((1, 1))] * 2)


@pytest.mark.parametrize("entry", [complex(np.nan, 0.0), complex(np.inf, 0.0),
                                   complex(0.0, np.nan), complex(0.0, -np.inf)])
def test_germ_rejects_a_non_finite_coefficient(entry):
    bad = np.zeros((1, 2), dtype=complex)
    bad[0, 1] = entry
    with pytest.raises(SystemShapeError, match=r"coefficient at \(1, 1\) has non-finite entries"):
        PolyGerm(2, 2, 1, {(1, 0): np.ones((1, 2)), (1, 1): bad})


def test_blocks_are_read_only_copies():
    rng = np.random.default_rng(0)
    a0 = rng.standard_normal((3, 3)) + 0j  # already complex: a view would share it
    s = MultiSystem(a=[a0], b=[np.ones((3, 1))], c=[np.ones((1, 3))], d=[np.zeros((1, 1))])
    with pytest.raises(ValueError):
        s.a[0][0, 0] = 1.0
    before = s.a[0].copy()
    a0[0, 0] += 1.0
    np.testing.assert_array_equal(s.a[0], before)


def test_blocks_are_read_only_views_of_the_stored_pencil():
    rng = np.random.default_rng(1)
    for s in (random_system(rng, 2, 3, 2, 1), random_system(rng, 2, 0, 2, 1),
              random_conservative(3, 4, 2, 2, seed=1), realize_germ(GERMS[2])):
        g = pencil_blocks(s)
        assert pencil_blocks(s) is g and not g.flags.writeable
        with pytest.raises(ValueError):
            g[...] = 0.0
        for blocks in (s.a, s.b, s.c, s.d):
            assert isinstance(blocks, tuple) and len(blocks) == s.n_params
            for m in blocks:
                assert m.size == 0 or np.shares_memory(m, g)
                with pytest.raises(ValueError):
                    m[...] = 0.0


def test_from_pencil_adopts_a_copy_of_its_input():
    g = np.array(pencil_blocks(random_conservative(2, 3, 2, 2, seed=2)))
    before = g.copy()
    s = systems._from_pencil(g, 3)
    assert not np.shares_memory(pencil_blocks(s), g) and g.flags.writeable
    g[...] = 0.0
    assert pencil_blocks(s).tobytes() == before.tobytes()


def test_pickled_and_copied_systems_keep_read_only_views_of_one_stack():
    s = random_conservative(2, 3, 2, 2, seed=1)
    for t in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s), copy.copy(s)):
        g = pencil_blocks(t)
        assert not g.flags.writeable and not np.shares_memory(g, pencil_blocks(s))
        assert g.tobytes() == pencil_blocks(s).tobytes() and same_blocks(t, s)
        for m in (*t.a, *t.b, *t.c, *t.d):
            assert np.shares_memory(m, g) and not m.flags.writeable


def test_scale_output_and_adjoint_leave_their_input_unchanged():
    s = random_conservative(2, 3, 2, 2, seed=3)
    before = pencil_blocks(s).copy()
    for t in (scale_output(s, 0.5j), adjoint(s), scale_output(s, 1.0)):
        assert not np.shares_memory(pencil_blocks(t), pencil_blocks(s))
    assert pencil_blocks(s).tobytes() == before.tobytes()


def two_draw_haar_unitary(n, rng):
    """Oracle: one Haar unitary from its own two draws and its own QR."""
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    return q * (phases / np.abs(phases))


def two_draw_random_conservative(n_params, dim_x, dim_u, seed):
    """Oracle: the pencil of ``random_conservative`` built from two
    ``two_draw_haar_unitary`` calls, W and then V."""
    rng = np.random.default_rng(seed)
    n = dim_x + dim_u
    w = two_draw_haar_unitary(n, rng)
    v = two_draw_haar_unitary(n, rng)
    if n >= n_params:
        sizes = 1 + rng.multinomial(n - n_params, np.full(n_params, 1.0 / n_params))
    else:
        sizes = rng.multinomial(n, np.full(n_params, 1.0 / n_params))
    ends = np.cumsum(sizes)
    g = np.empty((n_params, n, n), dtype=complex)
    for k in range(n_params):
        cols = v[:, ends[k] - sizes[k]:ends[k]]
        g[k] = cols @ (cols.conj().T @ w)
    return g


# (n_params, dim_x, dim_u): n_params > dim_x + dim_u in the last three, dim_x = 0 in three
@pytest.mark.parametrize("shape", [(1, 4, 2), (2, 8, 4), (3, 6, 3), (2, 0, 2), (1, 3, 1),
                                   (4, 1, 1), (5, 0, 2), (3, 0, 0)])
def test_random_conservative_matches_the_two_draw_construction(shape):
    n_params, dim_x, dim_u = shape
    for seed in range(100):
        s = random_conservative(n_params, dim_x, dim_u, dim_u, seed=seed)
        assert s.dim_x == dim_x
        oracle = two_draw_random_conservative(n_params, dim_x, dim_u, seed)
        assert pencil_blocks(s).tobytes() == oracle.tobytes(), (shape, seed)


def test_haar_unitary_matches_the_two_draw_construction():
    for n in (0, 1, 2, 5, 9):
        for seed in range(20):
            q = haar_unitary(n, np.random.default_rng(seed))
            assert q.tobytes() == two_draw_haar_unitary(n, np.random.default_rng(seed)).tobytes()


def test_germ_keeps_its_error_messages_and_drops_exact_zeros():
    for coeffs, message in (
            ({(1, -1): [[1.0]]}, r"^bad multi-index \(1, -1\) for n_params=2$"),
            ({(1,): [[1.0]]}, r"^bad multi-index \(1,\) for n_params=2$"),
            ({(1, 0): np.ones((1, 1)), (0, 1): np.ones((2, 1))},
             r"^coefficient at \(0, 1\) has shape \(2, 1\), expected \(1, 1\)$"),
            ({(1, 0): [[1.0]], (0, 1): [[np.nan]], (1, 1): [[np.inf]]},
             r"^coefficient at \(0, 1\) has non-finite entries$")):
        with pytest.raises(SystemShapeError, match=message):
            PolyGerm(2, 1, 1, coeffs)
    germ = PolyGerm(2, 2, 1, {(1, 0): np.zeros((1, 2)), (0, 1): [[1.0, 0.0]],
                              (2, 0): [[-0.0, 0.0]], (1, 1): [[0.0, 1e-170j]],
                              (0, 2): np.zeros((1, 2), dtype=complex)})
    assert list(germ.coeffs) == [(0, 1), (1, 1)]
    assert germ.coeffs[(1, 1)][0, 1] == 1e-170j
    assert PolyGerm(2, 1, 1, {}).coeffs == {}
    assert PolyGerm(1, 0, 2, {(1,): np.zeros((2, 0))}).coeffs == {}


def test_transfer_vanishes_at_origin():
    rng = np.random.default_rng(1)
    for n in (1, 2, 3):
        s = random_system(rng, n, 4, 2, 2)
        assert np.linalg.norm(transfer_eval(s, np.zeros(n))) == 0.0


def test_stateless_transfer_is_zd():
    rng = np.random.default_rng(2)
    s = random_system(rng, 2, 0, 2, 3)
    z = np.array([0.3 + 0.1j, -0.2j])
    np.testing.assert_allclose(transfer_eval(s, z), combine(s.d, z))
    assert_stack_is_per_point(transfer_eval, s, np.array([z, 2 * z, -z]))


def test_transfer_matches_neumann_series():
    # independent oracle: theta(z) = zD + sum_j zC (zA)^j zB
    rng = np.random.default_rng(3)
    s = random_system(rng, 2, 4, 2, 2, scale=0.3)
    z = np.array([0.2 + 0.1j, 0.15 - 0.05j])
    za, zb = combine(s.a, z), combine(s.b, z)
    zc, zd = combine(s.c, z), combine(s.d, z)
    series = zd.astype(complex)
    term = zb
    for _ in range(300):
        series += zc @ term
        term = za @ term
    np.testing.assert_allclose(transfer_eval(s, z), series, atol=1e-12)


def test_transfer_raises_on_singular_resolvent():
    s = MultiSystem(a=[np.eye(2)], b=[np.eye(2)], c=[np.eye(2)], d=[np.zeros((2, 2))])
    with pytest.raises(ResolventError):
        transfer_eval(s, [1.0])
    # positive control for the batch: only the third point is singular
    assert transfer_eval(s, [[0.1], [0.2], [0.3], [0.4]]).shape == (4, 2, 2)
    with pytest.raises(ResolventError, match=r"at point 2 .*condition estimate inf"):
        transfer_eval(s, [[0.1], [0.2], [1.0], [0.3], [0.4]])
    # a non-finite point is reported at its index as well
    with pytest.raises(ResolventError, match=r"at point 1 .*condition estimate nan"):
        transfer_eval(s, [[0.1], [np.nan], [0.3], [1.0]])
    with pytest.raises(ResolventError, match=r"at point 0 .*condition estimate nan"):
        transfer_eval(s, [np.nan])


def reference_transfer_eval(s, z):
    """transfer_eval guarded by the SVD condition number of every point alone:
    zA, ..., zD sliced out of one zG, the solve on the narrower side."""
    z = np.asarray(z, dtype=complex)
    dx = s.dim_x
    zg = combine(pencil_blocks(s), z)
    za, zb, zc, zd = zg[..., :dx, :dx], zg[..., :dx, dx:], zg[..., dx:, :dx], zg[..., dx:, dx:]
    if dx == 0:
        return zd
    resolvent_arg = np.eye(dx) - za
    cond = np.atleast_1d(np.linalg.cond(resolvent_arg))
    bad = np.flatnonzero(~(cond <= RESOLVENT_COND_LIMIT))
    if bad.size:
        i = bad[0]
        raise ResolventError(
            f"I - zA is near-singular at point {i} "
            f"(z = {np.atleast_2d(z)[i]}, condition estimate {cond[i]:.3e})"
        )
    if s.dim_u > s.dim_y:  # zC (I - zA)^(-1) first, from the transposed solve
        left = np.linalg.solve(resolvent_arg.swapaxes(-1, -2), zc.swapaxes(-1, -2))
        return zd + left.swapaxes(-1, -2) @ zb
    return zd + zc @ np.linalg.solve(resolvent_arg, zb)


def evaluation_outcome(evaluate, s, z, signed_zeros=True):
    """The value's bytes, with -0 read as +0 unless ``signed_zeros``, or the
    ResolventError message."""
    try:
        value = evaluate(s, z)
    except ResolventError as exc:
        return "raised", str(exc)
    return value.shape, (value if signed_zeros else value + 0.0).tobytes()


def matrix_with_singular_values(rng, sv):
    n = len(sv)
    return (haar_unitary(n, rng) * sv) @ haar_unitary(n, rng).conj().T


def resolvent_stack(s, z):
    """M = zA - I at each point of ``z``, as ``transfer_eval`` forms it:
    the X block of one ``combine`` with its diagonal decreased by 1."""
    m = combine(pencil_blocks(s), z)[..., :s.dim_x, :s.dim_x]
    np.einsum("...ii->...i", m)[...] -= 1.0
    return m.reshape(-1, s.dim_x, s.dim_x)


def as_bytes(matrices):
    return [m.tobytes() for m in matrices]


def test_transfer_eval_matches_the_svd_guard_bit_for_bit(monkeypatch):
    # Random systems and points, some placed on or next to the singular set
    # of I - zA: values and ResolventError messages must be those of the
    # SVD guard alone, and exactly the points the row-Gram norm bound
    # leaves must reach the SVD.  Each path (stateless, every point
    # certified, some certified and the rest to the SVD, every point to the
    # SVD, rejected) must be taken.
    rng = np.random.default_rng(41)
    sent = svd_guarded(monkeypatch)
    paths = dict.fromkeys(("stateless", "all certified", "partly certified", "all to the svd",
                           "rejected"), 0)
    for trial in range(120):
        n, dx = int(rng.integers(1, 4)), int(rng.integers(0, 25))
        s = random_system(rng, n, dx, int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                          scale=rng.uniform(0.05, 0.5))
        p = int(rng.integers(1, 9))
        z = rng.uniform(0.0, 1.0, (p, n)) * np.exp(2j * np.pi * rng.uniform(size=(p, n)))
        if dx and trial % 2:
            # eigenvalue 1 of zA at one point, shifted by 0 (singular) or by
            # a small amount (ill conditioned, still accepted)
            lam = np.linalg.eigvals(combine(s.a, z[0]))
            lam = lam[np.argmax(np.abs(lam))]
            z[int(rng.integers(p))] = z[0] / lam * (1.0 + rng.choice([0.0, 1e-6, 1e-9]))
        if trial % 5 == 0:
            z = z[0]
        expected = evaluation_outcome(reference_transfer_eval, s, z)
        sent.clear()
        assert evaluation_outcome(transfer_eval, s, z) == expected
        if dx == 0:
            assert not sent
            paths["stateless"] += 1
            continue
        certified = np.atleast_1d(systems._norm_certified(s, z))
        assert as_bytes(sent) == as_bytes(resolvent_stack(s, z)[~certified])
        if expected[0] == "raised":
            paths["rejected"] += 1
        elif certified.all():
            paths["all certified"] += 1
        elif certified.any():
            paths["partly certified"] += 1
        else:
            paths["all to the svd"] += 1
    assert min(paths.values()) > 0, paths


def test_an_ill_conditioned_point_falls_back_to_the_svd_with_the_same_values(monkeypatch):
    # I - zA at z = 1 has condition about 1e8: the norm bound leaves that
    # point and the others beyond it to the SVD, which accepts them, and the
    # values are those of the SVD guard alone
    rng = np.random.default_rng(31)
    m = matrix_with_singular_values(rng, np.geomspace(1.0, 1e-8, 6))
    s = MultiSystem(a=[np.eye(6) - m], b=[rng.standard_normal((6, 2))],
                    c=[rng.standard_normal((2, 6))], d=[np.zeros((2, 2))])
    points = np.array([[0.1], [0.5j], [1.0], [-0.3]])
    assert 1e7 < np.linalg.cond(np.eye(6) - combine(s.a, points[2])) < 1e9
    certified = systems._norm_certified(s, points)
    assert certified[0] and not certified[2]
    expected = reference_transfer_eval(s, points).tobytes()
    sent = svd_guarded(monkeypatch)
    assert transfer_eval(s, points).tobytes() == expected
    assert as_bytes(sent) == as_bytes(resolvent_stack(s, points)[~certified])


def test_only_the_points_the_bound_leaves_reach_the_svd(monkeypatch):
    # Positive controls for the per-point guard on one system, A = I - W
    # with cond(W) about 1e13: points up to 0.2 are certified, 0.95 is not
    # (I - zA has condition about 125), and at z = 1 I - zA = W is rejected.
    # A rejected point is named by its index in the whole stack, with its
    # own condition estimate, also when certified points come before it and
    # another uncertified point is accepted first; a non-finite point is
    # rejected at its own index with condition nan; a single point of
    # shape (N,) takes the same path.
    rng = np.random.default_rng(37)
    w = matrix_with_singular_values(rng, np.geomspace(1.0, 1e-13, 6))
    s = MultiSystem(a=[np.eye(6) - w], b=[0.5 * rng.standard_normal((6, 2))],
                    c=[rng.standard_normal((2, 6))], d=[np.zeros((2, 2))])
    points = np.array([[0.1], [0.95], [0.2], [1.0], [-0.1]])
    assert systems._norm_certified(s, points).tolist() == [True, False, True, False, True]
    m = resolvent_stack(s, points)
    cond_at_1 = np.linalg.cond(m[3])
    assert cond_at_1 > RESOLVENT_COND_LIMIT and np.linalg.cond(m[1]) < 1e3
    sent = svd_guarded(monkeypatch)

    def guarded(z):
        """transfer_eval's outcome at z, checked against the SVD guard's
        where the reference's SVD converges, and the matrices it sent."""
        expected = evaluation_outcome(reference_transfer_eval, s, z) if np.isfinite(z).all() \
            else None
        sent.clear()
        outcome = evaluation_outcome(transfer_eval, s, z)
        assert expected in (None, outcome)
        return outcome, as_bytes(sent)

    assert guarded(points[[0, 2, 4]])[1] == []
    assert guarded(points[:3])[1] == as_bytes(m[[1]])
    (kind, message), matrices = guarded(points)
    assert kind == "raised" and matrices == as_bytes(m[[1, 3]])
    own_estimate = f"condition estimate {cond_at_1:.3e})"
    assert "at point 3 " in message and message.endswith(own_estimate), message
    for bad in (np.nan, np.inf):
        with np.errstate(invalid="ignore"):  # inf * 0 in zG
            (kind, message), matrices = guarded(np.array([[0.1], [0.95], [bad], [1.0]]))
        assert kind == "raised" and matrices == as_bytes(m[[1, 3]])  # nan without an SVD
        assert "at point 2 " in message and message.endswith("estimate nan)"), message
    assert guarded(points[0])[1] == []
    assert guarded(points[1])[1] == as_bytes(m[[1]])
    (kind, message), matrices = guarded(points[3])
    assert kind == "raised" and matrices == as_bytes(m[[3]])
    assert "at point 0 " in message and message.endswith(own_estimate), message
    (kind, message), _ = guarded(np.array([np.nan]))
    assert kind == "raised" and "at point 0 " in message and message.endswith("estimate nan)")


def structured_systems():
    """Systems with exact zero blocks, as the eval workload builds them: a
    cascade of two conservative systems (D = 0, A block triangular), the
    vanishing parts of its left tail (solved with dim_u right-hand sides)
    and right tail (dim_u > dim_y, the transposed solve), and realized
    germs of both shapes."""
    rng = np.random.default_rng(61)
    for n in (1, 2, 3):
        c = cascade(random_conservative(n, 4, 2, 2, seed=n),
                    random_conservative(n, 5, 2, 2, seed=10 + n))
        m = factorization.multiplicity(c, 8)
        yield c
        yield factorization.factor_left(c, m)[1].vanishing_part
        yield factorization.factor_right(c, m)[0].vanishing_part
        for du, dy in ((1, 2), (3, 1)):
            coeffs = {t: rng.standard_normal((dy, du)) + 1j * rng.standard_normal((dy, du))
                      for t in itertools.product(range(4), repeat=n)
                      if 1 <= sum(t) <= 3 and (sum(t) == 3 or rng.uniform() < 0.5)}
            yield realize_germ(PolyGerm(n, du, dy, coeffs))


def test_structured_systems_match_the_svd_guard_up_to_the_sign_of_zero():
    # transfer_eval solves with zA - I, whose exact zeros are zA's; the
    # reference solves with I - zA, whose are all +0.  On systems with exact
    # zero blocks, at points with exact zero and negative parts, for single
    # points and stacks and on both sides of the solve, every value must be
    # the reference's, byte for byte once -0 is read as +0 (x + 0.0 changes
    # no other bits).  A sign of zero does differ: at z = 0 a realized germ
    # can give -0 where the reference gives +0, because an exact
    # cancellation rounds to +0 whatever the signs of its operands.
    rng = np.random.default_rng(62)
    sides, zero_entries = set(), 0
    for s in structured_systems():
        n = s.n_params
        z = 0.9 * rng.uniform(0.0, 1.0, (6, n)) * np.exp(2j * np.pi * rng.uniform(size=(6, n)))
        z[0] = 0.0
        z[1, 0], z[2] = -0.5, 0.4j
        for points in (z, *z):
            value, expected = transfer_eval(s, points), reference_transfer_eval(s, points)
            assert value.shape == expected.shape
            assert (value + 0.0).tobytes() == (expected + 0.0).tobytes(), (n, s.dim_x)
        za = combine(s.a, z[1:])
        zero_entries += np.count_nonzero(za[:, ~np.eye(s.dim_x, dtype=bool)] == 0)
        sides.add(s.dim_u > s.dim_y)
    assert sides == {False, True} and zero_entries > 0


def test_the_solve_is_sign_symmetric_bit_for_bit():
    # The property transfer_eval rests on: partial pivoting picks the same
    # rows of -M as of M (by modulus) with the same multipliers, so
    # solve(-M, B) = -solve(M, B) exactly.  The diagonal is scaled down so
    # that every factorization swaps rows; the matrices are strided views,
    # as in transfer_eval, and their transposes are the dim_u > dim_y branch.
    rng = np.random.default_rng(63)
    for n, p, k in ((2, 1, 1), (3, 5, 2), (8, 4, 3), (20, 6, 1), (24, 3, 4)):
        g = rng.standard_normal((p, n + k, n + k)) + 1j * rng.standard_normal((p, n + k, n + k))
        np.einsum("...ii->...i", g)[...] *= 1e-3
        m, b = g[:, :n, :n], g[:, :n, n:]
        assert all((lu_factor(x)[1] != np.arange(n)).any() for x in m)
        for a in (m, m.swapaxes(-1, -2)):
            assert np.linalg.solve(-a, b).tobytes() == (-np.linalg.solve(a, b)).tobytes()
            assert np.linalg.solve(-a[0], b[0]).tobytes() == \
                (-np.linalg.solve(a[0], b[0])).tobytes()


def test_conservative_stacks_send_no_point_to_the_svd(monkeypatch):
    # a conservative pencil, and one whose output rows are scaled, has h = 1
    # and c = 0: max_k |z_k| <= 0.99 certifies every point, whatever N is
    rng = np.random.default_rng(43)
    sent = svd_guarded(monkeypatch)
    shapes = itertools.product((1, 2, 3), ((1, 1), (4, 2), (12, 3), (20, 4)))
    for seed, (n, (dx, du)) in enumerate(shapes):
        s = random_conservative(n, dx, du, du, seed=seed)
        z = rng.uniform(0.0, 0.99, (100, n)) * np.exp(2j * np.pi * rng.uniform(size=(100, n)))
        for t in (s, scale_output(s, 1.5)):
            for points in (z, z[0]):
                expected = reference_transfer_eval(t, points).tobytes()
                sent.clear()
                assert transfer_eval(t, points).tobytes() == expected
                assert not sent


def test_one_parameter_points_beyond_the_norm_bound_reach_the_svd(monkeypatch):
    # beta = r |z| above the limit 1 - 2 tau (less rounding) at one point of
    # the stack: the bound certifies the others, that point alone reaches
    # the SVD, and the values are the SVD guard's
    s = random_conservative(1, 6, 2, 2, seed=4)
    beta_one = 1.0 / systems._row_gram_constants(s)[0]  # |z| at which beta = 1
    points = np.array([[0.2], [0.5j], [-0.3]])
    sent = svd_guarded(monkeypatch)
    expected = reference_transfer_eval(s, points).tobytes()
    sent.clear()
    assert transfer_eval(s, points).tobytes() == expected
    assert not sent
    for modulus in (1.0 - 1.5 * RESOLVENT_SCREEN, 1.0, 1.01):
        stack = np.vstack([points, [[modulus * beta_one * 1j]]])
        assert systems._norm_certified(s, stack).tolist() == [True, True, True, False]
        expected = evaluation_outcome(reference_transfer_eval, s, stack)
        sent.clear()
        assert evaluation_outcome(transfer_eval, s, stack) == expected
        assert as_bytes(sent) == as_bytes(resolvent_stack(s, stack)[3:])
    for bad in (np.nan, np.inf):
        certified = systems._norm_certified(s, np.vstack([points, [[bad]]]))
        assert certified.tolist() == [True, True, True, False]


def row_gram_bound(s, z):
    """Oracle: sqrt(m^2 h + sum_{j<k} 2 |z_j| |z_k| c_jk) at each point,
    from unscaled products of the X rows R_k = [A_k B_k]."""
    rows = pencil_blocks(s)[:, :s.dim_x]
    h = np.abs(sum(r @ r.conj().T for r in rows)).sum(1).max()
    moduli = np.abs(np.atleast_2d(z))
    square = moduli.max(1) ** 2 * h
    for j, k in itertools.combinations(range(s.n_params), 2):
        square += 2 * moduli[:, j] * moduli[:, k] * np.linalg.norm(rows[j] @ rows[k].conj().T)
    return np.sqrt(square)


def test_norm_certificate_is_sound_and_exactly_the_row_gram_bound(monkeypatch):
    # Property: whenever the bound certifies a point, the SVD condition of
    # the formed I - zA is at most (1 - tau) / tau.  Systems: random at
    # scales 0.01-2, conservative, and conservative perturbed by 1e-6 to
    # 1e-2; each point is scaled so that the oracle bound is (1 - 2 tau)
    # (1 + eps), |eps| <= 1e-3: certified exactly when eps < 0.
    tau = RESOLVENT_SCREEN
    rng = np.random.default_rng(47)
    certified = refused = 0
    worst = 0.0
    for trial in range(450):
        n, dx, du = int(rng.integers(1, 4)), int(rng.integers(1, 13)), int(rng.integers(1, 4))
        if trial % 3 == 0:
            s = random_system(rng, n, dx, du, du, scale=rng.uniform(0.01, 2.0))
        else:
            s = random_conservative(n, dx, du, du, seed=trial)
            if trial % 3 == 2:
                g = pencil_blocks(s)
                noise = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
                s = systems._from_pencil(g + 10.0 ** rng.uniform(-6, -2) * noise, dx)
        direction = rng.uniform(0.0, 1.0, (6, n)) * np.exp(2j * np.pi * rng.uniform(size=(6, n)))
        eps = rng.choice([-1.0, 1.0], 6) * 10.0 ** rng.uniform(-8, -3, 6)
        z = direction * ((1.0 - 2.0 * tau) * (1.0 + eps) / row_gram_bound(s, direction))[:, None]
        for point, e in zip(z, eps):
            ok = systems._norm_certified(s, point)
            assert ok == (e < 0), (trial, e)
            if ok:
                cond = np.linalg.cond(np.eye(dx) - combine(pencil_blocks(s), point)[:dx, :dx])
                assert cond <= (1.0 - tau) / tau, (trial, cond)
                worst = max(worst, cond * tau / (1.0 - tau))
            certified += ok
            refused += not ok
        assert systems._norm_certified(s, z).tolist() == (eps < 0).tolist()
    assert certified > 1000 and refused > 1000 and worst < 0.1, (certified, refused, worst)
    # positive control: G_1 = G_2 = G / sqrt(2), G unitary, dim_x = 4, has
    # h = 1 and c_12 = ||I / 2||_F = 1, so at z = (0.9, 0.9) the bound is
    # 0.9 sqrt(3) > 1: the point reaches the SVD and the outcome is the SVD
    # guard's
    w = haar_unitary(6, np.random.default_rng(5)) / np.sqrt(2.0)
    s = systems._from_pencil(np.stack([w, w]), 4)
    point = np.array([0.9, 0.9])
    assert row_gram_bound(s, point)[0] == pytest.approx(0.9 * np.sqrt(3.0))
    assert not systems._norm_certified(s, point)
    expected = evaluation_outcome(reference_transfer_eval, s, point)
    sent = svd_guarded(monkeypatch)
    assert evaluation_outcome(transfer_eval, s, point) == expected
    assert as_bytes(sent) == as_bytes(resolvent_stack(s, point))


def test_derived_systems_inherit_a_sound_norm_certificate(monkeypatch):
    # Property: the adjoint, the output scalings by 0.5 and 1.5, and the
    # tails of factor_left and factor_right take the row-Gram constants of
    # the system they come from and compute none of their own; wherever
    # _norm_certified accepts a point for such a derived system, the SVD
    # condition of its own formed I - zA is at most (1 - tau) / tau, and its
    # values and errors are the SVD guard's bit for bit (the tails' zero
    # blocks up to the sign of an exact zero, as in
    # test_structured_systems_match_the_svd_guard_up_to_the_sign_of_zero;
    # x + 0.0 changes no other bits).  Systems: random
    # at scales 0.01-2 and conservative, N = 1-3; each point is scaled so
    # that the source's oracle bound is (1 - 2 tau) (1 + eps), |eps| <= 1e-3.
    tau = RESOLVENT_SCREEN
    rng = np.random.default_rng(71)
    computed = []
    monkeypatch.setattr(systems, "_row_gram_constants",
                        counting(systems._row_gram_constants, computed))
    certified = refused = 0
    for trial in range(60):
        n, dx, du = int(rng.integers(1, 4)), int(rng.integers(1, 9)), int(rng.integers(1, 4))
        if trial % 2:
            s = random_system(rng, n, dx, du, int(rng.integers(1, 4)),
                              scale=rng.uniform(0.01, 2.0))
        else:
            s = random_conservative(n, dx, du, du, seed=trial)
        m = factorization.multiplicity(s, 8)
        constants = systems._kept_row_gram(s)
        computed.clear()
        derived = (adjoint(s), scale_output(s, 0.5), scale_output(s, 1.5),
                   factorization.factor_left(s, m)[1].vanishing_part,
                   factorization.factor_right(s, m)[0].vanishing_part)
        direction = rng.uniform(0.0, 1.0, (6, n)) * np.exp(2j * np.pi * rng.uniform(size=(6, n)))
        eps = rng.choice([-1.0, 1.0], 6) * 10.0 ** rng.uniform(-8, -3, 6)
        z = direction * ((1.0 - 2.0 * tau) * (1.0 + eps) / row_gram_bound(s, direction))[:, None]
        for t, signed_zeros in zip(derived, (True, True, True, False, False)):
            assert systems._kept_row_gram(t) is constants
            assert systems._norm_certified(t, z).tolist() == (eps < 0).tolist()
            for point in z[eps < 0]:
                cond = np.linalg.cond(np.eye(dx) - combine(pencil_blocks(t), point)[:dx, :dx])
                assert cond <= (1.0 - tau) / tau, (trial, cond)
            for points in (z, *z):
                expected = evaluation_outcome(reference_transfer_eval, t, points, signed_zeros)
                assert evaluation_outcome(transfer_eval, t, points, signed_zeros) == expected
            certified += np.count_nonzero(eps < 0)
            refused += np.count_nonzero(eps > 0)
        assert computed == []
    assert certified > 500 and refused > 500, (certified, refused)


def test_pickled_and_copied_systems_compute_the_row_gram_constants_again():
    s = random_conservative(3, 4, 2, 2, seed=8)
    z = 0.5 * sample_torus(3, 10, seed=1)
    assert s._row_gram is None
    transfer_eval(s, z)
    kept = s._row_gram
    assert len(kept) == 2 + 3 and all(type(x) is float for x in kept)
    for t in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s), copy.copy(s)):
        assert t._row_gram is None
        transfer_eval(t, z)
        assert np.array(t._row_gram).tobytes() == np.array(kept).tobytes()


def test_transfer_eval_keeps_its_constants_without_validating_again(monkeypatch):
    validated, computed = [], []
    monkeypatch.setattr(systems, "validate", counting(systems.validate, validated))
    monkeypatch.setattr(systems, "_row_gram_constants",
                        counting(systems._row_gram_constants, computed))
    s = random_conservative(2, 3, 2, 2, seed=9)
    for z in (0.5 * sample_torus(2, 20, seed=2), [0.1, 0.2j], [0.3, -0.4]):
        transfer_eval(s, z)
    assert len(validated) == 1 and len(computed) == 1


def test_evaluators_reject_points_of_the_wrong_length():
    rng = np.random.default_rng(15)
    s = random_system(rng, 2, 3, 2, 2)
    germ = taylor_coefficients(s, 3)
    for points in (np.zeros(3), np.zeros((4, 3)), np.zeros((4, 1)), np.zeros((2, 4, 2))):
        with pytest.raises(SystemShapeError):
            transfer_eval(s, points)
        with pytest.raises(SystemShapeError):
            germ_eval(germ, points)
        with pytest.raises(SystemShapeError):
            combine(s.a, points)


def test_pencil_shape_and_linearity():
    rng = np.random.default_rng(4)
    s = random_system(rng, 3, 4, 2, 3)
    z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    gs = pencil_blocks(s)
    assert combine(gs, z).shape == (4 + 3, 4 + 2)
    np.testing.assert_allclose(combine(gs, z + w), combine(gs, z) + combine(gs, w))



def test_combine_is_within_the_inner_product_bound():
    # The rounding premise of _norm_certified: each entry of combine(g, z)
    # is an N-term complex inner product, whose real and imaginary parts
    # lie within (N + 3) u sum_k |z_k| |G_k| of the exact sum, here taken in
    # extended precision, for one point and for a stack, at any scale.
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        pytest.skip("np.longdouble is no wider than float here")
    rng = np.random.default_rng(53)
    u = np.finfo(float).eps / 2

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    scales = (1e-150, 1.0, 1e150)
    for n, g_scale, z_scale in itertools.product(range(1, 5), scales, scales):
        g = g_scale * gaussian(n, 7, 5)
        for z in (z_scale * gaussian(n), z_scale * gaussian(40, n)):
            value = combine(g, z)
            z_long, g_long = z.astype(np.clongdouble), g.astype(np.clongdouble)
            exact = (z_long[..., None, None] * g_long).sum(-3)
            bound = (n + 3) * u * (np.abs(z)[..., None, None] * np.abs(g)).sum(-3)
            error = value.astype(np.clongdouble) - exact
            assert value.shape == exact.shape
            assert (np.abs(error.real) <= bound).all(), (n, g_scale, z_scale)
            assert (np.abs(error.imag) <= bound).all(), (n, g_scale, z_scale)


def test_transfer_eval_solves_on_the_narrow_side(monkeypatch):
    # dim_u > dim_y: zC (I - zA)^(-1) comes first, with dim_y right-hand
    # sides; the adjoint system has dim_u < dim_y and solves (I - zA*)^(-1)
    # zC* with as many.  The two paths meet in theta_adj(conj z) = theta(z)*.
    rng = np.random.default_rng(59)
    widths = []
    solve = np.linalg.solve

    def recording(a, b):
        widths.append(b.shape[-1])
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording)
    for n, dx, du, dy in ((1, 4, 3, 1), (2, 6, 18, 3), (3, 5, 4, 2)):
        s = random_system(rng, n, dx, du, dy, scale=0.1)
        z = 0.3 * sample_torus(n, 20, seed=n)
        for points in (z, z[0]):
            widths.clear()
            value = transfer_eval(s, points)
            mirrored = transfer_eval(adjoint(s), np.conj(points)).conj().swapaxes(-1, -2)
            assert widths == [dy, dy]
            assert value.shape == mirrored.shape == (*points.shape[:-1], dy, du)
            for v, m in zip(value.reshape(-1, dy, du), mirrored.reshape(-1, dy, du)):
                assert svd_norm(v - m) <= 1e-13 * svd_norm(m), (n, dx, du, dy)

def test_taylor_agrees_with_transfer_eval():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        s = random_system(rng, n, 3, 2, 2, scale=0.25)
        germ = taylor_coefficients(s, 14)
        points = 0.15 * sample_torus(n, 5, seed=7)
        for z in points:
            err = np.linalg.norm(germ_eval(germ, z) - transfer_eval(s, z), 2)
            assert err < 1e-8
        for evaluate, f in ((germ_eval, germ), (transfer_eval, s)):
            assert_stack_is_per_point(evaluate, f, points)
            assert_stack_is_per_point(evaluate, f, points[:1])


@pytest.mark.parametrize("label, s, _", taylor_test_systems())
def test_taylor_levels_match_the_whole_cap_expansion_bit_for_bit(label, s, _):
    for cap in range(1, s.dim_x + 3):
        germ, full = taylor_coefficients(s, cap), full_taylor_coefficients(s, cap)
        assert list(germ.coeffs) == list(full.coeffs), (label, cap)
        for t, m in full.coeffs.items():
            assert np.array_equal(germ.coeffs[t], m), (label, cap, t)


def test_pencil_blocks_are_the_block_matrices():
    rng = np.random.default_rng(8)
    for n, dx, du, dy in ((3, 9, 3, 3), (2, 3, 1, 2), (2, 0, 2, 1)):
        s = random_system(rng, n, dx, du, dy)
        gs = pencil_blocks(s)
        assert isinstance(gs, np.ndarray) and gs.shape == (n, dx + dy, dx + du)
        for k, g in enumerate(gs):
            assert np.array_equal(g, np.block([[s.a[k], s.b[k]], [s.c[k], s.d[k]]]))


# degree 0 (no coefficient), 1, 2, 3 and 4; dim_u != dim_y where both are
# set; the last two have N >= 2 and degree >= 3, where a multi-index slot
# stands for several words
GERMS = [
    PolyGerm(2, 1, 2, {}),
    PolyGerm(3, 2, 1, {(1, 0, 0): [[0.5, 1j]], (0, 0, 1): [[-0.25, 0.0]]}),
    PolyGerm(2, 1, 2, {(1, 1): [[0.5], [1j]], (2, 0): [[0.25], [0.0]], (0, 1): [[1.0], [2.0]]}),
    PolyGerm(1, 2, 1, {(3,): [[0.3, -0.1]], (1,): [[1.0, 0.0]]}),
    PolyGerm(2, 2, 1, {(2, 1): [[0.5, -1j]], (1, 0): [[1.0, 0.25]], (0, 2): [[0.0, 2.0]]}),
    PolyGerm(3, 1, 2, {(2, 1, 1): [[0.3], [1j]], (0, 1, 2): [[-0.5], [0.0]],
                       (1, 1, 0): [[0.25], [0.75]]}),
]


def test_from_pencil_reads_back_the_blocks_bit_for_bit():
    rng = np.random.default_rng(9)
    cases = [random_system(rng, n, dx, du, dy)
             for n, dx, du, dy in ((3, 9, 3, 3), (2, 3, 1, 2), (2, 0, 2, 1), (1, 2, 3, 0))]
    for s in cases + [random_conservative(2, 0, 2, 2, seed=1), realize_germ(GERMS[2])]:
        back = systems._from_pencil(pencil_blocks(s), s.dim_x)
        assert same_blocks(back, s), (s.n_params, s.dim_x, s.dim_u, s.dim_y)


def test_transformations_equal_their_blockwise_forms():
    rng = np.random.default_rng(10)
    systems_ = [random_system(rng, n, dx, du, dy)
                for n, dx, du, dy in ((3, 5, 3, 2), (2, 0, 2, 1), (1, 4, 1, 3))]
    systems_.append(random_conservative(2, 3, 2, 2, seed=4))
    for s in systems_:
        assert same_blocks(adjoint(s), blockwise_adjoint(s))
        for factor in (1.5, 1e-13, 2 - 3j):
            assert same_blocks(scale_output(s, factor), blockwise_scale_output(s, factor))
        for q in (np.eye(s.dim_x), orthonormal_basis(rng.standard_normal((s.dim_x, 2))).basis,
                  np.zeros((s.dim_x, 0))):
            sub = Subspace(s.dim_x, q)
            ours, ref = compress_to(s, sub), blockwise_compress_to(s, sub.basis)
            for x, y in ((ours.a, ref.a), (ours.b, ref.b), (ours.c, ref.c), (ours.d, ref.d)):
                assert np.abs(np.array(x) - np.array(y)).max(initial=0.0) < 1e-13
    for g in GERMS:
        assert same_blocks(realize_germ(g), blockwise_realize_germ(g)), g.coeffs


def test_taylor_degree_one_is_d():
    rng = np.random.default_rng(6)
    s = random_system(rng, 2, 3, 2, 2)
    germ = taylor_coefficients(s, 1)
    np.testing.assert_allclose(germ.coeffs[(1, 0)], s.d[0])
    np.testing.assert_allclose(germ.coeffs[(0, 1)], s.d[1])


def test_taylor_degree_two_is_cb():
    rng = np.random.default_rng(7)
    s = random_system(rng, 2, 3, 2, 2)
    germ = taylor_coefficients(s, 2)
    np.testing.assert_allclose(germ.coeffs[(2, 0)], s.c[0] @ s.b[0], atol=1e-13)
    np.testing.assert_allclose(
        germ.coeffs[(1, 1)], s.c[0] @ s.b[1] + s.c[1] @ s.b[0], atol=1e-13
    )


def test_random_conservative_passes_algebraic_and_sampled_checks():
    for seed, (n, dx, du) in enumerate([(1, 4, 2), (2, 5, 2), (3, 6, 3), (2, 0, 2)]):
        s = random_conservative(n, dx, du, du, seed=seed)
        report = is_conservative(s)
        assert report.is_conservative
        assert report.worst_residual < 1e-10
        assert torus_unitarity_residual(s, 50) < 1e-9


def test_conservative_pencils_are_projections_times_a_unitary():
    # G_k = P_k U with U = sum_k G_k unitary and the P_k = G_k U* orthogonal
    # projections summing to I: the form condition (ii) is decided in
    for s in eval_shaped_pencils():
        g = pencil_blocks(s)
        u = g.sum(0)
        eye = np.eye(len(u))
        assert np.linalg.norm(u.conj().T @ u - eye, 2) < 1e-13
        p = g @ u.conj().T
        for p_k, g_k in zip(p, g):
            assert np.linalg.norm(p_k @ u - g_k, 2) < 1e-13
            assert np.linalg.norm(p_k - p_k.conj().T, 2) < 1e-13
            assert np.linalg.norm(p_k @ p_k - p_k, 2) < 1e-13
        assert np.linalg.norm(p.sum(0) - eye, 2) < 1e-13


def test_sample_torus_is_scipys_scrambled_halton():
    for n in range(1, 5):
        for count in (0, 1, 7, 100):
            for seed in range(31):
                expected = np.exp(2j * np.pi * qmc.Halton(d=n, seed=seed).random(count))
                assert np.array_equal(sample_torus(n, count, seed), expected), (n, count, seed)



def test_sample_torus_is_scipys_at_digit_boundaries():
    # only the digits an i < count can have are computed: counts at and next
    # to the powers b^k of the first four primes move that digit count
    counts = sorted({b ** k + d for b in (2, 3, 5, 7) for k in (1, 2, 3) for d in (-1, 0, 1)})
    for n in range(1, 5):
        for count in counts:
            for seed in (0, 1):
                expected = np.exp(2j * np.pi * qmc.Halton(d=n, seed=seed).random(count))
                assert np.array_equal(sample_torus(n, count, seed), expected), (n, count, seed)

def test_mpsys_imports_without_scipy_stats():
    # nor any other scipy module: scipy is a test oracle only
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys, mpsys, mpsys.cli; print('scipy.stats' in sys.modules); "
             "print(sorted(name for name in sys.modules if name.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", probe], cwd=src, capture_output=True,
                         text=True, check=True).stdout
    assert out == "False\n[]\n"
    assert not [path for path in src.rglob("*.py") if "scipy.stats" in path.read_text()]
    # the sample_torus docstring may still name scipy's Halton
    imports = re.compile(r"^\s*(import|from)\s+scipy\b", re.MULTILINE)
    assert not [path for path in src.rglob("*.py") if imports.search(path.read_text())]


def test_sampled_dissipativity_matches_an_early_exit_loop():
    def reference(s, n_samples, tol, seed):
        gs = pencil_blocks(s)
        worst, witness = 0.0, None
        for i, zeta in enumerate(sample_torus(s.n_params, n_samples, seed)):
            norm = np.linalg.norm(sum(zk * gk for zk, gk in zip(zeta, gs)), 2)
            if norm > worst:
                worst, witness = norm, zeta
            if norm > 1.0 + tol:
                return False, worst, witness, i
        return True, worst, None, None

    rng = np.random.default_rng(16)
    base = random_system(rng, 3, 4, 2, 2)
    norms = [np.linalg.norm(combine(pencil_blocks(base), z), 2)
             for z in sample_torus(3, 100, seed=5)]
    c = 1.0 / np.median(norms)  # about half the samples end above 1
    scaled = MultiSystem(*([c * m for m in blocks] for blocks in (base.a, base.b, base.c, base.d)))
    for s in (scaled, random_conservative(3, 4, 2, 2, seed=17)):
        passed, worst, witness, first = reference(s, 100, 1e-10, 5)
        verdict = is_dissipative_sampled(s, 100, tol=1e-10, seed=5)
        assert verdict.passed == passed
        assert abs(verdict.max_norm - worst) <= 1e-14
        if passed:
            assert verdict.witness is None
        else:
            assert first > 0  # the cut is not at the first sample
            np.testing.assert_array_equal(verdict.witness, witness)



def test_sampled_dissipativity_needs_a_sample():
    # no sample would pass vacuously with max_norm 0
    s = random_conservative(2, 3, 2, 2, seed=3)
    for n_samples in (0, -2):
        with pytest.raises(ValueError, match="n_samples must be >= 1"):
            is_dissipative_sampled(s, n_samples)
    assert is_dissipative_sampled(s, 1).passed

def svd_norm(m):
    return np.linalg.norm(m, 2) if m.size else 0.0


def test_spectral_norms_match_the_svd_norm():
    rng = np.random.default_rng(41)

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    # (2, 7) to (1, 1): a smaller side of 1 or 2 has a closed-form eigenvalue
    for rows, cols in ((3, 7), (7, 3), (5, 5), (1, 6), (6, 1), (0, 4), (4, 0),
                       (2, 7), (7, 2), (2, 2), (1, 1)):
        # at 1e-200 and 1e200 an unscaled Gram matrix would underflow or overflow
        for scale in (1e-200, 1e-150, 1.0, 1e150, 1e200):
            stack = gaussian(6, rows, cols)
            stack[1] = 0.0
            stack[2] = gaussian(rows, 1) @ gaussian(1, cols)  # rank one
            stack[3] = gaussian(rows, 2) @ gaussian(2, cols)  # rank two at most
            stack[4] *= 1e-9  # far below the others
            stack *= scale
            norms = systems._spectral_norms(stack)
            reference = np.array([svd_norm(m) for m in stack])
            assert norms.shape == (6,)
            error = np.abs(norms - reference)
            assert ((error <= 1e-13 * reference)
                    | (error <= 1e-13 * reference.max())).all(), (rows, cols, scale)
            assert norms[1] == 0.0
            assert systems._spectral_norms(stack[0]) == norms[0]



def test_spectral_norms_closed_form_with_equal_gram_diagonals():
    # a = d in the 2 x 2 Gram matrix [[a, b], [conj(b), d]]: lambda_max is
    # a + |b|, the hypot term reading |b| alone (0 for orthogonal columns)
    rng = np.random.default_rng(47)
    u = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
    w = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
    w *= np.linalg.norm(u) / np.linalg.norm(w)
    stack = np.array([
        [[1.0, 1.0], [1.0, -1.0]],  # orthogonal columns: b = 0, norm sqrt(2)
        [[1.0, 1.0], [0.0, 0.0]],  # equal columns: |b| = a, norm sqrt(2)
        [[1.0, 1j], [0.0, 0.0]],
        [[2.0, 0.0], [0.0, 2.0]],
    ], dtype=complex)
    for scale in (1e-200, 1e-150, 1.0, 1e150, 1e200):
        for x in (scale * stack, scale * np.hstack([u, w]), scale * np.hstack([u, w]).T):
            norms = systems._spectral_norms(x)
            reference = np.array([svd_norm(m) for m in x]) if x.ndim == 3 else svd_norm(x)
            assert np.all(np.abs(norms - reference) <= 1e-13 * reference), scale
        expected = scale * np.array([np.sqrt(2.0), np.sqrt(2.0), np.sqrt(2.0), 2.0])
        np.testing.assert_allclose(systems._spectral_norms(scale * stack), expected, rtol=1e-15)

def sampled_verdict(norms, points, tol):
    """(passed, max_norm, witness) of the sample norms, by the rule of
    ``is_dissipative_sampled``."""
    over = np.flatnonzero(norms > 1.0 + tol)
    if over.size == 0:
        return True, norms.max(), None
    return False, norms[over[0]], points[over[0]]


def svd_loop_dissipativity(s, n_samples, tol, seed):
    """(passed, max_norm, witness) from one SVD per torus sample."""
    points = sample_torus(s.n_params, n_samples, seed)
    norms = np.array([svd_norm(combine(pencil_blocks(s), z)) for z in points])
    return sampled_verdict(norms, points, tol)


def per_sample_gram_norms(s, points):
    """||zG|| at each point from its own Gram matrix: one product of the
    (P, N^2) weights conj(z_j) z_k by the N^2 scaled blocks G_j* G_k, then
    one stacked Gram root, the per-sample path of ``_sampled_norms``."""
    g = pencil_blocks(s)
    if g.shape[1] < g.shape[2]:
        g = g.swapaxes(1, 2)
    g, e = systems._scaled_to_unit(g)
    n, _, m = g.shape
    blocks = (g.conj().swapaxes(1, 2)[:, None] @ g[None]).reshape(n * n, m * m)
    weights = (points.conj()[:, :, None] * points[:, None, :]).reshape(-1, n * n)
    return systems._gram_roots((weights @ blocks).reshape(-1, m, m), e)


def cross_terms_over_allowance(s):
    """sum_{j != k} ||G_j* G_k||_F over the allowance 4 (N^2 + m) eps
    max_i S_ii, S = sum_k G_k* G_k, on the smaller side scaled to unit."""
    g = pencil_blocks(s)
    if g.shape[1] < g.shape[2]:
        g = g.swapaxes(1, 2)
    g = g / np.abs(g).max()
    n, _, m = g.shape
    cross = sum(np.linalg.norm(g[j].conj().T @ g[k])
                for j in range(n) for k in range(n) if j != k)
    top = np.diagonal(sum(gk.conj().T @ gk for gk in g)).real.max()
    return cross / (4 * (n * n + m) * np.finfo(float).eps * top)


def traced_dissipativity(monkeypatch, s, seed):
    """``is_dissipative_sampled(s, 100, tol=1e-10, seed=seed)`` and the number
    of matrices in each ``eigvalsh`` call it makes."""
    matrices = []
    eigvalsh = np.linalg.eigvalsh

    def recording(gram):
        matrices.append(math.prod(gram.shape[:-2]))
        return eigvalsh(gram)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    try:
        return is_dissipative_sampled(s, 100, tol=1e-10, seed=seed), matrices
    finally:
        monkeypatch.undo()


def assert_verdict(verdict, expected, rtol):
    passed, worst, witness = expected
    assert verdict.passed == passed
    assert abs(verdict.max_norm - worst) <= rtol * worst
    if passed:
        assert verdict.witness is None
    else:
        np.testing.assert_array_equal(verdict.witness, witness)


def test_sampled_dissipativity_matches_an_svd_loop_at_eval_sizes(monkeypatch):
    rng = np.random.default_rng(42)
    # (N, dim_x, dim_u, dim_y): m = dim_x + dim_u up to 24, square and not
    for n, dx, du, dy in ((1, 4, 2, 2), (2, 10, 3, 3), (3, 20, 4, 4), (2, 6, 3, 1),
                          (3, 5, 1, 3), (1, 0, 2, 2), (3, 16, 8, 8)):
        base = random_system(rng, n, dx, du, dy)
        norms = [svd_norm(combine(pencil_blocks(base), z)) for z in sample_torus(n, 100, 7)]
        c = 1.0 / np.quantile(norms, 0.9)
        if n > 1:  # only some samples end above 1 (for N = 1 the norm is constant)
            assert 0 < sum(c * norm > 1.0 + 1e-10 for norm in norms) < 100
        scaled = MultiSystem(*([c * m for m in blocks]
                               for blocks in (base.a, base.b, base.c, base.d)))
        for s in (scaled, scale_output(scaled, 1e150), scale_output(scaled, 1e200)):
            verdict, matrices = traced_dissipativity(monkeypatch, s, 7)
            assert_verdict(verdict, svd_loop_dissipativity(s, 100, 1e-10, 7), 1e-13)
            if n > 1:  # cross terms of order 1: one Gram matrix per sample
                assert matrices == [100]
                points = sample_torus(n, 100, 7)
                per_sample = sampled_verdict(per_sample_gram_norms(s, points), points, 1e-10)
                assert_verdict(verdict, per_sample, 0.0)


def eval_shaped_pencils():
    """Conservative pencils for N = 1-3: ``random_conservative`` ones and
    cascades of two, shaped like the eval benchmark's (dim_x 10-20)."""
    for n in (1, 2, 3):
        yield random_conservative(n, 10, 3, 3, seed=8 + n)
        yield random_conservative(n, 1, 2, 2, seed=11 + n)
        for dx2, dx1, du in ((4, 6, 2), (8, 8, 3), (8, 12 - 4 * (n == 3), 4)):
            yield cascade(random_conservative(n, dx2, du, du, seed=20 + dx2 + n),
                          random_conservative(n, dx1, du, du, seed=40 + dx1 + n))


def test_cross_term_free_dissipativity_takes_one_norm(monkeypatch):
    # sum_{j != k} ||G_j* G_k||_F within the allowance: every torus sample has
    # norm max_k |z_k| sqrt(lambda_max(sum_k G_k* G_k)), one Gram eigenproblem
    for conservative in eval_shaped_pencils():
        n = conservative.n_params
        # the whole pencil scaled keeps the cross terms within the allowance
        over = MultiSystem(*([(1.0 + 1e-6) * m for m in blocks] for blocks in
                             (conservative.a, conservative.b, conservative.c, conservative.d)))
        points = sample_torus(n, 100, 3)
        for s, passed in ((conservative, True), (over, False), (adjoint(over), False)):
            assert cross_terms_over_allowance(s) <= 1.0
            verdict, matrices = traced_dissipativity(monkeypatch, s, 3)
            assert matrices == [1]
            assert verdict.passed == passed
            assert_verdict(verdict, svd_loop_dissipativity(s, 100, 1e-10, 3), 1e-13)
            if not passed:  # above 1 + tol at every sample: the first is the witness
                np.testing.assert_array_equal(verdict.witness, points[0])
            if n == 1:  # exactly |z| ||G_1||
                g1 = pencil_blocks(s)[0]
                norms = np.abs(points[:, 0]) * systems._spectral_norms(g1)
                assert_verdict(verdict, sampled_verdict(norms, points, 1e-10), 0.0)


def test_dissipativity_with_cross_terms_solves_each_sample(monkeypatch):
    # positive controls of the shortcut: cross terms above the allowance take
    # one Gram matrix per sample, exactly the per-sample path
    cases = []
    for n in (2, 3):
        s = random_conservative(n, 10, 3, 3, seed=60 + n)
        cases.append(MultiSystem(a=[s.a[0] + 1e-9, *s.a[1:]], b=s.b, c=s.c, d=s.d))
        cases.append(scale_output(s, 0.9))
        # cross terms about 100 times the allowance, so the sample norms vary
        direction = random_system(np.random.default_rng(n), n, 10, 3, 3)

        def nudged(size):
            return MultiSystem(*([x + size * y for x, y in zip(getattr(s, name),
                                                                getattr(direction, name))]
                                 for name in "abcd"))

        cases.append(nudged(1e-12 * 100.0 / cross_terms_over_allowance(nudged(1e-12))))
        assert 50 <= cross_terms_over_allowance(cases[-1]) <= 200
        norms = [svd_norm(combine(pencil_blocks(cases[-1]), z)) for z in sample_torus(n, 100, 5)]
        assert np.ptp(norms) > 100 * np.finfo(float).eps
    for s in cases:
        assert cross_terms_over_allowance(s) > 10.0
        verdict, matrices = traced_dissipativity(monkeypatch, s, 5)
        assert matrices == [100]
        points = sample_torus(s.n_params, 100, 5)
        assert_verdict(verdict, sampled_verdict(per_sample_gram_norms(s, points), points,
                                                1e-10), 0.0)
        assert_verdict(verdict, svd_loop_dissipativity(s, 100, 1e-10, 5), 1e-13)


def pairwise_conservativity_residual(s):
    """The Fourier-coefficient identities of a unitary pencil, pair by pair:
    the largest 2-norm of sum_k G_k* G_k - I, sum_k G_k G_k* - I and, for
    every pair j != k, G_j* G_k and G_j G_k*."""
    gs = pencil_blocks(s)
    terms = [sum(g.conj().T @ g for g in gs) - np.eye(s.dim_x + s.dim_u),
             sum(g @ g.conj().T for g in gs) - np.eye(s.dim_x + s.dim_y)]
    for j, k in itertools.permutations(range(s.n_params), 2):
        terms += [gs[j].conj().T @ gs[k], gs[j] @ gs[k].conj().T]
    return max(np.linalg.norm(m, 2) for m in terms)


def conservativity_test_pencils():
    """Conservative, cascaded, perturbed (1e-14 to 1e-6) and random pencils
    for N = 1-3; the random ones include both non-square orientations."""
    rng = np.random.default_rng(21)
    for i in range(90):
        n, du = 1 + i % 3, 1 + i % 2
        if i % 3 == 0:
            s = random_conservative(n, int(rng.integers(0, 6)), du, du, seed=i)
        elif i % 3 == 1:
            s = cascade(random_conservative(n, int(rng.integers(0, 4)), du, du, seed=i),
                        random_conservative(n, int(rng.integers(0, 4)), du, du, seed=500 + i))
        else:
            s = random_system(rng, n, int(rng.integers(0, 5)), du, 1 + i // 3 % 3)
        yield s
        if i % 3 < 2:
            g = pencil_blocks(s)
            for eps in 10.0 ** rng.uniform(-14, -6, 2):
                noise = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
                yield systems._from_pencil(g + eps * noise, s.dim_x)


def test_conservativity_is_never_looser_than_the_pairwise_identities():
    # the pairwise identities decide conservativity too, with 2N^2 products;
    # the (U, P_k) defects must accept none of these pencils that they refuse.
    # The two residuals are equivalent, not ordered: for N >= 2 some
    # perturbation directions read about 0.4 times the pairwise residual
    accepted = {1e-10: 0, 1e-8: 0}
    count = 0
    for s in conservativity_test_pencils():
        reference = pairwise_conservativity_residual(s)
        count += 1
        for tol in accepted:
            report = is_conservative(s, tol)
            assert report.is_conservative == (report.worst_residual <= tol)
            assert report.is_conservative <= (reference <= tol), (s.n_params, reference, tol)
            accepted[tol] += report.is_conservative
    assert count == 210
    # both verdicts occur at each threshold, perturbed pencils on both sides
    assert all(0 < a < count for a in accepted.values()), accepted


def test_conservativity_catches_what_the_sums_miss():
    # G_1 = G_2 = W / sqrt(2), W unitary: both sums sum_k G_k* G_k and
    # sum_k G_k G_k* are I, but U = sqrt(2) W, so UU* - I = I
    w = haar_unitary(4, np.random.default_rng(24))
    half = systems._from_pencil(np.stack([w, w]) / np.sqrt(2.0), 3)
    gs = pencil_blocks(half)
    assert np.allclose(sum(g.conj().T @ g for g in gs), np.eye(4))
    assert np.allclose(sum(g @ g.conj().T for g in gs), np.eye(4))
    report = is_conservative(half)
    assert not report.is_conservative and report.failing is None
    assert abs(report.worst_residual - 1.0) < 1e-13
    # G_1 = G_2 = W / 2: U = W is unitary, and only P_k = I / 2, which is not
    # idempotent, fails: ||P_k* (I - P_k)|| = 1/4
    quarter = is_conservative(systems._from_pencil(np.stack([w, w]) / 2.0, 3))
    assert not quarter.is_conservative and quarter.failing == 0
    assert abs(quarter.worst_residual - 0.25) < 1e-13
    # G_k = E_k W with E_1 = E an oblique idempotent and E_2 = I - E: U = W,
    # each P_k is idempotent, but not Hermitian
    e = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    e[0, 3] = 0.5
    oblique = is_conservative(systems._from_pencil(np.stack([e @ w, w - e @ w]), 3))
    assert not oblique.is_conservative and oblique.failing is not None
    assert oblique.worst_residual > 0.1


def test_non_square_pencils_read_a_residual_of_at_least_one():
    for n in (1, 2, 3):
        s = random_conservative(n, 3, 3, 3, seed=30 + n)
        g = pencil_blocks(s)
        # drop an input column: an isometric pencil, then its coisometric adjoint
        tall = systems._from_pencil(g[:, :, :-1], s.dim_x)
        for pencil in (tall, adjoint(tall)):
            report = is_conservative(pencil)
            assert not report.is_conservative
            assert report.worst_residual >= 1.0 - 1e-12 and report.failing is None


def test_conservativity_names_the_failing_k():
    # G_k scaled by 1 + eps: U = (I + eps P_k) U0, so ||UU* - I|| =
    # (1 + eps)^2 - 1, P_k becomes (1 + eps)^2 P_k, with a defect larger by
    # the factor (1 + eps)^2, and every other P_j is unchanged
    eps = 1e-6
    for n in (2, 3):
        s = random_conservative(n, 4, 2, 2, seed=40 + n)
        for k in range(n):
            g = np.array(pencil_blocks(s))
            g[k] *= 1.0 + eps
            report = is_conservative(systems._from_pencil(g, s.dim_x))
            assert not report.is_conservative and report.failing == k
            expected = (1.0 + eps) ** 2 * ((1.0 + eps) ** 2 - 1.0)
            assert abs(report.worst_residual - expected) < 1e-12


def test_random_conservative_requires_square_pencil():
    with pytest.raises(SystemShapeError):
        random_conservative(2, 3, 2, 3)


def test_perturbation_breaks_conservativity_consistently():
    s = random_conservative(2, 4, 2, 2, seed=10)
    a = list(s.a)
    a[0] = a[0] + 1e-3
    broken = MultiSystem(a=a, b=s.b, c=s.c, d=s.d)
    assert not is_conservative(broken).is_conservative
    assert torus_unitarity_residual(broken, 50) > 1e-8
    with pytest.raises(ConservativityError):
        require_conservative(broken)


def test_conservative_transfer_is_contractive_on_polydisk():
    s = random_conservative(2, 5, 2, 2, seed=11)
    rng = np.random.default_rng(12)
    for _ in range(30):
        z = 0.95 * rng.uniform(0.1, 1.0, 2) * np.exp(2j * np.pi * rng.uniform(size=2))
        assert np.linalg.norm(transfer_eval(s, z), 2) <= 1.0 + 1e-10


def test_adjoint_transfer_relation():
    rng = np.random.default_rng(13)
    s = random_system(rng, 2, 4, 2, 3)
    z = np.array([0.2 - 0.3j, 0.1 + 0.25j])
    lhs = transfer_eval(adjoint(s), z)
    rhs = transfer_eval(s, np.conj(z)).conj().T
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_scale_output_scales_transfer():
    rng = np.random.default_rng(14)
    s = random_system(rng, 2, 3, 2, 2)
    z = np.array([0.2, 0.1j])
    np.testing.assert_allclose(
        transfer_eval(scale_output(s, 1.5), z), 1.5 * transfer_eval(s, z)
    )


def test_closely_connected_subspace_of_random_conservative_is_everything():
    s = random_conservative(2, 5, 2, 2, seed=15)
    assert closely_connected_subspace(s).dim == s.dim_x
    assert is_closely_connected(s)


def test_cc_and_unitary_part_are_complementary_for_conservative():
    # closely connected <=> the state pencil has no unitary reducing part
    inner = random_conservative(2, 4, 2, 2, seed=16)
    assert unitary_part(inner).dim == 0

    # embed a decoupled 2-dimensional unitary block into the state space
    rng = np.random.default_rng(17)
    w0 = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    p0 = np.zeros((2, 2)), np.eye(2)
    u0 = [p0[0] @ w0, p0[1] @ w0]
    dx0, dx = 2, inner.dim_x
    a = [np.block([[u0[k], np.zeros((dx0, dx))],
                   [np.zeros((dx, dx0)), inner.a[k]]]) for k in range(2)]
    b = [np.vstack([np.zeros((dx0, 2)), inner.b[k]]) for k in range(2)]
    c = [np.hstack([np.zeros((2, dx0)), inner.c[k]]) for k in range(2)]
    padded = MultiSystem(a=a, b=b, c=c, d=list(inner.d))
    assert is_conservative(padded).is_conservative
    assert not is_closely_connected(padded)
    assert closely_connected_subspace(padded).dim == dx
    assert unitary_part(padded).dim == dx0


def test_unitary_part_finds_a_block_hidden_by_a_basis_change():
    # a unitary pencil sum_k z_k P_k W of dimension 0-3 (P_k a random
    # orthogonal resolution of the identity, some P_k = 0 when the dimension
    # is below N) next to a closely connected conservative system, mixed by
    # a Haar state-space unitary
    for n in (1, 2, 3):
        for planted in (0, 1, 2, 3):
            for seed in (21, 22, 23):
                inner = random_conservative(n, 3, 2, 2, seed=seed)
                assert unitary_part(inner).dim == 0
                u0 = random_conservative(n, 0, planted, planted, seed=seed).d
                dx = planted + inner.dim_x
                q = haar_unitary(dx, np.random.default_rng(seed))
                a = [q @ block_diag(u0[k], inner.a[k]) @ q.conj().T for k in range(n)]
                b = [q @ np.vstack([np.zeros((planted, 2)), inner.b[k]]) for k in range(n)]
                c = [np.hstack([np.zeros((2, planted)), inner.c[k]]) @ q.conj().T
                     for k in range(n)]
                hidden = MultiSystem(a=a, b=b, c=c, d=list(inner.d))
                assert is_conservative(hidden).is_conservative
                part = unitary_part(hidden)
                assert part.dim == planted
                np.testing.assert_allclose(part.projector(),
                                           q[:, :planted] @ q[:, :planted].conj().T,
                                           atol=1e-8)
                cc = closely_connected_subspace(hidden)
                np.testing.assert_allclose(cc.projector(),
                                           q[:, planted:] @ q[:, planted:].conj().T,
                                           atol=1e-8)


def test_unitary_part_needs_the_cross_terms():
    # A_1 = A_2 = U / sqrt(2): both sums are I, yet A_1* A_2 = I / 2, and the
    # pencil (z_1 + z_2) U / sqrt(2) is not unitary on the torus
    u = haar_unitary(3, np.random.default_rng(24)) / np.sqrt(2.0)
    s = MultiSystem(a=[u, u], b=[np.zeros((3, 1))] * 2, c=[np.zeros((1, 3))] * 2,
                    d=[np.zeros((1, 1))] * 2)
    assert unitary_part(s).dim == 0


def test_subspaces_of_a_stateless_system_are_zero():
    for n in (1, 2, 3):
        s = random_conservative(n, 0, 2, 2, seed=n)
        for sub in (closely_connected_subspace(s), unitary_part(s)):
            assert (sub.ambient_dim, sub.dim) == (0, 0)


def test_restrict_to_cc_preserves_transfer_and_is_idempotent():
    inner = random_conservative(2, 3, 2, 2, seed=18)
    rng = np.random.default_rng(19)
    w0 = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    u0 = [np.diag([1.0, 0.0]) @ w0, np.diag([0.0, 1.0]) @ w0]
    dx = inner.dim_x
    a = [np.block([[u0[k], np.zeros((2, dx))],
                   [np.zeros((dx, 2)), inner.a[k]]]) for k in range(2)]
    b = [np.vstack([np.zeros((2, 2)), inner.b[k]]) for k in range(2)]
    c = [np.hstack([np.zeros((2, 2)), inner.c[k]]) for k in range(2)]
    padded = MultiSystem(a=a, b=b, c=c, d=list(inner.d))

    reduced = restrict_to_cc(padded)
    assert reduced.dim_x == dx
    assert is_conservative(reduced).is_conservative
    again = restrict_to_cc(reduced)
    assert again.dim_x == reduced.dim_x
    for z in 0.4 * sample_torus(2, 10, seed=20):
        np.testing.assert_allclose(
            transfer_eval(reduced, z), transfer_eval(padded, z), atol=1e-10
        )


def test_compress_to_coordinate_block_slices_blocks():
    rng = np.random.default_rng(21)
    s = random_system(rng, 2, 5, 2, 2)
    sub = orthonormal_basis(np.eye(5)[:, :3])
    small = compress_to(s, sub)
    np.testing.assert_allclose(small.a[0], s.a[0][:3, :3])
    np.testing.assert_allclose(small.b[1], s.b[1][:3, :])
    np.testing.assert_allclose(small.c[0], s.c[0][:, :3])


@pytest.mark.parametrize("n", (1, 2, 3))
def test_realize_germ_is_exact_on_the_multi_index_state(n):
    rng = np.random.default_rng(40 + n)
    for degree in range(1, 6):
        du, dy = (1, 2) if degree % 2 else (2, 1)
        coeffs = {t: rng.standard_normal((dy, du)) + 1j * rng.standard_normal((dy, du))
                  for t in itertools.product(range(degree + 1), repeat=n)
                  if 1 <= sum(t) <= degree and (sum(t) == degree or rng.uniform() < 0.6)}
        germ = PolyGerm(n, du, dy, coeffs)
        s = realize_germ(germ)
        assert s.dim_x == du * (math.comb(n + degree - 1, n) - 1), (n, degree)
        # levels degree + 1 ... degree + dim_x vanish, so theta is the germ
        recovered = taylor_coefficients(s, degree + s.dim_x)
        assert set(recovered.coeffs) == set(germ.coeffs), (n, degree)
        for t, m in germ.coeffs.items():
            assert np.abs(recovered.coeffs[t] - m).max() <= 1e-14, (n, degree, t)


def test_realize_germ_round_trip():
    rng = np.random.default_rng(22)
    for n, degree in ((1, 3), (2, 4), (3, 2)):
        coeffs = {}
        for _ in range(6):
            t = tuple(int(x) for x in rng.integers(0, degree, n))
            if 1 <= sum(t) <= degree:
                coeffs[t] = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        if not coeffs:
            continue
        germ = PolyGerm(n, 2, 2, coeffs)
        system = realize_germ(germ)
        recovered = taylor_coefficients(system, germ.max_total_degree())
        assert set(recovered.coeffs) == set(germ.coeffs)
        for t, m in germ.coeffs.items():
            np.testing.assert_allclose(recovered.coeffs[t], m, atol=1e-12)


def test_realize_germ_monomial_z1z2():
    germ = PolyGerm(2, 1, 1, {(1, 1): np.array([[1.0]])})
    system = realize_germ(germ)
    assert system.dim_x == 2
    recovered = taylor_coefficients(system, 2)
    assert set(recovered.coeffs) == {(1, 1)}
    np.testing.assert_allclose(recovered.coeffs[(1, 1)], [[1.0]], atol=1e-14)


def test_realize_germ_linear_is_stateless():
    germ = PolyGerm(2, 2, 2, {(1, 0): np.eye(2)})
    system = realize_germ(germ)
    assert system.dim_x == 0
    np.testing.assert_allclose(system.d[0], np.eye(2))


def test_realize_germ_rejects_constant_term():
    with pytest.raises(SystemShapeError):
        realize_germ(PolyGerm(2, 1, 1, {(0, 0): np.array([[1.0]])}))
