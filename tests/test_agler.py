"""Unit tests for the commuting-contraction falsifier."""

import itertools

import numpy as np
import pytest

from mpsys.agler import (
    STRATEGIES,
    ContractionTuple,
    TupleInvariantError,
    agler_test,
    eval_at_tuple,
    gen_commuting_contractions,
    validate_tuple,
)
from mpsys import agler, systems
from mpsys.systems import (
    MultiSystem,
    PolyGerm,
    ResolventError,
    pencil_blocks,
    realize_germ,
    random_conservative,
    scale_output,
    transfer_eval,
)
from pairs import counting, germ_eval, kaijser_varopoulos, polydisk_sup_norm, svd_guarded


def test_generated_tuples_satisfy_invariants():
    for strategy in STRATEGIES:
        for dim in (1, 2, 4):
            tup = gen_commuting_contractions(3, dim, strategy, seed=dim)
            validate_tuple(tup)  # raises on violation
            assert tup.n_params == 3
            assert tup.dim == dim


def test_tuple_rejects_non_commuting():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(TupleInvariantError, match="commute"):
        ContractionTuple((a, b))


def test_tuple_rejects_expansive():
    with pytest.raises(TupleInvariantError, match="norm"):
        ContractionTuple((2.0 * np.eye(2),))


@pytest.mark.parametrize("entry", [complex(np.nan, 0.0), complex(np.inf, 0.0),
                                   complex(0.0, np.nan), complex(0.0, -np.inf)])
def test_tuple_rejects_a_non_finite_component(entry):
    bad = 0.5 * np.eye(2, dtype=complex)
    bad[0, 1] = entry
    with pytest.raises(TupleInvariantError, match=r"^component 1 has non-finite entries$"):
        ContractionTuple((0.5 * np.eye(2), bad))


def test_tuple_matrices_are_read_only_copies():
    source = np.eye(2)
    tup = ContractionTuple((source, 0.5 * np.eye(2)))
    source[0, 0] = 5.0
    assert tup.mats[0][0, 0] == 1.0
    with pytest.raises(ValueError):
        tup.mats[0][0, 0] = 5.0


def test_validate_tuple_reports_the_first_offender_in_order():
    half = 0.5 * np.eye(2)
    raising = np.array([[0.0, 1.0], [0.0, 0.0]])
    lowering = raising.T
    # norms by component k first, then pairs (j, k) in lexicographic order
    cases = [
        ((half, raising, lowering), r"^components 1, 2 do not commute"),
        ((raising, lowering, 2.0 * np.eye(2)), r"^component 2 has norm 2\.0+ > 1$"),
        ((half, 1.5 * np.eye(2), 2.0 * np.eye(2)), r"^component 1 has norm 1\.50+ > 1$"),
        ((raising, raising, lowering), r"^components 0, 2 do not commute"),
    ]
    for mats, message in cases:
        with pytest.raises(TupleInvariantError, match=message):
            ContractionTuple(mats)


def _kron_sum(blocks, mats):
    return sum(np.kron(blocks[k], mats[k]) for k in range(len(blocks)))


def _kron_reference(f, t, r):
    """eval_at_tuple as sums of np.kron, kept as the reference; for a germ,
    the finite sum of coeff (x) (rT)^t over its coefficients."""
    if isinstance(f, PolyGerm):
        value = np.zeros((f.dim_y * t.dim, f.dim_u * t.dim), dtype=complex)
        for idx, coeff in f.coeffs.items():
            factor = np.eye(t.dim, dtype=complex) * (r ** sum(idx))
            for k, power in enumerate(idx):
                for _ in range(power):
                    factor = factor @ t.mats[k]
            value += np.kron(coeff, factor)
        return value
    rt = [r * m for m in t.mats]
    d_t = _kron_sum(f.d, rt)
    if f.dim_x == 0:
        return d_t
    a_t, b_t, c_t = _kron_sum(f.a, rt), _kron_sum(f.b, rt), _kron_sum(f.c, rt)
    return d_t + c_t @ np.linalg.solve(np.eye(a_t.shape[0]) - a_t, b_t)


def _same_bits(x, y):
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def test_tensorized_evaluation_matches_the_kron_loop_bit_for_bit():
    r = 0.9
    germs = [
        PolyGerm(3, 1, 1, {(1, 0, 0): np.array([[0.3]]), (0, 1, 0): np.array([[0.2j]]),
                           (0, 0, 1): np.array([[-0.1]]), (1, 1, 0): np.array([[0.15]]),
                           (2, 0, 1): np.array([[0.05 - 0.1j]])}),
        PolyGerm(2, 2, 1, {(1, 0): np.array([[0.3, -0.1]]),
                           (1, 2): np.array([[0.05j, 0.2]])}),
        PolyGerm(1, 1, 1, {}),
    ]
    order_matters = False
    for n in (1, 2, 3):
        systems = [random_conservative(n, dx, du, du, seed=10 * n + dx)
                   for dx, du in ((0, 2), (1, 1), (3, 2))]
        for dim in (1, 2, 3):
            for strategy in STRATEGIES:
                tup = gen_commuting_contractions(n, dim, strategy, seed=dim)
                rt = [r * m for m in tup.mats]
                for s in systems:
                    for blocks in (s.a, s.b, s.c, s.d):
                        expected = _kron_sum(blocks, rt)
                        assert _same_bits(agler._tensor(np.array(blocks), np.array(rt)),
                                          expected)
                        order_matters |= not np.array_equal(
                            _kron_sum(blocks[::-1], rt[::-1]), expected)
                    assert _same_bits(eval_at_tuple(s, tup, r).value,
                                      _kron_reference(s, tup, r))
                for germ in germs:
                    if germ.n_params == n:
                        value = eval_at_tuple(realize_germ(germ), tup, r).value
                        expected = _kron_reference(germ, tup, r)
                        assert np.abs(value - expected).max(initial=0.0) < 1e-13
    # the cases above tell the k-sum order apart, so a reversed sum fails
    assert order_matters


def test_scalar_tuple_reduces_to_transfer_eval():
    s = random_conservative(2, 4, 2, 2, seed=0)
    tup = gen_commuting_contractions(2, 3, "scalar", seed=1)
    scalars = np.array([m[0, 0] for m in tup.mats])
    r = 0.8
    result = eval_at_tuple(s, tup, r)
    expected = np.kron(transfer_eval(s, r * scalars), np.eye(3))
    assert np.linalg.norm(result.value - expected, 2) < 1e-12
    assert result.error_bound < 1e-13


def test_germ_evaluation_is_exact():
    germ = PolyGerm(2, 1, 1, {(1, 0): np.array([[1.0]]),
                              (1, 1): np.array([[0.5]])})
    tup = gen_commuting_contractions(2, 2, "jointly-diagonal", seed=2)
    t1, t2 = tup.mats
    for r in (0.7, 0.9, 0.99):
        result = eval_at_tuple(realize_germ(germ), tup, r)
        expected = r * t1 + 0.5 * r * r * (t1 @ t2)
        np.testing.assert_allclose(result.value, expected, atol=1e-12)
        assert result.error_bound < 1e-13


def test_realized_germ_matches_germ_on_commuting_tuples():
    # the word-indexed realization is not abelian, so agreement on
    # non-normal commuting tuples tests the commutation argument itself
    germ = PolyGerm(2, 2, 1, {
        (1, 0): np.array([[0.3, -0.1]]),
        (0, 1): np.array([[0.2j, 0.1]]),
        (2, 0): np.array([[0.1, 0.2]]),
        (1, 1): np.array([[-0.2, 0.1j]]),
        (1, 2): np.array([[0.05, -0.1]]),
    })
    short = PolyGerm(2, 1, 1, {(1, 0): np.array([[0.3]]), (1, 2): np.array([[0.5]])})
    # A_T is nilpotent, so I - A_T is invertible at every r although
    # ||A_T||_2 reaches r sqrt(N) for the shift realization
    for g in (germ, short):
        system = realize_germ(g)
        for r in (0.6, 0.9, 0.99):
            for strategy in ("power-family", "jointly-diagonal"):
                for seed in range(3):
                    tup = gen_commuting_contractions(2, 3, strategy, seed=seed)
                    result = eval_at_tuple(system, tup, r)
                    expected = _kron_reference(g, tup, r)
                    assert np.linalg.norm(result.value - expected, 2) < 1e-12
                    assert result.error_bound < 1e-12


def test_eval_rejects_a_singular_resolvent():
    s = MultiSystem(a=[np.diag([0.0, 2.0])], b=[np.eye(2)], c=[np.eye(2)],
                    d=[np.zeros((2, 2))])
    with pytest.raises(ResolventError, match="A_T"):
        eval_at_tuple(s, ContractionTuple((np.eye(1),)), 0.5)
    assert np.isfinite(eval_at_tuple(s, ContractionTuple((np.eye(1),)), 0.4).value).all()


def test_eval_follows_transfer_eval_past_norm_one():
    # theta = z^2 / (1 - 1.5 z) has a pole in the disk, at z = 2/3; at
    # r = 0.9 ||A_T||_2 = 1.35, but I - A_T is invertible and both
    # evaluators give the same value
    s = MultiSystem(a=[np.array([[1.5]])], b=[np.array([[1.0]])],
                    c=[np.array([[1.0]])], d=[np.array([[0.0]])])
    result = eval_at_tuple(s, ContractionTuple((np.eye(1),)), 0.9)
    assert np.array_equal(result.value, transfer_eval(s, [0.9]))
    assert result.value[0, 0].real == pytest.approx(0.81 / (1.0 - 1.35))


def test_agler_test_on_a_nilpotent_realization_agrees_with_its_germ(monkeypatch):
    # ||r zA||_2 reaches 1.27 here, but zA is nilpotent: the resolvent guard
    # of transfer_eval, not a norm bound, decides which points evaluate
    points = []

    def recording(s, z):
        points.append(z)
        return transfer_eval(s, z)

    monkeypatch.setattr(agler, "transfer_eval", recording)
    germ = PolyGerm(2, 1, 1, {(1, 0): np.array([[0.3]]), (1, 2): np.array([[0.5]])})
    for seed in range(3):
        realized = agler_test(realize_germ(germ), trials=10, r=0.9, seed=seed)
        direct = np.linalg.norm(germ_eval(germ, points[-1]), 2, axis=(1, 2)).max()
        assert not realized.falsified and realized.trials == 10
        assert abs(realized.max_norm - direct) < 1e-15


def test_agler_test_certifies_a_realized_germ_outside_the_class():
    # ||A_T||_2 reaches 1.22, but the witness stage shares the point stage's
    # guard, so the realization is falsified by a certified witness whose
    # norm is the germ's at that point
    germ = PolyGerm(2, 1, 1, {(1, 0): np.array([[0.9]]), (1, 2): np.array([[0.9]])})
    report = agler_test(realize_germ(germ), trials=50, r=0.9, seed=0)
    assert report.falsified and report.trials == 3
    assert abs(report.witness_norm - 1.0975973845028324) < 1e-12
    z = np.array([m[0, 0] for m in report.witness.mats])
    assert abs(np.linalg.norm(germ_eval(germ, 0.9 * z), 2) - report.witness_norm) < 1e-14


def test_kaijser_varopoulos_triple_separates_the_classes():
    # p / 5 is bounded by 1 on the polydisk, yet ||p(rT) / 5|| > 1 on the
    # three commuting contractions T: outside the Agler-Schur class
    tup, germ = kaijser_varopoulos()
    system = realize_germ(germ)
    for r, norm in ((0.99, 1.018550), (0.9, 0.841777)):
        result = eval_at_tuple(system, tup, r)
        assert abs(np.linalg.norm(result.value, 2) - norm) < 1e-6
        assert result.error_bound < 1e-15
    assert abs(polydisk_sup_norm(germ, radius=0.99) - 0.9801) < 1e-12
    # points of the polydisk cannot separate the classes: the falsifier,
    # one-sided, passes this non-member
    assert not agler_test(system, trials=200, r=0.99).falsified


def test_agler_test_forms_each_pencil_sum_once(monkeypatch):
    calls = []
    for module in (systems, agler):
        if hasattr(module, "combine"):
            monkeypatch.setattr(module, "combine", counting(module.combine, calls))
    s = random_conservative(2, 3, 2, 2, seed=5)
    agler_test(s, trials=20)
    assert len(calls) == 1  # zG inside transfer_eval; zA, zB, zC and zD are its blocks


def test_agler_test_sends_no_point_to_the_svd_on_conservative_systems_and_their_scalings(
        monkeypatch):
    # every shape of the agler benchmark (N and dim_u in 1..3, dim_x in
    # 1..4): the row-Gram bound of a conservative pencil, and of its 1.5x
    # output scaling, is max_k |z_k| <= r, so no point reaches the SVD
    sent = svd_guarded(monkeypatch)
    shapes = itertools.product((1, 2, 3), (1, 2, 3), (1, 2, 3, 4))
    for seed, (n, du, dx) in enumerate(shapes):
        s = random_conservative(n, dx, du, du, seed=seed)
        assert not agler_test(s, trials=50, r=0.9, seed=seed).falsified
        agler_test(scale_output(s, 1.5), trials=50, r=0.9, seed=seed)
    assert not sent


def test_eval_requires_r_in_unit_interval():
    s = random_conservative(2, 3, 2, 2, seed=3)
    tup = gen_commuting_contractions(2, 2, "scalar", seed=4)
    with pytest.raises(ValueError):
        eval_at_tuple(s, tup, 1.0)


def test_agler_test_rejects_bad_trials_and_r_before_any_tuple(monkeypatch):
    evaluated = []

    def record(f, z):
        evaluated.append(z.shape)
        return np.zeros((len(z), f.dim_y, f.dim_u), dtype=complex)

    monkeypatch.setattr(agler, "transfer_eval", record)
    s = random_conservative(2, 3, 2, 2, seed=5)
    for kwargs in ({"trials": 0}, {"trials": -3}, {"r": 0.0}, {"r": 1.0},
                   {"r": -0.5}):
        with pytest.raises(ValueError):
            agler_test(s, **kwargs)
    assert evaluated == []
    # the patched name is the point stage's evaluator: one batch per call
    assert not agler_test(s, trials=7).falsified
    assert evaluated == [(7, 2)]


def _random_contraction(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return m / np.linalg.norm(m, 2) * (1.0 if rng.uniform() < 0.5 else rng.uniform())


def test_conservative_pencil_is_contractive_on_non_commuting_tuples():
    # sum_k G_k* G_k = I and G_j* G_k = 0 (j != k) give
    # G(T)* G(T) = sum_k G_k* G_k (x) T_k* T_k <= I for any contractions T_k
    rng = np.random.default_rng(17)
    worst = {1.0: 0.0, 1.5: 0.0}
    for i in range(60):
        n, dim = 1 + i % 3, 1 + (i // 3) % 3
        s = random_conservative(n, int(rng.integers(1, 4)), 2, 2, seed=100 + i)
        mats = np.array([_random_contraction(rng, dim) for _ in range(n)])
        for scale in worst:
            blocks = np.array(pencil_blocks(scale_output(s, scale)))
            norm = np.linalg.norm(agler._tensor(blocks, mats), 2)
            worst[scale] = max(worst[scale], norm)
    assert worst[1.0] <= 1.0 + 1e-12
    assert worst[1.5] > 1.0 + 1e-2  # positive control: the scaled pencil expands


def test_power_family_finds_no_witness_the_point_stage_misses():
    # over conservative systems scaled by 1.01 - 1.5, the dimension-2
    # power-family tuples that agler_test once tried never falsify a system
    # its 50 points pass
    rng = np.random.default_rng(12)
    by_power = by_points = 0
    for i in range(40):
        n = 1 + i % 3
        du = int(rng.integers(1, 4))
        s = random_conservative(n, int(rng.integers(1, 5)), du, du, seed=1200 + i)
        scaled = scale_output(s, rng.uniform(1.01, 1.5))
        falsified = agler_test(scaled, trials=50, r=0.9, seed=i).falsified
        for trial in range(17):
            tup = gen_commuting_contractions(n, 2, "power-family", seed=i * 10007 + trial)
            result = eval_at_tuple(scaled, tup, 0.9)
            if np.linalg.norm(result.value, 2) - result.error_bound > 1.0 + 1e-8:
                by_power += 1
                assert falsified, f"system {i}: power-family witness missed by the points"
                break
        by_points += falsified
    assert by_power > 0 and by_points >= by_power


def test_conservative_transfer_passes_falsifier():
    for seed in range(3):
        s = random_conservative(2, 3, 2, 2, seed=seed)
        report = agler_test(s, trials=30, r=0.9, seed=seed)
        assert not report.falsified
        assert report.max_norm <= 1.0 + 1e-8


def test_scaled_transfer_is_falsified_with_certified_witness():
    s = random_conservative(2, 3, 2, 2, seed=10)
    report = agler_test(scale_output(s, 1.5), trials=50, r=0.9, seed=10)
    assert report.falsified
    assert report.witness_norm > 1.0 + 1e-8
    assert report.witness.dim == 1  # a point of the closed polydisk
    # the witness certifies itself on re-evaluation, beyond its error bound
    check = eval_at_tuple(scale_output(s, 1.5), report.witness, 0.9)
    assert np.linalg.norm(check.value, 2) - check.error_bound > 1.0 + 1e-8
    assert check.error_bound < 1e-13


def test_monotonicity_in_r_for_normal_tuples():
    # logged empirical property: for a fixed jointly-diagonal (normal) tuple
    # the norm grows with r, so the max over a grid sits at the largest r
    s = random_conservative(2, 3, 2, 2, seed=11)
    tup = gen_commuting_contractions(2, 2, "jointly-diagonal", seed=12)
    grid = [0.3, 0.5, 0.7, 0.9]
    norms = [np.linalg.norm(eval_at_tuple(s, tup, r).value, 2) for r in grid]
    assert np.argmax(norms) == len(grid) - 1


def test_polydisk_sup_norm_identity_function():
    germ = PolyGerm(1, 1, 1, {(1,): np.array([[1.0]])})
    assert abs(polydisk_sup_norm(germ, radius=0.99) - 0.99) < 1e-12


def test_polydisk_sup_norm_conservative_bound_and_scaling():
    s = random_conservative(2, 3, 2, 2, seed=13)
    base = polydisk_sup_norm(s, grid_per_axis=8, radius=0.95)
    assert base <= 1.0 + 1e-8
    doubled = polydisk_sup_norm(scale_output(s, 2.0), grid_per_axis=8, radius=0.95)
    assert doubled >= 2.0 * base - 1e-8
