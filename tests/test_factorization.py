"""Unit tests for multiplicity and linear-factor factorizations."""

import importlib
import itertools
import sys
from itertools import islice

import numpy as np
import pytest
from scipy.linalg import block_diag

from mpsys import factorization, subspaces, systems
from mpsys.cascade import (
    CascadeError,
    ConditionIIResult,
    cascade,
    check_condition_ii,
    decompose,
    sample_polydisk,
)
from mpsys.factorization import (
    LinearFactorChain,
    MultiplicityError,
    chain_eval,
    factor_homogeneous,
    factor_left,
    factor_right,
    invariant_subspace_candidates,
    multiplicity,
    solve_problem2,
    tail_eval,
)
from mpsys.subspaces import projector_distance
from mpsys.systems import (
    MultiSystem,
    PolyGerm,
    closely_connected_subspace,
    compress_to,
    is_conservative,
    pencil_blocks,
    random_conservative,
    realize_germ,
    sample_torus,
    taylor_coefficients,
    transfer_eval,
)
from mpsys.tolerances import SUBSPACE_TOL, TAYLOR_DROP_TOL

import pairs
from pairs import (
    chain_to_germ,
    counting,
    from_factorization,
    full_taylor_coefficients,
    irreducible_realization,
    is_a_invariant,
    block_triangular_zero,
    is_closely_connected,
    shift_power,
    taylor_test_systems,
    z2_plus_z9,
)


def zero_d(s):
    return MultiSystem(a=s.a, b=s.b, c=s.c,
                       d=[np.zeros_like(dk) for dk in s.d])


def reconstruction_residual(s, chain, tail, right=False, n_points=20, radius=0.4):
    worst = 0.0
    for z in sample_polydisk(s.n_params, n_points, radius, seed=0):
        theta = transfer_eval(s, z)
        if right:
            approx = tail_eval(tail, z) @ chain_eval(chain, z)
        else:
            approx = chain_eval(chain, z) @ tail_eval(tail, z)
        worst = max(worst, float(np.linalg.norm(theta - approx, 2)))
    return worst


def assert_stack_is_per_point(evaluate, f, points):
    """A (P, N) stack gives the per-point values, stacked along axis 0."""
    per_point = np.stack([evaluate(f, z) for z in points])
    np.testing.assert_allclose(evaluate(f, points), per_point, rtol=0, atol=1e-14)


def homogeneous_conservative(n, m, du, seed):
    """Conservative system with a homogeneous degree-m transfer function,
    built as an m-fold cascade of stateless conservative systems."""
    s = random_conservative(n, 0, du, du, seed=seed)
    for j in range(1, m):
        s = cascade(random_conservative(n, 0, du, du, seed=seed + j), s)
    return s


def test_multiplicity_of_generic_conservative_is_one():
    s = random_conservative(2, 4, 2, 2, seed=0)
    assert multiplicity(s) == 1


def test_multiplicity_of_d_zeroed_system_is_two():
    s = zero_d(random_conservative(2, 4, 2, 2, seed=1))
    assert multiplicity(s) == 2


def test_multiplicity_of_homogeneous_cascade():
    for m in (1, 2, 3):
        s = homogeneous_conservative(2, m, 2, seed=10 * m)
        assert multiplicity(s, m + 2) == m


def test_multiplicity_none_when_transfer_vanishes():
    zero = MultiSystem(a=[np.zeros((2, 2))] * 2,
                       b=[np.zeros((2, 2))] * 2,
                       c=[np.zeros((2, 2))] * 2,
                       d=[np.zeros((2, 2))] * 2)
    assert multiplicity(zero, 4) is None


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("dim_x", range(1, 9))
def test_exact_zero_cap_is_tight(n, dim_x):
    # theta = (z_1 + ... + z_N)^(dim_x + 1): found at the default cap dim_x + 1, missed below it
    s = shift_power(n, dim_x)
    assert multiplicity(s) == dim_x + 1
    assert multiplicity(s, dim_x) is None
    chain, germ = factor_homogeneous(s)
    assert chain.length == dim_x + 1 and {sum(t) for t in germ.coeffs} == {dim_x + 1}
    # theta = z_1 + ... + z_N + (z_1 + ... + z_N)^(dim_x + 1): the homogeneity
    # check must reach degree m + dim_x with m = 1
    with_d = MultiSystem(a=s.a, b=s.b, c=s.c, d=[np.ones((1, 1))] * n)
    with pytest.raises(MultiplicityError, match="not homogeneous of degree 1"):
        factor_homogeneous(with_d)


@pytest.mark.parametrize("n, dim_a, dim_b", [(1, 1, 1), (1, 3, 2), (2, 2, 3), (3, 4, 1),
                                             (2, 1, 5)])
def test_zero_at_the_exact_cap_is_zero_everywhere(n, dim_a, dim_b):
    s = block_triangular_zero(n, dim_a, dim_b, seed=10 * n + dim_a + dim_b)
    assert multiplicity(s) is None
    assert taylor_coefficients(s, s.dim_x + 6).coeffs == {}
    with pytest.raises(MultiplicityError, match="vanishes identically"):
        factor_homogeneous(s)


@pytest.mark.parametrize("label, s, m", taylor_test_systems())
def test_multiplicity_is_the_least_degree_of_the_whole_cap_expansion(label, s, m):
    for cap in range(1, s.dim_x + 3):
        expected = full_taylor_coefficients(s, cap).min_total_degree()
        assert multiplicity(s, cap) == expected, (label, cap)
    assert expected == m == multiplicity(s)


def test_multiplicity_stops_at_the_degree_it_returns(monkeypatch):
    levels = []

    def counted(s, cap):
        for level in systems._taylor_levels(s, cap):
            levels.append(level[0])
            yield level

    # factorization calls the generator under the name it imported
    monkeypatch.setattr(factorization, "_taylor_levels", counted)
    s = cascade_of(3, 3, 3, 3, seed=90)
    assert s.dim_x == 9
    assert multiplicity(s) == 2
    assert levels == [1, 2]


def test_factor_homogeneous_expands_once_up_to_m_plus_dim_x(monkeypatch):
    calls, levels = [], []

    def counted(s, cap):
        calls.append(cap)
        for level in systems._taylor_levels(s, cap):
            levels.append(level[0])
            yield level

    monkeypatch.setattr(factorization, "_taylor_levels", counted)
    s = homogeneous_conservative(2, 3, 2, seed=70)  # m = 3, dim_x = 4
    chain, _ = factor_homogeneous(s)
    assert chain.length == 3 and s.dim_x == 4
    assert len(calls) == 1 and levels == list(range(1, 3 + 4 + 1))


def test_chain_shapes_are_validated():
    from mpsys.systems import SystemShapeError
    with pytest.raises(SystemShapeError):
        LinearFactorChain(spaces=(2, 3), factors=((np.zeros((2, 2)),),))


@pytest.mark.parametrize("entry", [complex(np.nan, 0.0), complex(np.inf, 0.0),
                                   complex(0.0, np.nan), complex(0.0, -np.inf)])
def test_chain_rejects_a_non_finite_factor(entry):
    from mpsys.systems import SystemShapeError
    bad = np.zeros((2, 1), dtype=complex)
    bad[1, 0] = entry
    with pytest.raises(SystemShapeError,
                       match=r"factor 2, component 1 has non-finite entries"):
        LinearFactorChain(spaces=(1, 2, 1),
                          factors=((np.ones((1, 2)),), (bad,)))


def test_factor_left_reconstructs():
    for m, seed in ((1, 0), (2, 1), (3, 2)):
        s = homogeneous_conservative(2, m, 2, seed=seed)
        chain, tail = factor_left(s, m)
        assert chain.length == m
        assert reconstruction_residual(s, chain, tail) < 1e-9
        points = sample_polydisk(2, 6, 0.4, seed=seed)
        assert_stack_is_per_point(chain_eval, chain, points)
        assert_stack_is_per_point(tail_eval, tail, points)


def test_factor_left_on_d_zeroed_draw():
    s = zero_d(random_conservative(2, 5, 2, 2, seed=3))
    chain, tail = factor_left(s, 2)
    assert reconstruction_residual(s, chain, tail) < 1e-9


def test_factor_right_reconstructs():
    for m, seed in ((1, 4), (2, 5), (3, 6)):
        s = homogeneous_conservative(2, m, 2, seed=seed)
        tail, chain = factor_right(s, m)
        assert reconstruction_residual(s, chain, tail, right=True) < 1e-9


def test_tail_constant_contains_identity_block():
    s = zero_d(random_conservative(2, 4, 2, 2, seed=7))
    _, tail = factor_left(s, 2)
    assert np.linalg.norm(tail.constant, 2) >= 1.0
    assert np.linalg.norm(tail_eval(tail, np.zeros(2)) - tail.constant) == 0.0


def test_factor_left_rejects_wrong_multiplicity():
    s = random_conservative(2, 4, 2, 2, seed=8)  # generic D != 0
    with pytest.raises(MultiplicityError):
        factor_left(s, 2)


def test_declared_multiplicity_must_be_the_one_found():
    # theta = 0 has no multiplicity, and one below the true one is no
    # multiplicity either: only m = multiplicity(s, m) is accepted
    zero = block_triangular_zero(2, 3, 2, seed=5)
    cascade_m2 = cascade_of(2, 2, 2, 2, seed=60)
    for s, m in ((zero, 4), (zero, 40), (zero, 1), (cascade_m2, 1), (cascade_m2, 3)):
        for factor in (factor_left, factor_right):
            with pytest.raises(MultiplicityError, match=f"declared multiplicity {m}"):
                factor(s, m)
    for factor in (factor_left, factor_right):
        factor(cascade_m2, 2)


def test_factor_homogeneous_matches_germ_coefficientwise():
    # the chain's expansion repeats the products of _taylor_levels on the
    # same blocks, in the same order and under the same drop rule, so it is
    # the returned germ bit for bit: factor --mode homogeneous relies on it
    for n in (1, 2, 3):
        for m in (1, 2, 3, 4):
            s = homogeneous_conservative(n, m, 2, seed=10 * n + m)
            chain, germ = factor_homogeneous(s)
            assert chain.length == m
            expected = taylor_coefficients(s, m)
            # the returned germ is the expansion's, keys in the same order
            assert list(germ.coeffs) == list(expected.coeffs)
            assert all(np.array_equal(germ.coeffs[t], expected.coeffs[t]) for t in germ.coeffs)
            produced = chain_to_germ(chain)
            assert list(produced.coeffs) == list(germ.coeffs), (n, m)
            assert all(np.array_equal(produced.coeffs[t], germ.coeffs[t])
                       for t in germ.coeffs), (n, m)


def test_chain_to_germ_drops_by_the_taylor_rule():
    # the rule of _taylor_levels: a product coefficient of 5e-13 is dropped
    # (a chain-only threshold of 1e-14 kept it), one of 2e-12 is kept
    assert 5e-13 < TAYLOR_DROP_TOL < 2e-12
    for small, kept in ((5e-13, {(2, 0)}), (2e-12, {(2, 0), (1, 1)})):
        chain = LinearFactorChain(spaces=(1, 1, 1), factors=(([[1.0]], [[0.0]]),
                                                             ([[1.0]], [[small]])))
        assert set(chain_to_germ(chain).coeffs) == kept, small


def test_factor_homogeneous_factors_are_contractive():
    for m in (2, 3):
        s = homogeneous_conservative(2, m, 2, seed=30 + m)
        chain, _ = factor_homogeneous(s)
        for factor in chain.factors:
            worst = max(
                np.linalg.norm(sum(zk * fk for zk, fk in zip(zeta, factor)), 2)
                for zeta in sample_torus(2, 100, seed=0)
            )
            assert worst <= 1.0 + 1e-8


def test_factor_homogeneous_single_variable_monomial():
    # theta(z) = z^3 L reduces to the chain (L, I, I) up to regrouping
    l = np.array([[0.0, 0.5], [0.5, 0.0]])
    germ = PolyGerm(1, 2, 2, {(3,): l})
    s = realize_germ(germ)
    chain, _ = factor_homogeneous(s)
    assert chain.length == 3
    z = np.array([0.3 - 0.2j])
    np.testing.assert_allclose(chain_eval(chain, z), z[0] ** 3 * l, atol=1e-12)
    points = np.array([z, -z, 2 * z])
    assert_stack_is_per_point(chain_eval, chain, points)
    assert_stack_is_per_point(chain_eval, chain, points[:1])


def test_factor_homogeneous_rejects_inhomogeneous_input():
    s = zero_d(random_conservative(2, 4, 2, 2, seed=40))  # degrees 2, 3, ...
    with pytest.raises(MultiplicityError, match="not homogeneous of degree 2"):
        factor_homogeneous(s)
    # theta = z^2 + z^9: the check up to m + dim_x = 10 reaches z^9, one up to m + 2 would not
    with pytest.raises(MultiplicityError, match=r"degree 2: nonzero term at \(9,\)"):
        factor_homogeneous(z2_plus_z9())


def homogeneity_cap_inputs(rng):
    """(system, homogeneous): cascades of 1-3 stateless conservative systems
    and realized germs, homogeneous or with a term one degree higher."""
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            yield homogeneous_conservative(n, m, 2, seed=200 + 10 * n + m), True
            terms = [t for t in itertools.product(range(m + 1), repeat=n) if sum(t) == m]
            coeffs = {t: rng.standard_normal((1, 1)) for t in terms[:3]}
            yield realize_germ(PolyGerm(n, 1, 1, coeffs)), True
            above = tuple(m + 1 if k == 0 else 0 for k in range(n))
            coeffs[above] = rng.standard_normal((1, 1))
            yield realize_germ(PolyGerm(n, 1, 1, coeffs)), False
    yield z2_plus_z9(), False


def test_default_homogeneity_check_is_exact():
    """Whenever the default check passes, theta has no term of another
    degree up to m + dim_x + 5; it passes on every homogeneous input and
    fails on every other."""
    for s, homogeneous in homogeneity_cap_inputs(np.random.default_rng(110)):
        m = multiplicity(s)
        try:
            factor_homogeneous(s)
        except MultiplicityError:
            passed = False
        else:
            passed = True
            far = taylor_coefficients(s, m + s.dim_x + 5)
            assert {sum(t) for t in far.coeffs} == {m}, (s.n_params, m)
        assert passed == homogeneous, (s.n_params, s.dim_x, m)


def cascade_of(n, dx2, dx1, du, seed):
    return cascade(random_conservative(n, dx2, du, du, seed=seed),
                   random_conservative(n, dx1, du, du, seed=seed + 1))


def test_invariant_candidates_are_invariant():
    for s in (random_conservative(2, 5, 2, 2, seed=50), cascade_of(2, 2, 2, 2, seed=60),
              irreducible_realization(4, seed=0)):
        candidates = invariant_subspace_candidates(s)
        assert len(candidates) == 1
        assert is_a_invariant(s, candidates[0])


def test_least_element_reduces_every_q_k():
    """X* is A-invariant and X* (+) Y reduces every Q_k = G_k G_k*."""
    systems = [cascade_of(n, 2, 2, du, seed=seed)
               for n in (1, 2, 3) for du, seed in ((1, 100), (2, 102), (2, 104))]
    systems += [irreducible_realization(dx, seed) for dx in (2, 3, 4, 5) for seed in (0, 1)]
    # the reduction argument needs only Q_k = Q_k*, so it holds off conservative
    # systems as well; here the A-invariant closure of the XY ranges is the
    # first block, and only the XX blocks B_k B_k* reach the second
    rng = np.random.default_rng(106)
    a = [block_diag(*rng.standard_normal((2, 2, 2))) for _ in range(2)]
    systems.append(MultiSystem(a=a, b=list(rng.standard_normal((2, 4, 1))),
                               c=[np.hstack([rng.standard_normal((1, 2)), np.zeros((1, 2))])
                                  for _ in range(2)],
                               d=[np.zeros((1, 1))] * 2))
    for s in systems:
        (least,) = invariant_subspace_candidates(s)
        assert is_a_invariant(s, least)
        p = block_diag(least.projector(), np.eye(s.dim_y))
        for g in pencil_blocks(s):
            q = g @ g.conj().T
            assert np.linalg.norm((np.eye(len(p)) - p) @ q @ p, 2) < 1e-10


def block_diagonal_tuple(seed):
    """A_k = diag(a_k, Q_k) with a scalar and a generic 3x3 block: the common
    invariant subspaces are {0}, span(e_1), the Q block and the whole space."""
    rng = np.random.default_rng(seed)
    a = [block_diag([[0.5]], 0.3 * rng.standard_normal((3, 3))),
         block_diag([[-0.2]], 0.3 * rng.standard_normal((3, 3)))]
    return MultiSystem(a=a, b=[np.zeros((4, 1))] * 2, c=[np.zeros((1, 4))] * 2,
                       d=[np.zeros((1, 1))] * 2)


def test_invariant_candidate_stream_order_and_uniqueness(monkeypatch):
    sums = []
    subspace_sum = pairs.subspace_sum

    def recording_sum(a, b):
        sums.append(frozenset((id(a), id(b))))
        return subspace_sum(a, b)

    monkeypatch.setattr(pairs, "subspace_sum", recording_sum)
    # N = 1 with distinct eigenvalues: the invariant subspaces are the spans
    # of the 2**dim_x subsets of eigenvectors, and the stream reaches all.
    # On the block-diagonal tuple the Q block's closure is generated before
    # span(e_1), so only the sort puts the closures in dimension order.
    for s, lattice in ((cascade_of(1, 2, 2, 1, seed=60), 2 ** 5),
                       (block_diagonal_tuple(seed=0), 4)):
        sums.clear()
        stream = [(c, len(sums)) for c in islice(pairs.search_stream(s, seed=0), 64)]
        candidates = [c for c, _ in stream]
        assert len(candidates) == lattice
        assert candidates[0].dim == 0
        # {0} and the closures come before the first pairwise sum is formed
        closures = [c.dim for c, n_sums in stream[1:] if n_sums == 0]
        assert len(closures) > 1 and closures == sorted(closures)
        assert all(n_sums > 0 for _, n_sums in stream[1 + len(closures):])
        for i, c in enumerate(candidates):
            assert is_a_invariant(s, c)
            for d in candidates[:i]:
                if d.dim == c.dim:
                    assert projector_distance(c, d) >= 1e-8
        # the stream is exhausted, and each pair of subspaces was summed once
        assert len(set(sums)) == len(sums) == lattice * (lattice - 1) // 2


def test_solve_problem2_builds_nothing_when_zero_space_succeeds(monkeypatch):
    # N = 1: Q_1 = G G* = I, so its XY block is 0 and X* = {0}
    closures, sums = [], []
    monkeypatch.setattr(factorization, "invariant_closure",
                        counting(factorization.invariant_closure, closures))
    # every package module that still binds the name; the package rebinds
    # the name ``mpsys.cascade`` to the function, so the modules come from
    # sys.modules
    bound = [module for name, module in sorted(sys.modules.items())
             if name.split(".")[0] == "mpsys" and hasattr(module, "subspace_sum")]
    assert subspaces in bound
    for module in bound:
        monkeypatch.setattr(module, "subspace_sum", counting(module.subspace_sum, sums))
    s = cascade_of(1, 2, 2, 2, seed=60)
    assert [c.dim for c in invariant_subspace_candidates(s)] == [0]
    assert len(closures) == 1 and sums == []
    closures.clear()
    outcome = solve_problem2(s, seed=0)
    assert outcome.verdict == "factored" and outcome.least_x2.dim == 0
    assert len(closures) == 1


def test_solve_problem2_checks_condition_ii_once(monkeypatch):
    calls = []
    # the package rebinds the name ``mpsys.cascade`` to the function
    for module in (factorization, importlib.import_module("mpsys.cascade")):
        monkeypatch.setattr(module, "check_condition_ii",
                            counting(module.check_condition_ii, calls))
    outcome = solve_problem2(cascade_of(2, 2, 2, 2, seed=60), seed=0)
    assert outcome.verdict == "factored" and outcome.least_x2.dim > 0
    assert len(calls) == 1


def test_solve_problem2_checks_conservativity_once(monkeypatch):
    # restrict_to_cc's check is the only one: check_condition_ii presupposes it
    calls = []
    module = importlib.import_module("mpsys.systems")
    monkeypatch.setattr(module, "is_conservative", counting(module.is_conservative, calls))
    for n in (1, 2, 3):
        calls.clear()
        outcome = solve_problem2(cascade_of(n, 2, 2, 2, seed=60 + n), seed=0)
        assert outcome.verdict == "factored"
        assert len(calls) == 1


def passes_cascade_conditions(s, x2):
    if not check_condition_ii(s, x2).holds:
        return False
    try:
        decompose(s, x2)
    except CascadeError:
        return False
    return True


def test_solve_problem2_witness_is_least_passing_candidate():
    """Every candidate of the randomized oracle search that passes condition
    (ii) and the spill test contains the least fixed point X*, which is the
    witness; where X* spills, no candidate passes."""
    systems = [cascade_of(n, 2, 2, 2, seed=seed)
               for n, seed in ((1, 60), (2, 60), (2, 62), (3, 64), (2, 66))]
    systems += [cascade_of(2, 1, 2, 1, seed=68), cascade_of(3, 2, 1, 1, seed=70)]
    passing = 0
    for seed, s in enumerate(systems):
        outcome = solve_problem2(s, seed=seed)
        cc = closely_connected_subspace(s)
        acc = compress_to(s, cc)
        least = invariant_subspace_candidates(acc)[-1]
        assert outcome.verdict == "factored" and outcome.cc_dim == cc.dim
        assert projector_distance(outcome.least_x2, least) < 1e-12
        for c in pairs.search_candidates(acc, budget=64, seed=seed):
            if passes_cascade_conditions(acc, c):
                passing += 1
                assert pairs.containment_residual(least, c) <= SUBSPACE_TOL
    assert passing > len(systems)
    for dx in (3, 4):
        s = irreducible_realization(dx, seed=dx)
        assert solve_problem2(s).verdict == "no-cascade-decomposition"
        assert not any(passes_cascade_conditions(s, c)
                       for c in pairs.search_candidates(s, budget=64, seed=0))


def test_solve_problem2_exact_no_on_the_irreducible_realization():
    for seed in range(3):
        for dx in (3, 4, 5):
            s = irreducible_realization(dx, seed)
            assert is_closely_connected(s)
            assert [c.dim for c in invariant_subspace_candidates(s)] == [dx]
            outcome = solve_problem2(s, seed=seed)
            assert outcome.verdict == "no-cascade-decomposition"
            # the closely-connected dimension and X*, and no factors
            assert outcome.cc_dim == outcome.least_x2.dim == dx
            assert (outcome.theta2, outcome.theta1, outcome.intermediate_dim,
                    outcome.residual) == (None,) * 4
        outcome = solve_problem2(irreducible_realization(2, seed), seed=seed)
        assert outcome.verdict == "factored" and outcome.least_x2.dim == 1
        assert outcome.residual < 1e-9


def test_solve_problem2_raises_on_numerical_breakdown(monkeypatch):
    s = cascade_of(2, 2, 2, 2, seed=60)
    with pytest.raises(CascadeError, match="residual"):
        solve_problem2(s, tol=1e-30)
    # the seed picks the residual's sample points
    residuals = {solve_problem2(s, seed=seed).residual for seed in range(4)}
    assert len(residuals) > 1
    # (ii) holds at X* in exact arithmetic, so a failure there is an error
    monkeypatch.setattr(factorization, "check_condition_ii",
                        lambda acc, x2: ConditionIIResult(False, None, 0.25))
    with pytest.raises(CascadeError, match=r"^condition \(ii\) fails at the least fixed "
                                           r"point \(dim \d+\): residual 2\.500e-01$"):
        solve_problem2(s)


def test_solve_problem2_on_cascade():
    alpha2 = random_conservative(2, 2, 2, 2, seed=60)
    alpha1 = random_conservative(2, 2, 2, 2, seed=61)
    combined = cascade(alpha2, alpha1)
    outcome = solve_problem2(combined, seed=0)
    assert outcome.verdict == "factored"
    assert outcome.residual < 1e-9
    assert is_conservative(outcome.theta2).is_conservative
    assert is_conservative(outcome.theta1).is_conservative
    # both factors vanish at the origin
    assert np.linalg.norm(transfer_eval(outcome.theta2, np.zeros(2))) == 0.0
    assert np.linalg.norm(transfer_eval(outcome.theta1, np.zeros(2))) == 0.0
    for z in sample_polydisk(2, 10, 0.5, seed=1):
        product = transfer_eval(outcome.theta2, z) @ transfer_eval(outcome.theta1, z)
        assert np.linalg.norm(transfer_eval(combined, z) - product, 2) < 1e-9


def test_solve_problem2_requires_multiple_zero():
    s = random_conservative(2, 3, 2, 2, seed=62)  # multiplicity 1 generically
    with pytest.raises(MultiplicityError):
        solve_problem2(s)


def test_from_factorization_candidates_pass_conditions():
    for seed in range(3):
        alpha2 = random_conservative(2, 2, 2, 2, seed=70 + seed)
        alpha1 = random_conservative(2, 2, 2, 2, seed=80 + seed)
        acc, p_closure, inter = from_factorization(alpha2, alpha1)
        for candidate in (p_closure, inter):
            assert is_a_invariant(acc, candidate)
            assert check_condition_ii(acc, candidate).holds


def test_from_factorization_on_closely_connected_cascade_keeps_x2_dim():
    alpha2 = random_conservative(2, 2, 2, 2, seed=90)
    alpha1 = random_conservative(2, 2, 2, 2, seed=91)
    acc, p_closure, inter = from_factorization(alpha2, alpha1)
    # the cascade of closely connected draws is closely connected, so the
    # restriction is the identity and both candidates coincide with X2
    assert acc.dim_x == alpha2.dim_x + alpha2.dim_u + alpha1.dim_x
    assert p_closure.dim == alpha2.dim_x
    assert inter.dim == alpha2.dim_x
