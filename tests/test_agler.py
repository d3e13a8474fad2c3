"""Unit tests for the commuting-contraction falsifier."""

import numpy as np
import pytest

from mpsys.agler import (
    STRATEGIES,
    ContractionTuple,
    TupleInvariantError,
    agler_test,
    eval_at_tuple,
    gen_commuting_contractions,
    polydisk_sup_norm,
    validate_tuple,
)
from mpsys import agler
from mpsys.systems import (
    MultiSystem,
    PolyGerm,
    ResolventError,
    realize_germ,
    random_conservative,
    scale_output,
    transfer_eval,
)


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


def test_tuple_matrices_are_read_only_copies():
    source = np.eye(2)
    tup = ContractionTuple((source, 0.5 * np.eye(2)))
    source[0, 0] = 5.0
    assert tup.mats[0][0, 0] == 1.0
    with pytest.raises(ValueError):
        tup.mats[0][0, 0] = 5.0


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
    r = 0.7
    result = eval_at_tuple(germ, tup, r)
    t1, t2 = tup.mats
    expected = r * t1 + 0.5 * r * r * (t1 @ t2)
    np.testing.assert_allclose(result.value, expected, atol=1e-12)
    assert result.error_bound == 0.0


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
    system = realize_germ(germ)
    # ||A_T|| <= r sqrt(N) for the shift realization; r = 0.6 keeps it below 1
    r = 0.6
    for strategy in ("power-family", "jointly-diagonal"):
        for seed in range(3):
            tup = gen_commuting_contractions(2, 3, strategy, seed=seed)
            result = eval_at_tuple(system, tup, r)
            expected = eval_at_tuple(germ, tup, r).value
            assert np.linalg.norm(result.value - expected, 2) < 1e-12
            assert result.error_bound < 1e-12


def test_eval_rejects_a_t_without_norm_below_one():
    s = MultiSystem(a=[np.array([[1.5]])], b=[np.array([[1.0]])],
                    c=[np.array([[1.0]])], d=[np.array([[0.0]])])
    tup = ContractionTuple((np.eye(2),))
    with pytest.raises(ResolventError, match="A_T"):
        eval_at_tuple(s, tup, 0.9)
    assert np.isfinite(eval_at_tuple(s, tup, 0.5).value).all()


def test_eval_requires_r_in_unit_interval():
    s = random_conservative(2, 3, 2, 2, seed=3)
    tup = gen_commuting_contractions(2, 2, "scalar", seed=4)
    with pytest.raises(ValueError):
        eval_at_tuple(s, tup, 1.0)


def test_agler_test_rejects_bad_trials_and_r_before_any_tuple(monkeypatch):
    generated = []
    monkeypatch.setattr(agler, "gen_commuting_contractions",
                        lambda *args, **kwargs: generated.append(1))
    s = random_conservative(2, 3, 2, 2, seed=5)
    for kwargs in ({"trials": 0}, {"trials": -3}, {"r": 0.0}, {"r": 1.0},
                   {"r": -0.5}):
        with pytest.raises(ValueError):
            agler_test(s, **kwargs)
    assert generated == []


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
