"""Unit tests for subspace arithmetic."""

import numpy as np
import pytest
import scipy.linalg

from mpsys import subspaces
from mpsys.tolerances import GRAM_TOL
from mpsys.subspaces import (
    Subspace,
    SubspaceError,
    _canonicalize,
    _range_basis,
    invariant_closure,
    is_invariant,
    orthonormal_basis,
    projector_distance,
    subspace_sum,
)

from pairs import (containment_residual, counting, orthogonal_complement,
                   subspace_intersection, whole_space, zero_space)


def random_subspace(rng, ambient, dim):
    m = rng.standard_normal((ambient, dim)) + 1j * rng.standard_normal((ambient, dim))
    return orthonormal_basis(m)


def test_constructor_rejects_non_orthonormal():
    with pytest.raises(SubspaceError):
        Subspace(2, np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_gram_check_uses_the_frobenius_norm():
    # positive control: Q*Q - I = e I_4 has 2-norm e but Frobenius norm 2e,
    # so with GRAM_TOL / 2 < e < GRAM_TOL only the Frobenius check rejects it
    e = 0.6 * GRAM_TOL
    basis = np.sqrt(1.0 + e) * np.eye(4)
    residual = basis.T @ basis - np.eye(4)
    assert np.linalg.norm(residual, 2) < GRAM_TOL < np.linalg.norm(residual)
    with pytest.raises(SubspaceError, match="not orthonormal"):
        Subspace(4, basis)
    Subspace(4, np.sqrt(1.0 + 0.4 * GRAM_TOL) * np.eye(4))


@pytest.mark.parametrize("entry", [complex(np.nan, 0.0), complex(0.0, np.inf)])
def test_a_non_finite_real_or_imaginary_part_is_rejected(entry):
    m = np.eye(3, dtype=complex)
    m[2, 1] = entry
    with pytest.raises(SubspaceError, match="non-finite entries"):
        orthonormal_basis(m)


def test_constructor_rejects_wrong_row_count():
    with pytest.raises(SubspaceError):
        Subspace(3, np.eye(2))


def test_zero_and_whole_space():
    assert zero_space(4).dim == 0
    assert whole_space(4).dim == 4
    np.testing.assert_allclose(whole_space(4).projector(), np.eye(4))


def test_orthonormal_basis_gram_identity():
    rng = np.random.default_rng(0)
    for _ in range(20):
        ambient = rng.integers(1, 8)
        cols = rng.integers(0, ambient + 3)
        m = rng.standard_normal((ambient, cols)) + 1j * rng.standard_normal((ambient, cols))
        s = orthonormal_basis(m)
        gram = s.basis.conj().T @ s.basis
        assert np.linalg.norm(gram - np.eye(s.dim)) < 1e-10


def test_orthonormal_basis_drops_dependent_columns():
    v = np.array([[1.0], [2.0], [0.0]])
    s = orthonormal_basis(np.hstack([v, 2 * v, -v]))
    assert s.dim == 1


def test_orthonormal_basis_is_canonical():
    # the same span reached by different generating sets gives the same basis
    rng = np.random.default_rng(1)
    m = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    q = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    s1 = orthonormal_basis(m)
    s2 = orthonormal_basis(m @ q)
    np.testing.assert_allclose(s1.basis, s2.basis, atol=1e-12)


def test_coordinate_spans_come_back_as_coordinates():
    cols = np.zeros((5, 2), dtype=complex)
    cols[1, 0] = 3.0
    cols[4, 1] = -2.0j
    s = orthonormal_basis(cols)
    expected = np.zeros((5, 2), dtype=complex)
    expected[1, 0] = 1.0
    expected[4, 1] = 1.0
    np.testing.assert_allclose(s.basis, expected, atol=1e-14)


def pivoted_qr_canonicalize(q):
    """The canonical basis by LAPACK's column-pivoted QR of P = qq*: the
    first r columns of Q, each turned so that its largest entry is real and
    positive, sorted stably by the row of that entry."""
    r = q.shape[1]
    if r == 0:
        return q
    qf, _, _ = scipy.linalg.qr(q @ q.conj().T, pivoting=True)
    basis = np.array(qf[:, :r])
    peaks = np.empty(r, dtype=int)
    for j in range(r):
        i = int(np.argmax(np.abs(basis[:, j])))
        peaks[j] = i
        pivot = basis[i, j]
        if abs(pivot) > 0:
            basis[:, j] *= np.conj(pivot) / abs(pivot)
    return basis[:, np.argsort(peaks, kind="stable")]


def haar_basis(rng, n, r):
    m = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    return np.linalg.qr(m)[0]


def test_canonical_basis_matches_the_pivoted_qr_oracle():
    # generic subspaces have no tied pivots, so Gram-Schmidt with recomputed
    # residual norms and LAPACK's downdated norms pick the same rows
    rng = np.random.default_rng(22)
    count = 0
    for n in range(1, 25):
        for r in range(n + 1):
            for _ in range(2):
                q = haar_basis(rng, n, r)
                np.testing.assert_allclose(_canonicalize(q), pivoted_qr_canonicalize(q),
                                           rtol=0, atol=1e-12, err_msg=f"n={n}, r={r}")
                count += 1
    assert count >= 500


def test_the_full_space_is_the_identity_exactly():
    rng = np.random.default_rng(23)
    for n in range(25):
        basis = _canonicalize(haar_basis(rng, n, n))
        assert basis.dtype == complex and np.array_equal(basis, np.eye(n))


def test_canonical_basis_of_ill_conditioned_generating_sets_is_orthonormal():
    # generating sets with condition 1e8, all singular values kept by RANK_TOL
    rng = np.random.default_rng(24)
    for _ in range(50):
        n = int(rng.integers(2, 25))
        r = int(rng.integers(2, n + 1))
        m = haar_basis(rng, n, r) @ np.diag(np.logspace(0, -8, r)) @ haar_basis(rng, r, r)
        s = orthonormal_basis(m)
        assert s.dim == r
        assert np.linalg.norm(s.basis.conj().T @ s.basis - np.eye(r)) <= GRAM_TOL
        np.testing.assert_allclose(s.basis, pivoted_qr_canonicalize(s.basis),
                                   rtol=0, atol=1e-12)


def test_tied_pivots_take_the_first_row_and_keep_the_span():
    # in span{e_a + i e_b, ...} the rows a and b have equal residual norms.
    # The first of them is the pivot; LAPACK downdates its column norms, so
    # rounding can make it pick the other row and return another basis of
    # the same span (8 of the 300 subspaces below, with scipy 1.17's LAPACK)
    s = 1 / np.sqrt(2)
    q = np.array([[s, 0], [1j * s, 0], [0, s], [0, 1j * s]])
    assert np.array_equal(_canonicalize(q), q)
    rng = np.random.default_rng(25)
    for _ in range(300):
        n = int(rng.integers(2, 13))
        rows = rng.permutation(n)
        cols = np.zeros((n, int(rng.integers(1, n // 2 + 1))), dtype=complex)
        for j in range(cols.shape[1]):
            cols[rows[2 * j], j], cols[rows[2 * j + 1], j] = 1.0, 1j
        q = np.linalg.qr(cols)[0]
        basis, oracle = _canonicalize(q), pivoted_qr_canonicalize(q)
        assert np.linalg.norm(basis.conj().T @ basis - np.eye(q.shape[1])) <= GRAM_TOL
        np.testing.assert_allclose(basis @ basis.conj().T, oracle @ oracle.conj().T,
                                   rtol=0, atol=1e-12)


def test_subspace_sum_commutative_idempotent():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = random_subspace(rng, 6, int(rng.integers(0, 4)))
        b = random_subspace(rng, 6, int(rng.integers(0, 4)))
        assert projector_distance(subspace_sum(a, b), subspace_sum(b, a)) < 1e-9
        assert projector_distance(subspace_sum(a, a), a) < 1e-9


def test_complement_then_sum_reconstructs():
    rng = np.random.default_rng(3)
    for _ in range(10):
        within = random_subspace(rng, 7, 5)
        sub = orthonormal_basis(within.basis[:, :2])
        comp = orthogonal_complement(sub, within)
        assert comp.dim == 3
        assert projector_distance(subspace_sum(sub, comp), within) < 1e-9


def test_complement_requires_containment():
    rng = np.random.default_rng(4)
    a = random_subspace(rng, 6, 3)
    within = random_subspace(rng, 6, 2)
    with pytest.raises(SubspaceError):
        orthogonal_complement(a, within)


def test_intersection_of_coordinate_planes():
    e = np.eye(4, dtype=complex)
    a = orthonormal_basis(e[:, [0, 1]])
    b = orthonormal_basis(e[:, [1, 2]])
    inter = subspace_intersection(a, b)
    assert inter.dim == 1
    np.testing.assert_allclose(inter.basis, e[:, [1]], atol=1e-10)


def test_intersection_with_whole_space_is_identity():
    rng = np.random.default_rng(5)
    a = random_subspace(rng, 5, 3)
    assert projector_distance(subspace_intersection(a, whole_space(5)), a) < 1e-9


def test_is_invariant_matches_projector_identity():
    rng = np.random.default_rng(6)
    for _ in range(10):
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        s = random_subspace(rng, 6, 3)
        p = s.projector()
        algebraic = np.linalg.norm(p @ m @ p - m @ p, 2) < 1e-8
        assert is_invariant(m, s) == algebraic


def test_invariant_subspace_detected():
    # block upper-triangular operator leaves the leading coordinate block invariant
    rng = np.random.default_rng(7)
    m = rng.standard_normal((5, 5))
    m[3:, :3] = 0.0
    block = orthonormal_basis(np.eye(5)[:, :3])
    assert is_invariant(m, block)
    assert is_invariant(m, zero_space(5))


def test_invariant_closure_contains_seeds_and_is_invariant():
    # ops = Q T_k Q* with T_k block upper-triangular: Q's first two columns
    # span a common invariant subspace, and seeds inside it stay inside it
    rng = np.random.default_rng(10)
    for _ in range(10):
        q = random_subspace(rng, 6, 6).basis
        ops = []
        for _ in range(2):
            t = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            t[2:, :2] = 0.0
            ops.append(q @ t @ q.conj().T)
        for seeds, expected_dim in ((q[:, :2] @ rng.standard_normal((2, 1)), 2),
                                    (rng.standard_normal((6, 2)), 6)):
            closure = invariant_closure(ops, seeds)
            assert closure.dim == expected_dim
            assert containment_residual(orthonormal_basis(seeds), closure) < 1e-9
            assert all(is_invariant(op, closure) for op in ops)
        block = orthonormal_basis(q[:, :2])
        assert projector_distance(invariant_closure(ops, q[:, :1]), block) < 1e-9


def test_invariant_closure_on_block_diagonal_tuple():
    # A_k = diag(a_k, Q_k): the closure of e_1 is span(e_1), that of a
    # vector in the Q block is the whole Q block
    rng = np.random.default_rng(0)
    ops = [np.diag([0.5, 0, 0, 0]).astype(complex), np.diag([-0.2, 0, 0, 0]).astype(complex)]
    for op in ops:
        op[1:, 1:] = 0.3 * rng.standard_normal((3, 3))
    e = np.eye(4, dtype=complex)
    np.testing.assert_allclose(invariant_closure(ops, e[:, :1]).basis, e[:, :1], atol=1e-12)
    in_q = e[:, 1:] @ (rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1)))
    assert projector_distance(invariant_closure(ops, in_q), orthonormal_basis(e[:, 1:])) < 1e-9


def test_invariant_closure_grows_one_shift_step_per_round():
    # under the shift e_i -> e_(i+1) of C^5 the closure of e_3 is
    # span(e_3, e_4, e_5); under the cyclic shift it is the whole space
    shift = np.eye(5, k=-1, dtype=complex)
    cyclic = shift.copy()
    cyclic[0, 4] = 1.0
    e = np.eye(5, dtype=complex)
    np.testing.assert_allclose(invariant_closure([shift], e[:, 2:3]).basis, e[:, 2:],
                               atol=1e-12)
    assert invariant_closure([cyclic], e[:, :1]).dim == 5


def test_invariant_closure_returns_the_canonical_basis():
    # the closure iterates on raw SVD bases; its result must be the basis
    # orthonormal_basis gives for the same span
    rng = np.random.default_rng(11)
    for i in range(20):
        n = int(rng.integers(2, 8))
        k = n // 2  # ops are block upper-triangular: the first k coordinates are invariant
        ops = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
               for _ in range(2)]
        for op in ops:
            op[k:, :k] = 0.0
        seeds = rng.standard_normal((n, 1))
        if i % 2:
            seeds[k:] = 0.0
        closure = invariant_closure(ops, seeds)
        assert closure.dim == (k if i % 2 else n)
        np.testing.assert_allclose(orthonormal_basis(closure.basis).basis, closure.basis,
                                   rtol=0, atol=1e-14)


def confirmed_closure(ops, seeds, tol=1e-9):
    """The closure loop that runs one more round to confirm a full-dimensional
    basis: (its Subspace, the number of _range_basis calls)."""
    q = _range_basis(seeds, tol)
    calls = 1
    for _ in range(q.shape[0] + 1):
        grown = _range_basis(np.hstack([q] + [op @ q for op in ops]), tol)
        calls += 1
        if grown.shape[1] == q.shape[1]:
            break
        q = grown
    return Subspace(q.shape[0], _canonicalize(grown)), calls


def test_invariant_closure_stops_once_it_spans_the_whole_space(monkeypatch):
    # a full-dimensional closure skips the confirming round and keeps the
    # basis it gave bit for bit; a proper closure still confirms
    rng = np.random.default_rng(12)
    shift = np.eye(5, k=-1, dtype=complex)
    cyclic = shift.copy()
    cyclic[0, 4] = 1.0
    cases = [([cyclic], np.eye(5)[:, :1]), ([shift], np.eye(5)[:, 2:3])]
    for _ in range(10):
        n = int(rng.integers(1, 12))
        ops = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(2)]
        cases.append((ops + [op.conj().T for op in ops], rng.standard_normal((n, 1))))
    for ops, seeds in cases:
        expected, expected_calls = confirmed_closure(ops, seeds)
        calls = []
        monkeypatch.setattr(subspaces, "_range_basis", counting(_range_basis, calls))
        closure = invariant_closure(ops, seeds)
        monkeypatch.undo()
        full = expected.dim == expected.ambient_dim
        assert len(calls) == expected_calls - full, (len(ops), seeds.shape)
        assert closure.basis.tobytes() == expected.basis.tobytes()
    assert invariant_closure([cyclic], np.eye(5)[:, :1]).dim == 5


def test_invariant_closure_of_zero_seeds_is_zero():
    ops = [np.eye(3), np.ones((3, 3))]
    assert invariant_closure(ops, np.zeros((3, 2))).dim == 0
    assert invariant_closure(ops, np.zeros((3, 0))).dim == 0
