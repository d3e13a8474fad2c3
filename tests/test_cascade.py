"""Unit tests for cascade connection and cascade decomposition."""

import numpy as np
import pytest

from mpsys.cascade import (
    CascadeError,
    cascade,
    check_condition_ii,
    decompose,
    sample_polydisk,
    verify_factor_tf,
)
from mpsys.subspaces import is_invariant, orthonormal_basis, projector_distance
from mpsys.systems import (
    ConservativityError,
    MultiSystem,
    combine,
    is_conservative,
    pencil_blocks,
    random_conservative,
    sample_torus,
    transfer_eval,
)
from pairs import (
    blockwise_cascade,
    blockwise_split,
    closcon_property_check,
    is_a_invariant,
    is_closely_connected,
    same_blocks,
    zero_space,
)


def coordinate_block(ambient, count, offset=0):
    return orthonormal_basis(np.eye(ambient)[:, offset:offset + count])


def conservative_pair(seed, n=2, dx2=3, dx1=3, du=2):
    alpha2 = random_conservative(n, dx2, du, du, seed=seed)
    alpha1 = random_conservative(n, dx1, du, du, seed=seed + 1000)
    return alpha2, alpha1


def defect_space_at(s, x2, zeta):
    """Sampled oracle for the defect space: (zG)*(x2 (+) Y) minus x2."""
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
    """True iff the sampled defect spaces all coincide (projector distance)."""
    points = sample_torus(s.n_params, n_points, seed=0)
    reference = defect_space_at(s, x2, points[0])
    for zeta in points[1:]:
        current = defect_space_at(s, x2, zeta)
        if current.dim != reference.dim:
            return False
        if projector_distance(current, reference) > tol:
            return False
    return True


def test_cascade_transfer_is_product():
    alpha2, alpha1 = conservative_pair(0)
    combined = cascade(alpha2, alpha1)
    assert combined.dim_x == alpha2.dim_x + alpha2.dim_u + alpha1.dim_x
    assert verify_factor_tf(combined, alpha2, alpha1) < 1e-12



def test_verify_factor_tf_needs_a_point():
    # no sampled point would count the split as reproduced vacuously
    alpha2 = random_conservative(2, 2, 2, 2, seed=1)
    alpha1 = random_conservative(2, 1, 2, 2, seed=2)
    combined = cascade(alpha2, alpha1)
    for n_points in (0, -2):
        with pytest.raises(ValueError, match="n_points must be >= 1"):
            verify_factor_tf(combined, alpha2, alpha1, n_points=n_points)
    assert verify_factor_tf(combined, alpha2, alpha1, n_points=1) < 1e-12

def test_cascade_of_conservatives_is_conservative():
    for seed in range(5):
        alpha2, alpha1 = conservative_pair(seed)
        report = is_conservative(cascade(alpha2, alpha1))
        assert report.is_conservative
        assert report.worst_residual < 1e-10


def test_cascade_has_zero_d():
    alpha2, alpha1 = conservative_pair(1)
    combined = cascade(alpha2, alpha1)
    assert all(np.linalg.norm(dk) == 0.0 for dk in combined.d)


def test_cascade_rejects_mismatched_spaces():
    alpha2 = random_conservative(2, 3, 2, 2, seed=0)
    alpha1 = random_conservative(2, 3, 3, 3, seed=1)
    with pytest.raises(CascadeError, match="intermediate"):
        cascade(alpha2, alpha1)
    narrower = random_conservative(1, 3, 2, 2, seed=2)
    with pytest.raises(CascadeError, match="n_params"):
        cascade(alpha2, narrower)


def test_cascade_associative_on_transfer():
    gamma = random_conservative(2, 2, 2, 2, seed=5)
    beta = random_conservative(2, 3, 2, 2, seed=6)
    alpha = random_conservative(2, 2, 2, 2, seed=7)
    left = cascade(cascade(gamma, beta), alpha)
    right = cascade(gamma, cascade(beta, alpha))
    for z in sample_polydisk(2, 15, 0.5, seed=8):
        err = np.linalg.norm(transfer_eval(left, z) - transfer_eval(right, z), 2)
        assert err < 1e-8


def test_condition_i_on_cascade_block():
    alpha2, alpha1 = conservative_pair(2)
    combined = cascade(alpha2, alpha1)
    x2 = coordinate_block(combined.dim_x, alpha2.dim_x)
    assert is_a_invariant(combined, x2)
    # a generic subspace is not invariant
    rng = np.random.default_rng(0)
    generic = orthonormal_basis(
        rng.standard_normal((combined.dim_x, 2))
        + 1j * rng.standard_normal((combined.dim_x, 2))
    )
    assert not is_a_invariant(combined, generic)
    with pytest.raises(CascadeError, match=r"condition \(i\) fails"):
        check_condition_ii(combined, generic)


def test_condition_ii_holds_on_cascade_block_and_matches_oracle():
    for seed in range(4):
        alpha2, alpha1 = conservative_pair(seed + 10)
        combined = cascade(alpha2, alpha1)
        x2 = coordinate_block(combined.dim_x, alpha2.dim_x)
        result = check_condition_ii(combined, x2)
        assert result.holds
        assert result.intermediate.dim == combined.dim_u
        assert condition_ii_oracle(combined, x2)


def test_condition_ii_verdict_matches_oracle_on_zero_subspace():
    for seed in range(4):
        s = random_conservative(2, 4, 2, 2, seed=seed + 20)
        x2 = zero_space(s.dim_x)
        result = check_condition_ii(s, x2)
        assert result.holds == condition_ii_oracle(s, x2)


def test_condition_i_is_checked_for_every_a_k():
    # X2 = the alpha2 block is invariant for A_1 and, after adding a map
    # from X2 to X1, not for A_2: condition (i) fails in either order
    alpha2, alpha1 = conservative_pair(5)
    combined = cascade(alpha2, alpha1)
    x2 = coordinate_block(combined.dim_x, alpha2.dim_x)
    leak = np.zeros((combined.dim_x,) * 2)
    leak[-1, 0] = 0.1
    moved = [combined.a[0], combined.a[1] + leak]
    assert is_invariant(moved[0], x2) and not is_invariant(moved[1], x2)
    for a in (moved, moved[::-1]):
        s = MultiSystem(a=a, b=combined.b, c=combined.c, d=combined.d)
        with pytest.raises(CascadeError, match=r"condition \(i\) fails"):
            check_condition_ii(s, x2)


def test_condition_ii_residual_separates_x2_from_x2_with_part_of_v():
    # a conservative positive control: in a cascade, X2 (+) one or two V
    # coordinates is A-invariant (the A_k map V into X2 through B2), and for
    # N >= 2 it fails (ii), with a residual far above SUBSPACE_TOL (0.066 to
    # 0.50 over these 40 cascades) and at most 1/2, the bound on the
    # off-diagonal block of an orthogonal projection; X2 itself holds to
    # rounding, and for N = 1 (P_1 = I) every such subspace does
    for n in (1, 2, 3):
        for seed in range(20):
            combined = cascade(*conservative_pair(seed, n=n))  # X2 0-2, V 3-4, X1 5-7
            x2 = coordinate_block(8, 3)
            assert check_condition_ii(combined, x2).residual <= 1e-14
            for part in ([3], [4], [3, 4]):
                grown = orthonormal_basis(np.eye(8)[:, [0, 1, 2] + part])
                assert is_a_invariant(combined, grown)
                result = check_condition_ii(combined, grown)
                if n == 1:
                    assert result.holds and result.residual <= 1e-14
                else:
                    assert not result.holds and result.intermediate is None
                    assert 0.05 <= result.residual <= 0.5 + 1e-12
                if seed < 2:
                    assert result.holds == condition_ii_oracle(combined, grown)


def test_condition_ii_intermediate_completes_x2_to_m():
    # V is orthogonal to X2 (+) 0 and the two span M, on rotated cascades
    rng = np.random.default_rng(42)
    for n in (1, 2, 3):
        alpha2, alpha1 = conservative_pair(50 + n, n=n)
        combined = cascade(alpha2, alpha1)
        rot = np.linalg.qr(rng.standard_normal((combined.dim_x,) * 2))[0]
        s = MultiSystem(a=[rot @ a @ rot.T for a in combined.a],
                        b=[rot @ b for b in combined.b],
                        c=[c @ rot.T for c in combined.c], d=combined.d)
        x2 = orthonormal_basis(rot[:, :alpha2.dim_x])
        result = check_condition_ii(s, x2)
        assert result.holds
        du, dy = s.dim_u, s.dim_y
        target = np.vstack([np.hstack([x2.basis, np.zeros((s.dim_x, dy))]),
                            np.hstack([np.zeros((dy, x2.dim)), np.eye(dy)])])
        m = orthonormal_basis(np.hstack(pencil_blocks(s).conj().swapaxes(1, 2) @ target))
        x2_embedded = np.vstack([x2.basis, np.zeros((du, x2.dim))])
        v = result.intermediate.basis
        assert m.dim == x2.dim + result.intermediate.dim
        # and M is U*(X2 (+) Y), U = sum_k G_k
        u_star_target = pencil_blocks(s).sum(0).conj().T @ target
        assert projector_distance(orthonormal_basis(u_star_target), m) < 1e-12
        assert np.abs(x2_embedded.conj().T @ v).max() < 1e-12
        spanned = orthonormal_basis(np.hstack([x2_embedded, v]))
        assert projector_distance(spanned, m) < 1e-12


def test_decompose_recovers_cascade_factors():
    alpha2, alpha1 = conservative_pair(3)
    combined = cascade(alpha2, alpha1)
    x2 = coordinate_block(combined.dim_x, alpha2.dim_x)
    dec = decompose(combined, x2)
    assert is_conservative(dec.alpha2).is_conservative
    assert is_conservative(dec.alpha1).is_conservative
    # canonical coordinate bases make the recovery exact
    for z in sample_polydisk(2, 10, 0.5, seed=1):
        assert np.linalg.norm(transfer_eval(dec.alpha2, z) - transfer_eval(alpha2, z)) < 1e-12
        assert np.linalg.norm(transfer_eval(dec.alpha1, z) - transfer_eval(alpha1, z)) < 1e-12
    assert verify_factor_tf(combined, dec.alpha2, dec.alpha1) < 1e-10


def test_decompose_state_basis_conjugates_pencil():
    alpha2, alpha1 = conservative_pair(4)
    combined = cascade(alpha2, alpha1)
    x2 = coordinate_block(combined.dim_x, alpha2.dim_x)
    dec = decompose(combined, x2)
    q = dec.state_basis
    assert np.linalg.norm(q.conj().T @ q - np.eye(combined.dim_x)) < 1e-10
    rebuilt = cascade(dec.alpha2, dec.alpha1)
    for k in range(combined.n_params):
        assert np.linalg.norm(q @ rebuilt.a[k] @ q.conj().T - combined.a[k]) < 1e-9
        assert np.linalg.norm(q @ rebuilt.b[k] - combined.b[k]) < 1e-9
        assert np.linalg.norm(rebuilt.c[k] @ q.conj().T - combined.c[k]) < 1e-9


def test_decompose_rejects_non_invariant_subspace():
    s = random_conservative(2, 4, 2, 2, seed=30)
    rng = np.random.default_rng(31)
    generic = orthonormal_basis(
        rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    )
    with pytest.raises(CascadeError):
        decompose(s, generic)


def test_decompose_rejects_a_perturbed_non_conservative_system():
    # check_condition_ii presupposes conservativity; decompose checks it
    alpha2, alpha1 = conservative_pair(33)
    combined = cascade(alpha2, alpha1)
    x2 = coordinate_block(combined.dim_x, alpha2.dim_x)
    decompose(combined, x2)
    perturbed = MultiSystem(a=combined.a, b=combined.b,
                            c=[(1 + 1e-6) * m for m in combined.c], d=combined.d)
    assert not is_conservative(perturbed, 1e-8).is_conservative
    assert check_condition_ii(perturbed, x2).holds  # the split itself would go through
    with pytest.raises(ConservativityError):
        decompose(perturbed, x2)


def test_closcon_implication_on_random_pairs():
    for seed in range(5):
        alpha2, alpha1 = conservative_pair(seed + 40)
        report = closcon_property_check(alpha2, alpha1)
        # random conservative draws are closely connected, so the cascade is too
        assert report.alpha2_closely_connected
        assert report.alpha1_closely_connected


def test_closcon_contrapositive_with_decoupled_unitary_block():
    # a factor with a decoupled unitary state block is not closely connected,
    # and neither is any cascade containing it
    inner = random_conservative(2, 3, 2, 2, seed=50)
    rng = np.random.default_rng(51)
    w0 = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    u0 = [np.diag([1.0, 0.0]) @ w0, np.diag([0.0, 1.0]) @ w0]
    dx = inner.dim_x
    padded = MultiSystem(
        a=[np.block([[u0[k], np.zeros((2, dx))],
                     [np.zeros((dx, 2)), inner.a[k]]]) for k in range(2)],
        b=[np.vstack([np.zeros((2, 2)), inner.b[k]]) for k in range(2)],
        c=[np.hstack([np.zeros((2, 2)), inner.c[k]]) for k in range(2)],
        d=list(inner.d),
    )
    assert not is_closely_connected(padded)
    other = random_conservative(2, 3, 2, 2, seed=52)
    report = closcon_property_check(other, padded)
    assert not report.cascade_closely_connected


def test_stateless_factors_cascade_state_is_intermediate_space():
    alpha2 = random_conservative(2, 0, 2, 2, seed=60)
    alpha1 = random_conservative(2, 0, 2, 2, seed=61)
    combined = cascade(alpha2, alpha1)
    assert combined.dim_x == 2
    report = closcon_property_check(alpha2, alpha1)
    assert report.alpha2_closely_connected  # dim_x = 0 is vacuously connected
    assert report.alpha1_closely_connected


def test_cascade_and_split_equal_their_blockwise_forms():
    rng = np.random.default_rng(62)

    def draw(n, dx, du, dy):
        return MultiSystem(*(rng.standard_normal((n, rows, cols))
                             + 1j * rng.standard_normal((n, rows, cols))
                             for rows, cols in ((dx, dx), (dx, du), (dy, dx), (dy, du))))

    # empty X2, V, X1 or Y; dim_u != dim_y
    for n, x2, dv, x1, du, dy in ((2, 3, 2, 4, 1, 3), (1, 0, 2, 3, 2, 1), (3, 2, 1, 0, 3, 2),
                                  (2, 2, 0, 2, 1, 1), (2, 1, 2, 1, 2, 0)):
        alpha2, alpha1 = draw(n, x2, dv, dy), draw(n, x1, du, dv)
        assert same_blocks(cascade(alpha2, alpha1), blockwise_cascade(alpha2, alpha1))
    for seed, (n, dx2, dx1, du) in enumerate(((2, 3, 3, 2), (1, 0, 2, 1), (3, 2, 0, 2))):
        alpha2 = random_conservative(n, dx2, du, du, seed=70 + seed)
        alpha1 = random_conservative(n, dx1, du, du, seed=80 + seed)
        combined = cascade(alpha2, alpha1)
        rot = np.linalg.qr(rng.standard_normal((combined.dim_x,) * 2))[0]
        rotated = MultiSystem(a=[rot @ a @ rot.T for a in combined.a],
                              b=[rot @ b for b in combined.b],
                              c=[c @ rot.T for c in combined.c], d=combined.d)
        dec = decompose(rotated, orthonormal_basis(rot[:, :dx2]))
        ref = blockwise_split(rotated, dec.x2.basis, dec.intermediate.basis, dec.x1.basis)
        for ours, theirs in zip((dec.alpha2, dec.alpha1), ref):
            for x, y in ((ours.a, theirs.a), (ours.b, theirs.b), (ours.c, theirs.c),
                         (ours.d, theirs.d)):
                assert np.abs(np.array(x) - np.array(y)).max(initial=0.0) < 1e-13
