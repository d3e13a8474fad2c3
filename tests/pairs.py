"""Test helpers: the zero and whole subspaces, how far one subspace is from
lying in another, the intersection of two subspaces and the complement of
one inside another; on pairs of conservative systems, the closely-connected
cascade and the two candidate subspaces the paper builds from its factors;
the executable form of "a closely connected cascade has closely connected
factors"; a grid oracle for the sup-norm of a
function on the polydisk; the point evaluator of a polynomial germ, the
coefficientwise expansion of a linear-factor chain, and the
Kaijser-Varopoulos triple, on which a polynomial of sup-norm 1 on
the polydisk has norm above 1; the whole-cap Taylor expansion that
``systems.taylor_coefficients`` and ``factorization.multiplicity`` are
checked against; a randomized invariant-subspace search (the
oracle the least element X* of ``invariant_subspace_candidates`` is checked
against); a conservative realization that has no cascade decomposition;
the system z^2 + z^9, inhomogeneous only above degree m + 2; the
powers (z_1 + ... + z_N)^(dim_x + 1) and block-triangular realizations of
theta = 0, which pin the exact degree caps from both sides; the
blockwise forms of the system transformations that the library writes as
products on the pencil stack; a call-counting wrapper; and a recorder of
the matrices that reach the SVD condition number."""

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Union

import numpy as np

from mpsys.agler import ContractionTuple
from mpsys.cascade import cascade
from mpsys.factorization import LinearFactorChain
from mpsys.subspaces import (
    Subspace,
    SubspaceError,
    invariant_closure,
    is_invariant,
    orthonormal_basis,
    projector_distance,
    subspace_sum,
)
from mpsys.systems import (
    MultiSystem,
    PolyGerm,
    _advance,
    _check_points,
    _kept,
    closely_connected_subspace,
    combine,
    compress_to,
    haar_unitary,
    random_conservative,
    realize_germ,
    require_conservative,
    transfer_eval,
)
from mpsys.tolerances import SUBSPACE_TOL, TAYLOR_DROP_TOL


def zero_space(ambient_dim: int) -> Subspace:
    return Subspace(ambient_dim, np.zeros((ambient_dim, 0), dtype=complex))


def whole_space(ambient_dim: int) -> Subspace:
    return Subspace(ambient_dim, np.eye(ambient_dim, dtype=complex))


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    """Intersection, computed as the complement of the sum of complements."""
    if a.ambient_dim != b.ambient_dim:
        raise SubspaceError("ambient dimension mismatch")
    eye = np.eye(a.ambient_dim, dtype=complex)
    comp_a = orthonormal_basis(eye - a.projector())
    comp_b = orthonormal_basis(eye - b.projector())
    comp_sum = subspace_sum(comp_a, comp_b)
    return orthonormal_basis(eye - comp_sum.projector())


def containment_residual(a: Subspace, b: Subspace) -> float:
    """How far ``a`` is from being a subspace of ``b``: ||(I - P_b) Q_a||."""
    if a.ambient_dim != b.ambient_dim:
        raise SubspaceError("ambient dimension mismatch")
    if a.dim == 0:
        return 0.0
    return float(np.linalg.norm(a.basis - b.projector() @ a.basis, 2))


def orthogonal_complement(a: Subspace, within: Subspace) -> Subspace:
    """Complement of ``a`` inside ``within``, i.e. b with a + b = within, a _|_ b."""
    if a.ambient_dim != within.ambient_dim:
        raise SubspaceError("ambient dimension mismatch")
    resid = containment_residual(a, within)
    if resid > SUBSPACE_TOL:
        raise SubspaceError(
            f"subspace not contained in the enclosing space (residual {resid:.3e})"
        )
    n = a.ambient_dim
    reduced = (np.eye(n, dtype=complex) - a.projector()) @ within.basis
    return orthonormal_basis(reduced)


def is_a_invariant(s: MultiSystem, x2: Subspace) -> bool:
    """Condition (i) of a cascade decomposition: X2 invariant for every A_k."""
    return all(is_invariant(a, x2) for a in s.a)


def is_closely_connected(s: MultiSystem) -> bool:
    return closely_connected_subspace(s).dim == s.dim_x


class TheoremViolationError(AssertionError):
    """A property that holds by theorem failed numerically; treated as a bug."""


def from_factorization(alpha2: MultiSystem, alpha1: MultiSystem) -> tuple:
    """Rebuild the closely-connected cascade and its candidate subspaces.

    Returns (alpha_cc, p_closure_candidate, intersection_candidate): the
    closely-connected restriction of cascade(alpha2, alpha1) together with
    the two subspaces P_{X_cc} X2 and X_cc intersect X2 (both expressed in
    the coordinates of alpha_cc); each satisfies the cascade-decomposition
    conditions (i) and (ii).
    """
    require_conservative(alpha2)
    require_conservative(alpha1)
    combined = cascade(alpha2, alpha1)
    cc = closely_connected_subspace(combined)
    acc = compress_to(combined, cc)
    dx2 = alpha2.dim_x
    x2_block = np.zeros((combined.dim_x, dx2), dtype=complex)
    x2_block[:dx2, :dx2] = np.eye(dx2)
    p_closure = orthonormal_basis(cc.basis.conj().T @ x2_block)
    inter = subspace_intersection(cc, Subspace(combined.dim_x, x2_block))
    inter_cc = orthonormal_basis(cc.basis.conj().T @ inter.basis)
    return acc, p_closure, inter_cc


@dataclass(frozen=True)
class CloseConnectednessReport:
    cascade_closely_connected: bool
    alpha2_closely_connected: bool
    alpha1_closely_connected: bool


def closcon_property_check(alpha2: MultiSystem,
                           alpha1: MultiSystem) -> CloseConnectednessReport:
    """Executable form of: cascade closely connected => both factors are.

    An implication violation would falsify the underlying theorem and is
    raised as a TheoremViolationError.
    """
    require_conservative(alpha2)
    require_conservative(alpha1)
    combined = cascade(alpha2, alpha1)
    report = CloseConnectednessReport(
        cascade_closely_connected=is_closely_connected(combined),
        alpha2_closely_connected=is_closely_connected(alpha2),
        alpha1_closely_connected=is_closely_connected(alpha1),
    )
    if report.cascade_closely_connected and not (
        report.alpha2_closely_connected and report.alpha1_closely_connected
    ):
        raise TheoremViolationError(
            f"cascade is closely connected but a factor is not: {report}"
        )
    return report


def germ_eval(g: PolyGerm, z) -> np.ndarray:
    """The polynomial at one point (N,) or at a stack of points (P, N)."""
    z = _check_points(g.n_params, z)
    out = np.zeros(z.shape[:-1] + (g.dim_y, g.dim_u), dtype=complex)
    for t, m in g.coeffs.items():
        out += np.prod(z ** np.array(t), axis=-1)[..., None, None] * m
    return out


def chain_to_germ(chain: LinearFactorChain) -> PolyGerm:
    """Coefficientwise expansion of the chain product (all terms homogeneous),
    one lattice step per factor, under the drop rule of ``_taylor_levels``."""
    frontier = {(0,) * chain.n_params: np.eye(chain.spaces[0], dtype=complex)}
    for tup in chain.factors:
        frontier = _advance(frontier, tup)
    return PolyGerm(chain.n_params, chain.spaces[-1], chain.spaces[0], _kept(frontier))


def kaijser_varopoulos() -> tuple:
    """(T, p / 5): the Kaijser-Varopoulos commuting contractions on C^5 and
    the quadratic p = sum_j z_j^2 - 2 sum_{j<k} z_j z_k, divided by its
    sup-norm 5 on the polydisk (Varopoulos, J. Funct. Anal. 16, 1974).

    With basis e, f_1, f_2, f_3, g: T_j e = f_j, T_j f_k = a_jk g and
    T_j g = 0, for the symmetric a = (1/sqrt 3)[[1, -1, -1], [-1, 1, -1],
    [-1, -1, 1]] whose rows are unit vectors.  Then p(T) e = 3 sqrt(3) g,
    so ||p(T)|| / 5 = 3 sqrt(3) / 5 > 1: von Neumann's inequality fails for
    three commuting contractions, and p / 5 is outside the Agler-Schur
    class although it is bounded by 1 on the polydisk.
    """
    a = (2.0 * np.eye(3) - 1.0) / np.sqrt(3.0)
    mats = []
    for j in range(3):
        t = np.zeros((5, 5))
        t[1 + j, 0] = 1.0
        t[4, 1:4] = a[j]
        mats.append(t)
    quadratic = {}
    for j, k in itertools.combinations_with_replacement(range(3), 2):
        index = tuple(int(i == j) + int(i == k) for i in range(3))
        quadratic[index] = np.array([[(1.0 if j == k else -2.0) / 5.0]])
    return ContractionTuple(tuple(mats)), PolyGerm(3, 1, 1, quadratic)


def polydisk_sup_norm(f: Union[PolyGerm, MultiSystem], grid_per_axis: int = 12,
                      radius: float = 0.95) -> float:
    """Max of ||theta(z)|| over a torus-scaled grid {radius * zeta}.

    For N = 1 this samples the Schur-norm criterion directly; for N >= 2
    a small value is only a necessary condition for class membership.
    All grid_per_axis**N points are evaluated in one batch.
    """
    if not 0.0 < radius < 1.0:
        raise ValueError("radius must lie in (0, 1)")
    n = f.n_params
    angles = 2.0 * np.pi * np.arange(grid_per_axis) / grid_per_axis
    ring = radius * np.exp(1j * angles)
    evaluate = germ_eval if isinstance(f, PolyGerm) else transfer_eval
    grid = np.array(list(itertools.product(ring, repeat=n)))
    return float(np.linalg.norm(evaluate(f, grid), 2, axis=(1, 2)).max())


def full_taylor_coefficients(s: MultiSystem, max_total_degree: int) -> PolyGerm:
    """Every Taylor coefficient up to the cap, expanded in one pass.

    The coefficient at t with |t| = j >= 2 sums C_{k0} A_{k1} ... B_{k_{j-1}}
    over the words with abelianization t, accumulated through prefix
    products merged by abelianization; D_k sits at t = e_k.  Coefficients
    with Frobenius norm at most ``TAYLOR_DROP_TOL`` are dropped.
    """
    if max_total_degree < 1:
        raise ValueError("max_total_degree must be >= 1")
    n = s.n_params
    unit = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    coeffs: dict = defaultdict(lambda: np.zeros((s.dim_y, s.dim_u), dtype=complex))
    for k in range(n):
        coeffs[unit[k]] = coeffs[unit[k]] + s.d[k]

    if s.dim_x > 0 and max_total_degree >= 2:
        # frontier: abelianization of (k0, ..., k_i) -> sum of C_{k0} A_{k1} ... A_{k_i}
        frontier = {unit[k]: s.c[k].copy() for k in range(n)}
        for _ in range(1, max_total_degree):
            new_frontier: dict = {}
            for t, m in frontier.items():
                for k in range(n):
                    t_k = list(t)
                    t_k[k] += 1
                    t_k = tuple(t_k)
                    coeffs[t_k] = coeffs[t_k] + m @ s.b[k]
                    if sum(t_k) <= max_total_degree - 1:
                        if t_k in new_frontier:
                            new_frontier[t_k] = new_frontier[t_k] + m @ s.a[k]
                        else:
                            new_frontier[t_k] = m @ s.a[k]
            frontier = new_frontier

    kept = {t: m for t, m in coeffs.items() if np.linalg.norm(m) > TAYLOR_DROP_TOL}
    return PolyGerm(n, s.dim_u, s.dim_y, kept)


def taylor_test_systems() -> list:
    """(label, system, multiplicity) triples that exercise every branch of
    the expansion; the multiplicity is that of theta up to degree dim_x + 2.

    Cascades with N = 1-3 (D = 0, multiplicity 2); realized germs with N = 2
    whose lowest nonzero degree is 1-4; a conservative system with D != 0; a
    stateless one; and one with B = 0, whose transfer function vanishes.
    """
    rng = np.random.default_rng(71)
    out = [(f"cascade N={n}", cascade(random_conservative(n, 3, 3, 3, seed=70 + n),
                                      random_conservative(n, 3, 3, 3, seed=80 + n)), 2)
           for n in (1, 2, 3)]
    for low in (1, 2, 3, 4):
        indices = [t for t in itertools.product(range(5), repeat=2)
                   if low <= sum(t) <= min(low + 1, 4)]
        coeffs = {t: rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
                  for t in indices}
        out.append((f"germ low={low}", realize_germ(PolyGerm(2, 1, 2, coeffs)), low))
    out.append(("conservative D != 0", random_conservative(2, 4, 2, 2, seed=73), 1))
    out.append(("stateless", random_conservative(2, 0, 2, 2, seed=74), 1))
    a = [0.4 * rng.standard_normal((3, 3)) for _ in range(2)]
    c = [rng.standard_normal((2, 3)) for _ in range(2)]
    out.append(("B = 0", MultiSystem(a=a, b=[np.zeros((3, 2))] * 2, c=c,
                                     d=[np.zeros((2, 2))] * 2), None))
    return out


def search_stream(s: MultiSystem, seed: int):
    """The randomized candidate stream, generated only as it is consumed.

    {0}; the distinct Krylov closures (under all A_k) of eigenvectors of 3
    random combinations of the A_k and of 4 random vectors, stably sorted by
    dimension; then, round by round, each pairwise sum of the subspaces found
    so far as soon as it is new.  Equal dimension and projector distance
    < ``SUBSPACE_TOL`` count as the same subspace; every candidate passes
    condition (i).
    """
    dx, n = s.dim_x, s.n_params
    known = [zero_space(dx)]
    yield known[0]
    if dx == 0:
        return
    rng = np.random.default_rng(seed)

    def add(space: Subspace) -> bool:
        if any(k.dim == space.dim and projector_distance(k, space) < SUBSPACE_TOL
               for k in known):
            return False
        known.append(space)
        return True

    for _ in range(3):
        coeff = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        _, vecs = np.linalg.eig(combine(s.a, coeff))
        for i in range(vecs.shape[1]):
            add(invariant_closure(s.a, vecs[:, i:i + 1]))
    for _ in range(4):
        add(invariant_closure(s.a, rng.standard_normal((dx, 1))
                              + 1j * rng.standard_normal((dx, 1))))
    yield from (c for c in sorted(known[1:], key=lambda c: c.dim)
                if is_a_invariant(s, c))

    # Each round sums, in lexicographic order, only the pairs with a member
    # found since the previous round: a pair summed before would only
    # reproduce a known or rejected sum.
    summed = 0
    while summed < len(known):
        size = len(known)
        for i in range(size):
            for j in range(max(i + 1, summed), size):
                a, b = known[i], known[j]
                merged = subspace_sum(a, b)
                if (merged.dim not in (a.dim, b.dim) and add(merged)
                        and is_a_invariant(s, merged)):
                    yield merged
        summed = size


def search_candidates(s: MultiSystem, budget: int, seed: int) -> list:
    """The first ``budget`` candidates of ``search_stream``."""
    return list(itertools.islice(search_stream(s, seed), budget))


def irreducible_realization(dim_x: int, seed: int) -> MultiSystem:
    """A conservative N = 2 system with dim_u = dim_y = 1 and D = 0.

    G_k = P_k W on C^(dim_x + 1), where P_1 projects onto a Haar-random
    2-plane, P_2 = I - P_1, and W is unitary with W e_u orthogonal to e_y
    and to P_1 e_y (e_u = e_y is the last coordinate), which makes both
    D_k = 0.  For dim_x >= 3 (checked for seeds 0-4) the least element X*
    of ``invariant_subspace_candidates`` is the whole state space and
    spills into the input space, so the realization has no cascade
    decomposition; for dim_x = 2 it has one.
    """
    n = dim_x + 1
    rng = np.random.default_rng(seed)
    plane = haar_unitary(n, rng)[:, :2]
    p1 = plane @ plane.conj().T
    e_y = np.eye(n)[:, -1]
    avoid = orthonormal_basis(np.column_stack([e_y, p1 @ e_y]))
    w = haar_unitary(n, rng)
    last = w[:, -1] - avoid.projector() @ w[:, -1]
    q, _ = np.linalg.qr(np.column_stack([last, w[:, :-1]]))  # q[:, 0] spans last
    w = np.roll(q, -1, axis=1)
    blocks = [p1 @ w, (np.eye(n) - p1) @ w]
    return MultiSystem(a=[g[:dim_x, :dim_x] for g in blocks],
                       b=[g[:dim_x, dim_x:] for g in blocks],
                       c=[g[dim_x:, :dim_x] for g in blocks],
                       d=[g[dim_x:, dim_x:] for g in blocks])


def z2_plus_z9() -> MultiSystem:
    """N = 1, dim_x = 8: A the shift, B = e_1 and C = e_1* + e_8*, so
    theta = z^2 + z^9.  The z^9 term lies above degree m + 2 = 4 and within
    the exact homogeneity cap m + dim_x = 10."""
    e = np.eye(8)
    return MultiSystem(a=[np.eye(8, k=-1)], b=[e[:, :1]], c=[e[:1] + e[7:]],
                       d=[np.zeros((1, 1))])


def shift_power(n_params: int, dim_x: int) -> MultiSystem:
    """Every A_k the shift, B_k = e_1 and C_k = e_dim_x*, so theta =
    (z_1 + ... + z_N)^(dim_x + 1): its only nonzero part has the degree
    dim_x + 1 of the exact zero test.  z^9 is ``shift_power(1, 8)``."""
    e = np.eye(dim_x)
    return MultiSystem(a=[np.eye(dim_x, k=-1)] * n_params, b=[e[:, :1]] * n_params,
                       c=[e[-1:]] * n_params, d=[np.zeros((1, 1))] * n_params)


def block_triangular_zero(n_params: int, dim_a: int, dim_b: int, seed: int) -> MultiSystem:
    """theta = 0 with X = X_a (+) X_b: B_k maps into X_a, C_k reads X_b only,
    and A_k has no X_a -> X_b block, so no word C A ... A B reaches X_b.
    Random complex blocks elsewhere, D = 0, dim_u = 2 and dim_y = 3."""
    rng = np.random.default_rng(seed)
    dx = dim_a + dim_b

    def blocks(rows, cols):
        return [rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
                for _ in range(n_params)]

    a = blocks(dx, dx)
    for a_k in a:
        a_k[dim_a:, :dim_a] = 0
    b = [np.vstack([b_k, np.zeros((dim_b, 2))]) for b_k in blocks(dim_a, 2)]
    c = [np.hstack([np.zeros((3, dim_a)), c_k]) for c_k in blocks(3, dim_b)]
    return MultiSystem(a=a, b=b, c=c, d=[np.zeros((3, 2))] * n_params)


def blockwise_cascade(alpha2: MultiSystem, alpha1: MultiSystem) -> MultiSystem:
    """The cascade alpha2 * alpha1 assembled block by block."""
    x2, dv, x1 = alpha2.dim_x, alpha2.dim_u, alpha1.dim_x
    du, dy = alpha1.dim_u, alpha2.dim_y
    a, b, c, d = [], [], [], []
    for k in range(alpha2.n_params):
        a.append(np.block([
            [alpha2.a[k], alpha2.b[k], np.zeros((x2, x1))],
            [np.zeros((dv, x2 + dv)), alpha1.c[k]],
            [np.zeros((x1, x2 + dv)), alpha1.a[k]],
        ]))
        b.append(np.vstack([np.zeros((x2, du)), alpha1.d[k], alpha1.b[k]]))
        c.append(np.hstack([alpha2.c[k], alpha2.d[k], np.zeros((dy, x1))]))
        d.append(np.zeros((dy, du)))
    return MultiSystem(a=a, b=b, c=c, d=d)


def blockwise_compress_to(s: MultiSystem, q: np.ndarray) -> MultiSystem:
    """(Q* A_k Q, Q* B_k, C_k Q, D_k) for an orthonormal basis Q."""
    qh = q.conj().T
    return MultiSystem(a=[qh @ a @ q for a in s.a], b=[qh @ b for b in s.b],
                       c=[c @ q for c in s.c], d=list(s.d))


def blockwise_split(s: MultiSystem, q2, qv, q1) -> tuple:
    """(alpha2, alpha1) of the cascade decomposition along the state basis
    [Q2 Qv Q1], block by block."""
    n = s.n_params
    alpha2 = MultiSystem(a=[q2.conj().T @ s.a[k] @ q2 for k in range(n)],
                         b=[q2.conj().T @ s.a[k] @ qv for k in range(n)],
                         c=[s.c[k] @ q2 for k in range(n)],
                         d=[s.c[k] @ qv for k in range(n)])
    alpha1 = MultiSystem(a=[q1.conj().T @ s.a[k] @ q1 for k in range(n)],
                         b=[q1.conj().T @ s.b[k] for k in range(n)],
                         c=[qv.conj().T @ s.a[k] @ q1 for k in range(n)],
                         d=[qv.conj().T @ s.b[k] for k in range(n)])
    return alpha2, alpha1


def blockwise_adjoint(s: MultiSystem) -> MultiSystem:
    return MultiSystem(a=[m.conj().T for m in s.a], b=[m.conj().T for m in s.c],
                       c=[m.conj().T for m in s.b], d=[m.conj().T for m in s.d])


def blockwise_scale_output(s: MultiSystem, factor: complex) -> MultiSystem:
    return MultiSystem(a=list(s.a), b=list(s.b), c=[factor * m for m in s.c],
                       d=[factor * m for m in s.d])


def blockwise_realize_germ(g: PolyGerm) -> MultiSystem:
    """The multi-index shift realization, with a stateless special case for
    degree <= 1 and one block list per operator: one slot per t with
    1 <= |t| <= d - 1, by degree and then in descending lexicographic order,
    and C_k reads coeff(t + e_k) / multinom(t + e_k) off slot t."""
    n, du, dy = g.n_params, g.dim_u, g.dim_y
    unit = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    d_blocks = [g.coeffs.get(unit[k], np.zeros((dy, du), dtype=complex)) for k in range(n)]
    degree = g.max_total_degree()
    if degree <= 1:
        return MultiSystem(a=[np.zeros((0, 0))] * n, b=[np.zeros((0, du))] * n,
                           c=[np.zeros((dy, 0))] * n, d=d_blocks)
    slots = [t for j in range(1, degree)
             for t in sorted((t for t in itertools.product(range(j + 1), repeat=n)
                              if sum(t) == j), reverse=True)]
    dx = du * len(slots)

    def rows(t):
        return slice(slots.index(t) * du, (slots.index(t) + 1) * du)

    def bump(t, k):
        return tuple(x + unit[k][i] for i, x in enumerate(t))

    a_blocks = [np.zeros((dx, dx), dtype=complex) for _ in range(n)]
    b_blocks = [np.zeros((dx, du), dtype=complex) for _ in range(n)]
    c_blocks = [np.zeros((dy, dx), dtype=complex) for _ in range(n)]
    for k in range(n):
        b_blocks[k][rows(unit[k]), :] = np.eye(du)
        for t in slots:
            if sum(t) <= degree - 2:
                a_blocks[k][rows(bump(t, k)), rows(t)] = np.eye(du)
            t_k = bump(t, k)
            if t_k in g.coeffs:
                multinom = math.factorial(sum(t_k)) // math.prod(map(math.factorial, t_k))
                c_blocks[k][:, rows(t)] = g.coeffs[t_k] / multinom
    return MultiSystem(a=a_blocks, b=b_blocks, c=c_blocks, d=d_blocks)


def same_blocks(s: MultiSystem, t: MultiSystem) -> bool:
    """Equal shapes and bit-identical blocks."""
    return all(len(x) == len(y) and all(p.shape == q.shape and p.tobytes() == q.tobytes()
                                        for p, q in zip(x, y))
               for x, y in ((s.a, t.a), (s.b, t.b), (s.c, t.c), (s.d, t.d)))


def counting(fn, counter):
    def wrapped(*args, **kwargs):
        counter.append(1)
        return fn(*args, **kwargs)
    return wrapped


def svd_guarded(monkeypatch) -> list:
    """A list that receives, from now on, each matrix whose condition
    ``np.linalg.cond`` computes (every matrix of a stack on its own).  In the
    library only ``transfer_eval`` calls it, on the points that its norm
    certificate leaves to the SVD guard."""
    sent, cond = [], np.linalg.cond

    def recording(x, *args, **kwargs):
        x = np.asarray(x)
        sent.extend(x.reshape(-1, *x.shape[-2:]))
        return cond(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cond", recording)
    return sent
