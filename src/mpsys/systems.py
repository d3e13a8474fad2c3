"""N-parametric discrete-time linear systems over finite-dimensional spaces.

A system is an N-tuple of block operators (A_k, B_k, C_k, D_k) acting on
state/input/output spaces C^dim_x, C^dim_u, C^dim_y.  Its transfer function

    theta(z) = zD + zC (I - zA)^(-1) zB,        zT := sum_k z_k T_k,

is holomorphic near z = 0 and vanishes there.  The module provides transfer
evaluation, Taylor (multi-index) expansion, conservativity and dissipativity
checks, closely-connected and unitary-part subspace extraction, a generator
of random conservative systems, and a shift realization of polynomial germs.

Every polynomial construction lives on the lattice of multi-indices t:
``_advance`` is its one step t -> t + e_k, ``_kept`` its one drop rule, and
``realize_germ`` keeps one copy of U per t with 1 <= |t| <= d - 1, so
dim_x = dim_u (C(N + d - 1, N) - 1), read off with weight t! / |t|!.

A ``MultiSystem`` stores one read-only pencil stack G_k = [[A_k, B_k],
[C_k, D_k]], of shape (N, dim_x + dim_y, dim_x + dim_u), validated once when
the system is built; ``pencil_blocks`` returns it and A_k, ..., D_k are views
into it.  Every transformation of a system (compression, adjoint, output
scaling, cascade and its decomposition, the resolvent tail) is one product
or slice assignment on the stack, adopted by ``_from_pencil``.  Both subspace
extractions are invariant closures (``subspaces.invariant_closure``) under
the adjoint-closed set {A_k, A_k*}.

The evaluators (``combine``, ``transfer_eval``) take one point of shape
(N,) or a stack of P points of shape (P, N).  A stack is evaluated in one
batch and gives a (P, rows, cols) array.  ``combine`` is one BLAS product
of the (P, N) points by the N flattened blocks, so each entry is an N-term
inner product with the classical rounding bound, in any summation order;
``transfer_eval`` takes zA, zB, zC and zD as views of that one product of
the pencil stack, turns zA into zA - I by a diagonal update, and solves
with it on the narrower side (dim_y right-hand sides when dim_u > dim_y),
subtracting where I - zA would add.  A polynomial germ is evaluated
through its realization ``realize_germ``.  The resolvent guard of
``transfer_eval`` has two steps, for every N: a bound on ||zA|| from the
moduli |z_k| and the row-Gram constants of the X rows [A_k B_k],
computed once per system, proves each point it covers well conditioned
(for a conservative pencil, or one with scaled output rows, the bound is
max_k |z_k| itself), and the SVD condition number decides only the
points it leaves.  When the cross terms G_j* G_k (j != k) are within
rounding of 0, as for a conservative pencil or any N = 1 pencil, the torus
samples of ``is_dissipative_sampled`` share one norm, from one Gram
eigenproblem.

Conservativity ("the pencil zG is unitary for every z on the unit torus") is
one exact identity: with U = sum_k G_k and P_k = G_k U*, zG is conservative
exactly when U is unitary and every P_k is an orthogonal projection, that
is, P_k* = P_k* P_k.  Then the P_k sum to UU* = I, so they are mutually
orthogonal and zG = (sum_k z_k P_k) U is unitary on the torus; conversely,
the torus Fourier coefficients of (zG)*(zG) and (zG)(zG)* make U unitary and
P_k = G_k G_k* idempotent.  ``is_conservative`` decides by the N + 1 defects
UU* - I and P_k* (I - P_k), ``unitary_part`` seeds its closure with their
ranges for the A_k, and ``cascade.check_condition_ii`` decides condition
(ii) in this form; a torus-sampling oracle in the test suite checks it.

The stacked 2-norms of the exact tests, ``is_conservative``'s defects and
the condition-(i) and (ii) residuals of ``cascade.check_condition_ii``, are
SVD norms; every other is ``_spectral_norms``: the root of the largest Gram
eigenvalue, after a power-of-two range scaling.  A Gram matrix of size 1
or 2 has that eigenvalue in closed form (the column norm's square, or
(a + d)/2 + hypot((a - d)/2, |b|)); a larger one goes to ``eigvalsh``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .subspaces import Subspace, _leading_subspace, invariant_closure
from .tolerances import (CONSERVATIVE_TOL, RANK_TOL, RESOLVENT_COND_LIMIT, RESOLVENT_SCREEN,
                         TAYLOR_DROP_TOL)


class SystemShapeError(ValueError):
    """Raised when a system's block shapes are inconsistent."""


class ResolventError(ArithmeticError):
    """Raised when I - zA is singular or numerically near-singular."""


class ConservativityError(ValueError):
    """Raised when an operation requires a conservative system and the check fails."""


@dataclass(frozen=True, eq=False)
class MultiSystem:
    """An N-parametric system (N; A, B, C, D; C^dim_x, C^dim_u, C^dim_y).

    Block shapes: A_k is dim_x x dim_x, B_k is dim_x x dim_u, C_k is
    dim_y x dim_x, D_k is dim_y x dim_u.  dim_x = 0 (stateless) is legal;
    the transfer function is then zD.

    Built once: the blocks are copied into one read-only pencil stack,
    validated, and a, b, c, d are tuples of views into it.  A pickled or
    copied system is rebuilt from its stack by ``_from_pencil``, so it
    keeps that layout.  The first ``transfer_eval`` keeps the stack's
    row-Gram constants (``_row_gram_constants``) in ``_row_gram``; a
    pickled or copied system computes them again.  A system built by
    ``_from_pencil`` with ``rows_of`` takes that system's constants instead,
    through its cache: its X rows are that system's, or its A-tuple is the
    adjoint of that system's, whose bound the same moduli give.
    """

    a: tuple
    b: tuple
    c: tuple
    d: tuple
    _pencil: np.ndarray = field(init=False, repr=False)
    _row_gram: Optional[tuple] = field(default=None, init=False, repr=False)
    _rows_of: Optional[MultiSystem] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        _adopt(self, *_assemble(self.a, self.b, self.c, self.d))

    def __reduce__(self):
        return _from_pencil, (self._pencil, self.dim_x)

    @property
    def n_params(self) -> int:
        return len(self.a)

    @property
    def dim_x(self) -> int:
        return self.a[0].shape[0]

    @property
    def dim_u(self) -> int:
        return self.d[0].shape[1]

    @property
    def dim_y(self) -> int:
        return self.d[0].shape[0]


def _assemble(*lists) -> tuple:
    """(g, dim_x): the pencil stack of the block lists a, b, c, d.  Raises
    SystemShapeError naming the first block that is not a matrix, then an
    empty or unequal list, then the first block (by k) of the wrong shape."""
    lists = [[np.asarray(m, dtype=complex) for m in mats] for mats in lists]
    for name, mats in zip("abcd", lists):
        for i, m in enumerate(mats):
            if m.ndim != 2:
                raise SystemShapeError(f"{name}[{i}] is not a matrix (ndim={m.ndim})")
    n = _n_params_of([len(mats) for mats in lists])
    (dx, _), (dy, du) = lists[0][0].shape, lists[3][0].shape
    for k in range(n):
        for name, mats, shape in zip("abcd", lists, ((dx, dx), (dx, du), (dy, dx), (dy, du))):
            if mats[k].shape != shape:
                raise SystemShapeError(f"{name}[{k}] has shape {mats[k].shape}, expected {shape}")
    g = np.empty((n, dx + dy, dx + du), dtype=complex)
    g[:, :dx, :dx], g[:, :dx, dx:], g[:, dx:, :dx], g[:, dx:, dx:] = lists
    return g, dx


def _n_params_of(lengths) -> int:
    """N of the block lists a, b, c, d of these lengths.  Raises
    SystemShapeError on an empty a-list, then on the first other list of
    another length."""
    n = lengths[0]
    if n < 1:
        raise SystemShapeError("a-list is empty; need n_params >= 1")
    for name, length in zip("bcd", lengths[1:]):
        if length != n:
            raise SystemShapeError(f"{name}-list has length {length}, expected n_params={n}")
    return n


def _adopt(s: MultiSystem, g: np.ndarray, dim_x: int) -> MultiSystem:
    """``s`` with the unshared stack ``g``, made read-only, as its pencil and
    a, b, c, d the views of its blocks, validated."""
    g.setflags(write=False)
    object.__setattr__(s, "_pencil", g)
    x, rest = slice(None, dim_x), slice(dim_x, None)
    for name, rows, cols in (("a", x, x), ("b", x, rest), ("c", rest, x), ("d", rest, rest)):
        object.__setattr__(s, name, tuple(g[:, rows, cols]))
    validate(s)
    return s


def validate(s: MultiSystem) -> None:
    """Check the stored pencil stack: n_params >= 1 and finite entries.  The
    shapes hold by construction; a failure names the first offending block."""
    if len(s._pencil) < 1:
        raise SystemShapeError("a-list is empty; need n_params >= 1")
    if not np.isfinite(s._pencil).all():
        name, k = next((name, k) for name in "abcd"
                       for k, m in enumerate(getattr(s, name)) if not np.isfinite(m).all())
        raise SystemShapeError(f"{name}[{k}] has non-finite entries")


def _check_points(n_params: int, z) -> np.ndarray:
    """One point of shape (N,) or a stack of points of shape (P, N)."""
    z = np.asarray(z, dtype=complex)
    if z.ndim not in (1, 2) or z.shape[-1] != n_params:
        raise SystemShapeError(
            f"points have shape {z.shape}, expected ({n_params},) or (P, {n_params})"
        )
    return z


def pencil_blocks(s: MultiSystem) -> np.ndarray:
    """The stack of G_k = [[A_k, B_k], [C_k, D_k]], of shape
    (N, dim_x + dim_y, dim_x + dim_u): rows X (+) Y, columns X (+) U.  The
    stack the system stores, not a copy: read-only, so a writer copies it."""
    return s._pencil


def _from_pencil(g: np.ndarray, dim_x: int, rows_of: Optional[MultiSystem] = None) -> MultiSystem:
    """The system whose pencil stack is a copy of ``g``, with state
    dimension dim_x; the blocks are views into that copy.  ``rows_of`` is a
    system whose X rows [A_k B_k] are those of ``g``, or whose A-tuple is
    the adjoint of ``g``'s: the new system takes its row-Gram constants
    (``_kept_row_gram``).  For the adjoint, ||sum_k z_k A_k*|| =
    ||sum_k conj(z_k) A_k||, which that system's bound at the same moduli
    |z_k| covers."""
    s = _adopt(object.__new__(MultiSystem), np.array(g, dtype=complex), dim_x)
    object.__setattr__(s, "_rows_of", rows_of)
    return s


def _direct_sum(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The block-diagonal matrix [[x, 0], [0, y]]."""
    out = np.zeros((x.shape[0] + y.shape[0], x.shape[1] + y.shape[1]), dtype=complex)
    out[:x.shape[0], :x.shape[1]] = x
    out[x.shape[0]:, x.shape[1]:] = y
    return out


def combine(blocks, z) -> np.ndarray:
    """sum_k z_k blocks[k] for an N-tuple of equal-shaped matrices.

    ``z`` is one point of shape (N,), giving one matrix, or a stack of
    shape (P, N), giving a (P, rows, cols) array.  The sum is one BLAS
    product, (P, N) @ (N, rows cols), of the points by the flattened blocks
    (``blocks``, say a stored pencil stack, is only read).  Each entry is an
    N-term complex inner product, so its real and imaginary parts each err
    by at most (N + 3) u sum_k |z_k| |blocks[k]| entrywise, u = eps / 2,
    whatever the order of summation and whether multiply-adds are fused
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 3.1
    and 3.6).  So each point's matrix is that of a call with that point up
    to that bound.
    """
    z = _check_points(len(blocks), z)
    g = np.asarray(blocks)
    return (z @ g.reshape(len(g), -1)).reshape(*z.shape[:-1], *g.shape[1:])


def _scaled_to_unit(x: np.ndarray) -> tuple:
    """(x / 2^e, e) with 2^e the power of two just above the largest |entry|
    of the stack: exact, and then no Gram matrix can overflow, nor the
    largest eigenvalue underflow.  Raises LinAlgError on a non-finite entry,
    as an SVD does."""
    largest = float(np.abs(x).max(initial=0.0))
    if not largest < math.inf:
        raise np.linalg.LinAlgError("matrix has non-finite entries")
    e = max(math.frexp(largest)[1], -1021)  # 2^-e stays a normal number
    return x * math.ldexp(1.0, -e), e


def _gram_roots(gram: np.ndarray, e: int) -> np.ndarray:
    """2^e sqrt(max(lambda_max, 0)) for each Hermitian matrix of a stack.

    A 1 x 1 Gram matrix is its entry; a 2 x 2 one [[a, b], [conj(b), d]]
    has lambda_max = (a + d) / 2 + hypot((a - d) / 2, |b|), two terms that
    are not negative for a Gram matrix, so the sum does not cancel; a larger
    one takes the largest eigenvalue from ``eigvalsh``.
    """
    if gram.shape[-1] == 1:
        top = gram[..., 0, 0].real
    elif gram.shape[-1] == 2:
        a, d = gram[..., 0, 0].real, gram[..., 1, 1].real
        top = 0.5 * (a + d) + np.hypot(0.5 * (a - d), np.abs(gram[..., 0, 1]))
    else:
        top = np.linalg.eigvalsh(gram).max(-1, initial=0.0)
    return np.ldexp(np.sqrt(top), e)


def _spectral_norms(x: np.ndarray) -> np.ndarray:
    """||x||_2 of a matrix, or of each matrix of a stack; 0 for an empty matrix.

    The root of the largest eigenvalue of the smaller side's Gram matrix,
    the stack scaled first by ``_scaled_to_unit``: a few n eps relative
    (Golub & Van Loan, Matrix Computations, 8.6), and cheaper than an SVD.
    When the smaller side has 1 or 2 columns that eigenvalue has a closed
    form (``_gram_roots``): the column norm's square, or that of the 2 x 2
    Gram matrix; a wider Gram matrix goes to ``eigvalsh``.
    """
    if x.shape[-2] < x.shape[-1]:
        x = x.swapaxes(-1, -2)
    x, e = _scaled_to_unit(x)
    return _gram_roots(x.conj().swapaxes(-1, -2) @ x, e)


def _row_gram_constants(s: MultiSystem) -> tuple:
    """(r, limit, w_jk for the pairs j < k in order), the constants of
    ``_norm_certified``, from the X rows R_k = [A_k B_k] of the pencil.

    r = sqrt(h) and w_jk = c_jk / h, where h is the largest absolute row sum
    of sum_k R_k R_k* and c_jk = ||R_j R_k*||_F (w = 0 when every R_k is 0);
    limit = (1 - 2 RESOLVENT_SCREEN - delta) / (1 + delta) with delta = 4
    n^3 eps, n = dim_x + dim_u + N.  They are computed on the stack scaled
    by ``_scaled_to_unit``, so h >= 1/4 there and an underflow is negligible.
    """
    n, dx = s.n_params, s.dim_x
    x, e = _scaled_to_unit(s._pencil[:, :dx])
    rows = x.reshape(n * dx, -1)  # R_1, ..., R_N stacked
    gram = (rows @ rows.conj().T).reshape(n, dx, n, dx)  # [j, :, k] = R_j R_k*
    h = float(np.abs(np.einsum("kikj->ij", gram)).sum(1).max())
    fro = np.linalg.norm(gram, axis=(1, 3))
    c = [float(fro[j, k]) for j, k in itertools.combinations(range(n), 2)]
    delta = 4 * (dx + s.dim_u + n) ** 3 * float(np.finfo(float).eps)
    limit = (1.0 - 2.0 * RESOLVENT_SCREEN - delta) / (1.0 + delta)
    return (math.ldexp(math.sqrt(h), e), limit, *(c_jk / h if h else 0.0 for c_jk in c))


def _kept_row_gram(s: MultiSystem) -> tuple:
    """``_row_gram_constants(s)``, a property of the read-only stack:
    computed on first use and kept, or taken from ``s._rows_of``, whose
    constants bound s's zA as well (``_from_pencil``), through that
    system's cache."""
    if s._row_gram is None:
        source = s._rows_of
        constants = _row_gram_constants(s) if source is None else _kept_row_gram(source)
        object.__setattr__(s, "_row_gram", constants)
    return s._row_gram


def _norm_certified(s: MultiSystem, z: np.ndarray) -> np.ndarray:
    """For each point of ``z``, True only if the computed zA - I provably
    has cond_2 < 1 / RESOLVENT_SCREEN there; ``_row_gram_constants`` decide.

    zA is the X-column block of zR = sum_k z_k R_k, R_k = [A_k B_k], so
    ||zA|| <= ||zR||, and with m = max_k |z_k|

        ||zR||^2 = ||sum_jk z_j conj(z_k) R_j R_k*||
                 <= m^2 h + sum_{j<k} 2 |z_j| |z_k| c_jk,

    since sum_k |z_k|^2 R_k R_k* <= m^2 sum_k R_k R_k* (Loewner order), the
    2-norm of a Hermitian matrix is at most its largest absolute row sum h,
    and ||R_j R_k*||_2 <= c_jk.  The root is computed as beta = r m
    sqrt(1 + 2 sum_{j<k} rho_j rho_k w_jk), rho = |z| / m (0 at z = 0), so
    no power of a point under- or overflows.  A conservative pencil has
    sum_k R_k R_k* = I and R_j R_k* = 0: h = 1, c = 0 and beta = m, whatever
    N is; scaling the output rows [C_k D_k] leaves R, so beta, unchanged.

    Rounding.  Let n = dim_x + dim_u + N, u = eps / 2, and X_k = R_k / 2^e
    the exactly scaled rows.  The computed products X_j X_k* (complex inner
    products of length dim_x + dim_u) and the N-term sum S = sum_k X_k X_k*
    err by at most 2 n u |X_j| |X_k|^T entrywise (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 3.1 and 3.6).  Since
    sum_k ||X_k||_F^2 = trace(S) <= dim_x ||S||, that is at most 2 n
    dim_x^(3/2) u ||S|| in the row-sum norm; the row sum adds (n + 2) u and
    each Frobenius sum (dim_x^2 + 2) u relative; the errors of the cross
    terms add up to at most 2 n u (sum_k |z_k| ||X_k||_F)^2 <= 2 n N dim_x
    u m^2 ||S||; forming r, w and beta adds (N^2 + 8) u.  So the computed
    beta is below the exact bound by a relative 3 n^3 eps at most.  The
    formed zA is a block of ``combine``'s one BLAS product: each entry is an
    N-term complex inner product, whose real and imaginary parts err by at
    most (N + 3) u sum_k |z_k| |A_k| in any summation order, fused or not
    (Higham, 3.1 and 3.6).  So zA errs by at most sqrt(2) (N + 3) u
    sum_k |z_k| |A_k| entrywise, at most sqrt(2) (N + 3) sqrt(N dim_x) u
    beta in 2-norm, and the formed M = zA - I, the negated I - zA that
    ``transfer_eval`` solves with, by a further sqrt(dim_x) u (1 + beta): its
    off-diagonal is zA's, exactly, and each diagonal entry is one
    subtraction.  An underflow (of r, of |z_k| or of a product) adds at
    most N^2 2^-1074 max(r, m) < 4 N^2 eps absolutely.  So the formed M is
    -(I - E) with ||E|| <= b = beta (1 + delta) + delta, delta = 4 n^3 eps,
    which covers all of these with room (the rounding of limit included),
    and beta <= limit gives b <= 1 - 2 tau, tau = RESOLVENT_SCREEN: the
    singular values of I - E, so of M, lie in [1 - b, 1 + b] and cond_2 <=
    (1 + b) / (1 - b) <= (1 - tau) / tau.  A non-finite point gives a nan
    or inf beta and fails.
    """
    r, limit, *weights = _kept_row_gram(s)
    moduli = np.abs(z)
    m = moduli.max(-1)
    beta = r * m
    if weights:
        rho = moduli / np.maximum(m, np.finfo(float).smallest_subnormal)[..., None]
        pairs = zip(itertools.combinations(range(s.n_params), 2), weights)
        cross = sum(rho[..., j] * rho[..., k] * w for (j, k), w in pairs)
        beta = beta * np.sqrt(1.0 + 2.0 * cross)
    return beta <= limit


def transfer_eval(s: MultiSystem, z) -> np.ndarray:
    """theta(z) = zD + zC (I - zA)^(-1) zB; for dim_x = 0 just zD.

    ``z`` is one point of shape (N,), giving one matrix, or a stack of
    shape (P, N), giving a (P, dim_y, dim_u) array from one batched solve.
    Raises ``ResolventError`` at the first point where I - zA is not finite
    or its 2-norm condition exceeds RESOLVENT_COND_LIMIT.  The guard has
    two steps, for every N: ``_norm_certified`` proves each point it covers
    far below the limit from the moduli |z_k| and the system's row-Gram
    constants, computed on its first call and kept; the SVD condition
    decides only the points it leaves.  A certified point is one the SVD
    guard accepts, so the points rejected, their indices in the stack and
    their condition estimates are those of the SVD guard alone.

    zG is formed by one ``combine``; zA, zB, zC and zD are views of it, and
    M = zA - I overwrites zA by subtracting 1 from its diagonal alone, so
    theta(z) = zD - zC M^(-1) zB.  The solve runs on the narrower side: with
    dim_u > dim_y, zC M^(-1) comes first, from the transposed system with
    dim_y right-hand sides, and then meets zB; else M^(-1) zB is solved
    with dim_u right-hand sides.

    The values are those of solving with the formed I - zA, bit for bit up
    to the sign of an exact zero.  M's off-diagonal is zA's and its diagonal
    is fl(zA_ii - 1) = -fl(1 - zA_ii), since rounding to nearest is
    symmetric in sign; so M is the negated I - zA but for signed zeros
    (I - zA has +0 wherever zA has +-0).  LU with partial pivoting picks
    the same rows of -M as of M, by modulus, with the same multipliers and
    -U, so the solve returns the negated solution, and subtracting it adds
    what I - zA's would.  A sign of zero can still differ where a value is
    0, as at z = 0, since an exact cancellation rounds to +0 whatever the
    signs of its operands.  The SVD guard sees M as it would I - zA: the
    condition of -M is that of M.
    """
    z = _check_points(s.n_params, z)
    dx = s.dim_x
    zg = combine(pencil_blocks(s), z)
    if dx == 0:
        return zg
    x, rest = slice(None, dx), slice(dx, None)
    m, zb, zc, zd = zg[..., x, x], zg[..., x, rest], zg[..., rest, x], zg[..., rest, rest]
    np.einsum("...ii->...i", m)[...] -= 1.0  # zA becomes M = zA - I, through a diagonal view
    uncertified = np.flatnonzero(~_norm_certified(s, z))
    if uncertified.size:
        # a non-finite matrix gets condition nan: the SVD would not converge
        stack = m.reshape(-1, dx, dx)[uncertified]
        finite = np.isfinite(stack).all(axis=(1, 2))
        cond = np.full(len(stack), np.nan)
        cond[finite] = np.linalg.cond(stack[finite])
        bad = np.flatnonzero(~(cond <= RESOLVENT_COND_LIMIT))
        if bad.size:
            i = uncertified[bad[0]]
            raise ResolventError(
                f"I - zA is near-singular at point {i} "
                f"(z = {np.atleast_2d(z)[i]}, condition estimate {cond[bad[0]]:.3e})"
            )
    if s.dim_u > s.dim_y:
        left = np.linalg.solve(m.swapaxes(-1, -2), zc.swapaxes(-1, -2))
        return zd - left.swapaxes(-1, -2) @ zb
    return zd - zc @ np.linalg.solve(m, zb)


@dataclass(frozen=True, eq=False)
class PolyGerm:
    """Finitely many Taylor coefficients of an operator-valued germ.

    ``coeffs`` maps multi-indices t (tuples of length n_params, entries >= 0)
    to dim_y x dim_u matrices.  Zero coefficients are absent.
    """

    n_params: int
    dim_u: int
    dim_y: int
    coeffs: dict

    def __post_init__(self):
        shape, coeffs = (self.dim_y, self.dim_u), {}
        for t, m in self.coeffs.items():
            t = tuple(int(x) for x in t)
            if len(t) != self.n_params or any(x < 0 for x in t):
                raise SystemShapeError(f"bad multi-index {t} for n_params={self.n_params}")
            m = coeffs[t] = np.asarray(m, dtype=complex)
            if m.shape != shape:
                raise SystemShapeError(f"coefficient at {t} has shape {m.shape}, expected {shape}")
        # one stacked copy, checked at once; an exactly zero coefficient is dropped
        stack = np.array([*coeffs.values()]) if coeffs else np.empty((0, *shape), dtype=complex)
        finite = np.isfinite(stack).all(axis=(1, 2))
        if not finite.all():
            t = [*coeffs][np.argmin(finite)]
            raise SystemShapeError(f"coefficient at {t} has non-finite entries")
        kept = zip(coeffs, stack, stack.any(axis=(1, 2)))
        object.__setattr__(self, "coeffs", {t: m for t, m, nonzero in kept if nonzero})

    def min_total_degree(self) -> Optional[int]:
        if not self.coeffs:
            return None
        return min(sum(t) for t in self.coeffs)

    def max_total_degree(self) -> int:
        if not self.coeffs:
            return 0
        return max(sum(t) for t in self.coeffs)


def _unit(n: int, k: int) -> tuple:
    """The multi-index e_k of length n."""
    return tuple(int(i == k) for i in range(n))


def _bump(t: tuple, k: int) -> tuple:
    """The multi-index t + e_k."""
    t_k = list(t)
    t_k[k] += 1
    return tuple(t_k)


def _advance(frontier: dict, blocks) -> dict:
    """One step on the multi-index lattice: {t + e_k: sum of m @ blocks[k]}
    over the (t, m) of ``frontier``, the products added in frontier order
    with k inner, and the new indices in the order they are first reached."""
    out: dict = {}
    for t, m in frontier.items():
        for k, block in enumerate(blocks):
            t_k = _bump(t, k)
            out[t_k] = out[t_k] + m @ block if t_k in out else m @ block
    return out


def _kept(coeffs: dict) -> dict:
    """The coefficients whose Frobenius norm is above TAYLOR_DROP_TOL: the
    one drop rule of every expansion."""
    return {t: m for t, m in coeffs.items() if np.linalg.norm(m) > TAYLOR_DROP_TOL}


def _taylor_levels(s: MultiSystem, max_total_degree: int):
    """Yield (j, {t: coefficient}) for j = 1, 2, ... up to the cap, where the
    dict holds the kept Taylor coefficients of total degree j (``_kept``),
    in the order they are first reached.

    Level j is complete once the frontier of degree j - 1 has been
    multiplied by the B_k, so a consumer that stops early pays only for the
    levels it read; the frontier of degree j is formed only when level
    j + 1 is requested.
    """
    n = s.n_params
    zero = np.zeros((s.dim_y, s.dim_u), dtype=complex)
    yield 1, _kept({_unit(n, k): zero + s.d[k] for k in range(n)})
    if s.dim_x == 0:
        return
    # frontier: abelianization of (k0, ..., k_i) -> sum of C_{k0} A_{k1} ... A_{k_i}
    frontier = {_unit(n, k): s.c[k] for k in range(n)}
    for j in range(2, max_total_degree + 1):
        if j > 2:
            frontier = _advance(frontier, s.a)
        yield j, _kept(_advance(frontier, s.b))


def taylor_coefficients(s: MultiSystem, max_total_degree: int) -> PolyGerm:
    """Taylor coefficients of theta_s up to the given total degree.

    The coefficient at multi-index t with |t| = j >= 2 is the sum of
    C_{k0} A_{k1} ... A_{k_{j-2}} B_{k_{j-1}} over all words with
    abelianization t; D_k contributes at t = e_k.  Words are accumulated
    with prefix products merged by abelianization, so the cost is polynomial
    in the degree rather than N^degree.  The coefficients are collected from
    the level generator ``_taylor_levels``, one total degree at a time.
    """
    if max_total_degree < 1:
        raise ValueError("max_total_degree must be >= 1")
    coeffs: dict = {}
    for _, level in _taylor_levels(s, max_total_degree):
        coeffs.update(level)
    return PolyGerm(s.n_params, s.dim_u, s.dim_y, coeffs)


@dataclass(frozen=True)
class ConservativityReport:
    is_conservative: bool
    worst_residual: float
    failing: Optional[int] = None  # the k of the worst P_k defect; None when UU* - I is worst


def _conservativity_defects(g: np.ndarray) -> np.ndarray:
    """The defects of the (U, P_k) identity (module docstring) of the pencil
    sum_k z_k G_k of the stack ``g``: a stack of N + 1 square matrices.

    Row 0 is UU* - I, U = sum_k G_k; row 1 + k is P_k* (I - P_k), P_k =
    G_k U*.  The pencil is unitary on the torus exactly when all of them
    vanish.  A wide stack is taken as its transpose, the pencil (zG)^T,
    unitary exactly when zG is, so the rows are the taller side and a
    non-square pencil has ||UU* - I|| >= 1 (UU* is singular).
    """
    if g.shape[1] < g.shape[2]:
        g = g.swapaxes(1, 2)
    u = g.sum(0)
    p = g @ u.conj().T
    ph = p.conj().swapaxes(1, 2)
    return np.concatenate([(u @ u.conj().T - np.eye(len(u)))[None], ph - ph @ p])


def is_conservative(s: MultiSystem, tol: float = CONSERVATIVE_TOL) -> ConservativityReport:
    """Exact conservativity test: the 2-norms of the N + 1 defects of the
    (U, P_k) identity (``_conservativity_defects``), from one batched SVD,
    are all at most ``tol``.  The worst is the first largest, in row order."""
    residuals = np.linalg.svd(_conservativity_defects(pencil_blocks(s)), compute_uv=False)[:, 0]
    first = int(np.argmax(residuals))
    worst = float(residuals[first])
    return ConservativityReport(worst <= tol, worst, first - 1 if first else None)


def require_conservative(s: MultiSystem) -> ConservativityReport:
    report = is_conservative(s)
    if not report.is_conservative:
        raise ConservativityError(
            f"system is not conservative (worst residual {report.worst_residual:.3e})"
        )
    return report


def _primes(n: int) -> list:
    """The first ``n`` primes."""
    primes = []
    candidate = 2
    while len(primes) < n:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def sample_torus(n_params: int, count: int, seed: int = 0) -> np.ndarray:
    """``count`` quasi-random points on the N-torus (scrambled Halton angles).

    The angles are the randomized Halton sequence of Owen, "A randomized
    Halton algorithm in R" (arXiv:1706.02808, 2017), and reproduce scipy's
    scrambled ``qmc.Halton(d=n_params, seed=seed).random(count)`` bit for
    bit.  Coordinate k uses the k-th prime b and ceil(54 / log2 b) - 1
    permutations of range(b), drawn from ``default_rng(seed)`` one row after
    another (``permuted`` along the rows draws the stream of one ``shuffle``
    per row).  Point i is sum_j perm_j[digit_j(i)] w_j, where digit_j is the
    j-th base-b digit, w_0 = 1/b and each later weight is the previous one
    divided by b; the terms are added in digit order (a sequential
    ``cumsum``, not the pairwise ``sum``), so the rounding is scipy's.  Only
    the digits that an i < count can have are computed: the higher ones are
    0, so their terms perm_j[0] w_j form one row, broadcast over the points.
    """
    rng = np.random.default_rng(seed)
    unit = np.empty((count, n_params))
    for k, base in enumerate(_primes(n_params)):
        n_digits = math.ceil(54 / math.log2(base)) - 1
        perms = rng.permuted(np.tile(np.arange(base), (n_digits, 1)), axis=1)
        weights = np.divide.accumulate(np.r_[1.0 / base, np.full(n_digits - 1, float(base))])
        low = 0  # i < count <= base^low: the digits from low on are all 0
        while low < n_digits and base ** low < count:
            low += 1
        terms = np.empty((count, n_digits))
        digits = np.arange(count)[:, None] // base ** np.arange(low) % base
        terms[:, :low] = perms[np.arange(low), digits] * weights[:low]
        terms[:, low:] = perms[low:, 0] * weights[low:]
        unit[:, k] = np.cumsum(terms, axis=1)[:, -1]
    angles = 2.0 * np.pi * unit
    return np.exp(1j * angles)


@dataclass(frozen=True)
class DissipativityVerdict:
    passed: bool
    max_norm: float
    witness: Optional[np.ndarray] = None


def is_dissipative_sampled(s: MultiSystem, n_samples: int = 100,
                           tol: float = CONSERVATIVE_TOL,
                           seed: int = 0) -> DissipativityVerdict:
    """Necessary-condition check: ||zG|| <= 1 + tol at sampled torus points.

    A fail comes with a witness point; a pass is not a proof (the sup over
    the torus is only sampled).  The witness is the first sampled point
    above 1 + tol, whose norm is the largest up to it.  With S = sum_k
    G_k* G_k, Weyl's inequality puts every sample's ||zG||^2 within delta =
    sum_{j != k} ||G_j* G_k||_F of lambda_max(S).  When delta is within the
    rounding allowance 4 (N^2 + m) eps max_i S_ii (``_sampled_norms``), as
    for a conservative pencil or any N = 1 pencil, every norm is max_k |z_k|
    sqrt(lambda_max(S)), one Gram eigenproblem; otherwise each sample's Gram
    matrix is formed and solved.  Raises ValueError for ``n_samples < 1``:
    no sample would pass vacuously.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    points = sample_torus(s.n_params, n_samples, seed)
    norms = _sampled_norms(pencil_blocks(s), points)
    over = np.flatnonzero(norms > 1.0 + tol)
    if over.size == 0:
        return DissipativityVerdict(True, float(norms.max()), None)
    i = over[0]
    return DissipativityVerdict(False, float(norms[i]), points[i])


def _sampled_norms(g: np.ndarray, points: np.ndarray) -> np.ndarray:
    """||zG|| at each point of the torus, zG = sum_k z_k g[k], from the m x m
    Gram blocks G_j* G_k of the smaller side, scaled as in ``_spectral_norms``.

    On the torus (zG)*(zG) = S + C(z), S = sum_k G_k* G_k and C(z) =
    sum_{j != k} conj(z_j) z_k G_j* G_k, so ||C(z)|| <= delta = sum_{j != k}
    ||G_j* G_k||_F and by Weyl's inequality every ||zG||^2 lies within delta
    of lambda_max(S).  When delta <= 4 (N^2 + m) eps s, s = max_i S_ii <=
    lambda_max(S), every norm is max_k |z_k| sqrt(lambda_max(S)), one Gram
    eigenproblem (for N = 1, delta = 0 and this is |z| ||G_1||); otherwise
    the Gram matrices of all points are one product of the (P, N^2) weights
    conj(z_j) z_k by the N^2 blocks, each solved.

    That allowance is of the order of the per-sample path's own rounding,
    from the same computed blocks.  A per-sample Gram entry is an N^2-term
    complex inner product, whose parts err by up to (N^2 + 3) u
    sum_jk |G_j* G_k| (u = eps / 2; Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., 3.1 and 3.6), a matrix at least |S|
    entrywise, so of 2-norm at least lambda_max(S); its largest eigenvalue
    is good to a few m eps relative, as in ``_spectral_norms``; and the
    moduli |z_k| = 1 + O(u) move ||zG||^2 by O(u) relative.  So that path
    fixes each ||zG||^2 only to about (N^2 + m) eps lambda_max(S), and a
    delta within four times that (s only shrinks it) keeps the shortcut
    within a small multiple of the per-sample bound.
    """
    if g.shape[1] < g.shape[2]:
        g = g.swapaxes(1, 2)  # (zG)^T = sum_k z_k G_k^T has the smaller Gram matrix
    g, e = _scaled_to_unit(g)
    n, _, m = g.shape
    blocks = g.conj().swapaxes(1, 2)[:, None] @ g[None]  # [j, k] = G_j* G_k
    total = blocks.reshape(-1, m, m)[::n + 1].sum(0)  # the G_k* G_k, added in order
    # j != k: the blocks after the first, in rows of n + 1 that each end on the diagonal
    off = blocks.reshape(-1, m, m)[1:].reshape(n - 1, n + 1, m, m)[:, :n]
    cross = np.sqrt(np.add.reduce((off.conj() * off).real, axis=(2, 3))).sum()  # Frobenius
    s = total.real.diagonal().max(initial=0.0)
    if cross <= 4 * (n * n + m) * np.finfo(float).eps * s:
        return np.abs(points).max(-1) * _gram_roots(total, e)
    weights = (points.conj()[:, :, None] * points[:, None, :]).reshape(-1, n * n)
    return _gram_roots((weights @ blocks.reshape(n * n, m * m)).reshape(-1, m, m), e)


def closely_connected_subspace(s: MultiSystem, tol: float = RANK_TOL) -> Subspace:
    """Smallest subspace containing all B_k U and C_j* Y invariant under A_k, A_k*."""
    seed_cols = np.hstack([*s.b, *(c.conj().T for c in s.c)])
    return invariant_closure(_with_adjoints(s.a), seed_cols, tol)


def _with_adjoints(ops) -> list:
    """[A_1, A_1*, ..., A_N, A_N*]: a set closed under adjoints."""
    return [m for op in ops for m in (op, op.conj().T)]


def compress_to(s: MultiSystem, sub: Subspace) -> MultiSystem:
    """Compression of the system onto a state subspace, in the subspace
    basis: the pencil (Q (+) I_Y)* G_k (Q (+) I_U)."""
    if sub.ambient_dim != s.dim_x:
        raise SystemShapeError("subspace ambient dimension does not match dim_x")
    q = sub.basis
    left = _direct_sum(q, np.eye(s.dim_y))
    right = _direct_sum(q, np.eye(s.dim_u))
    return _from_pencil(left.conj().T @ pencil_blocks(s) @ right, sub.dim)


def restrict_to_cc(s: MultiSystem) -> MultiSystem:
    """Restriction of a conservative system to its closely-connected subspace.

    The closely-connected subspace reduces every A_k and carries all of
    B_k U and C_k* Y, so the compression is again conservative and has the
    same transfer function.
    """
    require_conservative(s)
    return compress_to(s, closely_connected_subspace(s))


def unitary_part(s: MultiSystem) -> Subspace:
    """Maximal subspace reducing every A_k on which the pencil zA is unitary.

    The projector Pi onto a subspace W that reduces every A_k commutes with
    U = sum_k A_k, the P_k = A_k U* and so every defect d of the (U, P_k)
    identity of the A_k (``_conservativity_defects``).  The pencil restricted
    to W is unitary exactly when d Pi = Pi d = 0 for every d, that is, when
    W is orthogonal to the range of every d.  A
    subspace reduces every A_k exactly when its complement is invariant
    under the adjoint-closed set {A_k, A_k*}, so the answer is the
    complement of the invariant closure of the defects' ranges.
    """
    defects = _conservativity_defects(pencil_blocks(s)[:, :s.dim_x, :s.dim_x])
    outside = invariant_closure(_with_adjoints(s.a), np.hstack(defects))
    return _leading_subspace(np.eye(s.dim_x) - outside.projector(), s.dim_x - outside.dim)


def _haar_unitaries(count: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` Haar unitaries n x n, shape (count, n, n): one batched QR of
    complex Ginibre matrices (real, then imaginary part of each, drawn by one
    call of ``rng``), the phases of R's diagonal moved into Q."""
    if n == 0:
        return np.zeros((count, 0, 0), dtype=complex)
    x = rng.standard_normal((count, 2, n, n))
    q, r = np.linalg.qr((x[:, 0] + 1j * x[:, 1]) / np.sqrt(2.0))
    phases = np.diagonal(r, axis1=1, axis2=2)
    return q * (phases / np.abs(phases))[:, None, :]


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n unitary (QR of a complex Ginibre matrix)."""
    return _haar_unitaries(1, n, rng)[0]


def random_conservative(n_params: int, dim_x: int, dim_u: int, dim_y: int,
                        seed: int = 0) -> MultiSystem:
    """Random conservative system: G_k = P_k W with W Haar unitary and
    {P_k} a random orthogonal resolution of the identity on the output space.

    Requires dim_u = dim_y so that the pencil is square.
    """
    if dim_u != dim_y:
        raise SystemShapeError("random_conservative requires dim_u == dim_y")
    if n_params < 1:
        raise SystemShapeError("n_params must be >= 1")
    rng = np.random.default_rng(seed)
    n = dim_x + dim_u
    w, v = _haar_unitaries(2, n, rng)
    p = np.full(n_params, 1.0 / n_params)  # at least one column each, when there are enough
    sizes = 1 + rng.multinomial(n - n_params, p) if n >= n_params else rng.multinomial(n, p)
    g = np.empty((n_params, n, n), dtype=complex)
    offset = 0
    for k in range(n_params):
        cols = v[:, offset:offset + sizes[k]]
        offset += sizes[k]
        g[k] = cols @ (cols.conj().T @ w)
    return _from_pencil(g, dim_x)


def adjoint(s: MultiSystem) -> MultiSystem:
    """The adjoint system (A*, C*, B*, D*), whose pencil is G_k*; its
    transfer is theta(conj(z))*.  It takes s's row-Gram constants
    (``_from_pencil``)."""
    return _from_pencil(pencil_blocks(s).conj().swapaxes(1, 2), s.dim_x, rows_of=s)


def scale_output(s: MultiSystem, factor: complex) -> MultiSystem:
    """System whose transfer function is factor * theta_s: the output rows
    [C_k D_k] of the pencil scaled.  Its X rows are s's, and so are its
    row-Gram constants."""
    g = pencil_blocks(s)
    scaled = np.concatenate([g[:, :s.dim_x], factor * g[:, s.dim_x:]], axis=1)
    return _from_pencil(scaled, s.dim_x, rows_of=s)


def realize_germ(g: PolyGerm) -> MultiSystem:
    """Multi-index shift realization of a polynomial germ of total degree d.

    State space: one copy of U per multi-index t with 1 <= |t| <= d - 1
    (none when d <= 1), by degree and then in descending lexicographic
    order, so dim_x = dim_u (C(N + d - 1, N) - 1).  B_k injects U into slot
    e_k, A_k moves slot t to slot t + e_k (slots of degree d - 1 are
    annihilated), and C_k reads coeff(t + e_k) / multinom(t + e_k) off slot
    t, multinom(t) = |t|! / (t_1! ... t_N!).  That is the share of each of
    the multinom(t) words C_k0 A_k1 ... B_kj with abelianization t, so the
    Taylor expansion of the result is the germ.
    """
    if any(sum(t) == 0 for t in g.coeffs):
        raise SystemShapeError("germ has a coefficient at |t| = 0; germs must vanish at 0")
    n, du, dy = g.n_params, g.dim_u, g.dim_y
    level = dict.fromkeys(_unit(n, k) for k in range(n))
    slots: list = []
    for _ in range(g.max_total_degree() - 1):
        slots.extend(level)
        level = dict.fromkeys(_bump(t, k) for t in level for k in range(n))
    slot = {t: i for i, t in enumerate(slots)}
    dx = du * len(slots)

    def rows(t):
        return slice(slot[t] * du, (slot[t] + 1) * du)

    pencil = np.zeros((n, dx + dy, dx + du), dtype=complex)
    eye_u = np.eye(du, dtype=complex)
    for k in range(n):
        pencil[k, dx:, dx:] = g.coeffs.get(_unit(n, k), 0)
        if slots:
            pencil[k, rows(_unit(n, k)), dx:] = eye_u
        for t in slots:
            t_k = _bump(t, k)
            if t_k in slot:
                pencil[k, rows(t_k), rows(t)] = eye_u
            if t_k in g.coeffs:
                multinom = math.factorial(sum(t_k)) // math.prod(map(math.factorial, t_k))
                pencil[k, dx:, rows(t)] = g.coeffs[t_k] / multinom
    return _from_pencil(pencil, dx)


__all__ = [
    "MultiSystem", "PolyGerm", "ConservativityReport", "DissipativityVerdict",
    "SystemShapeError", "ResolventError", "ConservativityError",
    "validate", "pencil_blocks", "combine", "transfer_eval",
    "taylor_coefficients", "is_conservative",
    "require_conservative", "is_dissipative_sampled", "sample_torus",
    "closely_connected_subspace", "compress_to",
    "restrict_to_cc", "unitary_part", "haar_unitary", "random_conservative",
    "adjoint", "scale_output", "realize_germ",
]
