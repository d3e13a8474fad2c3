"""Property-based falsifier for Agler-Schur class membership.

Membership quantifies over all commuting contraction tuples on all
separable Hilbert spaces, which cannot be enumerated; ``agler_test`` is
therefore strictly one-sided.  It evaluates theta at drawn points of the
closed polydisk in one batch, and certifies a candidate on its 1 x 1 tuple
with ``eval_at_tuple``, which evaluates theta(rT) exactly on any finite
commuting contraction tuple by one resolvent solve of the tensorized
realization: a norm that exceeds 1 by more than its recomputed error bound
is a certified NON-membership witness, a pass is only a failure to falsify.

Both stages take a ``MultiSystem`` (a polynomial germ enters as
``systems.realize_germ`` of it) and share one resolvent policy: the 2-norm
condition of I - zA, or of I - A_T, is at most RESOLVENT_COND_LIMIT.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .systems import (
    MultiSystem,
    ResolventError,
    _spectral_norms,
    haar_unitary,
    pencil_blocks,
    transfer_eval,
)
from .tolerances import AGLER_TOL, COMMUTATOR_TOL, CONTRACTION_TOL, RESOLVENT_COND_LIMIT


class TupleInvariantError(ValueError):
    """Raised when a tuple fails the commutation or contraction invariants."""


STRATEGIES = ("jointly-diagonal", "power-family", "scalar")


@dataclass(frozen=True, eq=False)
class ContractionTuple:
    """N pairwise-commuting contractions of a common finite dimension.

    Validated once, on construction; the stored matrices are read-only
    copies, so the invariants cannot be broken afterwards.
    """

    mats: tuple

    def __post_init__(self):
        mats = tuple(np.array(m, dtype=complex) for m in self.mats)
        for m in mats:
            m.setflags(write=False)
        object.__setattr__(self, "mats", mats)
        validate_tuple(self)

    @property
    def n_params(self) -> int:
        return len(self.mats)

    @property
    def dim(self) -> int:
        return self.mats[0].shape[0]


def validate_tuple(t: ContractionTuple) -> None:
    """Raise TupleInvariantError for the first offender: a component of the
    wrong shape or with a non-finite entry, then a component of norm above
    1 (by k), then a non-commuting pair (j, k) in lexicographic order.  All
    the 2-norms come from one batched call of ``_spectral_norms``."""
    mats = t.mats
    if not mats:
        raise TupleInvariantError("empty tuple")
    dim = mats[0].shape[0]
    for k, m in enumerate(mats):
        if m.shape != (dim, dim):
            raise TupleInvariantError(f"component {k} has shape {m.shape}")
        if not np.isfinite(m).all():
            raise TupleInvariantError(f"component {k} has non-finite entries")
    pairs = list(itertools.combinations(range(len(mats)), 2))
    norms = _spectral_norms(np.array(
        [*mats, *(mats[j] @ mats[k] - mats[k] @ mats[j] for j, k in pairs)]))
    for k, norm in enumerate(norms[:len(mats)]):
        if norm > 1.0 + CONTRACTION_TOL:
            raise TupleInvariantError(f"component {k} has norm {norm:.12f} > 1")
    for (j, k), comm in zip(pairs, norms[len(mats):]):
        if comm > COMMUTATOR_TOL:
            raise TupleInvariantError(
                f"components {j}, {k} do not commute (residual {comm:.3e})"
            )


def gen_commuting_contractions(n_params: int, dim: int, strategy: str,
                               seed: int = 0) -> ContractionTuple:
    """Generate a commuting contraction tuple.

    Strategies: 'jointly-diagonal' (a common random unitary conjugating
    random diagonal contractions -- a commuting normal family),
    'power-family' (T_k = T^k for one random, generally non-normal,
    contraction T), 'scalar' (T_k = c_k I with |c_k| <= 1).  Moduli are
    drawn with mass on |c| = 1: class violations concentrate near the
    distinguished boundary, so strictly interior draws are weak witnesses.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(seed)

    def moduli(count):
        interior = rng.uniform(0.0, 1.0, count)
        return np.where(rng.uniform(size=count) < 0.5, 1.0, interior)

    if strategy == "jointly-diagonal":
        q = haar_unitary(dim, rng)
        mats = []
        for _ in range(n_params):
            diag = moduli(dim) * np.exp(2j * np.pi * rng.uniform(size=dim))
            mats.append(q @ np.diag(diag) @ q.conj().T)
        return ContractionTuple(tuple(mats))
    if strategy == "power-family":
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        base = z / (np.linalg.norm(z, 2) * (1.0 + CONTRACTION_TOL))
        mats = []
        power = np.eye(dim, dtype=complex)
        for _ in range(n_params):
            power = power @ base
            mats.append(power)
        return ContractionTuple(tuple(mats))
    if strategy == "scalar":
        coeffs = moduli(n_params) * np.exp(2j * np.pi * rng.uniform(size=n_params))
        return ContractionTuple(tuple(c * np.eye(dim, dtype=complex) for c in coeffs))
    raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")


@dataclass(frozen=True)
class TupleEvaluation:
    value: np.ndarray
    error_bound: float


def _tensor(blocks: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """sum_k blocks[k] (x) mats[k] for stacks of shape (K, p, q) and (K, h, h).

    One broadcast forms the products np.kron forms.  They are added from
    zero in the order k = 0, 1, ..., as ``sum`` over np.kron did, so the
    result is bit-identical to it; ``ndarray.sum(0)`` would regroup the
    terms when p = q = h = 1.
    """
    _, p, q = blocks.shape
    h = mats.shape[1]
    products = blocks[:, :, None, :, None] * mats[:, None, :, None, :]
    return sum(products, np.zeros((p, h, q, h), dtype=complex)).reshape(p * h, q * h)


def eval_at_tuple(s: MultiSystem, t: ContractionTuple, r: float) -> TupleEvaluation:
    """Evaluate theta(rT) exactly.

    The tensorized realization D_T + C_T (I - A_T)^(-1) B_T with
    X_T = sum_k X_k (x) rT_k is exact because the T_k commute.  The four
    blocks are read off one tensorized pencil G_T = sum_k G_k (x) rT_k
    (``_tensor``).  The resolvent policy is ``transfer_eval``'s:
    ResolventError is raised unless the 2-norm condition of I - A_T is at
    most RESOLVENT_COND_LIMIT (a zero smallest singular value counts as
    singular), so on a 1 x 1 tuple both decide the same points.  Then
    ``error_bound`` is the forward bound
    ||C_T||_F ||B_T - (I - A_T) X||_F / sigma_min(I - A_T) on the value,
    from the residual of the computed solve X.
    """
    if not 0.0 < r < 1.0:
        raise ValueError("r must lie in (0, 1)")
    if s.n_params != t.n_params:
        raise ValueError("n_params mismatch between system and tuple")
    g_t = _tensor(pencil_blocks(s), r * np.array(t.mats))
    split = s.dim_x * t.dim  # the X rows and columns of G_T
    d_t = g_t[split:, split:]
    if s.dim_x == 0:
        return TupleEvaluation(d_t, 0.0)
    a_t, b_t, c_t = g_t[:split, :split], g_t[:split, split:], g_t[split:, :split]
    lhs = np.eye(split) - a_t
    sigma = np.linalg.svd(lhs, compute_uv=False)
    if not (sigma[-1] > 0.0 and sigma[0] <= RESOLVENT_COND_LIMIT * sigma[-1]):
        raise ResolventError(f"I - A_T is near-singular (singular values "
                             f"{sigma[0]:.3e} and {sigma[-1]:.3e})")
    x = np.linalg.solve(lhs, b_t)
    residual = float(np.linalg.norm(b_t - lhs @ x))
    bound = float(np.linalg.norm(c_t)) * residual / float(sigma[-1])
    return TupleEvaluation(d_t + c_t @ x, bound)


@dataclass(frozen=True, eq=False)
class AglerReport:
    max_norm: float
    trials: int
    witness: Optional[ContractionTuple] = None
    witness_norm: float = 0.0

    @property
    def falsified(self) -> bool:
        return self.witness is not None


def agler_test(s: MultiSystem, trials: int = 50, r: float = 0.9,
               tol: float = AGLER_TOL, seed: int = 0) -> AglerReport:
    """Try to falsify ||theta(rz)|| <= 1 at ``trials`` points z of the closed polydisk.

    Each coordinate of a point has modulus 1 with probability 1/2, else uniform
    on [0, 1), and a uniform phase.  One batched ``transfer_eval`` gives every
    norm; its resolvent guard decides which points evaluate, and
    ResolventError names the first it rejects.  Points above 1 + tol are
    re-evaluated in draw order by ``eval_at_tuple`` on their 1 x 1
    ``ContractionTuple``, whose guard accepts the same points; the first
    whose norm less its error bound exceeds 1 + tol is the certified
    witness, and ``trials`` and ``max_norm`` count the draws up to it.
    Raises ValueError for ``trials < 1`` or r outside (0, 1).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0.0 < r < 1.0:
        raise ValueError("r must lie in (0, 1)")
    interior, coin, phase = np.random.default_rng(seed).uniform(size=(3, trials, s.n_params))
    z = np.where(coin < 0.5, 1.0, interior) * np.exp(2j * np.pi * phase)
    norms = _spectral_norms(transfer_eval(s, r * z))
    for i in np.flatnonzero(norms > 1.0 + tol):
        point = ContractionTuple(tuple(z[i, :, None, None]))
        result = eval_at_tuple(s, point, r)
        norm = float(_spectral_norms(result.value))
        if norm - result.error_bound > 1.0 + tol:
            return AglerReport(max_norm=float(norms[:i + 1].max()), trials=int(i) + 1,
                               witness=point, witness_norm=norm)
    return AglerReport(max_norm=float(norms.max()), trials=trials)


__all__ = [
    "ContractionTuple", "TupleEvaluation", "AglerReport",
    "TupleInvariantError", "STRATEGIES",
    "validate_tuple", "gen_commuting_contractions", "eval_at_tuple",
    "agler_test",
]
