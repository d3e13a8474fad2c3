"""Subspace arithmetic over finite-dimensional complex spaces.

Subspaces are stored by orthonormal bases (columns of a complex matrix),
which keeps dimensions explicit and composition cheap; orthoprojectors are
derived on demand.  Every rank decision here is one rule, in one place
(``_range_basis``): an SVD keeps the singular values above
tol * (1 + the largest), with tol = ``tolerances.RANK_TOL`` by default; a
span of known dimension keeps that many (``_leading_subspace``).

Every constructor canonicalizes the returned basis (``_canonicalize``:
the pivots of a column-pivoted QR of the orthoprojector, found by
Gram-Schmidt on the rows of the basis with the largest recomputed residual
norm as pivot and the first index winning an exact tie, plus a phase fix),
so equal subspaces get the same basis up to rounding regardless of the
path that produced them.  In particular the span of coordinate vectors
comes back as those coordinate vectors, in index order, and the full space
as the identity, exactly.  ``invariant_closure`` iterates on raw SVD bases,
stops as soon as they span the whole space, and canonicalizes once, on
exit.  The module needs numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .tolerances import GRAM_TOL, RANK_TOL, SUBSPACE_TOL


class SubspaceError(ValueError):
    """Raised on invalid subspace inputs (shape, finiteness, containment)."""


def _as_complex(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise SubspaceError(f"expected a 2-d array, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise SubspaceError("matrix has non-finite entries")
    return m


def _canonicalize(q: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of range(q), q already orthonormal.

    Column j of the orthoprojector P = qq* is q c_j with c_j = q[j, :]*, and
    q preserves norms, so column-pivoted Gram-Schmidt on the c_j picks the
    pivots of a column-pivoted QR of P.  Each step takes the row with the
    largest recomputed residual norm (the first such row on an exact tie,
    where LAPACK's downdated norms may pick another) and appends its
    normalized residual to W; the basis is q W.  Each column is then turned
    so that its largest entry (the first, on a tie) is real and positive,
    and the columns are sorted stably by the row of that entry.  The full
    space (r = n) returns the identity exactly.
    """
    n, r = q.shape
    if r == n:
        return np.eye(n, dtype=complex)
    residuals = q.conj().T  # a fresh array: conj() copies
    w = np.empty((r, r), dtype=complex)
    for k in range(r):
        norms = np.sqrt((residuals.real ** 2 + residuals.imag ** 2).sum(axis=0))
        pivot = norms.argmax()
        w[:, k] = residuals[:, pivot] / norms[pivot]
        residuals -= w[:, k, None] * (w[:, k].conj() @ residuals)
    basis = q @ w
    peaks = np.argmax(np.abs(basis), axis=0)
    phases = basis[peaks, np.arange(r)]
    basis *= phases.conj() / np.abs(phases)
    # ordering the columns by the row of their largest entry restores index
    # order for coordinate-block subspaces
    return basis[:, np.argsort(peaks, kind="stable")]


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of C^ambient_dim given by an orthonormal basis.

    ``basis`` has shape (ambient_dim, dim) with orthonormal columns: the
    Frobenius norm of Q*Q - I is at most ``GRAM_TOL``.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        basis = _as_complex(self.basis)
        if basis.shape[0] != self.ambient_dim:
            raise SubspaceError(
                f"basis has {basis.shape[0]} rows, ambient dimension is {self.ambient_dim}"
            )
        if basis.shape[1] > self.ambient_dim:
            raise SubspaceError("more basis vectors than ambient dimension")
        gram_err = np.linalg.norm(basis.conj().T @ basis - np.eye(basis.shape[1]))
        if gram_err > GRAM_TOL:
            raise SubspaceError(f"basis not orthonormal (Gram residual {gram_err:.3e})")
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T


def _range_basis(m: np.ndarray, tol: float, rank: Optional[int] = None) -> np.ndarray:
    """The leading left singular vectors of m: ``rank`` of them, or, by the
    rank rule of this module, those whose singular values exceed
    ``tol * (1 + leading singular value)``."""
    if m.shape[1] == 0 or not np.any(m):
        return np.zeros((m.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u[:, :int(np.count_nonzero(s > tol * (1.0 + s[0]))) if rank is None else rank]


def _leading_subspace(m: np.ndarray, rank: Optional[int] = None,
                      tol: float = RANK_TOL) -> Subspace:
    """The canonical basis of the span of ``_range_basis(m, tol, rank)``."""
    return Subspace(m.shape[0], _canonicalize(_range_basis(m, tol, rank)))


def orthonormal_basis(vectors, tol: float = RANK_TOL) -> Subspace:
    """Orthonormal basis of the column span of ``vectors``, by the rank rule
    of ``_range_basis``."""
    return _leading_subspace(_as_complex(vectors), tol=tol)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    """Span of the union of two subspaces (the finite-dimensional closed span)."""
    if a.ambient_dim != b.ambient_dim:
        raise SubspaceError("ambient dimension mismatch")
    return orthonormal_basis(np.hstack([a.basis, b.basis]))


def is_invariant(m, s: Subspace) -> bool:
    """True iff m maps s into s: ||(I - P_s) m basis_s|| < SUBSPACE_TOL."""
    m = _as_complex(m)
    if m.shape != (s.ambient_dim, s.ambient_dim):
        raise SubspaceError(
            f"operator shape {m.shape} does not match ambient dimension {s.ambient_dim}"
        )
    if s.dim == 0:
        return True
    image = m @ s.basis
    resid = np.linalg.norm(image - s.projector() @ image, 2)
    return resid < SUBSPACE_TOL


def invariant_closure(ops, seed_cols, tol: float = RANK_TOL) -> Subspace:
    """Smallest subspace containing the columns of ``seed_cols`` and
    invariant under every operator in ``ops``.

    Grows Q to span[Q, op_1 Q, op_2 Q, ...] until the dimension stops
    growing, which takes at most ambient_dim + 1 rounds, or until Q spans
    the whole space, which every operator leaves invariant: no round runs
    to confirm it.  Q is the raw SVD basis of each round: a unitary change
    of Q leaves the singular values of [Q, op_1 Q, ...] unchanged, so every
    rank decision is that of the canonical bases, and the basis is
    canonicalized once, on exit.
    """
    ops = [_as_complex(op) for op in ops]
    q = grown = _range_basis(_as_complex(seed_cols), tol)
    for _ in range(q.shape[0] + 1):
        if q.shape[1] == q.shape[0]:
            break
        grown = _range_basis(np.hstack([q] + [op @ q for op in ops]), tol)
        if grown.shape[1] == q.shape[1]:
            break
        q = grown
    return Subspace(q.shape[0], _canonicalize(grown))


def projector_distance(a: Subspace, b: Subspace) -> float:
    if a.ambient_dim != b.ambient_dim:
        raise SubspaceError("ambient dimension mismatch")
    return float(np.linalg.norm(a.projector() - b.projector(), 2))
