"""Cascade connection and cascade decomposition of multiparametric systems.

The cascade alpha2 * alpha1 routes the output of alpha1 into alpha2 through
an intermediate space V (equal to alpha1's output and alpha2's input space);
because the systems carry a unit delay, V becomes part of the state space:
X = X2 (+) V (+) X1, and the transfer functions multiply,
theta = theta2 * theta1.

The inverse direction: a conservative system together with a subspace X2
that (i) is invariant for every A_k and (ii) has a z-independent defect
space V_z = (zG)*(X2 (+) Y) (-) X2 splits into two conservative subsystems
whose cascade reproduces the original system up to a unitary state-space
basis change.

Condition (ii) is an exact reduction identity, not a quantifier over torus
points.  A conservative pencil is G_k = P_k U, U = sum_k G_k unitary and the
P_k = G_k U* orthogonal projections summing to I (``systems`` module
docstring).  Every (zG)*(X2 (+) Y) has dimension dim X2 + dim Y and lies in
M := sum_k G_k*(X2 (+) Y) = U* sum_k P_k (X2 (+) Y), which contains
U*(X2 (+) Y), with equality exactly when X2 (+) Y reduces every P_k: when
max_k ||(I - Pi) P_k Pi|| = 0, Pi the projector onto X2 (+) Y.  For N = 1,
P_1 = I and (ii) always holds.  A torus-sampling oracle in the test suite
cross-checks this reduction.

Each space of the test and the split is computed from one basis: the
residuals of conditions (i) and (ii) are one batched SVD norm each; M is
U*(X2 (+) Y), orthonormal as it stands; V = (I - P_(X2 (+) 0)) M, of
dimension dim Y as condition (i) puts X2 (+) 0 in M, is its top dim Y left
singular vectors, canonicalized once by the split; X1, of dimension
dim X - dim X2 - dim Y, is the top left singular vectors of I - P_X2 - P_V
(X2 and V are orthogonal).  The split makes no rank decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .subspaces import Subspace, _leading_subspace
from .systems import (
    MultiSystem,
    _direct_sum,
    _from_pencil,
    _spectral_norms,
    pencil_blocks,
    require_conservative,
    transfer_eval,
)
from .tolerances import SUBSPACE_TOL


class CascadeError(ValueError):
    """Raised on incompatible spaces or failed decomposition conditions."""


def cascade(alpha2: MultiSystem, alpha1: MultiSystem) -> MultiSystem:
    """Cascade connection alpha2 * alpha1 with state space X2 (+) V (+) X1."""
    if alpha2.n_params != alpha1.n_params:
        raise CascadeError(
            f"n_params mismatch: {alpha2.n_params} vs {alpha1.n_params}"
        )
    if alpha2.dim_u != alpha1.dim_y:
        raise CascadeError(
            f"intermediate space mismatch: alpha2 input dim {alpha2.dim_u}, "
            f"alpha1 output dim {alpha1.dim_y}"
        )
    x2, dv, x1 = alpha2.dim_x, alpha2.dim_u, alpha1.dim_x
    dx, dy = x2 + dv + x1, alpha2.dim_y
    g2, g1 = pencil_blocks(alpha2), pencil_blocks(alpha1)
    g = np.zeros((alpha2.n_params, dx + dy, dx + alpha1.dim_u), dtype=complex)
    # rows X2, V, X1, Y and columns X2, V, X1, U: alpha2 maps X2 (+) V into
    # X2 (+) Y, and alpha1 maps X1 (+) U into X1 (+) V
    g[:, :x2, :x2 + dv], g[:, dx:, :x2 + dv] = g2[:, :x2], g2[:, x2:]
    g[:, x2 + dv:dx, x2 + dv:], g[:, x2:x2 + dv, x2 + dv:] = g1[:, :x1], g1[:, x1:]
    return _from_pencil(g, dx)


@dataclass(frozen=True)
class ConditionIIResult:
    holds: bool
    intermediate: Optional[Subspace]  # V = M (-) X2 in C^(dim_x + dim_u), a raw SVD basis
    residual: float  # max_k ||(I - Pi) P_k Pi||, Pi the projector onto X2 (+) Y


def _outside_norms(image: np.ndarray, p: np.ndarray) -> np.ndarray:
    """||(I - p) X||_2 for each matrix X of the stack ``image``, by SVD; 0 if X is empty."""
    return np.linalg.svd(image - p @ image, compute_uv=False).max(-1, initial=0.0)


def check_condition_ii(s: MultiSystem, x2: Subspace) -> ConditionIIResult:
    """Decide whether the defect spaces V_z coincide for all torus points z.

    Holds when the reduction residual max_k ||(I - Pi) P_k Pi|| (module
    docstring) is below SUBSPACE_TOL; V = U*(X2 (+) Y) (-) X2 is then
    returned, as a subspace of the pencil's domain X (+) U.  Raises
    CascadeError when condition (i) fails, that is, unless
    ||(I - P_X2) A_k Q|| < SUBSPACE_TOL for every k, Q the basis of X2.
    Precondition, not checked here (``decompose`` and ``solve_problem2``
    check it): ``s`` is conservative.
    """
    if x2.ambient_dim != s.dim_x:
        raise CascadeError("x2 ambient dimension does not match dim_x")
    g, dx = pencil_blocks(s), s.dim_x
    q, p = x2.basis, x2.projector()
    if not (_outside_norms(g[:, :dx, :dx] @ q, p) < SUBSPACE_TOL).all():
        raise CascadeError("condition (i) fails: x2 is not invariant for all A_k")
    m = g.sum(0).conj().T @ _direct_sum(q, np.eye(s.dim_y))  # U*(X2 (+) Y)
    # P_k Pi is G_k M on the basis of X2 (+) Y, and I - Pi keeps only its X rows
    residual = float(_outside_norms(g[:, :dx] @ m, p).max())
    if not residual < SUBSPACE_TOL:
        return ConditionIIResult(False, None, residual)
    outside = m - _direct_sum(p, np.zeros((s.dim_u,) * 2)) @ m  # (I - P_(X2 (+) 0)) M
    v = np.linalg.svd(outside, full_matrices=False)[0][:, :s.dim_y]  # _split canonicalizes it
    return ConditionIIResult(True, Subspace(len(m), v), residual)


@dataclass(frozen=True)
class CascadeDecomposition:
    alpha2: MultiSystem
    alpha1: MultiSystem
    intermediate: Subspace  # V inside the original state space
    x2: Subspace
    x1: Subspace

    @property
    def state_basis(self) -> np.ndarray:
        """Unitary [Q_x2 Q_v Q_x1] relating the cascade layout to the source."""
        return np.hstack([self.x2.basis, self.intermediate.basis, self.x1.basis])


def decompose(s: MultiSystem, x2: Subspace) -> CascadeDecomposition:
    """Split a conservative system along an invariant subspace X2.

    Requires conditions (i) and (ii); additionally the defect space V must
    be supported in the state space (automatic for the systems produced by
    cascades, where D = 0), otherwise the three-block state layout does not
    exist and a CascadeError is raised.  Raises ConservativityError first
    when ``s`` is not conservative.
    """
    require_conservative(s)
    cond2 = check_condition_ii(s, x2)
    if not cond2.holds:
        raise CascadeError(f"condition (ii) fails: residual {cond2.residual:.3e}")
    return _split(s, x2, cond2.intermediate)


def _split(s: MultiSystem, x2: Subspace, v_raw: Subspace) -> CascadeDecomposition:
    """The decomposition along X2, given the V of a condition (ii) that holds.

    Raises CascadeError only when V spills into the input space.
    """
    dx = s.dim_x
    spill = np.linalg.norm(v_raw.basis[dx:, :]) if v_raw.dim else 0.0
    if spill > SUBSPACE_TOL:
        raise CascadeError(
            f"intermediate space is not contained in the state space "
            f"(input-component norm {spill:.3e})"
        )
    v = _leading_subspace(v_raw.basis[:dx, :], s.dim_y)  # dimensions known: no rank decision
    x1 = _leading_subspace(np.eye(dx, dtype=complex) - x2.projector() - v.projector(),
                           dx - x2.dim - s.dim_y)

    q2, qv, q1 = x2.basis, v.basis, x1.basis
    g = pencil_blocks(s)
    q2v = _direct_sum(np.hstack([q2, qv]), np.zeros((s.dim_u, 0)))  # [Q2 Qv; 0]
    q1v = _direct_sum(np.hstack([q1, qv]), np.zeros((s.dim_y, 0)))  # [Q1 Qv; 0]
    alpha2 = _from_pencil(_direct_sum(q2, np.eye(s.dim_y)).conj().T @ g @ q2v, x2.dim)
    alpha1 = _from_pencil(q1v.conj().T @ g @ _direct_sum(q1, np.eye(s.dim_u)), x1.dim)
    return CascadeDecomposition(alpha2=alpha2, alpha1=alpha1,
                                intermediate=v, x2=x2, x1=x1)


def sample_polydisk(n_params: int, count: int, radius: float,
                    seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    moduli = radius * rng.uniform(0.1, 1.0, size=(count, n_params))
    phases = np.exp(2j * np.pi * rng.uniform(size=(count, n_params)))
    return moduli * phases


def verify_factor_tf(alpha: MultiSystem, alpha2: MultiSystem, alpha1: MultiSystem,
                     n_points: int = 20, radius: float = 0.5,
                     seed: int = 0) -> float:
    """Max over sampled z of ||theta_alpha(z) - theta_alpha2(z) theta_alpha1(z)||.
    Raises ValueError for ``n_points < 1``: no point would reproduce vacuously."""
    if n_points < 1:
        raise ValueError(f"n_points must be >= 1, got {n_points}")
    z = sample_polydisk(alpha.n_params, n_points, radius, seed)
    diff = transfer_eval(alpha, z) - transfer_eval(alpha2, z) @ transfer_eval(alpha1, z)
    return float(_spectral_norms(diff).max())


__all__ = [
    "CascadeError", "ConditionIIResult", "CascadeDecomposition",
    "cascade", "check_condition_ii", "decompose",
    "verify_factor_tf", "sample_polydisk",
]
