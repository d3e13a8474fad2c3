"""Factorization of operator-valued functions with a multiple zero at 0.

Two families of results are implemented:

* Left/right factorizations theta(z) = zL^(1) ... zL^(m) phi(z) (and the
  mirror image with the tail on the left), where m is the multiplicity of
  the zero of theta at the origin, each zL^(j) is a homogeneous linear
  operator pencil, and phi(0) != 0.  The inductive construction unrolls to
  the closed-form chain (C, A, ..., A, [A B]) with tail
  col((I - zA)^(-1) zB, I_U).  Every Taylor degree bound comes from the
  system: the degree-j part of theta is C(z) A(z)^(j-2) B(z), and by
  Cayley-Hamilton over C[z] its parts up to degree dim_x + 1 decide
  theta = 0, and those up to degree m + dim_x decide homogeneity.
* The Agler-class factorization theta = theta2 * theta1 with both factors
  transfer functions of conservative systems, decided by the common
  invariant subspaces of the A-tuple of a closely-connected conservative
  realization that admit a cascade decomposition.  Those subspaces form a
  lattice; one invariant closure computes its least element, or shows the
  lattice empty.  A factorization is certified by its recomputed residual;
  "no cascade decomposition" is exact for this realization (for N >= 2
  realizations are not unique, so it claims nothing about others).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Optional

import numpy as np

from .cascade import (
    CascadeError,
    _split,
    check_condition_ii,
    verify_factor_tf,
)
from .subspaces import Subspace, invariant_closure
from .systems import (
    MultiSystem,
    PolyGerm,
    SystemShapeError,
    _from_pencil,
    _taylor_levels,
    adjoint,
    combine,
    pencil_blocks,
    restrict_to_cc,
    transfer_eval,
)
from .tolerances import RESIDUAL_TOL


class MultiplicityError(ValueError):
    """Raised when the declared multiplicity is inconsistent with the system."""


@dataclass(frozen=True, eq=False)
class LinearFactorChain:
    """A product z F^(1) ... z F^(m) of homogeneous linear operator pencils.

    ``factors[j]`` is an N-tuple of matrices mapping C^spaces[j+1] into
    C^spaces[j] (0-based), so the evaluated product maps C^spaces[-1] into
    C^spaces[0].
    """

    spaces: tuple
    factors: tuple

    def __post_init__(self):
        factors = tuple(
            tuple(np.asarray(m, dtype=complex) for m in tup) for tup in self.factors
        )
        spaces = tuple(int(x) for x in self.spaces)
        if len(factors) < 1:
            raise SystemShapeError("a factor chain needs at least one factor")
        if len(spaces) != len(factors) + 1:
            raise SystemShapeError("spaces list must have one more entry than factors")
        for j, tup in enumerate(factors):
            for k, m in enumerate(tup):
                if m.shape != (spaces[j], spaces[j + 1]):
                    raise SystemShapeError(
                        f"factor {j + 1}, component {k + 1} has shape {m.shape}, "
                        f"expected {(spaces[j], spaces[j + 1])}"
                    )
                if not np.isfinite(m).all():
                    raise SystemShapeError(
                        f"factor {j + 1}, component {k + 1} has non-finite entries"
                    )
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "spaces", spaces)

    @property
    def length(self) -> int:
        return len(self.factors)

    @property
    def n_params(self) -> int:
        return len(self.factors[0])


def chain_eval(chain: LinearFactorChain, z) -> np.ndarray:
    """The chain product at one point (N,) or at a stack of points (P, N)."""
    out = combine(chain.factors[0], z)
    for tup in chain.factors[1:]:
        out = out @ combine(tup, z)
    return out


@dataclass(frozen=True, eq=False)
class TailFunction:
    """phi(z) = constant + theta_vanishing(z), with phi(0) = constant != 0."""

    constant: np.ndarray
    vanishing_part: MultiSystem

    def __post_init__(self):
        constant = np.asarray(self.constant, dtype=complex)
        if np.linalg.norm(constant) == 0:
            raise MultiplicityError("tail function must not vanish at the origin")
        object.__setattr__(self, "constant", constant)


def tail_eval(tail: TailFunction, z) -> np.ndarray:
    """phi at one point (N,) or at a stack of points (P, N)."""
    return tail.constant + transfer_eval(tail.vanishing_part, z)


def multiplicity(s: MultiSystem, degree_cap: Optional[int] = None) -> Optional[int]:
    """Least total degree of a nonzero Taylor term, or None if all vanish
    up to ``degree_cap``, by default dim_x + 1.  None at a cap >= dim_x + 1
    proves theta = 0 (see the module docstring).

    The expansion stops at the first degree with a kept coefficient, so the
    cost is that of the degree returned, not of the cap.
    """
    cap = s.dim_x + 1 if degree_cap is None else degree_cap
    if cap < 1:
        raise ValueError("degree_cap must be >= 1")
    for degree, level in _taylor_levels(s, cap):
        if level:
            return degree
    return None


def _check_multiplicity(s: MultiSystem, m: int) -> None:
    """A declared multiplicity must be the one ``multiplicity`` finds."""
    if m < 1:
        raise MultiplicityError("multiplicity must be >= 1")
    found = multiplicity(s, m)
    if found != m:
        raise MultiplicityError(f"declared multiplicity {m}, but the least degree of a "
                                f"nonzero Taylor term up to {m} is {found}")


def _pencil_chain(s: MultiSystem, m: int) -> LinearFactorChain:
    """The row slices of the pencil whose product is theta's degree-m head:
    z[C D] for m = 1, and (C, A, ..., A, [A B]) for m > 1."""
    dx = s.dim_x
    g = pencil_blocks(s)
    factors = [tuple(g[:, dx:])] if m == 1 else [s.c, *[s.a] * (m - 2), tuple(g[:, :dx])]
    spaces = (s.dim_y,) + (dx,) * (m - 1) + (dx + s.dim_u,)
    return LinearFactorChain(spaces=spaces, factors=tuple(factors))


def _factor_left(s: MultiSystem, m: int) -> tuple:
    """``factor_left`` for an ``m`` already known to be theta's multiplicity.
    The tail's X rows are the system's [A_k B_k], so it takes the system's
    row-Gram constants."""
    dx, du = s.dim_x, s.dim_u
    ab = pencil_blocks(s)[:, :dx]
    zero = np.zeros((s.n_params, du, dx + du), dtype=complex)
    vanishing = _from_pencil(np.concatenate([ab, ab, zero], axis=1), dx, rows_of=s)
    tail = TailFunction(constant=np.vstack([np.zeros((dx, du)), np.eye(du)]).astype(complex),
                        vanishing_part=vanishing)
    return _pencil_chain(s, m), tail


def factor_left(s: MultiSystem, m: int) -> tuple:
    """theta(z) = zL^(1) ... zL^(m) phi(z) with phi(0) != 0.

    ``m`` must be theta's multiplicity.  For m = 1 the single factor is
    [C_k D_k]; for m > 1 the chain is (C, A, ..., A, [A B]); both are row
    slices of the pencil.  The tail is col((I - zA)^(-1) zB, I_U) in both
    cases, realized without re-expansion: its vanishing part's pencil is
    [A B] stacked twice over a zero block.
    """
    _check_multiplicity(s, m)
    return _factor_left(s, m)


def _factor_right(s: MultiSystem, m: int) -> tuple:
    """``factor_right`` for an ``m`` already known to be theta's multiplicity."""
    left_chain, left_tail = _factor_left(adjoint(s), m)
    psi = TailFunction(left_tail.constant.conj().T, adjoint(left_tail.vanishing_part))
    factors = tuple(tuple(f.conj().T for f in tup) for tup in reversed(left_chain.factors))
    return psi, LinearFactorChain(spaces=left_chain.spaces[::-1], factors=factors)


def factor_right(s: MultiSystem, m: int) -> tuple:
    """theta(z) = psi(z) zR^(m) ... zR^(1) with psi(0) != 0.

    ``m`` must be theta's multiplicity.  Obtained by factoring the adjoint
    system on the left and taking adjoints, using theta_adj(z) =
    theta(conj(z))*.  Returns (psi, chain); the chain is stored so that
    chain_eval gives zR^(m) ... zR^(1), i.e. theta(z) = tail_eval(psi, z) @
    chain_eval(chain, z).
    """
    _check_multiplicity(s, m)
    return _factor_right(s, m)


def factor_homogeneous(s: MultiSystem) -> tuple:
    """Factor a homogeneous polynomial transfer function into linear pencils.

    Returns (chain, germ): ``germ`` holds theta's Taylor coefficients, all
    of degree m, the least degree of a nonzero one.  The chain is
    ``_pencil_chain``'s with its last factor restricted to the U columns:
    (D_k) for m = 1, and (C, A, ..., A, B) for m > 1, so the product equals
    zC (zA)^(m-2) zB coefficientwise.  One pass over the Taylor levels
    finds m and proves homogeneity from the vanishing levels m + 1 ...
    m + dim_x (see the module docstring).  When the input system is
    conservative each factor pencil is contractive on the torus.
    """
    dx, du, dy = s.dim_x, s.dim_u, s.dim_y
    levels = _taylor_levels(s, 2 * dx + 1)
    m, coeffs = next(((j, level) for j, level in islice(levels, dx + 1) if level), (None, {}))
    if m is None:
        raise MultiplicityError("transfer function vanishes identically")
    # the same generator: levels m + 1 ... m + dim_x
    above = next((level for _, level in islice(levels, dx) if level), None)
    if above:
        raise MultiplicityError(f"transfer function is not homogeneous of degree {m}: "
                                f"nonzero term at {next(iter(above))}")
    head = _pencil_chain(s, m)
    factors = head.factors[:-1] + (tuple(f[:, dx:] for f in head.factors[-1]),)
    chain = LinearFactorChain(spaces=head.spaces[:-1] + (du,), factors=factors)
    return chain, PolyGerm(s.n_params, du, dy, coeffs)


def invariant_subspace_candidates(s: MultiSystem) -> list:
    """[X*]: the least element of the lattice, as one invariant closure.

    For a conservative pencil Q_k = G_k G_k* are orthogonal projections with
    sum I, and condition (ii) holds exactly when X2 (+) Y reduces every Q_k;
    the spill test of ``decompose`` then passes exactly when D = 0 and X2 is
    in the joint kernel of the B_k*, a condition inherited by subspaces.  So
    every X2 admitting a cascade decomposition contains X*, the least
    A-invariant X2 with X2 (+) Y reducing every Q_k.  Q_k is self-adjoint,
    so X2 (+) Y reduces it exactly when X2 contains the range of its XY
    block A_k C_k* + B_k D_k* and is invariant under its XX block
    A_k A_k* + B_k B_k*: X* is the closure of those ranges under the XX
    blocks and the A_k, and passes condition (i).
    """
    g = pencil_blocks(s)
    top = g[:, :s.dim_x] @ g.conj().swapaxes(1, 2)  # the X rows [XX XY] of each Q_k
    return [invariant_closure([*top[:, :, :s.dim_x], *s.a], np.hstack(top[:, :, s.dim_x:]))]


@dataclass(frozen=True, eq=False)
class FactorizationOutcome:
    """``solve_problem2``'s answer.  ``least_x2`` is X*, the witness when
    ``verdict`` is "factored"; the fields after it are set only then."""

    verdict: str
    cc_dim: int
    least_x2: Subspace
    theta2: Optional[MultiSystem] = None
    theta1: Optional[MultiSystem] = None
    intermediate_dim: Optional[int] = None
    residual: Optional[float] = None


def solve_problem2(s: MultiSystem, seed: int = 0,
                   tol: float = RESIDUAL_TOL) -> FactorizationOutcome:
    """Decide theta = theta2 * theta1 with both factors conservative, along
    the closely-connected part of ``s``.

    Restricts to the closely-connected part and tests the least element X*
    of ``invariant_subspace_candidates`` once against condition (ii) and
    the spill test of ``decompose``.  The verdict is "factored" along X*,
    with a transfer-function residual below ``tol`` at 20 points of the
    0.5-polydisk drawn with ``seed``, or "no-cascade-decomposition" when X*
    spills: then no invariant subspace of this realization admits a cascade
    decomposition (exact).  Raises CascadeError when condition (ii) fails
    at X* or the residual is not below ``tol``: numerical breakdowns.
    """
    acc = restrict_to_cc(s)  # first, and the one conservativity check condition (ii) needs
    m = multiplicity(s)
    if m is None or m <= 1:
        raise MultiplicityError(
            f"solve_problem2 requires multiplicity > 1, found {m}"
        )
    least = invariant_subspace_candidates(acc)[-1]
    cond2 = check_condition_ii(acc, least)
    if not cond2.holds:
        raise CascadeError(
            f"condition (ii) fails at the least fixed point (dim {least.dim}): "
            f"residual {cond2.residual:.3e}"
        )
    try:
        dec = _split(acc, least, cond2.intermediate)
    except CascadeError:
        return FactorizationOutcome("no-cascade-decomposition", acc.dim_x, least)
    residual = verify_factor_tf(acc, dec.alpha2, dec.alpha1, seed=seed)
    if residual >= tol:
        raise CascadeError(
            f"transfer-function residual {residual:.3e} of the decomposition "
            f"along the least fixed point is not below {tol:.3e}"
        )
    return FactorizationOutcome("factored", acc.dim_x, least, dec.alpha2, dec.alpha1,
                                dec.intermediate.dim, residual)


__all__ = [
    "MultiplicityError", "LinearFactorChain", "TailFunction",
    "FactorizationOutcome", "chain_eval", "tail_eval",
    "multiplicity", "factor_left", "factor_right",
    "factor_homogeneous", "invariant_subspace_candidates", "solve_problem2",
]
