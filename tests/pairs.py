"""Test helpers on pairs of conservative systems: the closely-connected
cascade and the two candidate subspaces the paper builds from its factors,
the executable form of "a closely connected cascade has closely connected
factors", and a grid oracle for the sup-norm of a function on the polydisk."""

import itertools
from dataclasses import dataclass
from typing import Union

import numpy as np

from mpsys.cascade import cascade
from mpsys.subspaces import Subspace, orthonormal_basis, subspace_intersection
from mpsys.systems import (
    MultiSystem,
    PolyGerm,
    closely_connected_subspace,
    compress_to,
    germ_eval,
    is_closely_connected,
    require_conservative,
    transfer_eval,
)


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
