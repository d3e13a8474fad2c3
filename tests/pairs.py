"""Test helpers on pairs of conservative systems: the closely-connected
cascade and the two candidate subspaces the paper builds from its factors,
and the executable form of "a closely connected cascade has closely
connected factors"."""

from dataclasses import dataclass

import numpy as np

from mpsys.cascade import cascade
from mpsys.subspaces import Subspace, orthonormal_basis, subspace_intersection
from mpsys.systems import (
    MultiSystem,
    closely_connected_subspace,
    compress_to,
    is_closely_connected,
    require_conservative,
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
