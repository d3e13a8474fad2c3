"""Test helper: the closely-connected cascade of two conservative systems
and the two candidate subspaces the paper builds from its factors."""

import numpy as np

from mpsys.cascade import cascade
from mpsys.subspaces import Subspace, orthonormal_basis, subspace_intersection
from mpsys.systems import (
    MultiSystem,
    closely_connected_subspace,
    compress_to,
    require_conservative,
)


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
