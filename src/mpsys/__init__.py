"""Multiparametric discrete-time linear systems over C^n.

Conservative scattering realizations, transfer-function evaluation and
expansion, cascade connection and decomposition, factorization of
operator-valued functions with a multiple zero at the origin, and
property-based testing of Agler-Schur class membership on the polydisk.
"""

from .subspaces import (
    Subspace,
    SubspaceError,
    is_invariant,
    orthonormal_basis,
    projector_distance,
    subspace_sum,
)
from .systems import (
    ConservativityError,
    ConservativityReport,
    DissipativityVerdict,
    MultiSystem,
    PolyGerm,
    ResolventError,
    SystemShapeError,
    adjoint,
    closely_connected_subspace,
    compress_to,
    is_conservative,
    is_dissipative_sampled,
    pencil_blocks,
    random_conservative,
    realize_germ,
    restrict_to_cc,
    sample_torus,
    scale_output,
    taylor_coefficients,
    transfer_eval,
    unitary_part,
    validate,
)
from .cascade import (
    CascadeDecomposition,
    CascadeError,
    ConditionIIResult,
    cascade,
    check_condition_ii,
    decompose,
    sample_polydisk,
    verify_factor_tf,
)
from .factorization import (
    FactorizationOutcome,
    LinearFactorChain,
    MultiplicityError,
    TailFunction,
    chain_eval,
    factor_homogeneous,
    factor_left,
    factor_right,
    invariant_subspace_candidates,
    multiplicity,
    solve_problem2,
    tail_eval,
)
from .agler import (
    AglerReport,
    ContractionTuple,
    TupleInvariantError,
    agler_test,
    eval_at_tuple,
    gen_commuting_contractions,
    validate_tuple,
)

__version__ = "0.1.0"
