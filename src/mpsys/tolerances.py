"""Every numerical threshold of mpsys, named once; modules and CLI defaults read them here."""

RANK_TOL = 1e-9  # singular values orthonormal_basis drops, relative to 1 + the largest
GRAM_TOL = 1e-10  # Frobenius norm of Q*Q - I a Subspace basis may show
SUBSPACE_TOL = 1e-8  # invariance, containment, spill and same-subspace distances
CONSERVATIVE_TOL = 1e-10  # how far the pencil may miss unitarity / contractivity
TAYLOR_DROP_TOL = 1e-12  # norm below which a Taylor coefficient is dropped
COMMUTATOR_TOL = 1e-10  # ||T_j T_k - T_k T_j|| a commuting tuple may show
CONTRACTION_TOL = 1e-12  # norm excess over 1 of a contraction; power-family margin
RESOLVENT_COND_LIMIT = 1e12  # largest condition of I - zA (transfer_eval) and I - A_T (eval_at_tuple)
RESOLVENT_SCREEN = 1e-4  # norm-certificate margin tau: a certified point has condition <= (1 - tau) / tau
RESIDUAL_TOL = 1e-9  # transfer-function product residual (solve_problem2, --residual-tol)
AGLER_TOL = 1e-8  # excess over 1 of ||theta(rT)|| that falsifies (agler_test, --tol)
