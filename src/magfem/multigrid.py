"""Multigrid V-cycle: geometric levels from refinement, then algebraic ones.

`refine_uniform` nests the Lagrange spaces: a coarse P_p function is a
fine P_p function, and on the base mesh (the mesh without a parent) a P1
function is a P_p function. `prolongation` is this embedding on free dofs,
exact up to rounding, so the Galerkin coarse operators P^T A P stay
symmetric positive definite and the V-cycle is a symmetric positive
definite preconditioner for conjugate gradients (Hackbusch, Multi-Grid
Methods and Applications, 1985; Bramble-Pasciak-Xu, Math. Comp. 55, 1990).
Study errors use the same operator to carry a coarse solution to the
next-finer level.

Below the base P1 space, while the operator has more than
MAX_COARSE_DOFS rows, `VCycle` adds levels by smoothed aggregation
(Vanek-Mandel-Brezina, Computing 56, 1996): strong couplings, aggregates
around a distance-2 maximal independent set (Bell-Dalton-Olson, SIAM J.
Sci. Comput. 34, 2012), and a piecewise-constant tentative prolongator
smoothed by one damped-Jacobi step. A file mesh, which has no parent,
thus gets the P_p -> P1 step and algebraic levels below it.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .femspace import _reference_nodes, _shape_values, build_space
from .mesh import child_reference_map, meshes_equal

#: Largest operator inverted densely (1.3 MB); larger ones get algebraic levels.
MAX_COARSE_DOFS = 400

#: Damped-Jacobi weight and sweeps per smoothing.
OMEGA = 0.6
SWEEPS = 2

#: Cap on lambda_max(W A) for the smoother x += W (r - A x). Saturated iron
#: makes the Hessian strongly anisotropic, and on P4 omega * lambda_max(D^-1 A)
#: then reached 4.8, where damped Jacobi diverges and the V-cycle is no longer
#: positive definite. Since diag(sum_j |a_ij|) - A is positive semidefinite,
#: W <= L1_BOUND / sum_j |a_ij| bounds lambda_max(W A) by L1_BOUND.
L1_BOUND = 1.9

#: Strength of connection: a_ij couples i and j strongly when
#: |a_ij| >= THETA * sqrt(a_ii a_jj) (Vanek-Mandel-Brezina's epsilon).
THETA = 0.08

#: Prolongator smoothing P = (I - w D^-1 A) T uses w = SA_OMEGA / rho, with
#: rho = max_i sum_j |a_ij| / a_ii, an upper bound of rho(D^-1 A).
SA_OMEGA = 4.0 / 3.0

# Multiplier of the index hash that orders aggregation roots (Knuth's
# 2^32 / golden ratio): a fixed, well-spread priority, so aggregates are
# bit-identical from build to build.
_HASH = 2654435761

# Coarse shape values below this are rounding noise at a zero of the shape
# function; the nonzero values at fine nodes are rationals far above it.
_ZERO = 1e-12


def prolongation(fine, coarse):
    """Free-dof matrix mapping coarse coefficients to the same fine function.

    The one coarse-to-fine operator, for multigrid levels and study error
    references. On different meshes, fine.mesh must be `refine_uniform` of
    a mesh equal to coarse.mesh (ValueError otherwise). Each fine dof's
    node is located in one host element, mapped into the coarse element
    containing it (parent 4t+c -> t through child c's reference map after a
    refinement, the same element otherwise), and the coarse shape functions
    are evaluated there.
    """
    refined = fine.mesh is not coarse.mesh
    parent = fine.mesh.parent
    if refined and (parent is None or not meshes_equal(parent, coarse.mesh)):
        raise ValueError("fine mesh is not a uniform refinement of the coarse mesh")
    nl = fine.n_local
    _, first = np.unique(fine.conn, return_index=True)  # one host slot per dof
    elem, local = np.divmod(first, nl)
    xi = _reference_nodes(fine.degree)[local]
    if refined:
        matrix, offset = child_reference_map(elem % 4)
        elem = elem // 4
        xi = np.einsum("nij,nj->ni", matrix, xi) + offset
    vals = _shape_values(coarse.degree, xi)  # (num_dofs, coarse n_local)
    rows = np.broadcast_to(fine.free_index[:, None], vals.shape)
    cols = coarse.free_index[coarse.conn[elem]]
    keep = (rows >= 0) & (cols >= 0) & (np.abs(vals) > _ZERO)
    return sp.csr_matrix(
        (vals[keep], (rows[keep], cols[keep])), shape=(fine.n_free, coarse.n_free)
    )


def hierarchy(space):
    """Free-dof prolongations from coarser spaces into `space`, finest first.

    One P_p step per refinement down to the base mesh, the mesh without a
    parent, then P_p -> P1 on the base mesh when p > 1; `VCycle` adds
    algebraic levels below the last space. Empty, so that CG falls back
    to Jacobi, when no coarser space exists (P1 on a mesh without a
    parent) or no dof is constrained (the coarse operators would be
    singular).
    """
    if not space.constrained.any():
        return ()
    spaces = [space]
    while spaces[-1].mesh.parent is not None:
        spaces.append(build_space(spaces[-1].mesh.parent, space.degree, space.dirichlet_tags))
    if space.degree > 1:
        spaces.append(build_space(spaces[-1].mesh, 1, space.dirichlet_tags))
    return tuple(prolongation(f, c) for f, c in zip(spaces, spaces[1:]))


def _l1_row_sums(A):
    return np.add.reduceat(np.abs(A.data), A.indptr[:-1])  # no empty rows in an SPD matrix


def _smoother_weights(A):
    """Row weights W: omega / a_ii, lowered where needed so lambda_max(W A) < 2."""
    return np.minimum(OMEGA / A.diagonal(), L1_BOUND / _l1_row_sums(A))


def aggregate(A):
    """Aggregate index of every row of the SPD CSR matrix A.

    The graph joins each row to itself and to its strong couplings. Roots
    form a distance-2 maximal independent set, found in rounds: an
    undecided row whose hashed priority is the largest among the undecided
    rows within distance 2 becomes a root, and one with a root within
    distance 2 drops out. Every other row then joins the aggregate of its
    highest-priority assigned neighbour, twice, which reaches every row.
    """
    n = A.shape[0]
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    diag = A.diagonal()
    strong = (rows == A.indices) | (
        np.abs(A.data) >= THETA * np.sqrt(diag[rows] * diag[A.indices])
    )
    cols = A.indices[strong]
    starts = np.concatenate([[0], np.cumsum(np.add.reduceat(strong, A.indptr[:-1]))[:-1]])

    def neighbour_max(values):  # every row holds its diagonal, so none is empty
        return np.maximum.reduceat(values[cols], starts)

    # distinct in [0, 2^32): uint32 products wrap modulo 2^32
    priority = (np.arange(n, dtype=np.uint32) * np.uint32(_HASH)).astype(np.int64)
    state = np.ones(n, dtype=np.int64)  # 0 out, 1 undecided, 2 root
    while (undecided := state == 1).any():
        key = state << 32 | priority
        best = neighbour_max(neighbour_max(key))
        state[undecided & (best == key)] = 2
        state[undecided & (best >= 2 << 32)] = 0
    agg = np.full(n, -1, dtype=np.int64)
    roots = state == 2
    agg[roots] = np.arange(np.count_nonzero(roots))
    for _ in range(2):
        best = neighbour_max(np.where(agg >= 0, priority * n + agg, -1))
        join = (agg < 0) & (best >= 0)
        agg[join] = best[join] % n
    return agg


def aggregation_prolongation(A):
    """Smoothed-aggregation prolongator (I - w D^-1 A) T for the SPD CSR matrix A.

    T is piecewise constant on the aggregates of `aggregate(A)`.
    """
    agg = aggregate(A)
    n = A.shape[0]
    T = sp.csr_matrix((np.ones(n), agg, np.arange(n + 1)), shape=(n, int(agg.max()) + 1))
    diag = A.diagonal()
    omega = SA_OMEGA / np.max(_l1_row_sums(A) / diag)
    AT = A @ T
    AT.data *= np.repeat(omega / diag, np.diff(AT.indptr))
    return T - AT


class VCycle:
    """One V(2,2) cycle with damped Jacobi smoothing as an SPD preconditioner.

    Levels follow `prolongations`, then smoothed-aggregation prolongators
    while the operator has more than MAX_COARSE_DOFS rows. Coarse
    operators are Galerkin products P^T A P; the coarsest is solved
    exactly through the inverse of its Cholesky factor. Where aggregation
    stalls (no strong couplings left) above MAX_COARSE_DOFS rows, no dense
    matrix is formed (`coarse_inverse` is None): that operator is smoothed
    as one more level, whose coarsest "solve" is its own weighted-Jacobi
    step W r. W is SPD, so the cycle stays SPD. `matrix` must have a
    positive diagonal.
    """

    def __init__(self, matrix, prolongations):
        self.levels = []  # (A, smoother weights, P, P^T) per smoothed level; P None if stalled
        A = matrix.tocsr()
        for P in prolongations:
            A = self._coarsen(A, P)
        while A.shape[0] > MAX_COARSE_DOFS:
            P = aggregation_prolongation(A)
            if P.shape[1] == A.shape[0]:
                break  # no strong couplings left to aggregate
            A = self._coarsen(A, P)
        if A.shape[0] > MAX_COARSE_DOFS:
            # aggregation stalled: smooth this operator as one more level, with
            # no coarser one below it
            self.levels.append((A, _smoother_weights(A), None, None))
            self.coarse_inverse = None
        else:
            inv_factor = np.linalg.inv(np.linalg.cholesky(A.toarray()))
            self.coarse_inverse = inv_factor.T @ inv_factor

    def _coarsen(self, A, P):
        """Smooth on A, correct through P; returns the Galerkin operator P^T A P."""
        R = P.T.tocsr()
        self.levels.append((A, _smoother_weights(A), P, R))
        return R @ (A @ P)

    @property
    def sizes(self):
        """Rows of the operator on every level, finest first."""
        sizes = [A.shape[0] for A, _, _, _ in self.levels]
        return sizes if self.coarse_inverse is None else sizes + [self.coarse_inverse.shape[0]]

    def __call__(self, r):
        return self._cycle(0, r)

    def _cycle(self, level, r):
        if level == len(self.levels):
            return self.coarse_inverse @ r
        A, d, P, R = self.levels[level]
        x = d * r
        for _ in range(SWEEPS - 1):
            x += d * (r - A @ x)
        if P is None:  # the stalled coarsest level: its weighted-Jacobi step
            x += d * (r - A @ x)
        else:
            x += P @ self._cycle(level + 1, R @ (r - A @ x))
        for _ in range(SWEEPS):
            x += d * (r - A @ x)
        return x
