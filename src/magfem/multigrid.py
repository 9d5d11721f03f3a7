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

Since the spaces nest, P^T A P is the coarse space's assembly of the fine
bilinear form: coarse element t's matrix is sum_c Q_c^T E_c Q_c over the
fine element matrices E_c it contains, with Q_c the coarse shape values at
child c's reference nodes. `hierarchy` builds each `Level`'s tables and
coarse sparsity pattern once per solve, and the assembly kernel sums the
coarse element matrices batch by batch beside the fine ones
(`assembly.assemble_hessian` with `levels`), so no sparse matrix product
runs on the geometric levels.

Below the base P1 space, while the operator has more than
MAX_COARSE_DOFS rows, `VCycle` adds levels by smoothed aggregation
(Vanek-Mandel-Brezina, Computing 56, 1996): strong couplings, aggregates
around a distance-2 maximal independent set (Bell-Dalton-Olson, SIAM J.
Sci. Comput. 34, 2012), and a piecewise-constant tentative prolongator
smoothed by one damped-Jacobi step; their Galerkin operators are sparse
products. A file mesh, which has no parent, thus gets the P_p -> P1 step
(none for P1) and algebraic levels below it. The cap keeps the coarsest
operator small enough that numpy's inverse of its Cholesky factor costs
little. Without a constrained dof, every prolongation maps constants to
constants, so every Galerkin operator keeps the constants as its kernel
and only the coarsest solve needs care (Bochev-Lehoucq, SIAM Review 47,
2005): it factors A_c + c 1 1^T / n_c, c the mean diagonal, and the
cycle's output has its mean removed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import _csr_pattern
from .femspace import _reference_nodes, _shape_values, build_space
from .mesh import child_reference_map, meshes_equal

#: Largest operator factored densely (80 kB); larger ones get algebraic levels.
MAX_COARSE_DOFS = 100

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
    tables = _child_tables(fine, coarse)
    children = len(tables)
    _, first = np.unique(fine.conn, return_index=True)  # one host slot per dof
    elem, local = np.divmod(first, fine.n_local)
    vals = tables[elem % children, local]  # (num_dofs, coarse n_local)
    rows = np.broadcast_to(fine.free_index[:, None], vals.shape)
    cols = coarse.free_index[coarse.conn[elem // children]]
    keep = (rows >= 0) & (cols >= 0) & (vals != 0.0)
    return sp.csr_matrix(
        (vals[keep], (rows[keep], cols[keep])), shape=(fine.n_free, coarse.n_free)
    )


def _child_tables(fine, coarse):
    """Q_c, the coarse shape values at child c's fine reference nodes.

    (children, fine n_local, coarse n_local): fine element f is child
    f % children of coarse element f // children, with 4 children across a
    refinement (through `child_reference_map`) and 1 on the same mesh.
    Values at or below _ZERO are rounding noise at a zero of the shape
    function and are set to 0.
    """
    nodes = _reference_nodes(fine.degree)
    if fine.mesh is coarse.mesh:
        xi = nodes[None]
    else:
        matrix, offset = child_reference_map(np.arange(4))
        xi = np.einsum("cij,nj->cni", matrix, nodes) + offset[:, None]
    tables = _shape_values(coarse.degree, xi.reshape(-1, 2)).reshape(len(xi), len(nodes), -1)
    tables[np.abs(tables) <= _ZERO] = 0.0
    return tables


@dataclass(frozen=True, eq=False)
class Level:
    """One geometric step of `hierarchy`, from a fine space to a coarser one.

    `P` is the free-dof prolongation and `R` its transpose, both CSR.
    `tables` are the Q_c of `_child_tables`, which the assembly kernel
    applies to the fine element matrices. `slots`, `indices` and `indptr`
    are the coarse space's CSR pattern (`assembly._csr_pattern`).
    """

    P: sp.csr_matrix
    R: sp.csr_matrix
    tables: np.ndarray
    slots: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray


def _level(fine, coarse):
    # With the noise at the shape functions' zeros dropped, no free coarse dof
    # has a value at a constrained fine node (Dirichlet edges nest, and a
    # shape function vanishes on the edges its node is not on), so the
    # element matrices' constrained rows need no masking.
    P = prolongation(fine, coarse)
    return Level(P, P.T.tocsr(), _child_tables(fine, coarse), *_csr_pattern(coarse))


def hierarchy(space):
    """The geometric `Level`s below `space`, finest first.

    One P_p step per refinement down to the base mesh, the mesh without a
    parent, then P_p -> P1 on the base mesh when p > 1; `VCycle` adds
    algebraic levels below the last space. Empty for P1 on a mesh without
    a parent, where `VCycle`'s algebraic levels are the whole hierarchy.
    """
    spaces = [space]
    while spaces[-1].mesh.parent is not None:
        spaces.append(build_space(spaces[-1].mesh.parent, space.degree, space.dirichlet_tags))
    if space.degree > 1:
        spaces.append(build_space(spaces[-1].mesh, 1, space.dirichlet_tags))
    return tuple(_level(f, c) for f, c in zip(spaces, spaces[1:]))


def _l1_row_sums(A):
    return np.add.reduceat(np.abs(A.data), A.indptr[:-1])  # no empty rows in an SPD matrix


def _smoother_weights(A, diag=None):
    """Row weights W: omega / a_ii, lowered where needed so lambda_max(W A) < 2.

    `diag` is A's diagonal when the caller already has it.
    """
    if diag is None:
        diag = A.diagonal()
    return np.minimum(OMEGA / diag, L1_BOUND / _l1_row_sums(A))


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

    `operators` are the finest operator and its Galerkin operators on the
    geometric `levels` of `hierarchy`, finest first (from the assembly
    kernel). Below the last one, smoothed-aggregation levels follow while
    the operator has more than MAX_COARSE_DOFS rows, with Galerkin
    products P^T A P. The coarsest operator A = L L^T, at most
    MAX_COARSE_DOFS rows, is solved exactly as L^-T (L^-1 r), with
    `inverse_factor` = L^-1 from `np.linalg.inv`. Where aggregation stalls
    (no strong couplings left) above MAX_COARSE_DOFS rows, no dense matrix
    is formed (`inverse_factor` is None): that operator is smoothed as one
    more level, whose coarsest "solve" is its own weighted-Jacobi step W r.
    W is SPD, so the cycle stays SPD. Every operator must have a positive
    diagonal; a coarsest operator that is not positive definite raises
    np.linalg.LinAlgError. `diagonal` is the finest operator's diagonal
    when the caller already has it. A `singular` operator, whose kernel is
    the constants, gets the mean-free cycle of the module docstring.
    """

    def __init__(self, operators, levels, diagonal=None, singular=False):
        if len(operators) != len(levels) + 1:
            raise ValueError(f"{len(operators)} operators for {len(levels)} levels")
        diagonals = [diagonal] + [None] * len(levels)
        # (A, smoother weights, P, P^T) per smoothed level; P None if stalled
        self.levels = [
            (A, _smoother_weights(A, d), level.P, level.R)
            for A, d, level in zip(operators, diagonals, levels)
        ]
        A = operators[-1]
        while A.shape[0] > MAX_COARSE_DOFS:
            P = aggregation_prolongation(A)
            if P.shape[1] == A.shape[0]:
                break  # no strong couplings left to aggregate
            R = P.T.tocsr()
            self.levels.append((A, _smoother_weights(A), P, R))
            A = R @ (A @ P)
        if A.shape[0] > MAX_COARSE_DOFS:
            # aggregation stalled: smooth this operator as one more level, with
            # no coarser one below it
            self.levels.append((A, _smoother_weights(A), None, None))
            self.inverse_factor = None
        else:  # a singular A's kernel, the constants, lifted by c 1 1^T / n_c
            lift = np.mean(A.diagonal()) / A.shape[0] if singular else 0.0
            self.inverse_factor = np.linalg.inv(np.linalg.cholesky(A.toarray() + lift))
        self.singular = singular

    @property
    def sizes(self):
        """Rows of the operator on every level, finest first."""
        sizes = [A.shape[0] for A, _, _, _ in self.levels]
        return sizes if self.inverse_factor is None else sizes + [len(self.inverse_factor)]

    def __call__(self, r):
        x = self._cycle(0, r)
        return x - x.mean() if self.singular else x

    def _cycle(self, level, r):
        if level == len(self.levels):
            return self.inverse_factor.T @ (self.inverse_factor @ r)
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
