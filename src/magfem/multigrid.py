"""Geometric multigrid V-cycle over the uniform-refinement hierarchy.

`refine_uniform` nests the Lagrange spaces: a coarse P_p function is a
fine P_p function, and on the base mesh a P1 function is a P_p function.
`prolongation` is this embedding on free dofs, exact up to rounding, so
the Galerkin coarse operators P^T A P stay symmetric positive definite
and the V-cycle is a symmetric positive definite preconditioner for
conjugate gradients (Hackbusch, Multi-Grid Methods and Applications,
1985; Bramble-Pasciak-Xu, Math. Comp. 55, 1990). Study errors use the
same operator to carry a coarse solution to the next-finer level.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .femspace import _reference_nodes, _shape_values, build_space
from .mesh import child_reference_map, meshes_equal

#: Largest base P1 space whose Galerkin operator is inverted densely (8 MB).
MAX_COARSE_DOFS = 1000

#: Damped-Jacobi weight and sweeps per smoothing.
OMEGA = 0.6
SWEEPS = 2

#: Cap on lambda_max(W A) for the smoother x += W (r - A x). Saturated iron
#: makes the Hessian strongly anisotropic, and on P4 omega * lambda_max(D^-1 A)
#: then reached 4.8, where damped Jacobi diverges and the V-cycle is no longer
#: positive definite. Since diag(sum_j |a_ij|) - A is positive semidefinite,
#: W <= L1_BOUND / sum_j |a_ij| bounds lambda_max(W A) by L1_BOUND.
L1_BOUND = 1.9

_CHILD_MAPS = [child_reference_map(c) for c in range(4)]
_CHILD_MATRIX = np.array([m for m, _ in _CHILD_MAPS])
_CHILD_OFFSET = np.array([off for _, off in _CHILD_MAPS])

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
        child = elem % 4
        elem = elem // 4
        xi = np.einsum("nij,nj->ni", _CHILD_MATRIX[child], xi) + _CHILD_OFFSET[child]
    vals = _shape_values(coarse.degree, xi)  # (num_dofs, coarse n_local)
    rows = np.broadcast_to(fine.free_index[:, None], vals.shape)
    cols = coarse.free_index[coarse.conn[elem]]
    keep = (rows >= 0) & (cols >= 0) & (np.abs(vals) > _ZERO)
    return sp.csr_matrix(
        (vals[keep], (rows[keep], cols[keep])), shape=(fine.n_free, coarse.n_free)
    )


def hierarchy(space):
    """Free-dof prolongations from coarser spaces into `space`, finest first.

    One P_p step per refinement down to the base mesh, then P_p -> P1 on
    the base mesh. Empty, so that CG falls back to Jacobi, when the mesh
    was not refined from a parent, when no dof is constrained (the coarse
    operators would be singular), or when the base P1 space has more than
    MAX_COARSE_DOFS free dofs.
    """
    meshes = [space.mesh]
    while meshes[-1].parent is not None:
        meshes.append(meshes[-1].parent)
    if len(meshes) == 1 or not space.constrained.any():
        return ()
    base = build_space(meshes[-1], 1, space.dirichlet_tags)
    if base.n_free > MAX_COARSE_DOFS:
        return ()
    spaces = [space] + [build_space(m, space.degree, space.dirichlet_tags) for m in meshes[1:]]
    steps = [prolongation(f, c) for f, c in zip(spaces, spaces[1:])]
    if space.degree > 1:
        steps.append(prolongation(spaces[-1], base))
    return tuple(steps)


def _smoother_weights(A):
    """Row weights W: omega / a_ii, lowered where needed so lambda_max(W A) < 2."""
    l1 = np.add.reduceat(np.abs(A.data), A.indptr[:-1])  # no empty rows in an SPD matrix
    return np.minimum(OMEGA / A.diagonal(), L1_BOUND / l1)


class VCycle:
    """One V(2,2) cycle with damped Jacobi smoothing as an SPD preconditioner.

    Coarse operators are Galerkin products P^T A P; the coarsest is solved
    exactly through the inverse of its Cholesky factor. `matrix` must have
    a positive diagonal.
    """

    def __init__(self, matrix, prolongations):
        self.levels = []  # (A, smoother weights, P, P^T) per smoothed level
        A = matrix.tocsr()
        for P in prolongations:
            R = P.T.tocsr()
            self.levels.append((A, _smoother_weights(A), P, R))
            A = R @ (A @ P)
        inv_factor = np.linalg.inv(np.linalg.cholesky(A.toarray()))
        self.coarse_inverse = inv_factor.T @ inv_factor

    def __call__(self, r):
        return self._cycle(0, r)

    def _cycle(self, level, r):
        if level == len(self.levels):
            return self.coarse_inverse @ r
        A, d, P, R = self.levels[level]
        x = d * r
        for _ in range(SWEEPS - 1):
            x += d * (r - A @ x)
        x += P @ self._cycle(level + 1, R @ (r - A @ x))
        for _ in range(SWEEPS):
            x += d * (r - A @ x)
        return x
