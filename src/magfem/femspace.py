"""H1-conforming Lagrange spaces P_p on triangles, in vector-potential form.

The discrete unknown is a scalar potential a_h whose rotated gradient
Curl a = (da/dy, -da/dx) is the flux density. Spaces carry homogeneous
Dirichlet constraints on tagged boundary edges (a = 0 realizes the no-flux
condition b.n = 0). Dof numbering is deterministic: vertex dofs by vertex
index, then edge dofs in `mesh.edges` order (the mesh's edge table,
sorted by vertex pair), then element-interior dofs by element index;
edge-interior dofs run from the lower- to the higher-indexed vertex.

Spaces are immutable after construction and all evaluation routines are
pure, so they are safe to share between concurrent workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .quadrature import mapped_points

MAX_SPACE_DEGREE = 4

# -- reference element -------------------------------------------------------


def _reference_nodes(p):
    """Equispaced Lagrange nodes: 3 vertices, 3 edges, then interior."""
    nodes = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    for t in range(1, p):  # edge v0 -> v1
        nodes.append((t / p, 0.0))
    for t in range(1, p):  # edge v1 -> v2
        nodes.append(((p - t) / p, t / p))
    for t in range(1, p):  # edge v2 -> v0
        nodes.append((0.0, (p - t) / p))
    for i in range(1, p):
        for j in range(1, p - i):
            nodes.append((i / p, j / p))
    return np.array(nodes, dtype=float)


def _monomial_exponents(p):
    return [(i, d - i) for d in range(p + 1) for i in range(d + 1)]


@lru_cache(maxsize=None)
def _reference_element(p):
    """Nodes, monomial exponents, and the nodal coefficient matrix for P_p."""
    if not 1 <= p <= MAX_SPACE_DEGREE:
        raise ValueError(f"space degree must be in 1..{MAX_SPACE_DEGREE}, got {p}")
    nodes = _reference_nodes(p)
    expo = _monomial_exponents(p)
    vander = np.array([[x**a * y**b for a, b in expo] for x, y in nodes])
    # V C = I: column i of C holds the monomial coefficients of shape i
    coeffs = np.linalg.solve(vander, np.eye(len(nodes)))
    nodes.flags.writeable = False
    coeffs.flags.writeable = False
    return nodes, tuple(expo), coeffs


def _shape_values(p, points):
    """Shape-function values at reference points; (n_points, n_local)."""
    _, expo, coeffs = _reference_element(p)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    mono = np.stack([pts[:, 0] ** a * pts[:, 1] ** b for a, b in expo], axis=1)
    return mono @ coeffs


def _shape_gradients(p, points):
    """Reference gradients at reference points; (n_points, n_local, 2)."""
    _, expo, coeffs = _reference_element(p)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    x, y = pts[:, 0], pts[:, 1]
    dx = np.stack(
        [a * x ** max(a - 1, 0) * y**b if a else np.zeros_like(x) for a, b in expo], axis=1
    )
    dy = np.stack(
        [b * x**a * y ** max(b - 1, 0) if b else np.zeros_like(y) for a, b in expo], axis=1
    )
    return np.stack([dx @ coeffs, dy @ coeffs], axis=2)


# -- space -------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FESpace:
    """Lagrange space of degree p on a mesh with Dirichlet constraints."""

    mesh: object
    degree: int
    conn: np.ndarray            # (ne, n_local) global dof per element
    dof_coords: np.ndarray      # (num_dofs, 2)
    constrained: np.ndarray     # (num_dofs,) bool
    free_index: np.ndarray      # (num_dofs,) position among free dofs, -1 if constrained
    dirichlet_tags: frozenset
    element_inverse: np.ndarray  # (ne, 2, 2) inverse of the affine map matrix [v1-v0, v2-v0]
    element_areas: np.ndarray    # (ne,) signed areas

    def __repr__(self):
        return (
            f"FESpace(p={self.degree}, ndof={self.num_dofs}, n_free={self.n_free}, "
            f"dirichlet={sorted(self.dirichlet_tags)})"
        )

    @property
    def num_dofs(self):
        return self.dof_coords.shape[0]

    @property
    def n_free(self):
        return int(np.sum(~self.constrained))

    @property
    def n_local(self):
        return (self.degree + 1) * (self.degree + 2) // 2

    def scatter(self, free_values):
        """Full dof vector with zeros at constrained dofs."""
        full = np.zeros(self.num_dofs)
        full[~self.constrained] = free_values
        return full


@dataclass(frozen=True, eq=False)
class CoefficientVector:
    """Free-dof coefficients of a discrete vector potential (Wb/m)."""

    space: FESpace
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.space.n_free,):
            raise ValueError(
                f"coefficient vector has length {vals.shape}, space has "
                f"{self.space.n_free} free dofs"
            )
        object.__setattr__(self, "values", vals)

    def full(self):
        return self.space.scatter(self.values)


def zero_coefficients(space):
    return CoefficientVector(space, np.zeros(space.n_free))


def build_space(mesh, degree, dirichlet_tags=frozenset()):
    """Build a P_degree space with homogeneous Dirichlet constraints.

    `dirichlet_tags` must be a subset of the mesh's boundary tags; dofs on
    edges with these tags (endpoints included) are constrained to zero.
    """
    p = int(degree)
    _reference_element(p)  # validates degree
    tags = frozenset(int(t) for t in dirichlet_tags)
    unknown = tags - mesh.boundary_tags_present()
    if unknown:
        raise ValueError(f"dirichlet tags {sorted(unknown)} not present in mesh")

    nv = mesh.num_vertices
    ne = mesh.num_triangles
    n_local = (p + 1) * (p + 2) // 2
    n_edge = p - 1
    n_int = (p - 1) * (p - 2) // 2

    # Edge e owns dofs nv + e*n_edge + k, k = 0..n_edge-1 running from its
    # lower- to its higher-indexed vertex.
    edges = mesh.edges
    edge_slots = np.arange(n_edge)
    interior_base = nv + len(edges) * n_edge
    num_dofs = interior_base + ne * n_int

    conn = np.empty((ne, n_local), dtype=np.int64)
    conn[:, 0:3] = mesh.triangles
    forward = mesh.triangles < mesh.triangles[:, [1, 2, 0]]
    slot = np.where(forward[:, :, None], edge_slots, n_edge - 1 - edge_slots)
    edge_dofs = nv + mesh.triangle_edges[:, :, None] * n_edge + slot
    conn[:, 3 : 3 + 3 * n_edge] = edge_dofs.reshape(ne, 3 * n_edge)
    conn[:, 3 + 3 * n_edge :] = interior_base + np.arange(ne * n_int).reshape(ne, n_int)

    dof_coords = np.empty((num_dofs, 2))
    dof_coords[:nv] = mesh.vertices
    frac = (edge_slots + 1)[None, :, None] / p
    ends = mesh.vertices[edges]
    along = (1 - frac) * ends[:, None, 0] + frac * ends[:, None, 1]
    dof_coords[nv:interior_base] = along.reshape(-1, 2)
    if n_int:
        ref_interior = _reference_nodes(p)[3 + 3 * n_edge :]
        dof_coords[interior_base:] = mapped_points(mesh, ref_interior).reshape(ne * n_int, 2)

    constrained = np.zeros(num_dofs, dtype=bool)
    on = np.isin(mesh.boundary_tag, sorted(tags))
    constrained[mesh.boundary_edges[on]] = True
    constrained[nv + mesh.boundary_edge_ids[on, None] * n_edge + edge_slots] = True

    free_index = np.full(num_dofs, -1, dtype=np.int64)
    free_index[~constrained] = np.arange(int(np.sum(~constrained)))

    pts = mesh.vertices[mesh.triangles]
    B = np.stack([pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0]], axis=2)
    det = B[:, 0, 0] * B[:, 1, 1] - B[:, 0, 1] * B[:, 1, 0]
    Binv = np.empty_like(B)
    Binv[:, 0, 0] = B[:, 1, 1] / det
    Binv[:, 0, 1] = -B[:, 0, 1] / det
    Binv[:, 1, 0] = -B[:, 1, 0] / det
    Binv[:, 1, 1] = B[:, 0, 0] / det

    for arr in (conn, dof_coords, constrained, free_index, Binv):
        arr.flags.writeable = False
    areas = 0.5 * det
    areas.flags.writeable = False
    return FESpace(
        mesh=mesh,
        degree=p,
        conn=conn,
        dof_coords=dof_coords,
        constrained=constrained,
        free_index=free_index,
        dirichlet_tags=tags,
        element_inverse=Binv,
        element_areas=areas,
    )


# -- evaluation --------------------------------------------------------------


def _physical_curls(inv, ref_grads):
    """Physical Curl of each shape function; (..., n_local, 2).

    `inv` holds inverse element matrices (..., 2, 2), shaped to broadcast
    against the reference gradients `ref_grads` (..., n_local, 2). The
    gradient transforms with inv^T and Curl a = (da/dy, -da/dx) rotates it,
    so curl component i is the two-term sum g_0 rot_0i + g_1 rot_1i over
    inv's rotated columns, summed in place (half-size temporaries).
    """
    rot = np.stack([inv[..., 1], -inv[..., 0]], axis=-1)
    curl = np.empty(np.broadcast_shapes(ref_grads.shape, rot.shape[:-1]))
    for i in range(2):
        np.multiply(ref_grads[..., 0], rot[..., 0, i], out=curl[..., i])
        curl[..., i] += ref_grads[..., 1] * rot[..., 1, i]
    return curl


def tabulate_curl(space, rule, elements=slice(None)):
    """Curl of all shape functions at the rule's points; (ne, nq, n_local, 2).

    `elements`, a slice, restricts the result to those elements' rows.
    """
    grads = _shape_gradients(space.degree, rule.points)  # (nq, n_local, 2)
    return _physical_curls(space.element_inverse[elements, None, None], grads)


def tabulate_values(space, rule):
    """Shape-function values at the rule's points (same on every element)."""
    return _shape_values(space.degree, rule.points)


def eval_curl_batch(space, coeffs, elements, points):
    """Curl of the discrete field at per-element reference points.

    elements: (n,) element indices; points: (n, 2) reference coordinates,
    each point with its own host element. Study errors do not use it (they
    prolongate the coarse solution instead); tests keep it as an
    independent pointwise evaluation, and perfbench's tracer patches it.
    """
    elements = np.asarray(elements)
    grads = _shape_gradients(space.degree, points)  # (n, n_local, 2)
    curl = _physical_curls(space.element_inverse[elements][:, None], grads)
    local = coeffs.full()[space.conn[elements]]  # (n, n_local)
    return np.einsum("nl,nli->ni", local, curl)
