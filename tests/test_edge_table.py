"""The mesh edge table against the loop-based edge numbering it replaced.

`loop_refine_uniform` and `loop_numbering` keep, unchanged, the per-triangle
Python loops that numbered edges before `Mesh` computed its edge table:
refinement midpoints from a sorted edge set, and edge dofs, edge dof
coordinates and Dirichlet constraints from a sorted edge-key dict. Meshes
and spaces built from the table must match them bit for bit.
"""

import numpy as np
import pytest

import magfem as mf
from magfem.femspace import _reference_nodes
from magfem.harness import disc_mesh, pm_toy_benchmark, two_wire_disc_benchmark
from magfem.mesh import Mesh, meshes_equal


def loop_refine_uniform(mesh):
    """Uniform refinement with midpoints numbered by a sorted edge set."""
    nv = mesh.num_vertices
    edge_mid = {}
    new_vertices = [mesh.vertices]

    edge_set = set()
    for tri in mesh.triangles:
        for i in range(3):
            u, v = int(tri[i]), int(tri[(i + 1) % 3])
            edge_set.add((min(u, v), max(u, v)))
    for k, (u, v) in enumerate(sorted(edge_set)):
        edge_mid[(u, v)] = nv + k
    mids = np.array(sorted(edge_set), dtype=int)
    new_vertices.append(0.5 * (mesh.vertices[mids[:, 0]] + mesh.vertices[mids[:, 1]]))
    vertices = np.vstack(new_vertices)

    def mid(u, v):
        return edge_mid[(min(u, v), max(u, v))]

    triangles = np.empty((4 * mesh.num_triangles, 3), dtype=int)
    for t, tri in enumerate(mesh.triangles):
        v0, v1, v2 = (int(v) for v in tri)
        m01, m12, m20 = mid(v0, v1), mid(v1, v2), mid(v2, v0)
        triangles[4 * t + 0] = (v0, m01, m20)
        triangles[4 * t + 1] = (m01, v1, m12)
        triangles[4 * t + 2] = (m20, m12, v2)
        triangles[4 * t + 3] = (m01, m12, m20)
    region_tag = np.repeat(mesh.region_tag, 4)

    boundary_edges = []
    boundary_tag = []
    for (u, v), tag in zip(mesh.boundary_edges, mesh.boundary_tag):
        m = mid(int(u), int(v))
        boundary_edges.append((int(u), m))
        boundary_edges.append((m, int(v)))
        boundary_tag += [int(tag), int(tag)]

    return Mesh(vertices, triangles, region_tag, boundary_edges, boundary_tag)


def loop_numbering(mesh, p, tags):
    """(conn, dof_coords, constrained) of P_p from a sorted edge-key dict."""
    nv = mesh.num_vertices
    ne = mesh.num_triangles
    n_local = (p + 1) * (p + 2) // 2
    n_edge = p - 1
    n_int = (p - 1) * (p - 2) // 2

    edge_keys = sorted(
        {
            (min(int(tri[i]), int(tri[(i + 1) % 3])), max(int(tri[i]), int(tri[(i + 1) % 3])))
            for tri in mesh.triangles
            for i in range(3)
        }
    )
    edge_offset = {e: nv + k * n_edge for k, e in enumerate(edge_keys)}
    interior_base = nv + len(edge_keys) * n_edge
    num_dofs = interior_base + ne * n_int

    conn = np.empty((ne, n_local), dtype=np.int64)
    conn[:, 0:3] = mesh.triangles
    local_edges = ((0, 1), (1, 2), (2, 0))
    for t, tri in enumerate(mesh.triangles):
        col = 3
        for a, b in local_edges:
            ga, gb = int(tri[a]), int(tri[b])
            base = edge_offset[(min(ga, gb), max(ga, gb))]
            for k in range(n_edge):
                slot = k if ga < gb else n_edge - 1 - k
                conn[t, col] = base + slot
                col += 1
        for k in range(n_int):
            conn[t, col] = interior_base + t * n_int + k
            col += 1

    dof_coords = np.empty((num_dofs, 2))
    dof_coords[:nv] = mesh.vertices
    for (u, v), base in edge_offset.items():
        for k in range(n_edge):
            frac = (k + 1) / p
            dof_coords[base + k] = (1 - frac) * mesh.vertices[u] + frac * mesh.vertices[v]
    if n_int:
        ref_interior = _reference_nodes(p)[3 + 3 * n_edge :]
        pts = mesh.vertices[mesh.triangles]
        v0 = pts[:, 0]
        d1 = pts[:, 1] - v0
        d2 = pts[:, 2] - v0
        phys = (
            v0[:, None, :]
            + ref_interior[None, :, 0, None] * d1[:, None, :]
            + ref_interior[None, :, 1, None] * d2[:, None, :]
        )
        dof_coords[interior_base:] = phys.reshape(ne * n_int, 2)

    constrained = np.zeros(num_dofs, dtype=bool)
    for (u, v), tag in zip(mesh.boundary_edges, mesh.boundary_tag):
        if int(tag) in tags:
            constrained[int(u)] = True
            constrained[int(v)] = True
            base = edge_offset[(min(int(u), int(v)), max(int(u), int(v)))]
            constrained[base : base + n_edge] = True
    return conn, dof_coords, constrained


def _parsed_file_mesh():
    """A disc mesh with shuffled vertex ids, rotated triangles and reversed
    boundary edges, written to the ASCII format and parsed back."""
    base = disc_mesh(3)
    perm = np.random.default_rng(7).permutation(base.num_vertices)
    vertices = np.empty_like(base.vertices)
    vertices[perm] = base.vertices
    shuffled = Mesh(
        vertices,
        np.roll(perm[base.triangles], 1, axis=1),
        base.region_tag,
        perm[base.boundary_edges][:, ::-1],
        base.boundary_tag,
    )
    return mf.parse_mesh(mf.serialize_mesh(shuffled))


BASES = {
    "unit_square": lambda: mf.generate_unit_square(4),
    "disc": lambda: disc_mesh(4),
    "pm_toy": lambda: pm_toy_benchmark().base_mesh,
    "two_wire": lambda: two_wire_disc_benchmark().base_mesh,
    "parsed_file": _parsed_file_mesh,
}


@pytest.mark.parametrize("name", sorted(BASES))
def test_edge_table_matches_loop_numbering(name):
    mesh = BASES[name]()
    for level in range(3):
        if level:
            fine = mf.refine_uniform(mesh)
            assert meshes_equal(fine, loop_refine_uniform(mesh))
            mesh = fine
        tags = mesh.boundary_tags_present()
        for p in range(1, 5):
            space = mf.build_space(mesh, p, tags)
            conn, dof_coords, constrained = loop_numbering(mesh, p, tags)
            assert np.array_equal(space.conn, conn)
            assert np.array_equal(space.dof_coords, dof_coords)
            assert np.array_equal(space.constrained, constrained)


def test_edge_table_layout():
    mesh = _parsed_file_mesh()
    tri = mesh.triangles
    local = np.stack([tri, tri[:, [1, 2, 0]]], axis=2)  # (ne, 3, 2) directed
    keys = sorted({(int(min(e)), int(max(e))) for e in local.reshape(-1, 2)})
    assert mesh.edges.tolist() == [list(k) for k in keys]
    assert np.array_equal(mesh.edges[mesh.triangle_edges], np.sort(local, axis=2))
    assert np.array_equal(
        mesh.edges[mesh.boundary_edge_ids], np.sort(mesh.boundary_edges, axis=1)
    )
    for arr in (mesh.edges, mesh.triangle_edges, mesh.boundary_edge_ids):
        assert not arr.flags.writeable
