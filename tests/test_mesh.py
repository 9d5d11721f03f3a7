import numpy as np
import pytest

import magfem as mf
from magfem.mesh import Mesh, MeshParseError, child_reference_map, meshes_equal

from conftest import max_edge_length, shape_regularity, total_area


def test_unit_square_counts_n1():
    m = mf.generate_unit_square(1)
    assert m.num_vertices == 4
    assert m.num_triangles == 2
    assert len(m.boundary_edges) == 4


def test_unit_square_counts_n2():
    m = mf.generate_unit_square(2)
    assert m.num_vertices == 9
    assert m.num_triangles == 8
    assert len(m.boundary_edges) == 8


def test_unit_square_area_n4():
    m = mf.generate_unit_square(4)
    assert abs(total_area(m) - 1.0) <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_unit_square_area_general(n):
    assert abs(total_area(mf.generate_unit_square(n)) - 1.0) <= 1e-14


def test_unit_square_rejects_zero():
    with pytest.raises(ValueError):
        mf.generate_unit_square(0)


def _unit_square_by_cells(n):
    """The unit-square mesh written out cell by cell and side by side."""
    xs = np.linspace(0.0, 1.0, n + 1)
    vx, vy = np.meshgrid(xs, xs, indexing="xy")

    def vid(i, j):
        return j * (n + 1) + i

    triangles = []
    for j in range(n):
        for i in range(n):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            triangles.append((a, b, c))
            triangles.append((a, c, d))
    edges = []
    edges += [(vid(i, 0), vid(i + 1, 0)) for i in range(n)]
    edges += [(vid(n, j), vid(n, j + 1)) for j in range(n)]
    edges += [(vid(i + 1, n), vid(i, n)) for i in range(n)]
    edges += [(vid(0, j + 1), vid(0, j)) for j in range(n)]
    return Mesh(
        np.column_stack([vx.ravel(), vy.ravel()]),
        triangles,
        np.ones(len(triangles), dtype=int),
        edges,
        np.ones(len(edges), dtype=int),
    )


def test_unit_square_matches_cell_by_cell_numbering():
    # row order fixes dof numbering, so every index array must match exactly
    for n in range(1, 41):
        assert meshes_equal(mf.generate_unit_square(n), _unit_square_by_cells(n)), n


def test_refine_quadruples_triangles():
    m = mf.generate_unit_square(1)
    r = mf.refine_uniform(m)
    assert r.num_triangles == 8
    assert set(r.region_tag) == {1}
    assert abs(total_area(r) - total_area(m)) <= 1e-14


def test_refine_halves_edge_length_and_inherits_tags():
    m = mf.generate_unit_square(3)
    r = mf.refine_uniform(m)
    assert max_edge_length(r) == pytest.approx(0.5 * max_edge_length(m), rel=1e-14)
    assert np.array_equal(r.region_tag, np.repeat(m.region_tag, 4))
    assert set(r.boundary_tag) == set(m.boundary_tag)


def test_refine_preserves_shape_regularity():
    # midpoint subdivision produces four triangles similar to the parent
    m = mf.generate_unit_square(2)
    r = mf.refine_uniform(m)
    parent = np.repeat(shape_regularity(m), 4)
    assert np.allclose(shape_regularity(r), parent, rtol=1e-12)


def test_child_reference_maps_cover_parent():
    # each child's reference vertices land on the correct parent positions
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    expected = {
        0: [(0.0, 0.0), (0.5, 0.0), (0.0, 0.5)],
        1: [(0.5, 0.0), (1.0, 0.0), (0.5, 0.5)],
        2: [(0.0, 0.5), (0.5, 0.5), (0.0, 1.0)],
        3: [(0.5, 0.0), (0.5, 0.5), (0.0, 0.5)],
    }
    for c in range(4):
        M, off = child_reference_map(c)
        got = corners @ M.T + off
        assert np.allclose(got, expected[c], atol=1e-15)


def test_refine_child_layout_matches_reference_maps():
    m = mf.generate_unit_square(2)
    r = mf.refine_uniform(m)
    for t in range(m.num_triangles):
        pv = m.vertices[m.triangles[t]]
        B = np.stack([pv[1] - pv[0], pv[2] - pv[0]], axis=1)
        for c in range(4):
            M, off = child_reference_map(c)
            child_verts = r.vertices[r.triangles[4 * t + c]]
            ref = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]) @ M.T + off
            assert np.allclose(child_verts, pv[0] + ref @ B.T, atol=1e-14)


def test_serialize_parse_round_trip():
    m = mf.generate_unit_square(1)
    assert meshes_equal(mf.parse_mesh(mf.serialize_mesh(m)), m)


def test_round_trip_preserves_irrational_coordinates():
    m = mf.generate_unit_square(3)  # coordinates like 1/3 are not exact decimals
    assert meshes_equal(mf.parse_mesh(mf.serialize_mesh(m)), m)


def test_parse_accepts_comments():
    text = mf.serialize_mesh(mf.generate_unit_square(1))
    commented = "# header comment\n" + text.replace("$Triangles", "# note\n$Triangles")
    assert meshes_equal(mf.parse_mesh(commented), mf.generate_unit_square(1))


def test_parse_truncated_triangle_block():
    lines = mf.serialize_mesh(mf.generate_unit_square(1)).splitlines()
    tri_header = next(i for i, l in enumerate(lines) if l.startswith("$Triangles"))
    del lines[tri_header + 2]  # drop the second triangle row
    with pytest.raises(MeshParseError) as err:
        mf.parse_mesh("\n".join(lines))
    assert err.value.line is not None


def test_parse_rejects_zero_index():
    text = mf.serialize_mesh(mf.generate_unit_square(1))
    bad = text.replace("1 1 2 4 1", "1 0 2 4 1")
    with pytest.raises(MeshParseError):
        mf.parse_mesh(bad)


def test_parse_rejects_out_of_range_index():
    m = mf.generate_unit_square(1)
    text = mf.serialize_mesh(m)
    bad = text.replace("1 1 2 4 1", "1 1 2 9 1")
    with pytest.raises(MeshParseError):
        mf.parse_mesh(bad)


def test_parse_rejects_nonconsecutive_ids():
    text = mf.serialize_mesh(mf.generate_unit_square(1))
    bad = text.replace("2 1 4 3 1", "5 1 4 3 1")
    with pytest.raises(MeshParseError):
        mf.parse_mesh(bad)


def test_parse_rejects_trailing_content():
    text = mf.serialize_mesh(mf.generate_unit_square(1)) + "stray tokens\n"
    with pytest.raises(MeshParseError):
        mf.parse_mesh(text)


def test_parse_rejects_missing_header():
    with pytest.raises(MeshParseError):
        mf.parse_mesh("1 0.0 0.0\n")


from hypothesis import given, settings, strategies as st


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_round_trip_is_identity_under_vertex_jiggle(n, seed):
    # perturb interior vertices by irrational-ish amounts; the decimal
    # serialization must still round-trip bit-exactly
    base = mf.generate_unit_square(n)
    rng_ = np.random.default_rng(seed)
    verts = base.vertices.copy()
    interior = (
        (verts[:, 0] > 0) & (verts[:, 0] < 1) & (verts[:, 1] > 0) & (verts[:, 1] < 1)
    )
    # |delta| < 0.1/n keeps every signed area positive even adversarially
    verts[interior] += rng_.uniform(-0.1 / n, 0.1 / n, size=(interior.sum(), 2))
    jiggled = mf.Mesh(
        verts, base.triangles, base.region_tag, base.boundary_edges, base.boundary_tag
    )
    assert meshes_equal(mf.parse_mesh(mf.serialize_mesh(jiggled)), jiggled)


def test_parse_error_names_line_number():
    text = "$Nodes 1\n1 0.0 oops\n$Triangles 0\n$BoundaryEdges 0\n"
    with pytest.raises(MeshParseError) as err:
        mf.parse_mesh(text)
    assert err.value.line == 2


@pytest.mark.parametrize(
    "text",
    [
        "$Nodes 0\n$Triangles 0\n$BoundaryEdges 0\n",
        "$Nodes 3\n1 0 0\n2 1 0\n3 0 1\n$Triangles 0\n$BoundaryEdges 0\n",
    ],
)
def test_mesh_without_triangles_is_a_parse_error(text):
    with pytest.raises(MeshParseError, match="mesh has no triangles"):
        mf.parse_mesh(text)


def test_degenerate_triangle_rejected():
    with pytest.raises(mf.MeshError):
        Mesh(
            [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)],
            [(0, 1, 2)],
            [1],
            [(0, 1), (1, 2), (2, 0)],
            [1, 1, 1],
        )


def test_clockwise_triangle_rejected():
    with pytest.raises(mf.MeshError):
        Mesh(
            [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
            [(0, 2, 1)],
            [1],
            [(0, 2), (2, 1), (1, 0)],
            [1, 1, 1],
        )


def test_missing_boundary_edge_rejected():
    with pytest.raises(mf.MeshError):
        Mesh(
            [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
            [(0, 1, 2)],
            [1],
            [(0, 1), (1, 2)],
            [1, 1],
        )


def test_vertex_index_out_of_range_rejected():
    with pytest.raises(mf.MeshError):
        Mesh(
            [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
            [(0, 1, 3)],
            [1],
            [(0, 1), (1, 3), (3, 0)],
            [1, 1, 1],
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_vertex_rejected(bad):
    with pytest.raises(mf.MeshError, match="vertex 2 has non-finite coordinates"):
        Mesh(
            [(0.0, 0.0), (1.0, 0.0), (bad, 1.0)],
            [(0, 1, 2)],
            [1],
            [(0, 1), (1, 2), (2, 0)],
            [1, 1, 1],
        )


def test_refinement_stays_conforming_on_disc():
    from magfem.harness import disc_mesh

    m = disc_mesh(3, radius=0.5)
    # inscribed polygon: slightly below the circle area, converging to it
    assert 0.95 * np.pi * 0.25 < total_area(m) < np.pi * 0.25
    r = mf.refine_uniform(m)  # Mesh validation runs in the constructor
    assert r.num_triangles == 4 * m.num_triangles
    assert abs(total_area(r) - total_area(m)) <= 1e-12


# Unit square split along its diagonal 0-2, plus apexes off each side of the
# bottom edge 0-1, for overlapping triangles that reuse that edge.
_CONFORMITY_VERTICES = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.5, -1.0), (0.5, 2.0)]
_SQUARE_BOUNDARY = [(0, 1), (1, 2), (2, 3), (3, 0)]


def _conformity_error(triangles, boundary_edges):
    with pytest.raises(mf.MeshError) as err:
        Mesh(
            _CONFORMITY_VERTICES,
            triangles,
            np.ones(len(triangles), dtype=int),
            boundary_edges,
            np.ones(len(boundary_edges), dtype=int),
        )
    return str(err.value)


def test_directed_edge_used_twice_rejected():
    # (0,1,2) and (0,1,5) both traverse the edge 0 -> 1
    message = _conformity_error([(0, 1, 2), (0, 1, 5)], [(1, 2), (2, 0), (1, 5), (5, 0)])
    assert "directed edge (0,1) occurs twice; orientation conflict" in message


def test_edge_in_three_triangles_rejected():
    # 0-1 is in (0,1,2), (1,0,4) and (0,1,5); the third repeats a direction
    message = _conformity_error(
        [(0, 1, 2), (1, 0, 4), (0, 1, 5)],
        [(1, 2), (2, 0), (0, 4), (4, 1), (1, 5), (5, 0)],
    )
    assert "directed edge (0,1) occurs twice" in message


def test_duplicate_boundary_edge_rejected():
    message = _conformity_error([(0, 1, 2), (0, 2, 3)], _SQUARE_BOUNDARY + [(1, 0)])
    assert "duplicate boundary edge listed" in message


def test_extra_boundary_edge_rejected():
    # the interior diagonal 0-2 is listed as a boundary edge
    message = _conformity_error([(0, 1, 2), (0, 2, 3)], _SQUARE_BOUNDARY + [(2, 0)])
    assert "boundary edge list inconsistent (missing [], extra [(0, 2)])" in message
