"""Conforming triangular meshes with region and boundary tags.

A mesh is immutable after construction. Vertices are 2D coordinates in
meters, triangles are counterclockwise vertex-index triples carrying an
integer region tag, and boundary edges are tagged vertex pairs. The file
format is a line-oriented ASCII format with 1-based indices (see
:func:`parse_mesh` / :func:`serialize_mesh`); internally everything is
0-based.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

# Signed areas at or below this fraction of the bounding-box area are
# rejected: degenerate triangles break the affine quadrature map.
DEGENERATE_AREA_FRACTION = 1e-14


class MeshError(ValueError):
    """Invalid mesh data (non-conforming, degenerate, or out of range)."""


class MeshParseError(MeshError):
    """Malformed mesh file; carries the offending 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _frozen(a, dtype):
    arr = np.ascontiguousarray(np.asarray(a, dtype=dtype))
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Mesh:
    """Conforming triangulation of a polygonal domain.

    Parameters
    ----------
    vertices : (nv, 2) float array
        Vertex coordinates.
    triangles : (ne, 3) int array
        Counterclockwise vertex indices per triangle.
    region_tag : (ne,) int array
        Material region id per triangle.
    boundary_edges : (nb, 2) int array
        Vertex pairs of boundary edges.
    boundary_tag : (nb,) int array
        Integer tag per boundary edge.

    Attributes
    ----------
    edges : (n_edges, 2) int array
        The undirected edges as (low, high) vertex pairs, sorted by low
        then high vertex. Edge dofs and refinement midpoints follow this
        order.
    triangle_edges : (ne, 3) int array
        Row of `edges` for each triangle's local edges (0,1), (1,2), (2,0).
    boundary_edge_ids : (nb,) int array
        Row of `edges` for each listed boundary edge.
    parent : Mesh or None
        The mesh this one was refined from by :func:`refine_uniform`, whose
        triangle t holds children 4t..4t+3; None for generated, parsed and
        re-tagged meshes. Multigrid walks it down to the base mesh.

    The edge table is built once, by validation, and is read-only.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    region_tag: np.ndarray
    boundary_edges: np.ndarray
    boundary_tag: np.ndarray
    edges: np.ndarray
    triangle_edges: np.ndarray
    boundary_edge_ids: np.ndarray
    parent: object

    def __init__(self, vertices, triangles, region_tag, boundary_edges, boundary_tag, parent=None):
        object.__setattr__(self, "vertices", _frozen(vertices, float))
        object.__setattr__(self, "triangles", _frozen(triangles, np.int64))
        object.__setattr__(self, "region_tag", _frozen(region_tag, np.int64))
        object.__setattr__(self, "boundary_edges", _frozen(boundary_edges, np.int64))
        object.__setattr__(self, "boundary_tag", _frozen(boundary_tag, np.int64))
        object.__setattr__(self, "parent", parent)
        self._validate()

    def __repr__(self):
        return (
            f"Mesh(nv={self.num_vertices}, ne={self.num_triangles}, "
            f"nb={len(self.boundary_edges)}, regions={sorted(self.region_tags_present())})"
        )

    # -- basic queries ----------------------------------------------------

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]

    def signed_areas(self):
        """Signed area of every triangle (positive for CCW)."""
        p = self.vertices[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def region_tags_present(self):
        return set(int(t) for t in np.unique(self.region_tag))

    def boundary_tags_present(self):
        return set(int(t) for t in np.unique(self.boundary_tag)) if len(self.boundary_tag) else set()

    # -- validation --------------------------------------------------------

    def _validate(self):
        nv = self.num_vertices
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be an (nv, 2) array")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must be an (ne, 3) array")
        if self.region_tag.shape != (self.num_triangles,):
            raise MeshError("region_tag must have one entry per triangle")
        if self.boundary_edges.ndim != 2 or self.boundary_edges.shape[1] != 2:
            raise MeshError("boundary_edges must be an (nb, 2) array")
        if self.boundary_tag.shape != (self.boundary_edges.shape[0],):
            raise MeshError("boundary_tag must have one entry per boundary edge")

        if self.num_triangles == 0:
            raise MeshError("mesh has no triangles")
        if self.triangles.min() < 0 or self.triangles.max() >= nv:
            raise MeshError("triangle vertex index out of range")
        if len(self.boundary_edges) and (
            self.boundary_edges.min() < 0 or self.boundary_edges.max() >= nv
        ):
            raise MeshError("boundary edge vertex index out of range")

        finite = np.isfinite(self.vertices).all(axis=1)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise MeshError(f"vertex {bad} has non-finite coordinates {self.vertices[bad]}")

        lo = self.vertices.min(axis=0)
        hi = self.vertices.max(axis=0)
        bbox_area = max(float((hi[0] - lo[0]) * (hi[1] - lo[1])), np.finfo(float).tiny)
        areas = self.signed_areas()
        if np.any(areas <= DEGENERATE_AREA_FRACTION * bbox_area):
            bad = int(np.argmin(areas))
            raise MeshError(
                f"triangle {bad} has nonpositive or degenerate signed area {areas[bad]:g}"
            )

        # Conformity: each directed edge at most once (consistent CCW
        # orientation). A third triangle on an edge would repeat one of its
        # two directions, so this also keeps every edge in at most two
        # triangles. Edges are keyed low*nv + high, exact in int64 while
        # nv < 3e9; a failure names the first offending edge in triangle order.
        tail = self.triangles.ravel()
        head = self.triangles[:, [1, 2, 0]].ravel()
        low, high = np.minimum(tail, head), np.maximum(tail, head)
        keys, edge_ids, count = np.unique(
            low * nv + high, return_inverse=True, return_counts=True
        )
        repeat = np.ones(len(tail), dtype=bool)
        repeat[np.unique(tail * nv + head, return_index=True)[1]] = False
        bad = np.flatnonzero(repeat | (tail == head))
        if len(bad):
            t, u, v = bad[0] // 3, int(tail[bad[0]]), int(head[bad[0]])
            if u == v:
                raise MeshError(f"triangle {t} has a repeated vertex")
            raise MeshError(f"directed edge ({u},{v}) occurs twice; orientation conflict")

        listed = np.sort(self.boundary_edges, axis=1)
        listed_keys = listed[:, 0] * nv + listed[:, 1]
        unique_listed = np.unique(listed_keys)
        if len(unique_listed) != len(listed_keys):
            raise MeshError("duplicate boundary edge listed")
        expected = keys[count == 1]
        if not np.array_equal(unique_listed, expected):
            def pairs(k):
                return [(int(e // nv), int(e % nv)) for e in k[:3]]

            raise MeshError(
                f"boundary edge list inconsistent (missing "
                f"{pairs(np.setdiff1d(expected, listed_keys))}, "
                f"extra {pairs(np.setdiff1d(listed_keys, expected))})"
            )

        edges = np.column_stack([keys // nv, keys % nv])
        object.__setattr__(self, "edges", _frozen(edges, np.int64))
        object.__setattr__(self, "triangle_edges", _frozen(edge_ids.reshape(-1, 3), np.int64))
        boundary_ids = np.searchsorted(keys, listed_keys)
        object.__setattr__(self, "boundary_edge_ids", _frozen(boundary_ids, np.int64))


def with_region_tags(mesh, region_tag):
    """New mesh equal to `mesh` but with the given per-triangle region tags."""
    return Mesh(mesh.vertices, mesh.triangles, region_tag, mesh.boundary_edges, mesh.boundary_tag)


def generate_unit_square(n):
    """Structured triangulation of the unit square with n x n cells.

    Each cell is split along the lower-left to upper-right diagonal, so
    the element count and dof numbering are reproducible across runs.
    Vertices lie on the uniform (n+1) x (n+1) lattice; all outer edges get
    boundary tag 1 and all triangles region 1.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    xs = np.linspace(0.0, 1.0, n + 1)
    vx, vy = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([vx.ravel(), vy.ravel()])

    def vid(i, j):
        return j * (n + 1) + i

    j, i = np.divmod(np.arange(n * n), n)  # cells row by row
    a, b = vid(i, j), vid(i + 1, j)
    c, d = vid(i + 1, j + 1), vid(i, j + 1)
    triangles = np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3)

    k = np.arange(n)
    sides = [
        (vid(k, 0), vid(k + 1, 0)),
        (vid(n, k), vid(n, k + 1)),
        (vid(k + 1, n), vid(k, n)),
        (vid(0, k + 1), vid(0, k)),
    ]
    edges = np.concatenate([np.column_stack(side) for side in sides])

    return Mesh(
        vertices,
        triangles,
        np.ones(len(triangles), dtype=int),
        edges,
        np.ones(len(edges), dtype=int),
    )


# Child c of a refined triangle covers a fixed sub-triangle of its parent's
# reference element; refine_uniform emits children of parent t at indices
# 4t..4t+3 in this order. child_reference_map relies on both facts.
_CHILD_OFFSET = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.5, 0.0]])
_CHILD_MATRIX = np.array(
    [
        [[0.5, 0.0], [0.0, 0.5]],
        [[0.5, 0.0], [0.0, 0.5]],
        [[0.5, 0.0], [0.0, 0.5]],
        [[0.0, -0.5], [0.5, 0.5]],
    ]
)


def refine_uniform(mesh):
    """Split every triangle into four via edge midpoints.

    Region and boundary tags are inherited; the result is conforming and
    the maximal edge length halves. Children of parent t occupy indices
    4t..4t+3 (three corner children then the medial triangle), which
    `multigrid.prolongation`, the one coarse-to-fine operator of the
    multigrid hierarchy and of study error references, depends on; the
    result's `parent` is `mesh`.
    """
    nv = mesh.num_vertices
    u, v = mesh.edges.T
    vertices = np.vstack([mesh.vertices, 0.5 * (mesh.vertices[u] + mesh.vertices[v])])

    v0, v1, v2 = mesh.triangles.T
    m01, m12, m20 = (nv + mesh.triangle_edges).T
    children = [v0, m01, m20, m01, v1, m12, m20, m12, v2, m01, m12, m20]
    triangles = np.stack(children, axis=1).reshape(-1, 3)
    region_tag = np.repeat(mesh.region_tag, 4)

    a, b = mesh.boundary_edges.T
    m = nv + mesh.boundary_edge_ids
    boundary_edges = np.stack([a, m, m, b], axis=1).reshape(-1, 2)
    boundary_tag = np.repeat(mesh.boundary_tag, 2)

    return Mesh(vertices, triangles, region_tag, boundary_edges, boundary_tag, parent=mesh)


def child_reference_map(child_index):
    """Affine map from a child's reference coords into its parent's.

    `child_index` is the position 0..3 within the parent (fine element
    4t+c has parent t and child index c), or an array of such positions.
    """
    return _CHILD_MATRIX[child_index], _CHILD_OFFSET[child_index]


# -- ASCII (de)serialization ----------------------------------------------


# The row of each block as one structured record: the id, then the payload.
# Every column is 8 bytes wide, so a row has dtype.itemsize // 8 of them.
_BLOCKS = (
    ("$Nodes", np.dtype([("id", np.int64), ("xy", float, (2,))])),
    ("$Triangles", np.dtype([("id", np.int64), ("vertex", np.int64, (3,)), ("tag", np.int64)])),
    ("$BoundaryEdges", np.dtype([("id", np.int64), ("vertex", np.int64, (2,)), ("tag", np.int64)])),
)


def _format_rows(fmt, *columns):
    """One `fmt` row per entry of the equal-length columns, in one % pass."""
    return (fmt * len(columns[0])) % tuple(itertools.chain.from_iterable(zip(*columns)))


def serialize_mesh(mesh):
    """Mesh to the line-oriented ASCII format (1-based, round-trip exact)."""
    nv, ne, nb = mesh.num_vertices, mesh.num_triangles, len(mesh.boundary_edges)
    return "".join(
        [
            f"$Nodes {nv}\n",
            _format_rows("%d %.17g %.17g\n", range(1, nv + 1), *mesh.vertices.T.tolist()),
            f"$Triangles {ne}\n",
            _format_rows(
                "%d %d %d %d %d\n",
                range(1, ne + 1),
                *(mesh.triangles.T + 1).tolist(),
                mesh.region_tag.tolist(),
            ),
            f"$BoundaryEdges {nb}\n",
            _format_rows(
                "%d %d %d %d\n",
                range(1, nb + 1),
                *(mesh.boundary_edges.T + 1).tolist(),
                mesh.boundary_tag.tolist(),
            ),
        ]
    )


def _end_of_file(numbers):
    return MeshParseError("unexpected end of file", line=(numbers[-1] if numbers else 0) + 1)


def _read_header(rows, numbers, pos, name):
    if pos >= len(rows):
        raise _end_of_file(numbers)
    tok = rows[pos].split()
    if len(tok) != 2 or tok[0] != name:
        raise MeshParseError(f"expected '{name} <count>' header", line=numbers[pos])
    try:
        count = int(tok[1])
    except ValueError:
        raise MeshParseError(f"bad count in {name} header", line=numbers[pos]) from None
    if count < 0:
        raise MeshParseError(f"negative count in {name} header", line=numbers[pos])
    return count


def _load_rows(rows, dtype):
    """The rows as one structured array; ValueError if any row does not fit `dtype`."""
    if not rows:
        return np.zeros(0, dtype)
    return np.loadtxt(rows, dtype=dtype, ndmin=1)


def _read_block(rows, numbers, pos, name, dtype):
    """The block whose header is rows[pos]: (records, position after the block).

    All rows load in one pass. If one does not, bisection finds the longest
    prefix that loads, so every fault is reported at the first offending
    row in file order.
    """
    count = _read_header(rows, numbers, pos, name)
    start = pos + 1
    block = rows[start : start + count]
    try:
        table, bad = _load_rows(block, dtype), None
    except ValueError:
        bad, fails = 0, len(block)  # block[:bad] loads, block[:fails] does not
        while fails - bad > 1:
            mid = (bad + fails) // 2
            try:
                _load_rows(block[:mid], dtype)
                bad = mid
            except ValueError:
                fails = mid
        table = _load_rows(block[:bad], dtype)  # block[bad] is the first row that fails

    wrong = np.flatnonzero(table["id"] != np.arange(1, len(table) + 1))
    if len(wrong):
        k = int(wrong[0])
        raise MeshParseError(
            f"ids must be consecutive starting at 1; expected {k + 1}, got {table['id'][k]}",
            line=numbers[start + k],
        )
    if bad is not None:
        lineno = numbers[start + bad]
        tok = block[bad].split()
        if tok[0].startswith("$"):
            raise MeshParseError(
                f"{name} block truncated: expected {count} rows, got {bad}", line=lineno
            )
        if len(tok) != dtype.itemsize // 8:
            raise MeshParseError(
                f"expected {dtype.itemsize // 8} fields in {name} row", line=lineno
            )
        raise MeshParseError(f"malformed {name} row", line=lineno)
    if len(block) < count:
        raise _end_of_file(numbers)
    return table, start + count


def parse_mesh(text):
    """Parse the ASCII mesh format; errors carry the offending line number.

    Everything after a `#` on a line is a comment, blank lines are
    skipped, and tokens are separated by any whitespace. Numbers are
    read as numpy reads them: Python-only spellings such as the digit
    separator in `1_0` or non-ASCII digits, and integers beyond int64,
    make a row malformed.
    """
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    numbers = [n for n, line in enumerate(lines, start=1) if line and not line.isspace()]
    rows = [lines[n - 1] for n in numbers]

    pos = 0
    tables = []
    for name, dtype in _BLOCKS:
        table, end = _read_block(rows, numbers, pos, name, dtype)
        tables.append((table, numbers[pos + 1 : end]))
        pos = end
    if pos != len(rows):
        raise MeshParseError("trailing content after $BoundaryEdges block", line=numbers[pos])

    (nodes, _), (tris, tri_lines), (edges, edge_lines) = tables
    nv = len(nodes)
    for table, block_lines in ((tris, tri_lines), (edges, edge_lines)):
        vertex = table["vertex"]
        outside = np.flatnonzero(((vertex < 1) | (vertex > nv)).ravel())
        if len(outside):
            row, col = divmod(int(outside[0]), vertex.shape[1])
            raise MeshParseError(
                f"vertex index {vertex[row, col]} out of range 1..{nv}", line=block_lines[row]
            )

    try:
        return Mesh(nodes["xy"], tris["vertex"] - 1, tris["tag"], edges["vertex"] - 1, edges["tag"])
    except MeshError as exc:
        raise MeshParseError(str(exc)) from exc


def meshes_equal(a, b):
    """Exact equality of all mesh arrays (used for round-trip checks)."""
    return (
        np.array_equal(a.vertices, b.vertices)
        and np.array_equal(a.triangles, b.triangles)
        and np.array_equal(a.region_tag, b.region_tag)
        and np.array_equal(a.boundary_edges, b.boundary_edges)
        and np.array_equal(a.boundary_tag, b.boundary_tag)
    )
