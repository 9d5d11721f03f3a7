"""Whole-block text I/O against the line-by-line readers and writers it replaced.

`old_serialize_mesh`, `old_parse_mesh` and `old_write_fields_csv` are the
earlier per-line implementations, copied here unchanged as oracles. Mesh
files and fields CSVs must come out byte-identical, a rejected input must
give the same message and line number, and an accepted input the same
mesh. The one intended narrowing is pinned at the end: numbers spelled in
ways only Python's int()/float() read (digit separators, non-ASCII digits).
"""

from types import SimpleNamespace

import numpy as np
import pytest

import magfem as mf
from magfem import assembly, cli, harness
from magfem.femspace import CoefficientVector, zero_coefficients
from magfem.mesh import Mesh, MeshError, MeshParseError, meshes_equal

from conftest import set_element_batch


def old_serialize_mesh(mesh):
    """Mesh to the line-oriented ASCII format (1-based, round-trip exact)."""
    lines = []
    lines.append(f"$Nodes {mesh.num_vertices}")
    for k, (x, y) in enumerate(mesh.vertices, start=1):
        lines.append(f"{k} {x:.17g} {y:.17g}")
    lines.append(f"$Triangles {mesh.num_triangles}")
    for k, (tri, reg) in enumerate(zip(mesh.triangles, mesh.region_tag), start=1):
        lines.append(f"{k} {tri[0] + 1} {tri[1] + 1} {tri[2] + 1} {reg}")
    lines.append(f"$BoundaryEdges {len(mesh.boundary_edges)}")
    for k, ((u, v), tag) in enumerate(zip(mesh.boundary_edges, mesh.boundary_tag), start=1):
        lines.append(f"{k} {u + 1} {v + 1} {tag}")
    return "\n".join(lines) + "\n"


def old_parse_mesh(text):
    """Parse the ASCII mesh format; errors carry the offending line number."""
    raw = text.splitlines()
    entries = []  # (line_number, tokens)
    for lineno, line in enumerate(raw, start=1):
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            entries.append((lineno, stripped.split()))

    pos = 0

    def next_entry():
        nonlocal pos
        if pos >= len(entries):
            last = entries[-1][0] if entries else 0
            raise MeshParseError("unexpected end of file", line=last + 1)
        e = entries[pos]
        pos += 1
        return e

    def read_header(name):
        lineno, tok = next_entry()
        if len(tok) != 2 or tok[0] != name:
            raise MeshParseError(f"expected '{name} <count>' header", line=lineno)
        try:
            count = int(tok[1])
        except ValueError:
            raise MeshParseError(f"bad count in {name} header", line=lineno) from None
        if count < 0:
            raise MeshParseError(f"negative count in {name} header", line=lineno)
        return count

    def read_block(name, width, convert):
        count = read_header(name)
        rows = []
        for k in range(1, count + 1):
            lineno, tok = next_entry()
            if tok[0].startswith("$"):
                raise MeshParseError(
                    f"{name} block truncated: expected {count} rows, got {k - 1}", line=lineno
                )
            if len(tok) != width:
                raise MeshParseError(f"expected {width} fields in {name} row", line=lineno)
            try:
                ident = int(tok[0])
                values = convert(tok[1:])
            except ValueError:
                raise MeshParseError(f"malformed {name} row", line=lineno) from None
            if ident != k:
                raise MeshParseError(
                    f"ids must be consecutive starting at 1; expected {k}, got {ident}",
                    line=lineno,
                )
            rows.append((lineno, values))
        return rows

    nodes = read_block("$Nodes", 3, lambda s: (float(s[0]), float(s[1])))
    nv = len(nodes)

    def check_index(i, lineno):
        if not (1 <= i <= nv):
            raise MeshParseError(f"vertex index {i} out of range 1..{nv}", line=lineno)
        return i - 1

    tris = read_block("$Triangles", 5, lambda s: tuple(int(x) for x in s))
    edges = read_block("$BoundaryEdges", 4, lambda s: tuple(int(x) for x in s))
    if pos != len(entries):
        raise MeshParseError("trailing content after $BoundaryEdges block", line=entries[pos][0])

    vertices = np.array([v for _, v in nodes], dtype=float).reshape(nv, 2)
    triangles = [
        (check_index(a, ln), check_index(b, ln), check_index(c, ln))
        for ln, (a, b, c, _) in tris
    ]
    region = [r for _, (_, _, _, r) in tris]
    bedges = [(check_index(u, ln), check_index(v, ln)) for ln, (u, v, _) in edges]
    btags = [t for _, (_, _, t) in edges]

    try:
        return Mesh(vertices, np.array(triangles, dtype=int).reshape(len(triangles), 3),
                    region, np.array(bedges, dtype=int).reshape(len(bedges), 2), btags)
    except MeshError as exc:
        raise MeshParseError(str(exc)) from exc


def old_write_fields_csv(problem, coeffs, path):
    pts, _, b, h = assembly.fields_at_quadrature(problem, coeffs)
    ne, nq, _ = pts.shape
    with open(path, "w") as f:
        f.write("element,qpoint,x,y,bx,by,hx,hy\n")
        for e in range(ne):
            for q in range(nq):
                f.write(
                    f"{e},{q},{pts[e,q,0]:.12g},{pts[e,q,1]:.12g},"
                    f"{b[e,q,0]:.12g},{b[e,q,1]:.12g},{h[e,q,0]:.12g},{h[e,q,1]:.12g}\n"
                )


# -- serialization -------------------------------------------------------------


def _special_mesh():
    # signed zero, a subnormal, a huge coordinate, two-digit region tags and
    # an empty boundary block: serialization reads only these attributes,
    # so values no valid Mesh could hold are fine here
    vertices = np.array([[-0.0, 0.0], [1.0, 1e-310], [0.0, 1e300], [-2.5e-7, 1.0 / 3.0]])
    triangles = np.array([[0, 1, 2], [0, 2, 3]])
    return SimpleNamespace(
        num_vertices=4,
        num_triangles=2,
        vertices=vertices,
        triangles=triangles,
        region_tag=np.array([10, 123456]),
        boundary_edges=np.zeros((0, 2), dtype=np.int64),
        boundary_tag=np.zeros(0, dtype=np.int64),
    )


MESHES = {
    "unit_square_1": lambda: mf.generate_unit_square(1),
    "unit_square_7": lambda: mf.generate_unit_square(7),
    "disc": lambda: harness.disc_mesh(3),
    "pm_toy_base": lambda: harness.pm_toy_benchmark().base_mesh,
    "two_wire_base": lambda: harness.two_wire_disc_benchmark().base_mesh,
    "refined": lambda: mf.refine_uniform(mf.refine_uniform(harness.disc_mesh(2))),
    "special": _special_mesh,
}


@pytest.mark.parametrize("name", sorted(MESHES))
def test_serialize_byte_identical(name):
    mesh = MESHES[name]()
    assert mf.serialize_mesh(mesh) == old_serialize_mesh(mesh)


def test_special_mesh_text():
    assert mf.serialize_mesh(_special_mesh()) == (
        "$Nodes 4\n"
        "1 -0 0\n"
        "2 1 9.9999999999999694e-311\n"
        "3 0 1.0000000000000001e+300\n"
        "4 -2.4999999999999999e-07 0.33333333333333331\n"
        "$Triangles 2\n"
        "1 1 2 3 10\n"
        "2 1 3 4 123456\n"
        "$BoundaryEdges 0\n"
    )


# -- parsing -------------------------------------------------------------------


def _outcome(parse, text):
    try:
        return parse(text)
    except MeshParseError as exc:
        return ("MeshParseError", str(exc), exc.line)


def _assert_same_outcome(text):
    new, old = _outcome(mf.parse_mesh, text), _outcome(old_parse_mesh, text)
    if isinstance(old, tuple):
        assert new == old
    else:
        assert isinstance(new, Mesh)
        assert meshes_equal(new, old)
        assert new.vertices.tobytes() == old.vertices.tobytes()  # signed zeros too


SQUARE = old_serialize_mesh(mf.generate_unit_square(2))
SQUARE_LINES = SQUARE.splitlines()
# line indices (0-based) in SQUARE: $Nodes 0, nodes 1-9, $Triangles 10,
# triangles 11-18, $BoundaryEdges 19, edges 20-27


def _edit(**rows):
    """SQUARE with the given 0-based lines replaced (None deletes the line)."""
    lines = list(SQUARE_LINES)
    for key, value in sorted(rows.items(), key=lambda kv: -int(kv[0][1:])):
        index = int(key[1:])
        if value is None:
            del lines[index]
        else:
            lines[index] = value
    return "\n".join(lines) + "\n"


SPECIAL_TEXT = (
    "$Nodes 4\n1 -0 0\n2 1 1e-310\n3 1 1\n4 0 1\n"
    "$Triangles 2\n1 1 2 3 10\n2 1 3 4 11\n"
    "$BoundaryEdges 4\n1 1 2 7\n2 2 3 7\n3 3 4 12\n4 4 1 12\n"
)

CORPUS = {
    "valid": SQUARE,
    "special_values": SPECIAL_TEXT,
    "empty": "",
    "only_blank_and_comments": "\n  \n# nothing\n\t\n",
    "missing_nodes_header": "1 0.0 0.0\n",
    "wrong_header_name": _edit(l0="$Vertices 9"),
    "header_three_tokens": _edit(l10="$Triangles 8 extra"),
    "header_one_token": _edit(l19="$BoundaryEdges"),
    "bad_count": _edit(l0="$Nodes nine"),
    "float_count": _edit(l10="$Triangles 8.0"),
    "signed_count": _edit(l0="$Nodes +9"),
    "negative_count": _edit(l10="$Triangles -1"),
    "missing_triangle_header": _edit(l10=None),
    "truncated_at_eof": "\n".join(SQUARE_LINES[:24]) + "\n",
    "eof_after_header": "\n".join(SQUARE_LINES[:20]) + "\n",
    "eof_in_nodes": "$Nodes 3\n1 0 0\n",
    "dollar_row_in_nodes": _edit(l9=None),
    "dollar_row_in_triangles": _edit(l18=None),
    "dollar_token_row": _edit(l3="$3 0.5 0.5"),
    "dollar_inside_token": _edit(l3="3 0.$5 0"),
    "short_node_row": _edit(l4="4 0.5"),
    "long_triangle_row": _edit(l12="2 1 5 4 1 9"),
    "short_edge_row": _edit(l21="2 2 3"),
    "first_row_short": _edit(l11="1 1 2 5"),
    "oops_coordinate": _edit(l2="2 0.5 oops"),
    "oops_triangle_id": _edit(l14="oops 4 5 8 1"),
    "oops_edge_tag": _edit(l27="8 4 1 oops"),
    "float_triangle_index": _edit(l13="3 2 1.0 6 1"),
    "float_node_id": _edit(l1="1.0 0 0"),
    "exponent_edge_index": _edit(l20="1 1e0 2 1"),
    "nonconsecutive_node_id": _edit(l3="4 0.5 0.5"),
    "nonconsecutive_triangle_id": _edit(l11="0 1 2 5 1"),
    "nonconsecutive_edge_id": _edit(l27="9 4 1 1"),
    "zero_index": _edit(l11="1 0 2 5 1"),
    "negative_index": _edit(l22="3 -3 6 1"),
    "out_of_range_index": _edit(l12="2 1 5 10 1"),
    "out_of_range_edge_index": _edit(l25="6 9 10 1"),
    "index_near_int64_max": _edit(l15="5 5 6 4611686018427387904 1"),
    "id_fault_before_malformed_row": _edit(l12="9 1 5 4 1", l16="6 oops 6 9 1"),
    "malformed_row_before_id_fault": _edit(l12="2 1 5 x 1", l16="9 5 6 9 1"),
    "range_fault_then_later_malformed_row": _edit(l12="2 1 5 99 1", l24="5 9 8 x"),
    "range_faults_in_both_blocks": _edit(l15="5 5 6 99 1", l21="2 0 3 1"),
    "two_range_faults_in_one_row": _edit(l12="2 0 5 99 1"),
    "trailing_content": SQUARE + "extra\n",
    "trailing_header": SQUARE + "$Nodes 0\n",
    "comments_and_blank_lines": (
        "# a mesh\n\n" + SQUARE.replace("\n4 ", "\n  # note\n\n4 ").replace(
            "$Triangles 8\n", "$Triangles 8   # count\n\n"
        )
    ),
    "comment_after_values": _edit(l3="3 1 0 # corner", l14="4 # 4 5 8 1"),
    "hash_in_token": _edit(l3="3 1#0 0"),
    "tabs_and_spaces": SQUARE.replace(" ", "\t  "),
    "leading_and_trailing_whitespace": "".join(f"  {line}\t\n" for line in SQUARE_LINES),
    "crlf": SQUARE.replace("\n", "\r\n"),
    "cr_only": SQUARE.replace("\n", "\r"),
    "no_final_newline": SQUARE.rstrip("\n"),
    "nbsp_separator": _edit(l2="2\xa00.5 0"),
    "nan_vertex": _edit(l5="5 nan 0.5"),
    "inf_vertex": _edit(l5="5 0.5 -inf"),
    "huge_coordinate": _edit(l9="9 1e300 1"),
    "empty_boundary_block": "\n".join(SQUARE_LINES[:19]) + "\n$BoundaryEdges 0\n",
    "inconsistent_boundary": _edit(l27="8 4 5 1"),
    "clockwise_triangle": _edit(l11="1 1 5 2 1"),
    "explicit_signs_and_zeros": _edit(l1="+1 +0.0 -0", l11="01 1 2 +5 1"),
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_parse_matches_line_by_line_reader(name):
    _assert_same_outcome(CORPUS[name])


@pytest.mark.parametrize(
    "name, line",
    [
        ("empty", 1),
        ("wrong_header_name", 1),
        ("eof_after_header", 21),
        ("dollar_row_in_nodes", 10),
        ("float_triangle_index", 14),
        ("id_fault_before_malformed_row", 13),
        ("malformed_row_before_id_fault", 13),
        ("range_fault_then_later_malformed_row", 25),
        ("trailing_content", 29),
    ],
)
def test_parse_error_lines(name, line):
    # the oracle comparison above would pass if both readers were wrong the
    # same way; pin some lines by hand
    with pytest.raises(MeshParseError) as err:
        mf.parse_mesh(CORPUS[name])
    assert err.value.line == line


@pytest.mark.parametrize("name", ["valid", "special_values", "comments_and_blank_lines", "crlf"])
def test_corpus_meshes_parse(name):
    assert isinstance(mf.parse_mesh(CORPUS[name]), Mesh)


@pytest.mark.parametrize("name", sorted(set(MESHES) - {"special"}))
def test_parse_round_trip_matches(name):
    _assert_same_outcome(old_serialize_mesh(MESHES[name]()))


@pytest.mark.parametrize(
    "row, block, line",
    [
        ("l5", "$Nodes", 6),
        ("l15", "$Triangles", 16),
        ("l25", "$BoundaryEdges", 26),
    ],
)
@pytest.mark.parametrize(
    "token, column",
    [("1_0", 1), ("\u0661", 1), ("99999999999999999999", 0)],
    ids=["digit_separator", "non_ascii_digit", "beyond_int64"],
)
def test_python_only_numbers_are_malformed(row, block, line, token, column):
    # the line-by-line reader used int()/float(), which read 1_0 as 10 and
    # Arabic-Indic digits as digits; numpy's reader does not, so such a row
    # is malformed. An id beyond int64 is malformed too (the old reader
    # reported it as a non-consecutive id).
    fields = SQUARE_LINES[int(row[1:])].split()
    fields[column] = token
    with pytest.raises(MeshParseError) as err:
        mf.parse_mesh(_edit(**{row: " ".join(fields)}))
    assert str(err.value) == f"line {line}: malformed {block} row"
    assert err.value.line == line


def test_digit_separator_was_read_by_the_old_reader():
    # what the narrowing gives up: the old reader accepted 1_0 for 10
    assert old_parse_mesh(_edit(l9="9 1_0e-1 1")).vertices[8, 0] == 1.0
    assert old_parse_mesh(_edit(l9="9 \u0661 1")).vertices[8, 0] == 1.0


# -- fields CSV ------------------------------------------------------------------


def _linear_square_problem(n):
    return mf.Problem(
        mesh=mf.generate_unit_square(n),
        order=2,
        materials={1: mf.LinearLaw(1000.0)},
        dirichlet_tags=frozenset({1}),
        js_density={1: 1.0e5},
    )


@pytest.mark.parametrize("chunk", [1, 7, 1024])  # elements a batch
def test_fields_csv_byte_identical(tmp_path, monkeypatch, small_brauer_problem, chunk):
    space, nq = small_brauer_problem.space, len(small_brauer_problem.rule)
    set_element_batch(monkeypatch, space, nq, chunk)
    coeffs, _ = mf.newton_solve(small_brauer_problem)
    for problem, c in [
        (small_brauer_problem, coeffs),
        (small_brauer_problem, zero_coefficients(small_brauer_problem.space)),
    ]:
        cli._write_fields_csv(problem, c, tmp_path / "new.csv")
        old_write_fields_csv(problem, c, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_fields_csv_byte_identical_across_a_chunk_boundary(tmp_path):
    problem = _linear_square_problem(24)  # 1,152 elements: one full batch and a partial one
    assert len(assembly.element_batches(problem.space, len(problem.rule))) == 2
    rng = np.random.default_rng(5)
    coeffs = CoefficientVector(problem.space, rng.standard_normal(problem.space.n_free))
    cli._write_fields_csv(problem, coeffs, tmp_path / "new.csv")
    old_write_fields_csv(problem, coeffs, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
