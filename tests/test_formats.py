"""Serialization tests: determinism, fidelity, and re-parsing."""

import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from riemannmesh import (
    DEFAULT_WELD_TOL,
    CharismaKind,
    DomainGrid,
    IndexedFunction,
    Seam,
    SheetStack,
    SurfaceMesh,
    assemble_surface,
    branch_color,
    build_range_chart,
    build_sheets,
    compatible_kinds,
    evaluate_charisma,
)
from riemannmesh import branches, formats
from riemannmesh import mesh as mesh_module
from riemannmesh.branches import _distinct
from riemannmesh.cli import FIGURE_PRESETS, build_mesh, parse_args, run
from riemannmesh.formats import read_ply, render_outputs, seams_json_text
from riemannmesh.mesh import _runs

ROOT3 = IndexedFunction.root(3)
GRID = DomainGrid(0.5, 2.0, 3, 8)


@pytest.fixture(scope="module")
def mesh():
    return assemble_surface(build_sheets(ROOT3, (-1, 0, 1), CharismaKind.SIN, GRID), weld=True)


def _fmt(v):
    return repr(float(v))


def assert_same_text(got, want):
    """got == want for writer outputs: a text, or a tuple of texts. A
    failure names the first differing line and column and shows both texts
    around that point, where pytest's own diff of two multi-kilobyte strings
    can run for minutes."""
    got, want = ((x,) if isinstance(x, str) else x for x in (got, want))
    if len(got) != len(want):
        pytest.fail(f"{len(got)} texts, expected {len(want)}", pytrace=False)
    for part, (g, w) in enumerate(zip(got, want)):
        if g == w:
            continue
        at = next((i for i, (a, b) in enumerate(zip(g, w)) if a != b), min(len(g), len(w)))
        start = g.rfind("\n", 0, at) + 1  # the line holding `at` starts here in both texts
        got_near, want_near = (t[max(start, at - 60):at + 60] for t in (g, w))
        pytest.fail(
            f"text {part} differs first at line {g.count(chr(10), 0, at) + 1}, column {at - start + 1}:\n"
            f"  got      {got_near!r}\n  expected {want_near!r}",
            pytrace=False,
        )


def rendered(fmt, mesh, stem="m"):
    """The text render_outputs writes for a mesh in a format, to stem.<fmt>:
    for "obj" the OBJ and MTL texts as a tuple. The seam sidecar is left out."""
    files = render_outputs(mesh, fmt, Path(f"{stem}.{fmt}"), DEFAULT_WELD_TOL)
    texts = tuple(b"".join(pieces).decode() for pieces in list(files.values())[:-1])
    return texts if fmt == "obj" else texts[0]


def row_ply_text(mesh):
    """Line-at-a-time PLY writer: the ply text must match."""
    lines = [
        "ply", "format ascii 1.0", "comment riemannmesh surface",
        f"element vertex {mesh.n_vertices}",
        "property double x", "property double y", "property double z",
        "property uchar red", "property uchar green", "property uchar blue",
        f"element face {mesh.n_faces}",
        "property list uchar int vertex_indices",
        "end_header",
    ]
    for (x, y, c), (r, g, b) in zip(mesh.positions, mesh.colors):
        lines.append(f"{_fmt(x)} {_fmt(y)} {_fmt(c)} {r} {g} {b}")
    for a, b, c in mesh.faces:
        lines.append(f"3 {a} {b} {c}")
    return "\n".join(lines) + "\n"


def row_obj_text(mesh, mtl_filename):
    """Line-at-a-time OBJ and MTL writer: the obj texts must match."""
    obj = [f"mtllib {mtl_filename}"]
    for x, y, c in mesh.positions:
        obj.append(f"v {_fmt(x)} {_fmt(y)} {_fmt(c)}")
    current = None
    for (a, b, c), k in zip(mesh.faces, mesh.face_branch):
        if k != current:
            obj += [f"g branch_{k}", f"usemtl branch_{k}"]
            current = k
        obj.append(f"f {a + 1} {b + 1} {c + 1}")
    mtl = []
    for k in dict.fromkeys(int(k) for k in mesh.face_branch):
        r, g, b = branch_color(k)
        mtl += [f"newmtl branch_{k}", f"Kd {_fmt(r / 255)} {_fmt(g / 255)} {_fmt(b / 255)}"]
    return "\n".join(obj) + "\n", "\n".join(mtl) + "\n"


def row_json_text(mesh):
    """Record-at-a-time JSON writer: the json text must match."""
    doc = {
        "schema": 1,
        "function": mesh.function.label(),
        "charisma": mesh.kind.value,
        "chart": "range" if mesh.range_chart else "surface",
        "welded": mesh.welded,
        "sheets": [int(k) for k in mesh.sheet_branches],
        "vertices": [
            {"x": x, "y": y, "c": c, "k": k, "w": [w.real, w.imag]}
            for (x, y, c), k, w in zip(mesh.positions.tolist(), mesh.branch.tolist(), mesh.w.tolist())
        ],
        "faces": [[int(a), int(b), int(c)] for a, b, c in mesh.faces],
        "seams": [
            {"upper_branch": s.upper_branch, "lower_branch": s.lower_branch,
             "max_gap": s.max_gap, "mean_gap": s.mean_gap, "welded": s.welded}
            for s in mesh.seams
        ],
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def row_csv_text(mesh):
    """Line-at-a-time CSV writer: the csv text must match."""
    lines = ["x,y,c,k"]
    for (x, y, c), k in zip(mesh.positions.tolist(), mesh.branch.tolist()):
        lines.append(f"{_fmt(x)},{_fmt(y)},{_fmt(c)},{k}")
    return "\n".join(lines) + "\n"


class StoredLattice:
    """The grid of a synthetic mesh: its lattice parts x and y are arrays
    of its own, where a DomainGrid computes r cos(theta) and r sin(theta)."""

    def __init__(self, x, y):
        self.parts = {math.cos: x, math.sin: y}

    def lattice_part(self, trig):
        return self.parts[trig]


class StoredValuesMesh(SurfaceMesh):
    """A SurfaceMesh whose range values are its own, stored in stored_w: a
    built mesh computes f_k(z) of its function on each access, where a
    synthetic mesh's values are arbitrary."""

    stored_w: np.ndarray  # (1, 1, n_vertices) complex

    @property
    def sheet_w(self):
        return self.stored_w


def synthetic_mesh(n_vertices, n_faces, seed):
    """A mesh of awkward values: signed zeros, wide exponents, subnormals,
    negative branches, and face groups whose branch recurs later. It is a
    one-sheet factored mesh whose lattice is one row of its vertices, each
    kept, which has no faces, so its faces are all walls; its heights are a
    height per point, read through the identity, as phase heights are. An
    edit writes into vertex_views(mesh) and walls."""
    rng = np.random.default_rng(seed)
    positions = rng.standard_normal((n_vertices, 3)) * 10.0 ** rng.integers(-30, 30, (n_vertices, 3))
    positions[::5, 0] = -0.0
    positions[1::7, 1] = 0.0
    positions[2::11, 2] = 5e-324
    branch = rng.integers(-9, 10, n_vertices)
    w = rng.standard_normal(n_vertices) + 1j * rng.standard_normal(n_vertices)
    w.imag[::3] = -0.0
    runs = rng.integers(-3, 4, max(1, n_faces // 50))
    face_branch = np.repeat(runs, -(-n_faces // len(runs)))[:n_faces]
    mesh = StoredValuesMesh(
        function=ROOT3,
        kind=CharismaKind.SIN,
        sheet_branches=(-1, 0, 1),
        grid=StoredLattice(positions[None, :, 0].copy(), positions[None, :, 1].copy()),
        heights=(positions[None, :, 2].copy(), np.arange(n_vertices, dtype=np.int32).reshape(1, n_vertices)),
        sheet_start=np.array([0, n_vertices], np.int32),
        welded_into=np.array([-1], np.int32),
        walls=rng.integers(0, max(n_vertices, 1), (n_faces, 3)),
        branch_runs=_runs(branch, 1),
        face_branch_runs=_runs(face_branch, 1),
        seams=[Seam(-1, 0, 2.5e-17, 1e-17, True), Seam(1, -1, 2.0, 1.5, False)],
        welded=True,
    )
    mesh.stored_w = w[None, None]
    return mesh


def vertex_views(mesh):
    """x, y, c and w of each vertex of a synthetic mesh: views into its lattice parts, heights and values, to
    edit."""
    return mesh.grid.parts[math.cos][0], mesh.grid.parts[math.sin][0], mesh.heights[0][0], mesh.stored_w[0, 0]


def set_branch(mesh, branch):
    # the mesh stores runs, and derives its colors from them
    mesh.branch_runs = _runs(branch, 1)


def signed_zeros(mesh):
    # -0.0 and 0.0 in one column: their reprs differ, their values compare equal
    x, _, _, w = vertex_views(mesh)
    x[:] = np.where(np.arange(mesh.n_vertices) % 3, 0.0, -0.0)
    w.real[::2] = -0.0


def one_value(mesh):
    x, y, c, w = vertex_views(mesh)
    x[:] = y[:] = c[:] = 0.1
    w[:] = 0.1 - 0.1j


def non_finite(mesh):
    # two NaN payloads and a negative NaN all print as nan
    payload = np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)[0]
    x, y, c, _ = vertex_views(mesh)
    x[::4] = np.nan
    y[1::4] = np.inf
    c[2::4] = -np.inf
    x[3::4] = payload
    c[3::8] = -np.nan


# a writer budget that keeps the row-at-a-time writers fast on tables of
# several blocks, and a table length that fills more than two blocks of it in
# every format: no row is narrower than 8 bytes ("3 0 0 0\n", "[0,0,0],")
SMALL_BLOCK_BYTES = 1 << 12
MANY = 2 * SMALL_BLOCK_BYTES // 8 + 3
I64_MIN, I64_MAX = -2**63, 2**63 - 1
WIDEST_FLOAT = -2.2250738585072014e-308  # 24 characters, the longest repr of a float64

PIECES = {
    "ply": formats._ply_pieces,
    "obj": lambda mesh: formats._obj_pieces(mesh, "m.mtl"),
    "json": formats._json_pieces,
    "csv": formats._csv_pieces,
}
# the pieces of each format besides the blocks of its tables: the texts
# before, between and after them (OBJ writes its group lines inside its face blocks)
FIXED_PIECES = {"ply": 1, "obj": 1, "json": 3, "csv": 1}


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(formats, "_BLOCK_BYTES", SMALL_BLOCK_BYTES)


def anchored_mesh(n_vertices, n_faces, seed):
    """synthetic_mesh with the widest text of every column in row 0, so that
    a table's record, each cell padded to the widest text of its column, is
    as wide as the table's first row at any size; and with one face group."""
    mesh = synthetic_mesh(n_vertices, n_faces, seed)
    x, y, c, w = vertex_views(mesh)
    x[0] = y[0] = c[0] = WIDEST_FLOAT
    w[0] = complex(WIDEST_FLOAT, WIDEST_FLOAT)
    branch = mesh.branch.copy()
    branch[0] = -9  # grey, 127 127 127: three digits in every colour column
    set_branch(mesh, branch)
    mesh.walls[:1] = n_vertices - 1
    mesh.face_branch_runs = _runs([0], n_faces)
    return mesh


def first_rows(fmt, mesh):
    """Row 0 of a format's vertex table and of its face table (None for
    CSV), each with the text joining it to the next row, as the row-at-a-time
    writers write them; OBJ's face row is one byte longer, as its table's
    record holds a byte that marks a group's first row."""
    if fmt == "json":
        doc = json.loads(row_json_text(mesh))
        return [json.dumps(doc[table][0], separators=(",", ":")) + "," for table in ("vertices", "faces")]
    text = {"ply": row_ply_text, "obj": lambda m: row_obj_text(m, "m.mtl")[0], "csv": row_csv_text}[fmt](mesh)
    lines = text.split("\n")
    vertex = {"ply": 13, "obj": 1, "csv": 1}[fmt]  # header lines
    face = vertex + mesh.n_vertices + (2 if fmt == "obj" else 0)  # OBJ opens its group with g and usemtl
    return [lines[vertex] + "\n", None if fmt == "csv" else lines[face] + "\n" + "\1" * (fmt == "obj")]


def block_rows(row):
    """The rows per block of a table whose record is as wide as `row`, from
    the writer's byte budget; the missing face table of CSV (None) counts one."""
    return max(1, formats._BLOCK_BYTES // len(row)) if row else 1


# A writer texts every value of an int column's range when the range is
# narrower than the column, and each distinct value otherwise. The int64
# edits take one way each; small_int_dtypes and digit_widths take the first
# on the larger test mesh and the second on the smaller one. A mesh's branch
# is int64 and its colours come from the palette, so the colour and int8
# cells that no mesh holds are the *_cells edits, written by _table itself.
def int64_extremes_narrow(mesh):
    set_branch(mesh, I64_MIN + np.arange(mesh.n_vertices) % 7)
    mesh.walls[:] = I64_MAX - mesh.walls % 5


def int64_extremes_wide(mesh):
    branch = mesh.branch.copy()
    branch[::3] = I64_MIN
    branch[1::3] = I64_MAX
    set_branch(mesh, branch)
    mesh.walls[::4, 0] = I64_MIN
    mesh.walls[1::4, 2] = I64_MAX


def small_int_dtypes(mesh):
    branch = np.arange(mesh.n_vertices) % 256 - 128
    branch[-1] = 127
    set_branch(mesh, branch)
    mesh.walls = (mesh.walls % 256 - 128).astype(np.int8)
    mesh.walls[-1] = [-128, 127, 0]


def only_zero(mesh):
    set_branch(mesh, np.zeros(mesh.n_vertices, dtype=np.int64))
    mesh.walls[:] = 0


def digit_widths(mesh):
    # the digit count changes between neighbouring rows: within blocks, and
    # from the last row of a block to the first of the next
    up = (np.arange(mesh.n_vertices) + 1) % 2
    set_branch(mesh, np.where(up, 100_000, 99_999))
    up = (np.arange(mesh.n_faces) + 1) % 2
    mesh.walls[:, 0] = np.where(up, 10, 9)
    mesh.walls[:, 1] = 10**12
    mesh.walls[:, 2] = np.where(up, 100_000, 99_999)


# each returns a colour column and a branch column for a mesh's rows
def small_int_dtypes_cells(mesh):
    branch = (np.arange(mesh.n_vertices) % 256 - 128).astype(np.int8)
    branch[-1] = 127
    colors = (np.arange(3 * mesh.n_vertices) % 256).astype(np.uint8).reshape(-1, 3)
    colors[-1, -1] = 255
    return colors, branch


def only_zero_cells(mesh):
    return np.zeros((mesh.n_vertices, 3), dtype=np.uint8), mesh.branch


def digit_widths_cells(mesh):
    up = (np.arange(mesh.n_vertices) + 1) % 2
    colors = mesh.colors.copy()
    colors[:, 0] = np.where(up, 10, 9)
    colors[:, 1] = np.where(up, 100, 99)
    return colors, mesh.branch


def plain_segment(columns):
    """A table segment of plain columns, 1-D or 2-D arrays of one length:
    a cell per value of a row, the floats texted once per distinct value and
    the ints one text per value, as the face table texts them, each reading
    its own row column."""
    cells, rows = [], []
    for column in columns:
        column = column[:, None] if column.ndim == 1 else column
        if column.dtype.kind == "f":
            texts, index = formats._float_texts(column)
            index = index.reshape(column.shape)
        else:
            texts, index = formats._int_texts(column.reshape(-1)), np.arange(column.size).reshape(column.shape)
        cells += [(texts, None, len(cells) + j) for j in range(column.shape[1])]
        rows.append(index)
    return np.column_stack(rows), cells


def row_table_text(columns, seps, end, between=""):
    """Row-at-a-time _table: ints in plain decimal, floats as _fmt writes them."""
    rows = []
    for row in zip(*(column.reshape(len(column), -1).tolist() for column in columns)):
        cells = [_fmt(v) if isinstance(v, float) else str(v) for cell in row for v in cell]
        rows.append("".join(sep + cell for sep, cell in zip(seps, cells)) + end)
    return between.join(rows)


class TestWritersMatchRowReference:
    def test_one_vertex_and_no_face(self):
        mesh = synthetic_mesh(1, 0, seed=1)
        assert_same_text(rendered("ply", mesh), row_ply_text(mesh))
        assert_same_text(rendered("obj", mesh), row_obj_text(mesh, "m.mtl"))
        assert_same_text(rendered("json", mesh), row_json_text(mesh))
        assert_same_text(rendered("csv", mesh), row_csv_text(mesh))

    @pytest.mark.parametrize(
        "vertices,faces",
        [
            (lambda rows: rows - 1, lambda rows: rows + 1),
            (lambda rows: rows, lambda rows: rows),
            (lambda rows: rows + 1, lambda rows: rows - 1),
            (lambda rows: 2 * rows + 1, lambda rows: 3 * rows),
        ],
        ids=["rows-1,rows+1", "rows,rows", "rows+1,rows-1", "2rows+1,3rows"],
    )
    @pytest.mark.parametrize("fmt", ["ply", "obj", "json", "csv"])
    def test_tables_at_block_boundaries_match_the_row_at_a_time_writers(self, fmt, vertices, faces):
        # the vertex and face counts, from each table's rows per block at the writer's budget
        n_vertices = vertices(block_rows(first_rows(fmt, anchored_mesh(2, 1, seed=0))[0]))
        n_faces = faces(block_rows(first_rows(fmt, anchored_mesh(n_vertices, 1, seed=0))[1]))
        mesh = anchored_mesh(n_vertices, n_faces, seed=n_vertices + n_faces)
        rows = [block_rows(row) for row in first_rows(fmt, mesh)]
        assert (n_vertices, n_faces) == (vertices(rows[0]), faces(rows[1]))  # the anchors fix every width
        pieces = list(PIECES[fmt](mesh))
        want = {"ply": row_ply_text, "obj": lambda m: row_obj_text(m, "m.mtl")[0],
                "json": row_json_text, "csv": row_csv_text}[fmt](mesh)
        assert_same_text(b"".join(pieces).decode(), want)
        # the counts sit where meant: each table takes the blocks its rows per block give
        blocks = -(-n_vertices // rows[0]) + (0 if fmt == "csv" else -(-n_faces // rows[1]))
        assert len(pieces) == FIXED_PIECES[fmt] + blocks

    @pytest.mark.parametrize("edit", [signed_zeros, one_value, non_finite])
    def test_awkward_columns_match_the_row_at_a_time_writers(self, small_blocks, edit):
        mesh = synthetic_mesh(MANY, MANY, seed=7)
        edit(mesh)
        assert_same_text(rendered("ply", mesh), row_ply_text(mesh))
        assert_same_text(rendered("obj", mesh), row_obj_text(mesh, "m.mtl"))
        assert_same_text(rendered("csv", mesh), row_csv_text(mesh))
        if np.isfinite(mesh.positions).all():
            assert_same_text(rendered("json", mesh), row_json_text(mesh))
        else:
            with pytest.raises(ValueError):
                rendered("json", mesh)

    @pytest.mark.parametrize("figure", sorted(FIGURE_PRESETS))
    def test_every_preset_matches_the_row_at_a_time_writers(self, figure):
        job = parse_args(["--figure", figure, "--n-r", "6", "--n-theta", "24"])
        mesh = build_mesh(job)
        # sheets share one lattice, so values repeat and each distinct
        # float is formatted for many cells
        assert len(np.unique(mesh.positions)) < mesh.positions.size / 2
        assert_same_text(rendered("ply", mesh), row_ply_text(mesh))
        assert_same_text(rendered("obj", mesh), row_obj_text(mesh, "m.mtl"))
        assert_same_text(rendered("json", mesh), row_json_text(mesh))
        assert_same_text(rendered("csv", mesh), row_csv_text(mesh))

    @pytest.mark.parametrize(
        "build",
        [
            # every vertex of this chart is a branch region of its own: a block's rows span many runs
            lambda: build_range_chart(IndexedFunction.root(2**63 - 1), DomainGrid(0.5, 2.0, 8, 48)),
            # a walled surface with welded seams: a block's rows span sheets, some of them dropping a column
            lambda: assemble_surface(build_sheets(ROOT3, ROOT3.branch_indices(), CharismaKind.INDEX,
                                                  DomainGrid(0.5, 2.0, 8, 48)), walls=True, weld_tol=1.5),
        ],
        ids=["chart-with-a-run-per-vertex", "walled-welded-surface"],
    )
    def test_a_vertex_table_is_a_segment_per_sheet_whatever_its_runs(self, small_blocks, build):
        mesh = build()
        assert len(formats._vertex_segments(mesh, [])) == len(mesh.heights[0])
        if mesh.range_chart:
            assert len(mesh.branch_runs[0]) == mesh.n_vertices
        assert_same_text(rendered("ply", mesh), row_ply_text(mesh))
        assert_same_text(rendered("obj", mesh), row_obj_text(mesh, "m.mtl"))
        assert_same_text(rendered("json", mesh), row_json_text(mesh))
        assert_same_text(rendered("csv", mesh), row_csv_text(mesh))

    @pytest.mark.parametrize("fmt", ["ply", "obj", "json", "csv"])
    def test_the_cli_streams_the_texts_of_the_public_writers(self, tmp_path, fmt):
        out = tmp_path / f"m.{fmt}"
        job = parse_args(["--figure", "6", "--n-r", "6", "--n-theta", "200", "--format", fmt, "-o", str(out)])
        assert run(job) == 0
        mesh = build_mesh(job)
        if fmt == "obj":
            assert_same_text((out.read_text(), out.with_suffix(".mtl").read_text()), rendered("obj", mesh))
        else:
            assert_same_text(out.read_text(), rendered(fmt, mesh))
        assert_same_text(out.with_suffix(".seams.json").read_text(), seams_json_text(mesh, job.weld_tol))

    @pytest.mark.parametrize("size", [(5, 4), (MANY, MANY)])
    @pytest.mark.parametrize(
        "edit", [int64_extremes_narrow, int64_extremes_wide, small_int_dtypes, only_zero, digit_widths]
    )
    def test_int_columns_match_the_row_at_a_time_writers(self, small_blocks, edit, size):
        mesh = synthetic_mesh(*size, seed=11)
        edit(mesh)
        assert_same_text(rendered("ply", mesh), row_ply_text(mesh))
        assert_same_text(rendered("json", mesh), row_json_text(mesh))
        assert_same_text(rendered("csv", mesh), row_csv_text(mesh))
        if mesh.faces.max() < np.iinfo(mesh.faces.dtype).max:  # obj writes faces + 1
            assert_same_text(rendered("obj", mesh), row_obj_text(mesh, "m.mtl"))

    @pytest.mark.parametrize("size", [(5, 4), (MANY, MANY)])
    @pytest.mark.parametrize("edit", [small_int_dtypes_cells, only_zero_cells, digit_widths_cells])
    def test_int_cells_no_mesh_holds_match_the_row_at_a_time_table(self, small_blocks, edit, size):
        mesh = synthetic_mesh(*size, seed=11)
        colors, branch = edit(mesh)
        tables = [  # the vertex tables of PLY and JSON, as the writers lay them out
            ([mesh.positions, colors], ("", " ", " ", " ", " ", " "), "\n", ""),
            ([mesh.positions, branch, mesh.w.real, mesh.w.imag],
             ('{"x":', ',"y":', ',"c":', ',"k":', ',"w":[', ","), "]}", ","),
        ]
        for columns, seps, end, between in tables:
            text = b"".join(formats._table([plain_segment(columns)], seps, end, between)).decode()
            assert_same_text(text, row_table_text(columns, seps, end, between))

    @pytest.mark.parametrize("seps,end,between", [(("\0",), "\n", ""), (("",), "\0", ""), (("",), "\n", "\0")])
    def test_a_separator_holding_nul_is_refused(self, seps, end, between):
        # the writer drops every NUL byte of its grids, so a NUL separator would vanish
        with pytest.raises(ValueError, match="NUL"):
            formats._table([plain_segment([np.array([1, 2])])], seps, end, between)

    @pytest.mark.parametrize("seps,end,between", [(("\1",), "\n", ""), (("",), "\1", ""), (("",), "\n", "\1")])
    def test_a_separator_holding_the_head_mark_is_refused_with_heads(self, seps, end, between):
        # byte 1 marks a head's row while a block's bytes are made, so with heads it would be replaced
        segments = [plain_segment([np.array([1, 2])])]
        assert b"\1" in b"".join(formats._table(segments, seps, end, between))  # written as it is without heads
        with pytest.raises(ValueError, match="byte 1"):
            formats._table(segments, seps, end, between, (np.array([0]), lambda lo, hi: [b"head\n"] * (hi - lo)))

    def test_percent_signs_around_the_values_are_written_as_they_are(self):
        columns = [np.array([[0.5, -0.0], [1e300, 2.0]]), np.array([7, 8])]
        text = b"".join(formats._table([plain_segment(columns)], ("%s", "%", "%d"), "%\n", "%%"))
        assert text == b"%s0.5%-0.0%d7%\n%%%s1e+300%2.0%d8%\n"


class TestPly:
    def test_the_widest_float_texts_read_back_bit_for_bit(self):
        # _float_texts fills fixed 24-byte texts, which would cut a longer repr short without an error
        widest = np.array([-2.2250738585072014e-308, -1.7976931348623157e+308, -5e-324, -0.0])
        texts, inverse = formats._float_texts(widest)
        assert [t.decode() for t in texts[inverse]] == [repr(v) for v in widest.tolist()]
        assert max(len(repr(v)) for v in widest.tolist()) == texts.dtype.itemsize == 24
        mesh = synthetic_mesh(4, 1, seed=5)
        for values in vertex_views(mesh)[:3]:
            values[:] = widest
        data = read_ply(rendered("ply", mesh))
        assert data.vertices.tobytes() == np.column_stack([widest] * 3).tobytes()

    def test_header_declares_vertex_colors(self, mesh):
        text = rendered("ply", mesh)
        head = text.split("end_header")[0]
        for prop in ("property double x", "property uchar red", "property uchar blue"):
            assert prop in head
        assert f"element vertex {mesh.n_vertices}" in head
        assert f"element face {mesh.n_faces}" in head

    def test_reparses_to_identical_counts_and_values(self, mesh):
        data = read_ply(rendered("ply", mesh))
        assert len(data.vertices) == mesh.n_vertices
        assert len(data.faces) == mesh.n_faces
        # shortest round-trip decimals reparse to the exact doubles
        assert np.array_equal(data.vertices, mesh.positions)
        assert np.array_equal(data.colors, mesh.colors)
        assert np.array_equal(data.faces, mesh.faces)

    def test_byte_determinism(self, mesh):
        assert_same_text(rendered("ply", mesh), rendered("ply", mesh))

    def test_reader_rejects_foreign_input(self):
        with pytest.raises(ValueError):
            read_ply("solid something\n")

    def test_reader_rejects_a_header_without_end_header(self, mesh):
        lines = rendered("ply", mesh).splitlines()
        lines.remove("end_header")
        with pytest.raises(ValueError, match=re.escape(f"header line 12 {lines[12]!r} is not 'end_header'")):
            read_ply("\n".join(lines) + "\n")

    @pytest.mark.parametrize("cut", [0, 2, 12])
    def test_reader_rejects_a_file_cut_in_its_header(self, mesh, cut):
        lines = rendered("ply", mesh).splitlines()
        with pytest.raises(ValueError, match=re.escape(f"header line {cut} (end of file) is not {lines[cut]!r}")):
            read_ply("".join(line + "\n" for line in lines[:cut]))

    def test_reader_rejects_a_truncated_vertex_row(self, mesh):
        lines = rendered("ply", mesh).splitlines()
        row = lines.index("end_header") + 4
        lines[row] = lines[row].rsplit(" ", 1)[0]
        with pytest.raises(ValueError, match="vertex row 3 has 5 values, expected 6"):
            read_ply("\n".join(lines) + "\n")

    def test_reader_rejects_a_file_cut_short(self, mesh):
        text = rendered("ply", mesh)
        with pytest.raises(ValueError, match=f"expected {mesh.n_faces} face rows"):
            read_ply(text[: text.rindex("\n3 ")] + "\n")

    @pytest.mark.parametrize("quad", ["4 0 1 2 3", "4 0 1 2"])
    def test_reader_rejects_a_quad_face(self, mesh, quad):
        lines = rendered("ply", mesh).splitlines()
        lines[-1] = quad
        with pytest.raises(ValueError, match="face row|only triangle faces"):
            read_ply("\n".join(lines) + "\n")

    def test_reader_round_trips_extreme_floats_bit_for_bit(self):
        mesh = synthetic_mesh(4, 2, seed=3)
        x, y, c, _ = vertex_views(mesh)
        x[:2], y[:2], c[:2] = [-0.0, -5e-324], [5e-324, -1.7976931348623157e308], [1.7976931348623157e308, 0.0]
        data = read_ply(rendered("ply", mesh))
        assert data.vertices.dtype == np.float64
        assert data.vertices.tobytes() == mesh.positions.tobytes()
        assert data.colors.tobytes() == mesh.colors.astype(np.int64).tobytes()
        assert data.faces.tobytes() == mesh.faces.astype(np.int64).tobytes()

    @pytest.mark.parametrize("line", ["element vertex", "element vertex 24 7"], ids=["missing", "extra"])
    def test_reader_rejects_an_element_line_of_the_wrong_length(self, mesh, line):
        lines = rendered("ply", mesh).splitlines()
        at = lines.index(f"element vertex {mesh.n_vertices}")
        lines[at] = line
        with pytest.raises(ValueError, match=f"header line {at} '{line}' is not 'element vertex <count>'"):
            read_ply("\n".join(lines) + "\n")

    # int() reads the last three as 18, and each would load the 18 vertices of a 2x8 range chart
    @pytest.mark.parametrize("count", ["x", "1.5", "1_8", "+18", "\u0661\u0668"])
    def test_reader_rejects_an_element_count_that_is_no_integer(self, mesh, count):
        lines = rendered("ply", mesh).splitlines()
        at = lines.index(f"element vertex {mesh.n_vertices}")
        lines[at] = f"element vertex {count}"
        with pytest.raises(ValueError, match=re.escape(f"header line {at} 'element vertex {count}' is not 'element vertex <count>'")):
            read_ply("\n".join(lines) + "\n")

    @pytest.mark.parametrize("digits", [20, 5000])
    def test_reader_rejects_an_element_count_of_more_than_19_digits(self, mesh, digits):
        # int() would refuse 5,000 digits with its own message, which names neither the line nor the count
        lines = rendered("ply", mesh).splitlines()
        at = lines.index(f"element vertex {mesh.n_vertices}")
        lines[at] = "element vertex " + "9" * digits
        with pytest.raises(ValueError, match=re.escape(f"header line {at} 'element vertex 9999") + ".* is not 'element vertex <count>'"):
            read_ply("\n".join(lines) + "\n")

    def test_reader_rejects_a_repeated_element(self, mesh):
        # a second count must not replace the first: here it would load no vertex and skip a data row
        lines = rendered("ply", mesh).splitlines()
        at = lines.index(f"element vertex {mesh.n_vertices}")
        lines[at:at + 1] = ["element vertex 1", "element vertex 0"]
        with pytest.raises(ValueError, match=f"header line {at + 1} 'element vertex 0' is not 'property double x'"):
            read_ply("\n".join(lines) + "\n")

    @pytest.mark.parametrize("at,drop,insert,tail,expected", [
        # six vertex properties of other names: the u v w columns would be read as the colours
        (4, 6, [f"property float {name}" for name in ("nx", "ny", "nz", "u", "v", "w")], [], "property double x"),
        # a seventh vertex property over rows of six values
        (10, 0, ["property float confidence"], [], "element face <count>"),
        # an element after the faces, whose row would be ignored
        (12, 0, ["element edge 1", "property int vertex1", "property int vertex2"], ["0 1"], "end_header"),
    ], ids=["foreign-properties", "seventh-property", "extra-element"])
    def test_reader_rejects_a_header_that_is_not_the_writers(self, mesh, at, drop, insert, tail, expected):
        lines = rendered("ply", mesh).splitlines()
        lines[at:at + drop] = insert
        with pytest.raises(ValueError, match=re.escape(f"header line {at} {insert[0]!r} is not {expected!r}")):
            read_ply("\n".join(lines + tail) + "\n")

    def test_reader_rejects_rows_after_the_last_face_row(self, mesh):
        # the rows past the declared face count must not be dropped
        lines = rendered("ply", mesh).splitlines()
        at = lines.index(f"element face {mesh.n_faces}")
        lines[at] = "element face 1"
        stray = lines.index("end_header") + 1 + mesh.n_vertices + 1  # past the header, the vertex rows and one face row
        with pytest.raises(ValueError, match=f"line {stray} follows the last face row"):
            read_ply("\n".join(lines + ["stray"]) + "\n")

    def test_reader_rejects_a_blank_vertex_row(self, mesh):
        # a blank line must not be skipped, which would shift every row after it
        lines = rendered("ply", mesh).splitlines()
        lines[lines.index("end_header") + 4] = ""
        with pytest.raises(ValueError, match="vertex row 3 has 0 values, expected 6"):
            read_ply("\n".join(lines) + "\n")

    @pytest.mark.parametrize("row,value", [("vertex", "1.5"), ("face", "1e2")])
    def test_reader_rejects_a_non_integer_color_or_index(self, mesh, row, value):
        lines = rendered("ply", mesh).splitlines()
        i = lines.index("end_header") + 1 + (mesh.n_vertices if row == "face" else 0)
        cells = lines[i].split()
        cells[-1] = value
        lines[i] = " ".join(cells)
        with pytest.raises(ValueError, match=value):
            read_ply("\n".join(lines) + "\n")

    @pytest.mark.parametrize("element", ["vertex", "face"])
    def test_reader_rejects_a_negative_element_count(self, mesh, element):
        lines = rendered("ply", mesh).splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith(f"element {element} "))
        lines[i] = f"element {element} -1"
        with pytest.raises(ValueError, match=f"header line {i} 'element {element} -1' is not 'element {element} <count>'"):
            read_ply("\n".join(lines) + "\n")

    @pytest.mark.parametrize(
        "index", [lambda n: -1, lambda n: n, lambda n: n + 4, lambda n: 2**63 - 1], ids=["-1", "n", "n+4", "int64-max"]
    )
    def test_reader_rejects_a_face_index_outside_the_vertices(self, mesh, index):
        lines = rendered("ply", mesh).splitlines()
        i = lines.index("end_header") + 1 + mesh.n_vertices + 5
        cells = lines[i].split()
        cells[2] = str(index(mesh.n_vertices))
        lines[i] = " ".join(cells)
        with pytest.raises(ValueError, match=f"face row 5 has a vertex index outside 0..{mesh.n_vertices - 1}"):
            read_ply("\n".join(lines) + "\n")
        cells[2] = str(mesh.n_vertices - 1)  # the last vertex is in range
        lines[i] = " ".join(cells)
        assert read_ply("\n".join(lines) + "\n").faces[5, 1] == mesh.n_vertices - 1

    def test_reader_rejects_a_face_over_three_vertices_that_names_a_fourth(self):
        head = ["ply", "format ascii 1.0", "comment riemannmesh surface", "element vertex 3", "property double x",
                "property double y", "property double z", "property uchar red", "property uchar green", "property uchar blue",
                "element face 1", "property list uchar int vertex_indices", "end_header"]
        rows = ["0 0 0 1 2 3", "1 0 0 1 2 3", "0 1 0 1 2 3"]
        with pytest.raises(ValueError, match="face row 0 has a vertex index outside 0..2"):
            read_ply("\n".join(head + rows + ["3 0 1 7"]) + "\n")
        assert read_ply("\n".join(head + rows + ["3 0 1 2"]) + "\n").faces.tolist() == [[0, 1, 2]]

    @pytest.mark.parametrize("colour", [256, 300, -1, 2**63 - 1])
    def test_reader_rejects_a_colour_outside_the_uchar_range(self, mesh, colour):
        lines = rendered("ply", mesh).splitlines()
        i = lines.index("end_header") + 1 + 3
        cells = lines[i].split()
        cells[4] = str(colour)  # green
        lines[i] = " ".join(cells)
        with pytest.raises(ValueError, match="vertex row 3 has a colour outside 0..255"):
            read_ply("\n".join(lines) + "\n")
        for edge in (0, 255):
            cells[4] = str(edge)
            lines[i] = " ".join(cells)
            assert read_ply("\n".join(lines) + "\n").colors[3, 1] == edge

    @pytest.mark.parametrize("n_vertices", [0, 5])
    def test_reader_reads_an_empty_section(self, n_vertices):
        data = read_ply(rendered("ply", synthetic_mesh(n_vertices, 0, seed=1)))
        assert data.vertices.shape == data.colors.shape == (n_vertices, 3)
        assert data.faces.shape == (0, 3) and data.faces.dtype == np.int64


class TestObj:
    def test_groups_and_materials_per_branch(self, mesh):
        obj, mtl = rendered("obj", mesh, "surface")
        assert obj.startswith("mtllib surface.mtl\n")
        assert obj.count("\nv ") == mesh.n_vertices
        assert obj.count("\nf ") == mesh.n_faces
        for k in (-1, 0, 1):
            assert f"usemtl branch_{k}" in obj
            assert f"newmtl branch_{k}" in mtl
        r, g, b = branch_color(0)
        assert f"Kd {r / 255!r} {g / 255!r} {b / 255!r}" in mtl

    def test_face_indices_are_one_based(self, mesh):
        obj, _ = rendered("obj", mesh)
        faces = [line for line in obj.splitlines() if line.startswith("f ")]
        first = min(int(p) for line in faces for p in line.split()[1:])
        assert first == 1

    def test_group_lines_at_block_boundaries_match_the_row_at_a_time_writer(self, small_blocks):
        # lattice faces, a segment per sheet, then walls: the runs set below start at block and segment edges
        mesh = assemble_surface(build_sheets(ROOT3, ROOT3.branch_indices(), CharismaKind.INDEX,
                                             DomainGrid(0.5, 2.0, 8, 48)), walls=True, weld_tol=1.5)
        # a face record: a group mark, "f ", three one-based indices as wide as the widest and " ", " ", "\n"
        per_block = formats._BLOCK_BYTES // (1 + len("f ") + 3 * len(str(mesh.n_vertices)) + len("  \n"))
        sheet_faces, walls = (mesh.n_faces - len(mesh.walls)) // 3, mesh.n_faces - len(mesh.walls)
        assert len(mesh.walls) and walls > 3 * per_block
        # runs from a block's first row and from its last, one-face runs across a block edge, and runs from
        # the first row of a sheet and of the walls
        starts = sorted({0, per_block - 1, per_block, per_block + 1, per_block + 2, 2 * per_block - 1,
                         3 * per_block + 5, sheet_faces, 2 * sheet_faces, walls, walls + 1})
        mesh.face_branch_runs = _runs(np.arange(len(starts)) % 3 - 1, np.diff([*starts, mesh.n_faces]))
        assert len(mesh.face_branch_runs[0]) == len(starts)
        pieces = [piece.decode() for piece in formats._obj_pieces(mesh, "m.mtl")]
        assert_same_text("".join(pieces), row_obj_text(mesh, "m.mtl")[0])
        # the cases sit where meant: the face blocks hold per_block rows each
        blocks = [piece for piece in pieces if piece.startswith(("f ", "g "))]
        assert [block.count("\nf ") + block.startswith("f ") for block in blocks[:3]] == [per_block] * 3
        assert [block[:2] for block in blocks[:3]] == ["g ", "g ", "f "]
        assert [block.split("\n")[-4][:2] for block in blocks[:3]] == ["g ", "g ", "f "]
        assert [block.count("g branch_") for block in blocks[:2]] == [2, 4]

    @pytest.mark.parametrize("args,runs", [(["--figure", "4"], 3),
                                           (["--figure", "3b-range", "--function", "root:9223372036854775807"], 9360)])
    def test_a_render_makes_one_table_per_section_whatever_its_runs(self, monkeypatch, args, runs):
        mesh = build_mesh(parse_args(args))
        assert len(mesh.face_branch_runs[0]) == runs
        calls = []
        table = formats._table
        monkeypatch.setattr(formats, "_table", lambda *given, **kw: calls.append(given[1]) or table(*given, **kw))
        obj, _ = rendered("obj", mesh)
        assert calls == [("v ", " ", " "), ("f ", " ", " ")]
        assert obj.count("\ng branch_") == obj.count("\nusemtl branch_") == runs

    @pytest.mark.parametrize("name", ["my surface.obj", "tab\tbed.obj", "line\nbreak.obj", "nbsp\u00a0name.obj"])
    def test_a_material_file_name_holding_whitespace_is_refused(self, mesh, name):
        # mtllib takes whitespace-separated file names, so a reader would take "my surface.mtl" as two files
        with pytest.raises(ValueError, match="whitespace"):
            render_outputs(mesh, "obj", Path("out dir") / name, DEFAULT_WELD_TOL)
        assert "mtllib surface.mtl\n" in rendered("obj", mesh, "out dir/surface")[0]
        for fmt in ("ply", "json", "csv"):
            path = Path(name).with_suffix(f".{fmt}")
            assert path in render_outputs(mesh, fmt, path, DEFAULT_WELD_TOL)


class TestJson:
    def test_schema_and_full_point_records(self, mesh):
        doc = json.loads(rendered("json", mesh))
        assert doc["schema"] == 1
        assert doc["function"] == "root:3"
        assert doc["charisma"] == "sin"
        assert doc["chart"] == "surface"
        assert doc["sheets"] == [-1, 0, 1]
        assert len(doc["vertices"]) == mesh.n_vertices
        assert len(doc["faces"]) == mesh.n_faces
        assert len(doc["seams"]) == 3
        v = doc["vertices"][0]
        assert set(v) == {"x", "y", "c", "k", "w"}

    def test_records_recompute_through_the_library(self, mesh):
        doc = json.loads(rendered("json", mesh))
        for v in doc["vertices"][:: max(1, len(doc["vertices"]) // 17)]:
            z = complex(v["x"], v["y"])
            assert v["c"] == evaluate_charisma(z, v["k"], ROOT3, CharismaKind.SIN)
            w = ROOT3.branch_value(z, v["k"])
            assert v["w"] == [w.real, w.imag]

    def test_refuses_non_finite_values(self, mesh):
        bad = synthetic_mesh(4, 2, seed=0)
        vertex_views(bad)[2][2] = np.nan
        with pytest.raises(ValueError):
            rendered("json", bad)
        with pytest.raises(ValueError):
            seams_json_text(mesh, float("inf"))

    def test_seam_records(self, mesh):
        doc = json.loads(rendered("json", mesh))
        for s in doc["seams"]:
            assert s["welded"] is True
            assert s["max_gap"] < 1e-9
            assert s["max_gap"] >= s["mean_gap"] >= 0.0


class TestCsv:
    def test_header_and_rows(self, mesh):
        lines = rendered("csv", mesh).splitlines()
        assert lines[0] == "x,y,c,k"
        assert len(lines) == 1 + mesh.n_vertices
        x, y, c, k = lines[1].split(",")
        assert complex(float(x), float(y)) != 0
        assert float(c) == mesh.positions[0, 2]
        assert int(k) == mesh.branch[0]


class TestSeamSidecar:
    def test_reports_pre_weld_gaps(self, mesh):
        doc = json.loads(seams_json_text(mesh, 1e-9))
        assert doc["schema"] == 1
        assert doc["weld_tol"] == 1e-9
        pairs = [(s["upper_branch"], s["lower_branch"]) for s in doc["seams"]]
        assert pairs == [(-1, 0), (0, 1), (1, -1)]
        assert all(s["max_gap"] < 1e-9 for s in doc["seams"])


class TestDistinct:
    """branches._distinct, the one dedupe of the writers and the batch core."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("shape", [(1000,), (300, 3)])
    def test_matches_np_unique_of_the_int64_view(self, seed, shape):
        rng = np.random.default_rng(seed)
        x = rng.choice(rng.normal(size=50), size=shape)  # few distinct values, as on a mesh
        x[rng.random(shape) < 0.1] = -0.0
        values, inverse = _distinct(x)
        want_values, want_inverse = np.unique(x.reshape(-1).view(np.int64), return_inverse=True)
        assert values.dtype == x.dtype and values.tobytes() == want_values.tobytes()
        assert inverse.dtype == np.int32 and np.array_equal(inverse, want_inverse.reshape(-1))

    def test_every_value_is_recovered_bit_for_bit(self):
        x = np.array([[0.0, -0.0, 1.5], [np.inf, -0.0, np.nan], [5e-324, 1.5, -np.inf]])
        values, inverse = _distinct(x)
        assert values[inverse].tobytes() == x.reshape(-1).tobytes()
        # -0.0 and 0.0 stay apart
        assert len(values) == 7 and sorted(np.signbit(values[values == 0]).tolist()) == [False, True]

    def test_the_strided_real_part_of_a_complex_array(self):
        w = np.array([1 + 2j, -0.0 + 1j, 1 + 3j])
        values, inverse = _distinct(w.real)
        assert values[inverse].tobytes() == np.ascontiguousarray(w.real).tobytes()

    def test_ints(self):
        x = np.array([[7, -2**63, 7], [2**63 - 1, 0, -2**63]])
        values, inverse = _distinct(x)
        assert values.tolist() == [-2**63, 0, 7, 2**63 - 1] and np.array_equal(values[inverse], x.reshape(-1))

    @pytest.mark.parametrize("x", [np.zeros(0), np.zeros((0, 3)), np.array([-0.0]), np.array([[3]])], ids=repr)
    def test_empty_and_one_element_inputs(self, x):
        values, inverse = _distinct(x)
        assert inverse.dtype == np.int32 and values[inverse].tobytes() == x.reshape(-1).tobytes()
        assert len(values) == x.size


def stored_bytes(mesh):
    """The bytes of the arrays a mesh stores, its stack's height table included: none of its expansions, no
    lattice, no range values and no index arrays, which it computes on access."""
    arrays = (*mesh.heights, mesh.sheet_start, mesh.welded_into, mesh.walls)
    return sum(a.nbytes for a in (*arrays, *mesh.branch_runs, *mesh.face_branch_runs))


class TestWriterMemory:
    """The writers' transient memory, as traced by tracemalloc, in units of
    the arrays the mesh stores (before each float table was deduped without
    whole-table temporaries, every writer peaked at 5.3 times the vertex
    table). The face table's index texts are built a chunk at a time: built
    whole, that table peaked at 0.84 times the arrays stored, and 0.53 so.
    Those units held the stack's w until the mesh stopped storing it, which
    made them 1.55 times larger at the default grid. They then held the
    lattice faces, source and renumbering, 841,192 B at the default grid,
    until the mesh derived them from two facts per sheet: 385,700 B. They
    then held the lattice and a height per sheet and point, until the mesh
    stored its grid and its heights as a table over the lattice's distinct
    phases: 46,676 B. So the bounds in each smaller unit are no looser in
    bytes: 25 is 1.17 MB (3.1 was 1.20 MB, and 1.9 before it 1.60 MB),
    53.5 is 2.50 MB (6.5 was 2.51 MB, 3.4 before it 2.86 MB), and the face
    table's 16 is 746,816 B (1.96 was 755,972 B, 0.9 before it 757,073 B).
    That table expands the renumbering and the lattice faces itself, texts
    the renumbering straight into one text per pre-weld vertex and frees it
    before it expands the faces, so its peak (635,980 B) stays below the
    687,512 B it read while the mesh stored them. A vertex table makes the
    lattice's x and y one at a time and texts each sheet's height table, and
    the JSON writer computes w, dedupes it and drops it before its other
    cells are made, so no peak rose."""

    @pytest.fixture(scope="class")
    def default_mesh(self):
        return build_mesh(parse_args(["--figure", "4"]))

    @pytest.mark.parametrize(
        "pieces,bound",
        [
            (lambda mesh: formats._ply_pieces(mesh), 25),
            (lambda mesh: formats._obj_pieces(mesh, "x.mtl"), 25),
            (lambda mesh: formats._json_pieces(mesh), 53.5),
            (lambda mesh: formats._csv_pieces(mesh), 25),
            (lambda mesh: formats._table(formats._face_segments(mesh), ("3 ", " ", " "), "\n"), 16),
        ],
        ids=["ply", "obj", "json", "csv", "face-table"],
    )
    def test_peak_stays_within_a_few_vertex_tables(self, default_mesh, pieces, bound):
        assert default_mesh.n_vertices == 28800
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for _ in pieces(default_mesh):  # consumed, never kept
                pass
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < bound * stored_bytes(default_mesh)


class TestFactoredReads:
    def test_no_assembly_or_writer_expands_positions_w_or_faces(self, monkeypatch, tmp_path):
        # each would cost a vertex or face table: 17 MB for positions at 200x1200
        def refuse(mesh):
            raise AssertionError("an expanded column was read")

        for name in ("positions", "w", "faces"):
            monkeypatch.setattr(SurfaceMesh, name, property(refuse))
        every = ROOT3.branch_indices()
        meshes = [
            assemble_surface(build_sheets(ROOT3, every, CharismaKind.SIN, GRID)),
            # a walled surface with welded seams: walls, renumbered faces and dropped vertices
            assemble_surface(build_sheets(ROOT3, every, CharismaKind.INDEX, GRID), walls=True, weld_tol=1.5),
            build_range_chart(ROOT3, GRID),
        ]
        for mesh in meshes:
            for fmt in formats.FORMATS:
                for pieces in render_outputs(mesh, fmt, tmp_path / f"m.{fmt}", DEFAULT_WELD_TOL).values():
                    assert b"".join(pieces)

    def test_only_a_face_table_expands_an_index_array_and_it_expands_each_once(self, monkeypatch, tmp_path):
        # a stack and a mesh store no lattice faces, source or renumbering, only their lattice and two facts
        # per sheet: no builder and no vertex table reads one, and a face table reads renumber and the
        # lattice faces once each, when it starts
        reads, face_table = [], []

        def guard(home, name):
            original, is_property = getattr(home, name), isinstance(home, type)

            def read(*args):
                if not face_table:
                    raise AssertionError(f"{home.__name__}.{name} was expanded")
                reads.append(name)
                return original.fget(*args) if is_property else original(*args)

            monkeypatch.setattr(home, name, property(read) if is_property else read)

        for home, name in [(SheetStack, "faces"), (SurfaceMesh, "source"), (SurfaceMesh, "renumber"),
                           (mesh_module, "lattice_faces"), (formats, "lattice_faces")]:
            guard(home, name)
        face_segments = formats._face_segments

        def in_a_face_table(*args):
            face_table.append(True)
            try:
                return face_segments(*args)
            finally:
                face_table.clear()

        monkeypatch.setattr(formats, "_face_segments", in_a_face_table)
        functions = [ROOT3, IndexedFunction.root(2), IndexedFunction.log()]
        meshes = [assemble_surface(build_sheets(f, f.branch_indices() or range(-2, 3), kind, grid), walls=True)
                  for f in functions for kind in compatible_kinds(f) for grid in (GRID, DomainGrid(0.5, 2.0, 3, 9))]
        meshes += [
            assemble_surface(build_sheets(ROOT3, ROOT3.branch_indices(), CharismaKind.INDEX, GRID),
                             walls=True, weld_tol=1.5),
            assemble_surface(build_sheets(ROOT3, (1, -1), CharismaKind.SIN, GRID), weld=False),
            build_range_chart(ROOT3, GRID),
        ]
        for mesh in meshes:
            for fmt in formats.FORMATS:
                reads.clear()
                for pieces in render_outputs(mesh, fmt, tmp_path / f"m.{fmt}", DEFAULT_WELD_TOL).values():
                    assert b"".join(pieces)
                assert reads == ([] if fmt == "csv" else ["renumber", "lattice_faces"])

    def test_only_the_json_writers_range_values_read_the_lattice_and_no_one_expands_the_heights(
            self, monkeypatch, tmp_path):
        # a stack and a mesh store their grid and a height table, not z and a height per sheet and point:
        # building, assembly, a range chart and every vertex and face table read the table and the lattice's
        # parts, and the lattice is sampled once per JSON render, by sheet_w, which computes the range values
        # from it, and never for PLY, OBJ or CSV
        reads, in_sheet_w = [], []

        def guard(home, name):
            original = getattr(home, name)

            def read(*args):
                if not (name == "sample_domain" and in_sheet_w):
                    raise AssertionError(f"{home.__name__}.{name} was read")
                reads.append(name)
                return original(*args)

            monkeypatch.setattr(home, name, read if name == "sample_domain" else property(read))

        sheet_w = SurfaceMesh.sheet_w

        def computing_w(mesh):
            in_sheet_w.append(True)
            try:
                return sheet_w.fget(mesh)
            finally:
                in_sheet_w.clear()

        for home, name in [(SheetStack, "c"), (SurfaceMesh, "positions")]:
            guard(home, name)
        monkeypatch.setattr(SurfaceMesh, "sheet_w", property(computing_w))
        functions = [ROOT3, IndexedFunction.root(2), IndexedFunction.log()]
        meshes = [assemble_surface(build_sheets(f, f.branch_indices() or range(-2, 3), kind, grid), walls=True)
                  for f in functions for kind in compatible_kinds(f) for grid in (GRID, DomainGrid(0.5, 2.0, 3, 9))]
        meshes += [
            assemble_surface(build_sheets(ROOT3, ROOT3.branch_indices(), CharismaKind.INDEX, GRID),
                             walls=True, weld_tol=1.5),
            assemble_surface(build_sheets(ROOT3, (1, -1), CharismaKind.SIN, GRID), weld=False),
            build_range_chart(ROOT3, GRID),
            build_range_chart(IndexedFunction.log(), DomainGrid(0.5, 2.0, 3, 9)),
        ]
        assert reads == []
        guard(mesh_module, "sample_domain")  # building samples it: from here on only sheet_w may
        for mesh in meshes:
            for fmt in formats.FORMATS:
                reads.clear()
                for pieces in render_outputs(mesh, fmt, tmp_path / f"m.{fmt}", DEFAULT_WELD_TOL).values():
                    assert b"".join(pieces)
                assert reads == (["sample_domain"] if fmt == "json" else [])

    def test_only_the_json_writer_reads_range_values_and_it_reads_them_once(self, monkeypatch, tmp_path):
        # a stack and a mesh store no w: SurfaceMesh.sheet_w computes it on each access, and
        # only phase heights and the JSON writer need it
        def refuse(*args):
            raise AssertionError("range values were computed")

        functions = [ROOT3, IndexedFunction.root(2), IndexedFunction.log()]
        phase = [build_sheets(f, f.branch_indices(), CharismaKind.PHASE, GRID) for f in functions[:2]]
        sheet_w = SurfaceMesh.sheet_w
        for home, name in [(SurfaceMesh, "sheet_w"), (branches, "_batch_values"), (mesh_module, "_batch_values")]:
            monkeypatch.setattr(home, name, property(refuse) if isinstance(home, type) else refuse)
        stacks = phase + [build_sheets(f, f.branch_indices() or range(-2, 3), kind, GRID)
                          for f in functions for kind in compatible_kinds(f) if kind is not CharismaKind.PHASE]
        meshes = [assemble_surface(stack) for stack in stacks] + [
            assemble_surface(build_sheets(ROOT3, ROOT3.branch_indices(), CharismaKind.INDEX, GRID),
                             walls=True, weld_tol=1.5),
            build_range_chart(ROOT3, GRID),
        ]
        for mesh in meshes:
            for fmt in ("ply", "obj", "csv"):
                for pieces in render_outputs(mesh, fmt, tmp_path / f"m.{fmt}", DEFAULT_WELD_TOL).values():
                    assert b"".join(pieces)
        monkeypatch.undo()
        reads = []
        monkeypatch.setattr(SurfaceMesh, "sheet_w", property(lambda mesh: reads.append(mesh) or sheet_w.fget(mesh)))
        for mesh in meshes:
            reads.clear()
            text = b"".join(formats._json_pieces(mesh))
            assert [read is mesh for read in reads] == [True]
            assert text == row_json_text(mesh).encode()
