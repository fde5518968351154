"""Serialization tests: determinism, fidelity, and re-parsing."""

import json

import numpy as np
import pytest

from riemannmesh import (
    PALETTE,
    CharismaKind,
    DomainGrid,
    IndexedFunction,
    Seam,
    SurfaceMesh,
    assemble_surface,
    branch_color,
    build_sheet,
    evaluate_charisma,
)
from riemannmesh import formats
from riemannmesh.cli import FIGURE_PRESETS, build_mesh, parse_args
from riemannmesh.formats import csv_text, json_text, obj_text, ply_text, read_ply, seams_json_text

ROOT3 = IndexedFunction.root(3)
GRID = DomainGrid(0.5, 2.0, 3, 8)


@pytest.fixture(scope="module")
def mesh():
    sheets = [build_sheet(ROOT3, k, CharismaKind.SIN, GRID) for k in (-1, 0, 1)]
    return assemble_surface(sheets, weld=True)


def _fmt(v):
    return repr(float(v))


def row_ply_text(mesh):
    """Line-at-a-time PLY writer: the reference ply_text must match."""
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
    """Line-at-a-time OBJ and MTL writer: the reference obj_text must match."""
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
    """Record-at-a-time JSON writer: the reference json_text must match."""
    doc = {
        "schema": 1,
        "function": mesh.function.label(),
        "charisma": mesh.kind.value,
        "chart": "range" if mesh.range_chart else "surface",
        "welded": mesh.welded,
        "sheets": [int(k) for k in mesh.sheet_branches],
        "vertices": [
            {"x": p.x, "y": p.y, "c": p.c, "k": p.k, "w": [p.w.real, p.w.imag]}
            for p in mesh.iter_points()
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
    """Line-at-a-time CSV writer: the reference csv_text must match."""
    lines = ["x,y,c,k"]
    for p in mesh.iter_points():
        lines.append(f"{_fmt(p.x)},{_fmt(p.y)},{_fmt(p.c)},{p.k}")
    return "\n".join(lines) + "\n"


def synthetic_mesh(n_vertices, n_faces, seed):
    """A mesh of awkward values: signed zeros, wide exponents, subnormals,
    negative branches, and face groups whose branch recurs later."""
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
    return SurfaceMesh(
        function=ROOT3,
        kind=CharismaKind.SIN,
        sheet_branches=(-1, 0, 1),
        positions=positions,
        branch=branch,
        w=w,
        colors=np.asarray(PALETTE, dtype=np.uint8)[branch % len(PALETTE)],
        faces=rng.integers(0, max(n_vertices, 1), (n_faces, 3)),
        face_branch=face_branch,
        seams=[Seam(-1, 0, 2.5e-17, 1e-17, True), Seam(1, -1, 2.0, 1.5, False)],
        welded=True,
    )


def signed_zeros(mesh):
    # -0.0 and 0.0 in one column: their reprs differ, their values compare equal
    mesh.positions[:, 0] = np.where(np.arange(mesh.n_vertices) % 3, 0.0, -0.0)
    mesh.w.real[::2] = -0.0


def one_value(mesh):
    mesh.positions[:] = 0.1
    mesh.w[:] = 0.1 - 0.1j


def non_finite(mesh):
    # two NaN payloads and a negative NaN all print as nan
    payload = np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)[0]
    mesh.positions[::4, 0] = np.nan
    mesh.positions[1::4, 1] = np.inf
    mesh.positions[2::4, 2] = -np.inf
    mesh.positions[3::4, 0] = payload
    mesh.positions[3::8, 2] = -np.nan


B = formats._BLOCK_ROWS


class TestWritersMatchRowReference:
    @pytest.mark.parametrize(
        "n_vertices,n_faces",
        [(1, 0), (B - 1, B + 1), (B, B), (B + 1, B - 1), (2 * B + 1, 3 * B)],
    )
    def test_byte_identical_to_the_row_at_a_time_writers(self, n_vertices, n_faces):
        mesh = synthetic_mesh(n_vertices, n_faces, seed=n_vertices + n_faces)
        assert ply_text(mesh) == row_ply_text(mesh)
        assert obj_text(mesh, "m.mtl") == row_obj_text(mesh, "m.mtl")
        assert json_text(mesh) == row_json_text(mesh)
        assert csv_text(mesh) == row_csv_text(mesh)

    @pytest.mark.parametrize("edit", [signed_zeros, one_value, non_finite])
    def test_awkward_columns_match_the_row_at_a_time_writers(self, edit):
        mesh = synthetic_mesh(2 * B + 3, B + 2, seed=7)
        edit(mesh)
        assert ply_text(mesh) == row_ply_text(mesh)
        assert obj_text(mesh, "m.mtl") == row_obj_text(mesh, "m.mtl")
        assert csv_text(mesh) == row_csv_text(mesh)
        if np.isfinite(mesh.positions).all():
            assert json_text(mesh) == row_json_text(mesh)
        else:
            with pytest.raises(ValueError):
                json_text(mesh)

    @pytest.mark.parametrize("figure", sorted(FIGURE_PRESETS))
    def test_every_preset_matches_the_row_at_a_time_writers(self, figure):
        job = parse_args(["--figure", figure, "--n-r", "6", "--n-theta", "24"])
        mesh = build_mesh(job)
        # sheets share one lattice, so values repeat and each distinct
        # float is formatted for many cells
        assert len(np.unique(mesh.positions)) < mesh.positions.size / 2
        assert ply_text(mesh) == row_ply_text(mesh)
        assert obj_text(mesh, "m.mtl") == row_obj_text(mesh, "m.mtl")
        assert json_text(mesh) == row_json_text(mesh)
        assert csv_text(mesh) == row_csv_text(mesh)


    def test_percent_signs_around_the_values_are_written_as_they_are(self):
        columns = [np.array([[0.5, -0.0], [1e300, 2.0]]), np.array([7, 8])]
        text = "".join(formats._table(columns, ("%s", "%", "%d"), "%\n", "%%"))
        assert text == "%s0.5%-0.0%d7%\n%%%s1e+300%2.0%d8%\n"


class TestPly:
    def test_header_declares_vertex_colors(self, mesh):
        text = ply_text(mesh)
        head = text.split("end_header")[0]
        for prop in ("property double x", "property uchar red", "property uchar blue"):
            assert prop in head
        assert f"element vertex {mesh.n_vertices}" in head
        assert f"element face {mesh.n_faces}" in head

    def test_reparses_to_identical_counts_and_values(self, mesh):
        data = read_ply(ply_text(mesh))
        assert len(data.vertices) == mesh.n_vertices
        assert len(data.faces) == mesh.n_faces
        # shortest round-trip decimals reparse to the exact doubles
        assert np.array_equal(data.vertices, mesh.positions)
        assert np.array_equal(data.colors, mesh.colors)
        assert np.array_equal(data.faces, mesh.faces)

    def test_byte_determinism(self, mesh):
        assert ply_text(mesh) == ply_text(mesh)

    def test_reader_rejects_foreign_input(self):
        with pytest.raises(ValueError):
            read_ply("solid something\n")

    def test_reader_rejects_a_truncated_vertex_row(self, mesh):
        lines = ply_text(mesh).splitlines()
        row = lines.index("end_header") + 4
        lines[row] = lines[row].rsplit(" ", 1)[0]
        with pytest.raises(ValueError, match="vertex row 3 has 5 values, expected 6"):
            read_ply("\n".join(lines) + "\n")

    def test_reader_rejects_a_file_cut_short(self, mesh):
        text = ply_text(mesh)
        with pytest.raises(ValueError, match=f"expected {mesh.n_faces} face rows"):
            read_ply(text[: text.rindex("\n3 ")] + "\n")

    @pytest.mark.parametrize("quad", ["4 0 1 2 3", "4 0 1 2"])
    def test_reader_rejects_a_quad_face(self, mesh, quad):
        lines = ply_text(mesh).splitlines()
        lines[-1] = quad
        with pytest.raises(ValueError, match="face row|only triangle faces"):
            read_ply("\n".join(lines) + "\n")

    def test_reader_round_trips_extreme_floats_bit_for_bit(self):
        mesh = synthetic_mesh(4, 2, seed=3)
        mesh.positions[0] = [-0.0, 5e-324, 1.7976931348623157e308]
        mesh.positions[1] = [-5e-324, -1.7976931348623157e308, 0.0]
        data = read_ply(ply_text(mesh))
        assert data.vertices.dtype == np.float64
        assert data.vertices.tobytes() == mesh.positions.tobytes()
        assert data.colors.tobytes() == mesh.colors.astype(np.int64).tobytes()
        assert data.faces.tobytes() == mesh.faces.astype(np.int64).tobytes()

    def test_reader_rejects_a_blank_vertex_row(self, mesh):
        # a blank line must not be skipped, which would shift every row after it
        lines = ply_text(mesh).splitlines()
        lines[lines.index("end_header") + 4] = ""
        with pytest.raises(ValueError, match="vertex row 3 has 0 values, expected 6"):
            read_ply("\n".join(lines) + "\n")

    @pytest.mark.parametrize("row,value", [("vertex", "1.5"), ("face", "1e2")])
    def test_reader_rejects_a_non_integer_color_or_index(self, mesh, row, value):
        lines = ply_text(mesh).splitlines()
        i = lines.index("end_header") + 1 + (mesh.n_vertices if row == "face" else 0)
        cells = lines[i].split()
        cells[-1] = value
        lines[i] = " ".join(cells)
        with pytest.raises(ValueError, match=value):
            read_ply("\n".join(lines) + "\n")

    @pytest.mark.parametrize("n_vertices", [0, 5])
    def test_reader_reads_an_empty_section(self, n_vertices):
        data = read_ply(ply_text(synthetic_mesh(n_vertices, 0, seed=1)))
        assert data.vertices.shape == data.colors.shape == (n_vertices, 3)
        assert data.faces.shape == (0, 3) and data.faces.dtype == np.int64


class TestObj:
    def test_groups_and_materials_per_branch(self, mesh):
        obj, mtl = obj_text(mesh, "surface.mtl")
        assert obj.startswith("mtllib surface.mtl\n")
        assert obj.count("\nv ") == mesh.n_vertices
        assert obj.count("\nf ") == mesh.n_faces
        for k in (-1, 0, 1):
            assert f"usemtl branch_{k}" in obj
            assert f"newmtl branch_{k}" in mtl
        r, g, b = branch_color(0)
        assert f"Kd {r / 255!r} {g / 255!r} {b / 255!r}" in mtl

    def test_face_indices_are_one_based(self, mesh):
        obj, _ = obj_text(mesh, "m.mtl")
        faces = [line for line in obj.splitlines() if line.startswith("f ")]
        first = min(int(p) for line in faces for p in line.split()[1:])
        assert first == 1


class TestJson:
    def test_schema_and_full_point_records(self, mesh):
        doc = json.loads(json_text(mesh))
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
        doc = json.loads(json_text(mesh))
        for v in doc["vertices"][:: max(1, len(doc["vertices"]) // 17)]:
            z = complex(v["x"], v["y"])
            assert v["c"] == evaluate_charisma(z, v["k"], ROOT3, CharismaKind.SIN)
            w = ROOT3.branch_value(z, v["k"])
            assert v["w"] == [w.real, w.imag]

    def test_refuses_non_finite_values(self, mesh):
        bad = synthetic_mesh(4, 2, seed=0)
        bad.positions[2, 2] = np.nan
        with pytest.raises(ValueError):
            json_text(bad)
        with pytest.raises(ValueError):
            seams_json_text(mesh, float("inf"))

    def test_seam_records(self, mesh):
        doc = json.loads(json_text(mesh))
        for s in doc["seams"]:
            assert s["welded"] is True
            assert s["max_gap"] < 1e-9
            assert s["max_gap"] >= s["mean_gap"] >= 0.0


class TestCsv:
    def test_header_and_rows(self, mesh):
        lines = csv_text(mesh).splitlines()
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
