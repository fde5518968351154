"""Deterministic text serialization of surface meshes.

All floats are written with their shortest round-trip decimal
representation, so identical meshes serialize to identical bytes. Each
distinct float of a table is formatted once, and blocks of rows are filled
from one %-template.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .mesh import Seam, SurfaceMesh, branch_color

__all__ = ["PlyData", "csv_text", "json_text", "obj_text", "ply_text", "read_ply", "seams_json_text"]

# rows formatted per block. A block's cells and its text are all alive at
# once, so small blocks keep a small job's peak memory down; writer speed is
# flat from 128 to 1024 rows.
_BLOCK_ROWS = 256

_JSON_SEPARATORS = (",", ":")


def _table(columns: list[np.ndarray], seps: tuple[str, ...], end: str, between: str = "") -> list[str]:
    """One text row per array row, seps[0] v0 seps[1] v1 ... v_last end,
    rows joined by `between`; returned as pieces to concatenate.

    The arrays share their length and are 1-D or 2-D. Every value is
    written as the repr of its Python float or int, which for a float is
    its shortest round-trip decimal. A surface repeats few distinct floats
    (its sheets share one lattice), so each float array is reduced to its
    distinct values, keyed by bit pattern so that -0.0 and 0.0 stay apart,
    and each of those is formatted once.
    """
    n = len(columns[0])
    if not n:
        return []
    tables = []  # per array: its cells, as indices into the reprs for floats
    fields = []
    for column in columns:
        column = column.reshape(n, -1)
        if column.dtype.kind == "f":
            key = np.ascontiguousarray(column, dtype=np.float64).ravel().view(np.int64)
            # a 1-D key, because numpy 1.x and 2.x shape the inverse of an
            # n-D input differently
            distinct, inverse = np.unique(key, return_inverse=True)
            reprs = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
            tables.append((inverse.reshape(column.shape), reprs))
            fields += ["%s"] * column.shape[1]
        else:
            tables.append((column, None))
            fields += ["%d"] * column.shape[1]
    # the text of one row, and `between`, as a %-template
    row = "".join(sep.replace("%", "%%") + field for sep, field in zip(seps, fields))
    row += (end + between).replace("%", "%%")
    blocks = []
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        cells = np.empty((stop - start, len(fields)), dtype=object)
        col = 0
        for values, reprs in tables:
            block = values[start:stop]
            cells[:, col:col + block.shape[1]] = block if reprs is None else reprs[block]
            col += block.shape[1]
        blocks.append(row * (stop - start) % tuple(cells.ravel().tolist()))
    if between:
        blocks[-1] = blocks[-1][:-len(between)]
    return blocks


def ply_text(mesh: SurfaceMesh) -> str:
    """Ascii PLY 1.0 with per-vertex uchar RGB; z carries the charisma."""
    header = "\n".join([
        "ply",
        "format ascii 1.0",
        "comment riemannmesh surface",
        f"element vertex {mesh.n_vertices}",
        "property double x",
        "property double y",
        "property double z",
        "property uchar red",
        "property uchar green",
        "property uchar blue",
        f"element face {mesh.n_faces}",
        "property list uchar int vertex_indices",
        "end_header",
    ]) + "\n"
    return "".join([
        header,
        *_table([mesh.positions, mesh.colors], ("", " ", " ", " ", " ", " "), "\n"),
        *_table([mesh.faces], ("3 ", " ", " "), "\n"),
    ])


@dataclass
class PlyData:
    vertices: np.ndarray  # (N, 3) float
    colors: np.ndarray    # (N, 3) int
    faces: np.ndarray     # (M, 3) int


_VERTEX_ROW = np.dtype([("xyz", np.float64, 3), ("rgb", np.int64, 3)])  # x y z red green blue
_FACE_ROW = np.dtype([("n", np.int64), ("v", np.int64, 3)])  # vertex count, then the indices


def _rows(section: list[str], count: int, dtype: np.dtype, width: int, what: str) -> np.ndarray:
    """One record of `dtype` per line of `section`, which must hold `count`
    lines of `width` whitespace-separated values each."""
    try:
        with warnings.catch_warnings():
            # numpy 1.x reads "1.5" as the integer 1 with only a warning
            warnings.simplefilter("error")
            rows = np.loadtxt(section, dtype, comments=None, ndmin=1) if section else np.empty(0, dtype)
        problem = "blank row"  # loadtxt skips blank lines, which fail the width check below
    except (ValueError, Warning) as e:
        rows, problem = (), str(e)
    if len(rows) == count:
        return rows
    if len(section) < count:
        raise ValueError(f"expected {count} {what} rows, found {len(section)}")
    for i, line in enumerate(section):
        if len(line.split()) != width:
            raise ValueError(f"{what} row {i} has {len(line.split())} values, expected {width}")
    raise ValueError(problem)


def read_ply(text: str) -> PlyData:
    """Parse an ascii PLY of the layout ply_text writes."""
    lines = text.splitlines()
    if lines[:2] != ["ply", "format ascii 1.0"]:
        raise ValueError("not an ascii PLY 1.0 file")
    sizes: dict[str, int] = {}
    for i, line in enumerate(lines[2:], start=2):
        if line.startswith("element "):
            _, name, num = line.split()
            sizes[name] = int(num)
        elif line == "end_header":
            body = i + 1
            break
    else:
        raise ValueError("missing end_header")
    n_vertices = sizes.get("vertex", 0)
    n_faces = sizes.get("face", 0)
    vertices = _rows(lines[body:body + n_vertices], n_vertices, _VERTEX_ROW, 6, "vertex")
    # a polygon with more vertices than 3 already fails the row width check
    faces = _rows(lines[body + n_vertices:body + n_vertices + n_faces], n_faces, _FACE_ROW, 4, "face")
    if np.any(faces["n"] != 3):
        raise ValueError("only triangle faces are supported")
    return PlyData(vertices["xyz"], vertices["rgb"], faces["v"])


def obj_text(mesh: SurfaceMesh, mtl_filename: str) -> tuple[str, str]:
    """Wavefront OBJ plus MTL; branch color is carried by one material per
    branch since core OBJ has no vertex colors."""
    obj = [f"mtllib {mtl_filename}\n", *_table([mesh.positions], ("v ", " ", " "), "\n")]
    # one group per run of faces owned by the same branch
    starts = [0, *(np.flatnonzero(np.diff(mesh.face_branch)) + 1).tolist()] if mesh.n_faces else []
    for start, stop in zip(starts, starts[1:] + [mesh.n_faces]):
        k = int(mesh.face_branch[start])
        obj.append(f"g branch_{k}\nusemtl branch_{k}\n")
        obj.extend(_table([mesh.faces[start:stop] + 1], ("f ", " ", " "), "\n"))

    mtl = []
    for k in dict.fromkeys(mesh.face_branch.tolist()):
        r, g, b = branch_color(k)
        mtl.append(f"newmtl branch_{k}")
        mtl.append(f"Kd {r / 255!r} {g / 255!r} {b / 255!r}")
    return "".join(obj), "\n".join(mtl) + "\n"


def _seam_record(s: Seam) -> dict:
    return {
        "upper_branch": s.upper_branch,
        "lower_branch": s.lower_branch,
        "max_gap": s.max_gap,
        "mean_gap": s.mean_gap,
        "welded": s.welded,
    }


def json_text(mesh: SurfaceMesh) -> str:
    """Versioned JSON with full surface-point records.

    Raises ValueError for a non-finite value, which strict JSON cannot hold.
    """
    if not (np.isfinite(mesh.positions).all() and np.isfinite(mesh.w).all()):
        raise ValueError("Out of range float values are not JSON compliant")
    head = json.dumps({
        "schema": 1,
        "function": mesh.function.label(),
        "charisma": mesh.kind.value,
        "chart": "range" if mesh.range_chart else "surface",
        "welded": mesh.welded,
        "sheets": [int(k) for k in mesh.sheet_branches],
    }, separators=_JSON_SEPARATORS, allow_nan=False)
    seams = json.dumps([_seam_record(s) for s in mesh.seams], separators=_JSON_SEPARATORS, allow_nan=False)
    return "".join([
        head[:-1],
        ',"vertices":[',
        *_table(
            [mesh.positions, mesh.branch, mesh.w.real, mesh.w.imag],
            ('{"x":', ',"y":', ',"c":', ',"k":', ',"w":[', ","),
            "]}",
            ",",
        ),
        '],"faces":[',
        *_table([mesh.faces], ("[", ",", ","), "]", ","),
        '],"seams":',
        seams,
        "}\n",
    ])


def csv_text(mesh: SurfaceMesh) -> str:
    """Vertex table with header x,y,c,k."""
    return "".join(["x,y,c,k\n", *_table([mesh.positions, mesh.branch], ("", ",", ",", ","), "\n")])


def seams_json_text(mesh: SurfaceMesh, weld_tol: float) -> str:
    """Sidecar seam report: pre-weld gap statistics per sheet pair."""
    doc = {
        "schema": 1,
        "function": mesh.function.label(),
        "charisma": mesh.kind.value,
        "weld_tol": weld_tol,
        "welded": mesh.welded,
        "seams": [_seam_record(s) for s in mesh.seams],
    }
    return json.dumps(doc, separators=_JSON_SEPARATORS, allow_nan=False) + "\n"
