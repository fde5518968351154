"""Deterministic text serialization of surface meshes.

render_outputs is the one writer entry: for a mesh and one of FORMATS it
returns every file a run writes as {path: pieces of bytes}, the mesh file
rendered lazily.

All floats are written with their shortest round-trip decimal
representation, so identical meshes serialize to identical bytes. Each
distinct value of a table is formatted once, and the writers read the
mesh's factored columns (its sheet stack, source and renumbering) without
expanding them. A block of rows is one numpy record array, with one field
per cell and one per separator, sized to a fixed byte budget; each cell
field is filled with a gather of its texts through the mesh's indices, and
the block's bytes, less their padding, go to disk as they are.
"""

from __future__ import annotations

import errno
import json
import os
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .branches import _distinct
from .mesh import Seam, SurfaceMesh, branch_color, require_weld_tol

__all__ = ["FORMATS", "PlyData", "read_ply", "render_outputs", "seams_json_text"]

# the output formats; each names its mesh file's suffix
FORMATS = ("csv", "json", "obj", "ply")

# bytes per block of rows: a block holds as many records as fit, and at
# least one. A record pads each cell to the widest text of its column.
# 64 KiB keeps a 40x240 run's peak RSS at the level of the 1024-row blocks
# it replaced; 128 KiB saved about 2% of the block assembly at 100x600.
_BLOCK_BYTES = 1 << 16

# distinct floats formatted per chunk, so the repr strings of one chunk are alive at a time
_REPR_CHUNK = 1 << 13

_JSON_SEPARATORS = (",", ":")


# integers texted per chunk, so that no temporary of the digit planes spans a whole column
_INT_CHUNK = 1 << 14

# A cell of a table row: (texts, inverse, rows), whose value in row r is
# texts[inverse[rows[r]]], or texts[rows[r]] for an inverse of None: x and y
# through the lattice point of each vertex, c and w through its source, and
# a sheet's faces through its part of the renumbering.
Cell = tuple[np.ndarray, "np.ndarray | None", np.ndarray]


def _int_texts(values: np.ndarray | range) -> np.ndarray:
    """Decimal texts of integers as a NUL-padded "S" array, built
    _INT_CHUNK values at a time; a range is never made one array."""
    if not len(values):
        return np.empty(0, "S1")
    lo, hi = (values[0], values[-1]) if isinstance(values, range) else (int(values.min()), int(values.max()))
    sign = int(lo < 0)
    width = sign + len(str(max(-lo, hi)))
    planes = np.zeros((len(values), width), np.uint8)
    for start in range(0, len(values), _INT_CHUNK):
        part = values[start:start + _INT_CHUNK]
        if isinstance(part, range):
            part = np.arange(part.start, part.stop)
        out = planes[start:start + _INT_CHUNK]
        mag = part.astype(np.uint64)
        if sign:
            neg = part < 0
            mag = np.where(neg, np.uint64(0) - mag, mag)  # |-2**63| fits a uint64
            out[:, 0] = np.where(neg, 45, 0)
        digit = width - 1
        out[:, digit] = 48 + mag % 10  # the last digit is written even for 0
        while (mag := mag // 10).any():
            digit -= 1
            out[:, digit] = np.where(mag > 0, 48 + mag % 10, 0)
    return planes.view(f"S{width}").reshape(-1)


def _float_texts(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The repr texts of the distinct floats of values, and the index of
    each value's text, in C order."""
    distinct, inverse = _distinct(values.astype(np.float64, copy=False))
    texts = [  # numpy sizes each chunk's S width
        np.array(list(map(repr, distinct[i:i + _REPR_CHUNK].tolist())), dtype="S")
        for i in range(0, len(distinct), _REPR_CHUNK)
    ]
    return np.concatenate([np.empty(0, "S1"), *texts]), inverse


def _index_texts(arrays: list[np.ndarray], shift: int = 0) -> tuple[np.ndarray, list[np.ndarray]]:
    """The texts of the integers of arrays, each plus shift, and per array
    the array indexing those texts in its place. Where every value lies in
    0..n - 1, n the count of all the values, the texts are those of 0..max
    and each array indexes them itself; else they are those of the
    distinct values."""
    lo = min((int(a.min()) for a in arrays if a.size), default=0)
    hi = max((int(a.max()) for a in arrays if a.size), default=-1)
    if 0 <= lo and hi < sum(a.size for a in arrays):
        return _int_texts(range(shift, hi + 1 + shift)), arrays
    values, inverse = _distinct(np.concatenate([a.reshape(-1) for a in arrays]))
    if shift:
        values = values.astype(np.int64) + shift
    ends = np.cumsum([a.size for a in arrays]).tolist()
    return _int_texts(values), [inverse[end - a.size:end].reshape(a.shape) for a, end in zip(arrays, ends)]


def _cells(columns: list[np.ndarray]) -> list[Cell]:
    """The cells of plain columns, 1-D or 2-D arrays of one length: a cell
    per value of a row, the floats texted once per distinct value and the
    ints as _index_texts texts them."""
    cells = []
    for column in columns:
        column = column[:, None] if column.ndim == 1 else column
        if column.dtype.kind == "f":
            texts, index = _float_texts(column)
            index = index.reshape(column.shape)
        else:
            texts, (index,) = _index_texts([column])
        cells += [(texts, None, index[:, j]) for j in range(column.shape[1])]
    return cells


def _float_cell(values: np.ndarray, rows: np.ndarray) -> Cell:
    return (*_float_texts(values), rows)


def _position_cells(mesh: SurfaceMesh) -> list[Cell]:
    """x, y and c: c deduped over every sheet and read through the source
    of each vertex, x and y over the lattice and through its lattice point.
    c is made first: its dedupe is the largest, so it runs while the least
    is alive."""
    c = _float_cell(mesh.sheet_c, mesh.source)
    z, point = mesh.z.reshape(-1), _lattice_point(mesh)
    return [_float_cell(z.real, point), _float_cell(z.imag, point), c]


def _lattice_point(mesh: SurfaceMesh) -> np.ndarray:
    return mesh.source % mesh.z.size


def _branch_cell(mesh: SurfaceMesh) -> Cell:
    values, counts = mesh.branch_runs
    distinct, index = _distinct(values)
    return _int_texts(distinct), None, np.repeat(index, counts)


def _face_segments(mesh: SurfaceMesh, shift: int = 0) -> list[list[Cell]]:
    """The face table, each vertex index plus shift: one segment per sheet,
    its lattice faces read through its part of renumber, then the walls."""
    texts, (renumber, walls) = _index_texts([mesh.renumber, mesh.walls], shift)
    points = mesh.z.size
    return [
        [(texts, renumber[s * points:(s + 1) * points], mesh.sheet_faces[:, j]) for j in range(3)]
        for s in range(len(mesh.sheet_c))
    ] + [[(texts, None, walls[:, j]) for j in range(3)]]


def _segment_rows(segments: list[list[Cell]], start: int, stop: int) -> list[list[Cell]]:
    """Rows start..stop of a table of segments, as segments."""
    part, at = [], 0
    for cells in segments:
        n = len(cells[0][2])
        if start < at + n and at < stop:
            a, b = max(start - at, 0), min(stop - at, n)
            part.append([(texts, inverse, rows[a:b]) for texts, inverse, rows in cells])
        at += n
    return part


def _table(segments: list[list[Cell]], seps: tuple[str, ...], end: str, between: str = "") -> Iterator[bytes]:
    """One text row per row of the segments, in order, seps[0] v0 seps[1]
    v1 ... v_last end, rows joined by `between`; returned lazily, as ASCII
    bytes, one piece per block of rows.

    A segment is a list of cells, one per value of a row, and its rows
    are those of the cells, which share their length. Every value is
    written as the repr of its Python float or int. A surface repeats few
    distinct floats (its sheets share one lattice), so each float column is
    reduced to its distinct values, keyed by bit pattern so that -0.0 and
    0.0 stay apart, and each is formatted once. Texts are NUL-padded and a
    block's NUL bytes are dropped, so the separators, `end` and `between`
    must not contain NUL (checked at once).
    """
    if "\0" in "".join((*seps, end, between)):
        raise ValueError("table separators must not contain NUL")
    return _blocks(segments, seps, end, between)


def _blocks(segments: list[list[Cell]], seps: tuple[str, ...], end: str, between: str) -> Iterator[bytes]:
    n = sum(len(cells[0][2]) for cells in segments)
    if not n:
        return
    separators = [text.encode() for text in (*seps, end + between)]  # separators[i] comes before cell i
    fields = []  # the record: an "S" field per non-empty separator and per cell, in row order
    for i, sep in enumerate(separators):
        if sep:
            fields.append((f"s{i}", f"S{len(sep)}"))
        if i < len(segments[0]):  # each cell as wide as its widest texts in any segment
            fields.append((f"c{i}", f"S{max(cells[i][0].dtype.itemsize for cells in segments)}"))
    record = np.dtype(fields)
    rows = max(1, _BLOCK_BYTES // record.itemsize)
    block = np.empty(min(rows, n), record)
    for i, sep in enumerate(separators):
        if sep:  # once: every block reuses them
            block[f"s{i}"] = sep
    written = 0
    for cells in segments:
        length = len(cells[0][2])
        for start in range(0, length, rows):
            stop = min(start + rows, length)
            part = block[:stop - start]
            for i, (texts, inverse, index) in enumerate(cells):
                at = index[start:stop]
                part[f"c{i}"] = texts.take(at if inverse is None else inverse.take(at))
            data = part.tobytes().translate(None, b"\0")
            written += stop - start
            yield data[:-len(between)] if between and written == n else data


# The PLY layout, stated once: the header _ply_pieces writes, with the vertex and face counts in its {},
# and read_ply requires line for line. Ascii PLY 1.0 with per-vertex uchar RGB; z carries the charisma.
_PLY_HEADER = """ply
format ascii 1.0
comment riemannmesh surface
element vertex {}
property double x
property double y
property double z
property uchar red
property uchar green
property uchar blue
element face {}
property list uchar int vertex_indices
end_header
"""
# per header line, the pattern it must match in full: a count is ASCII digits, where int() would also take
# "-1", "1_8", "+18" and non-ASCII digits, and at most 19 of them: the surface cap keeps every written count
# far below that, and int() refuses a count past 4,300 digits with a message that names no header line.
# re compiles the joined patterns on first use and caches them.
_PLY_LINES = [re.escape(line).replace(r"\{\}", "([0-9]{1,19})") for line in _PLY_HEADER.splitlines()]
_PLY_PATTERN = "\n".join(_PLY_LINES)


def _ply_pieces(mesh: SurfaceMesh) -> Iterator[bytes]:
    yield _PLY_HEADER.format(mesh.n_vertices, mesh.n_faces).encode()
    # each table's texts are freed before the next table's are made
    yield from _table([_position_cells(mesh) + _cells([mesh.colors])],
                      ("", " ", " ", " ", " ", " "), "\n")
    yield from _table(_face_segments(mesh), ("3 ", " ", " "), "\n")


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


def _require_below(values: np.ndarray, stop: int, row_name: str, value_name: str) -> None:
    # every value of an int64 table in 0..stop - 1, in one pass: as uint64 a negative value exceeds any stop
    unsigned = values.view(np.uint64)
    if unsigned.size and unsigned.max() >= stop:
        row = int(np.argmax((unsigned >= stop).any(axis=1)))
        raise ValueError(f"{row_name} row {row} has a {value_name} outside 0..{stop - 1}")


def read_ply(text: str) -> PlyData:
    """Parse an ascii PLY whose header is the writer's, line for line; raises
    ValueError, naming the line or row, for a header line that differs, a row
    or value that the header forbids, or a line after the last face row."""
    lines = text.splitlines()
    body = len(_PLY_LINES)
    header = re.fullmatch(_PLY_PATTERN, "\n".join(lines[:body]))
    if header is None:  # name the first line that differs
        i = next(i for i, pattern in enumerate(_PLY_LINES) if i >= len(lines) or not re.fullmatch(pattern, lines[i]))
        found = repr(lines[i]) if i < len(lines) else "(end of file)"
        expected = _PLY_HEADER.splitlines()[i].replace("{}", "<count>")
        raise ValueError(f"header line {i} {found} is not {expected!r}")
    n_vertices, n_faces = map(int, header.groups())
    end = body + n_vertices + n_faces
    vertices = _rows(lines[body:body + n_vertices], n_vertices, _VERTEX_ROW, 6, "vertex")
    # a polygon with more vertices than 3 already fails the row width check
    faces = _rows(lines[body + n_vertices:end], n_faces, _FACE_ROW, 4, "face")
    if len(lines) > end:
        raise ValueError(f"line {end} follows the last face row")
    if np.any(faces["n"] != 3):
        raise ValueError("only triangle faces are supported")
    _require_below(vertices["rgb"], 256, "vertex", "colour")
    _require_below(faces["v"], n_vertices, "face", "vertex index")
    return PlyData(vertices["xyz"], vertices["rgb"], faces["v"])


# Wavefront OBJ plus MTL; branch color is carried by one material per
# branch since core OBJ has no vertex colors.
def _obj_pieces(mesh: SurfaceMesh, mtl_filename: str) -> Iterator[bytes]:
    yield f"mtllib {mtl_filename}\n".encode()
    yield from _table([_position_cells(mesh)], ("v ", " ", " "), "\n")
    # one group per run of faces owned by the same branch, each a table over the one-based indices
    faces = _face_segments(mesh, 1)
    values, counts = mesh.face_branch_runs
    stops = np.cumsum(counts).tolist()
    for k, start, stop in zip(values.tolist(), [0, *stops], stops):
        yield f"g branch_{k}\nusemtl branch_{k}\n".encode()
        yield from _table(_segment_rows(faces, start, stop), ("f ", " ", " "), "\n")


def _mtl_text(mesh: SurfaceMesh) -> str:
    mtl = []
    for k in dict.fromkeys(mesh.face_branch_runs[0].tolist()):
        r, g, b = branch_color(k)
        mtl.append(f"newmtl branch_{k}")
        mtl.append(f"Kd {r / 255!r} {g / 255!r} {b / 255!r}")
    return "\n".join(mtl) + "\n"


def _seam_record(s: Seam) -> dict:
    return {
        "upper_branch": s.upper_branch,
        "lower_branch": s.lower_branch,
        "max_gap": s.max_gap,
        "mean_gap": s.mean_gap,
        "welded": s.welded,
    }


def _finite(mesh: SurfaceMesh, sheet_w: np.ndarray) -> bool:
    # every float the vertex table writes is finite; the written values are gathered only where some value is not
    point = _lattice_point(mesh)
    for values, rows in ((mesh.z, point), (mesh.sheet_c, mesh.source), (sheet_w, mesh.source)):
        finite = np.isfinite(values).reshape(-1)
        if not (finite.all() or finite[rows].all()):
            return False
    return True


# Versioned JSON with full surface-point records; ValueError for a
# non-finite value written, which strict JSON cannot hold.
def _json_pieces(mesh: SurfaceMesh) -> Iterator[bytes]:
    # the one writer of w: the mesh computes sheet_w on access, so it is read once, and dropped once its cells
    # are made. Those two dedupes over every sheet are the largest, so they run while the least is alive
    sheet_w = mesh.sheet_w
    if not _finite(mesh, sheet_w):
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
    yield head[:-1].encode() + b',"vertices":['
    w = [_float_cell(part, mesh.source) for part in (sheet_w.real, sheet_w.imag)]
    del sheet_w
    yield from _table(
        [_position_cells(mesh) + [_branch_cell(mesh)] + w],
        ('{"x":', ',"y":', ',"c":', ',"k":', ',"w":[', ","),
        "]}",
        ",",
    )
    yield b'],"faces":['
    yield from _table(_face_segments(mesh), ("[", ",", ","), "]", ",")
    yield f'],"seams":{seams}}}\n'.encode()


# Vertex table with header x,y,c,k.
def _csv_pieces(mesh: SurfaceMesh) -> Iterator[bytes]:
    yield b"x,y,c,k\n"
    yield from _table([_position_cells(mesh) + [_branch_cell(mesh)]], ("", ",", ",", ","), "\n")


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


def render_outputs(
    mesh: SurfaceMesh, fmt: str, output: str | os.PathLike, weld_tol: float
) -> dict[Path, Iterable[bytes]]:
    """Every file a run writes, as {path: pieces of bytes}, in the order:
    the mesh in format fmt at output, a str or path-like, rendered lazily;
    for "obj" its MTL beside it, with output's last suffix replaced by
    .mtl; and the seam sidecar, by .seams.json. IsADirectoryError for an
    output that is an existing directory; ValueError for a format not in
    FORMATS, a weld_tol that require_weld_tol refuses, or two files that
    would share a path."""
    output = Path(output)
    if output.is_dir():  # with_suffix would fail on ".", "" and "/"; this is the error _write_atomic raises
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(output))
    if fmt == "ply":
        files = [(output, _ply_pieces(mesh))]
    elif fmt == "obj":
        mtl_path = output.with_suffix(".mtl")
        files = [(output, _obj_pieces(mesh, mtl_path.name)), (mtl_path, [_mtl_text(mesh).encode()])]
    elif fmt == "json":
        files = [(output, _json_pieces(mesh))]
    elif fmt == "csv":
        files = [(output, _csv_pieces(mesh))]
    else:
        raise ValueError(f"unknown format {fmt!r}")
    seams = seams_json_text(mesh, require_weld_tol(weld_tol))
    files.append((output.with_suffix(".seams.json"), [seams.encode()]))
    if len(dict(files)) < len(files):
        raise ValueError(f"the output files would share a path: {', '.join(str(path) for path, _ in files)}")
    return dict(files)
