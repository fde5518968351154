"""Deterministic text serialization of surface meshes.

render_outputs is the one writer entry: for a mesh and one of FORMATS it
returns every file a run writes as {path: pieces of bytes}, the mesh file
rendered lazily.

All floats are written with their shortest round-trip decimal
representation, so identical meshes serialize to identical bytes. Each
distinct value of a table is formatted once, and the writers read the
mesh's factored columns (its lattice parts and its height table) without
expanding them: a vertex table's rows are each sheet's kept lattice
points, computed a block at a time. Each section of a file is one table,
OBJ's group lines written between its face rows. A block of rows is one
numpy record array, a field per cell and per separator, sized to a fixed
byte budget; each cell field is a gather of its texts through the block's
rows, and the block's bytes, less their padding, go to disk as they are.
"""

from __future__ import annotations

import errno
import json
import math
import os
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .batch import _CHUNK, _distinct, _map_each
from .mesh import Seam, SurfaceMesh, branch_color, kept_points, lattice_faces, require_weld_tol

__all__ = ["FORMATS", "PlyData", "read_ply", "render_outputs", "seams_json_text"]

# the output formats; each names its mesh file's suffix
FORMATS = ("csv", "json", "obj", "ply")

# bytes per block of rows: a block holds as many records as fit, and at
# least one. A record pads each cell to the widest text of its column.
# 64 KiB keeps a 40x240 run's peak RSS at the level of the 1024-row blocks
# it replaced; 128 KiB saved about 2% of the block assembly at 100x600.
_BLOCK_BYTES = 1 << 16

_JSON_SEPARATORS = (",", ":")

# A cell of a table: (texts, inverse, column). In row r of its segment,
# whose rows are an (n, m) int array, its value is
# texts[inverse[rows[r, column]]], or texts[rows[r, column]] for an inverse
# of None: x, y and a sheet's c through each vertex's lattice point, w
# through its pre-weld vertex, colour and branch through its branch run,
# and a sheet's faces through the texts of its vertices.
Cell = tuple[np.ndarray, "np.ndarray | None", int]
# A segment of a table: (rows, cells); the rows are an (n, m) int array,
# or _KeptPoints, which a slice turns into one
Segment = tuple["np.ndarray | _KeptPoints", list[Cell]]
# the columns of a vertex segment's rows
_POINT, _PRE_WELD, _RUN = range(3)


def _int_texts(values: np.ndarray, shift: int = 0) -> np.ndarray:
    """Decimal texts of integers, each plus shift, as a NUL-padded "S" array, built _CHUNK values at a time,
    so that no temporary of the digit planes spans a whole column; a shifted value is an int64 of its chunk."""
    if not len(values):
        return np.empty(0, "S1")
    lo, hi = int(values.min()) + shift, int(values.max()) + shift
    sign = int(lo < 0)
    width = sign + len(str(max(-lo, hi)))
    planes = np.zeros((len(values), width), np.uint8)
    for start in range(0, len(values), _CHUNK):
        part = values[start:start + _CHUNK]
        if shift:
            part = part.astype(np.int64) + shift
        out = planes[start:start + _CHUNK]
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
    each value's text, in C order. repr is mapped through _map_each, like
    every map of a Python callable over array values, _CHUNK values at a
    time."""
    distinct, inverse = _distinct(values.astype(np.float64, copy=False))
    # no repr is longer than the 24 bytes of -2.2250738585072014e-308
    return _map_each(repr, distinct, dtype="S24"), inverse


class _KeptPoints:
    """The rows of a sheet's vertex segment, one per kept lattice point (see kept_points). A slice is an
    (n, 3) int array of each row's lattice point, pre-weld vertex and branch run, computed by arithmetic, so
    only a block's rows exist, shared by the block's cells."""

    def __init__(self, mesh: SurfaceMesh, sheet: int, run_ends: np.ndarray) -> None:
        at = mesh.heights[1]
        self.n_cols, self.points = at.shape[1], at.size
        self.sheet, self.dropped, self.run_ends = sheet, bool(mesh.welded_into[sheet] >= 0), run_ends
        self.first, self.stop = mesh.sheet_start[sheet:sheet + 2].tolist()

    def __len__(self) -> int:
        return self.stop - self.first

    def __getitem__(self, rows: slice) -> np.ndarray:
        a, b, _ = rows.indices(len(self))
        columns = np.empty((3, b - a), np.int64)  # a column at a time, each contiguous
        columns[_POINT] = kept_points(self.n_cols, self.dropped, a, b)
        np.add(columns[_POINT], self.sheet * self.points, out=columns[_PRE_WELD])
        run, last_run = np.searchsorted(self.run_ends, [self.first + a, self.first + b - 1], "right").tolist()
        if run == last_run:  # a surface's sheet is one run
            columns[_RUN] = run
        else:
            columns[_RUN] = np.searchsorted(self.run_ends, np.arange(self.first + a, self.first + b), "right")
        return columns.T


def _vertex_segments(mesh: SurfaceMesh, cells: list[Cell]) -> list[Segment]:
    """The vertex table: a segment per sheet, its rows the sheet's kept lattice points, its cells x, y and
    the sheet's c, then cells, the same in every segment. x and y are each made from the grid, deduped and
    freed in turn; the c cells are made first, as phase's per-sheet dedupes are the largest."""
    values, at = mesh.heights
    at = at.reshape(-1)  # a broadcast 0 stays one
    c = [_height_cell(row, at) for row in values]
    x = (*_float_texts(mesh.grid.lattice_part(math.cos)), _POINT)
    y = (*_float_texts(mesh.grid.lattice_part(math.sin)), _POINT)
    run_ends = np.cumsum(mesh.branch_runs[1])
    return [(_KeptPoints(mesh, s, run_ends), [x, y, c[s], *cells]) for s in range(len(values))]


def _height_cell(values: np.ndarray, at: np.ndarray) -> Cell:
    """A sheet's c cell, its height values[at[p]] at lattice point p: a table of fewer heights than points
    (each but phase's) is texted in table order and read through at, and a height per point (phase's)
    through the sheet's own dedupe, so no writer dedupes every sheet's heights at every point."""
    texts, inverse = _float_texts(values)
    if len(values) < len(at):
        return texts.take(inverse), at, _POINT
    return texts, inverse.take(at), _POINT


def _branch_cell(mesh: SurfaceMesh) -> Cell:
    distinct, index = _distinct(mesh.branch_runs[0])
    return _int_texts(distinct), index, _RUN


def _colour_cells(mesh: SurfaceMesh) -> list[Cell]:
    # red, green and blue each contiguous: indexing reads a strided array more slowly (a cap chart's PLY
    # render took 1.9 s, against 1.6 s), and take copies one whole on every call
    texts, rgb = _int_texts(np.arange(256)), np.ascontiguousarray(mesh.run_colors.T)
    return [(texts, rgb[j], _RUN) for j in range(3)]


def _face_segments(mesh: SurfaceMesh, shift: int = 0) -> list[Segment]:
    """The face table, each vertex index plus shift: one segment per sheet, its lattice faces read through its
    part of the vertex texts, then the walls. renumber and the lattice faces are expanded here, once each:
    the renumbering is texted, a text per pre-weld vertex, and freed before the lattice faces are made."""
    vertex_texts = _int_texts(mesh.renumber, shift).reshape(len(mesh.welded_into), -1)
    wall_texts = _int_texts(mesh.walls.reshape(-1), shift)
    faces = lattice_faces(*mesh.heights[1].shape)
    corners = np.arange(len(wall_texts)).reshape(-1, 3)  # wall face f reads its corners' texts 3f..3f + 2
    return [(faces, [(part, None, j) for j in range(3)]) for part in vertex_texts] + [
        (corners, [(wall_texts, None, j) for j in range(3)])]


def _table(segments: list[Segment], seps: tuple[str, ...], end: str, between: str = "",
           heads: tuple | None = None) -> Iterator[bytes]:
    """One text row per row of the segments, in order, seps[0] v0 seps[1]
    v1 ... v_last end, rows joined by `between`; returned lazily, as ASCII
    bytes, one piece per block of rows. heads, if given, is (starts, texts):
    before row starts[j] goes texts(lo, hi)[j - lo], asked a block at a time.

    A segment is its rows and a list of cells, one per value of a row,
    each read through the rows (see Cell). Every value is
    written as the repr of its Python float or int. A surface repeats few
    distinct floats (its sheets share one lattice), so each float column is
    reduced to its distinct values, keyed by bit pattern so that -0.0 and
    0.0 stay apart, and each is formatted once. Texts are NUL-padded and a
    block's NUL bytes are dropped, so the separators, `end` and `between`
    must not contain NUL, nor, with heads, byte 1 (checked at once).
    """
    text = "".join((*seps, end, between))
    if "\0" in text or heads and "\1" in text:
        raise ValueError("table separators must not contain NUL, nor, with heads, byte 1")
    return _blocks(segments, seps, end, between, heads)


def _blocks(segments: list[Segment], seps: tuple[str, ...], end: str, between: str,
            heads: tuple | None) -> Iterator[bytes]:
    n = sum(len(rows) for rows, _ in segments)
    if not n:
        return
    separators = [text.encode() for text in (*seps, end + between)]  # separators[i] comes before cell i
    # the record: with heads a mark byte, then an "S" field per non-empty separator and per cell, in row order
    fields = [("m", "S1")] if heads else []
    for i, sep in enumerate(separators):
        if sep:
            fields.append((f"s{i}", f"S{len(sep)}"))
        if i < len(segments[0][1]):  # each cell as wide as its widest texts in any segment
            fields.append((f"c{i}", f"S{max(cells[i][0].dtype.itemsize for _, cells in segments)}"))
    record = np.dtype(fields)
    rows = max(1, _BLOCK_BYTES // record.itemsize)
    block = np.zeros(min(rows, n), record)
    for i, sep in enumerate(separators):
        if sep:  # once: every block reuses them
            block[f"s{i}"] = sep
    written = filled = 0  # rows written, and rows of the block filled: a block may span segments
    for segment, cells in segments:
        start = 0
        while start < len(segment):
            at = segment[start:start + len(block) - filled]
            part = block[filled:filled + len(at)]
            for i, (texts, inverse, column) in enumerate(cells):
                # an inverse is indexed, not taken from: take copies a strided or broadcast source whole on
                # each call, 0.2 ms a block for a range chart's broadcast index at the grid cap
                index = at[:, column]
                part[f"c{i}"] = texts.take(index if inverse is None else inverse[index])
            start, filled, written = start + len(at), filled + len(at), written + len(at)
            if filled == len(block) or written == n:
                # the block's heads: their rows are marked with byte 1 while its bytes are made, and each
                # mark is then replaced by its head's text; a block with no head does no more than without heads
                lo, hi = np.searchsorted(heads[0], [written - filled, written]).tolist() if heads else (0, 0)
                if lo < hi:
                    block["m"][heads[0][lo:hi] - (written - filled)] = b"\1"
                data = block[:filled].tobytes().translate(None, b"\0")
                if lo < hi:
                    block["m"] = b""
                    parts = data.split(b"\1")
                    data = parts[0] + b"".join(map(bytes.__add__, heads[1](lo, hi), parts[1:]))
                filled = 0
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
    yield from _table(_vertex_segments(mesh, _colour_cells(mesh)),
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
    yield from _table(_vertex_segments(mesh, []), ("v ", " ", " "), "\n")
    # one group per run of faces owned by the same branch: its g and usemtl lines head the run's first row
    values, counts = mesh.face_branch_runs
    starts = np.cumsum(counts, dtype=np.int64) - counts
    yield from _table(_face_segments(mesh, 1), ("f ", " ", " "), "\n", heads=(starts, lambda lo, hi: [
        b"g branch_%d\nusemtl branch_%d\n" % (k, k) for k in values[lo:hi].tolist()]))


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
    # every float the vertex table writes is finite: a sheet's dropped lower cut column is not written
    values, at = mesh.heights
    dropped = (mesh.welded_into >= 0)[:, None, None] & (np.arange(at.shape[1]) == 0)

    def flags():  # each made and dropped in turn: the lattice's parts, the heights' through the table, w
        for trig in (math.cos, math.sin):
            yield np.isfinite(mesh.grid.lattice_part(trig))
        yield np.isfinite(values)[:, at]
        yield np.isfinite(sheet_w)

    return all((finite | dropped).all() for finite in flags())


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
    w = [(*_float_texts(part), _PRE_WELD) for part in (sheet_w.real, sheet_w.imag)]
    del sheet_w
    yield from _table(
        _vertex_segments(mesh, [_branch_cell(mesh)] + w),
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
    yield from _table(_vertex_segments(mesh, [_branch_cell(mesh)]), ("", ",", ",", ","), "\n")


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
    FORMATS, a weld_tol that require_weld_tol refuses, an .mtl name holding
    whitespace, or two files that would share a path."""
    output = Path(output)
    if output.is_dir():  # with_suffix would fail on ".", "" and "/"; this is the error _write_atomic raises
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(output))
    if fmt == "ply":
        files = [(output, _ply_pieces(mesh))]
    elif fmt == "obj":
        mtl_path = output.with_suffix(".mtl")
        if re.search(r"\s", mtl_path.name):  # mtllib takes whitespace-separated file names
            raise ValueError(f"the OBJ's material file name {mtl_path.name!r} holds whitespace")
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
