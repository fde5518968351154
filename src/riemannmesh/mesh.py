"""Cut-aligned polar sampling, sheet lifting, seam measurement and welding.

The domain is sampled on a polar lattice whose angular sweep covers
[-pi, pi] with both endpoints present, so the branch cut along the
negative real axis is an explicit mesh boundary: the first and last
columns coincide geometrically but are distinct vertices sitting on
opposite sides of the cut. Each branch lifts to one open sheet, and all
sheets of a surface are lifted in one pass over one shared lattice;
assembly pairs every sheet's upper cut edge with the lower edge of the
sheet that continues it, measures the charisma gap, and optionally welds
seams that are continuous.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .branches import (
    BranchIndexError,
    CharismaKind,
    IndexedFunction,
    _batch_branch_index,
    _batch_heights,
    _batch_values,
    continuation_branch,
    require_compatible,
)

__all__ = [
    "DEFAULT_LOG_BRANCHES",
    "DEFAULT_WELD_TOL",
    "DomainGrid",
    "GridError",
    "PALETTE",
    "Seam",
    "SheetStack",
    "SurfaceMesh",
    "assemble_surface",
    "branch_color",
    "build_range_chart",
    "build_sheets",
    "sample_domain",
    "seam_report",
]

DEFAULT_WELD_TOL = 1e-9

# the least r_min a DomainGrid accepts, 2**-1022: from there on r sin(-pi) rounds to a float below 0
# whose phase is -pi to the float; below it, it rounds to -0.0 or to a subnormal too coarse for that
_LEAST_R_MIN = 2.0**-1022

# the most lattice points n_r * (n_theta + 1) a DomainGrid may hold: 4.4
# times a 200x1200 grid. At 200x1200 a three-sheet CLI run took about 0.08 KB
# (PLY) to 0.23 KB (JSON) of peak RSS per lattice point above a tiny run's
# 31 MB, and the same at 400x1200, so at the cap such a run needs about
# 0.27 GB.
MAX_GRID_POINTS = 1 << 20

# the most vertices len(branches) * n_r * (n_theta + 1) a surface may hold:
# three sheets at MAX_GRID_POINTS, about 0.08 KB each, the 0.27 GB run above
_MAX_SURFACE_POINTS = 3 * MAX_GRID_POINTS

# the dtype of every vertex index (lattice and mesh faces, the renumbering,
# each sheet's first vertex): PLY's 32-bit int, and far above the surface cap. Branch
# indices stay int64, as a branch may be any int64.
_VERTEX_INDEX = np.int32

# the most an imag window's height ulp, ulp(2 pi max|k| + pi), may be, as a fraction of the angular step
# 2 pi / n_theta: so neighbouring columns' heights differ by the step to within an eighth of it
_IMAG_ULP_OF_STEP = 1 / 8

# finite window of the infinite log surface built when no branch range is given
DEFAULT_LOG_BRANCHES = range(-2, 3)

# fixed cyclic branch palette, indexed by k mod 8 (see README)
PALETTE = (
    (31, 119, 180),   # blue
    (255, 127, 14),   # orange
    (44, 160, 44),    # green
    (214, 39, 40),    # red
    (148, 103, 189),  # purple
    (140, 86, 75),    # brown
    (227, 119, 194),  # pink
    (127, 127, 127),  # grey
)
_PALETTE_RGB = np.asarray(PALETTE, dtype=np.uint8)


class GridError(ValueError):
    """Domain grid parameters violate an invariant; field names the
    DomainGrid parameter at fault."""

    def __init__(self, message: str, field: str | None = None) -> None:
        super().__init__(message)
        self.field = field


def branch_color(k: int) -> tuple[int, int, int]:
    """RGB color of branch k; a pure function of k."""
    return PALETTE[int(k) % len(PALETTE)]


def _is_finite_real(x) -> bool:
    try:
        return math.isfinite(x)
    except (TypeError, OverflowError):  # not a real number (a str, None) or beyond float range
        return False


@dataclass(frozen=True)
class DomainGrid:
    """Polar sampling of an annulus around the branch point.

    n_theta counts angular steps; the lattice carries n_theta + 1 columns
    because the theta = -pi and theta = +pi columns are both present,
    geometrically coincident on the cut but topologically distinct.
    The grid owns every lattice rule, raising GridError: integer counts
    within the cap, 2**-1022 <= r_min < r_max <= 2**1023, a known spacing,
    and n_r radii that strictly increase, so that no face has zero area. So
    every sampled z is finite and non-zero, abs(z) <= r (1 + 4 * 2**-53) is
    a finite float, and r sin(-pi) does not round to 0, so the theta = -pi
    column has phase -pi to the float.
    """

    r_min: float = 0.05
    r_max: float = 2.0
    n_r: int = 40
    n_theta: int = 240
    radial_spacing: str = "linear"

    def __post_init__(self) -> None:
        for name, least in (("n_r", 2), ("n_theta", 8)):
            count = getattr(self, name)
            if not isinstance(count, (int, np.integer)):
                raise GridError(f"{name} must be an integer", name)
            if count < least:
                raise GridError(f"{name} must be at least {least}", name)
            object.__setattr__(self, name, int(count))  # a numpy integer would wrap in n_cols and products
        points = self.n_r * self.n_cols
        if points > MAX_GRID_POINTS:
            raise GridError(
                f"n_r * (n_theta + 1) must be at most {MAX_GRID_POINTS}, got {points}",
                "n_r" if self.n_r > self.n_theta else "n_theta",
            )
        if not (_is_finite_real(self.r_min) and self.r_min >= _LEAST_R_MIN):
            raise GridError(f"r_min must be finite and at least 2**-1022 = {_LEAST_R_MIN!r}, the least normal "
                            "float; z = 0 is the branch point", "r_min")
        if not (_is_finite_real(self.r_max) and self.r_min < self.r_max <= 2.0**1023):
            raise GridError(f"r_max must exceed r_min and be at most 2**1023 = {2.0**1023!r}", "r_max")
        if self.radial_spacing not in ("linear", "log"):
            raise GridError(
                f"radial_spacing must be 'linear' or 'log', got {self.radial_spacing!r}", "radial_spacing"
            )
        # r_min and r_max too close for n_r floats between them would repeat a radius: zero-area faces
        if not np.all(np.diff(self.radii()) > 0.0):
            raise GridError(f"r_max must exceed r_min by enough for {self.n_r} distinct radii", "r_max")

    @property
    def n_cols(self) -> int:
        return self.n_theta + 1

    def radii(self) -> np.ndarray:
        if self.radial_spacing == "log":
            return np.geomspace(self.r_min, self.r_max, self.n_r)
        return np.linspace(self.r_min, self.r_max, self.n_r)

    def thetas(self) -> np.ndarray:
        return np.linspace(-math.pi, math.pi, self.n_cols)

    def lattice_part(self, trig) -> np.ndarray:
        """x[i, j] = r_i cos(theta_j) of the polar lattice, with trig
        math.cos, or y[i, j] = r_i sin(theta_j), with math.sin, shape
        (n_r, n_theta + 1), as a new contiguous array: the one coding of
        each part, read by sample_domain and by the vertex tables. math, not
        numpy, for the angles: numpy's sin and cos may differ by an ulp."""
        return self.radii()[:, None] * [trig(t) for t in self.thetas().tolist()]


def sample_domain(grid: DomainGrid) -> np.ndarray:
    """Polar lattice z[i, j] = r_i e^(i theta_j), shape (n_r, n_theta + 1).

    Row-major and stable: row i is one radius swept counterclockwise from
    theta = -pi to +pi; vertex (i, j) has flat index i * (n_theta + 1) + j.
    In floating point sin(+-pi) is +-1.2e-16, not 0, so the duplicated cut
    columns carry opposite-signed tiny imaginary parts and every later
    phase computation lands deterministically on its own side of the cut:
    at every r a DomainGrid accepts, r sin(-pi) is below 0, not a -0.0 that
    the phase would fold onto +pi, and the theta = -pi column has phase
    -pi to the float.
    """
    z = np.empty((grid.n_r, grid.n_cols), dtype=complex)
    # the parts are stored apart, as x + 1j*y would turn -0.0 into +0.0
    z.real = grid.lattice_part(math.cos)
    z.imag = grid.lattice_part(math.sin)
    return z


def _read_only(array: np.ndarray) -> np.ndarray:
    # a stored array, which no one may change, or an expansion, computed anew, whose writes would not
    # change the mesh or stack it came from
    array.flags.writeable = False
    return array


def lattice_faces(n_rows: int, n_cols: int) -> np.ndarray:
    """Two triangles per lattice quad, all split along the same
    low-r/low-theta to high-r/high-theta diagonal, as a new read-only array."""
    # a: the low-r/low-theta corner of each quad, row-major
    a = (np.arange(n_rows - 1, dtype=_VERTEX_INDEX)[:, None] * n_cols
         + np.arange(n_cols - 1, dtype=_VERTEX_INDEX)).ravel()
    d = a + n_cols + 1
    faces = np.empty((a.size, 2, 3), dtype=_VERTEX_INDEX)  # each quad's two triangles, filled a column at a time
    faces[:, :, 0] = a[:, None]
    faces[:, 0, 1], faces[:, 0, 2] = a + 1, d
    faces[:, 1, 1], faces[:, 1, 2] = d, a + n_cols
    return _read_only(faces.reshape(-1, 3))


def kept_points(n_cols: int, dropped: bool, start: int, stop: int) -> np.ndarray:
    """The lattice points start..stop - 1 that a sheet keeps, in row-major
    order, as int32: every point of a lattice of n_cols columns, or, where
    its lower cut column is dropped, every point but column 0's."""
    points = np.arange(start, stop, dtype=_VERTEX_INDEX)
    if dropped:
        points += points // (n_cols - 1) + 1
    return points


def _mesh_vertices(first: np.ndarray, dropped: np.ndarray, n_rows: int, n_cols: int, columns) -> np.ndarray:
    """The mesh vertex of each lattice point (i, j), j in columns, of sheets
    whose first mesh vertex is first and that keep every column or, dropped,
    every column but 0: first + i (n_cols - dropped) + j - dropped, of shape
    (len(first), n_rows, len(columns)). A dropped point's value is not its vertex."""
    first, dropped = first[:, None, None], dropped[:, None, None].astype(_VERTEX_INDEX)
    rows = np.arange(n_rows, dtype=_VERTEX_INDEX)[:, None]
    return first - dropped + rows * (n_cols - dropped) + np.asarray(columns, dtype=_VERTEX_INDEX)


def _read_window(function: IndexedFunction, branches: Iterable[int], kind: CharismaKind, grid: DomainGrid):
    """The branches as a tuple; build_sheets' and parse_args' one reader,
    and the home of every window rule. It reads one branch past the cap at
    most, so an endless iterable fails at once. Raises BranchIndexError for
    the first rule broken of: the cap, admissibility, non-empty, int64 (the
    mesh's index type), distinct index heights, imag heights that resolve
    the angular step, no repeats."""
    most = _MAX_SURFACE_POINTS // (grid.n_r * grid.n_cols)
    window = tuple(itertools.islice(branches, most + 1))
    if len(window) > most:
        raise BranchIndexError(f"{len(window)} or more sheets of {grid.n_r}x{grid.n_cols} lattice points make "
                               f"{len(window) * grid.n_r * grid.n_cols} or more vertices; "
                               f"a surface holds at most {_MAX_SURFACE_POINTS}")
    window = tuple(function.require_admissible(k) for k in window)
    if not window:
        raise BranchIndexError("no branches to lift")
    for k in window:
        if not -2**63 <= k < 2**63:
            raise BranchIndexError(f"branch {k} lies outside int64, the mesh's branch index type")
    distinct = set(window)  # a repeated branch is not two branches
    if kind is CharismaKind.INDEX and len({float(k) for k in distinct}) < len(distinct):
        raise BranchIndexError(f"two branches of {min(window)}..{max(window)} share one index height: "
                               "from |k| = 2**53 on, not every integer is a float")
    if kind is CharismaKind.IMAG and function.is_log:
        k, step = max(window, key=abs), 2 * math.pi / grid.n_theta
        if (ulp := math.ulp(2 * math.pi * abs(k) + math.pi)) > _IMAG_ULP_OF_STEP * step:
            raise BranchIndexError(f"the imag heights of branch {k} are floats {ulp!r} apart, more than "
                                   f"{_IMAG_ULP_OF_STEP!r} of the angular step 2*pi/{grid.n_theta} = {step!r}")
    if len(distinct) != len(window):
        raise BranchIndexError(f"repeated branches: {list(window)}")
    return window


@dataclass(frozen=True)
class SheetStack:
    """Every branch of a surface lifted over one sampled domain. Sheet i is
    branch branches[i]: an open surface whose theta = -pi and theta = +pi
    columns (0 and n_cols - 1) are its lower and upper cut edges. Every
    array is read-only. The stack stores its grid and its heights as a
    table, heights = (values, at): sheet s's height at lattice point p is
    values[s, at[p]], and at, an (n_r, n_cols) int32 index shared by every
    sheet, reads a column per distinct phase (imag, sin and cos), the one
    column of an index sheet (a broadcast 0) or, for phase, whose heights
    follow |w|'s rounding, a column per point (the identity). c and faces
    expand these on each access, as new read-only arrays; the lattice is
    sample_domain(grid), and _batch_values computes the range values."""

    function: IndexedFunction
    kind: CharismaKind
    grid: DomainGrid
    branches: tuple[int, ...]
    heights: tuple[np.ndarray, np.ndarray]  # (values, at): (n_branches, m) floats and (n_r, n_cols) int32

    @property
    def c(self) -> np.ndarray:
        """(n_branches, n_r, n_cols) float charisma heights, values[s, at[p]]."""
        values, at = self.heights
        return _read_only(values[:, at])

    @property
    def faces(self) -> np.ndarray:
        """(2 (n_r - 1) n_theta, 3) int32 indices into one sheet's row-major
        vertices, the same for every sheet."""
        return lattice_faces(*self.heights[1].shape)


def build_sheets(
    function: IndexedFunction,
    branches: Iterable[int],
    kind: CharismaKind,
    grid: DomainGrid,
) -> SheetStack:
    """Lift each branch k in branches over the grid: c = charisma per
    vertex, all branches in one pass, stored as a table over the lattice's
    distinct phases. The lattice z and, for phase heights only, the range
    values w = f_k(z) are freed once the heights are made.

    Every stored value is recomputable bit-for-bit through evaluate_charisma,
    and its range values through branch_value: both call the one helper of each
    formula in branches, here once per distinct argument (a modulus, or a
    branch and a phase) or on arrays of every branch. Raises
    CharismaCompatibilityError for a kind not defined for f, before any
    branch is read; then BranchIndexError for the first window rule that
    _read_window finds broken.
    """
    kind = require_compatible(kind, function)
    branches = _read_window(function, branches, kind, grid)
    heights = _batch_heights(function, sample_domain(grid), branches, kind)
    for shared in heights:
        _read_only(shared)
    return SheetStack(function, kind, grid, branches, heights)


@dataclass(frozen=True)
class Seam:
    """Pairing of one sheet's upper cut edge with its continuation sheet's
    lower edge; gap statistics are pre-weld, in charisma units."""

    upper_branch: int
    lower_branch: int
    max_gap: float
    mean_gap: float
    welded: bool = False
    merged_vertices: tuple[int, ...] = ()


def _runs(values, counts) -> tuple[np.ndarray, np.ndarray]:
    """values[i] repeated counts[i] times (counts may be one count for
    every value), as canonical runs: int64 values and int32 counts, with no
    empty run and no two neighbouring runs of one value. So a wall that
    follows the sheet of its own branch joins that sheet's run."""
    values = np.asarray(values, dtype=np.int64)
    counts = np.broadcast_to(np.asarray(counts, dtype=np.int64), values.shape)
    if not counts.all():  # only a chart's face runs can be empty: its per-vertex branches are not copied
        values, counts = values[counts > 0], counts[counts > 0]
    first = np.ones(len(values), dtype=bool)
    first[1:] = values[1:] != values[:-1]
    starts = np.flatnonzero(first)
    return values[starts], np.add.reduceat(counts, starts).astype(np.int32)


def _expand(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    return _read_only(np.repeat(values, counts, axis=0))


@dataclass
class SurfaceMesh:
    """Triangulated union of branch sheets, colored by branch index.

    The mesh keeps its sheet stack's grid and heights and two facts per
    sheet, not index arrays. Sheet s of S lifts the P points of the grid's
    lattice by its heights, values[s, at[p]] at point p for heights =
    (values, at) (see SheetStack), so its pre-weld vertex s * P + p is
    lattice point p. Its mesh vertices, sheet_start[s] up to
    sheet_start[s + 1], are its kept points in row-major order: all of
    them, or all but column 0's where its lower cut column welded into the
    upper one of sheet welded_into[s] (-1: none), whose vertices it takes.
    The faces are each sheet's lattice faces through its part of renumber,
    in sheet order, then the walls, in mesh indices. A split theta = 0
    column would be one more per-sheet fact: its n_r duplicate vertices
    would follow the sheet's kept points, moving the later starts, and the
    faces across the split would read them. Each sheet's branch is stored
    once, as runs in vertex and face order: branch_runs and
    face_branch_runs, each (values, counts) of int64 branches and int32
    counts, no two neighbouring values equal; run_colors is the palette
    color of each vertex run.

    Every stored array is read-only. source (the pre-weld vertex of each
    mesh vertex), renumber (the mesh vertex of each pre-weld vertex),
    positions, w, faces, branch, colors and face_branch expand these on
    every access, as new read-only arrays, so bind one once before indexing
    it in a loop. Neither assembly nor a vertex table reads the lattice,
    positions or an index array; a vertex table makes the lattice's x, then
    its y, with grid.lattice_part, and a face table expands renumber and
    the lattice faces once. The mesh stores no range values: sheet_w, which
    w gathers through, samples the lattice and computes them on each
    access, and only the JSON writer reads it.
    """

    function: IndexedFunction
    kind: CharismaKind
    sheet_branches: tuple[int, ...]
    grid: DomainGrid         # the lattice of P = n_r * n_cols points
    heights: tuple[np.ndarray, np.ndarray]  # (values, at): (S, m) floats and (n_r, n_cols) int32
    sheet_start: np.ndarray  # (S + 1,) int32 first mesh vertex of each sheet, then the vertex count
    welded_into: np.ndarray  # (S,) int32 sheet whose upper cut column took each lower one, or -1
    walls: np.ndarray        # (W, 3) int32 mesh vertex indices, after the sheets' faces
    branch_runs: tuple[np.ndarray, np.ndarray]       # runs of the branch of each vertex
    face_branch_runs: tuple[np.ndarray, np.ndarray]  # runs of the sheet that owns each face
    seams: list[Seam] = field(default_factory=list)
    welded: bool = False
    range_chart: bool = False

    @property
    def n_vertices(self) -> int:
        return int(self.sheet_start[-1])

    @property
    def n_faces(self) -> int:
        n_r, n_cols = self.heights[1].shape
        return len(self.heights[0]) * 2 * (n_r - 1) * (n_cols - 1) + len(self.walls)

    @property
    def source(self) -> np.ndarray:
        """(N,) int32 pre-weld vertex of each mesh vertex."""
        (n_r, n_cols), counts = self.heights[1].shape, np.diff(self.sheet_start).tolist()
        return _read_only(np.concatenate([s * n_r * n_cols + kept_points(n_cols, into >= 0, 0, n)
                                          for s, (into, n) in enumerate(zip(self.welded_into.tolist(), counts))]))

    @property
    def renumber(self) -> np.ndarray:
        """(S * P,) int32 mesh vertex of each pre-weld vertex; a welded lower
        cut vertex takes its upper partner's."""
        n_r, n_cols = self.heights[1].shape
        into = self.welded_into
        renumber = _mesh_vertices(self.sheet_start[:-1], into >= 0, n_r, n_cols, np.arange(n_cols))
        renumber[into >= 0, :, :1] = renumber[into[into >= 0], :, -1:]  # slices: a lattice may have no column
        return _read_only(renumber.reshape(-1))

    @property
    def positions(self) -> np.ndarray:
        """(N, 3) float x, y, c of each vertex."""
        (values, at), source = self.heights, self.source
        sheet, point = np.divmod(source, at.size)
        x, y = (self.grid.lattice_part(trig).reshape(-1)[point] for trig in (math.cos, math.sin))
        return _read_only(np.column_stack([x, y, values[sheet, at.reshape(-1)[point]]]))

    @property
    def sheet_w(self) -> np.ndarray:
        """(S, n_r, n_cols) complex range values per sheet: a range chart's
        samples, or f_k(z) of each sheet's branch, computed anew."""
        z = sample_domain(self.grid)
        return _read_only(z[None] if self.range_chart else _batch_values(self.function, z, self.sheet_branches))

    @property
    def w(self) -> np.ndarray:
        """(N,) complex range value of each vertex."""
        return _read_only(self.sheet_w.reshape(-1)[self.source])

    @property
    def faces(self) -> np.ndarray:
        """(M, 3) vertex indices of each face, int32 in a built mesh."""
        sheet_faces, renumber = lattice_faces(*self.heights[1].shape), self.renumber
        n_sheets, per_sheet = len(self.heights[0]), len(sheet_faces)
        faces = np.empty((self.n_faces, 3), np.result_type(renumber, self.walls))
        renumber = renumber.astype(faces.dtype, copy=False).reshape(n_sheets, -1)
        renumber.take(sheet_faces, axis=1, out=faces[:n_sheets * per_sheet].reshape(n_sheets, per_sheet, 3))
        faces[n_sheets * per_sheet:] = self.walls
        return _read_only(faces)

    @property
    def branch(self) -> np.ndarray:
        """(N,) int64 branch of each vertex."""
        return _expand(*self.branch_runs)

    @property
    def run_colors(self) -> np.ndarray:
        """(R, 3) uint8 palette color of the branch of each of the R runs of branch_runs."""
        return _read_only(_PALETTE_RGB[self.branch_runs[0] % len(PALETTE)])

    @property
    def colors(self) -> np.ndarray:
        """(N, 3) uint8 palette color of each vertex's branch."""
        return _expand(self.run_colors, self.branch_runs[1])

    @property
    def face_branch(self) -> np.ndarray:
        """(M,) int64 branch of the sheet that owns each face."""
        return _expand(*self.face_branch_runs)


def require_weld_tol(weld_tol: float) -> float:
    """weld_tol as a float; raises ValueError unless it is finite and >= 0.

    An infinite tolerance would weld the jumps between index sheets, and a
    negative one would turn welding off without saying so.
    """
    if not (_is_finite_real(weld_tol) and weld_tol >= 0.0):
        raise ValueError(f"weld tolerance must be a finite number >= 0, got {weld_tol!r}")
    return float(weld_tol)


def assemble_surface(
    sheets: SheetStack,
    *,
    weld: bool = True,
    weld_tol: float = DEFAULT_WELD_TOL,
    walls: bool = False,
) -> SurfaceMesh:
    """Join the sheets into one mesh, measure seams, weld and wall.

    The seams form one table, a row per sheet i whose continuation branch
    has a sheet j, in sheet order: sheet i's theta = +pi edge against sheet
    j's theta = -pi edge. Each row's edges, gaps and welded and walled
    flags are computed for the whole table at once, and each frozen Seam
    is built once from its row. A seam welds only if welding is enabled
    and every per-vertex gap is <= weld_tol; welding keeps the upper-edge
    vertex and drops its partner. Wall quads bridge the remaining open
    seams, for index charisma only: for other kinds an open seam is either
    a genuine wrap jump that must stay open or would be a degenerate
    sliver. Raises ValueError for a weld_tol that require_weld_tol
    rejects, whether or not welding is on. The mesh vertices of the cut
    edges follow from each sheet's first vertex and welded partner, so no
    array of a vertex per lattice point is made.
    """
    weld_tol = require_weld_tol(weld_tol)
    branches, (values, at) = sheets.branches, sheets.heights
    n_sheets, (n_r, n_cols) = len(values), at.shape

    # the seam table: sheet i and its continuation sheet j, one row per seam
    sheet_of = {k: s for s, k in enumerate(branches)}
    pairs = [(s, sheet_of[nxt]) for s, k in enumerate(branches)
             if (nxt := continuation_branch(sheets.function, k)) in sheet_of]
    i, j = np.array(pairs, dtype=_VERTEX_INDEX).reshape(-1, 2).T
    # per seam, its cut edges innermost radius first: only the cut columns' heights are read
    gaps = np.abs(values[i[:, None], at[:, -1]] - values[j[:, None], at[:, 0]])
    welded = np.all(gaps <= weld_tol, axis=1) & bool(weld)
    walled = ~welded & (bool(walls) and sheets.kind is CharismaKind.INDEX)
    # a welded seam drops sheet j's theta = -pi column, whose vertices become sheet i's theta = +pi column's
    welded_into = np.full(n_sheets, -1, dtype=_VERTEX_INDEX)
    welded_into[j[welded]] = i[welded]
    counts = n_r * (n_cols - (welded_into >= 0))
    sheet_start = np.concatenate([[0], np.cumsum(counts)]).astype(_VERTEX_INDEX)
    # mesh vertices of each seam's cut edges: sheet i's theta = +pi column, sheet j's theta = -pi column
    upper, lower = (_mesh_vertices(sheet_start[s], welded_into[s] >= 0, n_r, n_cols, [column])[:, :, 0]
                    for s, column in ((i, n_cols - 1), (j, 0)))
    seams = [Seam(branches[a], branches[b], float(g.max()), float(g.mean()), w, tuple(m) if w else ())
             for a, b, g, w, m in zip(i.tolist(), j.tolist(), gaps, welded.tolist(), upper.tolist())]
    # two triangles per radial step of each walled seam, bridging upper[r..r+1] to lower[r..r+1]
    u, l = upper[walled], lower[walled]
    wall = np.stack([u[:, :-1], l[:, :-1], l[:, 1:], u[:, :-1], l[:, 1:], u[:, 1:]], axis=-1).reshape(-1, 3)
    # one run per sheet and one per wall, in face order
    ks = np.array(branches, dtype=np.int64)
    face_counts = [2 * (n_r - 1) * (n_cols - 1)] * n_sheets + [2 * (n_r - 1)] * len(u)
    return _factored_mesh(
        sheets.function, sheets.kind, branches, sheets.grid, sheets.heights, sheet_start, welded_into,
        walls=wall,
        # vertices stay in sheet order: one run per sheet, over its kept vertices
        branch_runs=_runs(ks, counts),
        face_branch_runs=_runs(np.concatenate([ks, ks[i[walled]]]), face_counts),
        seams=seams,
        welded=bool(weld),
    )


def _factored_mesh(*fields, **rest) -> SurfaceMesh:
    # a built mesh, every array of it read-only, as a stack's are
    mesh = SurfaceMesh(*fields, **rest)
    for stored in (*mesh.heights, mesh.sheet_start, mesh.welded_into, mesh.walls, *mesh.branch_runs,
                   *mesh.face_branch_runs):
        _read_only(stored)
    return mesh


def seam_report(mesh: SurfaceMesh) -> list[tuple[tuple[int, int], float, float]]:
    """Per-seam ((upper k, lower k), max gap, mean gap), measured before
    any welding, in charisma units."""
    return [((s.upper_branch, s.lower_branch), s.max_gap, s.mean_gap) for s in mesh.seams]


def build_range_chart(function: IndexedFunction, grid: DomainGrid) -> SurfaceMesh:
    """Flat chart of the function's range plane, colored by branch region.

    Samples are interpreted as range values w; each vertex is colored by
    branch_of(w) at height 0. The companion view to a branch surface: it
    shows where in the range each branch's values live. Raises DomainError
    where a branch index would not fit int64.
    """
    n_rows, n_cols = grid.n_r, grid.n_cols
    branch_runs = _runs(_batch_branch_index(sample_domain(grid).reshape(-1), function), 1)
    # a lattice quad's two faces take the branch of its low corner, and the low corners are the
    # vertices off the last row and column, in vertex order: so the quads before a vertex run's end
    # number that end less its row, up to the last quad
    ends = np.cumsum(branch_runs[1], dtype=np.int64)
    quads = np.minimum(ends - ends // n_cols, (n_rows - 1) * (n_cols - 1))
    # one sheet at height 0 (one height, read through a broadcast 0) whose values are its samples, every
    # vertex kept and none welded
    return _factored_mesh(
        function, CharismaKind.INDEX, tuple(np.unique(branch_runs[0]).tolist()),
        grid, (np.zeros((1, 1)), np.broadcast_to(np.int32(0), (n_rows, n_cols))),
        np.array([0, n_rows * n_cols], _VERTEX_INDEX), np.array([-1], _VERTEX_INDEX),
        walls=np.empty((0, 3), _VERTEX_INDEX),
        branch_runs=branch_runs,
        face_branch_runs=_runs(branch_runs[0], 2 * np.diff(quads, prepend=0)),
        range_chart=True,
    )
