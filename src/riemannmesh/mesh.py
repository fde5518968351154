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
    _batch_charisma,
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

# the most lattice points n_r * (n_theta + 1) a DomainGrid may hold: 4.4
# times a 200x1200 grid. At 200x1200 a three-sheet CLI run took about 0.33 KB
# (PLY) to 0.48 KB (JSON) of peak RSS per lattice point above a tiny run's
# 30 MB, and 0.33 to 0.49 KB at 400x1200, so at the cap such a run needs about
# 0.5 GB.
MAX_GRID_POINTS = 1 << 20

# the most vertices len(branches) * n_r * (n_theta + 1) a surface may hold:
# three sheets at MAX_GRID_POINTS, about 0.16 KB each, the 0.5 GB run above
_MAX_SURFACE_POINTS = 3 * MAX_GRID_POINTS

# the dtype of every vertex index (lattice and mesh faces, assembly's
# renumbering): PLY's 32-bit int, and far above the surface cap. Branch
# indices stay int64, as a branch may be any int64.
_VERTEX_INDEX = np.int32

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
    within the cap, 0 < r_min < r_max <= 2**1023 and a known spacing. So
    every sampled z is finite and non-zero, and abs(z) <= r (1 + 4 * 2**-53)
    is a finite float.
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
        if not (_is_finite_real(self.r_min) and self.r_min > 0.0):
            raise GridError("r_min must be finite and > 0; z = 0 is the branch point", "r_min")
        if not (_is_finite_real(self.r_max) and self.r_min < self.r_max <= 2.0**1023):
            raise GridError(f"r_max must exceed r_min and be at most 2**1023 = {2.0**1023!r}", "r_max")
        if self.radial_spacing not in ("linear", "log"):
            raise GridError(
                f"radial_spacing must be 'linear' or 'log', got {self.radial_spacing!r}", "radial_spacing"
            )

    @property
    def n_cols(self) -> int:
        return self.n_theta + 1

    def radii(self) -> np.ndarray:
        if self.radial_spacing == "log":
            return np.geomspace(self.r_min, self.r_max, self.n_r)
        return np.linspace(self.r_min, self.r_max, self.n_r)

    def thetas(self) -> np.ndarray:
        return np.linspace(-math.pi, math.pi, self.n_cols)


def sample_domain(grid: DomainGrid) -> np.ndarray:
    """Polar lattice z[i, j] = r_i e^(i theta_j), shape (n_r, n_theta + 1).

    Row-major and stable: row i is one radius swept counterclockwise from
    theta = -pi to +pi; vertex (i, j) has flat index i * (n_theta + 1) + j.
    In floating point sin(+-pi) is +-1.2e-16, not 0, so the duplicated cut
    columns carry opposite-signed tiny imaginary parts and every later
    phase computation lands deterministically on its own side of the cut.
    """
    radii = grid.radii()[:, None]
    thetas = grid.thetas().tolist()
    z = np.empty((grid.n_r, grid.n_cols), dtype=complex)
    # math, not numpy, for the angles: numpy's sin/cos may differ by an ulp.
    # The parts are stored apart, as x + 1j*y would turn -0.0 into +0.0.
    z.real = radii * [math.cos(t) for t in thetas]
    z.imag = radii * [math.sin(t) for t in thetas]
    return z


def lattice_faces(n_rows: int, n_cols: int) -> np.ndarray:
    """Two triangles per lattice quad, all split along the same
    low-r/low-theta to high-r/high-theta diagonal."""
    # a: the low-r/low-theta corner of each quad, row-major
    a = (np.arange(n_rows - 1, dtype=_VERTEX_INDEX)[:, None] * n_cols
         + np.arange(n_cols - 1, dtype=_VERTEX_INDEX)).ravel()
    d = a + n_cols + 1
    faces = np.empty((2 * a.size, 3), dtype=_VERTEX_INDEX)
    faces[0::2] = np.column_stack([a, a + 1, d])
    faces[1::2] = np.column_stack([a, d, a + n_cols])
    return faces


def _read_window(function: IndexedFunction, branches: Iterable[int], kind: CharismaKind, grid: DomainGrid):
    """The branches as a tuple; build_sheets' and parse_args' one reader,
    and the home of every window rule. It reads one branch past the cap at
    most, so an endless iterable fails at once. Raises BranchIndexError for
    the first rule broken of: the cap, admissibility, non-empty, int64 (the
    mesh's index type), distinct index heights, no repeats."""
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
    if len(distinct) != len(window):
        raise BranchIndexError(f"repeated branches: {list(window)}")
    return window


@dataclass(frozen=True)
class SheetStack:
    """Every branch of a surface lifted over one sampled domain. Sheet i is
    branch branches[i]: an open surface whose theta = -pi and theta = +pi
    columns (0 and n_cols - 1) are its lower and upper cut edges. Every
    array is read-only."""

    function: IndexedFunction
    kind: CharismaKind
    grid: DomainGrid
    branches: tuple[int, ...]
    z: np.ndarray      # (n_r, n_cols) domain samples, shared by every sheet
    w: np.ndarray      # (n_branches, n_r, n_cols) range values f_k(z)
    c: np.ndarray      # (n_branches, n_r, n_cols) charisma heights
    faces: np.ndarray  # (2 (n_r - 1) n_theta, 3) int32 indices into one sheet's row-major vertices


def build_sheets(
    function: IndexedFunction,
    branches: Iterable[int],
    kind: CharismaKind,
    grid: DomainGrid,
) -> SheetStack:
    """Lift each branch k in branches over the grid: w = f_k(z) and
    c = charisma per vertex, all branches in one pass.

    Every stored value is recomputable bit-for-bit through branch_value and
    evaluate_charisma: both call the one helper of each formula in
    branches, here once per distinct argument (a modulus, or a branch and a
    phase) or on arrays of every branch, and sin and cos heights reuse the
    branch-angle table of w. Raises CharismaCompatibilityError for a kind
    not defined for f, before any branch is read; then BranchIndexError for
    the first window rule that _read_window finds broken.
    """
    kind = require_compatible(kind, function)
    branches = _read_window(function, branches, kind, grid)
    z = sample_domain(grid)
    w, c = _batch_charisma(function, z, branches, kind)
    faces = lattice_faces(grid.n_r, grid.n_cols)
    for shared in (z, w, c, faces):
        shared.flags.writeable = False
    return SheetStack(function, kind, grid, branches, z, w, c, faces)


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
    expanded = np.repeat(values, counts, axis=0)
    expanded.flags.writeable = False  # a fresh copy: writing to it would not change the mesh
    return expanded


@dataclass
class SurfaceMesh:
    """Triangulated union of branch sheets, colored by branch index.

    Each sheet's branch is stored once, as runs in vertex and face order:
    branch_runs and face_branch_runs, each (values, counts) of int64
    branches and int32 counts, no two neighbouring values equal. branch,
    colors and face_branch expand them on every access, as new read-only
    arrays, so bind one once before indexing it in a loop.
    """

    function: IndexedFunction
    kind: CharismaKind
    sheet_branches: tuple[int, ...]
    positions: np.ndarray    # (N, 3) float: x, y, c
    w: np.ndarray            # (N,) complex range values
    faces: np.ndarray        # (M, 3) int32 vertex indices
    branch_runs: tuple[np.ndarray, np.ndarray]       # runs of the branch of each vertex
    face_branch_runs: tuple[np.ndarray, np.ndarray]  # runs of the sheet that owns each face
    seams: list[Seam] = field(default_factory=list)
    welded: bool = False
    range_chart: bool = False

    @property
    def n_vertices(self) -> int:
        return len(self.positions)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    @property
    def branch(self) -> np.ndarray:
        """(N,) int64 branch of each vertex."""
        return _expand(*self.branch_runs)

    @property
    def colors(self) -> np.ndarray:
        """(N, 3) uint8 palette color of each vertex's branch."""
        values, counts = self.branch_runs
        return _expand(_PALETTE_RGB[values % len(PALETTE)], counts)

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
    rejects, whether or not welding is on.
    """
    weld_tol = require_weld_tol(weld_tol)
    branches, c = sheets.branches, sheets.c
    n_sheets, n_r, n_cols = c.shape
    n_per = n_r * n_cols

    # the seam table: sheet i and its continuation sheet j, one row per seam
    sheet_of = {k: s for s, k in enumerate(branches)}
    pairs = [(s, sheet_of[nxt]) for s, k in enumerate(branches)
             if (nxt := continuation_branch(sheets.function, k)) in sheet_of]
    i, j = np.array(pairs, dtype=_VERTEX_INDEX).reshape(-1, 2).T
    # each seam's cut edges, innermost radius first: sheet i's theta = +pi column, sheet j's theta = -pi column
    rows = np.arange(n_r, dtype=_VERTEX_INDEX) * n_cols
    upper = (i * n_per + n_cols - 1)[:, None] + rows
    lower = (j * n_per)[:, None] + rows
    gaps = np.abs(c[i, :, -1] - c[j, :, 0])
    welded = np.all(gaps <= weld_tol, axis=1) & bool(weld)
    walled = ~welded & (bool(walls) and sheets.kind is CharismaKind.INDEX)
    keep = np.ones(c.size, dtype=bool)
    keep[lower[welded]] = False

    # each pre-weld vertex's index in the welded mesh (decremented in place: a freed temporary
    # raised peak RSS 6% at 200x1200); a dropped lower edge takes its welded upper edge's
    new_index = np.cumsum(keep, dtype=_VERTEX_INDEX)
    new_index -= 1
    new_index[lower[welded]] = new_index[upper[welded]]
    seams = [Seam(branches[a], branches[b], float(g.max()), float(g.mean()), w, tuple(m) if w else ())
             for a, b, g, w, m in zip(i.tolist(), j.tolist(), gaps, welded.tolist(), new_index[upper].tolist())]
    # two triangles per radial step of each walled seam, bridging upper[r..r+1] to lower[r..r+1]
    u, l = upper[walled], lower[walled]
    wall = np.stack([u[:, :-1], l[:, :-1], l[:, 1:], u[:, :-1], l[:, 1:], u[:, 1:]], axis=-1).reshape(-1, 3)
    per_sheet = len(sheets.faces)
    n_faces = per_sheet * n_sheets
    faces = np.empty((n_faces + len(wall), 3), dtype=_VERTEX_INDEX)
    sheet_faces = faces[:n_faces].reshape(n_sheets, per_sheet, 3)
    new_index.reshape(n_sheets, n_per).take(sheets.faces, axis=1, out=sheet_faces)
    faces[n_faces:] = new_index[wall]
    # one run per sheet and one per wall, in face order
    ks = np.array(branches, dtype=np.int64)
    face_branch_runs = _runs(np.concatenate([ks, ks[i[walled]]]), [per_sheet] * n_sheets + [2 * (n_r - 1)] * len(u))
    del new_index  # freed before the vertex columns are made

    # filled at its kept size, one column at a time, so that no pre-weld
    # copy of the vertex table is made
    kept = keep.reshape(c.shape)
    positions = np.empty((np.count_nonzero(keep), 3))
    for column, values in enumerate((sheets.z.real, sheets.z.imag, c)):
        positions[:, column] = np.broadcast_to(values, c.shape)[kept]
    return SurfaceMesh(
        function=sheets.function,
        kind=sheets.kind,
        sheet_branches=branches,
        positions=positions,
        w=sheets.w.reshape(-1)[keep],
        faces=faces,
        # vertices stay in sheet order: one run per sheet, over its kept vertices
        branch_runs=_runs(ks, np.count_nonzero(kept, axis=(1, 2))),
        face_branch_runs=face_branch_runs,
        seams=seams,
        welded=bool(weld),
    )


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
    w = sample_domain(grid)
    n_rows, n_cols = w.shape
    flat = w.ravel()
    branch_runs = _runs(_batch_branch_index(flat, function), 1)
    # a lattice quad's two faces take the branch of its low corner, and the low corners are the
    # vertices off the last row and column, in vertex order: so the quads before a vertex run's end
    # number that end less its row, up to the last quad
    ends = np.cumsum(branch_runs[1], dtype=np.int64)
    quads = np.minimum(ends - ends // n_cols, (n_rows - 1) * (n_cols - 1))
    return SurfaceMesh(
        function=function,
        kind=CharismaKind.INDEX,
        sheet_branches=tuple(np.unique(branch_runs[0]).tolist()),
        positions=np.column_stack([flat.real, flat.imag, np.zeros(flat.size)]),
        w=flat,
        faces=lattice_faces(n_rows, n_cols),
        branch_runs=branch_runs,
        face_branch_runs=_runs(branch_runs[0], 2 * np.diff(quads, prepend=0)),
        range_chart=True,
    )
