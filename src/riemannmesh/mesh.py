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

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .branches import (
    BranchIndexError,
    CharismaKind,
    DomainError,
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
    "lattice_faces",
    "require_weld_tol",
    "sample_domain",
    "seam_report",
]

DEFAULT_WELD_TOL = 1e-9

# the most lattice points n_r * (n_theta + 1) a DomainGrid may hold: 4.4
# times a 200x1200 grid. At 200x1200 a three-sheet CLI run took about 0.72 KB
# (PLY) to 0.78 KB (JSON) of peak RSS per lattice point above a tiny run's
# 30 MB, so at the cap such a run needs about 0.85 GB.
MAX_GRID_POINTS = 1 << 20

# the most vertices len(branches) * n_r * (n_theta + 1) a surface may hold:
# three sheets at MAX_GRID_POINTS, about 0.26 KB each, the 0.85 GB run above
_MAX_SURFACE_POINTS = 3 * MAX_GRID_POINTS

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
        points = int(self.n_r) * (int(self.n_theta) + 1)  # Python ints: a numpy product may wrap
        if points > MAX_GRID_POINTS:
            raise GridError(
                f"n_r * (n_theta + 1) must be at most {MAX_GRID_POINTS}, got {points}",
                "n_r" if self.n_r > self.n_theta else "n_theta",
            )
        if not (_is_finite_real(self.r_min) and self.r_min > 0.0):
            raise GridError("r_min must be finite and > 0; z = 0 is the branch point", "r_min")
        if not (_is_finite_real(self.r_max) and self.r_max > self.r_min):
            raise GridError("r_max must be finite and exceed r_min", "r_max")
        if self.radial_spacing not in ("linear", "log"):
            raise GridError(
                f"radial_spacing must be 'linear' or 'log', got {self.radial_spacing!r}", "radial_spacing"
            )

    @property
    def n_cols(self) -> int:
        return self.n_theta + 1

    def radii(self) -> np.ndarray:
        with np.errstate(over="ignore"):  # an intermediate near r_max may overflow; numpy then sets r_max
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


def _checked_samples(grid: DomainGrid) -> np.ndarray:
    # the scalar functions' domain check, made once for the whole lattice
    z = sample_domain(grid)
    if not (np.isfinite(z).all() and np.all(z != 0)):
        raise DomainError("the sampled domain holds z = 0 or a non-finite value")
    return z


def lattice_faces(n_rows: int, n_cols: int) -> np.ndarray:
    """Two triangles per lattice quad, all split along the same
    low-r/low-theta to high-r/high-theta diagonal."""
    # a: the low-r/low-theta corner of each quad, row-major
    a = (np.arange(n_rows - 1, dtype=np.int64)[:, None] * n_cols
         + np.arange(n_cols - 1, dtype=np.int64)).ravel()
    d = a + n_cols + 1
    faces = np.empty((2 * a.size, 3), dtype=np.int64)
    faces[0::2] = np.column_stack([a, a + 1, d])
    faces[1::2] = np.column_stack([a, d, a + n_cols])
    return faces


def _require_surface_size(n_branches: int, grid: DomainGrid) -> None:
    # the one whole-surface cap, on a count the caller need not materialise
    points = n_branches * int(grid.n_r) * (int(grid.n_theta) + 1)
    if points > _MAX_SURFACE_POINTS:
        raise BranchIndexError(f"{n_branches} sheets of {grid.n_r}x{grid.n_cols} lattice points make "
                               f"{points} vertices; a surface holds at most {_MAX_SURFACE_POINTS}")


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
    faces: np.ndarray  # (2 (n_r - 1) n_theta, 3) indices into one sheet's row-major vertices


def build_sheets(
    function: IndexedFunction,
    branches: Iterable[int],
    kind: CharismaKind,
    grid: DomainGrid,
) -> SheetStack:
    """Lift each branch k in branches over the grid: w = f_k(z) and
    c = charisma per vertex, all branches in one pass.

    Every stored value is recomputable bit-for-bit through branch_value and
    evaluate_charisma, which make the same libm calls on the same
    arguments; here each runs once per distinct argument (a modulus, or a
    branch and a phase), and sin and cos heights reuse the branch-angle
    table of w. Raises BranchIndexError for an empty or repeated branch
    list, a branch outside int64 (the mesh's index type), or a surface
    with more vertices than the cap.
    """
    branches = tuple(function.require_admissible(k) for k in branches)
    for k in branches:
        if not -2**63 <= k < 2**63:
            raise BranchIndexError(f"branch {k} lies outside int64, the mesh's index type")
    kind = require_compatible(kind, function)
    if not branches:
        raise BranchIndexError("no branches to lift")
    if len(set(branches)) != len(branches):
        raise BranchIndexError(f"repeated branches: {list(branches)}")
    _require_surface_size(len(branches), grid)
    z = _checked_samples(grid)
    w, c = _batch_charisma(function, z, branches, kind)
    faces = lattice_faces(grid.n_r, grid.n_cols)
    for shared in (z, w, c, faces):
        shared.flags.writeable = False
    return SheetStack(function, kind, grid, branches, z, w, c, faces)


@dataclass
class Seam:
    """Pairing of one sheet's upper cut edge with its continuation sheet's
    lower edge; gap statistics are pre-weld, in charisma units."""

    upper_branch: int
    lower_branch: int
    max_gap: float
    mean_gap: float
    welded: bool = False
    merged_vertices: tuple[int, ...] = ()


@dataclass
class SurfaceMesh:
    """Triangulated union of branch sheets, colored by branch index."""

    function: IndexedFunction
    kind: CharismaKind
    sheet_branches: tuple[int, ...]
    positions: np.ndarray    # (N, 3) float: x, y, c
    branch: np.ndarray       # (N,) int
    w: np.ndarray            # (N,) complex range values
    colors: np.ndarray       # (N, 3) uint8
    faces: np.ndarray        # (M, 3) int
    face_branch: np.ndarray  # (M,) int: sheet that owns each face
    seams: list[Seam] = field(default_factory=list)
    welded: bool = False
    range_chart: bool = False

    @property
    def n_vertices(self) -> int:
        return len(self.positions)

    @property
    def n_faces(self) -> int:
        return len(self.faces)


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

    Every sheet's theta = +pi edge is paired with the theta = -pi edge of
    the sheet carrying its continuation branch, when present. A seam welds
    only if welding is enabled and every per-vertex gap is <= weld_tol;
    welding keeps the upper-edge vertex and drops its partner. Wall quads
    bridge the remaining open seams, for index charisma only: for other
    kinds an open seam is either a genuine wrap jump that must stay open
    or would be a degenerate sliver. Raises ValueError for a weld_tol that
    require_weld_tol rejects, whether or not welding is on.
    """
    weld_tol = require_weld_tol(weld_tol)
    branches, c = sheets.branches, sheets.c
    n_sheets, n_r, n_cols = c.shape
    n_per = n_r * n_cols
    total = n_per * n_sheets

    positions = np.empty((n_sheets, n_r, n_cols, 3))
    positions[..., 0] = sheets.z.real
    positions[..., 1] = sheets.z.imag
    positions[..., 2] = c
    positions = positions.reshape(total, 3)

    sheet_of = {k: i for i, k in enumerate(branches)}
    # the cut edges of sheet 0, innermost radius first: its theta = -pi and +pi columns
    lower_edge = np.arange(n_r, dtype=np.int64) * n_cols
    upper_edge = lower_edge + (n_cols - 1)
    weld_map = np.arange(total, dtype=np.int64)
    dropped = np.zeros(total, dtype=bool)
    seams: list[Seam] = []
    wall_faces: list[np.ndarray] = []
    wall_branch: list[int] = []

    for i, k in enumerate(branches):
        nxt = continuation_branch(sheets.function, k)
        j = sheet_of.get(nxt)
        if nxt == k or j is None:
            continue
        gaps = np.abs(c[i, :, -1] - c[j, :, 0])
        seam = Seam(k, nxt, float(gaps.max()), float(gaps.mean()))
        upper, lower = upper_edge + i * n_per, lower_edge + j * n_per
        if weld and bool(np.all(gaps <= weld_tol)):
            weld_map[lower] = upper
            dropped[lower] = True
            seam.welded = True
        elif walls and sheets.kind is CharismaKind.INDEX:
            # two triangles per radial step, bridging upper[i..i+1] to lower[i..i+1]
            u0, u1, l0, l1 = upper[:-1], upper[1:], lower[:-1], lower[1:]
            wall_faces.append(np.stack([u0, l0, l1, u0, l1, u1], axis=1).reshape(-1, 3))
            wall_branch.append(k)
        seams.append(seam)

    keep = ~dropped
    # the index each pre-weld vertex has in the welded mesh
    new_index = (np.cumsum(keep) - 1)[weld_map]
    per_sheet = len(sheets.faces)
    n_faces = per_sheet * n_sheets
    faces = np.empty((n_faces + sum(map(len, wall_faces)), 3), dtype=np.int64)
    sheet_faces = faces[:n_faces].reshape(n_sheets, per_sheet, 3)
    new_index.reshape(n_sheets, n_per).take(sheets.faces, axis=1, out=sheet_faces)
    if wall_faces:
        faces[n_faces:] = new_index[np.concatenate(wall_faces)]
    face_branch = np.repeat(np.array(branches + tuple(wall_branch), dtype=np.int64),
                            [per_sheet] * n_sheets + [len(f) for f in wall_faces])
    for seam in seams:
        if seam.welded:  # the kept upper-edge vertices, renumbered
            upper = upper_edge + sheet_of[seam.upper_branch] * n_per
            seam.merged_vertices = tuple(new_index[upper].tolist())

    branch_arr = np.repeat(np.array(branches, dtype=np.int64), n_per)[keep]
    return SurfaceMesh(
        function=sheets.function,
        kind=sheets.kind,
        sheet_branches=branches,
        positions=positions[keep],
        branch=branch_arr,
        w=sheets.w.reshape(-1)[keep],
        colors=_PALETTE_RGB[branch_arr % len(PALETTE)],
        faces=faces,
        face_branch=face_branch,
        seams=seams,
        welded=weld,
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
    w = _checked_samples(grid)
    n_rows, n_cols = w.shape
    flat = w.ravel()
    ks = _batch_branch_index(flat, function)
    positions = np.column_stack([flat.real, flat.imag, np.zeros(flat.size)])
    faces = lattice_faces(n_rows, n_cols)
    face_branch = ks[faces[:, 0]]
    return SurfaceMesh(
        function=function,
        kind=CharismaKind.INDEX,
        sheet_branches=tuple(np.unique(ks).tolist()),
        positions=positions,
        branch=ks,
        w=flat,
        colors=_PALETTE_RGB[ks % len(PALETTE)],
        faces=faces,
        face_branch=face_branch,
        range_chart=True,
    )
