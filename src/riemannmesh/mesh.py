"""Cut-aligned polar sampling, sheet lifting, seam measurement and welding.

The domain is sampled on a polar lattice whose angular sweep covers
[-pi, pi] with both endpoints present, so the branch cut along the
negative real axis is an explicit mesh boundary: the first and last
columns coincide geometrically but are distinct vertices sitting on
opposite sides of the cut. Each branch lifts to one open sheet; assembly
pairs every sheet's upper cut edge with the lower edge of the sheet that
continues it, measures the charisma gap, and optionally welds seams that
are continuous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from .branches import DomainError, IndexedFunction, _branch_index, _branch_values, continuation_branch
from .charisma import CharismaKind, _charisma, require_compatible

__all__ = [
    "DEFAULT_LOG_BRANCHES",
    "DEFAULT_WELD_TOL",
    "DomainGrid",
    "GridError",
    "GridMismatchError",
    "PALETTE",
    "Seam",
    "Sheet",
    "SurfaceMesh",
    "SurfacePoint",
    "assemble_surface",
    "branch_color",
    "build_range_chart",
    "build_sheet",
    "lattice_faces",
    "require_weld_tol",
    "sample_domain",
    "seam_report",
]

DEFAULT_WELD_TOL = 1e-9

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


class GridMismatchError(ValueError):
    """Sheets passed to assembly do not share grid, function, and kind."""


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


class SurfacePoint(NamedTuple):
    """One domain sample lifted to 3D with its branch bookkeeping."""

    x: float
    y: float
    c: float
    k: int
    w: complex


@dataclass(frozen=True)
class Sheet:
    """One branch lifted over the sampled domain: an open surface whose
    theta = +-pi edge columns are its cut boundary."""

    function: IndexedFunction
    branch: int
    kind: CharismaKind
    grid: DomainGrid
    z: np.ndarray      # (n_r, n_cols) domain samples
    w: np.ndarray      # (n_r, n_cols) range values f_k(z)
    c: np.ndarray      # (n_r, n_cols) charisma heights
    faces: np.ndarray  # (2 (n_r - 1) n_theta, 3) indices into row-major vertices

    @property
    def n_cols(self) -> int:
        return self.grid.n_cols

    @property
    def n_vertices(self) -> int:
        return self.grid.n_r * self.grid.n_cols

    def lower_edge(self) -> np.ndarray:
        """Vertex ids of the theta = -pi column, innermost radius first."""
        return np.arange(self.grid.n_r, dtype=np.int64) * self.n_cols

    def upper_edge(self) -> np.ndarray:
        """Vertex ids of the theta = +pi column, innermost radius first."""
        return self.lower_edge() + (self.n_cols - 1)


def build_sheet(
    function: IndexedFunction,
    k: int,
    kind: CharismaKind,
    grid: DomainGrid,
    *,
    use_range_imag: bool = False,
) -> Sheet:
    """Lift branch k over the grid: w = f_k(z) and c = charisma per vertex.

    Every stored value is recomputable bit-for-bit through branch_value and
    evaluate_charisma, which run the same evaluation core; the sheet stores
    no derived state of its own.
    """
    k = function.require_admissible(k)
    kind = require_compatible(kind, function)
    z = _checked_samples(grid)
    ws = _branch_values(function, z.ravel().tolist(), k)
    w = np.array(ws, dtype=complex).reshape(z.shape)
    c = np.array([_charisma(v, k, kind, use_range_imag) for v in ws], dtype=float).reshape(z.shape)
    faces = lattice_faces(grid.n_r, grid.n_cols)
    return Sheet(function, k, kind, grid, z, w, c, faces)


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

    def point(self, i: int) -> SurfacePoint:
        x, y, c = self.positions[i]
        return SurfacePoint(float(x), float(y), float(c), int(self.branch[i]), complex(self.w[i]))

    def iter_points(self) -> Iterator[SurfacePoint]:
        return (self.point(i) for i in range(self.n_vertices))


def require_weld_tol(weld_tol: float) -> float:
    """weld_tol as a float; raises ValueError unless it is finite and >= 0.

    An infinite tolerance would weld the jumps between index sheets, and a
    negative one would turn welding off without saying so.
    """
    if not (_is_finite_real(weld_tol) and weld_tol >= 0.0):
        raise ValueError(f"weld tolerance must be a finite number >= 0, got {weld_tol!r}")
    return float(weld_tol)


def assemble_surface(
    sheets: list[Sheet],
    *,
    weld: bool = True,
    weld_tol: float = DEFAULT_WELD_TOL,
    walls: bool = False,
) -> SurfaceMesh:
    """Concatenate sheets into one mesh, measure seams, weld and wall.

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
    if not sheets:
        raise GridMismatchError("no sheets to assemble")
    first = sheets[0]
    for s in sheets[1:]:
        if s.function != first.function or s.grid != first.grid or s.kind != first.kind:
            raise GridMismatchError("sheets differ in function, grid, or charisma kind")
    branches = [s.branch for s in sheets]
    if len(set(branches)) != len(branches):
        raise GridMismatchError(f"duplicate branch sheets: {branches}")

    n_per = first.n_vertices
    offset = {s.branch: i * n_per for i, s in enumerate(sheets)}
    total = n_per * len(sheets)

    positions = np.concatenate(
        [np.column_stack([s.z.real.ravel(), s.z.imag.ravel(), s.c.ravel()]) for s in sheets]
    )
    wvals = np.concatenate([s.w.ravel() for s in sheets])
    faces = np.concatenate([s.faces + offset[s.branch] for s in sheets])
    face_branch = np.concatenate([np.full(len(s.faces), s.branch, dtype=np.int64) for s in sheets])

    by_branch = {s.branch: s for s in sheets}
    weld_map = np.arange(total, dtype=np.int64)
    dropped = np.zeros(total, dtype=bool)
    seams: list[Seam] = []
    wall_faces: list[np.ndarray] = []
    wall_branch: list[np.ndarray] = []

    for s in sheets:
        nxt = continuation_branch(first.function, s.branch)
        if nxt == s.branch or nxt not in by_branch:
            continue
        upper = s.upper_edge() + offset[s.branch]
        lower = by_branch[nxt].lower_edge() + offset[nxt]
        gaps = np.abs(positions[upper, 2] - positions[lower, 2])
        seam = Seam(s.branch, nxt, float(gaps.max()), float(gaps.mean()))
        if weld and bool(np.all(gaps <= weld_tol)):
            weld_map[lower] = upper
            dropped[lower] = True
            seam.welded = True
        elif walls and first.kind is CharismaKind.INDEX:
            # two triangles per radial step, bridging upper[i..i+1] to lower[i..i+1]
            u0, u1, l0, l1 = upper[:-1], upper[1:], lower[:-1], lower[1:]
            wall_faces.append(np.stack([u0, l0, l1, u0, l1, u1], axis=1).reshape(-1, 3))
            wall_branch.append(np.full(2 * len(u0), s.branch, dtype=np.int64))
        seams.append(seam)

    if wall_faces:
        faces = np.concatenate([faces, *wall_faces])
        face_branch = np.concatenate([face_branch, *wall_branch])

    keep = ~dropped
    new_index = np.cumsum(keep) - 1
    faces = new_index[weld_map[faces]]
    for seam in seams:
        if seam.welded:  # the kept upper-edge vertices, renumbered
            upper = by_branch[seam.upper_branch].upper_edge() + offset[seam.upper_branch]
            seam.merged_vertices = tuple(new_index[upper].tolist())

    branch_arr = np.concatenate([np.full(n_per, s.branch, dtype=np.int64) for s in sheets])[keep]
    return SurfaceMesh(
        function=first.function,
        kind=first.kind,
        sheet_branches=tuple(branches),
        positions=positions[keep],
        branch=branch_arr,
        w=wvals[keep],
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
    shows where in the range each branch's values live.
    """
    w = _checked_samples(grid)
    n_rows, n_cols = w.shape
    flat = w.ravel()
    ks = np.array([_branch_index(v, function) for v in flat.tolist()], dtype=np.int64)
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
