"""Command-line front end: configure a surface job, build it, write files.

Exit codes: 0 success, 2 usage error, 3 charisma/function incompatibility,
4 I/O error, 5 any other invalid input reaching the pipeline, or running out
of memory while building or writing the surface. Output is
atomic: files are rendered straight into staged temporaries, and renamed
only once every file is staged in full.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import os
import re
import shutil
import sys
import tempfile
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable

from .branches import CharismaCompatibilityError, CharismaKind, IndexedFunction, require_compatible
from .formats import _csv_pieces, _json_pieces, _mtl_text, _obj_pieces, _ply_pieces, seams_json_text
from .mesh import (
    DEFAULT_LOG_BRANCHES,
    DEFAULT_WELD_TOL,
    DomainGrid,
    GridError,
    SurfaceMesh,
    _require_surface_size,
    assemble_surface,
    build_range_chart,
    build_sheets,
    require_weld_tol,
)

__all__ = ["JobSpec", "build_mesh", "main", "parse_args", "run"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INCOMPATIBLE = 3
EXIT_IO = 4
EXIT_DOMAIN = 5

_FORMAT_SUFFIX = {"ply": ".ply", "obj": ".obj", "json": ".json", "csv": ".csv"}

# one preset per reference surface, applied as parser defaults
FIGURE_PRESETS: dict[str, dict] = {
    "3a": {"function": "root:3", "charisma": "index", "walls": True},
    "3b-range": {"function": "root:3", "charisma": "index", "range_chart": True},
    "4": {"function": "root:3", "charisma": "sin"},
    "5": {"function": "root:3", "charisma": "cos"},
    "6": {"function": "log", "charisma": "imag", "branches": "-2..2"},
}


@dataclass(frozen=True)
class JobSpec:
    """One build-and-export run. parse_args builds only valid jobs; run()
    maps an invalid value in a job built by hand to an exit code."""

    function: IndexedFunction
    kind: CharismaKind
    branches: tuple[int, ...]
    grid: DomainGrid
    weld: bool = True
    weld_tol: float = DEFAULT_WELD_TOL
    walls: bool = False
    fmt: str = "ply"
    output: Path = Path("surface.ply")
    range_chart: bool = False


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="riemannmesh",
        description="Build colored, triangulated Riemann-surface meshes for "
        "indexed branches of the complex logarithm and n-th roots.",
    )
    p.add_argument("--function", metavar="{log|root:N}", default="root:3",
                   help="multivalued function to plot (default %(default)s)")
    p.add_argument("--charisma", choices=[k.value for k in CharismaKind], default=CharismaKind.SIN.value,
                   help="height function lifting the sheets (default %(default)s)")
    p.add_argument("--branches", metavar="KMIN..KMAX",
                   help="branch index range, intersected with the admissible set "
                   "(default: the whole admissible set; -2..2 for log)")
    p.add_argument("--r-min", type=float, default=DomainGrid.r_min,
                   help="inner sample radius (default %(default)s)")
    p.add_argument("--r-max", type=float, default=DomainGrid.r_max,
                   help="outer sample radius (default %(default)s)")
    p.add_argument("--n-r", type=int, default=DomainGrid.n_r,
                   help="radial sample count (default %(default)s)")
    p.add_argument("--n-theta", type=int, default=DomainGrid.n_theta,
                   help="angular step count (default %(default)s)")
    p.add_argument("--radial-spacing", choices=("linear", "log"), default=DomainGrid.radial_spacing,
                   help="radial spacing rule (default %(default)s)")
    p.add_argument("--weld", action=argparse.BooleanOptionalAction, default=True,
                   help="merge cut seams whose charisma is continuous (default %(default)s)")
    p.add_argument("--weld-tol", type=float, default=DEFAULT_WELD_TOL,
                   help="pointwise seam gap tolerance (default %(default)s)")
    p.add_argument("--walls", action=argparse.BooleanOptionalAction, default=False,
                   help="bridge open seams with wall quads (index charisma only; default %(default)s)")
    p.add_argument("--format", choices=sorted(_FORMAT_SUFFIX), default="ply",
                   help="output format (default %(default)s)")
    p.add_argument("--output", "-o", metavar="PATH",
                   help="output path (default derived from function and charisma)")
    p.add_argument("--figure", choices=list(FIGURE_PRESETS),
                   help="preset reproducing one of the documented reference surfaces")
    p.set_defaults(range_chart=False)  # no flag: only the 3b-range preset sets it
    return p


def _parse_branch_range(text: str) -> range:
    m = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", text)
    if m:
        lo, hi = int(m.group(1)), int(m.group(2))
    elif re.fullmatch(r"-?\d+", text):
        lo = hi = int(text)
    else:
        raise ValueError(f"expected KMIN..KMAX or a single integer, got {text!r}")
    if lo > hi:
        raise ValueError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _normalize_argv(argv: list[str]) -> list[str]:
    # join "--branches -2..2" into one token; argparse would otherwise read
    # the leading-dash value as an unknown option
    out: list[str] = []
    for tok in argv:
        if out and out[-1] == "--branches":
            out[-1] = f"--branches={tok}"
        else:
            out.append(tok)
    return out


def parse_args(argv: list[str] | None = None) -> JobSpec:
    """Parse and validate CLI flags into a JobSpec.

    Usage problems exit with code 2 via argparse; a charisma/function
    mismatch raises CharismaCompatibilityError for main() to map to 3.
    """
    parser = _build_parser()
    argv = _normalize_argv(sys.argv[1:] if argv is None else argv)
    # a preset replaces the built-in defaults, so explicit flags still win
    figure = parser.parse_known_args(argv)[0].figure
    if figure:
        parser.set_defaults(**FIGURE_PRESETS[figure])
    ns = parser.parse_args(argv)

    try:
        function = IndexedFunction.from_label(ns.function)
    except ValueError as e:
        parser.error(f"argument --function: {e}")
    kind = CharismaKind(ns.charisma)
    if not ns.range_chart:
        require_compatible(kind, function)

    try:
        grid = DomainGrid(**{f.name: getattr(ns, f.name) for f in fields(DomainGrid)})
    except GridError as e:
        parser.error(f"argument --{e.field.replace('_', '-')}: {e}")

    if ns.range_chart:
        window = range(0)
    elif ns.branches is None:
        window = function.branch_indices() or DEFAULT_LOG_BRANCHES
    else:
        try:
            asked = _parse_branch_range(ns.branches)
        except ValueError as e:
            parser.error(f"argument --branches: {e}")
        admissible = function.branch_indices() or asked  # log: every integer
        window = range(max(asked.start, admissible.start), min(asked.stop, admissible.stop))
        if not window:
            parser.error(
                f"argument --branches: no admissible branch of {function.label()} in {ns.branches!r}"
            )
    try:  # counted from the window's ends, before any tuple is built
        _require_surface_size(window.stop - window.start, grid)
    except ValueError as e:
        parser.error(f"argument {'--function' if ns.branches is None and function.is_root else '--branches'}: {e}")
    branches = tuple(window)

    try:
        require_weld_tol(ns.weld_tol)
    except ValueError as e:
        parser.error(f"argument --weld-tol: {e}")

    out = ns.output
    if out is None:
        stem = function.label().replace(":", "")
        stem += "_range" if ns.range_chart else f"_{kind.value}"
        out = stem + _FORMAT_SUFFIX[ns.format]

    return JobSpec(
        function=function,
        kind=kind,
        branches=branches,
        grid=grid,
        weld=ns.weld,
        weld_tol=ns.weld_tol,
        walls=ns.walls,
        fmt=ns.format,
        output=Path(out),
        range_chart=ns.range_chart,
    )


def build_mesh(job: JobSpec) -> SurfaceMesh:
    """Run the mesh pipeline for a job; no file I/O."""
    if job.range_chart:
        return build_range_chart(job.function, job.grid)
    sheets = build_sheets(job.function, job.branches, job.kind, job.grid)
    return assemble_surface(sheets, weld=job.weld, weld_tol=job.weld_tol, walls=job.walls)


def render_outputs(job: JobSpec, mesh: SurfaceMesh) -> dict[Path, Iterable[str]]:
    """Serialize the mesh and its seam sidecar to {path: pieces of text},
    rendering the mesh lazily; ValueError if two files would share a path."""
    if job.fmt == "ply":
        files = [(job.output, _ply_pieces(mesh))]
    elif job.fmt == "obj":
        mtl_path = job.output.with_suffix(".mtl")
        files = [(job.output, _obj_pieces(mesh, mtl_path.name)), (mtl_path, [_mtl_text(mesh)])]
    elif job.fmt == "json":
        files = [(job.output, _json_pieces(mesh))]
    elif job.fmt == "csv":
        files = [(job.output, _csv_pieces(mesh))]
    else:
        raise ValueError(f"unknown format {job.fmt!r}")
    files.append((job.output.with_suffix(".seams.json"), [seams_json_text(mesh, require_weld_tol(job.weld_tol))]))
    if len(dict(files)) < len(files):
        raise ValueError(f"the output files would share a path: {', '.join(str(path) for path, _ in files)}")
    return dict(files)


def _write_atomic(files: dict[Path, Iterable[str]]) -> None:
    # stage everything, then rename; an error, even a later rename's, leaves the directory as it was
    staged: list[tuple[str, Path]] = []
    renamed: list[tuple[Path, str | None]] = []  # each target, with a link to the file it replaced
    links: list[str] = []
    umask = os.umask(0)  # reading the umask means setting it
    os.umask(umask)
    try:
        for path, pieces in files.items():
            if path.is_dir():  # os.replace onto it would fail only after the files before it are renamed
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
            fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp")
            staged.append((tmp, path))
            os.fchmod(fd, 0o666 & ~umask)  # mkstemp's 0600, as open() would have made the file
            with os.fdopen(fd, "w", newline="\n") as fh:
                fh.writelines(pieces)
        while staged:
            tmp, path = staged[-1]
            old = tmp + ".old" if os.path.lexists(path) else None
            if old:  # keep the file the rename replaces, to put back if a later rename fails
                links.append(old)
                try:
                    os.link(path, old, follow_symlinks=False)
                except OSError:  # a file system without hard links
                    shutil.copy2(path, old, follow_symlinks=False)
            os.replace(tmp, path)
            staged.pop()  # only once renamed, so the cleanup below unlinks a temporary whose rename failed
            renamed.append((path, old))
    except BaseException:
        for path, old in reversed(renamed):  # put back the file each rename replaced, or remove its new one
            with contextlib.suppress(OSError):
                os.replace(old, path) if old else os.unlink(path)
        raise
    finally:
        for name in [tmp for tmp, _ in staged] + links:
            with contextlib.suppress(OSError):
                os.unlink(name)


def run(job: JobSpec) -> int:
    """Build the job's mesh and write it plus the seam sidecar.

    Returns the process exit code; error text goes to stderr.
    """
    try:
        mesh = build_mesh(job)
        _write_atomic(render_outputs(job, mesh))
    except OSError as e:
        print(f"riemannmesh: i/o error: {e}", file=sys.stderr)
        return EXIT_IO
    except MemoryError:
        print("riemannmesh: out of memory; lower --n-r, --n-theta or the number of branches", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as e:
        return _exit_code(e)
    return EXIT_OK


def _exit_code(e: ValueError) -> int:
    # every library error is a ValueError; report it and map it to its code
    print(f"riemannmesh: {e}", file=sys.stderr)
    return EXIT_INCOMPATIBLE if isinstance(e, CharismaCompatibilityError) else EXIT_DOMAIN


def main(argv: list[str] | None = None) -> int:
    try:
        job = parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    except ValueError as e:
        return _exit_code(e)
    return run(job)
