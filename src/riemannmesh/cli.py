"""Command-line front end: configure a surface job, build it, write files.

Exit codes: 0 success, 2 usage error, 3 charisma/function incompatibility,
4 I/O error, 5 any other invalid input reaching the pipeline. Output is
atomic: files are staged to temporaries and renamed only once everything
rendered.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import tempfile
from dataclasses import dataclass, fields
from pathlib import Path

from .branches import IndexedFunction
from .charisma import CharismaCompatibilityError, CharismaKind, require_compatible
from .formats import csv_text, json_text, obj_text, ply_text, seams_json_text
from .mesh import (
    DEFAULT_LOG_BRANCHES,
    DEFAULT_WELD_TOL,
    DomainGrid,
    GridError,
    SurfaceMesh,
    assemble_surface,
    build_range_chart,
    build_sheet,
    require_weld_tol,
)

__all__ = ["JobSpec", "build_mesh", "main", "parse_args", "run"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INCOMPATIBLE = 3
EXIT_IO = 4
EXIT_DOMAIN = 5

_FORMAT_SUFFIX = {"ply": ".ply", "obj": ".obj", "json": ".json", "csv": ".csv"}

# characters written per call: one write of a whole text would first encode
# it into a second, full-size bytes object
_WRITE_SLICE = 1 << 20

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
        branches: tuple[int, ...] = ()
    elif ns.branches is None:
        branches = tuple(function.branch_indices() or DEFAULT_LOG_BRANCHES)
    else:
        try:
            asked = _parse_branch_range(ns.branches)
        except ValueError as e:
            parser.error(f"argument --branches: {e}")
        branches = tuple(k for k in asked if function.is_admissible(k))
        if not branches:
            parser.error(
                f"argument --branches: no admissible branch of {function.label()} in {ns.branches!r}"
            )

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
    sheets = [build_sheet(job.function, k, job.kind, job.grid) for k in job.branches]
    return assemble_surface(sheets, weld=job.weld, weld_tol=job.weld_tol, walls=job.walls)


def render_outputs(job: JobSpec, mesh: SurfaceMesh) -> dict[Path, str]:
    """Serialize the mesh and its seam sidecar to {path: text}."""
    files: dict[Path, str] = {}
    if job.fmt == "ply":
        files[job.output] = ply_text(mesh)
    elif job.fmt == "obj":
        mtl_path = job.output.with_suffix(".mtl")
        obj, mtl = obj_text(mesh, mtl_path.name)
        files[job.output] = obj
        files[mtl_path] = mtl
    elif job.fmt == "json":
        files[job.output] = json_text(mesh)
    elif job.fmt == "csv":
        files[job.output] = csv_text(mesh)
    else:
        raise ValueError(f"unknown format {job.fmt!r}")
    files[job.output.with_suffix(".seams.json")] = seams_json_text(mesh, job.weld_tol)
    return files


def _write_atomic(files: dict[Path, str]) -> None:
    # stage everything, then rename; an error leaves no partial output
    staged: list[tuple[str, Path]] = []
    try:
        for path, text in files.items():
            fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp")
            staged.append((tmp, path))
            with os.fdopen(fd, "w", newline="\n") as fh:
                for start in range(0, len(text), _WRITE_SLICE):
                    fh.write(text[start:start + _WRITE_SLICE])
        while staged:
            tmp, path = staged.pop()
            os.replace(tmp, path)
    finally:
        for tmp, _ in staged:
            try:
                os.unlink(tmp)
            except OSError:
                pass


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
