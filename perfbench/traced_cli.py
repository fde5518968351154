"""Run one riemannmesh command line in this process, with a span at each
layer boundary.

    python3 perfbench/traced_cli.py SPANS_OUT JOB_ID [riemannmesh flags...]

It does what `python -m riemannmesh [flags...]` does, through the same
`cli.main`, and exits with the same code. The public functions the CLI
calls into (`parse_args`, `build_sheet`, `assemble_surface`, the writers,
...) are replaced by wrappers that record a span and pass arguments and
results through unchanged, so the files written are byte-identical to an
untraced run. The spans are written to SPANS_OUT as JSON when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys

from spans import Tracer


def _sheet_span(args, kwargs) -> str:
    from riemannmesh import CharismaKind

    kind = kwargs["kind"] if "kind" in kwargs else args[2]
    return f"mesh.build_sheet.{CharismaKind(kind).value}"


def _assembly_span(args, kwargs) -> str:
    # walls bridge the seams that do not weld, so a walls job counts as walls
    if kwargs.get("walls", False):
        return "mesh.assemble_surface.walls"
    if kwargs.get("weld", True):
        return "mesh.assemble_surface.weld"
    return "mesh.assemble_surface.open"


class _ArrayBytes:
    """nbytes of every distinct array a job's sheets and meshes hold.
    Arrays are kept referenced so that an id is never reused."""

    def __init__(self) -> None:
        self._seen: dict[int, object] = {}

    def __call__(self, *arrays) -> int:
        total = 0
        for a in arrays:
            if id(a) not in self._seen:
                self._seen[id(a)] = a
                total += a.nbytes
        return total


def _install(tracer: Tracer, job: str) -> None:
    import riemannmesh.cli as cli
    import riemannmesh.formats as formats
    import riemannmesh.mesh as mesh

    array_bytes = _ArrayBytes()

    def sheet_counts(sheet):
        return {"mesh.array_bytes": array_bytes(sheet.z, sheet.w, sheet.c, sheet.faces)}

    def mesh_counts(m):
        return {
            "mesh.vertices": m.n_vertices,
            "mesh.faces": m.n_faces,
            "mesh.welded_seams": sum(1 for s in m.seams if s.welded),
            "mesh.array_bytes": array_bytes(
                m.positions, m.branch, m.w, m.colors, m.faces, m.face_branch
            ),
        }

    def text_counts(name):
        # every writer emits ASCII, so characters are bytes
        def count(result):
            texts = result if isinstance(result, tuple) else (result,)
            return {f"formats.bytes.{name}": sum(len(t) for t in texts)}

        return count

    # (module, function, span name or namer, counts of the result)
    traced = [
        (cli, "parse_args", "cli.parse_args", None),
        (cli, "_write_atomic", "cli.write", None),
        (mesh, "sample_domain", "mesh.sample_domain", None),
        (mesh, "lattice_faces", "mesh.lattice_faces", None),
        (mesh, "build_sheet", _sheet_span, sheet_counts),
        (mesh, "assemble_surface", _assembly_span, mesh_counts),
        (mesh, "build_range_chart", "mesh.build_range_chart", mesh_counts),
    ] + [
        (formats, f"{name}_text", f"formats.{name}_text", text_counts(name))
        for name in ("ply", "obj", "json", "csv", "seams_json")
    ]
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "riemannmesh"]
    for home, fname, span_name, counts in traced:
        original = getattr(home, fname, None)
        if original is None:
            continue

        def wrapper(*args, _fn=original, _name=span_name, _counts=counts, **kwargs):
            name = _name if isinstance(_name, str) else _name(args, kwargs)
            with tracer.span(name, job) as rec:
                result = _fn(*args, **kwargs)
            if _counts is not None:
                rec["counts"] = _counts(result)
            return result

        functools.update_wrapper(wrapper, original)
        # rebind the name wherever the pipeline looks it up
        for m in modules:
            if getattr(m, fname, None) is original:
                setattr(m, fname, wrapper)


def main(argv: list[str]) -> int:
    spans_out, job, *flags = argv
    tracer = Tracer()
    try:
        with tracer.span("setup.import", job):
            import riemannmesh.cli
        _install(tracer, job)
        with tracer.span("cli.main", job):
            code = riemannmesh.cli.main(flags)
    finally:
        with open(spans_out, "w") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
