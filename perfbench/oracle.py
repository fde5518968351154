"""Independent checks of riemannmesh outputs, run outside every timed region.

What a job must produce is derived here from the README alone: the figure
presets, the lattice sizes, the palette and the branch conventions. Values
are recomputed with mpmath from the float inputs exactly as stored and
compared within ATOL, never against golden bytes, so a rewrite that moves
results by an ulp still passes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import mpmath as mp

mp.mp.prec = 120

# absolute tolerance on branch values and charisma heights; a wrong branch or
# sign convention is off by O(1), a last-place rounding change by ~1e-15
ATOL = 1e-9
# a phase this close to a branch-region edge (in units of one region) may be
# classified on either side by float arithmetic
EDGE_TOL = 1e-12
# below this the input lies exactly on the edge and the closed
# counterclockwise edge rule applies
EXACT_EDGE = 1e-25

PALETTE = (
    (31, 119, 180), (255, 127, 14), (44, 160, 44), (214, 39, 40),
    (148, 103, 189), (140, 86, 75), (227, 119, 194), (127, 127, 127),
)

# what each --figure preset builds, per the README:
# (function label, charisma kind or "range", sheet branches, walls)
PRESETS = {
    "3a": ("root:3", "index", (-1, 0, 1), True),
    "3b-range": ("root:3", "range", (), False),
    "4": ("root:3", "sin", (-1, 0, 1), False),
    "5": ("root:3", "cos", (-1, 0, 1), False),
    "6": ("log", "imag", (-2, -1, 0, 1, 2), False),
}


def split_label(label: str) -> tuple[str, int | None]:
    return ("log", None) if label == "log" else ("root", int(label.split(":")[1]))


def canonical_roots(n: int) -> range:
    return range(-((n - 1) // 2), n // 2 + 1)


def wrap_root(k: int, n: int) -> int:
    return next(j for j in canonical_roots(n) if (j - k) % n == 0)


def continuation(func: str, n: int | None, k: int) -> int:
    return k + 1 if func == "log" else wrap_root(k + 1, n)


@dataclass(frozen=True)
class Job:
    """One CLI invocation: a figure preset, a format and a grid."""

    figure: str
    fmt: str
    n_r: int
    n_theta: int
    extra: tuple[str, ...] = ()

    @property
    def id(self) -> str:
        return "-".join((f"fig{self.figure}", self.fmt, f"{self.n_r}x{self.n_theta}")
                        + tuple(e.strip("-") for e in self.extra))

    def argv(self, out: Path) -> list[str]:
        return ["--figure", self.figure, "--format", self.fmt, "--n-r", str(self.n_r),
                "--n-theta", str(self.n_theta), *self.extra, "-o", str(out)]

    def files(self, out: Path) -> list[Path]:
        extra = [out.with_suffix(".mtl")] if self.fmt == "obj" else []
        return [out, *extra, out.with_suffix(".seams.json")]

    @property
    def label(self) -> str:
        return PRESETS[self.figure][0]

    @property
    def kind(self) -> str:
        return PRESETS[self.figure][1]

    @property
    def sheets(self) -> tuple[int, ...]:
        return PRESETS[self.figure][2]

    @property
    def walls(self) -> bool:
        return PRESETS[self.figure][3]

    @property
    def seams(self) -> int:
        func, n = split_label(self.label)
        return sum(1 for k in self.sheets
                   if continuation(func, n, k) in self.sheets and continuation(func, n, k) != k)

    @property
    def welded(self) -> int:
        continuous = self.kind not in ("index", "range")
        return self.seams if continuous and "--no-weld" not in self.extra else 0

    @property
    def n_vertices(self) -> int:
        per_sheet = self.n_r * (self.n_theta + 1)
        return max(len(self.sheets), 1) * per_sheet - self.welded * self.n_r

    @property
    def n_faces(self) -> int:
        per_sheet = 2 * (self.n_r - 1) * self.n_theta
        walls = (self.seams - self.welded) * 2 * (self.n_r - 1) if self.walls else 0
        return max(len(self.sheets), 1) * per_sheet + walls

    @property
    def array_bytes_bound(self) -> int:
        """Computed bytes of the sheet and mesh arrays: per sheet complex z
        and w, float c and int64 faces; per mesh float positions, int64
        branch, complex w, uint8 colors, int64 faces and face branches."""
        n = max(len(self.sheets), 1)
        per_sheet = self.n_r * (self.n_theta + 1) * 40 + 2 * (self.n_r - 1) * self.n_theta * 24
        return n * per_sheet + self.n_vertices * 51 + self.n_faces * 32


# ---- exact values -----------------------------------------------------------

def exact_phase(z: complex):
    # the -0.0 fold: a negative real with either zero sign takes ph = +pi
    y = 0.0 if z.imag == 0.0 else z.imag
    return mp.atan2(mp.mpf(y), mp.mpf(z.real))


def exact_branch(func: str, n: int | None, z: complex, k: int):
    angle = exact_phase(z) + 2 * mp.pi * k
    r = mp.hypot(mp.mpf(z.real), mp.mpf(z.imag))
    if func == "log":
        return mp.mpc(mp.log(r), angle)
    return mp.root(r, n) * mp.expj(angle / n)


def exact_charisma(func: str, n: int | None, kind: str, z: complex, k: int):
    if kind == "index":
        return mp.mpf(k)
    if kind == "imag":
        return exact_phase(z) + 2 * mp.pi * k
    angle = (exact_phase(z) + 2 * mp.pi * k) / n
    if kind == "sin":
        return mp.sin(angle)
    if kind == "cos":
        return mp.cos(angle)
    return angle - 2 * mp.pi * mp.ceil((angle - mp.pi) / (2 * mp.pi))  # phase in (-pi, pi]


def charisma_close(kind: str, got: float, want) -> bool:
    d = abs(mp.mpf(got) - want)
    if kind == "phase":  # +pi and -pi are the same point of the wrap
        d = min(d % (2 * mp.pi), 2 * mp.pi - d % (2 * mp.pi))
    return d <= ATOL


def region(func: str, n: int | None, w: complex) -> set[int]:
    """Branch indices whose range region may own w: one, or the two
    neighbours when w lies within EDGE_TOL of an edge it is not exactly on."""
    if func == "log":
        t = (mp.mpf(w.imag) - mp.pi) / (2 * mp.pi)
    else:
        t = exact_phase(w) * n / (2 * mp.pi) - mp.mpf(0.5)
    m = int(mp.nint(t))
    if abs(t - m) < EXACT_EDGE:
        ks = {m}
    elif abs(t - m) < EDGE_TOL:
        ks = {m, m + 1}
    else:
        ks = {int(mp.ceil(t))}
    return ks if func == "log" else {wrap_root(k, n) for k in ks}


# ---- output files -----------------------------------------------------------

def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def _palette_branch(rgb: tuple[int, ...], candidates) -> list[int]:
    return [k for k in candidates if PALETTE[k % len(PALETTE)] == tuple(rgb)]


def _check_sidecar(job: Job, path: Path, problems: list[str]) -> None:
    doc = strict_json(path.read_text())
    seams = doc["seams"]
    if doc["function"] != job.label:
        problems.append(f"{path.name}: function {doc['function']!r}")
    welded = sum(1 for s in seams if s["welded"])
    if len(seams) != job.seams or welded != job.welded:
        problems.append(f"{path.name}: {len(seams)} seams, {welded} welded; "
                        f"expected {job.seams}, {job.welded}")
    for s in seams:
        if s["welded"] and not s["max_gap"] <= doc["weld_tol"]:
            problems.append(f"{path.name}: welded seam with gap {s['max_gap']}")


def _read_mesh(job: Job, path: Path, picks: random.Random, n_samples: int):
    """(vertex count, face count, sampled vertices, sampled faces); a sampled
    vertex is (x, y, c, candidate branches, w or None)."""
    text = path.read_text()
    branches = job.sheets or tuple(canonical_roots(split_label(job.label)[1]))
    if job.fmt == "json":
        doc = strict_json(text)
        verts, faces = doc["vertices"], doc["faces"]
        idx = picks.sample(range(len(verts)), min(n_samples, len(verts)))
        sample = [(v["x"], v["y"], v["c"], [v["k"]], complex(*v["w"])) for v in (verts[i] for i in idx)]
        face_sample = [faces[i] for i in picks.sample(range(len(faces)), min(n_samples, len(faces)))]
        return len(verts), len(faces), sample, face_sample
    lines = text.split("\n")
    if lines[-1] != "":
        raise ValueError("missing final newline")
    lines.pop()
    if job.fmt == "csv":
        if lines[0] != "x,y,c,k":
            raise ValueError(f"bad csv header {lines[0]!r}")
        rows = lines[1:]
        idx = picks.sample(range(len(rows)), min(n_samples, len(rows)))
        sample = []
        for i in idx:
            x, y, c, k = rows[i].split(",")
            sample.append((float(x), float(y), float(c), [int(k)], None))
        return len(rows), None, sample, []
    if job.fmt == "ply":
        body = lines.index("end_header") + 1
        header = dict(l.split()[1:] for l in lines[:body] if l.startswith("element "))
        nv, nf = int(header["vertex"]), int(header["face"])
        if len(lines) != body + nv + nf:
            raise ValueError(f"{len(lines) - body} body lines for {nv} vertices and {nf} faces")
        sample = []
        for i in picks.sample(range(nv), min(n_samples, nv)):
            x, y, c, *rgb = lines[body + i].split()
            sample.append((float(x), float(y), float(c),
                           _palette_branch(tuple(map(int, rgb)), branches), None))
        face_sample = []
        for i in picks.sample(range(nf), min(n_samples, nf)):
            n, *ids = map(int, lines[body + nv + i].split())
            if n != 3:
                raise ValueError(f"face with {n} vertices")
            face_sample.append(ids)
        return nv, nf, sample, face_sample
    # obj: vertices carry no branch, so take every group whose faces use them
    verts = [l for l in lines if l.startswith("v ")]
    idx = picks.sample(range(len(verts)), min(n_samples, len(verts)))
    groups = {i + 1: set() for i in idx}
    n_faces, current = 0, None
    face_lines = []
    for l in lines:
        if l.startswith("g branch_"):
            current = int(l[len("g branch_"):])
        elif l.startswith("f "):
            n_faces += 1
            ids = [int(t) for t in l.split()[1:]]
            face_lines.append(ids)
            for v in ids:
                if v in groups:
                    groups[v].add(current)
    face_sample = [[v - 1 for v in face_lines[i]]
                   for i in picks.sample(range(n_faces), min(n_samples, n_faces))]
    sample = []
    for i in idx:
        _, x, y, c = verts[i].split()
        # a range chart colours faces, not vertices, so obj keeps no vertex branch
        ks = None if job.kind == "range" else sorted(groups[i + 1])
        sample.append((float(x), float(y), float(c), ks, None))
    mtl = [l.split() for l in path.with_suffix(".mtl").read_text().splitlines()]
    for name, kd in zip(mtl[::2], mtl[1::2]):
        k = int(name[1][len("branch_"):])
        if any(abs(float(v) - p / 255) > ATOL for v, p in zip(kd[1:], PALETTE[k % len(PALETTE)])):
            raise ValueError(f"material of branch {k} is {kd}")
    return len(verts), n_faces, sample, face_sample


def check_job_outputs(job: Job, out: Path, picks: random.Random, n_samples: int) -> list[str]:
    """Problems found in the files one invocation of `job` wrote at `out`:
    counts against the grid, strict JSON, and recomputed sample vertices."""
    problems: list[str] = []
    try:
        _check_sidecar(job, out.with_suffix(".seams.json"), problems)
        nv, nf, sample, face_sample = _read_mesh(job, out, picks, n_samples)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
        return problems + [f"{out.name}: unreadable: {type(e).__name__}: {e}"]
    if nv != job.n_vertices or nf not in (None, job.n_faces):
        problems.append(f"{out.name}: {nv} vertices, {nf} faces; "
                        f"expected {job.n_vertices}, {job.n_faces}")
    if any(not 0 <= v < nv for f in face_sample for v in f) or any(len(f) != 3 for f in face_sample):
        problems.append(f"{out.name}: face refers to a missing vertex")
    func, n = split_label(job.label)
    for x, y, c, ks, w in sample:
        z = complex(x, y)
        if job.kind == "range":
            if c != 0.0 or (ks is not None and not set(ks) & region(func, n, z)):
                problems.append(f"{out.name}: range vertex {z!r} in branch {ks}, height {c}")
            continue
        ok = any(
            charisma_close(job.kind, c, exact_charisma(func, n, job.kind, z, k))
            and (w is None or abs(mp.mpc(w) - exact_branch(func, n, z, k)) <= ATOL)
            for k in ks
        )
        if not ok:
            problems.append(f"{out.name}: vertex {z!r} branch {ks} charisma {c} w {w}")
    return problems
