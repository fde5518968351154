#!/usr/bin/env python3
"""Benchmark of riemannmesh: CLI surfaces, a large grid and the scalar API.

    python3 perfbench/run.py --workload {figures,large-grid,scalar-api} \\
        --seed N --seconds S --trace {0,1} [--smoke]

The program under test is src/riemannmesh of the checkout this file sits
in. End-to-end numbers come from `python -m riemannmesh` child processes
run one at a time (a closed loop with one client), and from in-process
calls to `formats.read_ply` and the scalar API. Each of those timings is
divided by the time of a fixed reference computation measured just before
and just after it, which gives it in units of `ref` (see reference()).
With --trace 1 every CLI job also runs through perfbench/traced_cli.py,
which records a span at each layer boundary, and the per-layer metrics are
reported instead.

The seed sets the job order, the inputs of the scalar calls and the
vertices the oracle checks. Outputs are checked outside the timed regions
(perfbench/oracle.py). A human summary with the run's context goes to
stderr and to .bench_work/results/; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. --smoke
shrinks grids and batches so the whole run takes seconds.

See perfbench/README.md for why each workload exists and which per-layer
metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PY = sys.executable
CHILD_TIMEOUT_S = 150
SETUP_REPEATS = 11
WARM_UP_S = 1.0
# setup_s must be in seconds: it is the import time in refs times this
# nominal length of one ref, close to what one takes on the reference host
NOMINAL_REF_S = 0.010


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "riemannmesh" / "__init__.py").is_file():
    fail(f"no riemannmesh sources under {SRC.name}/ next to {HERE.name}/; run from a full checkout")
sys.path.insert(0, str(SRC))

import mpmath  # noqa: E402
import numpy  # noqa: E402

import riemannmesh  # noqa: E402
import riemannmesh.formats  # noqa: E402

import oracle  # noqa: E402
import scalar  # noqa: E402
from oracle import Job  # noqa: E402
from spans import Tracer, add_self_times  # noqa: E402

if Path(riemannmesh.__file__).resolve() != (SRC / "riemannmesh" / "__init__.py").resolve():
    fail(f"imported riemannmesh from {riemannmesh.__file__}, not from {SRC}")

ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

FORMATS = ("ply", "obj", "json", "csv")

# Jobs that together reach every traced layer, at a tiny grid. A traced run
# uses them only for per-layer metrics its own jobs never produce.
COVERAGE = tuple(Job(f, fmt, 6, 24, extra) for f, fmt, extra in (
    ("3a", "obj", ()), ("3b-range", "json", ()), ("4", "csv", ()),
    ("5", "ply", ()), ("6", "ply", ()), ("4", "ply", ("--no-weld",)),
))


REF_X = numpy.linspace(0.0, 10.0, 100_000)
REF_Z = [complex(x, 1.0 - x) for x in numpy.linspace(-3.0, 3.0, 15_000).tolist()]


def reference_once() -> float:
    """Wall time of a fixed mix of the kinds of work riemannmesh does, in
    about equal parts: numpy transcendentals, float formatting and parsing,
    and scalar complex-math calls. A pure-Python integer loop was left out:
    its speed follows the host's drift worst of all that were tried."""
    t0 = time.perf_counter()
    y = numpy.sin(REF_X) * numpy.cos(REF_X)
    sum(map(float, " ".join(f"{v:.6f}" for v in y[:5000].tolist()).split()))
    for z in REF_Z:
        abs(cmath.exp(cmath.log(z)))
    return time.perf_counter() - t0


def reference() -> float:
    """One `ref`: the median of three reference computations, 6 to 13 ms on
    the 2-vCPU reference host. The host's speed drifts by up to 2x over
    seconds to minutes, in CPU time as much as in wall time; a timing
    divided by the mean of the refs taken just before and just after it
    keeps the program's cost and drops most of that drift."""
    return statistics.median(reference_once() for _ in range(3))


@dataclass(frozen=True)
class Workload:
    jobs: tuple[Job, ...]  # one cycle, in seeded order
    copies: int            # untraced invocations of each job per cycle
    reloads: int           # read_ply calls after each PLY invocation
    batches: int           # scalar batches after each invocation
    batch_size: int        # cases per scalar group


def make_workload(name: str, rng: random.Random, smoke: bool) -> Workload:
    batch_size = 20 if smoke else 200
    if name == "figures":
        # every preset in every format at the default grid; each job twice,
        # so the two outputs can be compared byte for byte. Each PLY is read
        # once: the one cycle already takes 40 to 60 s, and every run of the
        # benchmark has to fit in a fixed time budget.
        n_r, n_theta = (3, 12) if smoke else (40, 240)
        jobs = [Job(f, fmt, n_r, n_theta) for f in oracle.PRESETS for fmt in FORMATS]
        rng.shuffle(jobs)
        return Workload(tuple(jobs), 2, 1, 2, batch_size)
    if name == "large-grid":
        n_r, n_theta = (4, 24) if smoke else (100, 600)
        return Workload((Job("4", "ply", n_r, n_theta),), 1, 1, 30, batch_size)
    if name == "scalar-api":
        # mostly scalar batches; one tiny CLI job per cycle gives the CLI
        # metrics a value here too, and shows fixed per-run cost. A cycle
        # lasts about 0.5 s, so a run has well over the 40 CLI samples at
        # which .tail switches from the maximum to the tenth-highest sample.
        n_r, n_theta = (3, 12) if smoke else (8, 48)
        return Workload((Job("4", "ply", n_r, n_theta),), 1, 1, 3 if smoke else 30, batch_size)
    raise SystemExit(f"unknown workload {name!r}")


class Spawner:
    """Runs children one at a time through perfbench/spawner.py, so that
    each child's peak RSS is its own (see that file)."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([PY, str(HERE / "spawner.py")], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, env=ENV, cwd=ROOT)

    def __call__(self, argv: list[str], stderr_path: Path) -> tuple[float, int, int]:
        """Run a child to completion: (wall seconds, exit code, peak RSS bytes)."""
        req = {"argv": argv, "stderr": str(stderr_path), "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"spawner exited with code {self.proc.wait()}")
        r = json.loads(reply)
        return r["wall"], r["code"], r["maxrss"]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=CHILD_TIMEOUT_S + 10)
        self.proc.stdout.close()


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and which
    percentile that is. Below 40 samples that percentile would be under p75,
    no tail at all, so p75 stands in for it: the maximum of a few samples
    swings with one unlucky sample."""
    s = sorted(values)
    if len(s) >= 40:
        return s[-11], 100.0 * (len(s) - 10) / len(s)
    return (statistics.quantiles(s, n=4, method="inclusive")[2] if len(s) > 1 else s[0]), 75.0


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


class Run:
    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.rng = random.Random(args.seed)
        self.workload = make_workload(args.workload, self.rng, args.smoke)
        self.groups = scalar.make_groups(riemannmesh, self.rng, self.workload.batch_size)
        self.calls_per_batch = sum(len(g.cases) for g in self.groups)
        self.tracer = Tracer() if args.trace else None
        self.work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
        self.out_dir = self.work / "out"
        self.ref_dir = self.work / "ref"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.refs: dict[str, Path] = {}        # job id -> first output, checked by the oracle
        self.invocations: dict[str, int] = {}  # job id -> invocations that produced output
        self.child_spans: list[list[dict]] = []
        self.coverage_spans: list[list[dict]] = []
        self.scalar_results: dict[str, list] = {}
        self.scalar_calls = 0
        self.scalar_s = 0.0
        self.scalar_ref = 0.0
        self.ref_s = 0.0  # the latest reference() time
        self.setup_repeats = 3 if args.smoke else SETUP_REPEATS
        self.spawn = Spawner()

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def recalibrate(self) -> float:
        """Call right after a timed operation: times the reference again and
        returns the mean of the refs just before and just after it."""
        before, self.ref_s = self.ref_s, reference()
        self.sample("ref_s", self.ref_s)
        return (before + self.ref_s) / 2

    def problem(self, message: str, failures: int = 1) -> None:
        self.failed += failures
        if len(self.problems) < 20:
            self.problems.append(message)

    # ---- operations ---------------------------------------------------------

    def import_once(self, warm_up: bool = False) -> None:
        self.attempted += 1
        wall, code, _ = self.spawn([PY, "-c", "import riemannmesh"], self.work / "stderr.txt")
        ref = self.recalibrate()
        if code != 0:
            self.problem(f"import riemannmesh exited {code}")
        elif not warm_up:
            self.sample("setup_wall_s", wall)
            self.sample("setup_s", wall / ref * NOMINAL_REF_S)

    def setup_due(self) -> bool:
        """Spread the set-up samples evenly over the run, so that they see
        the same mix of machine states as the other metrics."""
        done = len(self.samples.get("setup_s", []))
        share = (time.perf_counter() - self.start) / self.args.seconds
        return not self.args.trace and done < self.setup_repeats * min(1.0, share)

    def invoke(self, job: Job, traced: bool, coverage: bool = False) -> Path | None:
        """One CLI invocation; returns its mesh path when it wrote every file."""
        out = self.out_dir / f"{job.id}.{job.fmt}"
        spans_path = self.work / "spans.json"
        if traced:
            inv = f"{job.id}#{self.attempted}"
            argv = [PY, str(HERE / "traced_cli.py"), str(spans_path), inv, *job.argv(out)]
        else:
            argv = [PY, "-m", "riemannmesh", *job.argv(out)]
        self.attempted += 1
        wall, code, rss = self.spawn(argv, self.work / "stderr.txt")
        ref = self.recalibrate()
        missing = [p.name for p in job.files(out) if not p.is_file()]
        if code != 0 or missing:
            err = (self.work / "stderr.txt").read_text().strip()[-300:]
            self.problem(f"{job.id}: exit {code}, missing {missing}: {err}")
            for p in job.files(out):
                p.unlink(missing_ok=True)
            return None
        if traced:
            spans = add_self_times(json.loads(spans_path.read_text()))
            if coverage:
                self.coverage_spans.append(spans)
                return out
            self.child_spans.append(spans)
            self.sample("trace.surface_s", wall)
        elif self.args.trace:
            self.sample("trace.untraced_surface_s", wall)
        else:
            self.sample("surface_s", wall)
            self.sample("surface_ref", wall / ref)
            self.sample("vertices", job.n_vertices)
            self.sample("peak_rss_B", rss)
            self.sample("output_B", sum(p.stat().st_size for p in job.files(out)))
        return out

    def reload(self, job: Job, out: Path) -> None:
        self.attempted += 1
        span = (self.tracer.span("formats.read_ply", f"reload#{self.attempted}") if self.tracer
                else contextlib.nullcontext())
        t0 = time.perf_counter()
        try:
            with span:
                data = riemannmesh.formats.read_ply(out.read_text())
        except Exception as e:  # any error of the program's reader fails this reload
            self.problem(f"{job.id}: read_ply raised {type(e).__name__}: {e}")
            return
        t = time.perf_counter() - t0
        self.sample("reload_s", t)
        self.sample("reload_ref", t / self.recalibrate())
        shapes = (data.vertices.shape, data.colors.shape, data.faces.shape)
        want = ((job.n_vertices, 3), (job.n_vertices, 3), (job.n_faces, 3))
        if shapes != want or not numpy.isfinite(data.vertices).all():
            self.problem(f"{job.id}: read_ply gave shapes {shapes}, expected {want}")

    def settle(self, job: Job, out: Path) -> None:
        """Keep a job's first output for the oracle; compare later ones with it."""
        self.invocations[job.id] = self.invocations.get(job.id, 0) + 1
        ref = self.refs.get(job.id)
        if ref is None:
            ref_out = self.ref_dir / job.id / out.name
            ref_out.parent.mkdir(parents=True)
            for p in job.files(out):
                os.replace(p, ref_out.parent / p.name)
            self.refs[job.id] = ref_out
            return
        for p in job.files(out):
            same = p.read_bytes() == (ref.parent / p.name).read_bytes()
            p.unlink()
            if not same:
                self.problem(f"{job.id}: {p.name} differs from the first run of the same job")

    def batches(self, count: int) -> None:
        batch_s = 0.0
        for _ in range(count):
            self.attempted += self.calls_per_batch
            span = None
            if self.tracer:
                batch = f"scalar#{self.attempted}"
                span = lambda name: self.tracer.span(name, batch)  # noqa: E731
            t0 = time.perf_counter()
            try:
                scalar.run_batch(self.groups, self.scalar_results, span)
            except Exception as e:  # a raising call fails its whole batch
                self.problem(f"scalar batch raised {type(e).__name__}: {e}", self.calls_per_batch)
                continue
            batch_s += time.perf_counter() - t0
            self.scalar_calls += self.calls_per_batch
        self.scalar_s += batch_s
        self.scalar_ref += batch_s / self.recalibrate()

    def cycle(self) -> None:
        copies = (False, True) if self.args.trace else (False,) * self.workload.copies
        for job in self.workload.jobs:
            for traced in copies:
                out = self.invoke(job, traced)
                if out is not None:
                    for _ in range(self.workload.reloads if job.fmt == "ply" else 0):
                        self.reload(job, out)
                    self.settle(job, out)
                self.batches(self.workload.batches)
                if self.setup_due():
                    self.import_once()

    # ---- the run --------------------------------------------------------------

    def run(self) -> dict:
        self.out_dir.mkdir(parents=True)
        # a CPU that was idle runs slow for a while: keep it busy for a
        # moment first. The last ref is the first `before`.
        warm_until = time.perf_counter() + (0.2 if self.args.smoke else WARM_UP_S)
        while time.perf_counter() < warm_until:
            self.ref_s = reference()
        if not self.args.trace:
            self.import_once(warm_up=True)  # fills bytecode and file caches
        self.start = time.perf_counter()
        cycles = 0
        while True:
            self.cycle()
            cycles += 1
            elapsed = time.perf_counter() - self.start
            # stop where one more cycle would overshoot by more than half of it
            if elapsed + elapsed / cycles / 2 > self.args.seconds:
                break
        self.measured_s = elapsed
        self.cycles = cycles
        while not self.args.trace and len(self.samples.get("setup_s", [])) < self.setup_repeats:
            self.import_once()
        if self.args.trace:
            metrics = self.layer_metrics()
        else:
            metrics = self.end_to_end_metrics()
        self.check()
        return metrics

    def check(self) -> None:
        picks = random.Random(self.args.seed + 1)
        n_samples = 16 if self.args.smoke else 64
        jobs = {j.id: j for j in self.workload.jobs + COVERAGE}
        for job_id, ref in sorted(self.refs.items()):
            problems = oracle.check_job_outputs(jobs[job_id], ref, picks, n_samples)
            if problems:
                # later invocations were byte-identical to this one, so all fail
                self.problem(f"{job_id}: {'; '.join(problems[:3])}", self.invocations[job_id])
        for p in scalar.check_results(self.groups, self.scalar_results, picks, 8 if self.args.smoke else 30):
            self.problem(p)

    def end_to_end_metrics(self) -> dict:
        s = self.samples
        self.tails = {}
        metrics = {"setup_s": (median(s.get("setup_s", [])), "s")}
        for name in ("surface_ref", "reload_ref"):
            values = s.get(name, [])
            p = tail(values) if values else (0.0, 0.0)
            self.tails[f"{name}.tail"] = p[1]
            metrics[f"{name}.p50"] = (median(values), "ref")
            metrics[f"{name}.tail"] = (p[0], "ref")
        surface = s.get("surface_ref", [])
        metrics["vertices_per_ref"] = (sum(s.get("vertices", [])) / sum(surface) if surface else 0.0, "1/ref")
        metrics["peak_rss_MB"] = (median(s.get("peak_rss_B", [])) / 1e6, "MB")
        metrics["output_MB"] = (statistics.fmean(s["output_B"]) / 1e6 if "output_B" in s else 0.0, "MB")
        # all calls over all batch time: per-batch rates are bimodal on a
        # host whose speed switches every few seconds, so their median jumps
        metrics["scalar_calls_per_ref"] = (self.scalar_calls / self.scalar_ref if self.scalar_ref else 0.0,
                                           "1/ref")
        # the same timings in seconds, for people; they drift with the host
        self.seconds = {
            "ref_s.p50": median(s.get("ref_s", [])),
            "setup_s": median(s.get("setup_wall_s", [])),
            "surface_s.p50": median(s.get("surface_s", [])),
            "reload_s.p50": median(s.get("reload_s", [])),
            "vertices_per_s": sum(s.get("vertices", [])) / sum(s["surface_s"]) if "surface_s" in s else 0.0,
            "scalar_calls_per_s": self.scalar_calls / self.scalar_s if self.scalar_s else 0.0,
        }
        return metrics

    def layer_metrics(self) -> dict:
        own = per_invocation(self.child_spans)
        values = layer_values(own)
        for rec in add_self_times(self.tracer.spans):
            if rec["name"] == "formats.read_ply":
                values.setdefault("formats.read_ply_s", []).append(rec["self"])
        for g in self.groups:
            values[f"{g.name}_s"] = [
                (r["end"] - r["start"]) / len(g.cases) for r in self.tracer.spans if r["name"] == g.name
            ]
        untraced = self.samples.get("trace.untraced_surface_s", [])
        traced = self.samples.get("trace.surface_s", [])
        values["trace.surface_s.p50"] = traced
        values["trace.untraced_surface_s.p50"] = untraced
        values["trace.overhead_s"] = [median(traced) - median(untraced)] if traced and untraced else []
        self.from_coverage = sorted(n for n in PER_LAYER if not values.get(n))
        if self.from_coverage:
            for job in COVERAGE:
                out = self.invoke(job, traced=True, coverage=True)
                if out is not None:
                    self.settle(job, out)
            covered = layer_values(per_invocation(self.coverage_spans))
            for n in self.from_coverage:
                values[n] = covered.get(n, [])
        self.layer_errors = {}
        for spans in self.child_spans + self.coverage_spans + [self.tracer.spans]:
            for r in spans:
                if r["error"]:
                    layer = r["name"].split(".")[0]
                    self.layer_errors[layer] = self.layer_errors.get(layer, 0) + 1
        return {n: (median(values.get(n, [])), unit) for n, unit in PER_LAYER.items()}


# ---- per-layer aggregation ----------------------------------------------------

SPAN_TIMES = (
    "setup.import", "cli.parse_args", "cli.write",
    "mesh.sample_domain", "mesh.lattice_faces",
    "mesh.build_sheet.sin", "mesh.build_sheet.cos", "mesh.build_sheet.index", "mesh.build_sheet.imag",
    "mesh.assemble_surface.weld", "mesh.assemble_surface.walls", "mesh.assemble_surface.open",
    "mesh.build_range_chart",
    "formats.ply_text", "formats.obj_text", "formats.json_text", "formats.csv_text",
    "formats.seams_json_text",
)
CALL_COUNTS = ("mesh.sample_domain", "mesh.lattice_faces")
LAYERS = ("cli", "mesh", "formats")

PER_LAYER: dict[str, str] = {f"{n}_s": "s" for n in SPAN_TIMES}
PER_LAYER.update({f"{n}.calls": "count" for n in CALL_COUNTS})
PER_LAYER.update({"mesh.vertices": "count", "mesh.faces": "count",
                  "mesh.welded_seams": "count", "mesh.array_bytes": "B_computed"})
PER_LAYER.update({f"formats.bytes.{f}": "B" for f in FORMATS})
PER_LAYER["formats.read_ply_s"] = "s"
PER_LAYER.update({f"layer.{layer}_s": "s" for layer in LAYERS})
PER_LAYER.update({f"{g}_s": "s" for g in (
    "branches.branch_value.log", "branches.branch_value.root", "branches.branch_of",
    "branches.in_branch_range", "branches.continuation_branch",
    *(f"charisma.evaluate_charisma.{k}" for k in ("index", "phase", "sin", "cos", "imag")),
)})
PER_LAYER.update({"trace.surface_s.p50": "s", "trace.untraced_surface_s.p50": "s", "trace.overhead_s": "s"})


def per_invocation(children: list[list[dict]]) -> list[tuple[dict, dict, dict]]:
    """Per traced invocation: self time by span name, calls by span name,
    and summed counts."""
    out = []
    for spans in children:
        self_s, calls, counts = {}, {}, {}
        for r in spans:
            self_s[r["name"]] = self_s.get(r["name"], 0.0) + r["self"]
            calls[r["name"]] = calls.get(r["name"], 0) + 1
            for k, v in r["counts"].items():
                counts[k] = counts.get(k, 0) + v
        out.append((self_s, calls, counts))
    return out


def layer_values(invocations: list[tuple[dict, dict, dict]]) -> dict[str, list[float]]:
    """Samples for each per-layer metric: one per invocation that has it."""
    values: dict[str, list[float]] = {}
    for self_s, calls, counts in invocations:
        for n in SPAN_TIMES:
            if n in self_s:
                values.setdefault(f"{n}_s", []).append(self_s[n])
        for n in CALL_COUNTS:
            values.setdefault(f"{n}.calls", []).append(calls.get(n, 0))
        for n, v in counts.items():
            values.setdefault(n, []).append(v)
        for layer in LAYERS:
            values.setdefault(f"layer.{layer}_s", []).append(
                sum(v for n, v in self_s.items() if n.startswith(layer + ".")))
    return values


# ---- context ------------------------------------------------------------------

def _git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "riemannmesh").rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _l3_bytes() -> int | None:
    try:
        out = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip()) or None
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return None


def context(run: Run) -> dict:
    jobs = run.workload.jobs
    l3 = _l3_bytes()
    biggest = max(j.array_bytes_bound for j in jobs)
    ctx = {
        "workload": run.args.workload, "seed": run.args.seed, "seconds": run.args.seconds,
        "trace": run.args.trace, "smoke": run.args.smoke,
        "nproc": os.cpu_count(), "pinned_to_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__, "mpmath": mpmath.__version__,
        "git_commit": _git_commit(), "src_sha256": _src_digest(),
        "cycles": run.cycles, "measured_s": round(run.measured_s, 3),
        "jobs": [{"id": j.id, "vertices": j.n_vertices, "faces": j.n_faces,
                  "invocations": run.invocations.get(j.id, 0)} for j in jobs],
        "scalar_calls_per_batch": run.calls_per_batch,
        "scalar_calls": run.scalar_calls,
        "samples": {k: len(v) for k, v in sorted(run.samples.items())},
        "l3_bytes": l3,
        "array_bytes_computed_max": biggest,
        "arrays_fit_l3": None if l3 is None else biggest <= l3,
        "failed_ratio": run.failed / max(run.attempted, 1),
        "problems": run.problems,
    }
    if run.args.trace:
        ctx["per_layer_from_coverage"] = run.from_coverage
        ctx["layer_errors"] = run.layer_errors
    else:
        ctx["tail_percentile"] = run.tails
        ctx["seconds_not_normalised"] = run.seconds
    return ctx


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("figures", "large-grid", "scalar-api"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny grids and batches, for the smoke test")
    args = p.parse_args(argv)

    # One client never needs two CPUs at once, and a CPU that idles comes
    # back slower: on the 2-vCPU reference host the same loop ran at a median
    # 7.0 ms when its CPU stayed busy and 9.9 ms when it slept 80% of the
    # time. On one CPU the benchmark, the spawner and each child hand over to
    # each other and keep it busy. Children inherit the affinity.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    run = Run(args)
    try:
        metrics = run.run()
        ctx = context(run)
    finally:
        run.spawn.close()
        shutil.rmtree(run.work, ignore_errors=True)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {"result": result, "context": ctx, "samples": run.samples}
    if args.trace:
        report["spans"] = {"benchmark": run.tracer.spans, "cli": run.child_spans,
                           "coverage": run.coverage_spans}
    (results / f"{stem}.json").write_text(json.dumps(report, indent=1))

    for n, m in result["metrics"].items():
        print(f"{n:42s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"{'failed_ratio':42s} {ctx['failed_ratio']:.6g} ({run.failed} of {run.attempted})", file=sys.stderr)
    print(json.dumps(ctx, indent=1), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
