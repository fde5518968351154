"""The scalar-API call mix: seeded inputs, one batch of calls, and its check.

A batch calls each group's function once per prepared argument tuple, so
the harness adds only a list comprehension per group. Radii are
log-uniform in [1e-3, 1e3] and phases uniform; every tenth input of a group
is a boundary input: a negative real with a +0.0 or -0.0 imaginary part,
or a value exactly on a branch-region edge.
"""

from __future__ import annotations

import contextlib
import math
import random
from dataclasses import dataclass
from typing import Callable

import mpmath as mp

import oracle

ROOT_DEGREES = (2, 3, 4, 5)
BOUNDARY_EVERY = 10


@dataclass
class Group:
    name: str           # span and per-layer metric stem
    fn: Callable
    cases: list[tuple]  # argument tuples passed to fn
    truth: list[tuple]  # per case: what the oracle needs, in plain Python values


def _radius(rng: random.Random) -> float:
    return 10.0 ** rng.uniform(-3.0, 3.0)


def _point(rng: random.Random, i: int) -> complex:
    r = _radius(rng)
    if i % BOUNDARY_EVERY == 0:
        return complex(-r, 0.0 if (i // BOUNDARY_EVERY) % 2 == 0 else -0.0)
    t = rng.uniform(-math.pi, math.pi)
    return complex(r * math.cos(t), r * math.sin(t))


# values exactly on a branch-region edge, with the branch that owns the edge
# under the closed-counterclockwise rule; math.pi stands for pi in log strips
def _edges(r: float, x: float) -> list[tuple[str, int | None, complex, int]]:
    return [
        ("root", 2, complex(0.0, r), 0), ("root", 2, complex(0.0, -r), 1),
        ("root", 3, complex(-r, 0.0), 1), ("root", 3, complex(-r, -0.0), 1),
        ("root", 4, complex(r, r), 0), ("root", 4, complex(-r, r), 1),
        ("root", 4, complex(-r, -r), 2), ("root", 4, complex(r, -r), -1),
        ("root", 5, complex(-r, 0.0), 2), ("root", 5, complex(-r, -0.0), 2),
        ("log", None, complex(x, math.pi), 0), ("log", None, complex(x, -math.pi), -1),
    ]


def make_groups(rm, rng: random.Random, size: int) -> list[Group]:
    log = rm.IndexedFunction.log()
    roots = {n: rm.IndexedFunction.root(n) for n in ROOT_DEGREES}

    def prog(func: str, n: int | None):
        return log if func == "log" else roots[n]

    def any_root():
        n = rng.choice(ROOT_DEGREES)
        return n, rng.choice(oracle.canonical_roots(n))

    groups = []
    cases, truth = [], []
    for i in range(size):
        z, k = _point(rng, i), rng.randint(-3, 3)
        cases.append((log, z, k))
        truth.append(("log", None, z, k))
    groups.append(Group("branches.branch_value.log", rm.IndexedFunction.branch_value, cases, truth))

    cases, truth = [], []
    for i in range(size):
        (n, k), z = any_root(), _point(rng, i)
        cases.append((roots[n], z, k))
        truth.append(("root", n, z, k))
    groups.append(Group("branches.branch_value.root", rm.IndexedFunction.branch_value, cases, truth))

    for kind in ("index", "phase", "sin", "cos", "imag"):
        cases, truth = [], []
        for i in range(size):
            z = _point(rng, i)
            if kind == "imag" or (kind == "index" and i % 2):
                func, n, k = "log", None, rng.randint(-3, 3)
            else:
                func, (n, k) = "root", any_root()
            cases.append((z, k, prog(func, n), rm.CharismaKind(kind)))
            truth.append((func, n, z, k, kind))
        groups.append(Group(f"charisma.evaluate_charisma.{kind}", rm.evaluate_charisma, cases, truth))

    cases, truth = [], []
    for i in range(size):
        if i % BOUNDARY_EVERY == 0:
            edges = _edges(_radius(rng), rng.uniform(-5.0, 5.0))
            func, n, w, expected = edges[(i // BOUNDARY_EVERY) % len(edges)]
        else:
            func, n = rng.choice([("log", None)] + [("root", d) for d in ROOT_DEGREES])
            w, expected = _point(rng, i), None
            if func == "log":
                w = complex(w.real, rng.uniform(-7 * math.pi, 7 * math.pi))
        cases.append((w, prog(func, n)))
        truth.append((func, n, w, expected))
    groups.append(Group("branches.branch_of", rm.branch_of, cases, truth))

    cases, truth = [], []
    for i in range(size):
        x = rng.uniform(-5.0, 5.0)
        if i % BOUNDARY_EVERY == 0:
            im, k = rng.choice((math.pi, -math.pi)), rng.randint(-1, 1)
            y, expected = complex(x, im), k == (0 if im > 0 else -1)
        else:
            y = complex(x, rng.uniform(-7 * math.pi, 7 * math.pi))
            # aim near the owning strip so about half the calls answer True
            k = math.ceil((y.imag - math.pi) / (2 * math.pi)) + rng.choice((0, 0, -1, 1))
            expected = None
        cases.append((y, log, k))
        truth.append((y, k, expected))
    groups.append(Group("branches.in_branch_range", rm.in_branch_range, cases, truth))

    cases, truth = [], []
    for i in range(size):
        if i % 2:
            func, n, k = "log", None, rng.randint(-5, 5)
        else:
            n = rng.choice(ROOT_DEGREES)
            idx = oracle.canonical_roots(n)
            # the top index wraps around to the bottom one
            func, k = "root", idx[-1] if i % BOUNDARY_EVERY == 0 else rng.choice(idx)
        cases.append((prog(func, n), k))
        truth.append((func, n, k))
    groups.append(Group("branches.continuation_branch", rm.continuation_branch, cases, truth))
    return groups


def run_batch(groups: list[Group], results: dict, span=None) -> None:
    """Call every group once over its cases, storing results by group name.
    `span(name)`, when given, is a context manager timing one group."""
    for g in groups:
        with span(g.name) if span else contextlib.nullcontext():
            results[g.name] = [g.fn(*a) for a in g.cases]


def _expected_ok(group: str, truth: tuple, got) -> bool:
    if group.startswith("branches.branch_value"):
        func, n, z, k = truth
        return isinstance(got, complex) and abs(mp.mpc(got) - oracle.exact_branch(func, n, z, k)) <= oracle.ATOL
    if group.startswith("charisma."):
        func, n, z, k, kind = truth
        return isinstance(got, float) and oracle.charisma_close(kind, got, oracle.exact_charisma(func, n, kind, z, k))
    if group == "branches.branch_of":
        func, n, w, expected = truth
        return got == expected if expected is not None else got in oracle.region(func, n, w)
    if group == "branches.in_branch_range":
        y, k, expected = truth
        if expected is None:
            owners = oracle.region("log", None, y)
            return got is (k in owners) or (len(owners) > 1 and isinstance(got, bool))
        return got is expected
    func, n, k = truth
    return got == oracle.continuation(func, n, k)


def check_results(groups: list[Group], results: dict, picks: random.Random, per_group: int) -> list[str]:
    """Check every boundary case and a seeded sample of the others."""
    problems = []
    for g in groups:
        got = results.get(g.name)
        if got is None or len(got) != len(g.cases):
            problems.append(f"{g.name}: no results")
            continue
        generic = [i for i in range(len(g.cases)) if i % BOUNDARY_EVERY]
        picked = list(range(0, len(g.cases), BOUNDARY_EVERY)) + picks.sample(generic, min(per_group, len(generic)))
        for i in picked:
            if not _expected_ok(g.name, g.truth[i], got[i]):
                problems.append(f"{g.name}: case {i} {g.truth[i]!r} gave {got[i]!r}")
    return problems
