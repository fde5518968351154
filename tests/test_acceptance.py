"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are fixed here and nowhere else.
"""

import cmath
import json
import math
from contextlib import contextmanager

import numpy as np
import pytest

from riemannmesh import (
    CharismaKind,
    DomainGrid,
    IndexedFunction,
    assemble_surface,
    branch_of,
    build_mesh,
    build_sheets,
    evaluate_charisma,
    log_branch,
    parse_args,
    root_branch,
    root_indices,
    seam_report,
)
from riemannmesh.cli import main
from riemannmesh.formats import read_ply

LOG = IndexedFunction.log()
ROOT3 = IndexedFunction.root(3)
SQRT3 = math.sqrt(3)


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"criterion {number:2d} FAIL: {description}")
        raise
    print(f"criterion {number:2d} PASS: {description}")


def random_points(rng, count, r_lo=1e-3, r_hi=1e3, margin=1e-9):
    """Random nonzero z with log-uniform radius, phases clear of the cut."""
    out = []
    while len(out) < count:
        r = 10.0 ** rng.uniform(math.log10(r_lo), math.log10(r_hi))
        theta = rng.uniform(-math.pi, math.pi)
        if math.pi - abs(theta) < margin:
            continue
        out.append(cmath.rect(r, theta))
    return out


def test_criterion_01_cube_roots_of_minus_eight():
    with criterion(1, "cube roots of -8 land on their documented branches"):
        expected = {0: 1 + SQRT3 * 1j, 1: -2 + 0j, -1: 1 - SQRT3 * 1j}
        for k, want in expected.items():
            assert abs(root_branch(-8, 3, k) - want) <= 1e-12


def test_criterion_02_log_range_partition():
    with criterion(2, "log branches confine Im and classify back exactly"):
        rng = np.random.default_rng(2026_02)
        zs = random_points(rng, 10_000)
        ks = rng.integers(-5, 6, size=len(zs))
        for z, k in zip(zs, ks):
            k = int(k)
            w = log_branch(z, k)
            assert (2 * k - 1) * math.pi < w.imag <= (2 * k + 1) * math.pi
            assert branch_of(w, LOG) == k


def test_criterion_03_principal_sector_confinement():
    with criterion(3, "principal n-th roots stay in (-pi/n, pi/n]"):
        rng = np.random.default_rng(2026_03)
        for n in (2, 3, 4, 5):
            for z in random_points(rng, 10_000):
                phase = cmath.phase(root_branch(z, n, 0))
                assert -math.pi / n < phase <= math.pi / n


def test_criterion_04_periodicity_across_the_cut():
    with criterion(4, "cbrt_1 above the cut meets cbrt_-1 below it"):
        rng = np.random.default_rng(2026_04)
        eps = 1e-8
        for _ in range(1000):
            x = -(10.0 ** rng.uniform(-1, 3))
            above = root_branch(complex(x, eps), 3, 1)
            below = root_branch(complex(x, -eps), 3, -1)
            assert abs(above - below) < 1e-6 * abs(x) ** (1 / 3)


def test_criterion_05_self_intersection_heights():
    with criterion(5, "sin surface crosses itself at heights -1/2 and +1/2"):
        for r in (0.1, 1.0, 10.0):
            for k in (-1, 0):
                c = evaluate_charisma(-1j * r, k, ROOT3, CharismaKind.SIN)
                assert abs(c - (-0.5)) <= 1e-12
            for k in (0, 1):
                c = evaluate_charisma(1j * r, k, ROOT3, CharismaKind.SIN)
                assert abs(c - 0.5) <= 1e-12


def test_criterion_06_colour_change_locus():
    with criterion(6, "welded sin seam vertices sit on the negative real axis"):
        mesh = build_mesh(parse_args(["--figure", "4"]))
        targets = (-SQRT3 / 2, 0.0, SQRT3 / 2)
        checked = 0
        for seam in mesh.seams:
            assert seam.welded
            for v in seam.merged_vertices:
                x, y, c = mesh.positions[v]
                assert x < 0
                assert abs(y) <= 1e-9
                assert min(abs(c - t) for t in targets) <= 1e-9
                checked += 1
        # three welded seams, one merged vertex per radial sample each
        assert checked == 3 * 40


def test_criterion_07_phase_charisma_window():
    with criterion(7, "phase charisma of branch -1 climbs to -pi/3 at the cut"):
        sheets = build_sheets(ROOT3, [-1], CharismaKind.PHASE, DomainGrid())
        c = sheets.c[0]
        for row in c:
            assert all(a < b for a, b in zip(row, row[1:]))
        assert np.all(c.argmax(axis=1) == sheets.grid.n_cols - 1)
        assert c.max() == pytest.approx(-math.pi / 3, abs=1e-12)
        assert c.min() >= -math.pi
        assert c.min() == pytest.approx(-math.pi, abs=1e-12)


def test_criterion_08_seam_gaps_and_welding():
    with criterion(8, "index seams jump by 1 and 2; sin/cos/imag seams close"):
        grid = DomainGrid(0.5, 2.0, 4, 16)

        def surface(function, kind, branches):
            sheets = build_sheets(function, branches, kind, grid)
            return assemble_surface(sheets, weld=True, weld_tol=1e-9)

        index = surface(ROOT3, CharismaKind.INDEX, (-1, 0, 1))
        gaps = {pair: gap for pair, gap, _ in seam_report(index)}
        assert gaps == {(-1, 0): 1.0, (0, 1): 1.0, (1, -1): 2.0}
        assert not any(s.welded for s in index.seams)

        for function, kind, branches in (
            (ROOT3, CharismaKind.SIN, (-1, 0, 1)),
            (ROOT3, CharismaKind.COS, (-1, 0, 1)),
            (LOG, CharismaKind.IMAG, range(-2, 3)),
        ):
            mesh = surface(function, kind, branches)
            assert all(gap < 1e-9 for _, gap, _ in seam_report(mesh))
            assert all(s.welded for s in mesh.seams)


def test_criterion_09_cos_dominance():
    with criterion(9, "cos charisma keeps the principal branch on top"):
        rng = np.random.default_rng(2026_09)
        for z in random_points(rng, 10_000):
            theta = cmath.phase(z)
            c0 = evaluate_charisma(z, 0, ROOT3, CharismaKind.COS)
            c1 = evaluate_charisma(z, 1, ROOT3, CharismaKind.COS)
            cm1 = evaluate_charisma(z, -1, ROOT3, CharismaKind.COS)
            assert c0 >= 0.5
            assert c0 >= c1 and c0 >= cm1
            # independent oracle: direct cosine of the shifted phase
            for k, got in ((0, c0), (1, c1), (-1, cm1)):
                assert got == pytest.approx(math.cos((theta + 2 * math.pi * k) / 3), abs=1e-12)


def test_criterion_10_inversion_round_trips():
    with criterion(10, "exp and power invert the branch evaluations"):
        rng = np.random.default_rng(2026_10)
        for z in random_points(rng, 10_000):
            k = int(rng.integers(-5, 6))
            assert cmath.isclose(cmath.exp(log_branch(z, k)), z, rel_tol=1e-12)
        for z in random_points(rng, 10_000):
            n = int(rng.integers(2, 7))
            k = int(rng.choice(list(root_indices(n))))
            assert cmath.isclose(root_branch(z, n, k) ** n, z, rel_tol=1e-12)


def test_criterion_11_mesh_bookkeeping(tmp_path):
    with criterion(11, "lattice counts, PLY re-parse, and byte determinism"):
        sheets = build_sheets(ROOT3, [0], CharismaKind.SIN, DomainGrid())
        assert sheets.c[0].size == 40 * 241
        assert len(sheets.faces) == 2 * 39 * 240
        mesh = assemble_surface(sheets)
        from test_formats import rendered

        data = read_ply(rendered("ply", mesh))
        assert len(data.vertices) == 40 * 241
        assert len(data.faces) == 2 * 39 * 240

        argv = ["--branches", "0", "--charisma", "sin"]
        out_a, out_b = tmp_path / "a.ply", tmp_path / "b.ply"
        assert main(argv + ["-o", str(out_a)]) == 0
        assert main(argv + ["-o", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert (
            out_a.with_suffix(".seams.json").read_bytes()
            == out_b.with_suffix(".seams.json").read_bytes()
        )


def test_criterion_12_figure_presets(tmp_path):
    with criterion(12, "figure presets build the documented sheet counts"):
        fig4 = tmp_path / "fig4.json"
        assert main(["--figure", "4", "--format", "json", "-o", str(fig4)]) == 0
        doc4 = json.loads(fig4.read_text())
        assert len(doc4["sheets"]) == 3
        seams4 = json.loads(fig4.with_suffix(".seams.json").read_text())["seams"]
        assert len(seams4) == 3
        assert all(s["welded"] and s["max_gap"] < 1e-9 for s in seams4)

        fig6 = tmp_path / "fig6.json"
        assert main(["--figure", "6", "--format", "json", "-o", str(fig6)]) == 0
        doc6 = json.loads(fig6.read_text())
        assert len(doc6["sheets"]) == 5
        seams6 = json.loads(fig6.with_suffix(".seams.json").read_text())["seams"]
        assert len(seams6) == 4
        assert all(s["welded"] and s["max_gap"] < 1e-9 for s in seams6)
