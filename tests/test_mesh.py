"""Grid sampling, sheet lifting, assembly, seam and weld tests."""

import cmath
import math

import numpy as np
import pytest

from riemannmesh import (
    PALETTE,
    CharismaKind,
    compatible_kinds,
    DomainGrid,
    GridError,
    GridMismatchError,
    IndexedFunction,
    assemble_surface,
    branch_color,
    branch_of,
    build_range_chart,
    build_sheet,
    continuation_branch,
    evaluate_charisma,
    sample_domain,
    seam_report,
)
from riemannmesh.mesh import lattice_faces

LOG = IndexedFunction.log()
ROOT3 = IndexedFunction.root(3)
SQRT3_2 = math.sqrt(3) / 2
OMEGA = cmath.exp(2j * math.pi / 3)

SMALL = DomainGrid(0.5, 2.0, 3, 8)
WITNESS = DomainGrid(0.5, 2.0, 4, 16)  # multiple of 4 so the imaginary axis is sampled


def sheet_triple(kind, grid=SMALL, function=ROOT3):
    return [build_sheet(function, k, kind, grid) for k in (-1, 0, 1)]


def triangle_areas(positions, faces):
    v = positions[faces]
    return 0.5 * np.linalg.norm(np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]), axis=1)


def loop_wall_faces(sheets):
    """Wall triangles and their owning branches, one radial step at a time:
    the reference for the order assemble_surface appends them in."""
    n_per = sheets[0].n_vertices
    offset = {s.branch: i * n_per for i, s in enumerate(sheets)}
    by_branch = {s.branch: s for s in sheets}
    faces, branches = [], []
    for s in sheets:
        nxt = continuation_branch(s.function, s.branch)
        if nxt == s.branch or nxt not in by_branch:
            continue
        upper = s.upper_edge() + offset[s.branch]
        lower = by_branch[nxt].lower_edge() + offset[nxt]
        for i in range(len(upper) - 1):
            faces.append((int(upper[i]), int(lower[i]), int(lower[i + 1])))
            faces.append((int(upper[i]), int(lower[i + 1]), int(upper[i + 1])))
            branches.extend((s.branch, s.branch))
    return np.asarray(faces, dtype=np.int64), np.asarray(branches, dtype=np.int64)


def cbrt_case(z, k):
    """Literal three-case cube root, the independent gap oracle."""
    core = abs(z) ** (1 / 3) * cmath.exp(1j * cmath.phase(z) / 3)
    return {0: core, 1: OMEGA * core, -1: OMEGA.conjugate() * core}[k]


class TestDomainGrid:
    def test_rejects_empty_radial_extent(self):
        with pytest.raises(GridError):
            DomainGrid(r_min=1.0, r_max=1.0, n_r=2, n_theta=8)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(r_min=0.0),
            dict(r_min=-1.0),
            dict(n_r=1),
            dict(n_theta=7),
            dict(radial_spacing="cubic"),
            dict(n_r=2.5),
            dict(r_min="a"),
            dict(r_max=None),
            pytest.param(dict(r_max=10**400), id="r_max-beyond-float"),
        ],
    )
    def test_rejects_invalid_parameters(self, kwargs):
        (field,) = kwargs  # the one parameter set wrong is the one named
        base = dict(r_min=0.5, r_max=2.0, n_r=3, n_theta=8)
        base.update(kwargs)
        with pytest.raises(GridError) as exc:
            DomainGrid(**base)
        assert exc.value.field == field

    def test_log_spacing(self):
        grid = DomainGrid(0.1, 10.0, 5, 8, radial_spacing="log")
        assert np.array_equal(grid.radii(), np.geomspace(0.1, 10.0, 5))


def loop_sample_domain(grid):
    """Element-at-a-time polar lattice: the reference sample_domain must match."""
    z = np.empty((grid.n_r, grid.n_cols), dtype=complex)
    for i, r in enumerate(grid.radii()):
        for j, t in enumerate(grid.thetas()):
            z[i, j] = complex(float(r) * math.cos(float(t)), float(r) * math.sin(float(t)))
    return z


def loop_lattice_faces(n_rows, n_cols):
    """Quad-at-a-time triangulation: the reference lattice_faces must match."""
    faces = []
    for i in range(n_rows - 1):
        for j in range(n_cols - 1):
            a = i * n_cols + j
            faces += [(a, a + 1, a + n_cols + 1), (a, a + n_cols + 1, a + n_cols)]
    return np.asarray(faces, dtype=np.int64)


class TestSampleDomain:
    def test_lattice_shape_with_duplicated_cut_columns(self):
        z = sample_domain(DomainGrid(0.5, 1.0, 2, 8))
        assert z.shape == (2, 9)
        # first and last columns coincide geometrically on the cut...
        assert np.all(np.abs(z[:, 0] - z[:, -1]) < 1e-14)
        # ...but sit on opposite sides of it
        assert np.all(z[:, 0].imag < 0) and np.all(z[:, -1].imag > 0)

    def test_all_samples_inside_annulus(self):
        z = sample_domain(DomainGrid(0.5, 2.0, 3, 360))
        assert z.shape == (3, 361)
        for row in z:
            for v in row:
                assert 0.5 - 1e-12 <= abs(v) <= 2.0 + 1e-12

    @pytest.mark.parametrize(
        "grid",
        [
            SMALL,
            WITNESS,
            DomainGrid(0.05, 2.0, 7, 241),
            DomainGrid(1e-3, 1e3, 9, 60, radial_spacing="log"),
        ],
    )
    def test_matches_the_loop_reference_byte_for_byte(self, grid):
        # bytes, not ==: a flipped signed zero on the cut must fail
        z = sample_domain(grid)
        assert z.tobytes() == loop_sample_domain(grid).tobytes()
        faces = lattice_faces(grid.n_r, grid.n_cols)
        assert faces.dtype == np.int64
        assert faces.tobytes() == loop_lattice_faces(grid.n_r, grid.n_cols).tobytes()

    def test_row_major_polar_layout(self):
        grid = DomainGrid(0.5, 2.0, 3, 8)
        z = sample_domain(grid)
        radii, thetas = grid.radii(), grid.thetas()
        for i, r in enumerate(radii):
            for j, t in enumerate(thetas):
                want = complex(float(r) * math.cos(float(t)), float(r) * math.sin(float(t)))
                assert z[i, j] == want


class TestBuildSheet:
    def test_vertex_and_triangle_counts(self):
        sheet = build_sheet(ROOT3, 0, CharismaKind.SIN, SMALL)
        assert sheet.n_vertices == 3 * 9
        assert len(sheet.faces) == 2 * 2 * 8

    def test_index_sheets_are_flat(self):
        for k in (-1, 0, 1):
            sheet = build_sheet(ROOT3, k, CharismaKind.INDEX, SMALL)
            assert np.all(sheet.c == float(k))

    def test_log_imag_sheet_fills_its_strip(self):
        sheet = build_sheet(LOG, 1, CharismaKind.IMAG, SMALL)
        # the duplicated -pi column recovers phase exactly -fl(pi), so the
        # strip is attained closed at both float endpoints
        assert np.all(sheet.c >= math.pi)
        assert np.all(sheet.c <= 3 * math.pi)
        assert sheet.c.min() == math.pi
        assert sheet.c.max() == 3 * math.pi

    def test_phase_sheet_window_for_branch_minus_one(self):
        sheet = build_sheet(ROOT3, -1, CharismaKind.PHASE, SMALL)
        for row in sheet.c:
            assert all(a < b for a, b in zip(row, row[1:]))
        assert sheet.c.max() == pytest.approx(-math.pi / 3, abs=1e-12)
        assert np.all(sheet.c.argmax(axis=1) == sheet.n_cols - 1)
        assert sheet.c.min() >= -math.pi
        assert sheet.c.min() == pytest.approx(-math.pi, abs=1e-12)

    @pytest.mark.parametrize(
        "function,k,kind",
        [(ROOT3, -1, CharismaKind.SIN), (ROOT3, 1, CharismaKind.PHASE), (LOG, 2, CharismaKind.IMAG)],
    )
    def test_recomputable_bit_for_bit(self, function, k, kind):
        sheet = build_sheet(function, k, kind, SMALL)
        for i in range(3):
            for j in range(9):
                z = complex(sheet.z[i, j])
                assert sheet.w[i, j] == function.branch_value(z, k)
                assert sheet.c[i, j] == evaluate_charisma(z, k, function, kind)

    @pytest.mark.parametrize("spacing", ["linear", "log"])
    @pytest.mark.parametrize(
        "function,kind",
        [
            (function, kind)
            for function in [IndexedFunction.root(n) for n in range(2, 6)] + [LOG]
            for kind in compatible_kinds(function)
        ],
        ids=lambda v: v.label() if isinstance(v, IndexedFunction) else v.value,
    )
    def test_every_branch_recomputable_bit_for_bit(self, function, kind, spacing):
        grid = DomainGrid(0.05, 2.0, 4, 24, radial_spacing=spacing)
        for k in function.branch_indices() or range(-2, 3):
            sheet = build_sheet(function, k, kind, grid)
            zs = sheet.z.ravel().tolist()
            w = np.array([function.branch_value(z, k) for z in zs])
            c = np.array([evaluate_charisma(z, k, function, kind) for z in zs])
            assert sheet.w.ravel().tobytes() == w.tobytes()
            assert sheet.c.ravel().tobytes() == c.tobytes()

    def test_range_values_classify_back_to_the_branch(self):
        for k in (-1, 0, 1):
            sheet = build_sheet(ROOT3, k, CharismaKind.SIN, SMALL)
            interior = sheet.w[:, 1:-1]  # cut columns are boundary-adjacent
            for w in interior.ravel():
                assert branch_of(complex(w), ROOT3) == k

    def test_no_degenerate_triangles(self):
        for kind in (CharismaKind.INDEX, CharismaKind.SIN):
            sheet = build_sheet(ROOT3, 0, kind, SMALL)
            pos = np.column_stack(
                [sheet.z.real.ravel(), sheet.z.imag.ravel(), sheet.c.ravel()]
            )
            assert np.all(triangle_areas(pos, sheet.faces) > 0)

    def test_rejects_inadmissible_branch_and_bad_kind(self):
        from riemannmesh import BranchIndexError, CharismaCompatibilityError

        with pytest.raises(BranchIndexError):
            build_sheet(ROOT3, 5, CharismaKind.SIN, SMALL)
        with pytest.raises(CharismaCompatibilityError):
            build_sheet(LOG, 0, CharismaKind.SIN, SMALL)


class TestAssembleIndexSurface:
    def test_integer_jumps_never_weld(self):
        mesh = assemble_surface(sheet_triple(CharismaKind.INDEX), weld=True)
        report = {pair: gap for pair, gap, _ in seam_report(mesh)}
        assert report == {(-1, 0): 1.0, (0, 1): 1.0, (1, -1): 2.0}
        assert all(not s.welded for s in mesh.seams)
        assert mesh.n_vertices == 3 * 27  # nothing merged
        for i in range(mesh.n_vertices):  # color is a pure function of k
            assert tuple(mesh.colors[i]) == branch_color(int(mesh.branch[i]))

    def test_walls_bridge_open_seams(self):
        sheets = sheet_triple(CharismaKind.INDEX)
        plain = assemble_surface(sheets, weld=True, walls=False)
        walled = assemble_surface(sheets, weld=True, walls=True)
        per_seam = 2 * (SMALL.n_r - 1)
        assert walled.n_faces == plain.n_faces + 3 * per_seam
        wall_branches = walled.face_branch[plain.n_faces:]
        assert sorted(set(int(b) for b in wall_branches)) == [-1, 0, 1]

    @pytest.mark.parametrize("function", [ROOT3, LOG], ids=["root3", "log"])
    def test_walls_match_the_loop_reference_byte_for_byte(self, function):
        sheets = sheet_triple(CharismaKind.INDEX, WITNESS, function)
        plain = assemble_surface(sheets, walls=False)
        walled = assemble_surface(sheets, walls=True)
        wall, wall_branch = loop_wall_faces(sheets)
        assert len(wall) == (3 if function.is_root else 2) * 2 * (WITNESS.n_r - 1)
        assert walled.faces.tobytes() == np.concatenate([plain.faces, wall]).tobytes()
        assert walled.face_branch.tobytes() == np.concatenate([plain.face_branch, wall_branch]).tobytes()

    def test_walls_ignored_for_continuous_charisma(self):
        sheets = sheet_triple(CharismaKind.SIN)
        assert assemble_surface(sheets, walls=True).n_faces == assemble_surface(sheets).n_faces

    def test_walls_never_reproduce_the_phase_wrap_join(self):
        sheets = sheet_triple(CharismaKind.PHASE)
        mesh = assemble_surface(sheets, weld=True, walls=True)
        open_seams = [s for s in mesh.seams if not s.welded]
        assert len(open_seams) == 1 and open_seams[0].max_gap == pytest.approx(2 * math.pi, abs=1e-12)
        base = sum(len(s.faces) for s in sheets)
        assert mesh.n_faces == base  # no wall across the wrap


class TestAssembleContinuousSurfaces:
    def test_sin_surface_welds_everywhere(self):
        sheets = sheet_triple(CharismaKind.SIN)
        mesh = assemble_surface(sheets, weld=True, weld_tol=1e-9)
        assert [s.welded for s in mesh.seams] == [True, True, True]
        assert mesh.n_vertices == 3 * 27 - 3 * SMALL.n_r
        assert mesh.n_faces == 3 * 32
        assert mesh.faces.min() >= 0 and mesh.faces.max() < mesh.n_vertices

    def test_sin_seam_gaps_match_case_formula_oracle(self):
        sheets = sheet_triple(CharismaKind.SIN)
        mesh = assemble_surface(sheets, weld=True)
        by_branch = {s.branch: s for s in sheets}
        for seam in mesh.seams:
            z_up = by_branch[seam.upper_branch].z[:, -1]
            z_low = by_branch[seam.lower_branch].z[:, 0]
            oracle = max(
                abs(
                    math.sin(cmath.phase(cbrt_case(complex(a), seam.upper_branch)))
                    - math.sin(cmath.phase(cbrt_case(complex(b), seam.lower_branch)))
                )
                for a, b in zip(z_up, z_low)
            )
            assert oracle < 1e-9
            assert seam.max_gap < 1e-9
            assert seam.max_gap == pytest.approx(oracle, abs=1e-12)

    def test_cos_surface_welds_everywhere(self):
        mesh = assemble_surface(sheet_triple(CharismaKind.COS), weld=True)
        assert all(s.welded for s in mesh.seams)
        assert max(s.max_gap for s in mesh.seams) < 1e-9

    def test_square_root_sheets_glue_both_ways(self):
        root2 = IndexedFunction.root(2)
        sheets = [build_sheet(root2, k, CharismaKind.SIN, SMALL) for k in (0, 1)]
        mesh = assemble_surface(sheets, weld=True)
        pairs = {(s.upper_branch, s.lower_branch) for s in mesh.seams}
        assert pairs == {(0, 1), (1, 0)}
        assert all(s.welded for s in mesh.seams)

    def test_log_helix_seams_are_exact(self):
        sheets = [build_sheet(LOG, k, CharismaKind.IMAG, SMALL) for k in range(-2, 3)]
        mesh = assemble_surface(sheets, weld=True)
        assert [(s.upper_branch, s.lower_branch) for s in mesh.seams] == [
            (-2, -1), (-1, 0), (0, 1), (1, 2),
        ]
        assert all(s.welded for s in mesh.seams)
        assert max(s.max_gap for s in mesh.seams) <= 1e-15

    def test_log_index_sheets_stack_one_apart(self):
        sheets = [build_sheet(LOG, k, CharismaKind.INDEX, SMALL) for k in range(-2, 3)]
        mesh = assemble_surface(sheets, weld=True)
        assert [s.max_gap for s in mesh.seams] == [1.0] * 4
        assert not any(s.welded for s in mesh.seams)

    def test_single_sheet_has_no_seams(self):
        sheet = build_sheet(LOG, 0, CharismaKind.IMAG, SMALL)
        mesh = assemble_surface([sheet], weld=True)
        assert mesh.seams == []
        assert mesh.n_vertices == sheet.n_vertices
        assert mesh.n_faces == len(sheet.faces)


class TestWeldCorrectness:
    def test_vertex_movement_below_tolerance(self):
        sheets = sheet_triple(CharismaKind.SIN, WITNESS)
        by_branch = {s.branch: s for s in sheets}
        mesh = assemble_surface(sheets, weld=True, weld_tol=1e-9)
        for seam in mesh.seams:
            up, low = by_branch[seam.upper_branch], by_branch[seam.lower_branch]
            pu = np.column_stack(
                [up.z.real[:, -1], up.z.imag[:, -1], up.c[:, -1]]
            )
            pl = np.column_stack(
                [low.z.real[:, 0], low.z.imag[:, 0], low.c[:, 0]]
            )
            assert np.max(np.linalg.norm(pu - pl, axis=1)) <= 1e-9

    def test_face_area_multiset_preserved(self):
        # the fp seam offset is ~5e-16, so the 10-eps relative bound is
        # meaningful only while triangle extents dominate it
        sheets = sheet_triple(CharismaKind.SIN, WITNESS)
        pre = assemble_surface(sheets, weld=False)
        post = assemble_surface(sheets, weld=True)
        a0 = np.sort(triangle_areas(pre.positions, pre.faces))
        a1 = np.sort(triangle_areas(post.positions, post.faces))
        assert len(a0) == len(a1)
        assert np.max(np.abs(a0 - a1) / a0) <= 10 * np.finfo(float).eps

    def test_welded_seams_share_vertices(self):
        sheets = sheet_triple(CharismaKind.SIN, WITNESS)
        mesh = assemble_surface(sheets, weld=True)
        for seam in mesh.seams:
            assert len(seam.merged_vertices) == WITNESS.n_r
            # shared: faces on both sides reference the same vertex ids
            for v in seam.merged_vertices:
                owners = set(mesh.face_branch[np.any(mesh.faces == v, axis=1)].tolist())
                assert {seam.upper_branch, seam.lower_branch} <= owners


class TestAssemblyErrors:
    def test_grid_mismatch(self):
        a = build_sheet(ROOT3, 0, CharismaKind.SIN, SMALL)
        b = build_sheet(ROOT3, 1, CharismaKind.SIN, WITNESS)
        with pytest.raises(GridMismatchError):
            assemble_surface([a, b])

    def test_kind_and_function_mismatch(self):
        a = build_sheet(ROOT3, 0, CharismaKind.SIN, SMALL)
        b = build_sheet(ROOT3, 1, CharismaKind.COS, SMALL)
        with pytest.raises(GridMismatchError):
            assemble_surface([a, b])
        c = build_sheet(IndexedFunction.root(2), 1, CharismaKind.SIN, SMALL)
        with pytest.raises(GridMismatchError):
            assemble_surface([a, c])

    @pytest.mark.parametrize(
        "tol",
        [math.nan, math.inf, -1.0, None, [1], "1e-9", pytest.param(10**400, id="int-beyond-float")],
        ids=repr,
    )
    def test_rejects_a_weld_tolerance_that_is_not_finite_and_non_negative(self, tol):
        sheets = sheet_triple(CharismaKind.INDEX)
        for weld in (True, False):
            with pytest.raises(ValueError, match="weld tolerance"):
                assemble_surface(sheets, weld=weld, weld_tol=tol)

    def test_duplicates_and_empty(self):
        a = build_sheet(ROOT3, 0, CharismaKind.SIN, SMALL)
        with pytest.raises(GridMismatchError):
            assemble_surface([a, a])
        with pytest.raises(GridMismatchError):
            assemble_surface([])


class TestSelfIntersectionWitness:
    def test_sheets_cross_on_the_imaginary_axis(self):
        mesh = assemble_surface(sheet_triple(CharismaKind.SIN, WITNESS), weld=True)
        x, y, c = mesh.positions.T
        k = mesh.branch
        neg_axis = (np.abs(x) < 1e-12) & (y < 0)
        pos_axis = (np.abs(x) < 1e-12) & (y > 0)
        assert neg_axis.sum() == 3 * WITNESS.n_r and pos_axis.sum() == 3 * WITNESS.n_r
        for kk in (-1, 0):
            assert np.allclose(c[neg_axis & (k == kk)], -0.5, atol=1e-12, rtol=0)
        for kk in (0, 1):
            assert np.allclose(c[pos_axis & (k == kk)], 0.5, atol=1e-12, rtol=0)
        # the same (x, y) samples appear on every sheet
        for kk in (-1, 1):
            assert np.array_equal(
                mesh.positions[neg_axis & (k == 0)][:, :2],
                mesh.positions[neg_axis & (k == kk)][:, :2],
            )


class TestColourChangeLocus:
    def test_welded_seam_vertices_lie_on_the_negative_real_axis(self):
        mesh = assemble_surface(sheet_triple(CharismaKind.SIN, WITNESS), weld=True)
        targets = (-SQRT3_2, 0.0, SQRT3_2)
        for seam in mesh.seams:
            assert seam.welded and seam.upper_branch != seam.lower_branch
            for v in seam.merged_vertices:
                x, y, c = mesh.positions[v]
                assert x < 0 and abs(y) <= 1e-9
                assert min(abs(c - t) for t in targets) <= 1e-9


class TestRangeChart:
    def test_flat_chart_colors_by_branch_region(self):
        chart = build_range_chart(ROOT3, SMALL)
        assert chart.range_chart
        assert np.all(chart.positions[:, 2] == 0.0)
        for i in range(chart.n_vertices):
            w = complex(chart.w[i])
            assert chart.branch[i] == branch_of(w, ROOT3)
            assert tuple(chart.colors[i]) == branch_color(int(chart.branch[i]))
        assert sorted(chart.sheet_branches) == [-1, 0, 1]
        assert chart.seams == []


class TestPalette:
    def test_cyclic_and_deterministic(self):
        assert branch_color(0) == PALETTE[0]
        assert branch_color(-1) == PALETTE[7]
        assert branch_color(9) == PALETTE[1]
        assert branch_color(3) == branch_color(3 + 8)


class TestSurfacePointAccess:
    def test_point_records(self):
        mesh = assemble_surface([build_sheet(ROOT3, 1, CharismaKind.SIN, SMALL)])
        p = mesh.point(0)
        assert (p.x, p.y, p.c) == tuple(mesh.positions[0])
        assert p.k == 1
        assert p.w == complex(mesh.w[0])
        assert sum(1 for _ in mesh.iter_points()) == mesh.n_vertices
