"""Grid sampling, sheet lifting, assembly, seam and weld tests."""

import cmath
import dataclasses
import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riemannmesh import (
    DEFAULT_WELD_TOL,
    PALETTE,
    BranchIndexError,
    CharismaCompatibilityError,
    CharismaKind,
    compatible_kinds,
    DomainError,
    DomainGrid,
    GridError,
    IndexedFunction,
    SheetStack,
    SurfaceMesh,
    assemble_surface,
    branch_color,
    branch_of,
    build_range_chart,
    build_sheets,
    continuation_branch,
    evaluate_charisma,
    principal_phase,
    sample_domain,
    seam_report,
)
from riemannmesh import branches as branches_module, mesh as mesh_module
from riemannmesh.branches import _batch_values, _distinct
from riemannmesh.mesh import _PALETTE_RGB, MAX_GRID_POINTS, lattice_faces

LOG = IndexedFunction.log()
ROOT3 = IndexedFunction.root(3)
SQRT3_2 = math.sqrt(3) / 2
OMEGA = cmath.exp(2j * math.pi / 3)

SMALL = DomainGrid(0.5, 2.0, 3, 8)
WITNESS = DomainGrid(0.5, 2.0, 4, 16)  # multiple of 4 so the imaginary axis is sampled
ODD = DomainGrid(0.5, 2.0, 3, 9)  # no column at theta = 0


def sheet_triple(kind, grid=SMALL, function=ROOT3):
    return build_sheets(function, (-1, 0, 1), kind, grid)


def stack_w(sheets):
    """The range values f_k(z) of every sheet of a stack, of the shape of its c."""
    return _batch_values(sheets.function, sample_domain(sheets.grid), sheets.branches)


def triangle_areas(positions, faces):
    v = positions[faces]
    return 0.5 * np.linalg.norm(np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]), axis=1)


def loop_wall_faces(sheets):
    """Wall triangles and their owning branches, one radial step at a time:
    the reference for the order assemble_surface appends them in."""
    n_r, n_cols = sheets.heights[1].shape
    faces, branches = [], []
    for k in sheets.branches:
        nxt = continuation_branch(sheets.function, k)
        if nxt == k or nxt not in sheets.branches:
            continue
        # vertex (i, j) of sheet s has id (s * n_r + i) * n_cols + j
        upper = [(sheets.branches.index(k) * n_r + i) * n_cols + n_cols - 1 for i in range(n_r)]
        lower = [(sheets.branches.index(nxt) * n_r + i) * n_cols for i in range(n_r)]
        for i in range(n_r - 1):
            faces.append((upper[i], lower[i], lower[i + 1]))
            faces.append((upper[i], lower[i + 1], upper[i + 1]))
            branches.extend((k, k))
    return np.asarray(faces, dtype=np.int32), np.asarray(branches, dtype=np.int64)


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
            # beyond 2**1023, abs of a sampled point may overflow
            pytest.param(dict(r_max=math.nextafter(2.0**1023, math.inf)), id="r_max-beyond-2**1023"),
            pytest.param(dict(r_max=sys.float_info.max), id="r_max-largest-float"),
            pytest.param(dict(n_r=MAX_GRID_POINTS // 9 + 1), id="n_r-beyond-cap"),
            pytest.param(dict(n_theta=MAX_GRID_POINTS // 3), id="n_theta-beyond-cap"),
            # below 2**-1022, r sin(-pi) rounds to -0.0 or to a subnormal too coarse for a phase of -pi
            pytest.param(dict(r_min=5e-324), id="r_min-least-subnormal"),
            pytest.param(dict(r_min=1e-318), id="r_min-subnormal"),
            pytest.param(dict(r_min=math.nextafter(2.0**-1022, 0)), id="r_min-below-2**-1022"),
        ],
    )
    def test_rejects_invalid_parameters(self, kwargs):
        (field,) = kwargs  # the one parameter set wrong is the one named
        base = dict(r_min=0.5, r_max=2.0, n_r=3, n_theta=8)
        base.update(kwargs)
        with pytest.raises(GridError) as exc:
            DomainGrid(**base)
        assert exc.value.field == field

    @pytest.mark.parametrize("spacing", ["linear", "log"])
    @pytest.mark.parametrize(
        "r_min,r_max,n_r", [(1.0, 1.0000000000000002, 5), (2.0**-1022, 2.0**-1022 + 1e-323, 4)],
        ids=["near-one", "least-normal"],
    )
    def test_rejects_radii_that_repeat(self, r_min, r_max, n_r, spacing):
        # fewer distinct floats than radii between r_min and r_max: a repeated radius makes zero-area faces
        with pytest.raises(GridError, match=f"{n_r} distinct radii") as exc:
            DomainGrid(r_min, r_max, n_r, 8, radial_spacing=spacing)
        assert exc.value.field == "r_max"

    def test_caps_the_lattice_points_without_allocating(self):
        assert DomainGrid(n_r=200, n_theta=1200).n_r * 1201 < MAX_GRID_POINTS / 4
        DomainGrid(n_r=1024, n_theta=MAX_GRID_POINTS // 1024 - 1)  # exactly at the cap
        with pytest.raises(GridError, match="at most"):
            DomainGrid(n_r=1024, n_theta=MAX_GRID_POINTS // 1024)
        # the product is taken in Python ints, so numpy ints cannot wrap past the cap
        with pytest.raises(GridError, match="at most"):
            DomainGrid(n_r=np.int64(2**32), n_theta=np.int64(2**32 - 1))

    def test_numpy_integer_counts_are_stored_as_ints(self):
        # an int8 n_theta of 127 kept as int8 would make n_cols wrap to -128
        grid = DomainGrid(n_r=np.int8(2), n_theta=np.int8(127))
        assert (grid.n_r, grid.n_theta, grid.n_cols) == (2, 127, 128) and type(grid.n_theta) is int
        sheets = build_sheets(IndexedFunction.root(3), (0,), CharismaKind.SIN, grid)
        assert sample_domain(sheets.grid).tobytes() == sample_domain(DomainGrid(n_r=2, n_theta=127)).tobytes()

    @pytest.mark.parametrize("spacing", ["linear", "log"])
    def test_radii_at_the_ends_of_the_float_range(self, spacing):
        # from the least r_min accepted, 2**-1022, to the largest r_max, 2**1023; no warning escapes
        radii = DomainGrid(2.0**-1022, 2.0**1023, 4, 8, radial_spacing=spacing).radii()
        assert np.isfinite(radii).all() and radii[0] == 2.0**-1022 and radii[-1] == 2.0**1023

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(
        st.sampled_from([2.0**-1022, math.nextafter(2.0**-1022, 1), 2.3e-308, 1e-300, 0.05, 1.0]),
        st.sampled_from([2.0**1023, math.nextafter(2.0**1023, 0), 8e307, 1e300, 2.0])
        | st.floats(2.0, 2.0**1023),
        st.integers(2, 6),
        st.sampled_from([8, 9, 239, 240, 241]) | st.integers(8, 2000),
        st.sampled_from(["linear", "log"]),
    )
    def test_every_sample_at_the_radius_extremes_has_a_finite_modulus(self, r_min, r_max, n_r, n_theta, spacing):
        # the invariants the lattice rules give: no sampled z is 0 or non-finite, abs never overflows,
        # and the cut columns have phases -fl(pi) and fl(pi) exactly
        z = sample_domain(DomainGrid(r_min, r_max, n_r, n_theta, radial_spacing=spacing))
        assert np.isfinite(z).all() and np.all(z != 0)
        assert all(math.isfinite(abs(v)) for v in z.ravel().tolist())
        assert [principal_phase(v) for v in z[:, 0].tolist()] == [-math.pi] * n_r
        assert [principal_phase(v) for v in z[:, -1].tolist()] == [math.pi] * n_r

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
    return np.asarray(faces, dtype=np.int32)


class TestSampleDomain:
    def test_lattice_shape_with_duplicated_cut_columns(self):
        z = sample_domain(DomainGrid(0.5, 1.0, 2, 8))
        assert z.shape == (2, 9)
        # first and last columns coincide geometrically on the cut...
        assert np.all(np.abs(z[:, 0] - z[:, -1]) < 1e-14)
        # ...but sit on opposite sides of it
        assert np.all(z[:, 0].imag < 0) and np.all(z[:, -1].imag > 0)

    @pytest.mark.parametrize("spacing", ["linear", "log"])
    @pytest.mark.parametrize(
        "r_min", [5e-324, 1e-310, 1e-308, 1.44e-308, 1.5e-308, 2e-308, 2.0**-1022, 2.3e-308, 1e-300, 1.8e-292, 1e-200, 0.5]
    )
    def test_the_lower_cut_column_stays_below_the_cut_at_every_radius(self, r_min, spacing):
        # from r = 2**-1022, the least r_min, on, r sin(-pi) rounds to a float below 0, not to a -0.0 that
        # the phase would fold onto +pi, and the theta = -pi column has phase -fl(pi) exactly: below
        # r = 1.8e-292 that float is subnormal, but its rounding error is at most 2.5e-324, 1.1e-16 of r.
        # A grid below 2**-1022, where the column's phase could only be kept near -pi, is refused
        if r_min < 2.0**-1022:
            with pytest.raises(GridError) as exc:
                DomainGrid(r_min, 2.0, 6, 8, radial_spacing=spacing)
            assert exc.value.field == "r_min"
            return
        grid = DomainGrid(r_min, 2.0, 6, 8, radial_spacing=spacing)
        z = sample_domain(grid)
        assert np.all(z[:, 0].imag < 0.0) and np.all(z[:, -1].imag >= 0.0)
        assert [principal_phase(v) for v in z[:, 0].tolist()] == [-math.pi] * 6
        assert [principal_phase(v) for v in z[:, -1].tolist()] == [math.pi] * 6

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
        assert faces.dtype == np.int32
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
        sheets = build_sheets(ROOT3, [0], CharismaKind.SIN, SMALL)
        assert stack_w(sheets).shape == sheets.c.shape == (1, 3, 9)
        assert len(sheets.faces) == 2 * 2 * 8

    def test_index_sheets_are_flat(self):
        sheets = sheet_triple(CharismaKind.INDEX)
        for k, c in zip(sheets.branches, sheets.c):
            assert np.all(c == float(k))

    def test_log_imag_sheet_fills_its_strip(self):
        c = build_sheets(LOG, [1], CharismaKind.IMAG, SMALL).c[0]
        # the duplicated -pi column recovers phase exactly -fl(pi), so the
        # strip is attained closed at both float endpoints
        assert np.all(c >= math.pi)
        assert np.all(c <= 3 * math.pi)
        assert c.min() == math.pi
        assert c.max() == 3 * math.pi

    def test_phase_sheet_window_for_branch_minus_one(self):
        c = build_sheets(ROOT3, [-1], CharismaKind.PHASE, SMALL).c[0]
        for row in c:
            assert all(a < b for a, b in zip(row, row[1:]))
        assert c.max() == pytest.approx(-math.pi / 3, abs=1e-12)
        assert np.all(c.argmax(axis=1) == SMALL.n_cols - 1)
        assert c.min() >= -math.pi
        assert c.min() == pytest.approx(-math.pi, abs=1e-12)

    @pytest.mark.parametrize(
        "function,k,kind",
        [(ROOT3, -1, CharismaKind.SIN), (ROOT3, 1, CharismaKind.PHASE), (LOG, 2, CharismaKind.IMAG)],
    )
    def test_recomputable_bit_for_bit(self, function, k, kind):
        sheets = build_sheets(function, [k], kind, SMALL)
        zs, ws = sample_domain(sheets.grid), stack_w(sheets)
        for i in range(3):
            for j in range(9):
                z = complex(zs[i, j])
                assert ws[0, i, j] == function.branch_value(z, k)
                assert sheets.c[0, i, j] == evaluate_charisma(z, k, function, kind)

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
        sheets = build_sheets(function, function.branch_indices() or range(-2, 3), kind, grid)
        zs = sample_domain(sheets.grid).ravel().tolist()
        for k, sheet_w, sheet_c in zip(sheets.branches, stack_w(sheets), sheets.c):
            w = np.array([function.branch_value(z, k) for z in zs])
            c = np.array([evaluate_charisma(z, k, function, kind) for z in zs])
            assert sheet_w.tobytes() == w.tobytes()
            assert sheet_c.tobytes() == c.tobytes()

    def test_range_values_classify_back_to_the_branch(self):
        sheets = sheet_triple(CharismaKind.SIN)
        for k, w_k in zip(sheets.branches, stack_w(sheets)):
            interior = w_k[:, 1:-1]  # cut columns are boundary-adjacent
            for w in interior.ravel():
                assert branch_of(complex(w), ROOT3) == k

    def test_no_degenerate_triangles(self):
        for kind in (CharismaKind.INDEX, CharismaKind.SIN):
            sheets = build_sheets(ROOT3, [0], kind, SMALL)
            z = sample_domain(sheets.grid)
            pos = np.column_stack(
                [z.real.ravel(), z.imag.ravel(), sheets.c[0].ravel()]
            )
            assert np.all(triangle_areas(pos, sheets.faces) > 0)

    def test_rejects_inadmissible_branch_and_bad_kind(self):
        with pytest.raises(BranchIndexError):
            build_sheets(ROOT3, [5], CharismaKind.SIN, SMALL)
        with pytest.raises(CharismaCompatibilityError):
            build_sheets(LOG, [0], CharismaKind.SIN, SMALL)


class TestBuildSheets:
    @pytest.mark.parametrize("function,kind", [(ROOT3, CharismaKind.COS), (LOG, CharismaKind.IMAG)])
    def test_one_pass_matches_one_sheet_at_a_time(self, function, kind):
        ks = list(function.branch_indices() or range(-2, 3))
        together = build_sheets(function, ks, kind, WITNESS)
        assert together.branches == tuple(ks)
        together_w = stack_w(together)
        assert together_w.shape == together.c.shape == (len(ks), 4, 17)
        for i, k in enumerate(ks):
            alone = build_sheets(function, [k], kind, WITNESS)
            assert together_w[i].tobytes() == stack_w(alone)[0].tobytes()
            assert together.c[i].tobytes() == alone.c[0].tobytes()
            assert sample_domain(together.grid).tobytes() == sample_domain(alone.grid).tobytes()
            assert together.faces.tobytes() == alone.faces.tobytes()

    @pytest.mark.parametrize("branches", [(), (0, 0), (-1, 0, 1, -1)], ids=repr)
    def test_rejects_an_empty_or_repeated_branch_list(self, branches):
        with pytest.raises(BranchIndexError):
            build_sheets(ROOT3, branches, CharismaKind.SIN, SMALL)

    def test_rejects_a_branch_beyond_int64(self):
        for k in (2**63, -2**63 - 1):
            with pytest.raises(BranchIndexError, match="int64"):
                build_sheets(LOG, [0, k], CharismaKind.INDEX, SMALL)
        edge = build_sheets(LOG, [2**63 - 1, -2**63], CharismaKind.INDEX, SMALL)
        mesh = assemble_surface(edge, weld=False)
        assert mesh.branch.min() == -2**63 and mesh.branch.max() == 2**63 - 1

    def test_rejects_an_index_window_whose_branches_share_a_height(self):
        for window in ([2**53 + 1, 2**53], [-2**53 - 1, -2**53], [0, 2**63 - 2, 2**63 - 1]):
            with pytest.raises(BranchIndexError, match=f"of {min(window)}..{max(window)} share one index height"):
                build_sheets(LOG, window, CharismaKind.INDEX, SMALL)
        with pytest.raises(BranchIndexError, match="repeated branches"):  # one branch twice is not two branches
            build_sheets(LOG, [2**53, 2**53], CharismaKind.INDEX, SMALL)
        # the rule is the index heights' own: imag heights are refused there by theirs
        with pytest.raises(BranchIndexError, match="imag heights of branch 9007199254740993 are floats 8.0 apart"):
            build_sheets(LOG, [2**53, 2**53 + 1], CharismaKind.IMAG, SMALL)

    def test_rejects_an_imag_window_whose_heights_do_not_resolve_the_angular_step(self):
        # at k = 1e15 the heights are 1.0 apart, 38 angular steps of the default grid: one seam read open at a gap
        # of 1.0 and the other welded at 0.0
        for window in (range(10**15, 10**15 + 3), [-10**15, 0], [2**63 - 1]):
            with pytest.raises(BranchIndexError, match=r"more than 0.125 of the angular step 2\*pi/240 = "):
                build_sheets(LOG, window, CharismaKind.IMAG, DomainGrid())
        # the least |k| refused at the default grid, 2.8e12, and the one below it
        with pytest.raises(BranchIndexError, match="branch -2799883368761 are floats 0.00390625 apart"):
            build_sheets(LOG, [0, -2799883368761], CharismaKind.IMAG, DomainGrid())
        assert build_sheets(LOG, [2799883368760], CharismaKind.IMAG, DomainGrid(n_r=2)).branches == (2799883368760,)
        # a coarser grid takes larger branches
        assert build_sheets(LOG, [10**13], CharismaKind.IMAG, DomainGrid(n_r=2, n_theta=8)).branches == (10**13,)

    @pytest.mark.parametrize(
        "function,window,kind,error,message",
        [
            (LOG, [2**63], CharismaKind.SIN, CharismaCompatibilityError,
             "charisma 'sin' is not defined for log; valid: index, imag"),
            (ROOT3, itertools.count(5), CharismaKind.SIN, BranchIndexError,
             "116509 or more sheets of 3x9 lattice points make 3145743 or more vertices; "
             "a surface holds at most 3145728"),
            (ROOT3, [0, 2**63, 5], CharismaKind.INDEX, BranchIndexError,
             "branch 9223372036854775808 is not admissible for root:3; expected -1..1"),
            (ROOT3, [1, 1, 0.5], CharismaKind.SIN, BranchIndexError, "branch index must be an integer, got 0.5"),
            (LOG, [0, 2**63, 2**63], CharismaKind.INDEX, BranchIndexError,
             "branch 9223372036854775808 lies outside int64, the mesh's branch index type"),
            (LOG, [-2**63 - 1, 2**63, 2**63 + 1], CharismaKind.INDEX, BranchIndexError,
             "branch -9223372036854775809 lies outside int64, the mesh's branch index type"),
            (LOG, [2**53, 2**53 + 1, 2**53], CharismaKind.INDEX, BranchIndexError,
             "two branches of 9007199254740992..9007199254740993 share one index height: "
             "from |k| = 2**53 on, not every integer is a float"),
            (LOG, [5, 6, 5], CharismaKind.IMAG, BranchIndexError, "repeated branches: [5, 6, 5]"),
            (LOG, [2**53, 2**53 + 1, 2**53], CharismaKind.IMAG, BranchIndexError,
             "the imag heights of branch 9007199254740993 are floats 8.0 apart, more than 0.125 of the "
             "angular step 2*pi/8 = 0.7853981633974483"),
        ],
        ids=["pair-before-window", "cap-before-admissible", "admissible-before-int64", "integer-before-repeat",
             "int64-before-repeat", "first-beyond-int64", "heights-before-repeat", "repeat-without-heights",
             "imag-heights-before-repeat"],
    )
    def test_a_window_breaking_two_rules_gets_the_first_rules_error(self, function, window, kind, error, message):
        with pytest.raises(error) as exc:
            build_sheets(function, window, kind, SMALL)
        assert type(exc.value) is error and str(exc.value) == message

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(st.sampled_from([2**52, 2**53, 2**54, -2**53]), st.integers(-16, 16), st.integers(1, 4))
    def test_an_index_window_near_2_53_is_built_only_with_distinct_heights(self, base, offset, width):
        window = range(base + offset, base + offset + width)
        try:
            sheets = build_sheets(LOG, window, CharismaKind.INDEX, SMALL)
        except BranchIndexError as e:
            assert "share one index height" in str(e)
            assert len({float(k) for k in window}) < width
        else:
            assert len(set(sheets.c[:, 0, 0].tolist())) == width

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(st.sampled_from([8, 9, 240, 1201]), st.integers(40, 62), st.integers(-4, 4), st.booleans())
    def test_an_imag_window_near_its_bound_is_built_only_with_heights_that_resolve_the_step(
        self, n_theta, exponent, offset, negative
    ):
        # k near where 2 pi |k| + pi crosses 2**exponent, where the heights' ulp doubles
        k = round((2.0**exponent - math.pi) / (2 * math.pi)) + offset
        k = -k if negative else k
        grid = DomainGrid(0.5, 2.0, 2, n_theta)
        step = 2 * math.pi / n_theta
        try:
            sheets = build_sheets(LOG, [k], CharismaKind.IMAG, grid)
        except BranchIndexError as e:
            assert "more than 0.125 of the angular step" in str(e)
            assert math.ulp(2 * math.pi * abs(k) + math.pi) > step / 8
        else:
            # neighbouring columns' heights differ by the step to within an eighth of it
            assert np.abs(np.diff(sheets.c, axis=-1) - step).max() <= step / 8 + 1e-12

    @pytest.mark.parametrize(
        "function,branches",
        [
            ("IndexedFunction.root(10**12)", "function.branch_indices()"),
            ("IndexedFunction.root(10**30)", "function.branch_indices()"),  # longer than sys.maxsize
            ("IndexedFunction.log()", "range(-10**12, 10**12, 3)"),
            ("IndexedFunction.log()", "[0] * 10**7"),
            ("IndexedFunction.log()", "itertools.count()"),  # endless
            ("IndexedFunction.log()", "(k for k in range(10**7))"),
        ],
        ids=["root-1e12", "root-1e30", "log-stepped-range", "list", "endless-iterator", "generator"],
    )
    def test_the_surface_cap_is_checked_before_the_branches_are_materialised(self, function, branches):
        # in a child under a 1 GiB address-space limit and a timeout, so a
        # materialised window fails fast here instead of filling memory
        code = (
            "import itertools, resource, time; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from riemannmesh import BranchIndexError, CharismaKind, DomainGrid, IndexedFunction, build_sheets\n"
            f"function = {function}\n"
            "start = time.perf_counter()\n"
            "try:\n"
            f"    build_sheets(function, {branches}, CharismaKind.INDEX, DomainGrid(n_r=2, n_theta=8))\n"
            "except BranchIndexError as e:\n"
            "    print(e)\n"
            "print(time.perf_counter() - start)\n"
        )
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=20, env=env)
        assert proc.returncode == 0, proc.stderr
        message, seconds = proc.stdout.splitlines()
        assert "a surface holds at most 3145728" in message
        # the branches are read only up to the cap, so the count read is a lower bound
        assert message.startswith("174763 or more sheets of 2x9 lattice points"), message
        assert float(seconds) < 1.0


class TestAssembleIndexSurface:
    def test_integer_jumps_never_weld(self):
        sheets = sheet_triple(CharismaKind.INDEX)
        mesh = assemble_surface(sheets, weld=True)
        report = {pair: gap for pair, gap, _ in seam_report(mesh)}
        assert report == {(-1, 0): 1.0, (0, 1): 1.0, (1, -1): 2.0}
        assert all(not s.welded for s in mesh.seams)
        assert mesh.n_vertices == 3 * 27  # nothing merged
        # so sheet i's faces are its lattice faces shifted by i sheets
        shifted = [sheets.faces + i * 27 for i in range(3)]
        assert mesh.faces.tobytes() == np.concatenate(shifted).tobytes()
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
        assert len(wall) == (2 if function.is_log else 3) * 2 * (WITNESS.n_r - 1)
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
        base = len(sheets.branches) * len(sheets.faces)
        assert mesh.n_faces == base  # no wall across the wrap


class TestAssembleContinuousSurfaces:
    def test_sin_surface_welds_everywhere(self):
        sheets = sheet_triple(CharismaKind.SIN)
        mesh = assemble_surface(sheets, weld=True, weld_tol=1e-9)
        assert [s.welded for s in mesh.seams] == [True, True, True]
        assert mesh.n_vertices == 3 * 27 - 3 * SMALL.n_r
        assert mesh.n_faces == 3 * 32
        assert mesh.faces.min() >= 0 and mesh.faces.max() < mesh.n_vertices

    @pytest.mark.parametrize("spacing", ["linear", "log"])
    @pytest.mark.parametrize(
        "function,kind,branches", [(ROOT3, CharismaKind.SIN, (-1, 0, 1)), (LOG, CharismaKind.IMAG, range(-2, 3))],
        ids=["root3-sin", "log-imag"],
    )
    def test_every_seam_welds_at_the_least_r_min(self, function, kind, branches, spacing):
        # below r = 2.02e-308 the lower cut column once took the upper side's values, and no seam welded;
        # at r_min = 2**-1022, the least accepted, its phase is -pi to the float, and every seam gap is
        # what it is at the default r_min
        def seams(r_min):
            grid = DomainGrid(r_min=r_min, radial_spacing=spacing)
            return assemble_surface(build_sheets(function, branches, kind, grid)).seams

        least, default = seams(2.0**-1022), seams(DomainGrid.r_min)
        assert all(s.welded for s in least) and len(least) == len(branches) - (function is LOG)
        assert [s.max_gap for s in least] == [s.max_gap for s in default]

    def test_sin_seam_gaps_match_case_formula_oracle(self):
        sheets = sheet_triple(CharismaKind.SIN)
        mesh = assemble_surface(sheets, weld=True)
        z = sample_domain(sheets.grid)
        for seam in mesh.seams:
            z_up = z[:, -1]
            z_low = z[:, 0]
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
        sheets = build_sheets(root2, (0, 1), CharismaKind.SIN, SMALL)
        mesh = assemble_surface(sheets, weld=True)
        pairs = {(s.upper_branch, s.lower_branch) for s in mesh.seams}
        assert pairs == {(0, 1), (1, 0)}
        assert all(s.welded for s in mesh.seams)

    def test_log_helix_seams_are_exact(self):
        sheets = build_sheets(LOG, range(-2, 3), CharismaKind.IMAG, SMALL)
        mesh = assemble_surface(sheets, weld=True)
        assert [(s.upper_branch, s.lower_branch) for s in mesh.seams] == [
            (-2, -1), (-1, 0), (0, 1), (1, 2),
        ]
        assert all(s.welded for s in mesh.seams)
        assert max(s.max_gap for s in mesh.seams) <= 1e-15

    def test_log_index_sheets_stack_one_apart(self):
        sheets = build_sheets(LOG, range(-2, 3), CharismaKind.INDEX, SMALL)
        mesh = assemble_surface(sheets, weld=True)
        assert [s.max_gap for s in mesh.seams] == [1.0] * 4
        assert not any(s.welded for s in mesh.seams)

    def test_single_sheet_has_no_seams(self):
        sheets = build_sheets(LOG, [0], CharismaKind.IMAG, SMALL)
        mesh = assemble_surface(sheets, weld=True)
        assert mesh.seams == []
        assert mesh.n_vertices == sheets.c.size
        assert mesh.n_faces == len(sheets.faces)


class TestWeldCorrectness:
    def test_vertex_movement_below_tolerance(self):
        sheets = sheet_triple(CharismaKind.SIN, WITNESS)
        z = sample_domain(sheets.grid)
        mesh = assemble_surface(sheets, weld=True, weld_tol=1e-9)
        for seam in mesh.seams:
            up = sheets.c[sheets.branches.index(seam.upper_branch)]
            low = sheets.c[sheets.branches.index(seam.lower_branch)]
            pu = np.column_stack(
                [z.real[:, -1], z.imag[:, -1], up[:, -1]]
            )
            pl = np.column_stack(
                [z.real[:, 0], z.imag[:, 0], low[:, 0]]
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


def loop_assemble_surface(sheets, *, weld, walls, weld_tol=DEFAULT_WELD_TOL):
    """assemble_surface one vertex, seam and face at a time: the reference
    for the broadcast positions, the welding renumbering and the face take."""
    n_r, n_cols = sheets.heights[1].shape
    ks = sheets.branches

    def vid(s, i, j):  # vertex (i, j) of sheet s, before welding
        return (s * n_r + i) * n_cols + j

    zs, ws = sample_domain(sheets.grid), stack_w(sheets)
    records = []  # x, y, c, k, w
    for s, k in enumerate(ks):
        for i in range(n_r):
            for j in range(n_cols):
                z = complex(zs[i, j])
                records.append((z.real, z.imag, float(sheets.c[s, i, j]), k, complex(ws[s, i, j])))
    merged_into, seams, walls_at = {}, [], []
    for s, k in enumerate(ks):
        nxt = continuation_branch(sheets.function, k)
        if nxt == k or nxt not in ks:
            continue
        t = ks.index(nxt)
        gaps = [abs(float(sheets.c[s, i, n_cols - 1]) - float(sheets.c[t, i, 0])) for i in range(n_r)]
        welded = weld and max(gaps) <= weld_tol
        seams.append((k, nxt, max(gaps), welded, s))
        if welded:
            for i in range(n_r):
                merged_into[vid(t, i, 0)] = vid(s, i, n_cols - 1)
        elif walls and sheets.kind is CharismaKind.INDEX:
            for i in range(n_r - 1):
                u0, u1 = vid(s, i, n_cols - 1), vid(s, i + 1, n_cols - 1)
                l0, l1 = vid(t, i, 0), vid(t, i + 1, 0)
                walls_at.append(((u0, l0, l1), (u0, l1, u1), k))
    kept = [v for v in range(len(records)) if v not in merged_into]
    renumber = {v: n for n, v in enumerate(kept)}
    renumber.update({v: renumber[u] for v, u in merged_into.items()})
    faces, face_branch = [], []
    for s, k in enumerate(ks):
        for f in sheets.faces.tolist():
            faces.append([renumber[s * n_r * n_cols + v] for v in f])
            face_branch.append(k)
    for a, b, k in walls_at:
        faces += [[renumber[v] for v in a], [renumber[v] for v in b]]
        face_branch += [k, k]
    merged = {s: tuple(renumber[vid(s, i, n_cols - 1)] for i in range(n_r)) for *_, welded, s in seams if welded}
    return dict(
        positions=np.array([records[v][:3] for v in kept]),
        branch=[records[v][3] for v in kept],
        w=np.array([records[v][4] for v in kept], dtype=complex),
        faces=np.array(faces, dtype=np.int32),
        face_branch=face_branch,
        seams=[(k, nxt, gap, welded, merged.get(s, ())) for k, nxt, gap, welded, s in seams],
    )


class TestAssemblyMatchesTheVertexLoop:
    @pytest.mark.parametrize(
        "function,kind",
        [(f, kind) for f in [IndexedFunction.root(n) for n in range(2, 7)] + [LOG] for kind in compatible_kinds(f)],
        ids=lambda v: v.label() if isinstance(v, IndexedFunction) else v.value,
    )
    def test_every_array_matches_byte_for_byte(self, function, kind):
        every = list(function.branch_indices() or range(-2, 3))
        # at 1.5, index sheets one apart weld and a root's wrap seam two or more apart stays
        # open, so with walls on one surface has both welded and walled seams
        tols = (DEFAULT_WELD_TOL, 1.5) if kind is CharismaKind.INDEX else (DEFAULT_WELD_TOL,)
        # the whole set, the set backwards, and a window whose seams lack a partner
        for ks in (every, every[::-1], every[1:3]):
            sheets = build_sheets(function, ks, kind, SMALL)
            for weld, walls, tol in itertools.product((False, True), (False, True), tols):
                mesh = assemble_surface(sheets, weld=weld, weld_tol=tol, walls=walls)
                want = loop_assemble_surface(sheets, weld=weld, walls=walls, weld_tol=tol)
                assert mesh.sheet_branches == tuple(ks) and mesh.welded == weld
                assert mesh.faces.dtype == np.int32
                assert mesh.branch.dtype == mesh.face_branch.dtype == np.int64
                assert mesh.positions.tobytes() == want["positions"].tobytes()
                assert mesh.branch.tolist() == want["branch"]
                assert mesh.w.tobytes() == want["w"].tobytes()
                assert [tuple(rgb) for rgb in mesh.colors.tolist()] == [branch_color(k) for k in want["branch"]]
                assert mesh.faces.tobytes() == want["faces"].tobytes()
                assert mesh.face_branch.tolist() == want["face_branch"]
                got = [(s.upper_branch, s.lower_branch, s.max_gap, s.welded, s.merged_vertices) for s in mesh.seams]
                assert got == want["seams"]


def keep_mask_index_arrays(sheets, *, weld, walls, weld_tol=DEFAULT_WELD_TOL):
    """source, renumber, walls and each seam's merged vertices as a keep mask
    over every pre-weld vertex gave them before a mesh derived them from two
    facts per sheet: flatnonzero(keep), cumsum(keep) and the weld remap. The
    reference for the mesh's expansions, as loop_lattice_faces is for the
    lattice faces."""
    c = sheets.c
    n_sheets, n_r, n_cols = c.shape
    sheet_of = {k: s for s, k in enumerate(sheets.branches)}
    pairs = [(s, sheet_of[nxt]) for s, k in enumerate(sheets.branches)
             if (nxt := continuation_branch(sheets.function, k)) in sheet_of]
    i, j = np.array(pairs, dtype=np.int32).reshape(-1, 2).T
    rows = np.arange(n_r, dtype=np.int32) * n_cols
    upper = (i * n_r * n_cols + n_cols - 1)[:, None] + rows
    lower = (j * n_r * n_cols)[:, None] + rows
    welded = np.all(np.abs(c[i, :, -1] - c[j, :, 0]) <= weld_tol, axis=1) & weld
    walled = ~welded & (walls and sheets.kind is CharismaKind.INDEX)
    keep = np.ones(c.size, dtype=bool)
    keep[lower[welded]] = False
    renumber = np.cumsum(keep, dtype=np.int32) - 1
    renumber[lower[welded]] = renumber[upper[welded]]
    u, l = upper[walled], lower[walled]
    wall = np.stack([u[:, :-1], l[:, :-1], l[:, 1:], u[:, :-1], l[:, 1:], u[:, 1:]], axis=-1).reshape(-1, 3)
    return dict(
        source=np.flatnonzero(keep).astype(np.int32),
        renumber=renumber,
        walls=renumber[wall],
        merged=[tuple(m) if w else () for m, w in zip(renumber[upper].tolist(), welded.tolist())],
    )


class TestIndexExpansionsMatchTheKeepMask:
    @pytest.mark.parametrize(
        "function,kind",
        [(f, kind) for f in [IndexedFunction.root(n) for n in range(2, 7)] + [LOG] for kind in compatible_kinds(f)],
        ids=lambda v: v.label() if isinstance(v, IndexedFunction) else v.value,
    )
    def test_source_renumber_walls_and_merged_vertices_match_bit_for_bit(self, function, kind):
        every = list(function.branch_indices() or range(-2, 3))
        # at 1.5, index sheets one apart weld and a root's wrap seam two or more apart stays open
        tols = (DEFAULT_WELD_TOL, 1.5) if kind is CharismaKind.INDEX else (DEFAULT_WELD_TOL,)
        # in order a welded lower column's partner comes before it, backwards after it; the windows of
        # two lack a partner on one side, and a root's wrap seam puts the partner at the other end
        windows = (every, every[::-1], every[1:3], every[2:0:-1])
        for grid, ks, weld, walls, tol in itertools.product((SMALL, ODD), windows, (False, True), (False, True), tols):
            sheets = build_sheets(function, ks, kind, grid)
            mesh = assemble_surface(sheets, weld=weld, weld_tol=tol, walls=walls)
            want = keep_mask_index_arrays(sheets, weld=weld, walls=walls, weld_tol=tol)
            for name in ("source", "renumber", "walls"):
                got = getattr(mesh, name)
                assert got.dtype == np.int32 and not got.flags.writeable
                assert got.tobytes() == want[name].tobytes(), name
            assert [s.merged_vertices for s in mesh.seams] == want["merged"]
            # two facts per sheet: no stored array has an entry per vertex or face but the heights and lattice
            assert mesh.sheet_start.shape == (len(ks) + 1,) and mesh.welded_into.shape == (len(ks),)
            assert mesh.n_vertices == len(want["source"]) and mesh.n_faces == len(mesh.faces)

    @pytest.mark.parametrize("grid", [SMALL, ODD], ids=["even", "odd"])
    @pytest.mark.parametrize("function", [ROOT3, LOG, IndexedFunction.root(2**63 - 1)], ids=lambda f: f.label())
    def test_a_range_chart_is_one_sheet_with_nothing_dropped(self, function, grid):
        chart = build_range_chart(function, grid)
        every = np.arange(grid.n_r * grid.n_cols, dtype=np.int32)
        for name in ("source", "renumber"):
            assert getattr(chart, name).tobytes() == every.tobytes()
        assert chart.walls.shape == (0, 3) and chart.faces.tobytes() == lattice_faces(grid.n_r, grid.n_cols).tobytes()
        assert chart.sheet_start.tolist() == [0, every.size] and chart.welded_into.tolist() == [-1]

    def test_no_mesh_or_stack_stores_an_index_array(self):
        stored = {f.name for f in dataclasses.fields(SurfaceMesh)} | {f.name for f in dataclasses.fields(SheetStack)}
        assert not stored & {"faces", "sheet_faces", "source", "renumber"}


def stored_sample_domain(grid):
    """The lattice as sample_domain built it while a stack and a mesh stored
    it: the reference for z and both lattice parts, as loop_sample_domain is
    for sample_domain."""
    radii = grid.radii()[:, None]
    thetas = grid.thetas().tolist()
    z = np.empty((grid.n_r, grid.n_cols), dtype=complex)
    z.real = radii * [math.cos(t) for t in thetas]
    z.imag = radii * [math.sin(t) for t in thetas]
    return z


def per_point_heights(function, z, branches, kind):
    """The heights of every branch at every point of z, of shape
    (len(branches), *z.shape), as _batch_heights computed them while a stack
    stored a height per sheet and point: the reference for the height table's
    expansions."""
    b = branches_module
    shape = (len(branches),) + z.shape
    if kind is CharismaKind.INDEX:
        c = np.empty(shape)
        for row, k in zip(c, branches):
            row.fill(float(k))
        return c
    if kind is CharismaKind.PHASE:
        return b._phase(b._batch_values(function, z, branches), b._atan2_each)
    ph = b._phase(z, b._atan2_each).ravel()
    ks = np.array(branches, float)[:, None]
    if kind is CharismaKind.IMAG:
        return b._log_height(ph, ks).reshape(shape)
    phases, at_phase = _distinct(ph)
    table = b._map_each(math.cos if kind is CharismaKind.COS else math.sin, b._root_angle(phases, function.n, ks))
    return table[:, at_phase].reshape(shape)


# both n_theta parities, each with both radial spacings
PARITY_GRIDS = [SMALL, ODD, DomainGrid(0.5, 2.0, 3, 8, "log"), DomainGrid(0.05, 2.0, 4, 9, "log")]


class TestHeightTableExpansions:
    @pytest.mark.parametrize(
        "function,kind",
        [(f, kind) for f in [IndexedFunction.root(n) for n in range(2, 7)] + [LOG] for kind in compatible_kinds(f)],
        ids=lambda v: v.label() if isinstance(v, IndexedFunction) else v.value,
    )
    def test_c_sheet_c_z_and_the_lattice_parts_match_the_per_point_reference_bit_for_bit(self, function, kind):
        every = list(function.branch_indices() or range(-2, 3))
        for grid in PARITY_GRIDS:
            z = stored_sample_domain(grid)
            want = per_point_heights(function, z, every, kind)
            sheets = build_sheets(function, every, kind, grid)
            mesh = assemble_surface(sheets)
            # tobytes compares every bit, so a -0.0 that became 0.0 fails
            values, at = mesh.heights
            for got in (sheets.c, values[:, at]):
                assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
            assert not sheets.c.flags.writeable and not values.flags.writeable
            for got in (sample_domain(sheets.grid), sample_domain(mesh.grid), sample_domain(grid)):
                assert got.tobytes() == z.tobytes()
            assert grid.lattice_part(math.cos).tobytes() == z.real.tobytes()
            assert grid.lattice_part(math.sin).tobytes() == z.imag.tobytes()
            # the table: no array of a height per sheet and point but phase's, and one index for every sheet
            values, at = sheets.heights
            assert at.dtype == np.int32 and at.shape == z.shape and not values.flags.writeable
            phases = branches_module._phase(z, branches_module._atan2_each)
            columns = {CharismaKind.INDEX: 1, CharismaKind.PHASE: z.size}.get(kind, len(_distinct(phases)[0]))
            assert values.shape == (len(every), columns)
            assert columns < z.size or kind is CharismaKind.PHASE
            if kind is CharismaKind.PHASE:
                assert at.reshape(-1).tolist() == list(range(z.size))
            elif kind is CharismaKind.INDEX:
                assert at.strides == (0, 0) and not at.any()

    @pytest.mark.parametrize("grid", PARITY_GRIDS, ids=["even", "odd", "even-log", "odd-log"])
    @pytest.mark.parametrize("function", [ROOT3, IndexedFunction.root(2), LOG, IndexedFunction.root(2**63 - 1)],
                             ids=lambda f: f.label())
    def test_a_range_chart_is_one_height_over_its_lattice(self, function, grid):
        chart = build_range_chart(function, grid)
        z = stored_sample_domain(grid)
        values, at = chart.heights
        assert values[:, at].tobytes() == np.zeros((1,) + z.shape).tobytes()
        assert sample_domain(chart.grid).tobytes() == z.tobytes() and chart.sheet_w.tobytes() == z[None].tobytes()
        assert values.shape == (1, 1) and at.shape == z.shape and at.strides == (0, 0) and not at.any()

    def test_no_stack_or_mesh_stores_a_lattice_or_per_point_heights(self):
        stored = {f.name for f in dataclasses.fields(SurfaceMesh)} | {f.name for f in dataclasses.fields(SheetStack)}
        assert not stored & {"z", "c", "sheet_c", "x", "y"} and {"grid", "heights"} <= stored
        # nor does either expand the lattice, the range values or the lattice faces under a name of its own
        for home, name in [(SheetStack, "z"), (SheetStack, "w"), (SurfaceMesh, "z"), (SurfaceMesh, "sheet_c"),
                           (SurfaceMesh, "sheet_faces"), (mesh_module, "_sheet_values")]:
            assert not hasattr(home, name), name


class TestBranchRuns:
    @pytest.mark.parametrize(
        "function,kind",
        [(f, kind) for f in [IndexedFunction.root(n) for n in range(2, 7)] + [LOG] for kind in compatible_kinds(f)]
        + [(f, None) for f in (ROOT3, LOG, IndexedFunction.root(2**63 - 1))],  # None: the range chart
        ids=lambda v: v.label() if isinstance(v, IndexedFunction) else getattr(v, "value", "range"),
    )
    def test_runs_are_canonical_and_expand_to_the_vertex_loop(self, function, kind):
        meshes = []  # each mesh, with the branch of each vertex and of each face as a loop gives them
        if kind is None:
            for grid in (WITNESS, ODD):
                chart = build_range_chart(function, grid)
                branch = [branch_of(w, function) for w in chart.w.tolist()]
                # the two faces of a lattice quad take the branch of its low corner, their first vertex
                meshes.append((chart, branch, [branch[a] for a in chart.faces[:, 0].tolist()]))
        else:
            # at 1.5, index sheets one apart weld, and the wrap wall of a root follows its own sheet
            tols = (DEFAULT_WELD_TOL, 1.5) if kind is CharismaKind.INDEX else (DEFAULT_WELD_TOL,)
            for grid in (SMALL, ODD):
                sheets = build_sheets(function, function.branch_indices() or range(-2, 3), kind, grid)
                for weld, walls, tol in itertools.product((False, True), (False, True), tols):
                    mesh = assemble_surface(sheets, weld=weld, weld_tol=tol, walls=walls)
                    want = loop_assemble_surface(sheets, weld=weld, walls=walls, weld_tol=tol)
                    meshes.append((mesh, want["branch"], want["face_branch"]))
        for mesh, branch, face_branch in meshes:
            for (values, counts), n in ((mesh.branch_runs, mesh.n_vertices), (mesh.face_branch_runs, mesh.n_faces)):
                assert values.dtype == np.int64 and counts.dtype == np.int32
                assert np.all(values[1:] != values[:-1]) and np.all(counts > 0) and counts.sum() == n
            derived = (mesh.branch, mesh.colors, mesh.face_branch)
            assert [a.dtype for a in derived] == [np.int64, np.uint8, np.int64]
            assert not any(a.flags.writeable for a in derived)
            assert np.array_equal(mesh.colors, _PALETTE_RGB[mesh.branch % len(PALETTE)])
            assert mesh.branch.tolist() == branch and mesh.face_branch.tolist() == face_branch
        if function.label() == "root:9223372036854775807":  # nearly a run per vertex
            assert all(len(chart.branch_runs[0]) > chart.n_vertices / 2 for chart, *_ in meshes)


def traced_peak(build):
    """build() and the peak of the memory tracemalloc traces while it runs, above what was traced before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        built = build()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return built, peak


class TestBuildMemory:
    def test_peak_stays_near_the_stack_it_returns(self):
        # the default grid's sin stack: the lattice it lifts, its phases and their dedupe's temporaries set the
        # peak, 0.61 MB. Mapped over whole-lattice lists of Python floats instead of a chunk of points at a
        # time, atan2 peaked at 1.00 MB. The stack stores its heights as a table over the distinct phases and
        # no lattice, 46,576 B, 0.12 times the lattice and per-point heights it stored before (385,600 B), so
        # the bound, in units of the stack, is 14: 652,064 B, no looser in bytes than 1.7 times the stack with
        # its lattice (655,520 B), or 1.5 times it with faces (0.92 MB) before that
        sheets, peak = traced_peak(lambda: build_sheets(ROOT3, ROOT3.branch_indices(), CharismaKind.SIN, DomainGrid()))
        assert peak < 14 * sum(a.nbytes for a in sheets.heights)


class TestAssemblyMemory:
    @pytest.mark.parametrize(
        "kind,walls", [(CharismaKind.SIN, False), (CharismaKind.INDEX, True)], ids=["welded", "walled"]
    )
    def test_peak_stays_near_the_mesh_it_returns(self, kind, walls):
        # the default grid, its sheets built before tracing: the mesh keeps
        # the stack and adds two facts per sheet, its walls and runs; the
        # seam table's cut edges and the Seams are the transient. No array of
        # a vertex per lattice point is made, and no vertex or face table.
        # Both bounds are in units of the stack, its height table: 46,576 B (sin) and 38,584 B (index), where
        # the stack with its lattice and per-point heights was 385,600 B. At 0.4, the first, 18,630 B and
        # 15,434 B, is no looser than 0.05 of that stack (19,280 B), and so than 2.5 renumberings (289,200 B)
        # before it; at 0.15, the second, 6,986 B and 5,788 B, is no looser than 0.02 of it (7,712 B). Only
        # the cut columns' heights are read from the table
        sheets = build_sheets(ROOT3, ROOT3.branch_indices(), kind, DomainGrid())
        mesh, peak = traced_peak(lambda: assemble_surface(sheets, walls=walls))
        stored = (mesh.sheet_start, mesh.welded_into, mesh.walls, *mesh.branch_runs, *mesh.face_branch_runs)
        added = sum(a.nbytes for a in stored)
        stack = sum(a.nbytes for a in sheets.heights)
        assert peak - added < 0.4 * stack
        assert added < 0.15 * stack
        assert mesh.heights is sheets.heights and mesh.grid is sheets.grid


class TestAssemblyErrors:
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
        assert chart.faces.dtype == np.int32 and chart.branch.dtype == chart.face_branch.dtype == np.int64

    def test_refuses_a_log_index_beyond_int64(self):
        # Im w reaches 1e20, so ceil((Im w - pi) / 2 pi) passes 2**63
        with pytest.raises(DomainError, match="int64"):
            build_range_chart(LOG, DomainGrid(0.5, 1e20, 3, 8))
        assert build_range_chart(LOG, DomainGrid(0.5, 1e18, 3, 8)).branch.max() > 10**16
        # a root index lies within +-n/2, so a degree from 2**63 on fits int64
        # until an index on the grid passes 2**63
        with pytest.raises(DomainError, match="int64"):
            build_range_chart(IndexedFunction.root(2**70), SMALL)
        for n in (2**63 - 1, 2**63):
            huge = IndexedFunction.root(n)
            chart = build_range_chart(huge, SMALL)
            assert chart.branch.tolist() == [branch_of(w, huge) for w in chart.w.tolist()]
            assert chart.branch.min() < -(10**18)


class TestPalette:
    def test_cyclic_and_deterministic(self):
        assert branch_color(0) == PALETTE[0]
        assert branch_color(-1) == PALETTE[7]
        assert branch_color(9) == PALETTE[1]
        assert branch_color(3) == branch_color(3 + 8)
