"""The batch path of the evaluation core against the scalar API, byte for
byte, on hand-built arrays and on lattices; its libm call counts on a
lattice; and the one helper per formula that both paths call.

DomainGrid never samples a -0.0 imaginary part, a subnormal modulus or an
exact sector edge, so only arrays built by hand reach the -0.0 fold and
the edge rules in the batch path.
"""

import collections
import dataclasses
import math

import numpy as np
import pytest

from riemannmesh import (
    CharismaKind,
    DomainError,
    DomainGrid,
    IndexedFunction,
    SheetStack,
    assemble_surface,
    branch_of,
    build_range_chart,
    build_sheets,
    compatible_kinds,
    evaluate_charisma,
    sample_domain,
)
from riemannmesh import branches
from riemannmesh.branches import _batch_branch_index, _batch_heights, _batch_values

LOG = IndexedFunction.log()
FUNCTIONS = [IndexedFunction.root(n) for n in range(2, 7)] + [LOG]


def _points() -> list[complex]:
    pts = []
    for x in (1.0, 5e-324, 1e300):
        for re in (x, -x):
            for im in (0.0, -0.0):
                pts += [complex(re, im), complex(im, re)]  # the real and imaginary axes
    # every sector edge of root:2..6, ph = m pi / n, at three moduli
    for n in range(2, 7):
        for m in range(-n, n + 1):
            t = m * math.pi / n
            pts += [complex(r * math.cos(t), r * math.sin(t)) for r in (1e-300, 1.0, 1e300)]
    pts += [complex(1e300, 1e300), complex(-3.0, 4.0), complex(-3.0, -4.0), complex(5e-324, -5e-324)]
    return pts


POINTS = _points()
Z = np.array(POINTS, dtype=complex)
# POINTS forwards and backwards as two rows, each with phase 0 at moduli 0.5,
# 2.0, 0.5 and -1 with both zero signs: every libm result is gathered back to
# several points, as on a lattice
_SHARED = [complex(0.5, 0.0), complex(2.0, 0.0), complex(0.5, 0.0), complex(-1.0, 0.0), complex(-1.0, -0.0)]
REPEATED = np.array([POINTS + _SHARED, POINTS[::-1] + _SHARED[::-1]], dtype=complex)


def branches_of(function):
    return list(function.branch_indices() or range(-3, 4))


def _with_both_cut_columns(grid):
    """The lattice of grid, then its theta = +pi column twice more, with
    imaginary parts +0.0 and -0.0: the negative real axis with both zero
    signs, which the phase folds onto +pi."""
    z = sample_domain(grid)
    cut = np.repeat(z[:, -1:], 2, axis=1)
    cut.imag = [0.0, -0.0]
    return np.concatenate([z, cut], axis=1)


# every compatible (function, kind) on a root of each parity and on log
PARITIES = [IndexedFunction.root(2), IndexedFunction.root(3), LOG]
LATTICE = _with_both_cut_columns(DomainGrid(0.05, 2.0, 3, 16))


@pytest.mark.parametrize(
    "function,kind",
    [(f, kind) for f in FUNCTIONS for kind in compatible_kinds(f)],
    ids=lambda v: v.label() if isinstance(v, IndexedFunction) else v.value,
)
def test_values_and_heights_match_the_scalar_api_byte_for_byte(function, kind):
    ks = branches_of(function)
    for points in (Z, REPEATED) + ((LATTICE,) if function in PARITIES else ()):
        w = _batch_values(function, points, ks)
        values, at = _batch_heights(function, points, ks, kind)
        c = values[:, at]  # a table over the points' distinct phases, read through at
        assert w.shape == c.shape == (len(ks),) + points.shape and at.shape == points.shape
        assert w.dtype == complex and c.dtype == float
        zs = points.ravel().tolist()
        want_w = np.array([[function.branch_value(z, k) for z in zs] for k in ks])
        want_c = np.array([[evaluate_charisma(z, k, function, kind) for z in zs] for k in ks])
        assert w.tobytes() == want_w.tobytes()
        assert c.tobytes() == want_c.tobytes()


def test_the_lattice_holds_both_zero_signs_on_the_cut():
    # the +0.0 and -0.0 cut columns of the byte-for-byte test, both on the theta = +pi side
    cut = LATTICE[:, -2:]
    assert np.all(cut.real < 0) and not np.any(cut.imag)
    assert np.signbit(cut.imag).tolist() == [[False, True]] * len(cut)
    assert {branches.principal_phase(z) for z in cut.ravel().tolist()} == {math.pi}


@pytest.mark.parametrize(
    "function,kind",
    [(f, kind) for f in PARITIES for kind in compatible_kinds(f) if kind is not CharismaKind.PHASE],
    ids=lambda v: v.label() if isinstance(v, IndexedFunction) else v.value,
)
def test_heights_other_than_phase_compute_no_range_value(function, kind, monkeypatch):
    # _batch_values is the one batch path of w: no other height takes a modulus or a radius
    def refuse(*args):
        raise AssertionError("a range value was computed")

    mapped = []
    map_each = branches._map_each
    monkeypatch.setattr(branches, "_batch_values", refuse)
    monkeypatch.setattr(branches, "_root_radius", refuse)
    monkeypatch.setattr(branches, "_map_each", lambda fn, *arrays: mapped.append(fn) or map_each(fn, *arrays))
    ks = branches_of(function)
    values, at = _batch_heights(function, LATTICE, ks, kind)
    assert values[:, at].shape == (len(ks),) + LATTICE.shape
    assert abs not in mapped and (math.atan2 not in mapped) == (kind is CharismaKind.INDEX)


def test_libm_runs_once_per_distinct_argument(monkeypatch):
    grid = DomainGrid(0.05, 2.0, 20, 120)
    z = sample_domain(grid).ravel().tolist()
    # distinct folded phases by bit pattern; float.hex tells -0.0 from 0.0
    n_phases = len({math.atan2(v.imag + 0.0, v.real).hex() for v in z})
    calls = collections.Counter()

    def counted(name):
        fn = getattr(math, name)

        def call(*args):
            calls[name] += 1
            return fn(*args)

        return call

    for name in ("atan2", "cos", "sin"):
        monkeypatch.setattr(math, name, counted(name))
    sample_domain(grid)
    sampling = calls.copy()  # the lattice's own cos and sin, one per column
    calls.clear()
    build_sheets(IndexedFunction.root(3), (-1, 0, 1), CharismaKind.SIN, grid)
    calls.subtract(sampling)
    assert calls["atan2"] <= len(z)
    assert calls["cos"] <= 3 * n_phases and calls["sin"] <= 3 * n_phases


def _range_edges(function) -> list[complex]:
    """Range values on the region edges of function, both zero signs."""
    if function.is_log:
        return [complex(x, s * m * math.pi) for x in (0.0, -0.0, 1.5, -2.0)
                for s in (1, -1) for m in (1, 3, 5)]
    n = function.n
    if n == 2:  # the imaginary axis
        return [complex(zero, y) for zero in (0.0, -0.0) for y in (1.0, -1.0, 5e-324, -1e300)]
    if n == 4:  # the diagonals
        return [complex(sx * a, sy * a) for a in (1.0, 5e-324, 1e300) for sx in (1, -1) for sy in (1, -1)]
    # odd roots: the negative real axis
    return [complex(-x, zero) for x in (1.0, 5e-324, 1e300) for zero in (0.0, -0.0)]


@pytest.mark.parametrize(
    "function",
    FUNCTIONS + [IndexedFunction.root(n) for n in (2**63 - 1, 2**63, 2**70)],
    ids=lambda f: f.label(),
)
def test_range_classifier_matches_branch_of_on_region_edges(function):
    # a log index of Im = 1e300 overflows int64, see the test below; a root
    # index lies within +-n/2, so it fits int64 up to n = 2**64 at least
    ws = _range_edges(function) + [w for w in POINTS if not function.is_log or abs(w.imag) < 5e19]
    want = [branch_of(w, function) for w in ws]
    if not all(-2**63 <= k < 2**63 for k in want):
        with pytest.raises(DomainError, match="int64"):
            _batch_branch_index(np.array(ws, dtype=complex), function)
        return
    got = _batch_branch_index(np.array(ws, dtype=complex), function)
    assert got.dtype == np.int64
    assert got.tolist() == want


def test_range_classifier_refuses_an_index_beyond_int64():
    # index ceil((Im w - pi) / 2 pi): about 7.96e18 at Im 5e19, 9.55e18 > 2**63 at 6e19
    fits = np.array([complex(1.0, 5e19), complex(1.0, -5e19)])
    assert _batch_branch_index(fits, LOG).tolist() == [branch_of(w, LOG) for w in fits.tolist()]
    for im in (6e19, -6e19):
        with pytest.raises(DomainError, match="int64"):
            _batch_branch_index(np.array([complex(1.0, im)]), LOG)


# each formula's helper, a nudge of its result, and a function whose scalar
# and batch paths both go through it
_NUDGED = {
    "_phase": (lambda ph: ph / 2, IndexedFunction.root(3)),
    "_log_height": (lambda height: height + 1.0, LOG),
    "_root_angle": (lambda angle: angle + 0.25, IndexedFunction.root(3)),
    "_root_radius": (lambda radius: 2.0 * radius, IndexedFunction.root(3)),
    "_log_branch_index": (lambda k: k + 1, LOG),
    "_root_branch_index": (lambda k: k + 1, IndexedFunction.root(3)),
}


@pytest.mark.parametrize("name", _NUDGED)
def test_scalar_and_batch_paths_share_one_coding_of_each_formula(name, monkeypatch):
    # a change to the one helper of a formula moves both paths, in step
    nudge, function = _NUDGED[name]
    ks, kind = branches_of(function), compatible_kinds(function)[-1]
    ws = [w for w in POINTS if abs(w.imag) < 5e19]  # log indices within int64

    def both_paths():
        values, at = _batch_heights(function, Z, ks, kind)
        w, c = _batch_values(function, Z, ks), values[:, at]
        index = _batch_branch_index(np.array(ws), function)
        scalar_w = np.array([[function.branch_value(z, k) for z in POINTS] for k in ks])
        scalar_c = np.array([[evaluate_charisma(z, k, function, kind) for z in POINTS] for k in ks])
        scalar_index = np.array([branch_of(w, function) for w in ws])
        return [(batch.tobytes(), scalar.tobytes()) for batch, scalar in
                ((w, scalar_w), (c, scalar_c), (index, scalar_index))]

    before = both_paths()
    helper = getattr(branches, name)
    monkeypatch.setattr(branches, name, lambda *args: nudge(helper(*args)))
    after = both_paths()
    assert after != before
    for batch, scalar in after:
        assert batch == scalar


# the expansions each kind of result keeps: every property of it that returns an array
STACK_EXPANSIONS = {"c", "faces"}
MESH_EXPANSIONS = {"source", "renumber", "positions", "sheet_w", "w", "faces", "branch", "run_colors", "colors",
                   "face_branch"}


@pytest.mark.parametrize(
    "build",
    [
        lambda grid: build_sheets(IndexedFunction.root(3), (-1, 0, 1), CharismaKind.SIN, grid),
        # at 1.5 the index sheets one apart weld, and the wrap seam, two apart, gets a wall
        lambda grid: assemble_surface(build_sheets(IndexedFunction.root(3), (-1, 0, 1), CharismaKind.INDEX, grid),
                                      weld_tol=1.5, walls=True),
        lambda grid: build_range_chart(IndexedFunction.root(3), grid),
    ],
    ids=["stack", "welded-walled-surface", "range-chart"],
)
def test_every_stored_array_and_kept_expansion_is_read_only(build):
    grid = DomainGrid(0.5, 2.0, 3, 8)
    built = build(grid)
    if isinstance(built, SheetStack):
        assert _batch_values(built.function, sample_domain(grid), built.branches).shape == built.c.shape == (3, 3, 9)
        with pytest.raises(dataclasses.FrozenInstanceError):
            built.heights = built.heights
    else:
        assert built.range_chart or (any(s.welded for s in built.seams) and len(built.walls))
    arrays = {}  # each stored array, a pair's by its field and place, then each expansion
    for f in dataclasses.fields(built):
        value = getattr(built, f.name)
        for i, a in enumerate(value if isinstance(value, tuple) else (value,)):
            if isinstance(a, np.ndarray):
                arrays[f"{f.name}[{i}]"] = a
    expansions = {name: getattr(built, name) for name, attr in vars(type(built)).items() if isinstance(attr, property)}
    expansions = {name: a for name, a in expansions.items() if isinstance(a, np.ndarray)}
    assert set(expansions) == (STACK_EXPANSIONS if isinstance(built, SheetStack) else MESH_EXPANSIONS)
    for name, a in {**arrays, **expansions}.items():
        assert not a.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
