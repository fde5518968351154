"""Branch values and charisma heights against an independent 120-bit
mpmath evaluation.

The exact values are derived as in perfbench/oracle.py: the phase with the
-0.0 fold, then ln r + i(ph + 2 k pi) or r^(1/n) e^(i (ph + 2 k pi)/n).
Both codings of the core, the scalar API and the batch core, must land
within 8 ulp of |w|, and their heights within 8 * 2**-53 * max(1, |c|)
of the exact height c.
"""

import math

import numpy as np
import pytest

from riemannmesh import (
    CharismaKind,
    DomainGrid,
    IndexedFunction,
    branch_of,
    compatible_kinds,
    evaluate_charisma,
    sample_domain,
)
from riemannmesh.batch import _batch_heights, _batch_values

mp = pytest.importorskip("mpmath")

ULPS = 8
FUNCTIONS = [IndexedFunction.root(n) for n in range(2, 7)] + [IndexedFunction.log()]
GRID = DomainGrid(0.05, 2.0, 6, 24)


def edge_points() -> list[complex]:
    """Unit-modulus points on the real and imaginary axes, both zero signs,
    and on every sector edge ph = m pi / n of root:2..6; extreme moduli
    have a test of their own."""
    pts = [complex(re, im) for re in (1.0, -1.0) for im in (0.0, -0.0)]
    pts += [complex(zero, y) for zero in (0.0, -0.0) for y in (1.0, -1.0)]
    for n in range(2, 7):
        pts += [complex(math.cos(m * math.pi / n), math.sin(m * math.pi / n)) for m in range(-n, n + 1)]
    return pts


def exact_angle(function, z: complex, k: int):
    """ph z + 2 k pi, divided by n for a root: Im(ln_k z), or the angle of
    the n-th root's branch k at z."""
    with mp.workprec(120):
        y = 0.0 if z.imag == 0.0 else z.imag  # the -0.0 fold
        angle = mp.atan2(mp.mpf(y), mp.mpf(z.real)) + 2 * mp.pi * k
        return angle if function.is_log else angle / function.n


def exact_value(function, z: complex, k: int):
    with mp.workprec(120):
        angle = exact_angle(function, z, k)
        r = mp.hypot(mp.mpf(z.real), mp.mpf(z.imag))
        if function.is_log:
            return mp.mpc(mp.log(r), angle)
        return mp.root(r, function.n) * mp.expj(angle)


def exact_height(function, kind: CharismaKind, z: complex, k: int):
    with mp.workprec(120):
        angle = exact_angle(function, z, k)
        if kind is CharismaKind.SIN:
            return mp.sin(angle)
        if kind is CharismaKind.COS:
            return mp.cos(angle)
        if kind is CharismaKind.PHASE:  # ph w, wrapped into (-pi, pi]
            return angle - 2 * mp.pi if angle > mp.pi else angle
        return angle  # IMAG: Im(ln_k z)


def ulps_off(w: complex, exact) -> float:
    with mp.workprec(120):
        return float(abs(mp.mpc(w) - exact)) / math.ulp(abs(w)) if w else float(abs(exact))


@pytest.mark.parametrize("function", FUNCTIONS, ids=lambda f: f.label())
def test_both_codings_are_within_8_ulp(function):
    z = np.concatenate([sample_domain(GRID).ravel(), np.array(edge_points())])
    ks = list(function.branch_indices() or range(-2, 3))
    batch = _batch_values(function, z, ks)
    worst = 0.0
    for row, k in zip(batch, ks):
        for zi, wb in zip(z.tolist(), row.tolist()):
            exact = exact_value(function, zi, k)
            worst = max(worst, ulps_off(function.branch_value(zi, k), exact), ulps_off(wb, exact))
    assert worst <= ULPS


@pytest.mark.parametrize("n", [3, 5, 6, 1500, 4000])
def test_both_codings_are_within_one_ulp_at_extreme_moduli(n):
    # r ** (1.0 / n) alone carries the rounding of 1.0 / n times |ln r|: 31 to 101 ulp here for n = 3, 5
    # and 6; at n = 4000 a floored quotient e // n would overflow ldexp(m, s) at r = 1e-300
    function = IndexedFunction.root(n)
    z = [complex(r, 0.0) for r in (5e-324, 1e-300, 1e300, 1.7e308)]
    batch = _batch_values(function, np.array(z), [0])[0]
    for zi, wb in zip(z, batch.tolist()):
        exact = exact_value(function, zi, 0)
        assert max(ulps_off(function.branch_value(zi, 0), exact), ulps_off(wb, exact)) <= 1


BEYOND_FLOAT_MODULUS = [complex(1.7e308, 1.7e308), complex(1.7976931348623157e308, -1.7976931348623157e308),
                        complex(-1.7976931348623157e308, -8.988465674311579e307)]


@pytest.mark.parametrize(
    "function", [IndexedFunction.root(n) for n in (2, 3, 5, 6, 1500, 4000)] + [IndexedFunction.log()],
    ids=lambda f: f.label(),
)
def test_a_modulus_beyond_the_largest_float_gives_finite_values_within_2_ulp(function):
    # abs(z) raises OverflowError at these finite z; the scalar cores take |z/4| and put the factor back.
    # For n > 1024 no split e = q n + s of the exponent of |z| (up to 1026) keeps m 2**s finite
    for z in BEYOND_FLOAT_MODULUS:
        with pytest.raises(OverflowError):
            abs(z)
        for k in (0, 1):
            exact = exact_value(function, z, k)
            assert ulps_off(function.branch_value(z, k), exact) <= 2
            if function.is_log:
                with mp.workprec(120):
                    ln_r = float(abs(mp.mpf(function.branch_value(z, k).real) - exact.real)) / math.ulp(exact.real)
                assert ln_r <= 2
            for kind in compatible_kinds(function):
                assert math.isfinite(evaluate_charisma(z, k, function, kind))


@pytest.mark.parametrize(
    "function,kind",
    [(f, kind) for f in FUNCTIONS for kind in compatible_kinds(f) if kind is not CharismaKind.INDEX],
    ids=lambda v: v.label() if isinstance(v, IndexedFunction) else v.value,
)
def test_both_codings_of_the_heights_are_within_8_units(function, kind):
    # the unit is 2**-53 * max(1, |c|): absolute for the sin and cos heights,
    # and relative on the log helix, where rounding c = ph z + 2 k pi to a
    # double alone is off by up to 8 * 2**-53 once |c| reaches 8
    z = np.concatenate([sample_domain(GRID).ravel(), np.array(edge_points())])
    ks = list(function.branch_indices() or range(-2, 3))
    values, at = _batch_heights(function, z, ks, kind)
    batch = values[:, at]
    worst = 0.0
    for row, k in zip(batch, ks):
        for zi, cb in zip(z.tolist(), row.tolist()):
            exact = exact_height(function, kind, zi, k)
            with mp.workprec(120):
                unit = max(1, abs(exact)) * mp.mpf(2) ** -53
                for c in (evaluate_charisma(zi, k, function, kind), cb):
                    worst = max(worst, float(abs(mp.mpf(c) - exact) / unit))
    assert worst <= ULPS


@pytest.mark.parametrize("function", FUNCTIONS, ids=lambda f: f.label())
def test_values_classify_back_to_their_branch(function):
    # the cut columns sit within an ulp of a region edge, so they are left out
    z = sample_domain(GRID)[:, 1:-1].ravel().tolist()
    for k in function.branch_indices() or range(-2, 3):
        assert [branch_of(function.branch_value(v, k), function) for v in z] == [k] * len(z)
