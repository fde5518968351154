"""Branch values against an independent 120-bit mpmath evaluation.

The exact values are derived as in perfbench/oracle.py: the phase with the
-0.0 fold, then ln r + i(ph + 2 k pi) or r^(1/n) e^(i (ph + 2 k pi)/n).
Both codings of the core, branch_value and the batch core, must land
within 8 ulp of |w|.
"""

import math

import numpy as np
import pytest

from riemannmesh import DomainGrid, IndexedFunction, branch_of, sample_domain
from riemannmesh.branches import _batch_values

mp = pytest.importorskip("mpmath")

ULPS = 8
FUNCTIONS = [IndexedFunction.root(n) for n in range(2, 7)] + [IndexedFunction.log()]
GRID = DomainGrid(0.05, 2.0, 6, 24)


def edge_points() -> list[complex]:
    """Unit-modulus points on the real and imaginary axes, both zero signs,
    and on every sector edge ph = m pi / n of root:2..6. Extreme moduli are
    left out: pow(r, 1.0 / n) carries the rounding of 1.0 / n, a relative
    error up to |ln r| / n * 2**-53, which is 66 ulp at r = 1e300 and 101
    ulp at r = 1e-300 for n = 3."""
    pts = [complex(re, im) for re in (1.0, -1.0) for im in (0.0, -0.0)]
    pts += [complex(zero, y) for zero in (0.0, -0.0) for y in (1.0, -1.0)]
    for n in range(2, 7):
        pts += [complex(math.cos(m * math.pi / n), math.sin(m * math.pi / n)) for m in range(-n, n + 1)]
    return pts


def exact_value(function, z: complex, k: int):
    with mp.workprec(120):
        y = 0.0 if z.imag == 0.0 else z.imag  # the -0.0 fold
        angle = mp.atan2(mp.mpf(y), mp.mpf(z.real)) + 2 * mp.pi * k
        r = mp.hypot(mp.mpf(z.real), mp.mpf(z.imag))
        if function.is_log:
            return mp.mpc(mp.log(r), angle)
        return mp.root(r, function.n) * mp.expj(angle / function.n)


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


@pytest.mark.parametrize("function", FUNCTIONS, ids=lambda f: f.label())
def test_values_classify_back_to_their_branch(function):
    # the cut columns sit within an ulp of a region edge, so they are left out
    z = sample_domain(GRID)[:, 1:-1].ravel().tolist()
    for k in function.branch_indices() or range(-2, 3):
        assert [branch_of(function.branch_value(v, k), function) for v in z] == [k] * len(z)
