"""Branch evaluation and classification tests.

Every closed-form path is cross-checked against an independent oracle:
the literal three-case cube-root formula, exp(log z / n) continuation for
general roots, and interval search over the range sectors for branch
classification.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from riemannmesh import (
    BranchIndexError,
    CharismaKind,
    DomainError,
    IndexedFunction,
    branch_of,
    compatible_kinds,
    continuation_branch,
    evaluate_charisma,
    in_branch_range,
    log_branch,
    principal_phase,
    root_branch,
    root_indices,
)

TAU = 2 * math.pi
OMEGA = cmath.exp(2j * math.pi / 3)  # primitive cube root of unity

LOG = IndexedFunction.log()
ROOT3 = IndexedFunction.root(3)


def cbrt_cases(z, k):
    """Literal three-case cube root: the independent evaluation oracle."""
    core = abs(z) ** (1 / 3) * cmath.exp(1j * cmath.phase(z) / 3)
    return {0: core, 1: OMEGA * core, -1: OMEGA.conjugate() * core}[k]


def nth_root_oracle(z, n, k):
    return cmath.exp(cmath.log(z) / n) * cmath.exp(2j * math.pi * k / n)


def sector_search_branch(w, n):
    """Classify w by searching the root sectors, wrap handled explicitly."""
    phi = cmath.phase(w)
    for k in root_indices(n):
        lo, hi = (2 * k - 1) * math.pi / n, (2 * k + 1) * math.pi / n
        if lo < phi <= hi or lo < phi + TAU <= hi:
            return k
    raise AssertionError(f"no sector matched {w!r}")


def log_strip_search(im):
    for k in range(math.floor(im / TAU) - 2, math.floor(im / TAU) + 3):
        if (2 * k - 1) * math.pi < im <= (2 * k + 1) * math.pi:
            return k
    raise AssertionError(f"no strip matched {im!r}")


radii = st.floats(min_value=1e-3, max_value=1e3)
# keep hypothesis samples away from the cut so classifications are stable
phases = st.floats(min_value=-math.pi + 1e-6, max_value=math.pi - 1e-6)


@st.composite
def nonzero_points(draw):
    return cmath.rect(draw(radii), draw(phases))


class TestPrincipalPhase:
    def test_positive_real_axis(self):
        assert principal_phase(1) == 0.0

    def test_negative_real_axis_closed_at_pi(self):
        assert principal_phase(-1) == math.pi

    def test_negative_imaginary_axis(self):
        assert principal_phase(-1j) == -math.pi / 2

    def test_negative_zero_imag_normalized_to_upper_edge(self):
        assert principal_phase(complex(-2.0, -0.0)) == math.pi

    def test_rejects_origin(self):
        with pytest.raises(DomainError):
            principal_phase(0)

    @pytest.mark.parametrize("bad", [complex(math.nan, 1), complex(1, math.inf)])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(DomainError):
            principal_phase(bad)

    @given(nonzero_points())
    def test_polar_reconstruction(self, z):
        theta = principal_phase(z)
        assert -math.pi < theta <= math.pi
        assert cmath.isclose(abs(z) * cmath.exp(1j * theta), z, rel_tol=1e-12)


class TestLogBranch:
    def test_principal_log_of_e_squared(self):
        w = log_branch(math.e ** 2, 0)
        assert w.real == pytest.approx(2.0, abs=1e-12)
        assert w.imag == 0.0

    def test_unit_on_branch_one(self):
        assert log_branch(1, 1) == complex(0.0, TAU)

    def test_minus_one_on_branch_minus_one(self):
        w = log_branch(-1, -1)
        assert w.real == 0.0
        assert w.imag == pytest.approx(-math.pi, abs=0)

    def test_rejects_origin(self):
        with pytest.raises(DomainError):
            log_branch(0, 0)

    @given(nonzero_points(), st.integers(min_value=-5, max_value=5))
    def test_imag_confined_and_invertible(self, z, k):
        w = log_branch(z, k)
        assert (2 * k - 1) * math.pi < w.imag <= (2 * k + 1) * math.pi
        assert cmath.isclose(cmath.exp(w), z, rel_tol=1e-12)


class TestRootBranch:
    def test_cube_roots_of_minus_eight(self):
        expected = {0: 1 + math.sqrt(3) * 1j, 1: -2 + 0j, -1: 1 - math.sqrt(3) * 1j}
        for k, want in expected.items():
            assert abs(root_branch(-8, 3, k) - want) < 1e-12

    def test_nonprincipal_square_root(self):
        assert abs(root_branch(16, 2, 1) - (-4)) < 1e-12

    def test_matches_three_case_formula(self):
        for theta in np.linspace(-math.pi + 1e-9, math.pi, 37):
            z = cmath.rect(1.7, theta)
            for k in (-1, 0, 1):
                assert abs(root_branch(z, 3, k) - cbrt_cases(z, k)) < 1e-13

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_exp_log_oracle(self, n):
        rng = np.random.default_rng(42 + n)
        for _ in range(200):
            z = cmath.rect(10.0 ** rng.uniform(-2, 2), rng.uniform(-math.pi + 1e-6, math.pi - 1e-6))
            for k in root_indices(n):
                got = root_branch(z, n, k)
                want = nth_root_oracle(z, n, k)
                # the oracle multiplier may differ by a full turn; values agree
                assert cmath.isclose(got ** n, want ** n, rel_tol=1e-10)
                assert branch_of(got, IndexedFunction.root(n)) == branch_of(want, IndexedFunction.root(n))

    def test_rejects_index_outside_canonical_set(self):
        with pytest.raises(BranchIndexError):
            root_branch(-8, 3, 2)
        with pytest.raises(BranchIndexError):
            root_branch(1, 2, -1)

    def test_rejects_origin_and_bad_degree(self):
        with pytest.raises(DomainError):
            root_branch(0, 3, 0)
        with pytest.raises(ValueError):
            root_branch(1, 1, 0)

    @given(nonzero_points(), st.integers(min_value=2, max_value=7), st.data())
    def test_power_round_trip(self, z, n, data):
        k = data.draw(st.sampled_from(list(root_indices(n))))
        w = root_branch(z, n, k)
        assert cmath.isclose(w ** n, z, rel_tol=1e-12)

    @given(nonzero_points(), st.integers(min_value=2, max_value=7))
    def test_principal_sector_confinement(self, z, n):
        w = root_branch(z, n, 0)
        assert -math.pi / n < cmath.phase(w) <= math.pi / n


class TestRootIndices:
    def test_canonical_sets(self):
        assert list(root_indices(2)) == [0, 1]
        assert list(root_indices(3)) == [-1, 0, 1]
        assert list(root_indices(4)) == [-1, 0, 1, 2]
        assert list(root_indices(5)) == [-2, -1, 0, 1, 2]

    def test_rejects_degree_below_two(self):
        with pytest.raises(ValueError):
            root_indices(1)


class TestBranchOf:
    def test_principal_cube_root_region(self):
        assert branch_of(1 + math.sqrt(3) * 1j, ROOT3) == 0

    def test_negative_reals_are_branch_one(self):
        assert branch_of(-2, ROOT3) == 1

    def test_log_strip_one(self):
        assert branch_of(0.5 + TAU * 1j, LOG) == 1

    def test_zero_is_a_log_value_but_not_a_root_value(self):
        # ln_0(1) = 0 sits in strip 0, so the log round trip covers z = 1
        assert branch_of(0, LOG) == 0
        assert branch_of(log_branch(1, 0), LOG) == 0
        with pytest.raises(DomainError):
            branch_of(0, ROOT3)

    def test_even_degree_wraps_across_cut(self):
        root2 = IndexedFunction.root(2)
        assert branch_of(-4, root2) == 1
        assert branch_of(cmath.rect(1.0, -3 * math.pi / 4), root2) == 1
        # phase exactly -pi/2: open lower edge of the k=0 sector, so the
        # wrapped top sector owns it
        assert branch_of(-1j, root2) == 1
        assert branch_of(-1j, IndexedFunction.root(4)) == -1

    def test_boundary_ownership_closed_counterclockwise(self):
        assert branch_of(-1, ROOT3) == 1  # phase +pi is owned by the top sector
        assert branch_of(1 + math.pi * 1j, LOG) == 0  # Im = pi stays with k = 0
        above = complex(1, math.nextafter(math.pi, math.inf))
        assert branch_of(above, LOG) == 1

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_agrees_with_sector_search(self, n):
        f = IndexedFunction.root(n)
        for phi in np.linspace(-math.pi + 1e-7, math.pi, 1009):
            w = cmath.rect(0.8, phi)
            assert branch_of(w, f) == sector_search_branch(w, n)

    def test_log_agrees_with_strip_search(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            w = complex(rng.uniform(-40, 40), rng.uniform(-40, 40))
            if w == 0:
                continue
            assert branch_of(w, LOG) == log_strip_search(w.imag)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_partition_is_exhaustive(self, n):
        f = IndexedFunction.root(n)
        seen = {}
        for phi in np.linspace(-math.pi + 1e-7, math.pi, 10_001):
            k = branch_of(cmath.rect(1.0, phi), f)
            assert k in root_indices(n)
            seen[k] = seen.get(k, 0) + 1
        assert sorted(seen) == list(root_indices(n))

    @given(nonzero_points(), st.data())
    def test_identifies_root_branches(self, z, data):
        n = data.draw(st.integers(min_value=2, max_value=6))
        k = data.draw(st.sampled_from(list(root_indices(n))))
        f = IndexedFunction.root(n)
        assert branch_of(root_branch(z, n, k), f) == k

    @given(nonzero_points(), st.integers(min_value=-5, max_value=5))
    def test_identifies_log_branches(self, z, k):
        assert branch_of(log_branch(z, k), LOG) == k


class TestInBranchRange:
    def test_real_target_needs_principal_branch(self):
        assert in_branch_range(2, LOG, 0) is True
        assert in_branch_range(2, LOG, 1) is False

    def test_shifted_complex_target(self):
        assert in_branch_range(2 + TAU * 1j, LOG, 1) is True

    def test_defined_for_log_only(self):
        with pytest.raises(ValueError):
            in_branch_range(2, ROOT3, 0)


class TestContinuationBranch:
    def test_cube_root_cycle(self):
        assert continuation_branch(ROOT3, 0) == 1
        assert continuation_branch(ROOT3, 1) == -1
        assert continuation_branch(ROOT3, -1) == 0

    def test_square_root_swap(self):
        root2 = IndexedFunction.root(2)
        assert continuation_branch(root2, 0) == 1
        assert continuation_branch(root2, 1) == 0

    def test_log_climbs_forever(self):
        for k in (-3, 0, 11):
            assert continuation_branch(LOG, k) == k + 1

    def test_rejects_inadmissible(self):
        with pytest.raises(BranchIndexError):
            continuation_branch(ROOT3, 2)


class TestPeriodicityAcrossCut:
    def test_upper_branch_one_meets_lower_branch_minus_one(self):
        # gap scales like (2/3) * eps / |x| * |x|^(1/3); needs |x| >> 1e-2
        rng = np.random.default_rng(101)
        eps = 1e-8
        for _ in range(1000):
            x = -(10.0 ** rng.uniform(-1, 3))
            hi = root_branch(complex(x, eps), 3, 1)
            lo = root_branch(complex(x, -eps), 3, -1)
            assert abs(hi - lo) < 1e-6 * abs(x) ** (1 / 3)


class TestIndexedFunction:
    def test_labels_round_trip(self):
        assert IndexedFunction.from_label("log") == LOG
        assert IndexedFunction.from_label("root:3") == ROOT3
        assert ROOT3.label() == "root:3"
        assert LOG.label() == "log"

    def test_rejects_bad_labels(self):
        # the degree in ASCII digits alone: int() would take each of the last five
        for bad in ("root", "root:x", "root:1", "cbrt", "root:",
                    "root:1_0", "root:+3", "root: 3", "root:3 ", "root:٣"):
            with pytest.raises(ValueError):
                IndexedFunction.from_label(bad)
        with pytest.raises(ValueError, match="bad root degree"):  # past int()'s 4300 digits
            IndexedFunction.from_label("root:" + "9" * 5000)

    def test_admissible_sets(self):
        assert LOG.branch_indices() is None
        assert LOG.require_admissible(10 ** 9) == 10 ** 9
        assert list(ROOT3.branch_indices()) == [-1, 0, 1]
        with pytest.raises(BranchIndexError):
            ROOT3.require_admissible(2)

    def test_branch_value_dispatch(self):
        assert ROOT3.branch_value(-8, 1) == root_branch(-8, 3, 1)
        assert LOG.branch_value(1j, 2) == log_branch(1j, 2)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            IndexedFunction("root")
        with pytest.raises(ValueError):
            IndexedFunction("log", 3)
        with pytest.raises(ValueError):
            IndexedFunction("tan")


@pytest.mark.parametrize(
    "call,error",
    [
        pytest.param(lambda: log_branch(2j, 0.5), BranchIndexError, id="log_branch"),
        pytest.param(lambda: root_branch(2j, 3, 1.5), BranchIndexError, id="root_branch"),
        pytest.param(lambda: continuation_branch(ROOT3, 1.5), BranchIndexError, id="root-continuation_branch"),
        pytest.param(lambda: continuation_branch(LOG, 0.5), BranchIndexError, id="log-continuation_branch"),
        pytest.param(lambda: ROOT3.branch_value(2j, 1.5), BranchIndexError, id="root-branch_value"),
        pytest.param(lambda: LOG.branch_value(2j, 0.5), BranchIndexError, id="log-branch_value"),
        pytest.param(lambda: in_branch_range(2j, LOG, 0.5), BranchIndexError, id="in_branch_range"),
        pytest.param(lambda: evaluate_charisma(2j, 1.5, ROOT3, CharismaKind.SIN), BranchIndexError,
                     id="root-evaluate_charisma"),
        pytest.param(lambda: evaluate_charisma(2j, 0.5, LOG, CharismaKind.IMAG), BranchIndexError,
                     id="log-evaluate_charisma"),
        pytest.param(lambda: root_indices(2.5), ValueError, id="root_indices-degree"),
        pytest.param(lambda: root_branch(2j, 2.5, 0), ValueError, id="root_branch-degree"),
        pytest.param(lambda: IndexedFunction.root(2.5), ValueError, id="IndexedFunction.root-degree"),
        pytest.param(lambda: IndexedFunction("root", 2.5), ValueError, id="IndexedFunction-degree"),
    ],
)
def test_a_non_integer_branch_or_degree_raises_a_value_error(call, error):
    # README: every invalid input raises a ValueError subclass, never TypeError
    with pytest.raises(error, match="must be an integer") as exc:
        call()
    assert type(exc.value) is error


HUGE = 10**400  # beyond the float range: float(HUGE) raises OverflowError


@pytest.mark.parametrize(
    "call,error",
    [
        pytest.param(lambda: log_branch(1j, HUGE), BranchIndexError, id="log_branch"),
        pytest.param(lambda: log_branch(1j, -(2**1021) - 1), BranchIndexError, id="log_branch-finite-float-k"),
        pytest.param(lambda: LOG.branch_value(1j, HUGE), BranchIndexError, id="log-branch_value"),
        pytest.param(lambda: evaluate_charisma(1j, HUGE, LOG, CharismaKind.IMAG), BranchIndexError, id="imag"),
        pytest.param(lambda: evaluate_charisma(1j, HUGE, LOG, CharismaKind.INDEX), BranchIndexError, id="index"),
        pytest.param(lambda: IndexedFunction.root(HUGE).branch_value(1j, 0), ValueError, id="root-branch_value"),
        pytest.param(lambda: branch_of(1j, IndexedFunction.root(HUGE)), ValueError, id="branch_of"),
        pytest.param(lambda: evaluate_charisma(1j, 0, IndexedFunction.root(HUGE), CharismaKind.SIN), ValueError,
                     id="sin"),
        pytest.param(lambda: root_branch(1j, 2**1022, 0), ValueError, id="root_branch-first-degree-refused"),
    ],
)
def test_a_branch_or_degree_beyond_the_float_range_raises_a_value_error(call, error):
    # README: every invalid input raises a ValueError subclass, never
    # OverflowError; 2 k pi and every branch angle must be finite floats
    with pytest.raises(error, match="finite float") as exc:
        call()
    assert type(exc.value) is error


def test_the_float_range_of_branches_and_degrees_is_inclusive_at_its_edges():
    for k in (-(2**1021), 2**1021):
        w = log_branch(1j, k)
        assert math.isfinite(w.imag) and evaluate_charisma(1j, k, LOG, CharismaKind.INDEX) == float(k)
    widest = IndexedFunction.root(2**1022 - 1)
    for k in (widest.branch_indices()[0], 0, widest.branch_indices()[-1]):
        for kind in compatible_kinds(widest):
            assert math.isfinite(evaluate_charisma(-1, k, widest, kind))
        branch_of(widest.branch_value(-1, k), widest)
    # checks that make no float of k keep taking any integer
    assert LOG.require_admissible(HUGE) == HUGE
    assert continuation_branch(LOG, HUGE) == HUGE + 1
    assert in_branch_range(1j, LOG, HUGE) is False
