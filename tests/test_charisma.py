"""Charisma height-function tests."""

import cmath
import math

import numpy as np
import pytest

import riemannmesh.branches as branches_module
from riemannmesh import (
    BranchIndexError,
    CharismaCompatibilityError,
    CharismaKind,
    DomainError,
    IndexedFunction,
    branch_of,
    compatible_kinds,
    evaluate_charisma,
    root_branch,
)
from riemannmesh.branches import _root_angle

LOG = IndexedFunction.log()
ROOT3 = IndexedFunction.root(3)
SQRT3_2 = math.sqrt(3) / 2


class TestCompatibility:
    def test_matrix(self):
        assert compatible_kinds(ROOT3) == (
            CharismaKind.INDEX, CharismaKind.PHASE, CharismaKind.SIN, CharismaKind.COS,
        )
        assert compatible_kinds(LOG) == (CharismaKind.INDEX, CharismaKind.IMAG)

    @pytest.mark.parametrize("kind", [CharismaKind.PHASE, CharismaKind.SIN, CharismaKind.COS])
    def test_trig_kinds_rejected_for_log(self, kind):
        assert kind not in compatible_kinds(LOG)
        with pytest.raises(CharismaCompatibilityError):
            evaluate_charisma(1, 0, LOG, kind)

    def test_imag_rejected_for_root(self):
        with pytest.raises(CharismaCompatibilityError):
            evaluate_charisma(1, 0, ROOT3, CharismaKind.IMAG)

    def test_index_valid_everywhere(self):
        assert evaluate_charisma(1j, 1, ROOT3, CharismaKind.INDEX) == 1.0
        assert evaluate_charisma(1j, -4, LOG, CharismaKind.INDEX) == -4.0


class TestSinCharisma:
    def test_negative_real_axis_principal_value(self):
        # cbrt_0(-8) = 1 + sqrt(3) i has phase pi/3
        assert evaluate_charisma(-8, 0, ROOT3, CharismaKind.SIN) == pytest.approx(SQRT3_2, abs=1e-12)

    def test_negative_imaginary_axis_height(self):
        for r in (0.1, 1.0, 10.0):
            c = evaluate_charisma(-1j * r, 0, ROOT3, CharismaKind.SIN)
            assert c == pytest.approx(-0.5, abs=1e-12)

    def test_branch_one_on_negative_real_axis(self):
        # oracle: sin(ph(cbrt_1(-8))) = sin(ph(-2)) = sin(pi) = 0
        oracle = math.sin(cmath.phase(root_branch(-8, 3, 1)))
        c = evaluate_charisma(-8, 1, ROOT3, CharismaKind.SIN)
        assert c == oracle
        assert abs(c) < 1e-12

    def test_self_intersection_heights(self):
        for r in (0.1, 1.0, 10.0):
            down = [evaluate_charisma(-1j * r, k, ROOT3, CharismaKind.SIN) for k in (-1, 0)]
            up = [evaluate_charisma(1j * r, k, ROOT3, CharismaKind.SIN) for k in (0, 1)]
            for c in down:
                assert c == pytest.approx(-0.5, abs=1e-12)
            for c in up:
                assert c == pytest.approx(0.5, abs=1e-12)

    def test_continuous_across_cut_for_all_sheet_pairs(self):
        eps = 1e-8
        for x in (-0.2, -1.0, -7.5):
            for k_above, k_below in ((1, -1), (0, 1), (-1, 0)):
                above = evaluate_charisma(complex(x, eps), k_above, ROOT3, CharismaKind.SIN)
                below = evaluate_charisma(complex(x, -eps), k_below, ROOT3, CharismaKind.SIN)
                assert abs(above - below) < 1e-6


class TestPhaseCharisma:
    def test_positive_real_axis_principal(self):
        assert evaluate_charisma(1, 0, ROOT3, CharismaKind.PHASE) == 0.0

    def test_windows_are_monotone_thirds(self):
        thetas = np.linspace(-math.pi + 1e-9, math.pi, 721)
        windows = {-1: (-math.pi, -math.pi / 3), 0: (-math.pi / 3, math.pi / 3), 1: (math.pi / 3, math.pi)}
        for k, (lo, hi) in windows.items():
            cs = [evaluate_charisma(cmath.rect(1.3, t), k, ROOT3, CharismaKind.PHASE) for t in thetas]
            assert all(a < b for a, b in zip(cs, cs[1:]))
            assert lo < cs[0] and cs[-1] == pytest.approx(hi, abs=1e-12)


class TestIndexCharisma:
    def test_jump_of_two_across_cut_while_value_continues(self):
        eps = 1e-6
        for x in (-0.5, -2.0):
            w_above = root_branch(complex(x, eps), 3, 1)
            w_below = root_branch(complex(x, -eps), 3, -1)
            # the range value is continuous across the cut...
            assert abs(w_above - w_below) < 1e-5
            # ...but the index charisma jumps by two
            k_above = branch_of(w_above, ROOT3)
            k_below = branch_of(w_below, ROOT3)
            assert (k_above, k_below) == (1, -1)
            c_above = evaluate_charisma(complex(x, eps), 1, ROOT3, CharismaKind.INDEX)
            c_below = evaluate_charisma(complex(x, -eps), -1, ROOT3, CharismaKind.INDEX)
            assert abs(c_above - c_below) == 2.0


class TestCosCharisma:
    def test_principal_branch_dominates(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            z = cmath.rect(10.0 ** rng.uniform(-2, 2), rng.uniform(-math.pi + 1e-3, math.pi - 1e-3))
            c0 = evaluate_charisma(z, 0, ROOT3, CharismaKind.COS)
            c1 = evaluate_charisma(z, 1, ROOT3, CharismaKind.COS)
            cm1 = evaluate_charisma(z, -1, ROOT3, CharismaKind.COS)
            assert c0 > 0.5 > max(c1, cm1)

    def test_matches_direct_cosine_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            theta = rng.uniform(-math.pi + 1e-6, math.pi - 1e-6)
            z = cmath.rect(1.9, theta)
            for k in (-1, 0, 1):
                want = math.cos((theta + 2 * math.pi * k) / 3)
                got = evaluate_charisma(z, k, ROOT3, CharismaKind.COS)
                assert got == pytest.approx(want, abs=1e-12)


class TestImagCharisma:
    def test_unit_on_branch_one(self):
        assert evaluate_charisma(1, 1, LOG, CharismaKind.IMAG) == 2 * math.pi

    def test_helix_continuity_across_cut(self):
        eps = 1e-8
        for x in (-0.3, -1.0, -50.0):
            for k in (-2, -1, 0, 1):
                above = evaluate_charisma(complex(x, eps), k, LOG, CharismaKind.IMAG)
                below = evaluate_charisma(complex(x, -eps), k + 1, LOG, CharismaKind.IMAG)
                assert abs(above - below) < 1e-6

    def test_needs_no_modulus(self):
        # |z| overflows a float here, but the height is ph z + 2 k pi alone
        z = complex(1.7e308, 1.7e308)
        assert evaluate_charisma(z, 3, LOG, "imag") == LOG.branch_value(1 + 1j, 3).imag


class TestErrors:
    def test_origin_rejected(self):
        with pytest.raises(DomainError):
            evaluate_charisma(0, 0, ROOT3, CharismaKind.SIN)

    @pytest.mark.parametrize("kind", compatible_kinds(ROOT3), ids=lambda k: k.value)
    def test_inputs_checked_in_the_same_order_for_every_root_kind(self, kind):
        # z before k, whether or not the kind needs w
        with pytest.raises(DomainError):
            evaluate_charisma(0, 7, ROOT3, kind)
        with pytest.raises(BranchIndexError):
            evaluate_charisma(1j, 7, ROOT3, kind)
        with pytest.raises(BranchIndexError):
            evaluate_charisma(1j, 0.5, ROOT3, kind)

    @pytest.mark.parametrize("kind", [CharismaKind.SIN, CharismaKind.COS], ids=lambda k: k.value)
    def test_sin_and_cos_come_from_the_branch_angle_without_w(self, kind, monkeypatch):
        def no_w(*args):
            raise AssertionError("w computed")

        phase = branches_module._phase
        fn = math.sin if kind is CharismaKind.SIN else math.cos
        for z in (-8, complex(-1.0, -0.0), 0.3 - 1.2j):
            for k in (-1, 0, 1):
                want = fn(_root_angle(phase(complex(z)), 3, k))
                seen = []  # the one phase taken is z's, never w's
                monkeypatch.setattr(branches_module, "_phase", lambda x: seen.append(x) or phase(x))
                monkeypatch.setattr(IndexedFunction, "branch_value", no_w)
                assert evaluate_charisma(z, k, ROOT3, kind) == want
                monkeypatch.undo()
                assert len(seen) == 1 and str(seen[0]) == str(complex(z))

    @pytest.mark.parametrize("function", [LOG, ROOT3], ids=lambda f: f.label())
    def test_index_is_the_branch_without_w(self, function, monkeypatch):
        def no_w(*args):
            raise AssertionError("w computed")

        monkeypatch.setattr(IndexedFunction, "branch_value", no_w)
        for z in (-8, complex(-1.0, -0.0), 0.3 - 1.2j):
            for k in (-1, 0, 1):
                got = evaluate_charisma(z, k, function, CharismaKind.INDEX)
                assert got == float(k) and type(got) is float

    def test_string_kind_coerced(self):
        assert evaluate_charisma(1, 0, ROOT3, "sin") == 0.0
        with pytest.raises(ValueError):
            evaluate_charisma(1, 0, ROOT3, "height")
