"""Height functions that lift branch sheets off the complex plane.

The "charisma" of a domain point is the hidden real quantity that selects
which value of a multivalued function applies there; plotted as a third
coordinate it turns the stack of branch sheets into a Riemann surface.
All kinds except the raw branch index are computed from the range value
w = f_k(z), never from z itself. _charisma computes one height and
_batch_charisma a whole stack of sheets, with the same libm calls.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Sequence

import numpy as np

from .branches import IndexedFunction, _floats, _phase, _phases

__all__ = [
    "CharismaCompatibilityError",
    "CharismaKind",
    "compatible_kinds",
    "evaluate_charisma",
    "is_compatible",
    "require_compatible",
]


class CharismaKind(str, Enum):
    INDEX = "index"  # c = k: flat stacked sheets, discontinuous joins
    PHASE = "phase"  # c = ph(w): continuous except across the ph = +-pi wrap
    SIN = "sin"      # c = sin(ph w): continuous and periodic
    COS = "cos"      # c = cos(ph w): like sin, principal sheet on top
    IMAG = "imag"    # c = Im(ln_k z): the logarithm helix


class CharismaCompatibilityError(ValueError):
    """Charisma kind not defined for the given function."""


_ROOT_KINDS = (CharismaKind.INDEX, CharismaKind.PHASE, CharismaKind.SIN, CharismaKind.COS)
_LOG_KINDS = (CharismaKind.INDEX, CharismaKind.IMAG)


def compatible_kinds(f: IndexedFunction) -> tuple[CharismaKind, ...]:
    """Charisma kinds defined for f: trigonometric kinds need the periodic
    range of a root; the imaginary part is the log height."""
    return _LOG_KINDS if f.is_log else _ROOT_KINDS


def is_compatible(kind: CharismaKind, f: IndexedFunction) -> bool:
    return kind in compatible_kinds(f)


def require_compatible(kind: CharismaKind | str, f: IndexedFunction) -> CharismaKind:
    """kind as a CharismaKind; raises CharismaCompatibilityError unless it
    is defined for f."""
    kind = CharismaKind(kind)
    if kind not in compatible_kinds(f):
        raise CharismaCompatibilityError(
            f"charisma '{kind.value}' is not defined for {f.label()}; "
            f"valid: {', '.join(c.value for c in compatible_kinds(f))}"
        )
    return kind


def evaluate_charisma(
    z: complex,
    k: int,
    f: IndexedFunction,
    kind: CharismaKind,
    *,
    use_range_imag: bool = False,
) -> float:
    """Charisma of the domain point z on branch k of f.

    use_range_imag switches the sin kind from sin(ph w) to Im(w); the two
    differ by the radial factor |w|. Raises CharismaCompatibilityError for
    a kind/function mismatch and DomainError at z = 0.
    """
    kind = require_compatible(kind, f)
    return _charisma(f.branch_value(z, k), k, kind, use_range_imag)


def _charisma(w: complex, k: int, kind: CharismaKind, use_range_imag: bool) -> float:
    # the height alone, from w = f_k(z) already computed for a checked z, k
    # and kind; w is then finite and, for the root kinds, non-zero
    if kind is CharismaKind.INDEX:
        return float(k)
    if kind is CharismaKind.PHASE:
        return _phase(w)
    if kind is CharismaKind.SIN:
        return w.imag if use_range_imag else math.sin(_phase(w))
    if kind is CharismaKind.COS:
        return math.cos(_phase(w))
    return w.imag  # IMAG: w is log_branch(z, k)


def _batch_charisma(
    w: np.ndarray, branches: Sequence[int], kind: CharismaKind, use_range_imag: bool
) -> np.ndarray:
    # _charisma at every value of w, whose row i holds branch branches[i];
    # each height is bit-for-bit _charisma's
    if kind is CharismaKind.INDEX:
        c = np.empty(w.shape)
        for row, k in zip(c, branches):
            row.fill(float(k))
        return c
    if kind is CharismaKind.IMAG or (kind is CharismaKind.SIN and use_range_imag):
        return w.imag.copy()
    ph = _phases(w)
    if kind is CharismaKind.PHASE:
        return ph
    return _floats(map(math.sin if kind is CharismaKind.SIN else math.cos, ph.ravel().tolist()), ph.shape)
