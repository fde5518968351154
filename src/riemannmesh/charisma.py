"""Height functions that lift branch sheets off the complex plane.

The "charisma" of a domain point is the hidden real quantity that selects
which value of a multivalued function applies there; plotted as a third
coordinate it turns the stack of branch sheets into a Riemann surface.
The phase and imag kinds are computed from the range value w = f_k(z), and
sin and cos of ph(w) from the branch angle (ph z + 2 k pi)/n, which equals
ph(w) modulo 2 pi. evaluate_charisma computes one height and
_batch_charisma a whole stack of sheets, with the same libm calls.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Sequence

import numpy as np

from .branches import IndexedFunction, _as_nonzero_complex, _batch_values, _phase, _phases, _root_angle

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
_ANGLE_KINDS = (CharismaKind.SIN, CharismaKind.COS)  # of a root's branch angle; one test, not two enum lookups


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


def evaluate_charisma(z: complex, k: int, f: IndexedFunction, kind: CharismaKind) -> float:
    """Charisma of the domain point z on branch k of f.

    Raises CharismaCompatibilityError for a kind/function mismatch,
    DomainError at z = 0, and BranchIndexError for an inadmissible k, in
    that order.
    """
    kind = require_compatible(kind, f)
    if kind in _ANGLE_KINDS:
        # f is a root: sin and cos of ph(w) are those of the branch angle
        angle = _root_angle(_as_nonzero_complex(z), f.n, f.require_admissible(k))
        return math.sin(angle) if kind is CharismaKind.SIN else math.cos(angle)
    if kind is CharismaKind.INDEX:  # needs no w
        _as_nonzero_complex(z)
        return float(f.require_admissible(k))
    w = f.branch_value(z, k)
    return _phase(w) if kind is CharismaKind.PHASE else w.imag  # IMAG: w is log_branch(z, k)


def _batch_charisma(
    f: IndexedFunction, z: np.ndarray, branches: Sequence[int], kind: CharismaKind
) -> tuple[np.ndarray, np.ndarray]:
    # w = f_k(z) and the charisma at every point of z for each k in branches,
    # as two arrays of shape (len(branches), *z.shape), for a z, branches and
    # kind the caller has checked; each value is bit-for-bit branch_value's
    # and evaluate_charisma's
    w, trig = _batch_values(f, z, branches)
    if kind is CharismaKind.INDEX:
        c = np.empty(w.shape)
        for row, k in zip(c, branches):
            row.fill(float(k))
    elif kind is CharismaKind.IMAG:
        c = w.imag.copy()
    elif kind is CharismaKind.PHASE:
        c = _phases(w)
    else:  # from the per-phase table w was built from; gathered before w, it raised peak RSS
        cos, sin, at_phase = trig
        c = (cos if kind is CharismaKind.COS else sin)[:, at_phase].reshape(w.shape)
    return w, c
