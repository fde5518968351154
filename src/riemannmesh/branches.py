"""Indexed branches of the complex logarithm and n-th root functions.

A multivalued inverse is split into single-valued branches labelled by an
integer index k, with k = 0 the principal branch. Everything here rests on
one convention: the principal phase lies in (-pi, pi], every branch region
of the range is half-open and closed on its counterclockwise edge, and the
branch cut of every branch runs along the negative real axis. The
"charisma" of z on branch k is the height, read off the same evaluation as
f_k(z), that lifts the stack of branch sheets into a Riemann surface.

Each formula is coded twice: once per value for the scalar API, and once
per array for the mesh builder. Both codings make the same libm calls on
the same arguments, math's mapped over lists in the batch coding (once per
distinct argument) and the IEEE arithmetic (+, *, /, ceil) in numpy, so
their results agree bit for bit.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

__all__ = [
    "BranchIndexError",
    "CharismaCompatibilityError",
    "CharismaKind",
    "DomainError",
    "IndexedFunction",
    "branch_of",
    "compatible_kinds",
    "continuation_branch",
    "evaluate_charisma",
    "in_branch_range",
    "log_branch",
    "principal_phase",
    "require_compatible",
    "root_branch",
    "root_indices",
]

TWO_PI = 2.0 * math.pi


class DomainError(ValueError):
    """An input at which no branch is defined (z = 0, or non-finite)."""


class BranchIndexError(ValueError):
    """A branch index outside the function's admissible set."""


def _as_finite_complex(z: complex) -> complex:
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"non-finite value {z!r}")
    return z


def _as_nonzero_complex(z: complex) -> complex:
    z = _as_finite_complex(z)
    if z == 0:
        raise DomainError("z = 0 is the branch point; no branch is defined there")
    return z


def _phase(z: complex) -> float:
    # fold a -0.0 imaginary part onto +0.0 so negative real inputs take the
    # theta = +pi side of the cut
    im = z.imag
    if im == 0.0:
        im = 0.0
    return math.atan2(im, z.real)


def principal_phase(z: complex) -> float:
    """Phase theta of z = |z| e^(i theta), with -pi < theta <= pi.

    Negative real inputs (including those with a -0.0 imaginary part) land
    on the closed theta = pi edge. Raises DomainError at z = 0, where the
    phase is undefined.
    """
    return _phase(_as_nonzero_complex(z))


def log_branch(z: complex, k: int) -> complex:
    """Branch k of the logarithm: ln|z| + i(ph z + 2 k pi).

    The imaginary part of the result lies in ((2k - 1) pi, (2k + 1) pi];
    k = 0 is the principal logarithm. Any integer k is admissible.
    """
    return _log_core(_as_nonzero_complex(z), _require_branch(k))


def _log_core(z: complex, k: int) -> complex:
    # the value alone, for a z and k the caller has already checked
    return complex(math.log(abs(z)), _phase(z) + TWO_PI * k)


def root_indices(n: int) -> range:
    """Canonical branch-index set for the n-th root.

    Odd n gives the symmetric set {-(n-1)/2, ..., (n-1)/2}; even n gives
    {-n/2 + 1, ..., n/2}. Either way k = 0 is the principal branch and
    branch k owns the range sector ((2k - 1) pi/n, (2k + 1) pi/n]. The one
    check of a root degree: raises ValueError unless n is an integer >= 2.
    """
    try:
        n = operator.index(n)
    except TypeError:
        n = None
    if n is None or n < 2:
        raise ValueError("root degree n must be an integer >= 2")
    return range(-((n - 1) // 2), n // 2 + 1)


def root_branch(z: complex, n: int, k: int) -> complex:
    """Branch k of the n-th root: |z|^(1/n) e^(i (ph z + 2 k pi)/n).

    k must lie in root_indices(n). The returned w satisfies w**n = z, and
    the principal branch (k = 0) is confined to -pi/n < ph w <= pi/n.
    """
    # z, then k as an integer, then the degree n, then k in root_indices(n)
    return _root_core(_as_nonzero_complex(z), n, _require_branch(_require_branch(k), root_indices(n)))


def _require_branch(k: int, indices: range | None = None) -> int:
    # the one branch-index check: an integer, and for root:n one of indices = root_indices(n), of length n
    try:
        k = operator.index(k)
    except TypeError:
        raise BranchIndexError(f"branch index must be an integer, got {k!r}") from None
    if indices is not None and k not in indices:
        raise BranchIndexError(
            f"branch {k} is not admissible for root:{indices.stop - indices.start}; "
            f"expected {indices.start}..{indices.stop - 1}"
        )
    return k


def _root_angle(z: complex, n: int, k: int) -> float:
    # the branch angle (ph z + 2 k pi)/n, which is ph w_k(z) modulo 2 pi
    return (_phase(z) + TWO_PI * k) / n


def _root_core(z: complex, n: int, k: int) -> complex:
    # the value alone, for a z and k the caller has already checked
    angle = _root_angle(z, n, k)
    radius = abs(z) ** (1.0 / n)
    return complex(radius * math.cos(angle), radius * math.sin(angle))


@dataclass(frozen=True)
class IndexedFunction:
    """A multivalued inverse chosen for evaluation: log, or an n-th root."""

    kind: str
    n: int | None = None
    _indices: range | None = field(init=False, repr=False, compare=False)  # branch_indices(), computed once

    def __post_init__(self) -> None:
        if self.kind == "log":
            if self.n is not None:
                raise ValueError("log takes no root degree")
            indices = None
        elif self.kind == "root":
            indices = root_indices(self.n)  # raises ValueError unless n is an integer >= 2
        else:
            raise ValueError(f"unknown function kind {self.kind!r}")
        object.__setattr__(self, "_indices", indices)

    @classmethod
    def log(cls) -> "IndexedFunction":
        return cls("log")

    @classmethod
    def root(cls, n: int) -> "IndexedFunction":
        root_indices(n)  # the degree check, before operator.index can raise TypeError
        return cls("root", operator.index(n))

    @classmethod
    def from_label(cls, label: str) -> "IndexedFunction":
        """Parse 'log' or 'root:N'."""
        if label == "log":
            return cls.log()
        if label.startswith("root:"):
            try:
                n = int(label[len("root:"):])
            except ValueError:
                raise ValueError(f"bad root degree in {label!r}") from None
            return cls.root(n)
        raise ValueError(f"unknown function {label!r}; expected 'log' or 'root:N'")

    def label(self) -> str:
        return "log" if self.is_log else f"root:{self.n}"

    @property
    def is_log(self) -> bool:
        return self._indices is None

    @property
    def is_root(self) -> bool:
        return self._indices is not None

    def branch_indices(self) -> range | None:
        """Admissible branch indices; None means all integers (log)."""
        return self._indices

    def require_admissible(self, k: int) -> int:
        return _require_branch(k, self._indices)

    def branch_value(self, z: complex, k: int) -> complex:
        """Evaluate branch k of this function at z: z is checked, then k."""
        z = _as_nonzero_complex(z)
        k = _require_branch(k, self._indices)
        return _log_core(z, k) if self._indices is None else _root_core(z, self.n, k)


class CharismaKind(str, Enum):
    INDEX = "index"  # c = k: flat stacked sheets, discontinuous joins
    PHASE = "phase"  # c = ph(w): continuous except across the ph = +-pi wrap
    SIN = "sin"      # c = sin(ph w): continuous and periodic
    COS = "cos"      # c = cos(ph w): like sin, principal sheet on top
    IMAG = "imag"    # c = Im(ln_k z): the logarithm helix


class CharismaCompatibilityError(ValueError):
    """Charisma kind not defined for the given function."""


_INDEX, _PHASE, _SIN, _COS, _IMAG = CharismaKind  # as globals: CharismaKind.SIN is several times slower to read
_ROOT_KINDS = (_INDEX, _PHASE, _SIN, _COS)
_LOG_KINDS = (_INDEX, _IMAG)


def compatible_kinds(f: IndexedFunction) -> tuple[CharismaKind, ...]:
    """Charisma kinds defined for f: trigonometric kinds need the periodic
    range of a root; the imaginary part is the log height."""
    return _LOG_KINDS if f.is_log else _ROOT_KINDS


def require_compatible(kind: CharismaKind | str, f: IndexedFunction) -> CharismaKind:
    """kind as a CharismaKind; raises CharismaCompatibilityError unless it
    is defined for f."""
    if not isinstance(kind, CharismaKind):  # the constructor costs more than the test
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
    z = _as_nonzero_complex(z)
    k = _require_branch(k, f._indices)
    if kind is _INDEX:  # needs no w
        return float(k)
    if kind is _IMAG:  # f is log
        return _log_core(z, k).imag
    if kind is _PHASE:
        return _phase(_root_core(z, f.n, k))
    angle = _root_angle(z, f.n, k)  # sin or cos, of a root: those of ph(w) are those of the branch angle
    return math.sin(angle) if kind is _SIN else math.cos(angle)


def _floats(values, shape: tuple[int, ...]) -> np.ndarray:
    # the Python floats of an iterable as an array: with values a map of a
    # math function over lists, libm runs from C, with no Python frame per call
    return np.fromiter(values, float, math.prod(shape)).reshape(shape)


def _phases(z: np.ndarray) -> np.ndarray:
    # _phase at every point of z; adding 0.0 is the -0.0 fold
    return _floats(map(math.atan2, (z.imag + 0.0).ravel().tolist(), z.real.ravel().tolist()), z.shape)


def _distinct(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the distinct values of x by bit pattern, so -0.0 and 0.0 stay apart, and
    # the index into them of every value of x; a 1-D key, as numpy 1.x and 2.x
    # shape the inverse of an n-D input differently
    keys, inverse = np.unique(x.ravel().view(np.int64), return_inverse=True)
    return keys.view(float), inverse


def _batch_values(
    f: IndexedFunction, z: np.ndarray, branches: Sequence[int]
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray] | None]:
    """Branch k of f at every point of z for each k in branches, as an array
    w of shape (len(branches), *z.shape). For a root also (cos, sin,
    at_phase): the cosine and sine of each branch angle (ph z + 2 k pi)/n
    per distinct phase, and the index of every point's phase into them
    (None for log). The caller has checked z (finite, non-zero) and every k
    (admissible for f). atan2 and abs run per point, log or pow per distinct
    modulus, cos and sin per branch and distinct phase; each value is
    bit-for-bit what _log_core or _root_core returns."""
    shape = (len(branches),) + z.shape
    ph = _phases(z).ravel()
    moduli, at_modulus = _distinct(_floats(map(abs, z.ravel().tolist()), ph.shape))
    shifts = np.array([TWO_PI * k for k in branches])[:, None]
    w = np.empty(shifts.shape[:1] + ph.shape, dtype=complex)
    if f.is_log:
        w.real = _floats(map(math.log, moduli.tolist()), moduli.shape)[at_modulus]
        w.imag = ph + shifts
        return w.reshape(shape), None
    phases, at_phase = _distinct(ph)
    angles = (phases + shifts) / f.n
    radius = _floats(map(pow, moduli.tolist(), itertools.repeat(1.0 / f.n)), moduli.shape)[at_modulus]
    cos, sin = (_floats(map(fn, angles.ravel().tolist()), angles.shape) for fn in (math.cos, math.sin))
    w.real = radius * cos[:, at_phase]
    w.imag = radius * sin[:, at_phase]
    return w.reshape(shape), (cos, sin, at_phase)


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


def _log_branch_index(im: float) -> int:
    # the unique k with (2k - 1) pi < im <= (2k + 1) pi
    return math.ceil((im - math.pi) / TWO_PI)


def _wrap_root_index(k: int, n: int) -> int:
    k %= n
    if k > n // 2:
        k -= n
    return k


def branch_of(w: complex, f: IndexedFunction) -> int:
    """Branch index whose range region contains the value w.

    For log that is the horizontal strip Im(w) in ((2k - 1) pi, (2k + 1) pi],
    defined for every finite w (w = 0 is the value ln_0 1, in strip 0); for
    the n-th root the sector ph(w) in ((2k - 1) pi/n, (2k + 1) pi/n], where
    for even n the k = n/2 sector wraps across ph = pi, and w = 0 is
    rejected since no root branch attains it. Computed by ceiling
    arithmetic so boundary ownership is deterministic.
    """
    w = _as_finite_complex(w) if f.is_log else _as_nonzero_complex(w)
    return _branch_index(w, f)


def _branch_index(w: complex, f: IndexedFunction) -> int:
    # branch_of for a w already checked: finite, and non-zero for roots
    if f.is_log:
        return _log_branch_index(w.imag)
    n = f.n
    return _wrap_root_index(math.ceil(_phase(w) * n / TWO_PI - 0.5), n)


def _batch_branch_index(w: np.ndarray, f: IndexedFunction) -> np.ndarray:
    """_branch_index at every point of w, as int64: the same ceiling
    arithmetic in numpy. Raises DomainError where an index would not fit
    int64; the cast alone would wrap it silently."""
    if f.is_root and f.n >= 2**63:  # the wrap modulo n below needs n in int64
        raise DomainError(f"the branch indices of {f.label()} reach outside int64")
    if f.is_log:
        index = np.ceil((w.imag - math.pi) / TWO_PI)
    else:
        index = np.ceil(_phases(w) * f.n / TWO_PI - 0.5)
    if not np.all(np.abs(index) < 2.0**63):
        raise DomainError(f"a branch index of {f.label()} on this grid lies outside int64")
    ks = index.astype(np.int64)
    if f.is_root:  # _wrap_root_index
        n = f.n
        ks %= n
        ks[ks > n // 2] -= n
    return ks


def continuation_branch(f: IndexedFunction, k: int) -> int:
    """Branch whose lower cut edge continues branch k's upper edge.

    Crossing the negative real axis downward (theta: pi -> -pi), the range
    value of branch k continues into branch k + 1 for log, and into k + 1
    wrapped back into the canonical set for roots.
    """
    k = f.require_admissible(k)
    if f.is_log:
        return k + 1
    return _wrap_root_index(k + 1, f.n)


def in_branch_range(y: complex, f: IndexedFunction, k: int) -> bool:
    """Whether the target value y is attainable by branch k of log.

    Equivalently: does log_branch(x, k) = y have a solution x. True iff
    Im(y) lies in ((2k - 1) pi, (2k + 1) pi]; real targets therefore demand
    k = 0. Defined for the logarithm only.
    """
    if not f.is_log:
        raise ValueError("in_branch_range is defined for the logarithm only")
    k = _require_branch(k)
    return _log_branch_index(_as_finite_complex(y).imag) == k
