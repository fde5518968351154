"""Indexed branches of the complex logarithm and n-th root functions.

A multivalued inverse is split into single-valued branches labelled by an
integer index k, with k = 0 the principal branch. Everything here rests on
one convention: the principal phase lies in (-pi, pi], every branch region
of the range is half-open and closed on its counterclockwise edge, and the
branch cut of every branch runs along the negative real axis. The
"charisma" of z on branch k is the height, read off the same evaluation as
f_k(z), that lifts the stack of branch sheets into a Riemann surface.

Each formula is written once, as a helper of a phase, a modulus or a
branch: the -0.0 fold and the phase (_phase), the log height (_log_height),
the root angle and radius (_root_angle, _root_radius), and the branch that
owns a log height or a root phase (_log_branch_index, _root_branch_index).
The scalar API calls them once per value. The batch entry points for the
mesh builder, batch._batch_heights, batch._batch_values and
batch._batch_branch_index, call the same helpers, read from this module,
on numpy arrays or through batch._map_each, so both paths agree bit for
bit and a change to a formula is one edit. This module imports no numpy:
`import riemannmesh` loads it and nothing else of the package.

A scalar call checks each input once, one frame per check, and reads what
IndexedFunction stored when it was built. Where abs(z) overflows, the
scalar value cores take |z/4| and put the factor back.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass, field
from enum import Enum

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
    "root_branch",
    "root_indices",
]

TWO_PI = 2.0 * math.pi

# the largest |k| of a log branch whose shift 2 k pi is a finite float;
# compared, not tested with `in range(...)`, which costs 0.4 us at this size
_MAX_FLOAT_BRANCH = 2**1021
_BEYOND_FLOAT = "branch index beyond -2**1021..2**1021: 2 k pi must be a finite float"
# the least root degree refused: below it every root branch k has
# |k| <= _MAX_FLOAT_BRANCH, and ph(w) n in branch_of is a finite float
_ROOT_DEGREE_LIMIT = 2**1022


class DomainError(ValueError):
    """An input at which no branch is defined (z = 0, or non-finite)."""


class BranchIndexError(ValueError):
    """A branch index outside the function's admissible set."""


def _as_nonzero_complex(z: complex, zero_ok: bool = False) -> complex:
    # the one check of a z (or w, or y): finite, and but for zero_ok not 0
    if z.__class__ is not complex:  # complex(z) of a complex costs a third of the check
        z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"non-finite value {z!r}")
    if z == 0 and not zero_ok:
        raise DomainError("z = 0 is the branch point; no branch is defined there")
    return z


def _phase(z, atan2=math.atan2):
    # ph z of a complex, or with atan2=batch._atan2_each of an array, point by point;
    # adding 0.0 folds a -0.0 imaginary part onto +0.0, so negative real
    # inputs take the theta = +pi side of the cut
    return atan2(z.imag + 0.0, z.real)


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
    # the value alone, for a z and k the caller has already checked, but for
    # k's float range, which require_admissible does not bound for log
    if abs(k) > _MAX_FLOAT_BRANCH:
        raise BranchIndexError(_BEYOND_FLOAT)
    try:
        ln_r = math.log(abs(z))
    except OverflowError:  # |z| beyond the largest float: z/4 is exact, and ln|z| = ln|z/4| + ln 4
        ln_r = math.log(abs(z / 4)) + math.log(4.0)
    return complex(ln_r, _log_height(_phase(z), k))


def _log_height(ph, k):
    # Im ln_k z = ph z + 2 k pi, of floats, or of arrays that broadcast
    return ph + TWO_PI * k


def _log_branch_index(im: float) -> int:
    # the unique k with (2k - 1) pi < im <= (2k + 1) pi
    return math.ceil((im - math.pi) / TWO_PI)


def root_indices(n: int) -> range:
    """Canonical branch-index set for the n-th root.

    Odd n gives the symmetric set {-(n-1)/2, ..., (n-1)/2}; even n gives
    {-n/2 + 1, ..., n/2}. Either way k = 0 is the principal branch and
    branch k owns the range sector ((2k - 1) pi/n, (2k + 1) pi/n]. The one
    check of a root degree: raises ValueError unless n is an integer >= 2
    and below 2**1022, where a branch angle would overflow a float.
    """
    try:
        n = operator.index(n)
    except TypeError:
        n = None
    if n is None or n < 2:
        raise ValueError("root degree n must be an integer >= 2")
    if n >= _ROOT_DEGREE_LIMIT:
        raise ValueError("root degree n must be below 2**1022: its branch angles must be finite floats")
    return range(-((n - 1) // 2), n // 2 + 1)


def root_branch(z: complex, n: int, k: int) -> complex:
    """Branch k of the n-th root: |z|^(1/n) e^(i (ph z + 2 k pi)/n).

    k must lie in root_indices(n). The returned w satisfies w**n = z, and
    the principal branch (k = 0) is confined to -pi/n < ph w <= pi/n.
    """
    # z, then k as an integer, then the degree n, then k in root_indices(n)
    z, k = _as_nonzero_complex(z), _require_branch(k)
    try:
        indices = _root_indices_of(n)
    except TypeError:  # an unhashable degree, which root_indices refuses
        indices = root_indices(n)
    if k not in indices:
        raise _inadmissible(k, indices)
    return _root_core(z, n, k)


# root_indices(n) for the recent degrees of root_branch, each built once; typed, so that 3.0 and True are
# checked as the degrees they are, not read as the sets of 3 and 1
_root_indices_of = functools.lru_cache(maxsize=64, typed=True)(root_indices)


def _require_branch(k: int, indices: range | None = None) -> int:
    # the one branch-index check: an integer, and for root:n one of indices = root_indices(n), of length n
    try:
        k = operator.index(k)
    except TypeError:
        raise BranchIndexError(f"branch index must be an integer, got {k!r}") from None
    if indices is not None and k not in indices:
        raise _inadmissible(k, indices)
    return k


def _inadmissible(k: int, indices: range) -> BranchIndexError:
    return BranchIndexError(
        f"branch {k} is not admissible for root:{indices.stop - indices.start}; "
        f"expected {indices.start}..{indices.stop - 1}"
    )


def _root_angle(ph, n: int, k):
    # the branch angle (ph z + 2 k pi)/n, which is ph w_k(z) modulo 2 pi, of
    # floats, or of arrays that broadcast
    return (ph + TWO_PI * k) / n


def _root_radius(r: float, n: int) -> float:
    # |w_k(z)| = |z|^(1/n). Far from 1, log r scales the rounding of 1/n up to about 100 ulp, so r = m 2**e
    # goes as (m 2**s)**(1/n) 2**q, e = q n + s; the truncated quotient keeps |s| <= |e|, so m 2**s is exact
    if 2.0**-8 <= r < 2.0**8:  # every default lattice; a compare is cheaper than frexp
        return r ** (1.0 / n)
    m, e = math.frexp(r)
    q = e // n if e > 0 else -(-e // n)  # e / n truncated, in ints: int(e / n) costs twice as much
    return math.ldexp(math.ldexp(m, e - q * n) ** (1.0 / n), q)


def _wrap_root_index(k: int, n: int) -> int:
    k %= n
    if k > n // 2:
        k -= n
    return k


def _root_branch_index(ph: float, n: int) -> int:
    # the k in root_indices(n) whose sector ((2k - 1) pi/n, (2k + 1) pi/n],
    # taken modulo 2 pi, holds the phase ph
    return _wrap_root_index(math.ceil(ph * n / TWO_PI - 0.5), n)


def _root_core(z: complex, n: int, k: int) -> complex:
    # the value alone, for a z and k the caller has already checked
    angle = _root_angle(_phase(z), n, k)
    try:
        radius = _root_radius(abs(z), n)
    except OverflowError:  # as in _log_core: |z|^(1/n) = |z/4|^(1/n) 4^(1/n), within 2 ulp
        radius = _root_radius(abs(z / 4), n) * 4.0 ** (1.0 / n)
    return complex(radius * math.cos(angle), radius * math.sin(angle))


@dataclass(frozen=True)
class IndexedFunction:
    """A multivalued inverse chosen for evaluation: log, or an n-th root (n stored as an int)."""

    kind: str
    n: int | None = None
    # facts computed once, when the function is built, and read by every scalar call as plain attributes
    _indices: range | None = field(init=False, repr=False, compare=False)  # branch_indices()
    is_log: bool = field(init=False, repr=False, compare=False)
    _kinds: tuple[CharismaKind, ...] = field(init=False, repr=False, compare=False)  # compatible_kinds(f)

    def __post_init__(self) -> None:
        if self.kind == "log":
            if self.n is not None:
                raise ValueError("log takes no root degree")
            indices, kinds = None, _LOG_KINDS
        elif self.kind == "root":
            indices, kinds = root_indices(self.n), _ROOT_KINDS  # ValueError unless n is an integer in 2..2**1022 - 1
            object.__setattr__(self, "n", operator.index(self.n))  # an int, whatever integer type n came as
        else:
            raise ValueError(f"unknown function kind {self.kind!r}")
        object.__setattr__(self, "_indices", indices)
        object.__setattr__(self, "is_log", indices is None)
        object.__setattr__(self, "_kinds", kinds)

    @classmethod
    def log(cls) -> "IndexedFunction":
        return cls("log")

    @classmethod
    def root(cls, n: int) -> "IndexedFunction":
        return cls("root", n)

    @classmethod
    def from_label(cls, label: str) -> "IndexedFunction":
        """Parse 'log' or 'root:N', N written in ASCII digits alone."""
        if label == "log":
            return cls.log()
        if label.startswith("root:"):
            degree = label[len("root:"):]
            try:
                if not (degree.isascii() and degree.isdigit()):  # int() takes a sign, spaces, _ and other digits
                    raise ValueError
                n = int(degree)  # and past its 4300 digits, ValueError
            except ValueError:
                raise ValueError(f"bad root degree in {label!r}") from None
            return cls.root(n)
        raise ValueError(f"unknown function {label!r}; expected 'log' or 'root:N'")

    def label(self) -> str:
        return "log" if self.is_log else f"root:{self.n}"

    def branch_indices(self) -> range | None:
        """Admissible branch indices; None means all integers (log)."""
        return self._indices

    def require_admissible(self, k: int) -> int:
        return _require_branch(k, self._indices)

    def branch_value(self, z: complex, k: int) -> complex:
        """Evaluate branch k of this function at z: z is checked, then k."""
        z = _as_nonzero_complex(z)
        k = _require_branch(k, self._indices)
        return _log_core(z, k) if self.is_log else _root_core(z, self.n, k)


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
    return f._kinds


def require_compatible(kind: CharismaKind | str, f: IndexedFunction) -> CharismaKind:
    """kind as a CharismaKind; raises CharismaCompatibilityError unless it
    is defined for f."""
    if not isinstance(kind, CharismaKind):  # the constructor costs more than the test
        kind = CharismaKind(kind)
    if kind not in f._kinds:
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
    if kind is _INDEX or kind is _IMAG:  # need no w; imag is the log height, without ln|z|
        if abs(k) > _MAX_FLOAT_BRANCH:
            raise BranchIndexError(_BEYOND_FLOAT)
        return float(k) if kind is _INDEX else _log_height(_phase(z), k)
    if kind is _PHASE:
        return _phase(_root_core(z, f.n, k))
    angle = _root_angle(_phase(z), f.n, k)  # sin or cos, of a root: those of ph(w) are those of the branch angle
    return math.sin(angle) if kind is _SIN else math.cos(angle)


def branch_of(w: complex, f: IndexedFunction) -> int:
    """Branch index whose range region contains the value w.

    For log that is the horizontal strip Im(w) in ((2k - 1) pi, (2k + 1) pi],
    defined for every finite w (w = 0 is the value ln_0 1, in strip 0); for
    the n-th root the sector ph(w) in ((2k - 1) pi/n, (2k + 1) pi/n], where
    for even n the k = n/2 sector wraps across ph = pi, and w = 0 is
    rejected since no root branch attains it. Computed by ceiling
    arithmetic so boundary ownership is deterministic.
    """
    if f.is_log:
        return _log_branch_index(_as_nonzero_complex(w, True).imag)
    return _root_branch_index(_phase(_as_nonzero_complex(w)), f.n)


def continuation_branch(f: IndexedFunction, k: int) -> int:
    """Branch whose lower cut edge continues branch k's upper edge.

    Crossing the negative real axis downward (theta: pi -> -pi), the range
    value of branch k continues into branch k + 1 for log, and into k + 1
    wrapped back into the canonical set for roots.
    """
    k = _require_branch(k, f._indices)
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
    return _log_branch_index(_as_nonzero_complex(y, True).imag) == k
