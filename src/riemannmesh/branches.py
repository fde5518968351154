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
mesh builder, _batch_heights, _batch_values and _batch_branch_index, call
the same helpers: _log_height and _root_angle, which use only +, * and /,
on numpy arrays, which round as floats do; the rest through _map_each,
math.atan2 and abs per point, _log_branch_index per point of a range
chart, and the others once per distinct argument. So both paths make the
same libm calls on the same arguments and agree bit for bit, and a change
to a formula is one edit. Only _batch_values computes range values: the
heights of every kind but phase need none.

Every map of a Python callable over the values of an array, here, in the
lattice's angles and in the writers' float texts, runs through _map_each,
_CHUNK values at a time, so no list of a whole lattice's Python numbers is
ever alive.

A scalar call checks each input once, one frame per check, and reads what
IndexedFunction stored when it was built. Where abs(z) overflows, the
scalar value cores take |z/4| and put the factor back. The batch path
needs no fallback: DomainGrid caps r_max at 2**1023, so abs of a lattice
point is finite.
"""

from __future__ import annotations

import cmath
import functools
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
    # ph z of a complex, or with atan2=_atan2_each of an array, point by point;
    # adding 0.0 folds a -0.0 imaginary part onto +0.0, so negative real
    # inputs take the theta = +pi side of the cut
    return atan2(z.imag + 0.0, z.real)


def _atan2_each(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    # math.atan2 at every point of two arrays of one shape
    return _map_each(math.atan2, y, x)


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


# values a per-value map takes at a time, and the chunk of _distinct and the integer texts: a list of a whole
# lattice's Python floats or complexes, 32 to 40 bytes a value, would set the peak memory of a build or a writer
_CHUNK = 1 << 12


def _map_each(fn, *arrays: np.ndarray, dtype=float) -> np.ndarray:
    # fn at every value of arrays of one shape, as an array of that shape and dtype: the one map of a Python
    # callable over array values, run from C, with no Python frame per call, over lists of _CHUNK values at a
    # time. A result the dtype cannot hold, such as an int beyond int64, raises OverflowError
    flat = [a.reshape(-1) for a in arrays]
    out = np.empty(flat[0].size, dtype)
    for i in range(0, out.size, _CHUNK):
        part = out[i:i + _CHUNK]  # each chunk's lists are freed before the next chunk's are made
        part[:] = np.fromiter(map(fn, *(a[i:i + _CHUNK].tolist() for a in flat)), dtype, len(part))
    return out.reshape(arrays[0].shape)


def _distinct(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of x (float64 or int), and the index into
    them of every value of x in C order, as a 1-D array: int32 where that
    holds every index. Floats are keyed by bit pattern, so -0.0 and 0.0 stay
    apart, and the values are those np.unique gives for the int64 view.

    One argsort of the key, no copy of x when a 1-D view of it exists, and
    the run starts and the inverse found a chunk of the sort order at a
    time: the writers dedupe whole lattice parts, phase sheets and JSON's w
    over every sheet with this, and the heights' table comes from the
    dedupe of the lattice's phases. np.unique's flattened copy, sorted copy
    and int64 inverse, or a whole-table sorted key and group array, would
    make the writer, not the mesh, set a run's peak memory.
    """
    key = (x.view(np.int64) if x.dtype.kind == "f" else x).reshape(-1)
    index_dtype = np.int32 if key.size < 2**31 else np.intp
    order = key.argsort().astype(index_dtype, copy=False)
    inverse = np.empty(key.size, index_dtype)
    values = []  # the distinct keys of each chunk
    count = 0  # distinct keys before the chunk
    for i in range(0, key.size, _CHUNK):
        at = order[i:i + _CHUNK].astype(np.intp)  # once, for the gather and the scatter
        ordered = key[at]
        new = np.empty(len(ordered), bool)
        new[0] = not i or ordered[0] != last
        np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
        values.append(ordered[new])
        group = np.cumsum(new, dtype=index_dtype)
        group += count - 1
        inverse[at] = group
        count, last = int(group[-1]) + 1, ordered[-1]
    return (np.concatenate(values) if values else key[:0]).view(x.dtype), inverse


def _batch_values(f: IndexedFunction, z: np.ndarray, branches: Sequence[int]) -> np.ndarray:
    """w = f_k(z) at every point of z for each k in branches, as an array of
    shape (len(branches), *z.shape), for a z and branches the caller has
    checked: the one batch path of the range values. atan2 and abs run per
    point, log or _root_radius per distinct modulus, cos and sin per branch
    and distinct phase, and _log_height and _root_angle on arrays of every
    branch; each value is bit-for-bit what branch_value returns."""
    shape = (len(branches),) + z.shape
    ph = _phase(z, _atan2_each).ravel()
    moduli, at_modulus = _distinct(_map_each(abs, z))
    ks = _branch_floats(branches)
    w = np.empty((len(branches),) + ph.shape, dtype=complex)
    if f.is_log:
        w.real = _map_each(math.log, moduli)[at_modulus]
        w.imag = _log_height(ph, ks)
    else:  # the cosine and sine of each branch angle per distinct phase
        radius = _map_each(lambda r: _root_radius(r, f.n), moduli)[at_modulus]
        del at_modulus
        phases, at_phase = _distinct(ph)
        angles = _root_angle(phases, f.n, ks)
        w.real = radius * _map_each(math.cos, angles)[:, at_phase]
        w.imag = radius * _map_each(math.sin, angles)[:, at_phase]
    return w.reshape(shape)


def _batch_heights(
    f: IndexedFunction, z: np.ndarray, branches: Sequence[int], kind: CharismaKind
) -> tuple[np.ndarray, np.ndarray]:
    """The charisma at every point of z for each k in branches, as a table
    (values, at), for a z, branches and kind the caller has checked: the
    height of branch branches[s] at point p of z is values[s, at[p]], and
    at, an int32 array of z's shape, is shared by every branch. Each height
    is bit-for-bit what evaluate_charisma returns. A height depends on the
    branch and on ph z alone but for phase, so values has a column per
    distinct phase for imag (_log_height of the phase), sin and cos (those
    of the branch angle), and one column for index, whose at is a broadcast
    0. Phase heights need the range values, which _batch_values makes and
    which are freed at once; they keep a column per point, and their at is
    the identity, arange(z.size) in z's shape."""
    ks = _branch_floats(branches)
    if kind is _INDEX:
        return ks, np.broadcast_to(np.int32(0), z.shape)
    if kind is _PHASE:
        return (_phase(_batch_values(f, z, branches), _atan2_each).reshape(len(ks), -1),
                np.arange(z.size, dtype=np.int32).reshape(z.shape))
    phases, at = _distinct(_phase(z, _atan2_each).ravel())
    if kind is _IMAG:
        values = _log_height(phases, ks)
    else:
        values = _map_each(math.cos if kind is _COS else math.sin, _root_angle(phases, f.n, ks))
    return values, at.reshape(z.shape)


def _branch_floats(branches: Sequence[int]) -> np.ndarray:
    # each k as the float that 2 pi k makes of it in the scalar helpers, as a column; an int64 array would add
    # numpy's buffered cast to the peak RSS
    return np.array(branches, float)[:, None]


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


def _batch_branch_index(w: np.ndarray, f: IndexedFunction) -> np.ndarray:
    """branch_of at every point of w, as int64: _log_branch_index per
    point, or _root_branch_index per distinct phase. Raises DomainError
    where an index does not fit int64."""
    try:
        if f.is_log:  # Im w of a lattice is mostly distinct: a dedupe costs more than it saves
            return _map_each(_log_branch_index, w.imag, dtype=np.int64)
        phases, at = _distinct(_phase(w, _atan2_each))
        return _map_each(lambda ph: _root_branch_index(ph, f.n), phases, dtype=np.int64)[at].reshape(w.shape)
    except OverflowError:
        raise DomainError(f"a branch index of {f.label()} on this grid lies outside int64") from None


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
