"""Indexed branches of the complex logarithm and n-th root functions.

A multivalued inverse is split into single-valued branches labelled by an
integer index k, with k = 0 the principal branch. Everything here rests on
one convention: the principal phase lies in (-pi, pi], every branch region
of the range is half-open and closed on its counterclockwise edge, and the
branch cut of every branch runs along the negative real axis.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass

__all__ = [
    "BranchIndexError",
    "DomainError",
    "IndexedFunction",
    "branch_of",
    "continuation_branch",
    "in_branch_range",
    "log_branch",
    "principal_phase",
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
    return _root_core(_as_nonzero_complex(z), n, _require_branch(k, n))


def _require_branch(k: int, n: int | None = None) -> int:
    # the one branch-index check: an integer, and for root:n one of root_indices(n)
    try:
        k = operator.index(k)
    except TypeError:
        raise BranchIndexError(f"branch index must be an integer, got {k!r}") from None
    if n is not None:
        indices = root_indices(n)
        if k not in indices:
            raise BranchIndexError(
                f"branch {k} is not admissible for root:{n}; "
                f"expected {indices.start}..{indices.stop - 1}"
            )
    return k


def _root_core(z: complex, n: int, k: int) -> complex:
    # the value alone, for a z and k the caller has already checked
    angle = (_phase(z) + TWO_PI * k) / n
    radius = abs(z) ** (1.0 / n)
    return complex(radius * math.cos(angle), radius * math.sin(angle))


@dataclass(frozen=True)
class IndexedFunction:
    """A multivalued inverse chosen for evaluation: log, or an n-th root."""

    kind: str
    n: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "log":
            if self.n is not None:
                raise ValueError("log takes no root degree")
        elif self.kind == "root":
            root_indices(self.n)  # raises ValueError unless n is an integer >= 2
        else:
            raise ValueError(f"unknown function kind {self.kind!r}")

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
        return self.kind == "log"

    @property
    def is_root(self) -> bool:
        return self.kind == "root"

    def branch_indices(self) -> range | None:
        """Admissible branch indices; None means all integers (log)."""
        return None if self.is_log else root_indices(self.n)

    def is_admissible(self, k: int) -> bool:
        k = _require_branch(k)
        return True if self.is_log else k in root_indices(self.n)

    def require_admissible(self, k: int) -> int:
        return _require_branch(k, None if self.is_log else self.n)

    def branch_value(self, z: complex, k: int) -> complex:
        """Evaluate branch k of this function at z."""
        if self.is_log:
            return log_branch(z, k)
        return root_branch(z, self.n, k)


def _branch_values(f: IndexedFunction, zs: list[complex], k: int) -> list[complex]:
    """Branch k of f at every point of zs, which the caller has checked:
    finite and non-zero complex values, k admissible for f. Runs the same
    core as the scalar functions, so each value is bit-for-bit theirs."""
    if f.is_log:
        return [_log_core(z, k) for z in zs]
    n = f.n
    return [_root_core(z, n, k) for z in zs]


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
