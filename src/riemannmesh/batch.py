"""The batch path of the evaluation core: the charisma, the range values
and the branch index at every point of a numpy array, for the mesh builder
and the writers.

_batch_heights, _batch_values and _batch_branch_index call the one helper
of each formula that the scalar API calls, read as an attribute of the
branches module (imported as scalar: here branches names a list of branch
indices), so that one edit, or one patch, moves both paths together:
_log_height and _root_angle, which use only +, * and /, on numpy arrays,
which round as floats do; the rest through _map_each, math.atan2 and abs
per point, _log_branch_index per point of a range chart, and the others
once per distinct argument. So both paths make the same libm calls on the
same arguments and agree bit for bit. Only _batch_values computes range
values: the heights of every kind but phase need none.

Every map of a Python callable over the values of an array, here, in the
lattice's angles and in the writers' float texts, runs through _map_each,
_CHUNK values at a time, so no list of a whole lattice's Python numbers is
ever alive.

Everything here is for a z, branches and kind the caller has checked. The
batch path needs no fallback where abs(z) overflows: DomainGrid caps r_max
at 2**1023, so abs of a lattice point is finite. The package imports this
module, and numpy with it, only when a mesh, the CLI or a writer is first
used.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import branches as scalar
from .branches import _COS, _IMAG, _INDEX, _PHASE, CharismaKind, DomainError, IndexedFunction

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


def _atan2_each(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    # math.atan2 at every point of two arrays of one shape
    return _map_each(math.atan2, y, x)


def _batch_values(f: IndexedFunction, z: np.ndarray, branches: Sequence[int]) -> np.ndarray:
    """w = f_k(z) at every point of z for each k in branches, as an array of
    shape (len(branches), *z.shape), for a z and branches the caller has
    checked: the one batch path of the range values. atan2 and abs run per
    point, log or _root_radius per distinct modulus, cos and sin per branch
    and distinct phase, and _log_height and _root_angle on arrays of every
    branch; each value is bit-for-bit what branch_value returns."""
    shape = (len(branches),) + z.shape
    ph = scalar._phase(z, _atan2_each).ravel()
    moduli, at_modulus = _distinct(_map_each(abs, z))
    ks = _branch_floats(branches)
    w = np.empty((len(branches),) + ph.shape, dtype=complex)
    if f.is_log:
        w.real = _map_each(math.log, moduli)[at_modulus]
        w.imag = scalar._log_height(ph, ks)
    else:  # the cosine and sine of each branch angle per distinct phase
        radius = _map_each(lambda r: scalar._root_radius(r, f.n), moduli)[at_modulus]
        del at_modulus
        phases, at_phase = _distinct(ph)
        angles = scalar._root_angle(phases, f.n, ks)
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
        return (scalar._phase(_batch_values(f, z, branches), _atan2_each).reshape(len(ks), -1),
                np.arange(z.size, dtype=np.int32).reshape(z.shape))
    phases, at = _distinct(scalar._phase(z, _atan2_each).ravel())
    if kind is _IMAG:
        values = scalar._log_height(phases, ks)
    else:
        values = _map_each(math.cos if kind is _COS else math.sin, scalar._root_angle(phases, f.n, ks))
    return values, at.reshape(z.shape)


def _branch_floats(branches: Sequence[int]) -> np.ndarray:
    # each k as the float that 2 pi k makes of it in the scalar helpers, as a column; an int64 array would add
    # numpy's buffered cast to the peak RSS
    return np.array(branches, float)[:, None]


def _batch_branch_index(w: np.ndarray, f: IndexedFunction) -> np.ndarray:
    """branch_of at every point of w, as int64: _log_branch_index per
    point, or _root_branch_index per distinct phase. Raises DomainError
    where an index does not fit int64."""
    try:
        if f.is_log:  # Im w of a lattice is mostly distinct: a dedupe costs more than it saves
            return _map_each(scalar._log_branch_index, w.imag, dtype=np.int64)
        phases, at = _distinct(scalar._phase(w, _atan2_each))
        return _map_each(lambda ph: scalar._root_branch_index(ph, f.n), phases, dtype=np.int64)[at].reshape(w.shape)
    except OverflowError:
        raise DomainError(f"a branch index of {f.label()} on this grid lies outside int64") from None
