"""Each scalar call checks its inputs once, in one order, with one message.

The public scalar functions check the charisma kind, then z, then the
branch index k, and then run the value core on the checked inputs. An
IndexedFunction computes its admissible branch set once, when it is built,
so no call rebuilds it, and a kind that is already a CharismaKind is not
passed through the enum constructor again. Each public call stays within a
budget of Python-level calls: one frame per input check, and none for a
property or a pass-through wrapper.
"""

import dataclasses
import inspect
import pickle
import re
import sys

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
    continuation_branch,
    evaluate_charisma,
    in_branch_range,
    log_branch,
    root_branch,
)

LOG = IndexedFunction.log()
ROOT3 = IndexedFunction.root(3)

ZERO = (DomainError, "z = 0 is the branch point; no branch is defined there")
NAN = (DomainError, "non-finite value (nan+0j)")
INF = (DomainError, "non-finite value (inf+0j)")
NOT_INTEGER = (BranchIndexError, "branch index must be an integer, got 1.5")
OUTSIDE = (BranchIndexError, "branch 2 is not admissible for root:3; expected -1..1")
OUTSIDE_INT64 = (BranchIndexError, "branch 5 is not admissible for root:3; expected -1..1")
NOT_A_KIND = (ValueError, "'height' is not a valid CharismaKind")
SIN_FOR_LOG = (CharismaCompatibilityError, "charisma 'sin' is not defined for log; valid: index, imag")
IMAG_FOR_ROOT = (CharismaCompatibilityError, "charisma 'imag' is not defined for root:3; valid: index, phase, sin, cos")
LOG_ONLY = (ValueError, "in_branch_range is defined for the logarithm only")
DEGREE = (ValueError, "root degree n must be an integer >= 2")

BAD_INPUTS = [
    # evaluate_charisma: kind, then z, then k
    ("charisma-str-kind", lambda: evaluate_charisma(1j, 0, ROOT3, "height"), NOT_A_KIND),
    ("charisma-log-kind", lambda: evaluate_charisma(1j, 0, LOG, CharismaKind.SIN), SIN_FOR_LOG),
    ("charisma-root-kind", lambda: evaluate_charisma(1j, 0, ROOT3, "imag"), IMAG_FOR_ROOT),
    ("charisma-zero", lambda: evaluate_charisma(0, 0, ROOT3, CharismaKind.PHASE), ZERO),
    ("charisma-nan", lambda: evaluate_charisma(float("nan"), 0, LOG, CharismaKind.IMAG), NAN),
    ("charisma-inf", lambda: evaluate_charisma(float("inf"), 0, ROOT3, CharismaKind.INDEX), INF),
    ("charisma-k", lambda: evaluate_charisma(1j, 1.5, ROOT3, CharismaKind.COS), NOT_INTEGER),
    ("charisma-outside", lambda: evaluate_charisma(1j, 2, ROOT3, CharismaKind.SIN), OUTSIDE),
    ("charisma-int64", lambda: evaluate_charisma(1j, np.int64(5), ROOT3, CharismaKind.PHASE), OUTSIDE_INT64),
    ("charisma-kind-first", lambda: evaluate_charisma(0, 1.5, LOG, CharismaKind.SIN), SIN_FOR_LOG),
    ("charisma-str-kind-first", lambda: evaluate_charisma(0, 1.5, ROOT3, "height"), NOT_A_KIND),
    ("charisma-z-before-k", lambda: evaluate_charisma(0, 1.5, ROOT3, CharismaKind.SIN), ZERO),
    ("charisma-log-z-before-k", lambda: evaluate_charisma(float("nan"), 1.5, LOG, CharismaKind.INDEX), NAN),
    # branch_value: z, then k
    ("root-value-zero", lambda: ROOT3.branch_value(0, 0), ZERO),
    ("log-value-nan", lambda: LOG.branch_value(float("nan"), 0), NAN),
    ("root-value-inf", lambda: ROOT3.branch_value(float("inf"), 0), INF),
    ("log-value-k", lambda: LOG.branch_value(1j, 1.5), NOT_INTEGER),
    ("root-value-outside", lambda: ROOT3.branch_value(1j, 2), OUTSIDE),
    ("root-value-int64", lambda: ROOT3.branch_value(1j, np.int64(5)), OUTSIDE_INT64),
    ("root-value-z-before-k", lambda: ROOT3.branch_value(0, 2), ZERO),
    ("log-value-z-before-k", lambda: LOG.branch_value(float("inf"), 1.5), INF),
    # root_branch: z, then k as an integer, then the degree, then k in its set
    ("root_branch-zero", lambda: root_branch(0, 3, 0), ZERO),
    ("root_branch-nan", lambda: root_branch(float("nan"), 3, 0), NAN),
    ("root_branch-k", lambda: root_branch(1j, 3, 1.5), NOT_INTEGER),
    ("root_branch-outside", lambda: root_branch(1j, 3, 2), OUTSIDE),
    ("root_branch-int64", lambda: root_branch(1j, 3, np.int64(5)), OUTSIDE_INT64),
    ("root_branch-degree", lambda: root_branch(1j, 1, 0), DEGREE),
    ("root_branch-z-before-k", lambda: root_branch(0, 3, 2), ZERO),
    ("root_branch-k-before-degree", lambda: root_branch(1j, 1, 1.5), NOT_INTEGER),
    ("root_branch-degree-before-set", lambda: root_branch(1j, 2.5, 7), DEGREE),
    # log_branch: z, then k
    ("log_branch-zero", lambda: log_branch(0, 0), ZERO),
    ("log_branch-inf", lambda: log_branch(float("inf"), 0), INF),
    ("log_branch-k", lambda: log_branch(1j, 1.5), NOT_INTEGER),
    ("log_branch-z-before-k", lambda: log_branch(0, 1.5), ZERO),
    # branch_of: w only; log takes w = 0, a root does not
    ("branch_of-root-zero", lambda: branch_of(0, ROOT3), ZERO),
    ("branch_of-log-nan", lambda: branch_of(float("nan"), LOG), NAN),
    ("branch_of-root-inf", lambda: branch_of(float("inf"), ROOT3), INF),
    # in_branch_range: the function, then k, then y
    ("in_branch_range-root", lambda: in_branch_range(float("nan"), ROOT3, 1.5), LOG_ONLY),
    ("in_branch_range-k", lambda: in_branch_range(float("nan"), LOG, 1.5), NOT_INTEGER),
    ("in_branch_range-nan", lambda: in_branch_range(float("nan"), LOG, 0), NAN),
    ("in_branch_range-inf", lambda: in_branch_range(float("inf"), LOG, 0), INF),
    # continuation_branch: k
    ("continuation-log-k", lambda: continuation_branch(LOG, 1.5), NOT_INTEGER),
    ("continuation-root-outside", lambda: continuation_branch(ROOT3, 2), OUTSIDE),
    ("continuation-root-int64", lambda: continuation_branch(ROOT3, np.int64(5)), OUTSIDE_INT64),
    ("require_admissible-outside", lambda: ROOT3.require_admissible(2), OUTSIDE),
]


@pytest.mark.parametrize("call,expected", [pytest.param(c, e, id=i) for i, c, e in BAD_INPUTS])
def test_each_bad_input_raises_its_error_and_message(call, expected):
    error, message = expected
    with pytest.raises(error, match=f"^{re.escape(message)}$") as exc:
        call()
    assert type(exc.value) is error


@pytest.mark.parametrize("k", [np.int64(1), True], ids=["int64", "True"])
def test_an_integer_like_k_counts_as_that_integer(k):
    z = 0.3 - 1.2j
    assert ROOT3.branch_value(z, k) == root_branch(z, 3, k) == root_branch(z, 3, 1)
    assert LOG.branch_value(z, k) == log_branch(z, k) == log_branch(z, 1)
    assert evaluate_charisma(z, k, ROOT3, CharismaKind.SIN) == evaluate_charisma(z, 1, ROOT3, CharismaKind.SIN)
    assert evaluate_charisma(z, k, LOG, CharismaKind.IMAG) == evaluate_charisma(z, 1, LOG, CharismaKind.IMAG)
    assert continuation_branch(ROOT3, k) == -1 and continuation_branch(LOG, k) == 2
    assert in_branch_range(complex(0, 6.0), LOG, k)


def test_no_call_rebuilds_the_admissible_set_or_the_kind(monkeypatch):
    f = IndexedFunction.root(3)
    rebuilt, constructed = [], []
    root_indices = branches_module.root_indices
    monkeypatch.setattr(branches_module, "root_indices", lambda n: rebuilt.append(n) or root_indices(n))
    meta_call = type(CharismaKind).__call__

    def counted(cls, *args, **kwargs):
        if cls is CharismaKind:
            constructed.append(args)
        return meta_call(cls, *args, **kwargs)

    monkeypatch.setattr(type(CharismaKind), "__call__", counted)
    for z in (-8, complex(-1.0, -0.0), 0.3 - 1.2j):
        for k in f.branch_indices():
            f.branch_value(z, k)
            for kind in (CharismaKind.INDEX, CharismaKind.PHASE, CharismaKind.SIN, CharismaKind.COS):
                evaluate_charisma(z, k, f, kind)
            f.require_admissible(k)
            continuation_branch(f, k)
    assert rebuilt == [] and constructed == []
    evaluate_charisma(1j, 0, f, "sin")  # a str still goes through the constructor
    assert constructed == [("sin",)]


# the public scalar calls of the ten perfbench/scalar.py groups, the arguments each takes at a point z, and
# the most Python-level calls (the public call included) it may make: one frame per input check and one per
# formula helper, and no property or pass-through wrapper in between
INDEX, PHASE, SIN, COS, IMAG = CharismaKind
CALL_BUDGETS = [
    ("branch_value.log", LOG.branch_value, lambda z: (z, 2), 6),
    ("branch_value.root", ROOT3.branch_value, lambda z: (z, -1), 7),
    ("evaluate_charisma.index.log", evaluate_charisma, lambda z: (z, 2, LOG, INDEX), 4),
    ("evaluate_charisma.index.root", evaluate_charisma, lambda z: (z, 1, ROOT3, INDEX), 4),
    ("evaluate_charisma.phase", evaluate_charisma, lambda z: (z, 1, ROOT3, PHASE), 9),
    ("evaluate_charisma.sin", evaluate_charisma, lambda z: (z, 1, ROOT3, SIN), 6),
    ("evaluate_charisma.cos", evaluate_charisma, lambda z: (z, 0, ROOT3, COS), 6),
    ("evaluate_charisma.imag", evaluate_charisma, lambda z: (z, -3, LOG, IMAG), 6),
    ("branch_of.log", branch_of, lambda z: (z, LOG), 3),
    ("branch_of.root", branch_of, lambda z: (z, ROOT3), 5),
    ("in_branch_range", in_branch_range, lambda z: (z, LOG, 0), 4),
    ("continuation_branch.log", continuation_branch, lambda z: (LOG, 2), 2),
    ("continuation_branch.root", continuation_branch, lambda z: (ROOT3, 1), 3),
]


def python_calls(fn, args) -> dict[str, int]:
    """How often each Python function ran during fn(*args), by name."""
    seen = {}

    def profile(frame, event, arg):
        if event == "call":
            seen[frame.f_code.co_name] = seen.get(frame.f_code.co_name, 0) + 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
    return seen


@pytest.mark.parametrize("fn,args,budget", [pytest.param(f, a, b, id=i) for i, f, a, b in CALL_BUDGETS])
def test_each_scalar_call_stays_within_its_call_budget(fn, args, budget):
    # a negative real on either side of the cut, and a z whose modulus overflows abs
    for z in (0.3 - 1.2j, complex(-2.0, 0.0), complex(-2.0, -0.0), 1.7e308 + 1.7e308j):
        seen = python_calls(fn, args(z))
        assert sum(seen.values()) <= budget, seen
        assert seen.get("_as_nonzero_complex", 0) <= 1 and seen.get("_require_branch", 0) <= 1, seen


def test_root_branch_checks_k_once_and_builds_the_set_of_a_degree_once():
    # z, then k as an integer, then the degree, then k in its set, one frame per check; the first call for
    # a degree builds its set, and each later one reads it: 7 calls, as through IndexedFunction.branch_value
    root_branch(1j, 3, 0)
    for z in (0.3 - 1.2j, complex(-2.0, 0.0), complex(-2.0, -0.0), 1.7e308 + 1.7e308j):
        seen = python_calls(root_branch, (z, 3, 1))
        assert sum(seen.values()) <= 7 and seen["_require_branch"] == 1 and "root_indices" not in seen, seen
    # an unhashable degree gets the degree check's error, not the cache's
    with pytest.raises(ValueError, match=f"^{re.escape(DEGREE[1])}$"):
        root_branch(1j, [3], 0)


def assert_stored_facts(f: IndexedFunction, n: int | None) -> None:
    # what __post_init__ stores for a function of root degree n, or of log for n = None
    if n is None:
        assert f.is_log is True and f.branch_indices() is None
        assert compatible_kinds(f) == (INDEX, IMAG)
    else:
        assert f.is_log is False and f.branch_indices() == range(-((n - 1) // 2), n // 2 + 1)
        assert compatible_kinds(f) == (INDEX, PHASE, SIN, COS)
    assert f == (LOG if n is None else IndexedFunction.root(n))


class TestIndexedFunctionValue:
    def test_repr_eq_and_hash_see_kind_and_degree_only(self):
        assert repr(ROOT3) == "IndexedFunction(kind='root', n=3)"
        assert repr(LOG) == "IndexedFunction(kind='log', n=None)"
        assert ROOT3 == IndexedFunction("root", 3) and hash(ROOT3) == hash(IndexedFunction("root", 3))
        assert LOG == IndexedFunction("log") and hash(LOG) == hash(IndexedFunction("log"))
        assert ROOT3 != IndexedFunction.root(4) and ROOT3 != LOG
        assert list(inspect.signature(IndexedFunction).parameters) == ["kind", "n"]
        # the facts stored when it is built stay out of its signature, repr, == and hash
        stored = {f.name for f in dataclasses.fields(IndexedFunction) if not f.init}
        assert stored == {"_indices", "is_log", "_kinds"}
        assert not any(f.repr or f.compare for f in dataclasses.fields(IndexedFunction) if f.name in stored)
        assert dataclasses.astuple(ROOT3)[:2] == ("root", 3) and hash(ROOT3) == hash(("root", 3))
        # a numpy degree is stored as an int, built directly or through root()
        for direct in (IndexedFunction("root", np.int64(3)), IndexedFunction.root(np.int64(3))):
            assert type(direct.n) is int and repr(direct) == repr(ROOT3)
            assert direct == ROOT3 and hash(direct) == hash(ROOT3)

    @pytest.mark.parametrize("f", [LOG, ROOT3, IndexedFunction.root(6)], ids=lambda f: f.label())
    def test_a_pickled_function_is_the_same_function(self, f):
        g = pickle.loads(pickle.dumps(f))
        assert g == f and hash(g) == hash(f) and repr(g) == repr(f)
        assert_stored_facts(g, f.n)
        assert g.branch_value(-8, 1) == f.branch_value(-8, 1)

    def test_replace_recomputes_the_admissible_set(self):
        f = dataclasses.replace(ROOT3, n=5)
        assert f == IndexedFunction.root(5) and repr(f) == "IndexedFunction(kind='root', n=5)"
        assert hash(f) == hash(IndexedFunction.root(5))
        assert_stored_facts(f, 5)
        assert f.require_admissible(2) == 2
        assert_stored_facts(ROOT3, 3)
        assert_stored_facts(dataclasses.replace(LOG), None)
        assert_stored_facts(dataclasses.replace(LOG, kind="root", n=np.int64(2)), 2)
        assert_stored_facts(dataclasses.replace(ROOT3, kind="log", n=None), None)
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(ROOT3, is_log=True)
        with pytest.raises(ValueError, match="root degree n must be an integer >= 2"):
            dataclasses.replace(ROOT3, n=1)
        with pytest.raises(ValueError, match="log takes no root degree"):
            dataclasses.replace(LOG, n=3)

    def test_the_function_stays_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ROOT3.n = 5
