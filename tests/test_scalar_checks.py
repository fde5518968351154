"""Each scalar call checks its inputs once, in one order, with one message.

The public scalar functions check the charisma kind, then z, then the
branch index k, and then run the value core on the checked inputs. An
IndexedFunction computes its admissible branch set once, when it is built,
so no call rebuilds it, and a kind that is already a CharismaKind is not
passed through the enum constructor again.
"""

import dataclasses
import inspect
import pickle
import re

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


class TestIndexedFunctionValue:
    def test_repr_eq_and_hash_see_kind_and_degree_only(self):
        assert repr(ROOT3) == "IndexedFunction(kind='root', n=3)"
        assert repr(LOG) == "IndexedFunction(kind='log', n=None)"
        assert ROOT3 == IndexedFunction("root", 3) and hash(ROOT3) == hash(IndexedFunction("root", 3))
        assert LOG == IndexedFunction("log") and hash(LOG) == hash(IndexedFunction("log"))
        assert ROOT3 != IndexedFunction.root(4) and ROOT3 != LOG
        assert list(inspect.signature(IndexedFunction).parameters) == ["kind", "n"]

    @pytest.mark.parametrize("f", [LOG, ROOT3, IndexedFunction.root(6)], ids=lambda f: f.label())
    def test_a_pickled_function_is_the_same_function(self, f):
        g = pickle.loads(pickle.dumps(f))
        assert g == f and hash(g) == hash(f) and repr(g) == repr(f)
        assert g.branch_indices() == f.branch_indices()
        assert g.branch_value(-8, 1) == f.branch_value(-8, 1)

    def test_replace_recomputes_the_admissible_set(self):
        f = dataclasses.replace(ROOT3, n=5)
        assert f == IndexedFunction.root(5) and repr(f) == "IndexedFunction(kind='root', n=5)"
        assert f.branch_indices() == range(-2, 3) and f.require_admissible(2) == 2
        assert ROOT3.branch_indices() == range(-1, 2)
        with pytest.raises(ValueError, match="root degree n must be an integer >= 2"):
            dataclasses.replace(ROOT3, n=1)
        with pytest.raises(ValueError, match="log takes no root degree"):
            dataclasses.replace(LOG, n=3)

    def test_the_function_stays_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ROOT3.n = 5
