"""The package's public API is stated once: in the __all__ of each module."""

import ast
import sys
import tokenize
from pathlib import Path

import pytest

import riemannmesh
from riemannmesh import IndexedFunction, branches, cli, mesh


def test_the_package_exports_the_union_of_the_module_lists():
    modules = (branches, cli, mesh)
    union = [name for m in modules for name in m.__all__]
    assert len(set(union)) == len(union)
    assert riemannmesh.__all__ == sorted(union)
    for m in modules:
        for name in m.__all__:
            assert getattr(riemannmesh, name) is getattr(m, name), name


def test_the_package_restates_no_name():
    tree = ast.parse(Path(riemannmesh.__file__).read_text())
    imported = [
        alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names
    ]
    assert imported and set(imported) == {"*"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            assert not isinstance(node.value, (ast.List, ast.Tuple, ast.Set)), "a literal __all__"


def test_a_root_is_told_by_is_log_alone():
    assert not hasattr(IndexedFunction, "is_root")


# CPython's compile memory steps up by about 0.25 MB once a module passes about this many tokens
IMPORT_STEP_TOKENS = 4096


# Python 3.12 tokenizes an f-string into its parts, so the same source counts more tokens there
@pytest.mark.skipif(sys.version_info >= (3, 12), reason="f-strings tokenize into more tokens from Python 3.12 on")
@pytest.mark.parametrize("path", sorted(Path(riemannmesh.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_every_module_stays_below_the_import_step(path):
    with tokenize.open(path) as source:
        tokens = [t for t in tokenize.generate_tokens(source.readline) if t.type not in (tokenize.COMMENT, tokenize.NL)]
    assert len(tokens) < IMPORT_STEP_TOKENS, f"{path.name} holds {len(tokens)} tokens: move code out of it"
