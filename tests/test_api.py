"""The package's public API is stated once: in the __all__ of each module."""

import ast
from pathlib import Path

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
