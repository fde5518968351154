"""`import riemannmesh` loads the scalar API alone; the mesh, CLI and writer
names load on the first read of a name the scalar module does not bind.
Each check runs in a fresh interpreter, whose sys.modules no earlier
import has filled."""

import subprocess
import sys
import textwrap

import pytest

# what the scalar API must not load: numpy, the CLI's argument parsing, JSON, and the package's array half
HEAVY = ("numpy", "argparse", "json", "riemannmesh.batch", "riemannmesh.mesh", "riemannmesh.cli", "riemannmesh.formats")


def run_fresh(code: str) -> None:
    prelude = (f"import sys\nimport riemannmesh as rm\nHEAVY = {HEAVY!r}\n"
               "def loaded():\n    return [m for m in HEAVY if m in sys.modules]\n"
               "assert loaded() == [], loaded()\n")
    proc = subprocess.run([sys.executable, "-c", prelude + textwrap.dedent(code)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_the_scalar_api_loads_no_array_cli_or_writer_module():
    run_fresh("""
        import cmath, math
        log, root = rm.IndexedFunction.log(), rm.IndexedFunction.root(3)
        assert rm.log_branch(-1, 1) == complex(0.0, 3 * math.pi)
        assert cmath.isclose(rm.root_branch(-8, 3, 0), complex(1.0, math.sqrt(3.0)))
        kinds = {kind: rm.evaluate_charisma(-8, 1, f, kind) for f in (log, root) for kind in rm.compatible_kinds(f)}
        assert set(kinds) == set(rm.CharismaKind) and all(math.isfinite(c) for c in kinds.values()), kinds
        assert rm.branch_of(-2, root) == 1
        assert rm.in_branch_range(2, log, 1) is False
        assert rm.continuation_branch(root, 1) == -1
        assert loaded() == [], loaded()
    """)


# a first use of the rest of the API, from a fresh start, and what it must return
FIRST_USES = {
    "a-mesh-name": ("got = rm.build_sheets", "got is sys.modules['riemannmesh.mesh'].build_sheets"),
    "the-writers": ("got = rm.formats", "got is sys.modules['riemannmesh.formats']"),
    "__all__": ("got = rm.__all__", "got == sorted(union)"),
    "a-star-import": ("got = {}; exec('from riemannmesh import *', got)",
                      "all(got[name] is vars(rm)[name] for name in union)"),
    "dir": ("got = dir(rm)", "set(union) <= set(got) and got == sorted(got)"),
}


@pytest.mark.parametrize("first_use", FIRST_USES)
def test_a_first_use_of_the_rest_loads_it_and_binds_each_module_object(first_use):
    use, check = FIRST_USES[first_use]
    run_fresh(f"""
        {use}
        assert loaded() == list(HEAVY), loaded()
        modules = [sys.modules[f"riemannmesh.{{name}}"] for name in ("branches", "cli", "mesh")]
        union = [name for m in modules for name in m.__all__]
        assert {check}, got
        for m in modules:
            for name in m.__all__:
                assert vars(rm)[name] is getattr(m, name), name
    """)


def test_an_unknown_name_raises_attribute_error():
    run_fresh("""
        for _ in range(2):
            try:
                rm.no_such_name
            except AttributeError as e:
                assert "no_such_name" in str(e), e
            else:
                raise AssertionError("an unknown name was found")
        assert loaded() == list(HEAVY), loaded()
    """)
