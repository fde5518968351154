"""Branch-indexed evaluation of multivalued complex functions and
synthesis of colored Riemann-surface meshes.

The public API is the union of the __all__ lists of branches, cli and
mesh; each module's list is the one place a public name is stated. The
writers and the PLY reader are reached as riemannmesh.formats.

Importing the package loads the scalar API, branches, alone: no numpy,
argparse or json. The first name read here that branches does not bind,
__all__ included, loads cli and mesh, and with them formats, batch and
numpy, and binds their public names here (a module __getattr__, PEP 562).
"""

import importlib

from .branches import *

__version__ = "0.1.0"


def _load() -> dict:
    # importing a submodule binds its name here too: branches now, cli, mesh, formats and batch on the first load
    modules = [branches, *(importlib.import_module(f"{__name__}.{name}") for name in ("cli", "mesh"))]
    names = {name: getattr(m, name) for m in modules for name in m.__all__}
    globals().update(names, __all__=sorted(names))
    return globals()


def __getattr__(name: str):
    try:
        return _load()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list[str]:
    return sorted(_load())
