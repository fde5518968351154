"""Branch-indexed evaluation of multivalued complex functions and
synthesis of colored Riemann-surface meshes.

The public API is the union of the __all__ lists of branches, cli and
mesh; each module's list is the one place a public name is stated. The
writers and the PLY reader are reached as riemannmesh.formats."""

from .branches import *
from .cli import *
from .mesh import *

__version__ = "0.1.0"

# importing a submodule binds its name here too
__all__ = sorted([*branches.__all__, *cli.__all__, *mesh.__all__])
