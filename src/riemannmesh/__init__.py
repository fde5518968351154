"""Branch-indexed evaluation of multivalued complex functions and
synthesis of colored Riemann-surface meshes."""

from .branches import (
    BranchIndexError,
    DomainError,
    IndexedFunction,
    branch_of,
    continuation_branch,
    in_branch_range,
    log_branch,
    principal_phase,
    root_branch,
    root_indices,
)
from .charisma import (
    CharismaCompatibilityError,
    CharismaKind,
    compatible_kinds,
    evaluate_charisma,
    is_compatible,
)
from .cli import JobSpec, build_mesh, main, parse_args, run
from .mesh import (
    DEFAULT_LOG_BRANCHES,
    DEFAULT_WELD_TOL,
    PALETTE,
    DomainGrid,
    GridError,
    Seam,
    SheetStack,
    SurfaceMesh,
    assemble_surface,
    branch_color,
    build_range_chart,
    build_sheets,
    sample_domain,
    seam_report,
)

__version__ = "0.1.0"

__all__ = [
    "BranchIndexError",
    "CharismaCompatibilityError",
    "CharismaKind",
    "DEFAULT_LOG_BRANCHES",
    "DEFAULT_WELD_TOL",
    "DomainError",
    "DomainGrid",
    "GridError",
    "IndexedFunction",
    "JobSpec",
    "PALETTE",
    "Seam",
    "SheetStack",
    "SurfaceMesh",
    "assemble_surface",
    "branch_color",
    "branch_of",
    "build_mesh",
    "build_range_chart",
    "build_sheets",
    "compatible_kinds",
    "continuation_branch",
    "evaluate_charisma",
    "in_branch_range",
    "is_compatible",
    "log_branch",
    "main",
    "parse_args",
    "principal_phase",
    "root_branch",
    "root_indices",
    "run",
    "sample_domain",
    "seam_report",
]
