"""The README's Library example runs as documented."""

from pathlib import Path

import pytest

from riemannmesh import BranchIndexError

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block():
    """The lines of the first python block under the README's Library heading."""
    section = README.read_text().split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0].splitlines()


def test_library_block_runs_as_documented():
    ns = {}
    raised = 0
    for line in library_block():
        if "# BranchIndexError" in line:  # documented to raise
            with pytest.raises(BranchIndexError, match="branch 2 is not admissible for root:3; expected -1..1"):
                exec(line, ns)
            raised += 1
        else:
            exec(line, ns)
    assert raised == 1
    rm, sheets, mesh = ns["rm"], ns["sheets"], ns["mesh"]
    assert sheets.branches == (-1, 0, 1) and sheets.c.shape == (3, 40, 241)
    assert mesh.n_vertices == 3 * 40 * 241 - 3 * 40  # three welded seams
    assert rm.seam_report(mesh)[0] == ((-1, 0), 0.0, 0.0)
    assert rm.evaluate_charisma(-8, 0, ns["f"], rm.CharismaKind.SIN) == pytest.approx(3**0.5 / 2)
