"""The corpus of runs whose outputs must not move (tests/corpus.txt), each
run in-process through cli.main, and each file it writes read back. Runs on
a lattice of four times the default or more (the 100x600 grid) run in CI
only, through run_corpus.py."""

import json
import re

import pytest

from riemannmesh.cli import EXIT_OK, main, parse_args
from riemannmesh.formats import read_ply
from run_corpus import files_of, rows



def lattice_points(args: list[str]) -> int:
    grid = parse_args(args).grid
    return grid.n_r * grid.n_cols


IN_PROCESS = [(name, args) for name, args in rows() if lattice_points(args) < 4 * lattice_points([])]


def _refuse(constant):
    raise AssertionError(f"{constant} in strict JSON")


def check_obj(obj: str, mtl: str) -> None:
    n_vertices = obj.count("\nv ")
    faces = [int(i) for line in re.findall(r"^f (.*)$", obj, re.M) for i in line.split()]
    assert faces and min(faces) >= 1 and max(faces) <= n_vertices
    assert set(re.findall(r"^usemtl (\S+)$", obj, re.M)) <= set(re.findall(r"^newmtl (\S+)$", mtl, re.M))


def test_the_corpus_names_each_output_once():
    # each file of each row, sidecars included: run_corpus.py writes every row into one directory
    names = [name for name, _ in rows()]
    files = [file for name in names for file in files_of(name)]
    assert len(set(files)) == len(files) and len(IN_PROCESS) < len(names)


@pytest.mark.parametrize("name,args", [pytest.param(name, args, id=name) for name, args in IN_PROCESS])
def test_each_run_writes_its_files_and_each_reads_back(tmp_path, name, args):
    assert main([*args, "-o", str(tmp_path / name)]) == EXIT_OK
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files_of(name))
    texts = {path.suffix: path.read_text() for path in tmp_path.iterdir()}
    for suffix, text in texts.items():
        if suffix == ".ply":
            read_ply(text)
        elif suffix == ".json":  # the mesh and the seam sidecar
            json.loads(text, parse_constant=_refuse)
        elif suffix == ".obj":
            check_obj(text, texts[".mtl"])
        elif suffix == ".csv":
            header, *lines = text.splitlines()
            assert header == "x,y,c,k" and lines and all(line.count(",") == 3 for line in lines)
