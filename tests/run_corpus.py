"""Run the corpus of CLI runs whose outputs must not move, for one source tree.

    python tests/run_corpus.py SRC OUT

runs each row of tests/corpus.txt as `python -m riemannmesh ARGS -o OUT/NAME`
with SRC on PYTHONPATH, and stops at the first run that fails or leaves a
file of its set unwritten. Two trees' outputs compare with `diff -r`; the
arguments are plain data, so an older tree's SRC runs this table unchanged.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
from pathlib import Path
from typing import Iterator

CORPUS = Path(__file__).with_name("corpus.txt")


def rows(corpus: Path = CORPUS) -> Iterator[tuple[str, list[str]]]:
    """(output name, arguments) per row; # starts a comment."""
    for line in corpus.read_text().splitlines():
        words = shlex.split(line, comments=True)
        if words:
            yield words[0], words[1:]


def files_of(name: str) -> set[str]:
    """The files a row writes: its output, the seam sidecar and, for OBJ, the MTL."""
    out = Path(name)
    suffixes = (".seams.json", ".mtl") if out.suffix == ".obj" else (".seams.json",)
    return {name, *(out.with_suffix(suffix).name for suffix in suffixes)}


def main(argv: list[str]) -> int:
    src, out = (Path(a).resolve() for a in argv)
    out.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(src)}
    for name, args in rows():
        subprocess.run([sys.executable, "-m", "riemannmesh", *args, "-o", str(out / name)], env=env, check=True)
        missing = sorted(f for f in files_of(name) if not (out / f).is_file())
        if missing:
            sys.exit(f"{name}: {', '.join(missing)} not written")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1:]))
