"""In-memory spans: name, start, end, parent span and job id.

The benchmark process and each traced CLI child record spans here and
hand them over only when their run ends, so nothing is written while a
span is open.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, job: str):
        """Time the enclosed block. The record's "counts" dict may be filled
        by the caller; an exception is recorded by type and re-raised."""
        rec = {
            "name": name,
            "job": job,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            "error": None,
            "counts": {},
        }
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield rec
        except BaseException as e:
            rec["error"] = type(e).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


def add_self_times(spans: list[dict]) -> list[dict]:
    """Set each span's "self": its duration minus the time its direct
    children cover. Parents are indices into the same list, and spans of
    one list never overlap except by nesting (one thread records them)."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    for s, c in zip(spans, covered):
        s["self"] = s["end"] - s["start"] - c
    return spans
