"""In-memory spans for the traced run.

A span records its name, start, end, the index of the span that was open
when it started (its parent, -1 for none) and the op it belongs to.
Spans stay in memory until the run ends; ``dump`` writes them out.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


# Every time the benchmark reports is CPU time of its own process.  The
# work is single-threaded, and on a shared host the wall time of identical
# work moves with what other tenants run (steal time); CPU time does not.
clock = time.process_time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent, op]
        self._open: list[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, clock(), 0.0, parent, self.op])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = clock()

    def self_seconds(self) -> dict[str, float]:
        """Per span name, total duration minus the part its children cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), kids in zip(self.spans, child_time):
            out[name] += end - start - kids
        return dict(out)

    def child_seconds(self, parent_name: str) -> float:
        """Total duration of the spans whose parent is named ``parent_name``."""
        return sum(end - start for _, start, end, parent, _ in self.spans
                   if parent >= 0 and self.spans[parent][0] == parent_name)

    def dump(self, path: Path) -> None:
        """One JSON array per span: name, start, end, parent, op."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
