"""Spans around the calls a workload makes into spinscan's modules.

A span records its name (``<module>.<stage>``), the function called,
start and end on the ``perf_counter`` clock, the id of its parent span,
the id of the run (set-up or job) it belongs to, and the process's
resident-set high-water mark when the call returned.  Spans stay in
memory until the benchmark writes them out at the end.
"""

from __future__ import annotations

import json
import resource
import time
from contextlib import contextmanager


def peak_rss_mb() -> float:
    """High-water resident set of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Makes every call into the program; records a span when enabled.

    ``calls`` and ``failed`` count the calls made and those that raised,
    traced or not.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.calls = 0
        self.failed = 0
        self._parent = None
        self._run = None

    def call(self, name: str, fn, *args, **kwargs):
        self.calls += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            raise
        finally:
            if self.enabled:
                self.spans.append(
                    self._span(name, fn.__name__, start, self._parent)
                )

    @contextmanager
    def run(self, run_id: str):
        """Root span of one set-up or job; calls inside it are its children."""
        if not self.enabled:
            yield
            return
        self._run = run_id
        self._parent = len(self.spans)
        self.spans.append({})
        start = time.perf_counter()
        try:
            yield
        finally:
            root, self._parent = self._parent, None
            self.spans[root] = self._span(run_id, run_id, start, None, root)

    def _span(self, name, call, start, parent, span_id=None):
        return {
            "id": len(self.spans) if span_id is None else span_id,
            "name": name,
            "call": call,
            "start": start,
            "end": time.perf_counter(),
            "parent": parent,
            "run": self._run,
            "rss_mb": peak_rss_mb(),
        }

    def children(self, run_id: str) -> list[dict]:
        """The spans recorded inside one run."""
        return [s for s in self.spans if s["run"] == run_id and s["parent"] is not None]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh, indent=1)
