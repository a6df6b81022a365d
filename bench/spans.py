"""In-memory span recording and self-time arithmetic for the traced rep.

A span is one call into a program layer, recorded by a wrapper that this
directory installs around a public function or method (the program itself
records nothing). Each span carries a name, its layer, start and end
(``time.perf_counter``), the id of the span that was open when it began,
the process id, and the trace id ``<workload>/<rep>`` shared by every span
of one campaign.

Spans stay in memory and are written out when the campaign ends. The
exception is a process forked from the campaign (a pool worker): its
memory dies with it, so it appends its spans to ``<worker_log>.<pid>``
whenever its own stack of open spans empties, and the campaign process
collects those files at the end.

A layer's self time is its spans' durations minus the parts covered by
their child spans. Child spans on one thread run one after another inside
their parent, so the covered part is the sum of their durations.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterable, Optional


class Tracer:
    """Records spans and counters from wrapped calls.

    Args:
        trace_id: identifier shared by every span of the campaign.
        worker_log: path prefix for spans finished in forked processes
            (``None`` drops them).
    """

    def __init__(self, trace_id: str, worker_log: Optional[Path] = None):
        self.trace_id = trace_id
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._worker_log = worker_log
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._pending: list[dict] = []

    def _stack(self) -> list[str]:
        # Per thread, and reset in a forked child: a span still open in
        # the parent at fork time is not on the child's timeline.
        local = self._local
        if getattr(local, "pid", None) != os.getpid():
            local.pid = os.getpid()
            local.stack = []
        return local.stack

    def add(self, layer: str, name: str, start: float, end: float) -> None:
        """Record a span measured by the caller (top level, no attrs)."""
        self._keep(self._span(None, layer, name, start, end), top=True)

    def _span(self, parent, layer, name, start, end) -> dict:
        return {
            "id": f"{os.getpid()}.{next(self._ids)}",
            "parent": parent,
            "trace": self.trace_id,
            "layer": layer,
            "name": name,
            "start": start,
            "end": end,
            "pid": os.getpid(),
        }

    def _keep(self, record: dict, top: bool) -> None:
        if os.getpid() == self.pid:
            if "count" in record:
                self.counts[record["count"]] += 1
            else:
                self.spans.append(record)
            return
        self._pending.append(record)
        if top and self._worker_log is not None:
            lines = "".join(json.dumps(r) + "\n" for r in self._pending)
            self._pending.clear()
            with open(f"{self._worker_log}.{os.getpid()}", "a") as fh:
                fh.write(lines)

    def count(self, name: str) -> None:
        """Increment a counter (flushed with the enclosing span in a
        forked process)."""
        self._keep({"count": name}, top=not self._stack())

    def wrap(
        self,
        fn: Callable,
        layer: str,
        name: str,
        attrs: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recording one span per call; ``attrs(args, kwargs,
        result)`` adds a dict of attributes to spans of calls that
        returned."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            record = self._span(
                stack[-1] if stack else None, layer, name, 0.0, 0.0
            )
            stack.append(record["id"])
            returned = False
            record["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                record["end"] = time.perf_counter()
                stack.pop()
                if returned and attrs is not None:
                    record["attrs"] = attrs(args, kwargs, result)
                self._keep(record, top=not stack)

        return traced

    def collect(self) -> tuple[list[dict], dict[str, int]]:
        """All spans and counts, including those forked processes logged."""
        spans = list(self.spans)
        counts = defaultdict(int, self.counts)
        if self._worker_log is not None:
            log = Path(self._worker_log)
            for path in sorted(log.parent.glob(log.name + ".*")):
                for line in path.read_text().splitlines():
                    record = json.loads(line)
                    if "count" in record:
                        counts[record["count"]] += 1
                    else:
                        spans.append(record)
        return spans, dict(counts)


def self_times(spans: Iterable[dict]) -> dict[str, float]:
    """Span id -> duration minus the time its child spans cover."""
    spans = list(spans)
    covered: dict[str, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    return {
        span["id"]: span["end"] - span["start"] - covered[span["id"]]
        for span in spans
    }


def layer_table(spans: Iterable[dict]) -> dict[tuple[str, str], dict]:
    """``(layer, name)`` -> ``{"calls", "self_s"}`` over all spans."""
    spans = list(spans)
    own = self_times(spans)
    table: dict[tuple[str, str], dict] = {}
    for span in spans:
        row = table.setdefault(
            (span["layer"], span["name"]), {"calls": 0, "self_s": 0.0}
        )
        row["calls"] += 1
        row["self_s"] += own[span["id"]]
    return table


def untraced_seconds(spans: Iterable[dict], wall_s: float, pid: int) -> float:
    """Wall time of process ``pid`` that no top-level span of it covers."""
    top = sum(
        span["end"] - span["start"]
        for span in spans
        if span["parent"] is None and span["pid"] == pid
    )
    return wall_s - top
