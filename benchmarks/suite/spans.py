"""The benchmark's own span recorder (traced runs only).

A span is ``(name, layer, start, end, op)`` on one *track* (a thread or a
rank); parents are derived when the run ends, by interval containment on
the track, so spans recorded here, phases imported from a
``repro.trace.Tracer`` report and collectives timed inside a rank
program all nest in one tree.  Self time = duration minus the part of
the interval the children cover.  Everything stays in memory until
:meth:`Recorder.write`.
"""

from __future__ import annotations

import contextlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    """One closed interval of work attributed to a layer."""

    name: str
    layer: str
    start: float
    end: float
    op: int = -1  # id of the timed op that caused it (-1: outside any op)
    track: int = 0
    probe: bool = False  # made after the timed region; not part of wall_s
    parent: int = -1  # index into Recorder.spans, set by finalize()
    self_s: float = 0.0  # set by finalize()

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans on the ``time.perf_counter`` clock."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op = -1

    @contextmanager
    def span(self, name: str, layer: str, probe: bool = False) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, layer, start, time.perf_counter(), probe=probe)

    def add(self, name: str, layer: str, start: float, end: float,
            op: Optional[int] = None, track: int = 0, probe: bool = False) -> None:
        """Record a closed span (also the import path for foreign timers)."""
        self.spans.append(
            Span(name, layer, start, end, self.op if op is None else op, track, probe)
        )

    def finalize(self) -> None:
        """Derive parents and self times by containment, per track."""
        order = sorted(
            range(len(self.spans)),
            key=lambda i: (self.spans[i].track, self.spans[i].start, -self.spans[i].end),
        )
        stack: List[int] = []
        for i in order:
            s = self.spans[i]
            s.parent, s.self_s = -1, s.duration
            while stack and not _contains(self.spans[stack[-1]], s):
                stack.pop()
            if stack:
                s.parent = stack[-1]
                if s.op < 0:
                    s.op = self.spans[s.parent].op
                self.spans[s.parent].self_s -= s.duration
            stack.append(i)
        for s in self.spans:
            s.self_s = max(s.self_s, 0.0)

    def layer_seconds(self) -> Dict[str, float]:
        """Self time per layer over the timed (non-probe) spans."""
        out: Dict[str, float] = {}
        for s in self.spans:
            if not s.probe:
                out[s.layer] = out.get(s.layer, 0.0) + s.self_s
        return out

    def durations(self, name: str, probe: Optional[bool] = None) -> List[float]:
        return [
            s.duration for s in self.spans
            if s.name == name and (probe is None or s.probe == probe)
        ]

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump([s.__dict__ for s in self.spans], f)


def _contains(outer: Span, inner: Span) -> bool:
    return (
        outer.track == inner.track
        and outer.start <= inner.start
        and inner.end <= outer.end
    )


class _NullRecorder:
    """Tracing off: ``span`` hands back one shared do-nothing context."""

    enabled = False
    op = -1
    _null = contextlib.nullcontext()

    def span(self, name: str, layer: str, probe: bool = False) -> contextlib.nullcontext:
        return self._null

    def add(self, *args: object, **kwargs: object) -> None:
        return None


NULL = _NullRecorder()
