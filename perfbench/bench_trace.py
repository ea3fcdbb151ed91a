"""In-memory spans around calls into tinymmt's layers.

Nothing under src/ is changed: the tracer replaces names as their callers
look them up (a function in the calling module's namespace, a method on its
class) with a wrapper that records a span, and puts the originals back when
the run ends. Each span keeps its name, start, end and parent; self time is
a span's duration minus the time its direct children cover.

Per-op figures only count spans that lie wholly inside an op window (a train
step, a translated sentence, a corpus pass), so set-up, warm-up and the
benchmark's own checks never leak into them.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from time import perf_counter

import numpy as np


@dataclass(frozen=True)
class Spec:
    """One traced name.

    owner/attr: where callers look the name up. name: span name, used for
    call counts. metric: where its self time goes (default: name).
    opaque: calls made inside it record no spans of their own, so their time
    stays in this span (vision encoder and adapter blocks are not LM blocks).
    inline_under: span names under which a call records no span.
    count: f(args, result) -> number stored with the span.
    """

    owner: object
    attr: str
    name: str
    metric: str | None = None
    opaque: bool = False
    inline_under: frozenset = frozenset()
    count: object = None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.metrics: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: list[float] = []
        self.windows: list[tuple[float, float]] = []
        self._stack: list[int] = []
        self._opaque = 0

    def _open(self, name: str, metric: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.metrics.append(metric)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.counts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code; yields its index."""
        idx = self._open(name, name)
        try:
            yield idx
        finally:
            self._close(idx)

    def wrap(self, fn, spec: Spec):
        metric = spec.metric or spec.name

        def traced(*args, **kwargs):
            if self._opaque or (spec.inline_under and self._stack
                                and self.names[self._stack[-1]] in spec.inline_under):
                return fn(*args, **kwargs)
            idx = self._open(spec.name, metric)
            self._opaque += spec.opaque
            try:
                result = fn(*args, **kwargs)
            finally:
                self._opaque -= spec.opaque
                self._close(idx)
            if spec.count is not None:
                self.counts[idx] = spec.count(args, result)
            return result

        return traced

    def summary(self) -> dict:
        """Aggregates over the recorded spans.

        'in_windows' holds per-name totals over spans inside op windows
        (self ms per metric, calls and counts per name); 'all' holds per-name
        totals over every span, for once-per-run calls such as a checkpoint
        load.
        """
        starts = np.asarray(self.starts)
        dur = np.asarray(self.ends) - starts
        child = np.zeros_like(dur)
        parents = np.asarray(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_ms = (dur - child) * 1000.0

        in_win = np.zeros(len(starts), dtype=bool)
        if self.windows and len(starts):
            w_starts = np.asarray([w[0] for w in self.windows])
            w_ends = np.asarray([w[1] for w in self.windows])
            k = np.searchsorted(w_starts, starts, side="right") - 1
            ok = k >= 0
            in_win[ok] = np.asarray(self.ends)[ok] <= w_ends[k[ok]]
        window_ms = sum(b - a for a, b in self.windows) * 1000.0

        def totals(mask):
            out: dict[str, dict] = {}
            for i in np.flatnonzero(mask):
                rec = out.setdefault(self.names[i], {"calls": 0, "count": 0.0, "ms": 0.0})
                rec["calls"] += 1
                rec["count"] += self.counts[i]
                rec["ms"] += dur[i] * 1000.0
            return out

        self_by_metric: dict[str, float] = {}
        for i in np.flatnonzero(in_win):
            m = self.metrics[i]
            self_by_metric[m] = self_by_metric.get(m, 0.0) + self_ms[i]
        return {
            "windows": len(self.windows),
            "window_ms": window_ms,
            "self_ms": self_by_metric,
            "in_windows": totals(in_win),
            "all": totals(np.ones(len(starts), dtype=bool)),
        }


@contextlib.contextmanager
def installed(tracer: Tracer, specs):
    """Patch every spec's name with a traced wrapper; restore on exit."""
    saved = []
    try:
        for spec in specs:
            original = spec.owner.__dict__[spec.attr]
            saved.append((spec.owner, spec.attr, original))
            setattr(spec.owner, spec.attr, tracer.wrap(original, spec))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def tape_size(loss) -> int:
    """Nodes in the autodiff graph reachable from loss."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        node = stack.pop()
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)
