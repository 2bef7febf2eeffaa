"""Span tracing from outside the program: wrap layer entry points by name.

A :class:`Tracer` replaces each traced callable *where its caller looks it
up* (``repro.solver.solver.decompose``, ``repro.lia.sat.DpllSolver.solve``,
...) with a wrapper that records one span per call: name, start, end and
the enclosing span.  Spans stay in memory; :meth:`Tracer.chrome_trace`
renders them as Chrome trace-event JSON (opens in Perfetto).  Leaving the
``with`` block restores every original attribute, so an untraced run in the
same process sees the program exactly as shipped.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Probe:
    """One traced entry point.

    ``target`` is ``module:attr`` or ``module:Class.method``; ``span`` names
    the recorded span.  ``on_return(tracer, args, result)`` may add counts
    derived from the call's arguments or result.
    """

    span: str
    target: str
    on_return: Optional[Callable[["Tracer", tuple, Any], None]] = None


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_ns", "args")

    def __init__(self, name: str, parent: int, start: int, args=None) -> None:
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.child_ns = 0
        self.args = args

    @property
    def duration_ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.end - self.start - self.child_ns


def _resolve(target: str) -> Tuple[Any, str]:
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Installs :class:`Probe` wrappers for the duration of a ``with`` block."""

    def __init__(self, probes) -> None:
        self.probes = tuple(probes)
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}
        #: objects probes keep to read when the run ends, by ``id``
        self.kept: Dict[int, Any] = {}
        self._stack: List[int] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- installation ---------------------------------------------------
    def __enter__(self) -> "Tracer":
        for probe in self.probes:
            owner, attr = _resolve(probe.target)
            # Read classes through __dict__ so a staticmethod/classmethod
            # descriptor is saved (and restored) as the descriptor itself.
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(probe, getattr(owner, attr)))
        return self

    def __exit__(self, *_exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, probe: Probe, fn: Callable) -> Callable:
        tracer = self
        name = probe.span
        on_return = probe.on_return

        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if on_return is not None:
                on_return(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- recording --------------------------------------------------------
    def _open(self, name: str, args=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, parent, time.perf_counter_ns(), args))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter_ns()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_ns += span.duration_ns

    def span(self, name: str, **args):
        """A span opened by the benchmark itself (e.g. one per check)."""
        return _ManualSpan(self, name, args)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- aggregation ------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, inclusive ``ms`` and ``self_ms``.

        Inclusive time counts only the outermost span of a name, so a
        recursive entry point is not counted twice.
        """
        out: Dict[str, Dict[str, float]] = {}
        for index, span in enumerate(self.spans):
            entry = out.setdefault(span.name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            entry["calls"] += 1
            entry["self_ms"] += span.self_ns / 1e6
            if not self._has_ancestor(index, span.name):
                entry["ms"] += span.duration_ns / 1e6
        return out

    def _has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index].parent
        while parent >= 0:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def coverage(self, root: str, dark: Tuple[str, ...]) -> List[float]:
        """Per ``root`` span: share of its wall time inside named layer spans.

        Time is *dark* when it is the self time of the root itself or of an
        orchestrating span named in ``dark``; everything else sits inside a
        named layer span.
        """
        dark_ns: Dict[int, int] = {}
        roots: List[int] = []
        for index, span in enumerate(self.spans):
            if span.name == root:
                roots.append(index)
                dark_ns[index] = dark_ns.get(index, 0) + span.self_ns
            elif span.name in dark:
                top = self._root_of(index, root)
                if top is not None:
                    dark_ns[top] = dark_ns.get(top, 0) + span.self_ns
        shares = []
        for index in roots:
            duration = self.spans[index].duration_ns
            if duration > 0:
                shares.append(1.0 - dark_ns.get(index, 0) / duration)
        return shares

    def _root_of(self, index: int, root: str) -> Optional[int]:
        parent = self.spans[index].parent
        while parent >= 0:
            if self.spans[parent].name == root:
                return parent
            parent = self.spans[parent].parent
        return None

    def chrome_trace(self, limit: int = 200_000) -> Dict[str, Any]:
        """Chrome trace-event JSON (complete ``X`` events, microseconds)."""
        if not self.spans:
            return {"traceEvents": [], "displayTimeUnit": "ms"}
        origin = self.spans[0].start
        events = []
        for span in self.spans[:limit]:
            event = {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": (span.start - origin) / 1000.0,
                "dur": span.duration_ns / 1000.0,
                "pid": 1,
                "tid": 1,
            }
            if span.args:
                event["args"] = span.args
            events.append(event)
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"spans": len(self.spans), "written": len(events)},
        }


class _ManualSpan:
    def __init__(self, tracer: Tracer, name: str, args: Dict[str, Any]) -> None:
        self.tracer = tracer
        self.name = name
        self.args = args or None
        self.index = -1

    def __enter__(self) -> "_ManualSpan":
        self.index = self.tracer._open(self.name, self.args)
        return self

    def __exit__(self, *_exc) -> None:
        self.tracer._close(self.index)
