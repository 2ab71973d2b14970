"""In-memory span tracing installed from outside the library.

The benchmark times each layer by wrapping that layer's public functions and
methods — nothing under ``src/`` is edited.  A wrapper records one span per
call (name, layer, start, end, parent span) plus the call's return value when
asked to, so the benchmark can read counts (rounds, label sizes, simulation
statistics) off the objects the layer returned.  Spans stay in memory until
the run ends; :meth:`Tracer.dump` writes them out.

A layer's self time is the duration of its spans minus the time covered by
their direct child spans, so the self times of all layers plus the root span's
own self time add up to the root span's duration.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Set

_clock = time.perf_counter


class Span:
    __slots__ = ("sid", "parent", "name", "layer", "start", "end", "result")

    def __init__(self, sid, parent, name, layer, start):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.result = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans from wrappers it installs around library callables.

    With ``spans=False`` no span is recorded and only the callables named in
    ``capture`` are wrapped, to keep return values the workload's entry point
    does not hand back (for example the labelings a girth computation builds
    for itself).  With ``spans=True`` every registered callable is wrapped and
    the ones registered with ``capture=True`` keep their result on the span.
    """

    def __init__(self, spans: bool = True, capture: Iterable[str] = ()) -> None:
        self.record_spans = spans
        self.capture_names: Set[str] = set(capture)
        self.spans: List[Span] = []
        self.captured: Dict[str, List[Any]] = defaultdict(list)
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, name, layer, _clock())
        self.spans.append(span)
        self._stack.append(span.sid)
        return span

    def close(self, span: Span) -> None:
        span.end = _clock()
        popped = self._stack.pop()
        if popped != span.sid:  # pragma: no cover - wrappers nest strictly
            raise RuntimeError(f"span stack corrupted closing {span.name}")

    def _wrap(self, fn: Callable, name: str, capture: bool,
              namer: Optional[Callable]) -> Callable:
        tracer = self
        layer = name.split(".", 1)[0]

        if not self.record_spans:
            if name not in self.capture_names:
                return fn

            @functools.wraps(fn)
            def capturing(*args, **kwargs):
                result = fn(*args, **kwargs)
                tracer.captured[name].append(result)
                return result

            return capturing

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(namer(args, kwargs) if namer else name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if capture:
                span.result = result
            if name in tracer.capture_names:
                tracer.captured[name].append(result)
            return result

        return traced

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #
    def patch_function(self, module: str, attr: str, name: str,
                       capture: bool = False, namer: Optional[Callable] = None) -> None:
        """Wrap ``module.attr`` everywhere a loaded ``repro`` module binds it.

        ``name`` is ``<layer>.<what>``; ``namer(args, kwargs)`` may refine it
        per call.
        """
        original = getattr(importlib.import_module(module), attr)
        wrapped = self._wrap(original, name, capture, namer)
        if wrapped is original:
            return
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            if mod.__dict__.get(attr) is original:
                setattr(mod, attr, wrapped)
                self._patches.append((mod, attr, original))

    def patch_method(self, module: str, cls_name: str, attr: str, name: str,
                     capture: bool = False) -> None:
        """Wrap ``cls.attr`` (plain method or classmethod) on the class itself."""
        cls = getattr(importlib.import_module(module), cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            inner = self._wrap(raw.__func__, name, capture, None)
            replacement = raw if inner is raw.__func__ else classmethod(inner)
        else:
            replacement = self._wrap(raw, name, capture, None)
        if replacement is raw:
            return
        setattr(cls, attr, replacement)
        self._patches.append((cls, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # ------------------------------------------------------------------ #
    # Analysis
    # ------------------------------------------------------------------ #
    def mark(self) -> int:
        """Index of the next span; pass it to :meth:`summary` to scope a window."""
        return len(self.spans)

    def clear_captured(self) -> None:
        self.captured = defaultdict(list)

    def ancestors(self, span: Span):
        sid = span.parent
        while sid is not None:
            parent = self.spans[sid]
            yield parent
            sid = parent.parent

    def summary(self, first: int = 0) -> Dict[str, Dict[str, float]]:
        """Calls, total seconds and self seconds per span name and per layer.

        Keys are span names plus ``layer:<layer>`` aggregates.  A span adds
        to a key's total only when no ancestor shares that key, so recursion
        and nesting inside one layer are not counted twice.
        """
        window = self.spans[first:]
        child_time: Dict[int, float] = defaultdict(float)
        for span in window:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for span in window:
            own = span.duration - child_time.get(span.sid, 0.0)
            ups = list(self.ancestors(span))
            for key, nested in (
                (span.name, any(a.name == span.name for a in ups)),
                (f"layer:{span.layer}", any(a.layer == span.layer for a in ups)),
            ):
                rec = out[key]
                rec["calls"] += 1
                rec["self_s"] += own
                if not nested:
                    rec["total_s"] += span.duration
        return out

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (times relative to the first span)."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "parent": s.parent, "name": s.name, "layer": s.layer,
                    "start_s": round(s.start - origin, 7),
                    "end_s": round(s.end - origin, 7),
                }) + "\n")
