"""Span recording for the traced pass.

Spans are recorded from the benchmark's own files, around the calls into
each layer: either a ``with tracer.span(...)`` block around a public
call, or a proxy installed by :meth:`Tracer.wrap` over a public method of
an instance the benchmark constructed.  Nothing under ``src/`` is edited
or patched.  Spans stay in memory and are written out once, at exit, as a
Chrome trace-event file (open in ``chrome://tracing`` or Perfetto).

A disabled tracer hands out one shared no-op context manager and
:meth:`Tracer.wrap` installs nothing, so the untraced pass pays nothing.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, List, Optional, Union

#: ``op_id`` of spans recorded during set-up and during warm-up ops.
SETUP, WARMUP = -1, -2


class _NullSpan:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> None:
        return None


_NULL = _NullSpan()


class _Span:
    __slots__ = ("tracer", "name", "layer", "index")

    def __init__(self, tracer: "Tracer", name: str, layer: str) -> None:
        self.tracer = tracer
        self.name = name
        self.layer = layer

    def __enter__(self) -> None:
        tracer = self.tracer
        stack = tracer._stack
        self.index = len(tracer.spans)
        tracer.spans.append({
            "name": self.name, "layer": self.layer,
            "start": time.perf_counter(), "end": None,
            "parent": stack[-1] if stack else None,
            "op_id": tracer.op_id,
        })
        stack.append(self.index)

    def __exit__(self, *exc: Any) -> None:
        self.tracer.spans[self.index]["end"] = time.perf_counter()
        self.tracer._stack.pop()


class Tracer:
    """In-memory span store: ``{name, layer, start, end, parent, op_id}``.

    ``parent`` is the index of the enclosing span (the span that caused
    this one); spans of one op share its ``op_id``.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self.op_id = SETUP

    def span(self, name: str, layer: str) -> Union[_Span, _NullSpan]:
        return _Span(self, name, layer) if self.enabled else _NULL

    def wrap(self, obj: Any, method: str, layer: str,
             name: Union[str, Callable[..., str]]) -> None:
        """Shadow ``obj.method`` with a span-recording proxy.

        ``name`` may be a callable of the call's arguments (a kernel span
        is named after the op type it runs).  Only instance attributes are
        set — the class, and every other instance, are untouched.
        """
        if not self.enabled:
            return
        inner = getattr(obj, method)

        def proxy(*args: Any, **kwargs: Any) -> Any:
            label = name if isinstance(name, str) else name(*args, **kwargs)
            with self.span(label, layer):
                return inner(*args, **kwargs)

        setattr(obj, method, proxy)

    # -- queries ------------------------------------------------------
    def total_ms(self, name: str, op_id: Optional[int] = None) -> float:
        """Summed duration of the spans called ``name``: inside timed ops
        (``op_id`` None) or under one marker (``SETUP``/``WARMUP``)."""
        return 1e3 * sum(
            s["end"] - s["start"] for s in self.spans
            if s["name"] == name and (
                s["op_id"] >= 0 if op_id is None else s["op_id"] == op_id))

    def count(self, name: str) -> int:
        """Number of spans called ``name`` inside timed ops."""
        return sum(1 for s in self.spans
                   if s["name"] == name and s["op_id"] >= 0)

    def self_ms_by_layer(self) -> Dict[str, float]:
        """Self time (span minus the part its children cover) of the
        timed-op spans, summed per layer."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        by_layer: Dict[str, float] = {}
        for span, child_time in zip(self.spans, covered):
            if span["op_id"] >= 0:
                own = span["end"] - span["start"] - child_time
                by_layer[span["layer"]] = \
                    by_layer.get(span["layer"], 0.0) + 1e3 * own
        return by_layer

    def write_chrome_trace(self, path: str) -> None:
        origin = self.spans[0]["start"] if self.spans else 0.0
        events = [{
            "name": s["name"], "cat": s["layer"], "ph": "X",
            "ts": (s["start"] - origin) * 1e6,
            "dur": (s["end"] - s["start"]) * 1e6,
            "pid": 1, "tid": 1,
            "args": {"op_id": s["op_id"], "parent": s["parent"]},
        } for s in self.spans]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)
