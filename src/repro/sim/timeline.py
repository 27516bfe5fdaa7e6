"""Stream-timeline rendering (the reproduction of Figure 9's nvprof view).

The paper shows nvprof screenshots of the compute and memory streams for
the three scheduling methods; here we render the simulator's event list as
an ASCII Gantt chart plus per-stream utilization summaries, which carry
the same information: where the compute stream stalls, and how transfers
overlap computation.
"""

from __future__ import annotations

from typing import Dict, List

from .engine import SimResult, TimelineEvent

__all__ = ["render_timeline", "utilization_summary", "stall_profile"]

#: Characters of stream name in front of each timeline row.
_LABEL_WIDTH = 18


def utilization_summary(result: SimResult) -> Dict[str, float]:
    """Busy fraction per stream over the full makespan."""
    total = result.total_time
    if total <= 0:
        return {}
    busy = result.stream_busy()
    return {stream: busy_time / total for stream, busy_time in sorted(busy.items())}


def stall_profile(result: SimResult) -> List[TimelineEvent]:
    """All compute-stream stall intervals, longest first."""
    stalls = [e for e in result.events if e.kind == "stall"]
    return sorted(stalls, key=lambda e: -e.duration)


def render_timeline(result: SimResult, width: int = 100) -> str:
    """ASCII Gantt chart: one row per stream, time left to right.

    Glyphs: ``#`` compute kernel, ``x`` compute stall, ``>`` offload,
    ``<`` prefetch, ``.`` idle.
    """
    if result.total_time <= 0:
        return "(empty timeline)"
    streams: Dict[str, List[TimelineEvent]] = {}
    for event in result.events:
        streams.setdefault(event.stream, []).append(event)
    glyphs = {"op": "#", "stall": "x", "offload": ">", "prefetch": "<"}
    scale = width / result.total_time
    lines = [f"total {result.total_time * 1e3:.2f} ms, "
             f"stall {result.stall_time * 1e3:.2f} ms "
             f"({100 * result.stall_time / result.total_time:.1f}%)"]
    for stream in sorted(streams):
        row = ["."] * width
        for event in streams[stream]:
            start = min(width - 1, int(event.start * scale))
            end = min(width, max(start + 1, int(event.end * scale)))
            glyph = glyphs.get(event.kind, "?")
            for cell in range(start, end):
                # Stalls must stay visible even when ops round into them.
                if row[cell] == "." or glyph == "x":
                    row[cell] = glyph
            del cell
        label = stream[:_LABEL_WIDTH].ljust(_LABEL_WIDTH)
        lines.append(f"{label}|{''.join(row)}|")
    return "\n".join(lines)
