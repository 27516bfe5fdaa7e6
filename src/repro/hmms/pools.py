"""Memory pools with static first-fit allocation (paper §4.4, HMMS step 5).

The planner steps through the serialized op list allocating each TSO the
first contiguous gap it fits in; frees merge back into the gap structure.
Because the whole schedule is decided offline there is no runtime cost to
this policy (the paper's point).

A bump allocator (no address reuse) is provided as the ablation baseline
to quantify what first-fit reuse buys.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Tuple

__all__ = ["FirstFitPool", "BumpPool", "PoolError"]


class PoolError(RuntimeError):
    """Raised on allocation failure or invalid frees."""


class FirstFitPool:
    """First-fit allocator over a contiguous region.

    ``capacity=None`` means unbounded — used to *measure* the peak footprint
    (for the maximum-batch-size search); a concrete capacity makes ``alloc``
    raise when the plan does not fit.

    The pool keeps the free holes below ``_top`` (the end of the highest
    positive-size block), not the live blocks: live blocks and holes tile
    ``[0, _top)``, so ``alloc`` scans the holes in address order and takes
    the first that fits — or ``_top`` — and ``free`` merges the released
    range with the holes on either side.  Both cost per hole, not per live
    block.  A zero-size block occupies nothing and sits at offset 0.
    """

    def __init__(self, capacity: Optional[int] = None, name: str = "pool") -> None:
        self.capacity = capacity
        self.name = name
        # Free holes as parallel sorted lists of starts and ends; maximal
        # (no two touch) and all below ``_top``.
        self._hole_starts: List[int] = []
        self._hole_ends: List[int] = []
        self._top = 0
        self._by_tag: Dict[object, Tuple[int, int]] = {}
        self.peak = 0
        self.allocated = 0

    # ------------------------------------------------------------------
    def alloc(self, size: int, tag: object) -> int:
        """Allocate ``size`` bytes; returns the offset."""
        if size < 0:
            raise PoolError(f"negative allocation size {size}")
        if tag in self._by_tag:
            raise PoolError(f"tag {tag!r} already allocated in {self.name}")
        offset = self._find_first_fit(size)
        if self.capacity is not None and offset + size > self.capacity:
            raise PoolError(
                f"{self.name}: allocation of {size} bytes does not fit "
                f"(capacity {self.capacity}, high water {self.high_water()})"
            )
        if offset == self._top:
            self._top += size
        elif size:                      # the front of the hole at ``offset``
            starts, ends = self._hole_starts, self._hole_ends
            index = bisect.bisect_left(starts, offset)
            starts[index] += size
            if starts[index] == ends[index]:
                del starts[index]
                del ends[index]
        self._by_tag[tag] = (offset, size)
        self.allocated += size
        self.peak = max(self.peak, self._top)
        return offset

    def free(self, tag: object) -> None:
        entry = self._by_tag.pop(tag, None)
        if entry is None:
            raise PoolError(f"tag {tag!r} not allocated in {self.name}")
        offset, size = entry
        self.allocated -= size
        if size:
            self._release(offset, offset + size)

    # ------------------------------------------------------------------
    def _find_first_fit(self, size: int) -> int:
        if not size:
            return 0
        for start, end in zip(self._hole_starts, self._hole_ends):
            if end - start >= size:
                return start
        return self._top

    def _release(self, start: int, end: int) -> None:
        """Return ``[start, end)`` to the holes, merging its neighbours."""
        starts, ends = self._hole_starts, self._hole_ends
        index = bisect.bisect_left(starts, start)
        if index < len(starts) and starts[index] == end:
            end = ends[index]
            del starts[index]
            del ends[index]
        if index and ends[index - 1] == start:
            index -= 1
            start = starts[index]
            del starts[index]
            del ends[index]
        if end == self._top:
            self._top = start
        else:
            starts.insert(index, start)
            ends.insert(index, end)

    def high_water(self) -> int:
        """Highest currently-used address (end of the highest block)."""
        return self._top

    def live_bytes(self) -> int:
        return self.allocated

    def reset(self) -> None:
        self._hole_starts.clear()
        self._hole_ends.clear()
        self._top = 0
        self._by_tag.clear()
        self.peak = 0
        self.allocated = 0


class BumpPool(FirstFitPool):
    """Monotone allocator: never reuses freed addresses (ablation baseline).

    Measures how much address space a schedule would need without the
    first-fit reuse of §4.4: a free returns nothing, so there is never a
    hole and every allocation lands on the top.
    """

    def __init__(self, capacity: Optional[int] = None, name: str = "bump") -> None:
        super().__init__(capacity, name)

    def _release(self, start: int, end: int) -> None:
        """Freed address space is never handed back."""
