"""Concurrency-hazard detection for the wavefront-parallel executor.

The executor (``workers > 1``) runs any two ops concurrently unless the
op dependency DAG orders them.  Two analyses check that this freedom is
safe for a given storage plan:

1. **TSO conflicts** — map every op's reads and writes through the HMMS
   storage assignment (:meth:`StorageAssignment.tso_accesses`); two ops
   that *may happen in parallel* (neither reachable from the other in the
   DAG) and touch the same TSO with at least one write race on its bytes
   (``SCA101``/``SCA102``).  In-place ReLU and summation error-TSO
   sharing are exactly the optimizations that create such aliasing, so
   the detector is the safety proof for running them under parallelism.
   An input the executor lets its consumer overwrite
   (``overwritable_inputs``) counts as one more write of its TSO.
2. **Use-after-free** — the eager-free plan drops a tensor's value once
   all its *counted* consumers retire.  A reader outside that set is safe
   only if the DAG orders it before some counted consumer; otherwise the
   value may be freed under it (``SCA103``).

Reachability uses an ancestors bitmask per op (Python big ints over
serialized positions): one linear sweep in serialized order, then
"a happens-before b" is a single bit test.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Set, Tuple

from ..graph.executor import (
    OUTPUT_NAMES, overwritable_inputs, resolve_final_gradients,
)
from ..graph.ir import Graph
from ..graph.liveness import compute_free_plan
from ..hmms.storage import StorageAssignment, TSOAccess
from .diagnostics import Diagnostic

__all__ = ["detect_races", "ancestor_masks"]


def ancestor_masks(graph: Graph) -> List[int]:
    """Transitive-closure bitmasks over serialized positions.

    ``masks[p]`` has bit ``q`` set iff the op at position ``q`` is a
    (transitive) dependency of the op at position ``p``.  Dependencies
    that point forward or outside the graph are skipped — the lint pass
    reports those as ``SCA007``/``SCA005``.
    """
    position = graph.op_positions()
    deps = graph.op_dependencies()
    masks: List[int] = [0] * len(graph.ops)
    for op in graph.ops:
        pos = position[op.id]
        mask = 0
        for dep_id in deps[op.id]:
            dep_pos = position.get(dep_id)
            if dep_pos is None or dep_pos >= pos:
                continue
            mask |= masks[dep_pos] | (1 << dep_pos)
        masks[pos] = mask
    return masks


def detect_races(
    graph: Graph,
    assignment: StorageAssignment,
    *,
    workers: int = 4,
) -> List[Diagnostic]:
    """All concurrency hazards of running ``graph`` with ``assignment``
    under ``workers`` parallel workers."""
    position = graph.op_positions()
    masks = ancestor_masks(graph)
    parallel = workers > 1

    def happens_before(a_pos: int, b_pos: int) -> bool:
        if parallel:
            return bool((masks[b_pos] >> a_pos) & 1)
        return a_pos < b_pos          # serial: total serialized order

    def unordered(a_pos: int, b_pos: int) -> bool:
        return not (happens_before(a_pos, b_pos)
                    or happens_before(b_pos, a_pos))

    pinned = {t.id for t in graph.tensors.values()
              if t.kind in ("parameter", "constant")
              or t.name in OUTPUT_NAMES}
    try:
        pinned |= set(resolve_final_gradients(graph).values())
    except ValueError:
        pass          # unfrozen reduction; the determinism pass reports it
    counts, consumed_by_op = compute_free_plan(graph, pinned=frozenset(pinned))

    findings: List[Diagnostic] = []
    findings.extend(
        _tso_conflicts(graph, assignment, position, unordered, parallel,
                       overwritable_inputs(graph, counts)))
    findings.extend(
        _use_after_free(graph, position, happens_before, consumed_by_op))
    return findings


def _tso_conflicts(graph: Graph, assignment: StorageAssignment,
                   position: Dict[int, int],
                   unordered: Callable[[int, int], bool],
                   parallel: bool,
                   overwritable: Dict[int, Tuple[int, ...]],
                   ) -> List[Diagnostic]:
    """SCA101/SCA102: unordered ops touching the same TSO, ≥1 writing."""
    if not parallel:
        return []                     # a single worker serializes every pair
    by_tso = assignment.tso_accesses(graph)
    for op_id, tensor_ids in overwritable.items():
        for tensor_id in tensor_ids:
            tso_id = assignment.tso_of.get(tensor_id)
            if tso_id is not None:
                by_tso.setdefault(tso_id, []).append(
                    TSOAccess(op_id=op_id, mode="w", tensor_id=tensor_id))
    findings: List[Diagnostic] = []
    for tso_id, accesses in sorted(by_tso.items()):
        # Collapse to per-op access summaries; skip read-only TSOs fast.
        writes: Set[int] = set()
        per_op: Dict[int, Dict[str, int]] = {}
        for access in accesses:
            if access.op_id not in position:
                continue              # dangling op; lint reports it
            modes = per_op.setdefault(access.op_id, {})
            modes.setdefault(access.mode, access.tensor_id)
            if access.mode == "w":
                writes.add(access.op_id)
        if not writes:
            continue
        op_ids = sorted(per_op)
        reported: Set[Tuple[int, int]] = set()
        for i, a in enumerate(op_ids):
            for b in op_ids[i + 1:]:
                if a not in writes and b not in writes:
                    continue
                if not unordered(position[a], position[b]):
                    continue
                key = (a, b)
                if key in reported:
                    continue
                reported.add(key)
                both_write = a in writes and b in writes
                code = "SCA101" if both_write else "SCA102"
                writer, other = (a, b) if a in writes else (b, a)
                verb = "writes" if other in writes else "reads"
                findings.append(Diagnostic(
                    code,
                    f"ops {graph.op_by_id(writer).name!r} (id {writer}) and "
                    f"{graph.op_by_id(other).name!r} (id {other}) may run in "
                    f"parallel: {writer} writes TSO {tso_id} (tensor "
                    f"{per_op[writer]['w']}) while {other} {verb} it "
                    f"(tensor {per_op[other].get('w', per_op[other].get('r'))})"
                    " — no dependency edge orders them",
                    op_ids=(writer, other), tso_id=tso_id))
    return findings


def _use_after_free(graph: Graph, position: Dict[int, int],
                    happens_before: Callable[[int, int], bool],
                    consumed_by_op: Dict[int, List[int]],
                    ) -> List[Diagnostic]:
    """SCA103: a reader the eager-free refcount does not account for.

    The free plan drops tensor ``t`` after all counted consumers
    ``C(t)`` retire.  A reader ``r ∉ C(t)`` is safe only when some
    ``c ∈ C(t)`` has ``r`` happens-before ``c`` — then the value
    provably still exists when ``r`` runs.  (Saved-for-backward reads
    are retained separately via the executor's per-twin context
    counter, so only direct input reads are checked.)
    """
    counted: Dict[int, Set[int]] = {}
    for op_id, tensor_ids in consumed_by_op.items():
        for tensor_id in tensor_ids:
            counted.setdefault(tensor_id, set()).add(op_id)

    findings: List[Diagnostic] = []
    for op in graph.ops:
        for tensor_id in dict.fromkeys(op.inputs):
            consumers = counted.get(tensor_id)
            if consumers is None or op.id in consumers:
                continue              # never freed eagerly, or accounted for
            if any(happens_before(position[op.id], position[c])
                   for c in consumers if c in position):
                continue
            tensor = graph.tensors.get(tensor_id)
            name = tensor.name if tensor is not None else f"#{tensor_id}"
            findings.append(Diagnostic(
                "SCA103",
                f"op {op.name!r} (id {op.id}) reads tensor {name!r} but is "
                f"not counted in its free refcount and is not ordered "
                f"before any counted consumer {sorted(consumers)} — the "
                "value may be freed before or while the op reads it",
                op_ids=(op.id,), tensor_id=tensor_id))
    return findings
