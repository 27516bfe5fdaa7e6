"""Numeric data-parallel training with a real ring allreduce.

The paper trains with a global batch spread over 4 GPUs (§5, footnote 2)
and models distributed scaling with the bandwidth-optimal allreduce bound
``2|G|/B`` (§6.4, ref [31]).  This module provides the corresponding
executable substrate:

- :class:`RingAllreduce` — the chunked scatter-reduce + all-gather ring
  algorithm of Patarasuk & Yuan, with per-worker traffic accounting.
  Property: every worker sends exactly ``2 * |G| * (W-1) / W`` bytes,
  which approaches the paper's ``2|G|`` bound as the ring grows.
- :class:`DataParallelTrainer` — W simulated replicas; each step shards
  the global batch, computes per-replica gradients, averages them through
  the ring, and applies identical SGD updates, keeping replicas bit-level
  synchronized.

Without batch-norm the W-replica step is numerically identical to a
single-replica step on the full batch (the cross-entropy loss is a batch
mean and shards are equal); with batch-norm the replicas see per-shard
statistics — the same deviation real data-parallel training has.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..models.base import ConvClassifier
from ..nn import CrossEntropyLoss
from ..optim import SGD
from ..tensor import Tensor

__all__ = ["AllreduceStats", "RingAllreduce", "DataParallelTrainer"]


@dataclass
class AllreduceStats:
    """Traffic accounting for one allreduce invocation."""

    world_size: int
    payload_bytes: int
    bytes_sent_per_worker: int
    steps: int

    def lower_bound_ratio(self) -> float:
        """Sent bytes relative to the paper's asymptotic ``2|G|`` bound."""
        if self.payload_bytes == 0:
            return 0.0
        return self.bytes_sent_per_worker / (2.0 * self.payload_bytes)


class RingAllreduce:
    """Bandwidth-optimal ring allreduce over simulated workers.

    Workers hold one flat float array each; the algorithm runs the classic
    two phases over ``W - 1`` steps each:

    1. *scatter-reduce*: chunk ``(rank - step) % W`` flows around the ring,
       accumulating partial sums;
    2. *all-gather*: the fully reduced chunks circulate once more.
    """

    def __init__(self, world_size: int) -> None:
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        self.world_size = world_size

    def allreduce(self, shards: Sequence[np.ndarray]
                  ) -> Tuple[List[np.ndarray], AllreduceStats]:
        """Sum the workers' arrays; returns (per-worker results, stats)."""
        world = self.world_size
        if len(shards) != world:
            raise ValueError(
                f"expected {world} worker arrays, got {len(shards)}")
        shapes = {a.shape for a in shards}
        if len(shapes) != 1:
            raise ValueError(f"worker arrays disagree on shape: {shapes}")

        payload = shards[0].nbytes
        if world == 1:
            return [shards[0].copy()], AllreduceStats(1, payload, 0, 0)

        buffers = [np.array(a, dtype=np.float64, copy=True) for a in shards]
        chunks = [np.array_split(buffer, world) for buffer in buffers]
        sent = [0] * world

        # Phase 1: scatter-reduce.
        for step in range(world - 1):
            for rank in range(world):
                peer = (rank + 1) % world
                chunk_index = (rank - step) % world
                payload_chunk = chunks[rank][chunk_index]
                chunks[peer][chunk_index] = (
                    chunks[peer][chunk_index] + payload_chunk
                )
                sent[rank] += payload_chunk.nbytes
        # Phase 2: all-gather the reduced chunks.
        for step in range(world - 1):
            for rank in range(world):
                peer = (rank + 1) % world
                chunk_index = (rank + 1 - step) % world
                payload_chunk = chunks[rank][chunk_index]
                chunks[peer][chunk_index] = payload_chunk.copy()
                sent[rank] += payload_chunk.nbytes

        results = [np.concatenate(worker_chunks).reshape(shards[0].shape)
                   for worker_chunks in chunks]
        stats = AllreduceStats(
            world_size=world, payload_bytes=payload,
            bytes_sent_per_worker=max(sent),
            steps=2 * (world - 1),
        )
        return results, stats


class DataParallelTrainer:
    """Synchronous data-parallel SGD over W simulated worker replicas.

    ``build_model`` is called once; the replicas are deep copies, so all
    workers start (and provably remain) identical.
    """

    def __init__(
        self,
        model: ConvClassifier,
        world_size: int,
        lr: float = 0.05,
        momentum: float = 0.9,
        weight_decay: float = 0.0,
    ) -> None:
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        self.world_size = world_size
        self.replicas: List[ConvClassifier] = [model]
        for _ in range(world_size - 1):
            self.replicas.append(copy.deepcopy(model))
        self.optimizers = [
            SGD(replica.parameters(), lr=lr, momentum=momentum,
                weight_decay=weight_decay)
            for replica in self.replicas
        ]
        self.criterion = CrossEntropyLoss()
        self.ring = RingAllreduce(world_size)
        self.last_stats: Optional[AllreduceStats] = None

    # ------------------------------------------------------------------
    @property
    def gradient_bytes(self) -> int:
        """|G| — the size of one full gradient exchange (float32)."""
        return sum(p.size * 4 for p in self.replicas[0].parameters())

    def train_step(self, x: np.ndarray, y: np.ndarray) -> float:
        """One synchronous step on a global batch; returns the mean loss."""
        world = self.world_size
        if len(x) % world != 0:
            raise ValueError(
                f"global batch {len(x)} not divisible by world size {world}")
        x_shards = np.split(np.asarray(x), world)
        y_shards = np.split(np.asarray(y), world)

        per_worker_grads: List[np.ndarray] = []
        losses: List[float] = []
        for replica, optimizer, x_shard, y_shard in zip(
                self.replicas, self.optimizers, x_shards, y_shards):
            optimizer.zero_grad()
            loss = self.criterion(replica(Tensor(x_shard)), y_shard)
            loss.backward()
            losses.append(loss.item())
            flat = np.concatenate([
                (p.grad if p.grad is not None else np.zeros_like(p.data))
                .ravel().astype(np.float64)
                for p in replica.parameters()
            ])
            per_worker_grads.append(flat)

        reduced, self.last_stats = self.ring.allreduce(per_worker_grads)
        for replica, optimizer, summed in zip(self.replicas, self.optimizers,
                                              reduced):
            mean_grad = summed / world
            offset = 0
            for param in replica.parameters():
                span = param.size
                param.grad = mean_grad[offset:offset + span].reshape(
                    param.data.shape).astype(param.data.dtype)
                offset += span
            optimizer.step()
        return float(np.mean(losses))

    # ------------------------------------------------------------------
    def replicas_in_sync(self, atol: float = 0.0) -> bool:
        """True when every replica holds identical parameters."""
        reference = [p.data for p in self.replicas[0].parameters()]
        for replica in self.replicas[1:]:
            for ref, param in zip(reference, replica.parameters()):
                if not np.allclose(ref, param.data, atol=atol, rtol=0.0):
                    return False
        return True
