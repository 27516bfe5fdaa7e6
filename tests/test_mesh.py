"""Tests for repro.mesh: topology, partitioning, simulation, hazards.

Determinism contract mirrors test_executor_parallel.py: merged outputs
are byte-identical for any device count, and measured step times are
bit-equal for any link-event tie-breaking order (seeded-shuffle fuzz).
"""

import copy
import dataclasses
import hashlib
from typing import Dict, Optional

import numpy as np
import pytest

from repro.analysis import detect_mesh_hazards
from repro.core import to_split_cnn
from repro.experiments import PAPER_BANDWIDTHS, run_fig11
from repro.experiments.fig11 import _apportion_overhead
from repro.compile import compile_graph
from repro.graph import build_inference_graph
from repro.graph.executor import GraphExecutor, resolve_final_gradients
from repro.mesh import (
    MeshPartitioner, MeshPlan, MeshSimulator, MeshTransfer, RingAllreduce,
    build_mesh, run_spatial_numeric,
)
from repro.models import build_model
from repro.nn import init


@pytest.fixture(autouse=True)
def _fast_init():
    with init.fast_init():
        yield


def _small_split(num_splits=(2, 2), depth=0.5):
    return to_split_cnn(build_model("small_vgg"), depth=depth,
                        num_splits=num_splits)


def run_pipeline_numeric(mesh_plan: MeshPlan,
                         x: np.ndarray) -> Dict[str, np.ndarray]:
    """Execute a pipeline :class:`MeshPlan` numerically, stage by stage."""
    if mesh_plan.strategy != "pipeline":
        raise ValueError("run_pipeline_numeric needs a pipeline MeshPlan")
    value = np.asarray(x)
    logits: Optional[np.ndarray] = None
    for assignment in sorted(mesh_plan.assignments,
                             key=lambda a: a.device_id):
        (tensor_id,) = assignment.input_bindings
        executor = GraphExecutor(assignment.graph, assignment.params)
        outputs = executor.run_with_inputs({tensor_id: value})
        ((key, out_id),) = assignment.output_tensors.items()
        if key == ("logits",):
            logits = outputs["logits"]
        else:
            value = executor.values[out_id]
    if logits is None:
        raise RuntimeError("pipeline plan produced no logits")
    return {"logits": logits}


# ----------------------------------------------------------------------
# topology
# ----------------------------------------------------------------------
class TestTopology:
    def test_ring_routes_shorter_direction(self):
        mesh = build_mesh(6, "ring", bandwidth_gbit=10)
        hops = mesh.route(0, 2)
        assert [link.name for link in hops] == ["ring:0->1", "ring:1->2"]
        hops = mesh.route(0, 5)  # backward is 1 hop, forward is 5
        assert [link.name for link in hops] == ["ring:0->5"]

    def test_ring_tie_breaks_forward(self):
        mesh = build_mesh(4, "ring", bandwidth_gbit=10)
        assert [link.name for link in mesh.route(0, 2)] == \
            ["ring:0->1", "ring:1->2"]

    def test_bus_is_single_shared_link(self):
        mesh = build_mesh(4, "bus", bandwidth_gbit=10)
        assert len(mesh.links) == 1
        assert [link.name for link in mesh.route(1, 3)] == ["bus"]
        assert [link.name for link in mesh.route(3, 1)] == ["bus"]

    def test_p2p_direct(self):
        mesh = build_mesh(3, "p2p", bandwidth_gbit=10)
        assert len(mesh.links) == 6  # directed pair per ordered pair
        assert [link.name for link in mesh.route(2, 0)] == ["p2p:2->0"]

    def test_two_device_ring_dedupes(self):
        mesh = build_mesh(2, "ring", bandwidth_gbit=10)
        assert sorted(link.name for link in mesh.links) == \
            ["ring:0->1", "ring:1->0"]

    def test_same_device_route_is_empty(self):
        mesh = build_mesh(4, "ring", bandwidth_gbit=10)
        assert mesh.route(2, 2) == []

    def test_wire_seconds(self):
        mesh = build_mesh(2, "bus", bandwidth_gbit=8.0, latency=1e-6,
                          efficiency=0.5)
        link = mesh.links[0]
        # 8 Gbit/s = 1e9 B/s; at 50% efficiency 1e6 bytes take 2 ms.
        assert link.wire_seconds(1_000_000) == pytest.approx(1e-6 + 2e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_mesh(0)
        with pytest.raises(ValueError):
            build_mesh(2, "star")
        with pytest.raises(ValueError):
            build_mesh(2, "ring", bandwidth_gbit=0)


# ----------------------------------------------------------------------
# partitions: verifier-clean, hazard-clean, structurally sound
# ----------------------------------------------------------------------
class TestPartitions:
    @pytest.mark.parametrize("topology", ["ring", "bus", "p2p"])
    def test_data_partition_clean(self, topology):
        plan = MeshPartitioner(3, topology=topology).data(
            build_model("small_vgg"), batch_per_device=2)
        plan.verify()
        assert detect_mesh_hazards(plan) == []
        assert plan.global_batch == 6
        assert all(t.kind == "all_reduce" for t in plan.transfers)
        assert all(t.dst_op is None for t in plan.transfers)

    def test_data_single_device_has_no_transfers(self):
        plan = MeshPartitioner(1).data(build_model("small_vgg"), 2)
        assert plan.transfers == []

    def test_spatial_partition_clean(self):
        plan = MeshPartitioner(4).spatial(_small_split(), batch=2)
        plan.verify()
        assert detect_mesh_hazards(plan) == []
        assert {t.kind for t in plan.transfers} == {"gather"}
        roles = {a.device_id: a.role for a in plan.assignments}
        assert roles[0] == "tail"

    def test_spatial_requires_split_region(self):
        with pytest.raises(ValueError, match="SplitRegion"):
            MeshPartitioner(2).spatial(build_model("small_vgg"), batch=2)

    def test_pipeline_partition_clean(self):
        plan = MeshPartitioner(3).pipeline(build_model("small_vgg"),
                                           batch=2)
        plan.verify()
        assert detect_mesh_hazards(plan) == []
        assert len(plan.transfers) == 2
        assert all(t.kind == "activation" for t in plan.transfers)
        # activations flow stage s -> s+1
        assert [(t.src, t.dst) for t in plan.transfers] == [(0, 1), (1, 2)]

    @pytest.mark.parametrize("devices", [2, 3, 4])
    def test_spatial_sends_one_gather_per_remote_patch(self, devices):
        """Split-CNN patches exchange nothing: the only traffic is each
        remote patch's output, shipped whole to the tail's join."""
        plan = MeshPartitioner(devices).spatial(_small_split(), batch=2)
        remote = {}
        for assignment in plan.assignments:
            for key, tensor_id in assignment.output_tensors.items():
                if key[0] == "patch_out" and assignment.role != "tail":
                    nbytes = assignment.graph.tensors[tensor_id].nbytes
                    remote[f"gather:patch{key[1]}{key[2]}"] = (
                        assignment.device_id, nbytes)
        assert remote
        assert {t.label: (t.src, t.nbytes)
                for t in plan.transfers} == remote
        assert len(plan.transfers) == len(remote)
        assert all(t.kind == "gather" and t.dst == 0
                   for t in plan.transfers)

    def test_transfer_needs_a_source_position(self):
        with pytest.raises(ValueError, match="source position"):
            MeshTransfer(id=0, kind="gather", src=1, dst=0, nbytes=8,
                         src_op=-1)

    def test_allreduce_ring_volume(self):
        # Ring: each device ships 2|g|(N-1)/N bytes per bucket to its
        # clockwise neighbor (the Patarasuk-Yuan volume).
        model = build_model("small_vgg")
        plan = MeshPartitioner(4, topology="ring").data(model, 2)
        graph = plan.assignments[0].graph
        params = graph.parameter_bytes()
        shipped_per_device = sum(t.nbytes for t in plan.transfers
                                 if t.src == 0)
        assert shipped_per_device == pytest.approx(2 * params * 3 / 4,
                                                   rel=0.01)

    @pytest.mark.parametrize("world", [2, 3, 4, 8])
    def test_allreduce_volume_matches_ring_allreduce(self, world):
        """The partitioner's wire volume is the numeric ring's, bucket by
        bucket: both hard-code Patarasuk-Yuan's ``2|g|(N-1)/N`` and only
        this test ties them."""
        model = build_model("small_vgg")

        def link_bytes(topology):
            """{(bucket label, src device): {link name: bytes}}."""
            plan = MeshPartitioner(world, topology=topology).data(model, 2)
            mesh = build_mesh(world, topology)
            sent = {}
            for transfer in plan.transfers:
                assert transfer.kind == "all_reduce"
                (link,) = mesh.route(transfer.src, transfer.dst)
                per_link = sent.setdefault((transfer.label, transfer.src), {})
                per_link[link.name] = (per_link.get(link.name, 0)
                                       + transfer.nbytes)
            return plan.assignments[0].graph, sent

        graph, ring = link_bytes("ring")
        _, bus = link_bytes("bus")
        _, p2p = link_bytes("p2p")
        checked = 0
        for name, tensor_id in resolve_final_gradients(graph).items():
            payload = graph.tensors[tensor_id].nbytes
            if payload % (8 * world):
                continue    # the numeric ring wants even float64 chunks
            _, stats = RingAllreduce(world).allreduce(
                [np.zeros(payload // 8) for _ in range(world)])
            assert stats.payload_bytes == payload
            reference = stats.bytes_sent_per_worker
            assert reference == 2 * payload * (world - 1) // world
            for src in range(world):
                bucket = (f"allreduce:{name}", src)
                assert ring[bucket] == {
                    f"ring:{src}->{(src + 1) % world}": reference}
                # Bus: the same volume, all of it on the one shared link.
                assert bus[bucket] == {"bus": reference}
                # P2p: the same total in equal shares over the N-1 direct
                # links (whole bytes, so up to N-2 bytes short).
                shares = p2p[bucket]
                assert len(shares) == world - 1
                assert len(set(shares.values())) == 1
                assert sum(shares.values()) \
                    == reference - reference % (world - 1)
            checked += 1
        assert checked >= 4, f"only {checked} buckets divide by {world}"


# ----------------------------------------------------------------------
# SCA104 mutation coverage
# ----------------------------------------------------------------------
class TestMeshHazards:
    def _mutate(self, plan, old, new):
        clone = copy.copy(plan)
        clone.transfers = [new if t.id == old.id else t
                           for t in plan.transfers]
        return clone

    def test_unanchored_gather_is_sca104(self):
        plan = MeshPartitioner(4).spatial(_small_split(), batch=2)
        gather = next(t for t in plan.transfers if t.kind == "gather")
        bad = dataclasses.replace(gather, dst_op=None)
        findings = detect_mesh_hazards(self._mutate(plan, gather, bad))
        assert [f.code for f in findings] == ["SCA104"]
        assert "no arrival anchor" in findings[0].message

    def test_gather_after_join_is_sca104(self):
        plan = MeshPartitioner(4).spatial(_small_split(), batch=2)
        gather = next(t for t in plan.transfers if t.kind == "gather")
        bad = dataclasses.replace(gather, dst_op=gather.dst_op + 1)
        findings = detect_mesh_hazards(self._mutate(plan, gather, bad))
        assert [f.code for f in findings] == ["SCA104"]

    def test_landing_on_produced_tensor_is_sca104(self):
        plan = MeshPartitioner(4).spatial(_small_split(), batch=2)
        gather = next(t for t in plan.transfers if t.kind == "gather")
        tail = next(a for a in plan.assignments if a.role == "tail")
        produced = next(t.id for t in tail.graph.tensors.values()
                        if t.producer is not None)
        bad = dataclasses.replace(gather, dst_tensor=produced)
        findings = detect_mesh_hazards(self._mutate(plan, gather, bad))
        assert findings and findings[0].code == "SCA104"
        assert "local producer" in findings[0].message

    def test_missing_tensor_is_sca104(self):
        plan = MeshPartitioner(4).spatial(_small_split(), batch=2)
        gather = next(t for t in plan.transfers if t.kind == "gather")
        bad = dataclasses.replace(gather, dst_tensor=999_999)
        findings = detect_mesh_hazards(self._mutate(plan, gather, bad))
        assert [f.code for f in findings] == ["SCA104"]


# ----------------------------------------------------------------------
# numeric byte-identity: distribution must not change the math
# ----------------------------------------------------------------------
class TestNumericIdentity:
    @pytest.fixture()
    def reference(self):
        split = _small_split()
        x = np.random.RandomState(0).rand(
            2, 3, split.input_size, split.input_size)
        graph = build_inference_graph(split, 2)
        executor = GraphExecutor(
            graph, GraphExecutor.parameters_from_model(graph, split))
        return split, x, executor.run(x)["logits"]

    @pytest.mark.parametrize("devices", [1, 2, 3, 4])
    def test_spatial_merged_bytes_identical(self, reference, devices):
        split, x, expected = reference
        plan = MeshPartitioner(devices).spatial(split, batch=2)
        logits = run_spatial_numeric(plan, x)["logits"]
        assert logits.tobytes() == expected.tobytes()

    def test_spatial_3x3_identity(self):
        split = _small_split(num_splits=(3, 3))
        x = np.random.RandomState(1).rand(
            2, 3, split.input_size, split.input_size)
        graph = build_inference_graph(split, 2)
        executor = GraphExecutor(
            graph, GraphExecutor.parameters_from_model(graph, split))
        expected = executor.run(x)["logits"]
        plan = MeshPartitioner(5).spatial(split, batch=2)
        assert run_spatial_numeric(plan, x)["logits"].tobytes() == \
            expected.tobytes()

    @pytest.mark.parametrize("devices", [2, 4])
    def test_pipeline_bytes_identical(self, devices):
        model = build_model("small_vgg")
        x = np.random.RandomState(2).rand(
            2, 3, model.input_size, model.input_size)
        graph = build_inference_graph(model, 2)
        executor = GraphExecutor(
            graph, GraphExecutor.parameters_from_model(graph, model))
        expected = executor.run(x)["logits"]
        plan = MeshPartitioner(devices).pipeline(model, batch=2)
        assert run_pipeline_numeric(plan, x)["logits"].tobytes() == \
            expected.tobytes()


# ----------------------------------------------------------------------
# simulator: FIFO links, contention, determinism fuzz
# ----------------------------------------------------------------------
class TestMeshSimulator:
    def test_bus_serializes_what_p2p_overlaps(self):
        model = build_model("small_vgg")
        part_bus = MeshPartitioner(4, topology="bus")
        part_p2p = MeshPartitioner(4, topology="p2p")
        bus_res = MeshSimulator(build_mesh(4, "bus", 1.0)).run(
            part_bus.data(model, 2))
        p2p_res = MeshSimulator(build_mesh(4, "p2p", 1.0)).run(
            part_p2p.data(model, 2))
        assert bus_res.step_seconds > p2p_res.step_seconds

    def test_step_monotone_in_bandwidth(self):
        model = build_model("small_vgg")
        plan = MeshPartitioner(4, topology="ring").data(model, 2)
        steps = []
        for gbit in (0.5, 2.0, 8.0, 32.0):
            mesh = build_mesh(4, "ring", bandwidth_gbit=gbit)
            steps.append(MeshSimulator(mesh).run(plan).step_seconds)
        assert steps == sorted(steps, reverse=True)

    def test_single_device_matches_gpu_simulator(self):
        from repro.sim import GPUSimulator
        model = build_model("small_vgg")
        plan = MeshPartitioner(1).data(model, 2)
        mesh_step = MeshSimulator(build_mesh(1)).run(plan).step_seconds
        solo = GPUSimulator(plan.assignments[0].spec).run(
            plan.assignments[0].plan)
        assert mesh_step == pytest.approx(solo.total_time, rel=1e-12)

    def test_link_accounting(self):
        plan = MeshPartitioner(4, topology="bus").data(
            build_model("small_vgg"), 2)
        result = MeshSimulator(build_mesh(4, "bus", 10.0)).run(plan)
        bus = result.links["bus"]
        assert bus.nbytes == sum(t.nbytes for t in plan.transfers)
        assert bus.transfers == len(plan.transfers)
        assert bus.busy_seconds <= result.step_seconds + 1e-12

    @pytest.mark.parametrize("strategy", ["data", "spatial", "pipeline"])
    @pytest.mark.parametrize("topology", ["ring", "bus", "p2p"])
    def test_shuffle_fuzz_identical_results(self, strategy, topology):
        part = MeshPartitioner(4, topology=topology)
        if strategy == "data":
            plan = part.data(build_model("small_vgg"), 2)
        elif strategy == "spatial":
            plan = part.spatial(_small_split(), batch=2)
        else:
            plan = part.pipeline(build_model("small_vgg"), batch=2)
        mesh = build_mesh(4, topology, bandwidth_gbit=2.0)
        baseline = MeshSimulator(mesh).run(plan)
        for seed in (0, 1, 7, 1234, 99991):
            shuffled = MeshSimulator(mesh, shuffle_seed=seed).run(plan)
            assert shuffled.step_seconds == baseline.step_seconds
            for device_id, measure in baseline.devices.items():
                other = shuffled.devices[device_id]
                assert other.end_seconds == measure.end_seconds
                assert other.mesh_wait == measure.mesh_wait
            for name, link in baseline.links.items():
                assert shuffled.links[name].busy_seconds == \
                    link.busy_seconds

    def test_mesh_smaller_than_plan_rejected(self):
        plan = MeshPartitioner(4).data(build_model("small_vgg"), 2)
        with pytest.raises(ValueError, match="devices"):
            MeshSimulator(build_mesh(2)).run(plan)

    def test_render_mentions_all_devices(self):
        plan = MeshPartitioner(2).data(build_model("small_vgg"), 2)
        text = MeshSimulator(build_mesh(2, "ring", 10.0)).run(plan).render()
        assert "dev0" in text and "dev1" in text and "step time" in text


# ----------------------------------------------------------------------
# golden: every strategy x topology, bit for bit
# ----------------------------------------------------------------------
MESH_GOLDEN_BANDWIDTHS = (0.5, 8.0)
MESH_GOLDEN_STRATEGIES = ("data", "spatial", "pipeline", "data-b16")


def _mesh_golden_digest(strategy, topology):
    """blake2b over ``float.hex`` of the step time, each device's end and
    mesh wait, and each link's busy time, bytes and transfer count, at
    every bandwidth of ``MESH_GOLDEN_BANDWIDTHS``.  ``data-b16`` runs 16
    images per device, where offload stalls land on positions that issue
    an allreduce."""
    part = MeshPartitioner(4, topology=topology)
    split = _small_split()
    if strategy == "data":
        plan = part.data(split, 2)
    elif strategy == "data-b16":
        plan = part.data(split, 16)
    elif strategy == "spatial":
        plan = part.spatial(split, batch=2)
    else:
        plan = part.pipeline(split, batch=2)
    digest = hashlib.blake2b(digest_size=16)
    for gbit in MESH_GOLDEN_BANDWIDTHS:
        result = MeshSimulator(build_mesh(4, topology, gbit)).run(plan)
        digest.update(result.step_seconds.hex().encode())
        for device_id in sorted(result.devices):
            measure = result.devices[device_id]
            digest.update(repr((
                device_id, measure.end_seconds.hex(),
                sorted((kind, wait.hex())
                       for kind, wait in measure.mesh_wait.items()),
            )).encode())
        for name in sorted(result.links):
            link = result.links[name]
            digest.update(repr((name, link.busy_seconds.hex(), link.nbytes,
                                link.transfers)).encode())
    return digest.hexdigest()


#: Recorded before the event loop advanced gate to gate.  The spatial
#: rows are the same plans with their halo transfers filtered out,
#: replayed on the loop that still modelled halos: dropping that traffic
#: is the only change in their timing.
GOLDEN_MESH_DIGESTS = {
    ("data", "ring"): "1b4dd5bb563feed9b6191033cf8cf29e",
    ("data", "bus"): "90f299defa297861bff18ae3e26c9101",
    ("data", "p2p"): "3f0cc7e62c2ade29eec7637e53a7d089",
    ("spatial", "ring"): "120f05382cd0334bf56fa3a57cc88c68",
    ("spatial", "bus"): "4999f9d88d39bf6be58329542dd84b58",
    ("spatial", "p2p"): "f3482a4114c788677e7cfab9c278b8b2",
    ("pipeline", "ring"): "ab491276aeb61fc91d9bbfe6783f5d37",
    ("pipeline", "bus"): "fd3c0dc62433993e59f570b0c1d49e65",
    ("pipeline", "p2p"): "2b04faf5a21b66201ba89bf282435670",
    ("data-b16", "ring"): "d49f6e3dbf3aea0c0bb082c21e3875a4",
    ("data-b16", "bus"): "1d8f404ec91507078c6c771ce8798428",
    ("data-b16", "p2p"): "2e8e3017ce4a5a62e34842d3f5c13c48",
}


class TestMeshGoldenDigests:
    def test_covers_every_strategy_and_topology(self):
        assert list(GOLDEN_MESH_DIGESTS) == [
            (strategy, topology)
            for strategy in MESH_GOLDEN_STRATEGIES
            for topology in ("ring", "bus", "p2p")]

    @pytest.mark.parametrize("case", list(GOLDEN_MESH_DIGESTS),
                             ids=lambda case: "-".join(case))
    def test_bit_equal(self, case):
        assert _mesh_golden_digest(*case) == GOLDEN_MESH_DIGESTS[case]


# ----------------------------------------------------------------------
# Figure 11's overhead apportioning guard
# ----------------------------------------------------------------------
class TestFig11Fixes:
    def test_apportion_zero_kernel_guard(self):
        forward, backward = _apportion_overhead(0.0, 0.0, 0.5)
        assert forward == pytest.approx(0.25)
        assert backward == pytest.approx(0.25)

    def test_apportion_proportional(self):
        forward, backward = _apportion_overhead(1.0, 3.0, 0.4)
        assert forward == pytest.approx(1.1)
        assert backward == pytest.approx(3.3)


# ----------------------------------------------------------------------
# executor multi-input surface (added for mesh subgraphs)
# ----------------------------------------------------------------------
class TestRunWithInputs:
    def test_missing_input_raises(self):
        plan = MeshPartitioner(2).spatial(_small_split(), batch=2)
        tail = next(a for a in plan.assignments if a.role == "tail")
        executor = GraphExecutor(tail.graph, tail.params)
        with pytest.raises(ValueError, match="unbound graph inputs"):
            executor.run_with_inputs({})

    def test_single_input_run_on_multi_input_graph_is_typed(self):
        """Regression: the lowered plan's ``run`` bound only the first
        input of the 4-input tail and died with a bare AssertionError
        inside a kernel's ``input()`` (``None`` to numpy under -O)."""
        plan = MeshPartitioner(2).spatial(_small_split(), batch=2)
        tail = next(a for a in plan.assignments if a.role == "tail")
        first = tail.graph.tensors[min(tail.input_bindings)]
        executor = GraphExecutor(tail.graph, tail.params)
        with pytest.raises(ValueError, match="unbound graph inputs") as err:
            executor.run(np.zeros(first.shape))
        assert first.name not in str(err.value)      # that one was bound
        assert "mesh.join01" in str(err.value)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_compiled_tail_matches_uncompiled_bytewise(self, workers):
        """run_with_inputs is one surface: a pipeline-compiled
        multi-input graph runs through it like a plain one."""
        plan = MeshPartitioner(2).spatial(_small_split(), batch=2)
        tail = next(a for a in plan.assignments if a.role == "tail")
        rng = np.random.default_rng(0)
        inputs = {tensor_id: rng.standard_normal(
                      tail.graph.tensors[tensor_id].shape)
                  for tensor_id in tail.input_bindings}
        expected = GraphExecutor(tail.graph,
                                 tail.params).run_with_inputs(inputs)
        compiled = copy.deepcopy(tail.graph)
        report = compile_graph(compiled, tail.params)
        assert report.ops_after < report.ops_before
        actual = GraphExecutor(compiled, tail.params,
                               workers=workers).run_with_inputs(inputs)
        assert expected.keys() == actual.keys() == {"logits"}
        assert expected["logits"].tobytes() == actual["logits"].tobytes()

    def test_unknown_input_raises(self):
        model = build_model("small_vgg")
        graph = build_inference_graph(model, 2)
        executor = GraphExecutor(
            graph, GraphExecutor.parameters_from_model(graph, model))
        input_id = next(t.id for t in graph.tensors.values()
                        if t.kind == "input")
        x = np.zeros((2, 3, model.input_size, model.input_size))
        with pytest.raises(ValueError, match="not graph inputs"):
            executor.run_with_inputs({input_id: x, 999_999: x})

    def test_shape_mismatch_raises(self):
        model = build_model("small_vgg")
        graph = build_inference_graph(model, 2)
        executor = GraphExecutor(
            graph, GraphExecutor.parameters_from_model(graph, model))
        input_id = next(t.id for t in graph.tensors.values()
                        if t.kind == "input")
        with pytest.raises(ValueError, match="shape"):
            executor.run_with_inputs({input_id: np.zeros((1, 3, 4, 4))})


# ----------------------------------------------------------------------
# Figure 11's measured column (small model so the test stays fast)
# ----------------------------------------------------------------------
class TestMeasuredFig11:
    def test_small_sweep_brackets_and_monotone(self):
        result = run_fig11(
            devices=4, topology="ring", base_batch=4, split_batch_factor=6,
            model_factory=lambda: build_model("small_vgg"),
            split_depth=0.5)
        result.check()
        result.assert_monotone()
        assert len(result.points) == len(PAPER_BANDWIDTHS)
        for point in result.points:
            assert point.measured_speedup > 0

    def test_shuffle_seed_does_not_change_measurement(self):
        kwargs = dict(
            devices=3, topology="bus", base_batch=4, split_batch_factor=6,
            model_factory=lambda: build_model("small_vgg"),
            split_depth=0.5)
        plain = run_fig11(**kwargs)
        shuffled = run_fig11(shuffle_seed=42, **kwargs)
        for a, b in zip(plain.points, shuffled.points):
            assert a.measured_speedup == b.measured_speedup
            assert a.base_step_seconds == b.base_step_seconds
            assert a.split_step_seconds == b.split_step_seconds


if __name__ == "__main__":
    # Prints the ``GOLDEN_MESH_DIGESTS`` rows for the code as it stands.
    with init.fast_init():
        for strategy in MESH_GOLDEN_STRATEGIES:
            for topology in ("ring", "bus", "p2p"):
                digest = _mesh_golden_digest(strategy, topology)
                print(f'    ("{strategy}", "{topology}"): "{digest}",')
