"""Tests for the graph export and analysis utilities."""

import numpy as np
import pytest

from repro.graph import build_training_graph
from repro.graph.export import (
    MEMORY_BOUND_TYPES, graph_stats, to_dot, to_networkx,
)
from repro.models import small_resnet


@pytest.fixture(scope="module")
def graph():
    return build_training_graph(small_resnet(rng=np.random.default_rng(0)), 4)


class TestNetworkxExport:
    def test_is_dag(self, graph):
        import networkx as nx
        dag = to_networkx(graph)
        assert nx.is_directed_acyclic_graph(dag)
        assert dag.number_of_nodes() == len(graph.ops)

    def test_edges_carry_tensor_bytes(self, graph):
        dag = to_networkx(graph)
        for _, _, data in dag.edges(data=True):
            assert data["nbytes"] > 0

    def test_topological_order_matches_serialization(self, graph):
        import networkx as nx
        dag = to_networkx(graph)
        position = {op.id: i for i, op in enumerate(graph.ops)}
        for source, target in dag.edges:
            assert position[source] < position[target]


class TestDot:
    def test_contains_ops_and_edges(self, graph):
        dot = to_dot(graph, max_ops=50)
        assert dot.startswith("digraph")
        assert "conv" in dot
        assert "->" in dot
        assert "truncated" in dot  # this graph has > 50 ops

    def test_no_truncation_marker_when_small(self, graph):
        dot = to_dot(graph, max_ops=10 ** 6)
        assert "truncated" not in dot


class TestStats:
    def test_basic_counts(self, graph):
        stats = graph_stats(graph)
        assert stats.num_ops == len(graph.ops)
        assert stats.num_forward_ops + stats.num_backward_ops == stats.num_ops
        assert stats.parameter_bytes > 0
        assert stats.saved_bytes > 0
        assert stats.critical_path_length > 10

    def test_memory_bound_mix(self, graph):
        stats = graph_stats(graph)
        # ResNets are full of BN/ReLU/add: a large memory-bound fraction is
        # the paper's §2.2.1 premise.
        assert stats.memory_bound_fraction > 0.3
        assert stats.memory_bound_ops + stats.compute_bound_ops == stats.num_ops

    def test_histogram_sorted_desc(self, graph):
        stats = graph_stats(graph)
        counts = [count for _, count in stats.op_type_histogram]
        assert counts == sorted(counts, reverse=True)

    def test_widest_tensor_identified(self, graph):
        stats = graph_stats(graph)
        largest = max(graph.tensors.values(), key=lambda t: t.nbytes)
        assert stats.widest_tensor_bytes == largest.nbytes

    def test_memory_bound_types_are_known_ops(self):
        from repro.graph.registry import REGISTRY
        assert MEMORY_BOUND_TYPES <= set(REGISTRY)

