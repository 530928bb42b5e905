"""Partition graph construction and placement-order sequencing."""

import pytest

from chipmap.errors import ValidationError
from chipmap.ir import CircuitDag, cx
from chipmap.partition import predefined_partitions
from chipmap.sequence import PartitionGraph, build_partition_graph, sequence


def _pg(nodes, weights, sizes=None):
    return PartitionGraph(
        tuple(nodes), dict(weights), sizes or {p: 1 for p in nodes}
    )


class TestBuildGraph:
    def test_counts_spanning_gates_only(self):
        dag = CircuitDag([cx(0, 1), cx(0, 2), cx(2, 0), cx(2, 3)], 4)
        reg = predefined_partitions(dag, {0: 0, 1: 0, 2: 1, 3: 1})
        pg = build_partition_graph(reg, dag)
        assert pg.nodes == (0, 1)
        # cx(0,1) and cx(2,3) are internal; both crossings share one key
        assert pg.weights == {(0, 1): 2}
        assert pg.sizes == {0: 2, 1: 2}
        assert pg.weight(1, 0) == 2
        assert pg.weight(0, 0) == 0

    def test_uncovered_qubit_rejected(self):
        dag = CircuitDag([cx(0, 1)], 3)
        reg = predefined_partitions(CircuitDag([], 2), {0: 0, 1: 0})
        with pytest.raises(ValidationError, match="not covered"):
            build_partition_graph(reg, dag)


class TestSequence:
    def test_bfs_from_heaviest_expands_heavy_edges_first(self):
        pg = _pg([0, 1, 2, 3], {(0, 1): 5, (1, 2): 3, (0, 2): 1, (2, 3): 2})
        order = sequence(pg)
        # wdeg: 1 -> 8 (root); neighbors of 1 by weight: 0 then 2; 3 via 2
        assert order.components == ((1, 0, 2, 3),)

    def test_root_tie_prefers_smallest_id(self):
        pg = _pg([0, 1], {(0, 1): 2})
        assert sequence(pg).components == ((0, 1),)

    def test_neighbor_weight_tie_prefers_smallest_id(self):
        pg = _pg([0, 1, 2], {(0, 1): 4, (1, 2): 4})
        order = sequence(pg)
        assert order.components[0][0] == 1
        assert order.components == ((1, 0, 2),)

    def test_components_ordered_by_qubit_count(self):
        pg = _pg(
            [0, 1, 2, 3],
            {(0, 1): 9, (2, 3): 1},
            sizes={0: 2, 1: 2, 2: 5, 3: 5},
        )
        order = sequence(pg)
        assert order.components == ((2, 3), (0, 1))

    def test_component_size_tie_prefers_smallest_member(self):
        pg = _pg([0, 1, 2, 3], {(0, 3): 1, (1, 2): 1})
        order = sequence(pg)
        assert order.components == ((0, 3), (1, 2))

    def test_isolated_partitions_become_singletons(self):
        pg = _pg([0, 1, 2], {}, sizes={0: 1, 1: 3, 2: 2})
        order = sequence(pg)
        assert order.components == ((1,), (2,), (0,))
