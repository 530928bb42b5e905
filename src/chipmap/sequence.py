"""Placement-order sequencing over the partition entanglement graph.

Partitions that exchange many two-qubit gates should land near each other,
so placement visits them in BFS order from the most entangled partition of
each connected component, expanding heavy edges first. Components are
emitted largest first (by total qubit count). The ``SequencedOrder`` is
the stage's only product; the registry is not touched.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ir import CircuitDag, PartitionRegistry, pair_counts


@dataclass(frozen=True)
class PartitionGraph:
    """Partition-level interaction graph; weights count spanning 2q gates."""

    nodes: tuple[int, ...]
    weights: dict[tuple[int, int], int]  # keys (a, b) with a < b
    sizes: dict[int, int]                # partition id -> qubit count

    def weight(self, a: int, b: int) -> int:
        return self.weights.get((a, b) if a < b else (b, a), 0)


@dataclass(frozen=True)
class SequencedOrder:
    components: tuple[tuple[int, ...], ...]


def build_partition_graph(registry: PartitionRegistry, dag: CircuitDag) -> PartitionGraph:
    """Collapse the qubit interaction structure onto partitions."""
    registry.check_covers(dag)
    pid_of = registry.pid_of
    weights = pair_counts((pid_of[a], pid_of[b]) for a, b in dag.two_qubit_operands())
    nodes = tuple(sorted(p.pid for p in registry))
    sizes = {p.pid: p.size for p in registry}
    return PartitionGraph(nodes, weights, sizes)


def sequence(pg: PartitionGraph) -> SequencedOrder:
    """BFS placement order per component, heaviest partitions first.

    Component roots maximize weighted degree (smallest id on ties);
    neighbors expand by descending edge weight, then ascending id.
    Components are ordered by descending total qubit count, then by
    smallest member id. Isolated partitions form their own components.
    """
    adj: dict[int, dict[int, int]] = {p: {} for p in pg.nodes}
    for (a, b), w in pg.weights.items():
        adj[a][b] = w
        adj[b][a] = w
    wdeg = {p: sum(adj[p].values()) for p in pg.nodes}

    unseen = set(pg.nodes)
    components: list[tuple[int, ...]] = []
    while unseen:
        root = max(unseen, key=lambda p: (wdeg[p], -p))
        order = [root]
        unseen.discard(root)
        queue = [root]
        while queue:
            cur = queue.pop(0)
            nxt = sorted(
                (v for v in adj[cur] if v in unseen),
                key=lambda v: (-adj[cur][v], v),
            )
            for v in nxt:
                unseen.discard(v)
                order.append(v)
                queue.append(v)
        components.append(tuple(order))

    components.sort(key=lambda comp: (-sum(pg.sizes[p] for p in comp), min(comp)))
    return SequencedOrder(tuple(components))


def sequence_registry(
    registry: PartitionRegistry, pg: PartitionGraph
) -> tuple[PartitionRegistry, SequencedOrder]:
    """``(registry, sequence(pg))``: the registry as given, and its order.

    The order is the stage's only product. This pair form remains because
    ``bench/spans.py`` unpacks it; the pipeline calls ``sequence``.
    """
    return registry, sequence(pg)
