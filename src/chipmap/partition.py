"""Circuit partitioning.

Two routes produce the partition registry, the first stage's product:

- auto: estimate how many patches the interaction graph naturally forms
  (Girvan-Newman edge-betweenness community detection, keeping the
  maximum-modularity level of the removal dendrogram), then split qubits
  into that many capacity-bounded blocks with recursive bisection plus a
  move-and-rollback boundary refinement pass.
- predefined: adopt patch labels shipped with the circuit, attaching
  declared geometry or inferring the squarest box that holds each block.

Detection runs on a built-in kernel: flat adjacency lists and Brandes
edge betweenness recomputed only on the components a removal touches. It
sums in networkx's order, so betweenness and modularity, and with them
the removal sequence and the result, are the same as networkx gives.
A touched component whose shape (relabelled adjacency) already came up
in the same detection call takes its betweenness from a per-call memo
instead of a new kernel run; the values are bit-identical either way.
Each removal costs O(n*m) on the touched component, so detection is
capped at a node budget; larger circuits must ship labels.
"""

from __future__ import annotations

import heapq
import math
import random
from typing import Mapping, Sequence

from .errors import CompilerError, ValidationError
from .ir import (
    CircuitDag,
    InteractionGraph,
    Partition,
    PartitionGeometry,
    PartitionRegistry,
)

DEFAULT_DETECTION_BUDGET = 200

_BETWEENNESS_TIE_TOL = 1e-9
_MODULARITY_TIE_TOL = 1e-12
_REMOVED = -1.0  # below every live edge's betweenness, which is at least 1


def estimate_partition_count(
    g: InteractionGraph, node_budget: int = DEFAULT_DETECTION_BUDGET
) -> tuple[int, list[int]]:
    """Estimate the number of qubit communities in the interaction graph.

    Girvan-Newman: removes edges in descending betweenness order (ties
    broken toward the lexicographically smallest endpoint pair) and scores
    every community structure the removal sequence produces by weighted
    modularity on the original graph. Returns the community count and
    sizes of the best structure; modularity ties resolve toward fewer
    communities. The result is invariant under uniform edge-weight scaling.
    """
    n = g.n_nodes
    if n == 0:
        raise ValidationError("interaction graph has no nodes")
    if n > node_budget:
        raise ValidationError(
            f"interaction graph has {n} nodes, over the detection budget of "
            f"{node_budget}; supply predefined partitions"
        )
    if not g.weights:
        return n, [1] * n

    # Edge ids follow the sorted endpoint pairs, so the smallest id is the
    # lexicographic tie-break; each node lists (neighbour, edge id) in
    # insertion order.
    ends: list[tuple[int, int]] = []
    weights: list[int] = []
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    wdeg = [0] * n
    for (a, b), w in sorted(g.weights.items()):
        if w <= 0:
            raise ValidationError(f"interaction edge {(a, b)} has nonpositive weight {w}")
        adj[a].append((b, len(ends)))
        adj[b].append((a, len(ends)))
        ends.append((a, b))
        weights.append(w)
        wdeg[a] += w
        wdeg[b] += w

    bc = [0.0] * len(ends)  # betweenness of live edges, _REMOVED once cut
    memo: dict[tuple, list[float]] = {}  # component shape -> its betweenness
    label = [-1] * n  # component id per node
    n_comps = 0
    for v in range(n):
        if label[v] < 0:
            comp = _reach(adj, v)
            for u in comp:
                label[u] = n_comps
            _component_betweenness(adj, sorted(comp), bc, memo)
            n_comps += 1

    deg_sum = sum(wdeg)
    m = deg_sum / 2
    norm = 1 / deg_sum**2

    def modularity() -> float:
        # networkx's expression and summation order, so Q matches bit for bit
        internal = [0] * n_comps
        degree = [0] * n_comps
        for (a, b), w in zip(ends, weights):
            if label[a] == label[b]:
                internal[label[a]] += w
        for v, d in enumerate(wdeg):
            degree[label[v]] += d
        by_min = dict.fromkeys(label)  # communities in order of their smallest node
        return sum(internal[c] / m - degree[c] * degree[c] * norm for c in by_min)

    def sizes() -> list[int]:
        counts = [0] * n_comps
        for c in label:
            counts[c] += 1
        return sorted(counts, reverse=True)

    best_q = modularity()
    best = sizes()
    for _ in range(len(ends)):
        top = max(bc)
        cut = top - _BETWEENNESS_TIE_TOL * max(1.0, abs(top))
        e = next(i for i, val in enumerate(bc) if val >= cut)
        bc[e] = _REMOVED
        a, b = ends[e]
        adj[a].remove((b, e))
        adj[b].remove((a, e))
        side_a = _reach(adj, a)
        _component_betweenness(adj, sorted(side_a), bc, memo)
        if b in side_a:
            continue
        side_b = _reach(adj, b)
        _component_betweenness(adj, sorted(side_b), bc, memo)
        for v in side_b:
            label[v] = n_comps
        n_comps += 1
        q = modularity()
        if q > best_q + _MODULARITY_TIE_TOL:
            best, best_q = sizes(), q
    return len(best), best


def _reach(adj: list[list[tuple[int, int]]], start: int) -> set[int]:
    """Nodes connected to ``start`` (breadth-first)."""
    seen = {start}
    queue = [start]
    for v in queue:
        for w, _ in adj[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def _component_betweenness(adj: list[list[tuple[int, int]]], nodes: list[int],
                           bc: list[float], memo: dict[tuple, list[float]]) -> None:
    """``_edge_betweenness`` of one component, served from ``memo`` on a repeat.

    The key relabels the component: node ``nodes[i]`` becomes ``i`` and
    each edge gets its rank in order of first appearance, and the key
    lists, node by node in ``nodes`` order, every ``adj`` entry as
    (local neighbour, local edge) in ``adj`` order. The kernel looks at
    node ids only to index its arrays and to compare endpoints, and the
    relabelling keeps both, since ``nodes`` is ascending. So two
    components with equal keys make the kernel visit sources, push the
    stack, add to ``sigma``, ``delta`` and ``bc`` and halve in the same
    order on the same values: their betweenness, stored per local edge,
    is equal bit for bit, and a repeat copies it instead of recomputing.
    """
    local = {v: i for i, v in enumerate(nodes)}
    rank: dict[int, int] = {}  # global edge id -> local edge id
    key = tuple(
        tuple((local[w], rank.setdefault(e, len(rank))) for w, e in adj[v]) for v in nodes
    )
    known = memo.get(key)
    if known is None:
        _edge_betweenness(adj, nodes, bc)
        memo[key] = [bc[e] for e in rank]
    else:
        for e, val in zip(rank, known):
            bc[e] = val


def _edge_betweenness(adj: list[list[tuple[int, int]]], nodes: list[int],
                      bc: list[float]) -> None:
    """Brandes edge betweenness of one component into ``bc``, unnormalized.

    Sources run in node order and each source's stack doubles as its BFS
    queue, so every sum is taken in the order networkx takes it; the final
    halving (one count per unordered pair) is exact.
    """
    eids = [e for v in nodes for w, e in adj[v] if v < w]
    for e in eids:
        bc[e] = 0.0
    n = len(adj)
    sigma = [0.0] * n
    dist = [-1] * n
    delta = [0.0] * n
    preds: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for s in nodes:
        sigma[s] = 1.0
        dist[s] = 0
        preds[s] = []
        stack = [s]
        for v in stack:
            dv = dist[v] + 1
            sv = sigma[v]
            for w, e in adj[v]:
                dw = dist[w]
                if dw < 0:
                    dist[w] = dv
                    sigma[w] = sv
                    preds[w] = [(v, e)]
                    stack.append(w)
                elif dw == dv:
                    sigma[w] += sv
                    preds[w].append((v, e))
        for w in reversed(stack):
            coeff = (1.0 + delta[w]) / sigma[w]
            for v, e in preds[w]:
                c = sigma[v] * coeff
                bc[e] += c
                delta[v] += c
        for v in stack:
            dist[v] = -1
            delta[v] = 0.0
    for e in eids:
        bc[e] *= 0.5


def _infer_box(n: int) -> tuple[int, int]:
    """Squarest w x h box with w*h >= n (width never shorter than height)."""
    w = math.isqrt(n)
    if w * w < n:
        w += 1
    h = -(-n // w)
    return w, h


def _registry(labels: Mapping[int, int],
              geometry: Mapping[int, PartitionGeometry] | None) -> PartitionRegistry:
    """The blocks of ``labels`` (qubit -> partition id) as partitions, ascending by id.

    A block takes its declared geometry, or else the squarest box that holds it.
    """
    blocks: dict[int, list[int]] = {}
    for q, pid in labels.items():
        blocks.setdefault(pid, []).append(q)
    parts = []
    for pid in sorted(blocks):
        qubits = frozenset(blocks[pid])
        geo = (geometry or {}).get(pid) or PartitionGeometry(*_infer_box(len(qubits)), {})
        parts.append(Partition(pid, qubits, geo.width, geo.height, geo.cells or None))
    return PartitionRegistry(tuple(parts))


def predefined_partitions(
    dag: CircuitDag,
    qubit_to_pid: Mapping[int, int],
    geometry: Mapping[int, PartitionGeometry] | None = None,
) -> PartitionRegistry:
    """Adopt circuit-supplied patch labels as the partition registry."""
    missing = [q for q in range(dag.n_virt) if q not in qubit_to_pid]
    if missing:
        raise ValidationError(f"qubits {missing[:8]} missing from the partition map")
    if len(qubit_to_pid) != dag.n_virt:
        raise ValidationError(f"the partition map labels qubits beyond the circuit's {dag.n_virt}")
    return _registry(qubit_to_pid, geometry)


def kway_partition(
    g: InteractionGraph,
    k: int,
    capacities: Sequence[int],
    imbalance: float = 0.03,
    seed: int = 0,
) -> PartitionRegistry:
    """Split the interaction graph into k capacity-bounded blocks.

    Minimizes the weighted edge cut by recursive bisection: each bisection
    grows one side greedily from several seeds, then runs move-and-rollback
    refinement passes until no pass improves the cut. Block i holds at
    most capacities[i] * (1 + imbalance) qubits; empty blocks are dropped.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if len(capacities) != k:
        raise ValidationError(f"expected {k} capacities, got {len(capacities)}")
    caps = [int(c) for c in capacities]
    if any(c < 0 for c in caps):
        raise ValidationError("capacities must be nonnegative")
    nodes = list(g.nodes)
    if sum(caps) < len(nodes):
        raise ValidationError(
            f"capacities sum to {sum(caps)} but the graph has {len(nodes)} nodes"
        )
    if imbalance < 0:
        raise ValidationError("imbalance must be nonnegative")

    adj: dict[int, dict[int, int]] = {v: {} for v in nodes}
    for (a, b), w in g.weights.items():
        adj[a][b] = adj[a].get(b, 0) + w
        adj[b][a] = adj[b].get(a, 0) + w

    rng = random.Random(seed)
    assign: dict[int, int] = {}
    _split(nodes, caps, 0, adj, imbalance, rng, assign)

    return _registry(assign, None)


def _cap_limit(cap: int, imbalance: float) -> int:
    return int(cap * (1.0 + imbalance) + 1e-9)


def _split(
    nodes: list[int],
    caps: list[int],
    pid_base: int,
    adj: dict[int, dict[int, int]],
    imbalance: float,
    rng: random.Random,
    assign: dict[int, int],
) -> None:
    if not nodes:  # refinement may empty a side; its blocks stay empty
        return
    if len(caps) == 1:
        if len(nodes) > _cap_limit(caps[0], imbalance):
            raise ValidationError(
                f"block {pid_base} would hold {len(nodes)} qubits, over its "
                f"capacity {caps[0]} with imbalance {imbalance}"
            )
        for v in nodes:
            assign[v] = pid_base
        return
    k1 = (len(caps) + 1) // 2
    caps_l, caps_r = caps[:k1], caps[k1:]
    # Each side may hold what its leaves may hold; _cap_limit(sum) would
    # hand out slack the per-leaf floor then takes away.
    hi_l = sum(_cap_limit(c, imbalance) for c in caps_l)
    hi_r = sum(_cap_limit(c, imbalance) for c in caps_r)
    lo_l = max(0, len(nodes) - hi_r)
    if lo_l > hi_l:
        raise ValidationError("capacities infeasible under the imbalance bound")
    total = sum(caps_l) + sum(caps_r)
    target = round(len(nodes) * sum(caps_l) / total) if total else len(nodes) // 2
    target = min(max(target, lo_l), hi_l)
    side_a = _bisect(nodes, adj, lo_l, hi_l, target, rng)
    left = [v for v in nodes if v in side_a]
    right = [v for v in nodes if v not in side_a]
    _split(left, caps_l, pid_base, adj, imbalance, rng, assign)
    _split(right, caps_r, pid_base + k1, adj, imbalance, rng, assign)


def _bisect(
    nodes: list[int],
    adj: dict[int, dict[int, int]],
    lo: int,
    hi: int,
    target: int,
    rng: random.Random,
) -> set[int]:
    """Best bisection over several growth seeds, refined to a local optimum."""
    if hi <= 0:
        return set()
    sset = set(nodes)
    ladj = {v: {u: w for u, w in adj[v].items() if u in sset} for v in nodes}
    wdeg = {v: sum(ladj[v].values()) for v in nodes}
    if len(nodes) <= 24:
        seeds = list(nodes)  # restarts are cheap at this size
    else:
        seeds = []
        for cand in [max(nodes, key=lambda v: (wdeg[v], -v)), nodes[0], nodes[-1]]:
            if cand not in seeds:
                seeds.append(cand)
        for cand in rng.sample(nodes, min(3, len(nodes))):
            if cand not in seeds:
                seeds.append(cand)

    best: tuple[int, tuple[int, ...]] | None = None
    best_side: set[int] | None = None
    for seed_node in seeds:
        side = _grow(nodes, ladj, seed_node, target)
        cut = _refine(nodes, ladj, side, lo, hi)
        key = (cut, tuple(sorted(side)))
        if best is None or key < best:
            best, best_side = key, side
    if best_side is None:
        raise CompilerError("bisection tried no seed node")
    return best_side


def _grow(nodes: list[int], ladj: dict[int, dict[int, int]],
          seed_node: int, target: int) -> set[int]:
    """Greedy growth from ``seed_node`` to ``target`` nodes.

    Each step takes the free node with the largest attraction (edge
    weight into the side), the smallest id among ties. The heap holds
    (-attraction, node) and gets a new entry on every change; an entry
    whose node is taken or whose value is out of date is skipped.
    """
    side = {seed_node}
    attraction = {v: 0 for v in nodes if v != seed_node}
    for u, w in ladj[seed_node].items():
        attraction[u] = w
    heap = [(-a, v) for v, a in attraction.items()]
    heapq.heapify(heap)
    while len(side) < target:
        neg, pick = heapq.heappop(heap)
        if attraction.get(pick) != -neg:
            continue
        del attraction[pick]
        side.add(pick)
        for u, w in ladj[pick].items():
            if u in attraction:
                attraction[u] += w
                heapq.heappush(heap, (-attraction[u], u))
    return side


def _refine(nodes: list[int], ladj: dict[int, dict[int, int]],
            side: set[int], lo: int, hi: int) -> int:
    """Move-and-rollback passes; mutates ``side``, returns the final cut."""
    cut = sum(
        w for v in side for u, w in ladj[v].items() if u not in side
    )
    while True:
        improved, cut = _refine_pass(nodes, ladj, side, lo, hi, cut)
        if not improved:
            return cut


def _refine_pass(nodes: list[int], ladj: dict[int, dict[int, int]],
                 side: set[int], lo: int, hi: int, cut: int) -> tuple[bool, int]:
    gains = {
        v: sum(w if (u in side) != (v in side) else -w for u, w in ladj[v].items())
        for v in nodes
    }
    in_a = {v: v in side for v in nodes}
    size_a = sum(1 for v in nodes if in_a[v])
    locked: set[int] = set()
    moves: list[int] = []
    best_cut, best_len = cut, 0
    cur = cut
    for _ in range(len(nodes)):
        pick = None
        for v in nodes:
            if v in locked:
                continue
            new_a = size_a + (-1 if in_a[v] else 1)
            if not lo <= new_a <= hi:
                continue
            if pick is None or gains[v] > gains[pick]:
                pick = v
        if pick is None:
            break
        was_a = in_a[pick]
        cur -= gains[pick]
        for u, w in ladj[pick].items():
            if in_a[u] == was_a:
                gains[u] += 2 * w
            else:
                gains[u] -= 2 * w
        gains[pick] = -gains[pick]
        in_a[pick] = not was_a
        size_a += -1 if was_a else 1
        locked.add(pick)
        moves.append(pick)
        if cur < best_cut:
            best_cut, best_len = cur, len(moves)
    # roll back moves past the best prefix
    for v in moves[best_len:]:
        in_a[v] = not in_a[v]
    side.clear()
    side.update(v for v in nodes if in_a[v])
    return best_len > 0 and best_cut < cut, best_cut
