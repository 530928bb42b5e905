"""Independent reference implementations used to derive expected values.

These deliberately avoid the package's own data structures and
algorithms: depth comes from an availability simulation or a longest
path over eagerly built predecessor lists, hop distances and paths from
a dict flood and a neighbour scan over adjacency built cell by cell, the
compiled document from a dict tree for ``json.dumps``, packing checks
from cell-set rasterization, routing checks from token replay on an
adjacency set, partition quality from exhaustive enumeration, bisection
growth from a linear scan over the free nodes, and the community count
from networkx's Girvan-Newman primitives.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Sequence

import networkx as nx


def sim_depth(gates: Sequence[tuple[str, Sequence[int]]]) -> int:
    """Critical path by per-qubit availability simulation.

    ``gates`` is (op, qubits) in program order. Every gate waits for all
    its operands; barriers synchronize but take zero time.
    """
    avail: dict[int, int] = {}
    longest = 0
    for op, qubits in gates:
        start = max((avail.get(q, 0) for q in qubits), default=0)
        finish = start + (0 if op == "barrier" else 1)
        for q in qubits:
            avail[q] = finish
        longest = max(longest, finish)
    return longest


def eager_preds(gates: Sequence, n_virt: int) -> tuple[tuple[int, ...], ...]:
    """Predecessor lists built up front from per-qubit last-writer chains.

    The construction ``build_dag`` ran before edges became lazy: each
    gate depends on the previous gate on any operand, parallel edges
    collapsed, predecessors ascending.
    """
    last = [-1] * n_virt
    preds = []
    for i, g in enumerate(gates):
        srcs = {last[q] for q in g.qubits}
        srcs.discard(-1)
        preds.append(tuple(sorted(srcs)))
        for q in g.qubits:
            last[q] = i
    return tuple(preds)


def gate_node_error(kind, qubits) -> str | None:
    """The message ``GateNode(kind, qubits)`` must reject with, or None.

    These are the operand rules as ``GateNode.__post_init__`` stated them
    before the constructor was written out by hand.
    """
    n = len(qubits)
    if kind.is_two_qubit:
        if n != 2 or qubits[0] == qubits[1]:
            return f"{kind.value} needs two distinct operands, got {qubits}"
    elif kind.value == "barrier":
        if n == 0 or len(set(qubits)) != n:
            return f"barrier operands must be nonempty and distinct: {qubits}"
    elif n != 1:
        return f"{kind.value} takes one operand, got {qubits}"
    return None


def coupling_parts(backend) -> tuple[list[bool], list[tuple[int, ...]], dict]:
    """``alive``, adjacency and link records, built cell by cell.

    The construction ``CouplingGraph`` ran before it switched to row
    arithmetic: one defect lookup and one ``backend.gid`` call per cell.
    """
    n = backend.n_qubits
    alive = [gid not in backend.defects for gid in range(n)]
    adj: list[list[int]] = [[] for _ in range(n)]
    for chip in range(backend.n_chiplets):
        for y in range(backend.chip_h):
            for x in range(backend.chip_w):
                gid = backend.gid(chip, x, y)
                if not alive[gid]:
                    continue
                if x + 1 < backend.chip_w and alive[gid + 1]:
                    adj[gid].append(gid + 1)
                    adj[gid + 1].append(gid)
                if y + 1 < backend.chip_h and alive[gid + backend.chip_w]:
                    adj[gid].append(gid + backend.chip_w)
                    adj[gid + backend.chip_w].append(gid)
    links = {}
    for link in backend.links:
        if alive[link.a] and alive[link.b]:
            adj[link.a].append(link.b)
            adj[link.b].append(link.a)
            links[link.key] = link
    return alive, [tuple(sorted(ns)) for ns in adj], links


def bfs_dist(backend, start: int, chip: int) -> dict[int, int]:
    """Breadth-first hop distances from ``start`` within one chiplet.

    The dict flood routing ran before it switched to bitboard levels, over
    ``coupling_parts``'s adjacency: the neighbours of each reached cell,
    keeping the cells of ``chip``.
    """
    _, adj, _ = coupling_parts(backend)
    area = backend.chip_area
    dist = {start: 0}
    frontier = [start]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in dist and w // area == chip:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def walk_back(backend, dist: Mapping[int, int], src: int, dst: int, chip: int) -> list[int]:
    """The ``src`` -> ``dst`` path over a distance dict rooted at ``src``.

    The walk routing ran before each distance view walked its own path:
    from ``dst``, step to the smallest neighbour id on ``chip``, in
    ``coupling_parts``'s adjacency, that is one hop closer to ``src``.
    """
    _, adj, _ = coupling_parts(backend)
    area = backend.chip_area
    path = [dst]
    cur = dst
    while cur != src:
        want = dist[cur] - 1
        cur = min(u for u in adj[cur] if u // area == chip and dist.get(u) == want)
        path.append(cur)
    path.reverse()
    return path


class FloodDist:
    """``bfs_dist`` behind the interface of routing's distance views."""

    def __init__(self, backend, start: int, chip: int):
        self.backend, self.start, self.chip = backend, start, chip
        self.dist = bfs_dist(backend, start, chip)

    def get(self, gid: int) -> int | None:
        return self.dist.get(gid)

    def walk_back(self, dst: int) -> list[int]:
        return walk_back(self.backend, self.dist, self.start, dst, self.chip)


def gates_to_json(nodes: Sequence) -> list[dict]:
    """Gates in the circuit interchange form, one dict each.

    The gate serializer the package kept before the compiled document was
    written from templates: each gate keeps its kind's name and a
    nonempty tag.
    """
    out = []
    for g in nodes:
        entry = {"op": g.kind.value, "qubits": list(g.qubits)}
        if g.tag:
            entry["tag"] = g.tag
        out.append(entry)
    return out


def compiled_document(result, backend) -> dict:
    """The compiled-circuit document as a dict tree, field by field.

    The builder the package kept beside its text writer; ``json.dumps``
    of it with ``indent=2`` is the text ``dumps_compiled`` must produce.
    """
    compiled = result.compiled

    def pairs(counts):
        return [{"a": a, "b": b, "count": n} for (a, b), n in sorted(counts.items())]

    return {
        "schema_version": 1,
        "n_physical": backend.n_qubits,
        "gates": gates_to_json(compiled.dag.nodes),
        "mapping": {
            str(v): {"chip": c.chip, "x": c.x, "y": c.y}
            for v, c in sorted(compiled.mapping.items())
        },
        "placements": [
            {"pid": p.pid, "chip": p.chip, "x": p.x, "y": p.y, "w": p.w, "h": p.h}
            for p in (result.placements[pid] for pid in sorted(result.placements))
        ],
        "link_usage": pairs(compiled.link_usage),
        "link_traversals": pairs(compiled.link_traversals),
        "stats": result.stats.as_dict(),
        "timings": {k: round(v, 6) for k, v in result.timings.items()},
    }


def coupling_edges(backend) -> set[tuple[int, int]]:
    """Every coupling (a, b), a < b, of ``coupling_parts``'s adjacency."""
    _, adj, _ = coupling_parts(backend)
    return {(a, b) for a, ns in enumerate(adj) for b in ns if a < b}


def links_between(backend, chip_a: int, chip_b: int) -> list:
    """Functional links joining two chiplets, in backend order.

    The filter routing applied before ``CouplingGraph`` kept the links per
    chiplet pair: the pair matches and neither endpoint is a defect.
    """
    pair = {chip_a, chip_b}
    return [
        l for l in backend.links
        if {backend.chip_of(l.a), backend.chip_of(l.b)} == pair
        and l.a not in backend.defects
        and l.b not in backend.defects
    ]


def blocked_cells(backend, chip: int) -> set[tuple[int, int]]:
    """(x, y) of every defective cell of ``chip``."""
    return {
        (x, y)
        for x in range(backend.chip_w)
        for y in range(backend.chip_h)
        if backend.gid(chip, x, y) in backend.defects
    }


def carved_free(backend, split) -> dict[int, list]:
    """Free regions per chip after carving each defect as a 1x1 block.

    The construction ``BinState`` ran before it read the defect list: a
    defect test on every cell of every chiplet, cells carved in (x, y)
    order, each from the region that holds it, with ``split`` (the
    guillotine split under test elsewhere) and regions kept sorted by
    (y, x).
    """
    out = {}
    for chip in range(backend.n_chiplets):
        regions = [(chip, 0, 0, backend.chip_w, backend.chip_h)]
        for x, y in sorted(blocked_cells(backend, chip)):
            (i, reg), = [
                (i, r) for i, r in enumerate(regions)
                if r[1] <= x < r[1] + r[3] and r[2] <= y < r[2] + r[4]
            ]
            regions = regions[:i] + regions[i + 1:] + list(split(reg, (x, y, 1, 1)))
            regions.sort(key=lambda r: (r[2], r[1]))
        out[chip] = regions
    return out


def longest_path_depth(gates: Sequence, preds: Sequence[Sequence[int]]) -> int:
    """Longest path over ``preds`` with unit gate weight; barriers weigh zero."""
    finish = []
    for g, ps in zip(gates, preds):
        w = 0 if g.kind.value == "barrier" else 1
        finish.append(w + max((finish[p] for p in ps), default=0))
    return max(finish, default=0)


def grid_cells(w: int, h: int) -> set[tuple[int, int]]:
    return {(x, y) for x in range(w) for y in range(h)}


def rect_cells(x: int, y: int, w: int, h: int) -> set[tuple[int, int]]:
    return {(xx, yy) for xx in range(x, x + w) for yy in range(y, y + h)}


def check_chip_partition(
    chip_w: int,
    chip_h: int,
    free: Iterable[tuple[int, int, int, int]],
    placed: Iterable[tuple[int, int, int, int]],
    blocked: Iterable[tuple[int, int]],
) -> None:
    """Assert free regions, placements, and blocked cells tile the chip.

    Every cell must be covered exactly once; any overlap or gap raises.
    """
    union: set[tuple[int, int]] = set()
    total = 0
    for x, y, w, h in itertools.chain(free, placed):
        cells = rect_cells(x, y, w, h)
        assert cells <= grid_cells(chip_w, chip_h), f"rect {(x, y, w, h)} leaves the chip"
        union |= cells
        total += len(cells)
    blocked = set(blocked)
    union |= blocked
    total += len(blocked)
    assert total == chip_w * chip_h, f"overlap: {total} covered cells on a {chip_w}x{chip_h} chip"
    assert union == grid_cells(chip_w, chip_h), "gap: some chip cell is uncovered"


class TokenTracker:
    """Replay a physical gate sequence against a fixed coupling relation."""

    def __init__(self, initial: Mapping[int, int], edges: set[tuple[int, int]]):
        self.pos = dict(initial)                      # virtual -> physical
        self.owner = {p: v for v, p in initial.items()}
        assert len(self.owner) == len(self.pos), "initial mapping is not injective"
        self.edges = {(min(a, b), max(a, b)) for a, b in edges}

    def adjacent(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.edges

    def apply(self, op: str, qubits: Sequence[int]) -> None:
        if op == "barrier" or len(qubits) == 1:
            return
        a, b = qubits
        assert self.adjacent(a, b), f"{op} on non-coupled cells {a}, {b}"
        if op == "swap":
            va, vb = self.owner.get(a), self.owner.get(b)
            if va is not None:
                self.pos[va] = b
            if vb is not None:
                self.pos[vb] = a
            self.owner[a], self.owner[b] = vb, va


def brute_force_cut(
    n: int, weights: Mapping[tuple[int, int], int], lo: int, hi: int
) -> int:
    """Minimum cut weight over all splits with side-A size in [lo, hi]."""
    best: int | None = None
    for r in range(max(0, lo), min(n, hi) + 1):
        for side in itertools.combinations(range(n), r):
            s = set(side)
            cut = sum(w for (a, b), w in weights.items() if (a in s) != (b in s))
            if best is None or cut < best:
                best = cut
    assert best is not None, "no feasible split in the given size window"
    return best


def cut_weight(side: set[int], weights: Mapping[tuple[int, int], int]) -> int:
    return sum(w for (a, b), w in weights.items() if (a in side) != (b in side))


def grow_by_scan(nodes: list[int], ladj: Mapping[int, Mapping[int, int]],
                 seed_node: int, target: int) -> set[int]:
    """Greedy growth from ``seed_node`` to ``target`` nodes, by linear scan.

    The construction ``partition._grow`` ran before its heap: every step
    scans all free nodes for the largest attraction (edge weight into the
    side), smallest id among ties.
    """
    side = {seed_node}
    attraction = {v: 0 for v in nodes if v != seed_node}
    for u, w in ladj[seed_node].items():
        attraction[u] = w
    while len(side) < target:
        pick = max(attraction, key=lambda v: (attraction[v], -v))
        del attraction[pick]
        side.add(pick)
        for u, w in ladj[pick].items():
            if u in attraction:
                attraction[u] += w
    return side


def all_partitions(elems: list[int]):
    """Every set partition of ``elems`` (for exhaustive modularity search)."""
    if not elems:
        yield []
        return
    first, rest = elems[0], elems[1:]
    for part in all_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def girvan_newman_count(g) -> tuple[int, list[int]]:
    """Community count and sizes by Girvan-Newman on networkx.

    ``g`` has ``nodes`` and ``weights`` ({(a, b): w} with a < b). Edges go
    in descending betweenness order (relative ties within 1e-9 broken
    toward the smallest endpoint pair); after each removal, betweenness
    is recomputed on the touched components only. Every new community
    structure is scored by weighted modularity on the original graph,
    keeping the first best (ties within 1e-12 go to fewer communities).
    """
    if not g.weights:
        return len(g.nodes), [1] * len(g.nodes)
    orig = nx.Graph()
    orig.add_nodes_from(g.nodes)
    for (a, b), w in sorted(g.weights.items()):
        orig.add_edge(a, b, weight=w)

    def communities(graph: nx.Graph) -> list[set[int]]:
        return sorted(nx.connected_components(graph), key=min)

    work = orig.copy()
    bc: dict[tuple[int, int], float] = {}

    def recompute(nodes: set[int]) -> None:
        sub = work.subgraph(nodes)
        for (u, v), val in nx.edge_betweenness_centrality(sub, normalized=False).items():
            bc[(min(u, v), max(u, v))] = val

    comps = communities(work)
    for comp in comps:
        recompute(comp)
    best = comps
    best_q = nx.algorithms.community.modularity(orig, comps, weight="weight")
    n_comps = len(comps)
    while work.number_of_edges() > 0:
        top = max(bc.values())
        cut = top - 1e-9 * max(1.0, abs(top))
        edge = min(e for e, val in bc.items() if val >= cut)
        work.remove_edge(*edge)
        del bc[edge]
        side_a = nx.node_connected_component(work, edge[0])
        recompute(side_a)
        if edge[1] not in side_a:
            recompute(nx.node_connected_component(work, edge[1]))
            comps = communities(work)
            if len(comps) > n_comps:
                n_comps = len(comps)
                q = nx.algorithms.community.modularity(orig, comps, weight="weight")
                if q > best_q + 1e-12:
                    best, best_q = comps, q
    return len(best), sorted((len(c) for c in best), reverse=True)
