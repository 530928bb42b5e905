"""Community count estimation and capacity-bounded k-way splitting."""

import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chipmap.partition as partition
from chipmap.benchgen import gen_ls_cnot_circuit
from chipmap.errors import ValidationError
from chipmap.ir import (
    CircuitDag,
    InteractionGraph,
    PartitionGeometry,
    circuit_from_json,
    cx,
    interaction_graph,
)
from chipmap.partition import (
    _cap_limit,
    _component_betweenness,
    _edge_betweenness,
    _grow,
    estimate_partition_count,
    kway_partition,
    predefined_partitions,
)
from oracles import (
    all_partitions,
    brute_force_cut,
    cut_weight,
    girvan_newman_count,
    grow_by_scan,
)


def _clique(weights, nodes, w=1):
    for a, b in itertools.combinations(sorted(nodes), 2):
        weights[(a, b)] = w


def _graph(n, weights):
    return InteractionGraph(tuple(range(n)), dict(weights))


def _modularity(n, weights, blocks):
    g = nx.Graph()
    g.add_nodes_from(range(n))
    for (a, b), w in weights.items():
        g.add_edge(a, b, weight=w)
    return nx.algorithms.community.modularity(g, [set(b) for b in blocks], weight="weight")


class TestEstimate:
    def test_graph_nodes_must_be_a_range(self):
        # detection indexes nodes 0..n-1, so the graph refuses any other node list
        with pytest.raises(ValidationError, match=r"nodes must be range\(3\)"):
            InteractionGraph((0, 2, 5), {(0, 5): 1, (2, 5): 1})

    @pytest.mark.parametrize("key", [(1, 0), (1, 1), (0, 3), (-1, 0)])
    def test_graph_keys_must_be_ordered_pairs_of_nodes(self, key):
        with pytest.raises(ValidationError, match="needs 0 <= a < b < 3"):
            InteractionGraph((0, 1, 2), {key: 1})

    def test_two_cliques_match_exhaustive_optimum(self):
        weights: dict = {}
        _clique(weights, range(4))
        _clique(weights, range(4, 8))
        weights[(3, 4)] = 1
        k, sizes = estimate_partition_count(_graph(8, weights))
        best = max(
            all_partitions(list(range(8))),
            key=lambda p: _modularity(8, weights, p),
        )
        assert k == len(best) == 2
        assert sizes == sorted((len(b) for b in best), reverse=True) == [4, 4]

    def test_triangle_ring_matches_exhaustive_optimum(self):
        """Three triangles joined in a ring by single edges.

        The modularity optimum is the three triangles (Q = 5/12; an
        exhaustive search over all 21,147 set partitions of the nine nodes
        finds no other partition above 0.31), so the test asserts against
        that known optimum instead of repeating the search.
        """
        weights: dict = {}
        for t in range(3):
            _clique(weights, range(3 * t, 3 * t + 3))
        for t in range(3):
            a = 3 * t + 2
            b = (3 * (t + 1)) % 9
            weights[tuple(sorted((a, b)))] = 1
        triangles = [list(range(3 * t, 3 * t + 3)) for t in range(3)]
        k, sizes = estimate_partition_count(_graph(9, weights))
        assert (k, sizes) == (len(triangles), [len(t) for t in triangles]) == (3, [3, 3, 3])

    def test_edgeless_graph_gives_singletons(self):
        assert estimate_partition_count(_graph(4, {})) == (4, [1, 1, 1, 1])

    def test_single_clique_stays_whole(self):
        weights: dict = {}
        _clique(weights, range(5))
        k, sizes = estimate_partition_count(_graph(5, weights))
        assert (k, sizes) == (1, [5])

    def test_weight_scale_invariance(self):
        weights: dict = {}
        _clique(weights, range(4), w=2)
        _clique(weights, range(4, 7), w=2)
        weights[(2, 4)] = 1
        base = estimate_partition_count(_graph(7, weights))
        scaled = estimate_partition_count(
            _graph(7, {e: w * 7 for e, w in weights.items()})
        )
        assert base == scaled

    def test_detection_budget_enforced(self):
        weights = {(0, 1): 1}
        with pytest.raises(ValidationError, match="budget"):
            estimate_partition_count(_graph(300, weights), node_budget=200)

    def test_deterministic(self):
        rng = random.Random(3)
        weights = {}
        for a, b in itertools.combinations(range(10), 2):
            if rng.random() < 0.4:
                weights[(a, b)] = rng.randint(1, 5)
        g = _graph(10, weights)
        assert estimate_partition_count(g) == estimate_partition_count(g)


def _ls_cnot_interaction_graph(d, n_cnots):
    """Interaction graph of an ls-cnot circuit, as ``--partitions detect`` sees it."""
    return interaction_graph(circuit_from_json(gen_ls_cnot_circuit(d, n_cnots)).dag)


@st.composite
def _weighted_graphs(draw):
    """Random integer-weighted graphs up to about 40 nodes.

    Shapes: random edge sets (often disconnected), cycles and grids (many
    betweenness ties), and planted cliques joined by a few bridges; each
    may carry isolated extra nodes.
    """
    shape = draw(st.sampled_from(["random", "cycle", "grid", "cliques"]))
    if shape == "random":
        n = draw(st.integers(1, 36))
        pairs = list(itertools.combinations(range(n), 2))
        edges = draw(st.lists(st.sampled_from(pairs), max_size=70, unique=True)) if pairs else []
    elif shape == "cycle":
        n = draw(st.integers(3, 36))
        edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    elif shape == "grid":
        w, h = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        n = w * h
        edges = [(v, v + 1) for v in range(n) if (v + 1) % w]
        edges += [(v, v + w) for v in range(n - w)]
    else:
        sizes = draw(st.lists(st.integers(2, 6), min_size=1, max_size=6))
        n = sum(sizes)
        edges, start = [], 0
        for size in sizes:
            edges += list(itertools.combinations(range(start, start + size), 2))
            start += size
        pairs = [p for p in itertools.combinations(range(n), 2) if p not in set(edges)]
        if pairs:
            edges += draw(st.lists(st.sampled_from(pairs), max_size=6, unique=True))
    if draw(st.booleans()):
        weights = {e: 1 for e in edges}
    else:
        weights = {e: draw(st.integers(1, 5)) for e in edges}
    n += draw(st.integers(0, 3))  # isolated nodes
    return _graph(n, weights)


class TestDetectionMatchesOracle:
    """The built-in kernel against networkx's Girvan-Newman."""

    @settings(max_examples=60, deadline=None)
    @given(_weighted_graphs(), st.integers(1, 7))
    def test_random_graphs(self, g, scale):
        expected = girvan_newman_count(g)
        assert estimate_partition_count(g) == expected
        scaled = _graph(g.n_nodes, {e: w * scale for e, w in g.weights.items()})
        assert estimate_partition_count(scaled) == expected

    def test_detect_workload_d3(self):
        g = _ls_cnot_interaction_graph(3, 3)
        assert estimate_partition_count(g, 256) == girvan_newman_count(g) == (9, [25] * 9)

    @settings(max_examples=40, deadline=None)
    @given(_weighted_graphs())
    def test_edge_betweenness_bit_for_bit(self, g):
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n_nodes))
        nxg.add_edges_from(sorted(g.weights))
        expected = nx.edge_betweenness_centrality(nxg, normalized=False)
        adj = [[] for _ in range(g.n_nodes)]
        for eid, (a, b) in enumerate(sorted(g.weights)):
            adj[a].append((b, eid))
            adj[b].append((a, eid))
        bc = [0.0] * len(g.weights)
        _edge_betweenness(adj, list(range(g.n_nodes)), bc)
        assert bc == [expected[e] for e in sorted(g.weights)]


@st.composite
def _repeated_graphs(draw):
    """2-4 disjoint copies of one ``_weighted_graphs`` draw.

    Copies sit at shifted labels, so their components share shapes and
    detection serves them from its memo; the last copy may go under a
    non-monotone relabelling, whose components are new shapes.
    """
    g = draw(_weighted_graphs())
    copies = draw(st.integers(2, 4))
    n = g.n_nodes
    maps = [[c * n + v for v in range(n)] for c in range(copies)]
    if draw(st.booleans()):
        perm = draw(st.permutations(range(n)))
        maps[-1] = [(copies - 1) * n + p for p in perm]
    weights = {}
    for relabel in maps:
        for (a, b), w in g.weights.items():
            a, b = relabel[a], relabel[b]
            weights[(min(a, b), max(a, b))] = w
    return _graph(copies * n, weights)


class _CountingKernel:
    """Counts ``_edge_betweenness`` runs and checks every memo answer.

    Each ``_component_betweenness`` call is followed by a fresh kernel run
    on a copy of ``bc``; the component's slice must match it bit for bit.
    """

    def __init__(self, monkeypatch):
        self.runs = self.lookups = 0
        self._kernel = _edge_betweenness
        self._component = _component_betweenness
        monkeypatch.setattr(partition, "_edge_betweenness", self._counted)
        monkeypatch.setattr(partition, "_component_betweenness", self._checked)

    def _counted(self, adj, nodes, bc):
        self.runs += 1
        self._kernel(adj, nodes, bc)

    def _checked(self, adj, nodes, bc, memo):
        self.lookups += 1
        self._component(adj, nodes, bc, memo)
        fresh = list(bc)
        self._kernel(adj, nodes, fresh)
        edges = [e for v in nodes for _, e in adj[v]]
        assert [bc[e] for e in edges] == [fresh[e] for e in edges]


class TestBetweennessMemo:
    """Repeated component shapes are served from a per-call memo."""

    @settings(max_examples=25, deadline=None)
    @given(_repeated_graphs())
    def test_repeated_copies_match_oracle(self, g):
        assert estimate_partition_count(g, 256) == girvan_newman_count(g)

    @pytest.mark.parametrize(
        "d, n_cnots, expected",
        [(3, 3, (9, [25] * 9)), (5, 1, (12, [25] * 3 + [20] * 6 + [16] * 3))],
    )
    def test_served_values_equal_fresh_runs(self, monkeypatch, d, n_cnots, expected):
        counter = _CountingKernel(monkeypatch)
        g = _ls_cnot_interaction_graph(d, n_cnots)
        assert estimate_partition_count(g, 256) == expected
        assert 0 < counter.runs < counter.lookups

    def test_d3_kernel_runs_per_call(self, monkeypatch):
        # 603 component lookups, 575 of them repeats; a second call starts
        # from an empty memo and runs the kernel as often again
        counter = _CountingKernel(monkeypatch)
        g = _ls_cnot_interaction_graph(3, 3)
        for call in (1, 2):
            estimate_partition_count(g, 256)
            assert (counter.runs, counter.lookups) == (28 * call, 603 * call)

    def test_key_follows_adjacency_order(self, monkeypatch):
        # Same graph twice; the second copy lists neighbours in edge order
        # instead of ascending, which changes one betweenness in its last bit.
        edges = [(3, 7), (3, 6), (4, 6), (1, 2), (4, 7), (1, 5), (2, 5), (6, 7),
                 (5, 6), (2, 3), (4, 5), (1, 3), (3, 5), (0, 1), (0, 2)]
        adj = [[] for _ in range(16)]
        for e, (a, b) in enumerate(sorted(edges)):
            adj[a].append((b, e))
            adj[b].append((a, e))
        for e, (a, b) in enumerate(edges, start=len(edges)):
            adj[a + 8].append((b + 8, e))
            adj[b + 8].append((a + 8, e))
        counter = _CountingKernel(monkeypatch)
        bc, memo = [0.0] * (2 * len(edges)), {}
        partition._component_betweenness(adj, list(range(8)), bc, memo)
        partition._component_betweenness(adj, list(range(8, 16)), bc, memo)
        assert counter.runs == 2
        assert sorted(bc[:15]) != sorted(bc[15:])

    def test_key_follows_edge_pairing(self, monkeypatch):
        # Two double edges whose entries pair up the other way round at one
        # end: a different kernel input, since ``bc`` targets follow edge ids.
        adj = [[(1, 0), (1, 1)], [(0, 0), (0, 1)], [(3, 2), (3, 3)], [(2, 3), (2, 2)]]
        counter = _CountingKernel(monkeypatch)
        bc, memo = [0.0] * 4, {}
        partition._component_betweenness(adj, [0, 1], bc, memo)
        partition._component_betweenness(adj, [2, 3], bc, memo)
        assert counter.runs == 2
        partition._component_betweenness(adj, [0, 1], bc, memo)
        assert counter.runs == 2


@st.composite
def _growth_cases(draw):
    """A node subset with small integer weights (many equal attractions)."""
    nodes = sorted(draw(st.sets(st.integers(0, 60), min_size=1, max_size=30)))
    pairs = list(itertools.combinations(nodes, 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=60, unique=True)) if pairs else []
    ladj = {v: {} for v in nodes}
    for a, b in edges:
        ladj[a][b] = ladj[b][a] = draw(st.integers(1, 2))
    seed_node = draw(st.sampled_from(nodes))
    target = draw(st.integers(1, len(nodes)))
    return nodes, ladj, seed_node, target


class TestGrowMatchesScan:
    """Heap-ordered growth picks what the linear scan picks."""

    @settings(max_examples=150, deadline=None)
    @given(_growth_cases())
    def test_random_graphs(self, case):
        assert _grow(*case) == grow_by_scan(*case)

    @pytest.mark.parametrize("graph", ["d3", "d5", "communities"])
    def test_kway_blocks_unchanged(self, monkeypatch, graph):
        if graph == "communities":
            g, sizes = _communities_20x10(), [10] * 20
        elif graph == "d3":
            g, sizes = _ls_cnot_interaction_graph(3, 3), [25] * 9
        else:
            g, sizes = _ls_cnot_interaction_graph(5, 1), [25] * 3 + [20] * 6 + [16] * 3
        heap = kway_partition(g, len(sizes), sizes)
        monkeypatch.setattr(partition, "_grow", grow_by_scan)
        scan = kway_partition(g, len(sizes), sizes)
        assert [sorted(p.qubits) for p in heap] == [sorted(p.qubits) for p in scan]


def _connected(n, weights):
    adj = {v: set() for v in range(n)}
    for a, b in weights:
        adj[a].add(b)
        adj[b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == n


def _random_connected(rng):
    while True:
        n = rng.randint(4, 8)
        density = rng.uniform(0.3, 0.9)
        weights = {}
        for a, b in itertools.combinations(range(n), 2):
            if rng.random() < density:
                weights[(a, b)] = rng.randint(1, 9)
        if weights and _connected(n, weights):
            return n, weights


class TestKway:
    def test_path_graph_cuts_middle_edge(self):
        # P8 with unit weights: the only size-4/4 cut of weight 1
        weights = {(i, i + 1): 1 for i in range(7)}
        reg = kway_partition(_graph(8, weights), 2, [4, 4])
        blocks = sorted(sorted(p.qubits) for p in reg)
        assert blocks == [[0, 1, 2, 3], [4, 5, 6, 7]]

    def test_weighted_pull_beats_size_symmetry(self):
        # heavy triangle 0-1-2 and heavy pair 3-4 with a weak bridge
        weights = {(0, 1): 9, (0, 2): 9, (1, 2): 9, (3, 4): 9, (2, 3): 1}
        reg = kway_partition(_graph(5, weights), 2, [3, 2])
        blocks = sorted(sorted(p.qubits) for p in reg)
        assert blocks == [[0, 1, 2], [3, 4]]

    def test_blocks_respect_capacity_bound(self):
        rng = random.Random(11)
        for trial in range(20):
            n, weights = _random_connected(rng)
            caps = [(n + 1) // 2, n - (n + 1) // 2]
            reg = kway_partition(_graph(n, weights), 2, caps, 0.03, seed=trial)
            sizes = {p.pid: len(p.qubits) for p in reg}
            assert sum(sizes.values()) == n
            for pid, size in sizes.items():
                assert size <= int(caps[pid] * 1.03 + 1e-9)

    def test_two_way_cut_close_to_brute_force(self):
        rng = random.Random(5)
        exact = 0
        for trial in range(30):
            n, weights = _random_connected(rng)
            ca, cb = (n + 1) // 2, n - (n + 1) // 2
            reg = kway_partition(_graph(n, weights), 2, [ca, cb], 0.03, seed=trial)
            side = set(reg.by_id(sorted(p.pid for p in reg)[0]).qubits)
            got = cut_weight(side, weights)
            lo = n - int(cb * 1.03)
            hi = int(ca * 1.03)
            opt = brute_force_cut(n, weights, lo, hi)
            assert got <= 1.5 * opt or got <= opt + 1
            if got == opt:
                exact += 1
        assert exact >= 24  # most instances solved exactly

    def test_four_blocks_cover_disjointly(self):
        weights = {}
        for t in range(4):
            _clique(weights, range(4 * t, 4 * t + 4), w=5)
        weights[(3, 4)] = 1
        weights[(7, 8)] = 1
        weights[(11, 12)] = 1
        reg = kway_partition(_graph(16, weights), 4, [4, 4, 4, 4])
        blocks = sorted(sorted(p.qubits) for p in reg)
        assert blocks == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11], [12, 13, 14, 15]]

    def test_capacity_shortfall_rejected(self):
        with pytest.raises(ValidationError, match="capacities"):
            kway_partition(_graph(5, {(0, 1): 1}), 2, [2, 2])

    def test_zero_capacity_block_dropped(self):
        reg = kway_partition(_graph(4, {(0, 1): 1, (2, 3): 1}), 3, [2, 0, 2])
        assert len(reg) == 2
        assert set(reg.pid_of) == set(range(4))

    def test_deterministic_for_fixed_seed(self):
        rng = random.Random(17)
        n, weights = _random_connected(rng)
        g = _graph(n, weights)
        a = kway_partition(g, 2, [(n + 1) // 2, n - (n + 1) // 2], seed=3)
        b = kway_partition(g, 2, [(n + 1) // 2, n - (n + 1) // 2], seed=3)
        assert [sorted(p.qubits) for p in a] == [sorted(p.qubits) for p in b]


def _communities_20x10(seed=3):
    """20 communities of 10 qubits: intra edges with p=0.5, 30 random bridges."""
    rng = random.Random(seed)
    weights = {}
    for c in range(20):
        for a, b in itertools.combinations(range(10 * c, 10 * c + 10), 2):
            if rng.random() < 0.5:
                weights[(a, b)] = 1
    for _ in range(30):
        a, b = rng.sample(range(200), 2)
        weights.setdefault((min(a, b), max(a, b)), 1)
    return _graph(200, weights)


class TestCapacitySplit:
    """Each level of the bisection may hand a side only what its leaves may hold."""

    def _assert_within_caps(self, reg, n, sizes, imbalance):
        assert set(reg.pid_of) == set(range(n))
        for p in reg:
            assert len(p.qubits) <= _cap_limit(sizes[p.pid], imbalance)

    def test_detected_sizes_split_at_default_imbalance(self):
        g = _communities_20x10()
        k, sizes = estimate_partition_count(g)
        assert (k, sizes) == (20, [10] * 20)
        for imbalance in (0.0, 0.03, 0.1):
            reg = kway_partition(g, k, sizes, imbalance)
            self._assert_within_caps(reg, 200, sizes, imbalance)

    def test_detect_workload_d5_splits(self):
        g = _ls_cnot_interaction_graph(5, 1)
        k, sizes = estimate_partition_count(g, 256)
        assert (k, sizes) == (12, [25] * 3 + [20] * 6 + [16] * 3)
        self._assert_within_caps(kway_partition(g, k, sizes), g.n_nodes, sizes, 0.03)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(1, 6), min_size=1, max_size=32),
        st.one_of(st.just(0.0), st.just(0.03), st.floats(0.0, 2.0)),
        st.randoms(use_true_random=False),
    )
    def test_any_positive_sizes_split(self, sizes, imbalance, rng):
        n = sum(sizes)
        weights = {}
        for _ in range(2 * n):
            a, b = rng.sample(range(n), 2) if n > 1 else (0, 0)
            if a != b:
                weights[(min(a, b), max(a, b))] = rng.randint(1, 4)
        reg = kway_partition(_graph(n, weights), len(sizes), sizes, imbalance)
        self._assert_within_caps(reg, n, sizes, imbalance)


class TestPredefined:
    def test_adopts_labels_and_infers_squarest_box(self):
        dag = CircuitDag([cx(0, 1), cx(2, 3)], 5)
        reg = predefined_partitions(dag, {0: 0, 1: 0, 2: 1, 3: 1, 4: 1})
        p0, p1 = reg.by_id(0), reg.by_id(1)
        assert p0.qubits == frozenset({0, 1})
        assert (p0.width, p0.height) == (2, 1)
        assert (p1.width, p1.height) == (2, 2)

    @pytest.mark.parametrize("n,box", [(1, (1, 1)), (7, (3, 3)), (24, (5, 5)), (25, (5, 5))])
    def test_inferred_box_is_squarest_fit(self, n, box):
        dag = CircuitDag([], n)
        reg = predefined_partitions(dag, {q: 0 for q in range(n)})
        p = reg.by_id(0)
        assert (p.width, p.height) == box

    def test_uncovered_qubit_rejected(self):
        dag = CircuitDag([], 3)
        with pytest.raises(ValidationError, match=r"qubits \[2\] missing from the partition map"):
            predefined_partitions(dag, {0: 0, 1: 0})

    def test_label_beyond_the_circuit_rejected(self):
        dag = CircuitDag([], 2)
        with pytest.raises(ValidationError, match="labels qubits beyond the circuit's 2"):
            predefined_partitions(dag, {0: 0, 1: 0, 2: 1})

    def test_labels_pass_through_with_declared_or_inferred_boxes(self):
        dag = CircuitDag([], 5)
        labels = {4: 3, 0: 1, 2: 3, 1: 1, 3: 3}
        geometry = {1: PartitionGeometry(1, 2, {0: (1, 0), 1: (0, 0)})}
        reg = predefined_partitions(dag, labels, geometry)
        assert [p.pid for p in reg] == [1, 3]
        assert reg.pid_of == labels
        p1, p3 = reg
        assert (p1.width, p1.height, dict(p1.cells)) == (1, 2, {0: (1, 0), 1: (0, 0)})
        assert (p3.width, p3.height, dict(p3.cells)) == (2, 2, {2: (0, 0), 3: (0, 1), 4: (1, 0)})
