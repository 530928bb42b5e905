"""Routing: path construction, SWAP bifurcation, and link selection."""

import logging
import random
import re

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipmap import route
from chipmap.backend import CouplingGraph, InterChipLink, build_backend
from chipmap.errors import MappingError, NoRouteError, StrictPatchViolationError, ValidationError
from chipmap.gmap import Placement
from chipmap.ir import GateKind, PartitionGeometry, build_dag, cx, measure
from chipmap.lmap import local_map
from chipmap.partition import predefined_partitions
from chipmap.route import (
    RoutingConfig,
    _bfs_dist,
    _chip_route,
    _LevelDist,
    _link_cost,
    _ManhattanDist,
    _select_crossing,
    route_circuit,
)
from oracles import FloodDist, TokenTracker, bfs_dist, coupling_edges, walk_back


def _route(gates, n, labels, placements, be, cfg=None, geometry=None):
    dag = build_dag(gates, n)
    reg = local_map(be, predefined_partitions(dag, labels, geometry), placements)
    return route_circuit(dag, reg, be, cfg)


def _replay(compiled, be):
    """Token replay against a fresh coupling relation; asserts adjacency."""
    init = {v: be.gid(*pc) for v, pc in compiled.mapping.items()}
    tracker = TokenTracker(init, coupling_edges(be))
    for g in compiled.dag.nodes:
        tracker.apply(g.kind.value, g.qubits)
    return tracker, init


def _chip(w=5, h=5):
    return build_backend({"grid": [1, 1], "chiplet": [w, h], "allow_non_pow2": True})


def _pair_chips(links=None, auto=None, w=3, h=3):
    doc = {"grid": [1, 2], "chiplet": [w, h], "allow_non_pow2": True}
    if links is not None:
        doc["links"] = links
    if auto is not None:
        doc["auto_links"] = auto
    return build_backend(doc)


def _singletons(cells):
    """labels and 1x1 placements for one virtual qubit per (chip, x, y)."""
    labels = {v: v for v in range(len(cells))}
    placements = {
        v: Placement(v, chip, x, y, 1, 1) for v, (chip, x, y) in enumerate(cells)
    }
    return labels, placements


class TestConfig:
    def test_defaults_are_basic(self):
        cfg = RoutingConfig()
        assert (cfg.policy, cfg.alpha, cfg.beta, cfg.k_nearest) == ("basic", 0.0, 0.0, 3)
        assert cfg.restore_mapping and not cfg.strict_patches

    def test_from_policy_fills_weights(self):
        assert RoutingConfig.from_policy("focus").alpha == 1e4
        cfg = RoutingConfig.from_policy("tradeoff")
        assert (cfg.alpha, cfg.beta) == (1e3, 1.0)

    def test_from_policy_allows_overrides(self):
        cfg = RoutingConfig.from_policy("tradeoff", alpha=50.0, beta=2.0)
        assert (cfg.alpha, cfg.beta) == (50.0, 2.0)

    @pytest.mark.parametrize(
        "policy,alpha,beta",
        [
            ("basic", 1.0, 0.0),
            ("basic", 0.0, 1.0),
            ("focus", 0.0, 0.0),
            ("focus", 1e4, 1.0),
            ("tradeoff", 0.0, 1.0),
            ("tradeoff", 1e3, 0.0),
        ],
    )
    def test_inconsistent_weights_rejected(self, policy, alpha, beta):
        with pytest.raises(ValidationError, match="inconsistent"):
            RoutingConfig(alpha=alpha, beta=beta, policy=policy)

    def test_bad_values_rejected(self):
        with pytest.raises(ValidationError, match="policy"):
            RoutingConfig(policy="greedy")
        with pytest.raises(ValidationError, match="nonnegative"):
            RoutingConfig(alpha=-1.0)
        with pytest.raises(ValidationError, match="k_nearest"):
            RoutingConfig(k_nearest=0)

    @pytest.mark.parametrize(
        "kw, message",
        [
            ({"alpha": "1e-3"}, "RoutingConfig.alpha must be a finite number, got '1e-3'"),
            ({"beta": float("nan")}, "RoutingConfig.beta must be a finite number, got nan"),
            ({"k_nearest": True}, "RoutingConfig.k_nearest must be an integer, got True"),
            ({"policy": ["basic"]}, "RoutingConfig.policy must be a string, got ['basic']"),
            ({"strict_patches": "yes"}, "RoutingConfig.strict_patches must be a boolean"),
        ],
    )
    def test_wrong_types_rejected_by_name(self, kw, message):
        with pytest.raises(ValidationError) as info:
            RoutingConfig(**kw)
        assert str(info.value).startswith(message)


class TestPathCost:
    def test_combines_three_terms(self):
        link = InterChipLink(0, 9, 0.01)
        cfg = RoutingConfig.from_policy("tradeoff")  # alpha 1e3, beta 1
        assert _link_cost(2, link, 2, cfg) == 2 + 10.0 + 2.0
        assert _link_cost(0, link, 2, RoutingConfig()) == 0.0


class TestChipRoute:
    def test_columns_before_rows(self):
        be = build_backend({"grid": [2, 2], "chiplet": [2, 2]})
        assert _chip_route(be, 0, 3) == [0, 1, 3]
        assert _chip_route(be, 3, 0) == [3, 2, 0]
        assert _chip_route(be, 2, 2) == [2]


class TestIntraChip:
    def test_exact_swap_sequence_on_one_chip(self):
        be = _chip()
        labels, placements = _singletons([(0, 0, 0), (0, 2, 2)])
        compiled = _route([cx(0, 1)], 2, labels, placements, be)
        got = [(g.kind, g.qubits) for g in compiled.dag.nodes]
        assert got == [
            (GateKind.SWAP, (0, 1)),
            (GateKind.SWAP, (1, 2)),
            (GateKind.SWAP, (12, 7)),
            (GateKind.CNOT, (2, 7)),
            (GateKind.SWAP, (7, 12)),
            (GateKind.SWAP, (2, 1)),
            (GateKind.SWAP, (1, 0)),
        ]
        assert compiled.swap_count == 6
        assert compiled.patch_violations == 0
        assert compiled.link_usage == {} and compiled.link_traversals == {}

    def test_adjacent_gate_passes_through(self):
        be = _chip()
        labels, placements = _singletons([(0, 1, 1), (0, 1, 2)])
        compiled = _route([cx(0, 1)], 2, labels, placements, be)
        assert compiled.swap_count == 0
        assert [(g.kind, g.qubits) for g in compiled.dag.nodes] == [
            (GateKind.CNOT, (6, 11))
        ]

    def test_swap_count_matches_distance_oracle(self):
        rng = random.Random(31)
        for _ in range(25):
            defects = set()
            while len(defects) < 4:
                defects.add((rng.randrange(6), rng.randrange(6)))
            free = [(x, y) for x in range(6) for y in range(6) if (x, y) not in defects]
            (ax, ay), (bx, by) = rng.sample(free, 2)
            be = build_backend(
                {
                    "grid": [1, 1],
                    "chiplet": [6, 6],
                    "defects": [{"chip": 0, "x": x, "y": y} for x, y in defects],
                    "allow_non_pow2": True,
                }
            )
            g = nx.Graph(list(coupling_edges(be)))
            labels, placements = _singletons([(0, ax, ay), (0, bx, by)])
            src, dst = be.gid(0, ax, ay), be.gid(0, bx, by)
            try:
                d = nx.shortest_path_length(g, src, dst)
            except nx.NetworkXNoPath:
                with pytest.raises(NoRouteError):
                    _route([cx(0, 1)], 2, labels, placements, be)
                continue
            compiled = _route([cx(0, 1)], 2, labels, placements, be)
            assert compiled.swap_count == 2 * (d - 1)
            tracker, init = _replay(compiled, be)
            assert tracker.pos == init

    def test_restore_off_leaves_tokens_and_reuses_adjacency(self):
        be = _chip()
        labels, placements = _singletons([(0, 0, 0), (0, 2, 2)])
        cfg = RoutingConfig(restore_mapping=False)
        compiled = _route([cx(0, 1), cx(0, 1)], 2, labels, placements, be, cfg)
        # first gate pays 3 swaps; the second finds the tokens adjacent
        assert compiled.swap_count == 3
        assert not compiled.restore_mapping
        kinds = [g.kind for g in compiled.dag.nodes]
        assert kinds.count(GateKind.CNOT) == 2 and kinds.count(GateKind.SWAP) == 3
        tracker, init = _replay(compiled, be)
        assert tracker.pos != init

    def test_single_qubit_gates_follow_the_token(self):
        be = _chip()
        labels, placements = _singletons([(0, 0, 0), (0, 2, 2)])
        cfg = RoutingConfig(restore_mapping=False)
        compiled = _route([cx(0, 1), measure(0)], 2, labels, placements, be, cfg)
        last = compiled.dag.nodes[-1]
        assert last.kind is GateKind.MEASURE
        assert last.qubits == (2,)  # token moved off cell 0


class TestPatches:
    def _diag(self):
        geo = {0: PartitionGeometry(2, 2, {0: (0, 0), 1: (1, 1)})}
        labels = {0: 0, 1: 0}
        placements = {0: Placement(0, 0, 0, 0, 2, 2)}
        return labels, placements, geo

    def test_lax_mode_warns_and_counts(self, caplog):
        labels, placements, geo = self._diag()
        with caplog.at_level(logging.WARNING, logger="chipmap.route"):
            compiled = _route([cx(0, 1)], 2, labels, placements, _chip(), None, geo)
        assert compiled.patch_violations == 1
        assert compiled.swap_count == 2
        assert "inside a patch" in caplog.text

    def test_in_patch_swaps_summarised_once_per_partition(self, caplog):
        be = _chip(6, 6)
        labels = {q: q // 4 for q in range(8)}  # two full 2x2 patches
        placements = {0: Placement(0, 0, 0, 0, 2, 2), 1: Placement(1, 0, 3, 3, 2, 2)}
        gates = [cx(0, 3), cx(0, 3), cx(4, 7)]  # diagonals inside each patch
        with caplog.at_level(logging.WARNING, logger="chipmap.route"):
            compiled = _route(gates, 8, labels, placements, be)

        pid_of_cell = {be.gid(*pc): labels[v] for v, pc in compiled.mapping.items()}
        expected: dict[int, int] = {}
        for g in compiled.dag.nodes:
            if g.kind is GateKind.SWAP:
                pa, pb = (pid_of_cell.get(q) for q in g.qubits)
                if pa is not None and pa == pb:
                    expected[pa] = expected.get(pa, 0) + 1
        logged: dict[int, int] = {}
        for record in caplog.records:
            m = re.fullmatch(r"(\d+) SWAPs inside partition (\d+)", record.getMessage())
            if m:
                assert int(m[2]) not in logged, "partition summarised twice"
                logged[int(m[2])] = int(m[1])
        assert logged == expected == {0: 4, 1: 2}
        assert compiled.patch_violations == len(gates) + sum(logged.values())

    def test_strict_mode_raises(self):
        labels, placements, geo = self._diag()
        cfg = RoutingConfig(strict_patches=True)
        with pytest.raises(StrictPatchViolationError):
            _route([cx(0, 1)], 2, labels, placements, _chip(), cfg, geo)


class TestLinks:
    def test_gate_over_link_counts_traversal_not_usage(self):
        be = _pair_chips(
            links=[{"a": {"chip": 0, "x": 2, "y": 0}, "b": {"chip": 1, "x": 0, "y": 0}, "eps": 0.01}]
        )
        labels, placements = _singletons([(0, 2, 0), (1, 0, 0)])
        compiled = _route([cx(0, 1)], 2, labels, placements, be)
        assert compiled.swap_count == 0
        assert compiled.link_usage == {}
        assert compiled.link_traversals == {(2, 9): 1}

    def test_equidistant_equal_noise_links_round_robin(self):
        be = _pair_chips(auto={"per_edge": 3, "eps": 0.01})
        assert sorted(l.key for l in be.links) == [(2, 9), (5, 12), (8, 15)]
        labels, placements = _singletons([(0, 2, 0), (1, 0, 2)])
        cfg = RoutingConfig.from_policy("tradeoff")
        compiled = _route([cx(0, 1)] * 6, 2, labels, placements, be, cfg)
        # all three crossings cost the same, so usage feedback cycles them
        assert compiled.link_usage == {(2, 9): 2, (5, 12): 2, (8, 15): 2}
        assert compiled.swap_count == 6 * 4
        tracker, init = _replay(compiled, be)
        assert tracker.pos == init

    def test_focus_takes_the_quiet_link(self):
        be = _pair_chips(
            links=[
                {"a": {"chip": 0, "x": 2, "y": 0}, "b": {"chip": 1, "x": 0, "y": 0}, "eps": 0.1},
                {"a": {"chip": 0, "x": 2, "y": 2}, "b": {"chip": 1, "x": 0, "y": 2}, "eps": 0.001},
            ]
        )
        labels, placements = _singletons([(0, 2, 0), (1, 1, 0)])
        cfg = RoutingConfig.from_policy("focus")
        compiled = _route([cx(0, 1)] * 10, 2, labels, placements, be, cfg)
        assert compiled.link_usage == {(8, 15): 10}

    def test_k_nearest_one_pins_the_crossing_link(self):
        be = _pair_chips(
            links=[
                {"a": {"chip": 0, "x": 2, "y": 0}, "b": {"chip": 1, "x": 0, "y": 0}, "eps": 0.1},
                {"a": {"chip": 0, "x": 2, "y": 2}, "b": {"chip": 1, "x": 0, "y": 2}, "eps": 0.001},
            ]
        )
        labels, placements = _singletons([(0, 2, 0), (1, 1, 0)])
        cfg = RoutingConfig.from_policy("focus", k_nearest=1)
        compiled = _route([cx(0, 1)] * 10, 2, labels, placements, be, cfg)
        # the low-noise link sits outside the candidate window
        assert compiled.link_usage == {(2, 9): 10}

    def test_two_crossings_through_intermediate_chiplet(self):
        be = build_backend(
            {"grid": [2, 2], "chiplet": [3, 3], "auto_links": {"per_edge": 1, "eps": 0.01}}
        )
        labels, placements = _singletons([(0, 0, 0), (3, 2, 2)])
        compiled = _route([cx(0, 1)], 2, labels, placements, be)
        assert len(compiled.link_usage) == 2
        assert sum(compiled.link_usage.values()) == 2
        chips = {be.chip_of(g) for key in compiled.link_usage for g in key}
        assert chips == {0, 1, 3}  # columns first, then rows
        tracker, init = _replay(compiled, be)
        assert tracker.pos == init

    def test_usage_counters_reset_between_runs(self):
        be = _pair_chips(auto={"per_edge": 3, "eps": 0.01})
        labels, placements = _singletons([(0, 2, 0), (1, 0, 2)])
        cfg = RoutingConfig.from_policy("tradeoff")
        first = _route([cx(0, 1)] * 5, 2, labels, placements, be, cfg)
        second = _route([cx(0, 1)] * 5, 2, labels, placements, be, cfg)
        assert first.link_usage == second.link_usage

    def test_no_link_between_chiplets(self):
        be = _pair_chips(links=[])
        labels, placements = _singletons([(0, 0, 0), (1, 2, 2)])
        with pytest.raises(NoRouteError, match="link"):
            _route([cx(0, 1)], 2, labels, placements, be)


class TestSelectLink:
    def test_picks_min_cost_and_bumps_usage(self):
        be = _pair_chips(auto={"per_edge": 3, "eps": 0.01})
        graph = CouplingGraph(be)
        usage = {}
        link, path = _select_crossing(graph, be, RoutingConfig(), usage, 2, 1, 15)
        assert link.key == (2, 9)
        assert path == [2, 9, 12, 15]
        assert usage == {(2, 9): 1}


class TestInvariants:
    def test_stage_guard(self):
        be = _chip()
        dag = build_dag([], 2)
        reg = predefined_partitions(dag, {0: 0, 1: 1})
        with pytest.raises(MappingError, match="no physical coordinates"):
            route_circuit(dag, reg, be)

    def test_random_circuits_replay_cleanly(self):
        rng = random.Random(47)
        for trial in range(20):
            if trial % 2:
                be = build_backend(
                    {"grid": [2, 2], "chiplet": [3, 3], "auto_links": {"per_edge": 2, "eps": 0.01}}
                )
            else:
                be = _chip(4, 4)
            n = rng.randint(2, 5)
            cells = rng.sample(
                [
                    (c, x, y)
                    for c in range(be.n_chiplets)
                    for x in range(be.chip_w)
                    for y in range(be.chip_h)
                ],
                n,
            )
            labels, placements = _singletons(cells)
            gates = [
                cx(*rng.sample(range(n), 2)) for _ in range(rng.randint(1, 12))
            ]
            compiled = _route(gates, n, labels, placements, be)
            tracker, init = _replay(compiled, be)
            assert tracker.pos == init
            assert compiled.swap_count % 2 == 0


def _assert_same_distances(view, oracle, n):
    """``view.get`` answers like the oracle dict at every gid."""
    for gid in range(n):
        assert view.get(gid) == oracle.get(gid)


class TestDistanceKernel:
    """Manhattan view on defect-free chiplets, bitboard BFS levels where a cell is dead."""

    @settings(max_examples=60, deadline=None)
    @given(
        w=st.integers(1, 6),
        h=st.integers(1, 6),
        per_edge=st.integers(1, 3),
        chip=st.integers(0, 1),
        data=st.data(),
    )
    def test_manhattan_view_matches_bfs_at_every_cell(self, w, h, per_edge, chip, data):
        be = _pair_chips(auto={"per_edge": per_edge, "eps": 0.01}, w=w, h=h)
        graph = CouplingGraph(be)
        start = be.gid(chip, data.draw(st.integers(0, w - 1)), data.draw(st.integers(0, h - 1)))
        view = _bfs_dist(graph, be, start, chip)
        assert isinstance(view, _ManhattanDist)
        oracle = bfs_dist(be, start, chip)
        _assert_same_distances(view, oracle, be.n_qubits)
        for dst in oracle:
            assert view.walk_back(dst) == walk_back(be, oracle, start, dst, chip)

    @settings(max_examples=150, deadline=None)
    @given(
        w=st.integers(1, 8),
        h=st.integers(1, 8),
        per_edge=st.integers(1, 3),
        chip=st.integers(0, 1),
        data=st.data(),
    )
    def test_level_view_matches_bfs_at_every_cell(self, w, h, per_edge, chip, data):
        cells = [(c, x, y) for c in range(2) for x in range(w) for y in range(h)]
        start = data.draw(st.sampled_from([c for c in cells if c[0] == chip]))
        dead = data.draw(st.sets(st.sampled_from([c for c in cells if c != start])))
        be = build_backend({
            "grid": [1, 2], "chiplet": [w, h], "allow_non_pow2": True,
            "auto_links": {"per_edge": per_edge, "eps": 0.01},
            "defects": [{"chip": c, "x": x, "y": y} for c, x, y in sorted(dead)],
        })
        graph = CouplingGraph(be)
        start_gid = be.gid(*start)
        view = _bfs_dist(graph, be, start_gid, chip)
        assert isinstance(view, _LevelDist) == any(c[0] == chip for c in dead)
        oracle = bfs_dist(be, start_gid, chip)
        _assert_same_distances(view, oracle, be.n_qubits)
        for dst in oracle:
            want = walk_back(be, oracle, start_gid, dst, chip)
            assert view.walk_back(dst) == want

    @pytest.mark.parametrize(
        "w, h, dead, start, cut_off",
        [
            (5, 3, [(2, 0), (2, 1), (2, 2)], (0, 1), [(3, 0), (4, 2)]),  # a dead column
            (1, 6, [(0, 3)], (0, 5), [(0, 0), (0, 2)]),  # a width-1 chip cut in two
            (4, 4, [(1, 0), (0, 1)], (3, 3), [(0, 0)]),  # a walled-in corner
        ],
        ids=["dead-column", "width-1", "walled-corner"],
    )
    def test_cells_cut_off_by_dead_cells_are_absent(self, w, h, dead, start, cut_off):
        be = build_backend({
            "grid": [1, 1], "chiplet": [w, h], "allow_non_pow2": True,
            "defects": [{"chip": 0, "x": x, "y": y} for x, y in dead],
        })
        graph = CouplingGraph(be)
        view = _bfs_dist(graph, be, be.gid(0, *start), 0)
        assert isinstance(view, _LevelDist)
        oracle = bfs_dist(be, be.gid(0, *start), 0)
        _assert_same_distances(view, oracle, be.n_qubits)
        for x, y in cut_off:
            assert view.get(be.gid(0, x, y)) is None

    def test_chiplet_with_a_dead_cell_is_flooded(self):
        be = build_backend(
            {
                "grid": [1, 2], "chiplet": [4, 4], "allow_non_pow2": True,
                "auto_links": {"per_edge": 1, "eps": 0.01},
                "defects": [{"chip": 0, "x": 1, "y": 1}],
            }
        )
        graph = CouplingGraph(be)
        dist = _bfs_dist(graph, be, be.gid(0, 0, 1), 0)
        assert isinstance(dist, _LevelDist)
        _assert_same_distances(dist, bfs_dist(be, be.gid(0, 0, 1), 0), be.n_qubits)
        assert dist.get(be.gid(0, 2, 1)) == 4  # around the dead cell, not through it
        assert isinstance(_bfs_dist(graph, be, be.gid(1, 0, 0), 1), _ManhattanDist)

    @pytest.mark.parametrize("seed", range(6))
    def test_routing_matches_forced_bfs(self, seed, monkeypatch):
        rng = random.Random(seed)
        w, h = 5, 4
        # one to three dead cells inside each chiplet keep its border ring,
        # and so every chiplet and link, connected
        inner = [(x, y) for x in range(1, w - 1) for y in range(1, h - 1)]
        dead = [(c, x, y) for c in range(4) for x, y in rng.sample(inner, rng.randint(1, 3))]
        be = build_backend(
            {
                "grid": [2, 2], "chiplet": [w, h], "auto_links": {"per_edge": 2, "eps": 0.01},
                "defects": [{"chip": c, "x": x, "y": y} for c, x, y in dead],
            }
        )
        n = rng.randint(2, 8)
        live = [(c, x, y) for c in range(4) for x in range(w) for y in range(h)
                if (c, x, y) not in dead]
        labels, placements = _singletons(rng.sample(live, n))
        gates = [cx(*rng.sample(range(n), 2)) for _ in range(rng.randint(1, 20))]
        cfg = RoutingConfig.from_policy("tradeoff", restore_mapping=bool(seed % 2))
        fast = _route(gates, n, labels, placements, be, cfg)
        monkeypatch.setattr(
            route, "_bfs_dist",
            lambda graph, backend, start, chip: FloodDist(backend, start, chip),
        )
        slow = _route(gates, n, labels, placements, be, cfg)
        assert fast.dag.nodes == slow.dag.nodes
        assert fast.link_usage == slow.link_usage
