"""Bitboard packing and the global chiplet mapper."""

import logging
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipmap.backend import build_backend
from chipmap.benchgen import gen_backend_for, gen_ls_cnot_circuit, gen_memory_circuit
from chipmap.errors import NoFitError, ValidationError
from chipmap.gmap import (
    BinState,
    Placement,
    global_map,
    place_partition,
    place_partition_relative,
)
from chipmap.ir import (
    CircuitDag,
    LayoutHint,
    Partition,
    PartitionRegistry,
    circuit_from_json,
    cx,
)
from chipmap.partition import predefined_partitions
from chipmap.sequence import (
    SequencedOrder,
    build_partition_graph,
    sequence,
    sequence_registry,
)
from oracles import (
    PackingOracle,
    blocked_cells,
    check_chip_partition,
    first_fit_packs,
    grid_cells,
)
from test_backend import draw_backend_doc


def _backend(rows=1, cols=1, w=5, h=5, defects=()):
    return build_backend(
        {
            "grid": [rows, cols],
            "chiplet": [w, h],
            "defects": [{"chip": c, "x": x, "y": y} for c, x, y in defects],
            "allow_non_pow2": True,
        }
    )


def _raster(bins, chip):
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


class TestBins:
    def test_defects_become_blocked_cells(self):
        be = _backend(w=3, h=3, defects=[(0, 1, 1)])
        bins = BinState(be)
        assert len(bins.free[0]) == 8
        _raster(bins, 0)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_free_cells_are_the_live_cells(self, data):
        be = build_backend(draw_backend_doc(data))
        free = BinState(be).free
        for chip in range(be.n_chiplets):
            live = grid_cells(be.chip_w, be.chip_h) - blocked_cells(be, chip)
            assert free[chip] == sorted(live, key=lambda c: (c[1], c[0]))

    def test_free_cells_listed_row_major(self):
        bins = BinState(_backend(w=2, h=3, defects=[(0, 0, 2), (0, 1, 0)]))
        assert bins.free[0] == [(0, 0), (0, 1), (1, 1), (1, 2)]

    def test_commit_updates_free_space(self):
        bins = BinState(_backend(defects=[(0, 4, 4)]))
        bins.commit(0, 0, 0, 0, 2, 3)
        assert len(bins.free[0]) == 25 - 1 - 6
        _raster(bins, 0)
        for rect in ((1, 2, 2, 2), (3, 3, 2, 2), (4, 0, 2, 1), (0, 3, 1, 3), (-1, 3, 1, 1)):
            with pytest.raises(ValidationError, match="not all free"):
                bins.commit(1, 0, *rect)
        with pytest.raises(ValidationError, match="not all free"):
            bins.commit(1, -1, 2, 2, 1, 1)
        assert len(bins.free[0]) == 25 - 1 - 6


class TestFirstFit:
    def test_center_mode_centers_the_box(self):
        bins = BinState(_backend(w=7, h=7))
        pl = place_partition(bins, 0, 3, 3, "center")
        assert (pl.chip, pl.x, pl.y) == (0, 2, 2)

    def test_size_aware_takes_minimal_anchor(self):
        bins = BinState(_backend())
        pl = place_partition(bins, 0, 2, 2, "size-aware")
        assert (pl.chip, pl.x, pl.y) == (0, 0, 0)

    def test_size_aware_sees_boxes_across_free_cells(self):
        # all four cells of the 2x2 box at (0, 0) are free, between the two defects
        bins = BinState(_backend(w=3, h=3, defects=[(0, 2, 0), (0, 0, 2)]))
        pl = place_partition(bins, 0, 2, 2, "size-aware")
        assert (pl.chip, pl.x, pl.y) == (0, 0, 0)

    def test_center_falls_back_to_anchor_nearest_centre(self):
        # no chiplet's centre is free, so the first chiplet takes the free
        # anchor nearest its centre, ties to the smaller (y, x)
        be = _backend(rows=1, cols=2, w=5, h=5, defects=[(0, 2, 2), (1, 2, 2)])
        bins = BinState(be)
        pl = place_partition(bins, 0, 1, 1, "center")
        assert (pl.chip, pl.x, pl.y) == (0, 2, 1)
        pl = place_partition(bins, 1, 5, 2, "center")  # rows 0-1 hold partition 0
        assert (pl.chip, pl.x, pl.y) == (0, 0, 3)

    def test_center_skips_chip_with_blocked_center(self):
        be = _backend(rows=1, cols=2, w=3, h=3, defects=[(0, 1, 1)])
        bins = BinState(be)
        pl = place_partition(bins, 0, 1, 1, "center")
        assert (pl.chip, pl.x, pl.y) == (1, 1, 1)

    def test_overflow_moves_to_next_chiplet(self):
        bins = BinState(_backend(rows=1, cols=2, w=4, h=4))
        place_partition(bins, 0, 4, 4, "size-aware")
        pl = place_partition(bins, 1, 2, 2, "size-aware")
        assert pl.chip == 1

    def test_oversized_box_rejected(self):
        bins = BinState(_backend(w=4, h=4))
        with pytest.raises(NoFitError):
            place_partition(bins, 0, 5, 2, "size-aware")

    def test_full_backend_rejected(self):
        bins = BinState(_backend(w=2, h=2))
        place_partition(bins, 0, 2, 2, "size-aware")
        with pytest.raises(NoFitError):
            place_partition(bins, 1, 1, 1, "size-aware")

    def test_unknown_mode_rejected(self):
        bins = BinState(_backend())
        with pytest.raises(ValidationError, match="placement mode"):
            place_partition(bins, 0, 1, 1, "corner")


class TestRelative:
    def test_snuggles_beside_reference(self):
        bins = BinState(_backend())
        ref = place_partition(bins, 0, 2, 2, "size-aware")
        pl = place_partition_relative(bins, 1, 2, 2, ref)
        assert (pl.chip, pl.x, pl.y) == (0, 2, 0)

    def test_below_hint_constrains_anchor(self):
        bins = BinState(_backend())
        ref = place_partition(bins, 0, 2, 2, "size-aware")
        pl = place_partition_relative(bins, 1, 2, 2, ref, "below")
        assert (pl.chip, pl.x, pl.y) == (0, 0, 2)

    def test_matches_exhaustive_anchor_search(self):
        rng = random.Random(21)
        for trial in range(60):
            rows, cols = rng.choice([(1, 1), (1, 2), (2, 2)])
            bins = BinState(_backend(rows=rows, cols=cols, w=6, h=6))
            oracle = PackingOracle(bins.backend)
            ref = place_partition(
                bins, 0, rng.randint(1, 4), rng.randint(1, 4), "size-aware"
            )
            oracle.place(ref.chip, ref.x, ref.y, ref.w, ref.h)
            for pid in range(1, rng.randint(2, 5)):
                w, h = rng.randint(1, 4), rng.randint(1, 4)
                direction = rng.choice([None, None, "below", "right"])
                want = oracle.relative(w, h, ref, direction)
                try:
                    pl = place_partition_relative(bins, pid, w, h, ref, direction)
                except NoFitError:
                    assert want is None
                    break
                assert (pl.chip, pl.x, pl.y) == want, f"trial {trial} pid {pid}"
                oracle.place(pl.chip, pl.x, pl.y, w, h)
            for chip in range(bins.backend.n_chiplets):
                _raster(bins, chip)

    def test_infeasible_hint_dropped_with_warning(self, caplog):
        bins = BinState(_backend())
        ref = place_partition(bins, 0, 5, 3, "size-aware")
        # nothing can start right of a full-width box; the free strip below can
        with caplog.at_level(logging.WARNING, logger="chipmap.gmap"):
            pl = place_partition_relative(bins, 1, 5, 2, ref, "right")
        assert "ignoring hint" in caplog.text
        assert (pl.chip, pl.x, pl.y) == (0, 0, 3)

    def test_spills_to_nearest_chiplet(self):
        bins = BinState(_backend(rows=2, cols=2, w=3, h=3))
        ref = place_partition(bins, 0, 3, 3, "size-aware")
        pl = place_partition_relative(bins, 1, 3, 3, ref)
        assert pl.chip == 1  # same row beats same column on ties


def _mapped(gates, n, labels, be, **kw):
    dag = CircuitDag(gates, n)
    reg = predefined_partitions(dag, labels)
    pg = build_partition_graph(reg, dag)
    reg, order = sequence_registry(reg, pg)
    return global_map(be, order, reg, mode="size-aware", relative_ref="weight", pg=pg, **kw)


class TestGlobalMap:
    def test_order_must_cover_all_partitions(self):
        dag = CircuitDag([], 3)
        reg = predefined_partitions(dag, {0: 0, 1: 1, 2: 2})
        order = SequencedOrder(((1,),))
        with pytest.raises(ValidationError, match=r"partitions \[0, 2\] unplaced"):
            global_map(_backend(), order, reg, mode="size-aware", relative_ref="order")

    def test_weight_ref_needs_partition_graph(self):
        dag = CircuitDag([], 2)
        reg = predefined_partitions(dag, {0: 0, 1: 0})
        pg = build_partition_graph(reg, dag)
        reg, order = sequence_registry(reg, pg)
        with pytest.raises(ValidationError, match="partition graph"):
            global_map(_backend(), order, reg, mode="size-aware", relative_ref="weight", pg=None)
        with pytest.raises(ValidationError, match="relative_ref"):
            global_map(_backend(), order, reg, mode="size-aware", relative_ref="nearest", pg=pg)

    def test_places_all_partitions_and_tiles_chips(self):
        be = _backend(rows=2, cols=2, w=4, h=4)
        labels = {q: q // 4 for q in range(16)}
        gates = [cx(0, 4), cx(4, 8), cx(8, 12), cx(0, 4)]
        reg, placements, bins = _mapped(gates, 16, labels, be)
        assert set(placements) == {0, 1, 2, 3}
        for chip in range(be.n_chiplets):
            _raster(bins, chip)

    def test_heaviest_partner_is_the_reference(self):
        # p2 talks to p0 far more than to p1, so it lands beside p0
        be = _backend(w=9, h=3)
        labels = {0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 5: 2}
        gates = [cx(1, 2)] * 5 + [cx(0, 4)] * 4 + [cx(2, 4)]
        reg, placements, _ = _mapped(gates, 6, labels, be)
        p0, p2 = placements[0], placements[2]
        assert abs(p2.x - p0.x) <= 2  # adjacent, not past p1

    def test_hint_overrides_reference_choice(self):
        be = _backend(w=4, h=4)
        labels = {0: 0, 1: 0, 2: 1, 3: 1}
        dag = CircuitDag([cx(0, 2)], 4)
        reg = predefined_partitions(dag, labels)
        pg = build_partition_graph(reg, dag)
        reg, order = sequence_registry(reg, pg)
        hints = {1: LayoutHint("below", 0)}
        _, placements, _ = global_map(
            be, order, reg, mode="size-aware", relative_ref="weight", pg=pg, hints=hints
        )
        ref, pl = placements[0], placements[1]
        assert pl.y >= ref.y + ref.h

    def test_hint_to_unplaced_partition_warns(self, caplog):
        be = _backend(w=4, h=4)
        labels = {0: 0, 1: 0, 2: 1, 3: 1}
        dag = CircuitDag([cx(0, 2)], 4)
        reg = predefined_partitions(dag, labels)
        pg = build_partition_graph(reg, dag)
        reg, order = sequence_registry(reg, pg)
        hints = {order.components[0][1]: LayoutHint("below", 99)}
        with caplog.at_level(logging.WARNING, logger="chipmap.gmap"):
            global_map(
                be, order, reg, mode="size-aware", relative_ref="weight", pg=pg, hints=hints
            )
        assert "unplaced partition" in caplog.text

    def test_no_capacity_raises_nofit(self):
        # three 2x1 boxes need 6 cells; a lone 2x2 chiplet has 4
        be = _backend(w=2, h=2)
        labels = {0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 5: 2}
        with pytest.raises(NoFitError):
            _mapped([cx(0, 2), cx(2, 4)], 6, labels, be)

    def test_random_packing_conserves_area(self):
        rng = random.Random(33)
        for trial in range(50):
            be = _backend(rows=2, cols=2, w=6, h=6)
            bins = BinState(be)
            pid = 0
            while True:
                w, h = rng.randint(1, 4), rng.randint(1, 4)
                try:
                    if pid == 0 or rng.random() < 0.3:
                        place_partition(bins, pid, w, h, "size-aware")
                    else:
                        ref = bins.placements[rng.randrange(pid)]
                        place_partition_relative(bins, pid, w, h, ref)
                except NoFitError:
                    break
                pid += 1
            assert pid >= 1
            for chip in range(be.n_chiplets):
                _raster(bins, chip)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_packing_oracle(self, data):
        be = build_backend(draw_backend_doc(data))
        n = data.draw(st.integers(1, 6))
        boxes = [(data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))) for _ in range(n)]
        pids = data.draw(st.permutations(range(n)))
        cuts = sorted(data.draw(st.sets(st.integers(1, n - 1))) if n > 1 else ())
        comps = tuple(tuple(pids[a:b]) for a, b in zip([0, *cuts], [*cuts, n]))
        hint = st.builds(LayoutHint, st.sampled_from(["below", "right"]), st.integers(0, n - 1))
        hints = data.draw(st.dictionaries(st.integers(0, n - 1), hint))
        mode = data.draw(st.sampled_from(["center", "size-aware"]))
        reg = PartitionRegistry(
            tuple(Partition(pid, frozenset({pid}), w, h) for pid, (w, h) in enumerate(boxes))
        )
        # the oracle walks the components as global_map does, with the
        # previous partition as reference unless a hint names a placed one
        oracle = PackingOracle(be)
        want: dict = {}
        fails = None
        for comp in comps:
            for i, pid in enumerate(comp):
                w, h = boxes[pid]
                hint = hints.get(pid)
                if i == 0:
                    got = oracle.first_fit(w, h, mode)
                elif hint is not None and hint.ref in want:
                    got = oracle.relative(w, h, want[hint.ref], hint.direction)
                else:
                    got = oracle.relative(w, h, want[comp[i - 1]], None)
                if got is None:
                    fails = pid
                    break
                oracle.place(*got, w, h)
                want[pid] = Placement(pid, *got, w, h)
            if fails is not None:
                break
        try:
            _, placements, bins = global_map(
                be, SequencedOrder(comps), reg, mode=mode, relative_ref="order", hints=hints
            )
        except NoFitError as exc:
            assert exc.partition_id == fails
            return
        assert fails is None
        assert placements == want
        assert {c: set(cells) for c, cells in bins.free.items()} == oracle.free

    def test_nofit_only_where_first_fit_witness_fails(self):
        # generated circuits on gen_backend_for's grid with random defects: the
        # witness packs largest box first at the first free row-major anchor
        rng = random.Random(5)
        counts = {"packable": 0, "center": 0, "size-aware": 0}
        for draw in range(300):
            d = rng.choice((3, 5, 7))
            if rng.random() < 0.5:
                doc = gen_memory_circuit(d)
            else:
                doc = gen_ls_cnot_circuit(d, n_cnots=rng.randint(1, 3))
            be = build_backend(gen_backend_for(
                doc,
                headroom=rng.choice((0.3, 1.0, 3.0)),
                defects_per_chiplet=rng.choice((1, 3, 6)),
                seed=rng.randrange(1000),
            ))
            circuit = circuit_from_json(doc)
            reg = predefined_partitions(circuit.dag, circuit.partitions, circuit.geometry)
            pg = build_partition_graph(reg, circuit.dag)
            packable = first_fit_packs(be, [(p.width, p.height) for p in reg])
            counts["packable"] += packable
            for mode in ("center", "size-aware"):
                try:
                    global_map(
                        be, sequence(pg), reg, mode=mode, relative_ref="weight", pg=pg,
                        hints=circuit.layout_hints,
                    )
                except NoFitError:
                    assert not packable, f"draw {draw}: {mode} fails where first-fit packs"
                    continue
                assert packable, f"draw {draw}: {mode} packs where first-fit fails"
                counts[mode] += 1
        print(f"nofit witness: {counts} of 300 draws")
        assert counts["packable"] > 100
