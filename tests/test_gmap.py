"""Guillotine packing and the global chiplet mapper."""

import logging
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipmap.backend import build_backend
from chipmap.errors import NoFitError, ValidationError
from chipmap.gmap import (
    BinState,
    FreeRegion,
    global_map,
    guillotine_split,
    place_partition,
    place_partition_relative,
)
from chipmap.ir import LayoutHint, build_dag, cx
from chipmap.partition import predefined_partitions
from chipmap.sequence import SequencedOrder, build_partition_graph, sequence_registry
from oracles import blocked_cells, carved_free, check_chip_partition, rect_cells
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
        bins.chip_w,
        bins.chip_h,
        [(r.x, r.y, r.w, r.h) for r in bins.free[chip]],
        [
            (p.x, p.y, p.w, p.h)
            for p in bins.placements.values()
            if p.chip == chip
        ],
        blocked_cells(bins.backend, chip),
    )


class TestSplit:
    def test_corner_placement_two_remainders(self):
        out = guillotine_split(FreeRegion(0, 0, 0, 5, 5), (0, 0, 2, 2))
        assert sorted(out) == [FreeRegion(0, 0, 2, 2, 3), FreeRegion(0, 2, 0, 3, 5)]

    def test_interior_placement_four_remainders(self):
        out = guillotine_split(FreeRegion(0, 0, 0, 5, 5), (1, 1, 2, 2))
        assert len(out) == 4
        covered = set()
        for r in out:
            cells = rect_cells(r.x, r.y, r.w, r.h)
            assert not covered & cells
            covered |= cells
        assert covered == rect_cells(0, 0, 5, 5) - rect_cells(1, 1, 2, 2)

    def test_tall_leftover_keeps_full_width(self):
        # bottom strip deeper than the right strip: horizontal cut wins
        out = guillotine_split(FreeRegion(0, 0, 0, 4, 6), (1, 0, 3, 2))
        assert FreeRegion(0, 0, 2, 4, 4) in out  # full 4-wide bottom
        assert FreeRegion(0, 0, 0, 1, 2) in out
        assert len(out) == 2

    def test_exact_fill_no_remainder(self):
        assert guillotine_split(FreeRegion(0, 1, 2, 3, 4), (1, 2, 3, 4)) == []

    def test_rect_outside_region_rejected(self):
        with pytest.raises(ValidationError, match="not contained"):
            guillotine_split(FreeRegion(0, 0, 0, 3, 3), (2, 2, 2, 2))

    def test_random_splits_conserve_cells(self):
        rng = random.Random(9)
        for _ in range(200):
            rw, rh = rng.randint(1, 9), rng.randint(1, 9)
            pw, ph = rng.randint(1, rw), rng.randint(1, rh)
            px, py = rng.randint(0, rw - pw), rng.randint(0, rh - ph)
            out = guillotine_split(FreeRegion(0, 0, 0, rw, rh), (px, py, pw, ph))
            assert len(out) <= 4
            covered = set()
            for r in out:
                cells = rect_cells(r.x, r.y, r.w, r.h)
                assert not covered & cells
                covered |= cells
            assert covered == rect_cells(0, 0, rw, rh) - rect_cells(px, py, pw, ph)


class TestBins:
    def test_defects_become_blocked_cells(self):
        be = _backend(w=3, h=3, defects=[(0, 1, 1)])
        bins = BinState(be)
        assert sum(r.w * r.h for r in bins.free[0]) == 8
        _raster(bins, 0)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_free_matches_cell_by_cell_carve(self, data):
        self._assert_carve_matches(build_backend(draw_backend_doc(data)))

    def test_defects_carve_in_x_then_y_order(self):
        # carving (1, 0) before (0, 2) leaves other regions than (x, y) order
        self._assert_carve_matches(_backend(w=2, h=3, defects=[(0, 0, 2), (0, 1, 0)]))

    @staticmethod
    def _assert_carve_matches(be):
        split = lambda reg, rect: guillotine_split(FreeRegion(*reg), rect)  # noqa: E731
        assert BinState(be).free == carved_free(be, split)

    def test_commit_updates_free_space(self):
        bins = BinState(_backend())
        bins.commit(0, 0, 0, 0, 2, 3)
        assert sum(r.w * r.h for r in bins.free[0]) == 25 - 6
        _raster(bins, 0)


class TestFirstFit:
    def test_center_mode_centers_the_box(self):
        bins = BinState(_backend(w=7, h=7))
        pl = place_partition(bins, 0, 3, 3, "center")
        assert (pl.chip, pl.x, pl.y) == (0, 2, 2)

    def test_size_aware_takes_minimal_anchor(self):
        bins = BinState(_backend())
        pl = place_partition(bins, 0, 2, 2, "size-aware")
        assert (pl.chip, pl.x, pl.y) == (0, 0, 0)

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


def _oracle_relative(bins, w, h, ref, direction):
    """Re-derive the relative anchor from scratch: chiplets by grid
    distance, anchors scored by doubled-center Manhattan distance with
    (ay, ax) tie-breaks, hint as a lower bound on global coordinates."""
    be = bins.backend
    ref_row, ref_col = be.grid_pos(ref.chip)

    def origin(chip):
        row, col = be.grid_pos(chip)
        return col * bins.chip_w, row * bins.chip_h

    ox, oy = origin(ref.chip)
    rcx2 = 2 * (ox + ref.x) + ref.w
    rcy2 = 2 * (oy + ref.y) + ref.h
    chips = sorted(
        range(be.n_chiplets),
        key=lambda c: (
            abs(be.grid_pos(c)[0] - ref_row) + abs(be.grid_pos(c)[1] - ref_col),
            c,
        ),
    )
    for chip in chips:
        cox, coy = origin(chip)
        best = None
        for reg in bins.free[chip]:
            for ax in range(reg.x, reg.x + reg.w - w + 1):
                for ay in range(reg.y, reg.y + reg.h - h + 1):
                    if direction == "right" and cox + ax < ox + ref.x + ref.w:
                        continue
                    if direction == "below" and coy + ay < oy + ref.y + ref.h:
                        continue
                    d2 = abs(2 * (cox + ax) + w - rcx2) + abs(2 * (coy + ay) + h - rcy2)
                    cand = (d2, ay, ax)
                    if best is None or cand < best:
                        best = cand
        if best is not None:
            return chip, best[2], best[1]
    return None


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
            ref = place_partition(
                bins, 0, rng.randint(1, 4), rng.randint(1, 4), "size-aware"
            )
            for pid in range(1, rng.randint(2, 5)):
                w, h = rng.randint(1, 4), rng.randint(1, 4)
                direction = rng.choice([None, None, "below", "right"])
                want = _oracle_relative(bins, w, h, ref, direction)
                if want is None:
                    want = _oracle_relative(bins, w, h, ref, None)
                try:
                    pl = place_partition_relative(bins, pid, w, h, ref, direction)
                except NoFitError:
                    assert want is None
                    break
                assert (pl.chip, pl.x, pl.y) == want, f"trial {trial} pid {pid}"
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
    dag = build_dag(gates, n)
    reg = predefined_partitions(dag, labels)
    pg = build_partition_graph(reg, dag)
    reg, order = sequence_registry(reg, pg)
    return global_map(be, order, reg, pg=pg, **kw)


class TestGlobalMap:
    def test_order_must_cover_all_partitions(self):
        dag = build_dag([], 3)
        reg = predefined_partitions(dag, {0: 0, 1: 1, 2: 2})
        order = SequencedOrder(((1,),))
        with pytest.raises(ValidationError, match=r"partitions \[0, 2\] unplaced"):
            global_map(_backend(), order, reg, relative_ref="order")

    def test_weight_ref_needs_partition_graph(self):
        dag = build_dag([], 2)
        reg = predefined_partitions(dag, {0: 0, 1: 0})
        pg = build_partition_graph(reg, dag)
        reg, order = sequence_registry(reg, pg)
        with pytest.raises(ValidationError, match="partition graph"):
            global_map(_backend(), order, reg, pg=None)
        with pytest.raises(ValidationError, match="relative_ref"):
            global_map(_backend(), order, reg, pg=pg, relative_ref="nearest")

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
        dag = build_dag([cx(0, 2)], 4)
        reg = predefined_partitions(dag, labels)
        pg = build_partition_graph(reg, dag)
        reg, order = sequence_registry(reg, pg)
        hints = {1: LayoutHint("below", 0)}
        _, placements, _ = global_map(be, order, reg, pg=pg, hints=hints)
        ref, pl = placements[0], placements[1]
        assert pl.y >= ref.y + ref.h

    def test_hint_to_unplaced_partition_warns(self, caplog):
        be = _backend(w=4, h=4)
        labels = {0: 0, 1: 0, 2: 1, 3: 1}
        dag = build_dag([cx(0, 2)], 4)
        reg = predefined_partitions(dag, labels)
        pg = build_partition_graph(reg, dag)
        reg, order = sequence_registry(reg, pg)
        hints = {order.components[0][1]: LayoutHint("below", 99)}
        with caplog.at_level(logging.WARNING, logger="chipmap.gmap"):
            global_map(be, order, reg, pg=pg, hints=hints)
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
