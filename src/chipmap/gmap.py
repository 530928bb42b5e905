"""Global mapping: pack partition boxes onto chiplets.

Free space on each chiplet is a set of disjoint rectangles maintained
with guillotine cuts; defective cells are carved out up front as 1x1
blocked zones, so no placement can cover them. The first partition of
every component lands by first-fit (centered or top-left according to
the placement mode); later partitions land as close as possible to an
already placed reference, optionally constrained by a directional hint
("below"/"right") shipped with the circuit.

Every placement consumes its full w x h rectangle, including cells the
partition's qubits do not use.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Mapping, NamedTuple

from .backend import ChipletBackend
from .errors import NoFitError, ValidationError
from .ir import LayoutHint, PartitionRegistry
from .sequence import PartitionGraph, SequencedOrder

log = logging.getLogger(__name__)

PLACEMENT_MODES = ("center", "size-aware")
REF_MODES = ("weight", "order")  # reference choice for relative placement


class FreeRegion(NamedTuple):
    chip: int
    x: int
    y: int
    w: int
    h: int


@dataclass(frozen=True)
class Placement:
    pid: int
    chip: int
    x: int
    y: int
    w: int
    h: int


class BinState:
    """Free-space bookkeeping for every chiplet of one backend."""

    def __init__(self, backend: ChipletBackend):
        self.backend = backend
        self.chip_w = backend.chip_w
        self.chip_h = backend.chip_h
        self.free: dict[int, list[FreeRegion]] = {
            chip: [FreeRegion(chip, 0, 0, self.chip_w, self.chip_h)]
            for chip in range(backend.n_chiplets)
        }
        self.placements: dict[int, Placement] = {}
        # each defect is a 1x1 blocked zone, carved per chip in (x, y) order
        for chip, x, y in sorted(map(backend.coord, backend.defects)):
            self.free[chip] = self._carve(self.free[chip], chip, x, y, 1, 1)

    @staticmethod
    def _carve(
        regions: list[FreeRegion], chip: int, x: int, y: int, w: int, h: int
    ) -> list[FreeRegion]:
        """Remove the rect from whichever region contains it (guillotine split)."""
        reg = _region_containing(regions, x, y, w, h)
        if reg is None:
            raise ValidationError(f"rect {(x, y, w, h)} not inside a free region of chiplet {chip}")
        rest = [r for r in regions if r is not reg]
        rest.extend(guillotine_split(reg, (x, y, w, h)))
        rest.sort(key=lambda r: (r.y, r.x))
        return rest

    def commit(self, pid: int, chip: int, x: int, y: int, w: int, h: int) -> Placement:
        self.free[chip] = self._carve(self.free[chip], chip, x, y, w, h)
        pl = Placement(pid, chip, x, y, w, h)
        self.placements[pid] = pl
        return pl


def guillotine_split(
    region: FreeRegion, placed: tuple[int, int, int, int]
) -> list[FreeRegion]:
    """Split ``region`` around a placed rect, preserving every free cell.

    The leftover strip on the shorter axis stays attached to the placed
    rect while the longer-axis strip keeps the full region extent; corner
    placements therefore produce at most two remainders (right and
    bottom), interior placements up to four.
    """
    px, py, pw, ph = placed
    if not _contains(region, px, py, pw, ph):
        raise ValidationError(f"placed rect {placed} not contained in region {region}")
    left_w = px - region.x
    top_h = py - region.y
    right_w = region.x + region.w - (px + pw)
    bottom_h = region.y + region.h - (py + ph)
    out = []
    if bottom_h <= right_w:
        # vertical cuts run the full region height
        if left_w:
            out.append(FreeRegion(region.chip, region.x, region.y, left_w, region.h))
        if right_w:
            out.append(FreeRegion(region.chip, px + pw, region.y, right_w, region.h))
        if top_h:
            out.append(FreeRegion(region.chip, px, region.y, pw, top_h))
        if bottom_h:
            out.append(FreeRegion(region.chip, px, py + ph, pw, bottom_h))
    else:
        # horizontal cuts run the full region width
        if top_h:
            out.append(FreeRegion(region.chip, region.x, region.y, region.w, top_h))
        if bottom_h:
            out.append(FreeRegion(region.chip, region.x, py + ph, region.w, bottom_h))
        if left_w:
            out.append(FreeRegion(region.chip, region.x, py, left_w, ph))
        if right_w:
            out.append(FreeRegion(region.chip, px + pw, py, right_w, ph))
    return out


def place_partition(bins: BinState, pid: int, w: int, h: int, mode: str) -> Placement:
    """First-fit placement over chiplets in row-major order.

    ``center`` centers the box in the first chiplet whose central region
    is free; ``size-aware`` drops it at the minimal (y, x) anchor of any
    fitting free region.
    """
    if mode not in PLACEMENT_MODES:
        raise ValidationError(f"unknown placement mode {mode!r}")
    if w > bins.chip_w or h > bins.chip_h:
        raise NoFitError(pid, f"partition {pid} box {w}x{h} exceeds the chiplet size")
    for chip in range(bins.backend.n_chiplets):
        if mode == "center":
            cx = (bins.chip_w - w) // 2
            cy = (bins.chip_h - h) // 2
            if _region_containing(bins.free[chip], cx, cy, w, h) is not None:
                return bins.commit(pid, chip, cx, cy, w, h)
        else:
            for reg in bins.free[chip]:  # kept sorted by (y, x)
                if reg.w >= w and reg.h >= h:
                    return bins.commit(pid, chip, reg.x, reg.y, w, h)
    raise NoFitError(pid)


def _contains(reg: FreeRegion, x: int, y: int, w: int, h: int) -> bool:
    """Whether the rect (x, y, w, h) lies inside ``reg``."""
    return reg.x <= x and reg.y <= y and x + w <= reg.x + reg.w and y + h <= reg.y + reg.h


def _region_containing(
    regions: list[FreeRegion], x: int, y: int, w: int, h: int
) -> FreeRegion | None:
    for reg in regions:
        if _contains(reg, x, y, w, h):
            return reg
    return None


def place_partition_relative(
    bins: BinState,
    pid: int,
    w: int,
    h: int,
    ref: Placement,
    direction: str | None = None,
) -> Placement:
    """Place next to an already placed reference partition.

    Feasible anchors on the reference's chiplet are scored by Manhattan
    distance between box centers (in global grid coordinates); if nothing
    fits there, chiplets are scanned by ascending grid distance. A
    directional hint restricts anchors to start below/right of the
    reference; if the hint admits no anchor anywhere, it is dropped with
    a warning rather than failing the placement.
    """
    if w > bins.chip_w or h > bins.chip_h:
        raise NoFitError(pid, f"partition {pid} box {w}x{h} exceeds the chiplet size")
    backend = bins.backend
    ref_row, ref_col = backend.grid_pos(ref.chip)

    def chip_origin(chip: int) -> tuple[int, int]:
        row, col = backend.grid_pos(chip)
        return col * bins.chip_w, row * bins.chip_h

    ref_ox, ref_oy = chip_origin(ref.chip)
    # doubled center coordinates keep the arithmetic integral
    ref_cx2 = 2 * (ref_ox + ref.x) + ref.w
    ref_cy2 = 2 * (ref_oy + ref.y) + ref.h
    min_gx = ref_ox + ref.x + ref.w if direction == "right" else None
    min_gy = ref_oy + ref.y + ref.h if direction == "below" else None

    def grid_dist(chip: int) -> int:
        row, col = backend.grid_pos(chip)
        return abs(row - ref_row) + abs(col - ref_col)

    chips = sorted(range(backend.n_chiplets), key=lambda c: (grid_dist(c), c))
    for chip in chips:
        ox, oy = chip_origin(chip)
        best: tuple[int, int, int] | None = None  # (distance2, ay, ax)
        for reg in bins.free[chip]:
            if reg.w < w or reg.h < h:
                continue
            ax_lo, ax_hi = reg.x, reg.x + reg.w - w
            ay_lo, ay_hi = reg.y, reg.y + reg.h - h
            if min_gx is not None:
                ax_lo = max(ax_lo, min_gx - ox)
            if min_gy is not None:
                ay_lo = max(ay_lo, min_gy - oy)
            if ax_lo > ax_hi or ay_lo > ay_hi:
                continue
            ax, dx2 = _nearest_anchor(ax_lo, ax_hi, ref_cx2 - w - 2 * ox)
            ay, dy2 = _nearest_anchor(ay_lo, ay_hi, ref_cy2 - h - 2 * oy)
            cand = (dx2 + dy2, ay, ax)
            if best is None or cand < best:
                best = cand
        if best is not None:
            _, ay, ax = best
            return bins.commit(pid, chip, ax, ay, w, h)
    if direction is not None:
        log.warning(
            "partition %d: no anchor satisfies hint %r near partition %d; ignoring hint",
            pid, direction, ref.pid,
        )
        return place_partition_relative(bins, pid, w, h, ref, None)
    raise NoFitError(pid)


def _nearest_anchor(lo: int, hi: int, ideal2: int) -> tuple[int, int]:
    """Anchor in [lo, hi] whose doubled value is nearest ideal2 (prefer lower)."""
    cand = min(max(ideal2 // 2, lo), hi)
    best = (abs(2 * cand - ideal2), cand)
    if cand + 1 <= hi:
        alt = (abs(2 * (cand + 1) - ideal2), cand + 1)
        if alt < best:
            best = alt
    return best[1], best[0]


def global_map(
    backend: ChipletBackend,
    order: SequencedOrder,
    registry: PartitionRegistry,
    *,
    mode: str,
    relative_ref: str,
    pg: PartitionGraph | None = None,
    hints: Mapping[int, LayoutHint] | None = None,
) -> tuple[PartitionRegistry, dict[int, Placement], BinState]:
    """Assign every partition a chiplet and a rectangle.

    The first partition of each component places by first-fit; the rest
    place relative to a reference: the most entangled already placed
    partition (``relative_ref="weight"``, requires ``pg``), or simply the
    previous partition in the order (``"order"``). An explicit layout
    hint overrides the reference choice. Every partition of ``registry``
    must appear in ``order``. The registry comes back unchanged; the
    placements are the stage's product.
    """
    ordered = {pid for comp in order.components for pid in comp}
    unplaced = [p.pid for p in registry if p.pid not in ordered]
    if unplaced:
        raise ValidationError(f"order leaves partitions {unplaced} unplaced")
    if relative_ref not in REF_MODES:
        raise ValidationError(f"unknown relative_ref {relative_ref!r}")
    if relative_ref == "weight" and pg is None:
        raise ValidationError("relative_ref='weight' needs the partition graph")
    bins = BinState(backend)
    hints = hints or {}
    for comp in order.components:
        placed: list[int] = []
        for pid in comp:
            part = registry.by_id(pid)
            if not placed:
                bins_pl = place_partition(bins, pid, part.width, part.height, mode)
            else:
                hint = hints.get(pid)
                direction = None
                if hint is not None and hint.ref in bins.placements:
                    ref_pl = bins.placements[hint.ref]
                    direction = hint.direction
                else:
                    if hint is not None:
                        log.warning(
                            "partition %d: hint references unplaced partition %d; "
                            "falling back to %s reference",
                            pid, hint.ref, relative_ref,
                        )
                    ref_pl = bins.placements[_pick_ref(pid, placed, relative_ref, pg)]
                bins_pl = place_partition_relative(
                    bins, pid, part.width, part.height, ref_pl, direction
                )
            placed.append(pid)
            log.debug("placed partition %d at %s", pid, bins_pl)
    return registry, dict(bins.placements), bins


def _pick_ref(
    pid: int, placed: list[int], relative_ref: str, pg: PartitionGraph | None
) -> int:
    if relative_ref == "order" or pg is None:
        return placed[-1]
    best = placed[0]
    best_w = pg.weight(pid, best)
    for cand in placed[1:]:
        w = pg.weight(pid, cand)
        if w > best_w:
            best, best_w = cand, w
    return best
