"""Global mapping: pack partition boxes onto chiplets.

Free space on each chiplet is one occupancy bitboard in the layout
``ChipletBackend`` owns (``board_bit``, ``board_cells``), starting from
its ``live_board``: a set bit is a free cell. Defects start
cleared, and every placement clears its full w x h box, including cells
the partition's qubits do not use. A box may go wherever all of its cells
are free. The anchors where a w x h box fits are found for a whole
chiplet at once: AND the board with itself shifted by 1..w-1 columns,
then AND that with itself shifted by 1..h-1 rows; every set bit left is
such an anchor.

The first partition of every component lands by first-fit over the
chiplets in row-major order. ``size-aware`` takes the minimal (y, x)
anchor. ``center`` takes the chiplet centre on the first chiplet whose
centre fits; when none does, the anchor nearest the centre on the first
chiplet with any anchor. Later partitions land as close as possible to an
already placed reference, optionally constrained by a directional hint
("below"/"right") shipped with the circuit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Mapping

from .backend import ChipletBackend
from .errors import NoFitError, ValidationError
from .ir import LayoutHint, PartitionRegistry
from .sequence import PartitionGraph, SequencedOrder

log = logging.getLogger(__name__)

PLACEMENT_MODES = ("center", "size-aware")
REF_MODES = ("weight", "order")  # reference choice for relative placement


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
        self.boards = [backend.live_board(chip) for chip in range(backend.n_chiplets)]
        self.placements: dict[int, Placement] = {}

    @property
    def free(self) -> dict[int, list[tuple[int, int]]]:
        """Each chiplet's free (x, y) cells in row-major order, read off its board."""
        return {chip: list(self.backend.board_cells(b)) for chip, b in enumerate(self.boards)}

    def anchors(self, chip: int, w: int, h: int) -> int:
        """The bitboard of the anchors on ``chip`` whose w x h box is all free cells."""
        board = self.boards[chip]
        row = board
        for dx in range(1, w):
            row &= board >> dx
        fit = row
        stride = self.backend.board_stride
        for dy in range(1, h):
            fit &= row >> (dy * stride)
        return fit

    def commit(self, pid: int, chip: int, x: int, y: int, w: int, h: int) -> Placement:
        box = self.backend.box_board(x, y, w, h) if min(chip, x, y) >= 0 else None
        if box is None or self.boards[chip] & box != box:
            raise ValidationError(f"box {(x, y, w, h)} is not all free cells of chiplet {chip}")
        self.boards[chip] ^= box
        pl = Placement(pid, chip, x, y, w, h)
        self.placements[pid] = pl
        return pl


def _nearest(backend: ChipletBackend, fit: int, tx2: int, ty2: int) -> tuple[int, int]:
    """The anchor of ``fit`` whose doubled coordinates lie nearest (tx2, ty2)
    by Manhattan distance, ties to the smaller (y, x)."""
    return min(backend.board_cells(fit), key=lambda c: abs(2 * c[0] - tx2) + abs(2 * c[1] - ty2))


def place_partition(bins: BinState, pid: int, w: int, h: int, mode: str) -> Placement:
    """First-fit placement over chiplets in row-major order.

    ``center`` centers the box in the first chiplet whose centre fits, or
    else takes the anchor nearest the centre on the first chiplet with an
    anchor; ``size-aware`` takes the minimal (y, x) anchor of the first
    chiplet with one.
    """
    if mode not in PLACEMENT_MODES:
        raise ValidationError(f"unknown placement mode {mode!r}")
    backend = bins.backend
    if w > backend.chip_w or h > backend.chip_h:
        raise NoFitError(pid, f"partition {pid} box {w}x{h} exceeds the chiplet size")
    chips = range(backend.n_chiplets)
    cx, cy = (backend.chip_w - w) // 2, (backend.chip_h - h) // 2
    if mode == "center":
        centre = backend.box_board(cx, cy, 1, 1)
        for chip in chips:
            if bins.anchors(chip, w, h) & centre:
                return bins.commit(pid, chip, cx, cy, w, h)
    for chip in chips:
        fit = bins.anchors(chip, w, h)
        if fit:
            if mode == "center":
                x, y = _nearest(backend, fit, 2 * cx, 2 * cy)
            else:
                x, y = next(backend.board_cells(fit))
            return bins.commit(pid, chip, x, y, w, h)
    raise NoFitError(pid)


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
    backend = bins.backend
    chip_w, chip_h = backend.chip_w, backend.chip_h
    if w > chip_w or h > chip_h:
        raise NoFitError(pid, f"partition {pid} box {w}x{h} exceeds the chiplet size")

    def chip_origin(chip: int) -> tuple[int, int]:
        row, col = backend.grid_pos(chip)
        return col * chip_w, row * chip_h

    ref_ox, ref_oy = chip_origin(ref.chip)
    # doubled center coordinates keep the arithmetic integral
    ref_cx2 = 2 * (ref_ox + ref.x) + ref.w
    ref_cy2 = 2 * (ref_oy + ref.y) + ref.h
    min_gx = ref_ox + ref.x + ref.w if direction == "right" else None
    min_gy = ref_oy + ref.y + ref.h if direction == "below" else None

    chips = sorted(range(backend.n_chiplets), key=lambda c: (backend.grid_distance(c, ref.chip), c))
    for chip in chips:
        ox, oy = chip_origin(chip)
        fit = bins.anchors(chip, w, h)
        if min_gx is not None:  # clear the columns left of the bound
            fit &= ~backend.box_board(0, 0, min(max(min_gx - ox, 0), chip_w), chip_h)
        if min_gy is not None:  # clear the rows above the bound
            fit &= ~backend.box_board(0, 0, chip_w, min(max(min_gy - oy, 0), chip_h))
        if fit:
            ax, ay = _nearest(backend, fit, ref_cx2 - w - 2 * ox, ref_cy2 - h - 2 * oy)
            return bins.commit(pid, chip, ax, ay, w, h)
    if direction is not None:
        log.warning(
            "partition %d: no anchor satisfies hint %r near partition %d; ignoring hint",
            pid, direction, ref.pid,
        )
        return place_partition_relative(bins, pid, w, h, ref, None)
    raise NoFitError(pid)


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
    if relative_ref == "order":
        return placed[-1]
    best = placed[0]
    best_w = pg.weight(pid, best)
    for cand in placed[1:]:
        w = pg.weight(pid, cand)
        if w > best_w:
            best, best_w = cand, w
    return best
