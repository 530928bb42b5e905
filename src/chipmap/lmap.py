"""Local mapping: pin each qubit to a physical cell inside its placement.

Each partition carries its cell map (declared, or its box filled
row-major), and a qubit at local (row, col) lands on (x0 + col, y0 + row)
of its partition's rectangle. Cells of the rectangle left unused stay
reserved for the patch; they are never handed back to the free pool.
The stage returns the registry with ``mapping`` set: each qubit to the
global id of its cell, the only name routing and the writer use for it.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping

from .backend import ChipletBackend
from .errors import MappingError
from .gmap import Placement
from .ir import PartitionRegistry


def local_map(
    backend: ChipletBackend,
    registry: PartitionRegistry,
    placements: Mapping[int, Placement],
) -> PartitionRegistry:
    """The registry with each qubit's cell id set in its ``mapping``.

    Raises MappingError if a partition has no placement, if a placed box
    names no chiplet or leaves its chiplet, or if an assignment would land
    on a defective cell or, as the registry refuses, on another qubit's
    cell; placements that avoid blocked zones make the last two
    impossible, so such a failure points at a mapper bug.
    """
    mapping: dict[int, int] = {}  # qubit -> gid
    for part in registry:
        pl = placements.get(part.pid)
        if pl is None:
            raise MappingError(f"partition {part.pid} has no placement")
        w, h = max(pl.w, part.width), max(pl.h, part.height)  # the placed box and the cells'
        if not (0 <= pl.chip < backend.n_chiplets and 0 <= pl.x <= backend.chip_w - w
                and 0 <= pl.y <= backend.chip_h - h):
            at = (pl.chip, pl.x, pl.y)
            raise MappingError(f"partition {part.pid}: {w}x{h} box at {at} leaves its chiplet")
        for q in sorted(part.qubits):
            row, col = part.cells[q]
            gid = mapping[q] = backend.gid(pl.chip, pl.x + col, pl.y + row)
            if gid in backend.defects:
                raise MappingError(
                    f"partition {part.pid}: qubit {q} mapped onto defective cell "
                    f"{tuple(backend.coord(gid))}"
                )
    return replace(registry, mapping=mapping)
