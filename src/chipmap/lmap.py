"""Local mapping: pin each qubit to a physical cell inside its placement.

Each partition carries its cell map (declared, or its box filled
row-major), and a qubit at local (row, col) lands on (x0 + col, y0 + row)
of its partition's rectangle. Cells of the rectangle left unused stay
reserved for the patch; they are never handed back to the free pool.
The stage returns a new registry whose partitions carry these
coordinates.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping

from .backend import ChipletBackend, PhysCoord
from .errors import MappingError
from .gmap import Placement
from .ir import PartitionRegistry


def local_map(
    backend: ChipletBackend,
    registry: PartitionRegistry,
    placements: Mapping[int, Placement],
) -> PartitionRegistry:
    """The registry's partitions with their physical coordinates set.

    Raises MappingError if a partition has no placement, or if an
    assignment would land on a defective cell or collide with another
    qubit; placements that avoid blocked zones make the last two
    impossible, so such a failure points at a mapper bug.
    """
    taken: dict[int, tuple[int, int]] = {}  # gid -> (pid, qubit)
    mapped = []
    for part in registry:
        pl = placements.get(part.pid)
        if pl is None:
            raise MappingError(f"partition {part.pid} has no placement")
        coords: dict[int, PhysCoord] = {}
        for q in sorted(part.qubits):
            row, col = part.cells[q]
            pc = coords[q] = PhysCoord(pl.chip, pl.x + col, pl.y + row)
            gid = backend.gid(*pc)
            if gid in backend.defects:
                raise MappingError(
                    f"partition {part.pid}: qubit {q} mapped onto defective cell {tuple(pc)}"
                )
            if gid in taken:
                raise MappingError(
                    f"cell {tuple(pc)} assigned to qubit {q} of partition {part.pid} "
                    f"and qubit {taken[gid][1]} of partition {taken[gid][0]}"
                )
            taken[gid] = (part.pid, q)
        mapped.append(replace(part, coords=coords))
    return PartitionRegistry(tuple(mapped))


def flat_mapping(registry: PartitionRegistry, backend: ChipletBackend) -> dict[int, int]:
    """Collapse a mapped registry into a virtual-qubit -> global-id dict."""
    out: dict[int, int] = {}
    for part in registry:
        if part.coords is None:
            raise MappingError(f"partition {part.pid} has no physical coordinates")
        for q, pc in part.coords.items():
            out[q] = backend.gid(*pc)
    return out
