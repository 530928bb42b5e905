"""Local mapping: pin each qubit to a physical cell inside its placement.

Declared patch geometry is honored verbatim: a qubit at local (row, col)
lands on (x0 + col, y0 + row) of its partition's rectangle. Partitions
without geometry fill their box row-major by ascending qubit id. Cells of
the rectangle left unused stay reserved for the patch; they are never
handed back to the free pool.
"""

from __future__ import annotations

from typing import Mapping

from .backend import ChipletBackend, PhysCoord
from .errors import MappingError
from .gmap import Placement
from .ir import PartitionRegistry, Stage


def local_map(
    backend: ChipletBackend,
    registry: PartitionRegistry,
    placements: Mapping[int, Placement],
) -> PartitionRegistry:
    """Produce the physical coordinate map and advance the registry.

    Raises MappingError if an assignment would land on a defective cell or
    collide with another qubit; placements that avoid blocked zones make
    both impossible, so a failure here points at a mapper bug.
    """
    if registry.stage is not Stage.PLACED:
        raise MappingError(f"local_map needs a placed registry, got {registry.stage.name}")
    taken: dict[int, tuple[int, int]] = {}  # gid -> (pid, qubit)
    payload: dict[int, dict[int, PhysCoord]] = {}
    for part in registry:
        pl = placements[part.pid]
        coords: dict[int, PhysCoord] = {}
        if part.cells is not None:
            for q in sorted(part.qubits):
                row, col = part.cells[q]
                coords[q] = PhysCoord(pl.chip, pl.x + col, pl.y + row)
        else:
            for i, q in enumerate(sorted(part.qubits)):
                row, col = divmod(i, pl.w)
                coords[q] = PhysCoord(pl.chip, pl.x + col, pl.y + row)
        for q, pc in coords.items():
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
        payload[part.pid] = coords
    return registry.enrich(Stage.MAPPED, payload)


def flat_mapping(registry: PartitionRegistry, backend: ChipletBackend) -> dict[int, int]:
    """Collapse a mapped registry into a virtual-qubit -> global-id dict."""
    out: dict[int, int] = {}
    for part in registry:
        if part.coords is None:
            raise MappingError(f"partition {part.pid} has no physical coordinates")
        for q, pc in part.coords.items():
            out[q] = backend.gid(*pc)
    return out
