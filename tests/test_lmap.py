"""Local cell assignment inside placed rectangles."""

import pytest

from chipmap.backend import PhysCoord, build_backend
from chipmap.errors import MappingError
from chipmap.gmap import Placement
from chipmap.ir import CircuitDag, PartitionGeometry, circuit_from_json
from chipmap.lmap import local_map
from chipmap.partition import predefined_partitions


def _backend(rows=1, cols=1, w=5, h=5, defects=()):
    return build_backend(
        {
            "grid": [rows, cols],
            "chiplet": [w, h],
            "defects": [{"chip": c, "x": x, "y": y} for c, x, y in defects],
            "allow_non_pow2": True,
        }
    )


def _registry(n, labels, geometry=None):
    return predefined_partitions(CircuitDag([], n), labels, geometry)


def _coords(mapped, be):
    return {q: be.coord(g) for q, g in mapped.mapping.items()}


def test_declared_cells_are_honored():
    geo = {0: PartitionGeometry(2, 2, {0: (0, 1), 1: (1, 0), 2: (1, 1)})}
    reg = _registry(3, {0: 0, 1: 0, 2: 0}, geo)
    placements = {0: Placement(0, 0, 2, 1, 2, 2)}
    be = _backend()
    mapped = local_map(be, reg, placements)
    assert _coords(mapped, be) == {
        0: PhysCoord(0, 3, 1),  # (row 0, col 1) from anchor (2, 1)
        1: PhysCoord(0, 2, 2),
        2: PhysCoord(0, 3, 2),
    }


def test_row_major_fill_by_ascending_qubit():
    reg = _registry(5, {q: 0 for q in range(5)})
    placements = {0: Placement(0, 0, 1, 1, 3, 2)}
    be = _backend()
    mapped = local_map(be, reg, placements)
    assert _coords(mapped, be) == {
        0: PhysCoord(0, 1, 1),
        1: PhysCoord(0, 2, 1),
        2: PhysCoord(0, 3, 1),
        3: PhysCoord(0, 1, 2),
        4: PhysCoord(0, 2, 2),
    }


def test_declared_box_without_locals_fills_row_major():
    # the schema makes locals optional; the declared 3x2 box, not the inferred 2x2, is filled
    ci = circuit_from_json({
        "n_qubits": 4,
        "gates": [],
        "partitions": {str(q): 0 for q in range(4)},
        "partition_geometry": {"0": {"width": 3, "height": 2}},
    })
    reg = predefined_partitions(ci.dag, ci.partitions, ci.geometry)
    assert (reg.by_id(0).width, reg.by_id(0).height) == (3, 2)
    be = _backend()
    mapped = local_map(be, reg, {0: Placement(0, 0, 1, 1, 3, 2)})
    assert _coords(mapped, be) == {
        0: PhysCoord(0, 1, 1),
        1: PhysCoord(0, 2, 1),
        2: PhysCoord(0, 3, 1),
        3: PhysCoord(0, 1, 2),
    }


def test_unused_box_cells_stay_reserved():
    # 3 qubits in a 2x2 box: cell (x0+1, y0+1) is absent from the map
    reg = _registry(3, {0: 0, 1: 0, 2: 0})
    placements = {0: Placement(0, 0, 0, 0, 2, 2)}
    be = _backend()
    mapped = local_map(be, reg, placements)
    used = set(_coords(mapped, be).values())
    assert PhysCoord(0, 1, 1) not in used
    assert len(used) == 3


def test_requires_placed_stage():
    reg = _registry(3, {0: 0, 1: 1, 2: 1})
    with pytest.raises(MappingError, match="partition 1 has no placement"):
        local_map(_backend(), reg, {0: Placement(0, 0, 0, 0, 1, 1)})


def test_defective_cell_rejected():
    reg = _registry(2, {0: 0, 1: 0})
    placements = {0: Placement(0, 0, 0, 0, 2, 1)}
    be = _backend(defects=[(0, 1, 0)])
    with pytest.raises(MappingError, match="defective"):
        local_map(be, reg, placements)


def test_cell_collision_rejected():
    reg = _registry(4, {0: 0, 1: 0, 2: 1, 3: 1})
    placements = {
        0: Placement(0, 0, 0, 0, 2, 1),
        1: Placement(1, 0, 1, 0, 2, 1),  # overlaps qubit 1's cell
    }
    with pytest.raises(MappingError,
                       match=r"qubits 1 and 2 mapped onto one cell 1 \(partitions 0 and 1\)"):
        local_map(_backend(), reg, placements)


def test_mapping_uses_global_ids():
    be = _backend(rows=1, cols=2, w=3, h=3)
    reg = _registry(2, {0: 0, 1: 0})
    mapped = local_map(be, reg, {0: Placement(0, 1, 1, 2, 2, 1)})
    assert mapped.mapping == {0: be.gid(1, 1, 2), 1: be.gid(1, 2, 2)}
    assert mapped.mapping == {0: 9 + 7, 1: 9 + 8}
    assert mapped.partitions == reg.partitions


@pytest.mark.parametrize(
    "grid, placement",
    [
        ((1, 1), Placement(0, 0, 4, 0, 2, 1)),  # qubit 1 would alias cell (0, 0, 1)
        ((1, 2), Placement(0, 1, 4, 4, 2, 1)),  # qubit 1 would be id 50 of 50 cells
        ((1, 1), Placement(0, 0, 0, 5, 2, 1)),  # below the bottom row
        ((1, 1), Placement(0, 0, -1, 0, 2, 1)),
        ((1, 2), Placement(0, 2, 0, 0, 2, 1)),  # names no chiplet
        ((1, 2), Placement(0, -1, 0, 0, 2, 1)),
    ],
)
def test_box_leaving_its_chiplet_rejected(grid, placement):
    reg = _registry(2, {0: 0, 1: 0})
    with pytest.raises(MappingError, match=r"partition 0: 2x1 box at .* leaves its chiplet"):
        local_map(_backend(*grid), reg, {0: placement})
