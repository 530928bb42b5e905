"""Benchmark generators: memory patches, lattice-surgery CNOTs, backends.

The circuits are structural stand-ins for fault-tolerant workloads: a
distance-d patch occupies a (2d-1) x (2d-1) cell box with data qubits on
even-parity cells and ancillas interleaved. Every emitted two-qubit gate
is nearest-neighbor in the declared patch geometry except the boundary
CNOTs that stand in for merge operations between adjacent patches.
Absolute gate counts are generator-defined; structural properties
(neighborship, patch disjointness, boundary pair counts) are contractual.
"""

from __future__ import annotations

import math
import random
from typing import Mapping

from .backend import _is_power_of_two
from .errors import ValidationError


def _check_distance(d: int) -> int:
    if d < 3 or d % 2 == 0:
        raise ValidationError(f"code distance must be odd and >= 3, got {d}")
    return 2 * d - 1  # patch box side


def _patch_cells(side: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Split the side x side box into data (even parity) and ancilla cells."""
    data, ancilla = [], []
    for r in range(side):
        for c in range(side):
            (data if (r + c) % 2 == 0 else ancilla).append((r, c))
    return data, ancilla


def _stabilizer_round(base: int, side: int, gates: list[dict]) -> None:
    """One measurement round: reset ancillas, entangle, measure ancillas."""
    _, ancilla = _patch_cells(side)
    qid = lambda r, c: base + r * side + c
    all_qubits = list(range(base, base + side * side))
    for r, c in ancilla:
        gates.append({"op": "reset", "qubits": [qid(r, c)]})
    gates.append({"op": "barrier", "qubits": all_qubits})
    for r, c in ancilla:
        for dr, dc in ((-1, 0), (0, -1), (0, 1), (1, 0)):
            nr, nc = r + dr, c + dc
            if 0 <= nr < side and 0 <= nc < side:
                gates.append({"op": "cx", "qubits": [qid(r, c), qid(nr, nc)]})
    gates.append({"op": "barrier", "qubits": all_qubits})
    for r, c in ancilla:
        gates.append({"op": "measure", "qubits": [qid(r, c)]})
    gates.append({"op": "barrier", "qubits": all_qubits})


def _patch_geometry(base: int, side: int) -> dict:
    return {
        "width": side,
        "height": side,
        "locals": {str(base + r * side + c): [r, c] for r in range(side) for c in range(side)},
    }


def gen_memory_circuit(d: int, rounds: int = 1) -> dict:
    """Surface-code memory stand-in: one patch, ``rounds`` measurement rounds."""
    side = _check_distance(d)
    if rounds < 1:
        raise ValidationError(f"rounds must be >= 1, got {rounds}")
    gates: list[dict] = []
    for _ in range(rounds):
        _stabilizer_round(0, side, gates)
    n = side * side
    return {
        "schema_version": 1,
        "n_qubits": n,
        "gates": gates,
        "partitions": {str(q): 0 for q in range(n)},
        "partition_geometry": {"0": _patch_geometry(0, side)},
    }


def gen_ls_cnot_circuit(d: int, n_cnots: int = 1, rounds: int = 1) -> dict:
    """Lattice-surgery CNOT stand-in.

    Each CNOT block holds three vertically chained patches: control, route
    ancilla, target. After the stabilizer rounds, each merge is stood in by
    one round of boundary CNOTs between the d facing data qubits of the
    touching patch edges. Blocks are qubit-disjoint copies.
    """
    side = _check_distance(d)
    if n_cnots < 1:
        raise ValidationError(f"n_cnots must be >= 1, got {n_cnots}")
    if rounds < 1:
        raise ValidationError(f"rounds must be >= 1, got {rounds}")
    patch = side * side
    gates: list[dict] = []
    partitions: dict[str, int] = {}
    geometry: dict[str, dict] = {}
    hints: dict[str, dict] = {}
    for b in range(n_cnots):
        bases = [(b * 3 + role) * patch for role in range(3)]  # control, ancilla, target
        pids = [b * 3 + role for role in range(3)]
        for base, pid in zip(bases, pids):
            for q in range(base, base + patch):
                partitions[str(q)] = pid
            geometry[str(pid)] = _patch_geometry(base, side)
            for _ in range(rounds):
                _stabilizer_round(base, side, gates)
        hints[str(pids[1])] = {"dir": "below", "ref": pids[0]}
        hints[str(pids[2])] = {"dir": "below", "ref": pids[1]}
        # Merge stand-ins: control-ancilla, then ancilla-target. The facing
        # rows share column parity, so each merge touches exactly d pairs.
        for upper, lower in ((bases[0], bases[1]), (bases[1], bases[2])):
            for c in range(0, side, 2):
                gates.append(
                    {
                        "op": "cx",
                        "qubits": [upper + (side - 1) * side + c, lower + c],
                        "tag": "merge",
                    }
                )
            gates.append({"op": "barrier", "qubits": list(range(upper, upper + patch))
                          + list(range(lower, lower + patch))})
    return {
        "schema_version": 1,
        "n_qubits": n_cnots * 3 * patch,
        "gates": gates,
        "partitions": partitions,
        "partition_geometry": geometry,
        "layout_hints": hints,
    }


def gen_backend_for(
    circuit: Mapping,
    *,
    headroom: float = 0.30,
    grid: tuple[int, int] | None = None,
    n_inter: int = 8,
    eps: float | Mapping = 1e-3,
    defects_per_chiplet: int = 0,
    seed: int = 0,
) -> dict:
    """Size a chiplet backend document for a generated circuit.

    The chiplet side is the largest declared patch side scaled by
    sqrt(1 + headroom), so a patch fills at most 1/(1+headroom) of its
    chiplet. Unless ``grid`` is given, the chiplet count is the smallest
    power of two strictly greater than the partition count, arranged
    near-square. ``eps`` is either a flat link error rate or a spec dict
    {"base", "scale_range", "seed"} for randomized rates.
    """
    if headroom < 0:
        raise ValidationError(f"headroom must be >= 0, got {headroom}")
    geometry = circuit.get("partition_geometry") or {}
    if not geometry:
        raise ValidationError("circuit carries no partition geometry to size a backend from")
    patch_side = max(max(int(g["width"]), int(g["height"])) for g in geometry.values())
    side = math.ceil(patch_side * math.sqrt(1.0 + headroom))
    if grid is None:
        n_parts = len(geometry)
        k = 0
        while 2**k <= n_parts:
            k += 1
        rows, cols = 2 ** (k // 2), 2 ** (k - k // 2)
    else:
        rows, cols = grid
        if not _is_power_of_two(rows * cols):
            raise ValidationError(f"grid {grid}: chiplet count {rows * cols} is not a power of two")
    doc: dict = {
        "schema_version": 1,
        "grid": [rows, cols],
        "chiplet": [side, side],
        "links": [],
        "defects": [],
    }
    if rows * cols > 1 and n_inter > 0:
        eps_spec: object
        if isinstance(eps, Mapping):
            eps_spec = dict(eps)
            eps_spec.setdefault("seed", seed)
        else:
            eps_spec = eps
        doc["auto_links"] = {"per_edge": n_inter, "eps": eps_spec}
    if defects_per_chiplet > 0:
        if defects_per_chiplet >= side * side:
            raise ValidationError("defects_per_chiplet must leave functional qubits")
        rng = random.Random(seed)
        for chip in range(rows * cols):
            cells = rng.sample(range(side * side), defects_per_chiplet)
            for off in cells:
                y, x = divmod(off, side)
                doc["defects"].append({"chip": chip, "x": x, "y": y})
    return doc
