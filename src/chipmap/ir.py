"""Logical IR: gate dependency DAG plus the partition registry.

Contains:
- GateKind / OpaqueKind / GateNode: the gate vocabulary; an unknown op
  loads as an OpaqueKind that keeps its name and arity
- CircuitDag: immutable gate list in topological order; each gate
  depends on the previous gate on any of its operands
- InteractionGraph: weighted qubit graph counting two-qubit gates
- Partition / PartitionRegistry: the patches of one circuit; local
  mapping returns a new registry whose partitions carry coordinates
- circuit_from_json: the circuit interchange format

The DAG and the registry travel together through the pipeline: the DAG
never changes after construction. Each stage's product lives in that
stage's output: the order in ``SequencedOrder``, the rectangles in the
placements, and the coordinates on the partitions local mapping returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

from .errors import ValidationError
from .schema import validate_circuit_doc

if TYPE_CHECKING:
    from .backend import PhysCoord


class GateKind(Enum):
    CNOT = "cx"
    SWAP = "swap"
    MEASURE = "measure"
    RESET = "reset"
    BARRIER = "barrier"

    is_two_qubit: bool

    def __init__(self, value: str) -> None:
        # a plain attribute, not a property: routing and stats read it per gate
        self.is_two_qubit = value in ("cx", "swap")


@dataclass(frozen=True, slots=True)
class OpaqueKind:
    """A gate the compiler does not know: its op name and whether it spans two qubits."""

    value: str
    is_two_qubit: bool

    def __post_init__(self) -> None:
        if self.value.lower() in _KIND_BY_NAME:
            raise ValidationError(f"op {self.value!r} is a built-in gate, not an opaque one")


_opaque_kind = cache(OpaqueKind)  # one instance per (name, arity) a parse meets

# Recognized op names; anything else becomes opaque.
_KIND_BY_NAME = {
    "cx": GateKind.CNOT,
    "cnot": GateKind.CNOT,
    "swap": GateKind.SWAP,
    "measure": GateKind.MEASURE,
    "m": GateKind.MEASURE,
    "reset": GateKind.RESET,
    "barrier": GateKind.BARRIER,
}


@dataclass(frozen=True, slots=True, init=False)
class GateNode:
    """One gate. ``qubits`` are virtual ids before routing, physical after.

    The constructor is written out rather than generated: it checks the
    operands, then stores the fields through the slot descriptors, which
    is cheaper than a frozen dataclass's ``object.__setattr__`` calls on
    the ~140k gates a large compile builds.
    """

    kind: GateKind | OpaqueKind
    qubits: tuple[int, ...]
    tag: str = ""

    def __init__(self, kind: GateKind | OpaqueKind, qubits: tuple[int, ...], tag: str = "") -> None:
        n = len(qubits)
        if kind.is_two_qubit:
            if n != 2 or qubits[0] == qubits[1]:
                raise ValidationError(
                    f"{kind.value} needs two distinct operands, got {qubits}"
                )
        elif kind is GateKind.BARRIER:
            if n == 0 or len(set(qubits)) != n:
                raise ValidationError(f"barrier operands must be nonempty and distinct: {qubits}")
        elif n != 1:
            raise ValidationError(f"{kind.value} takes one operand, got {qubits}")
        _set_kind(self, kind)
        _set_qubits(self, qubits)
        _set_tag(self, tag)


# slot setters: they write past the frozen __setattr__, for __init__ only
_set_kind = GateNode.kind.__set__
_set_qubits = GateNode.qubits.__set__
_set_tag = GateNode.tag.__set__


def cx(a: int, b: int, tag: str = "") -> GateNode:
    return GateNode(GateKind.CNOT, (a, b), tag)


def swap(a: int, b: int, tag: str = "") -> GateNode:
    return GateNode(GateKind.SWAP, (a, b), tag)


def measure(q: int, tag: str = "") -> GateNode:
    return GateNode(GateKind.MEASURE, (q,), tag)


def reset(q: int, tag: str = "") -> GateNode:
    return GateNode(GateKind.RESET, (q,), tag)


def barrier(*qs: int, tag: str = "") -> GateNode:
    return GateNode(GateKind.BARRIER, tuple(qs), tag)


class CircuitDag:
    """Immutable gate list in a topological order.

    Node ids are indices into ``nodes``; each gate depends on the previous
    gate on any of its operands, so the list order is a topological order
    by construction. Barriers depend on, and are depended on by, every
    listed operand, which keeps round structure intact. No edge lists are
    stored: ``depth`` reads the dependencies off per-qubit finish times.
    """

    __slots__ = ("nodes", "n_virt")

    def __init__(self, nodes: tuple[GateNode, ...], n_virt: int):
        self.nodes = nodes
        self.n_virt = n_virt

    def __len__(self) -> int:
        return len(self.nodes)

    def two_qubit_nodes(self) -> Iterator[tuple[int, GateNode]]:
        for i, g in enumerate(self.nodes):
            if g.kind.is_two_qubit:
                yield i, g

    def depth(self) -> int:
        """Critical path length with unit gate weight; barriers weigh zero.

        A gate finishes one step after the latest finish among its
        operands, which is the longest path through its predecessors, so
        per-qubit finish times give the depth without the edge lists.
        """
        finish = [0] * self.n_virt  # finish time of the last gate on each qubit
        barrier = GateKind.BARRIER
        for g in self.nodes:
            qs = g.qubits
            if g.kind is barrier:
                t = max([finish[q] for q in qs])
                for q in qs:
                    finish[q] = t
            elif len(qs) == 1:
                finish[qs[0]] += 1
            else:
                a, b = qs
                ta, tb = finish[a], finish[b]
                finish[a] = finish[b] = (ta if ta > tb else tb) + 1
        return max(finish, default=0)


def build_dag(gates: Sequence[GateNode], n_virt: int) -> CircuitDag:
    """Build the dependency DAG for ``gates`` over ``n_virt`` virtual qubits.

    Each gate depends on the previous gate touching any of its operands;
    only the operand range is checked here.
    """
    if n_virt < 0:
        raise ValidationError(f"n_virt must be nonnegative, got {n_virt}")
    for i, g in enumerate(gates):
        for q in g.qubits:
            if not 0 <= q < n_virt:
                raise ValidationError(f"gate {i}: operand {q} out of range for n_virt={n_virt}")
    return CircuitDag(tuple(gates), n_virt)


@dataclass(frozen=True)
class InteractionGraph:
    """Undirected qubit graph; an edge weight counts spanning 2q gates."""

    nodes: tuple[int, ...]               # 0 .. n-1 in order
    weights: dict[tuple[int, int], int]  # keys (a, b) with a < b

    def __post_init__(self) -> None:
        n = len(self.nodes)
        if self.nodes != tuple(range(n)):
            raise ValidationError(f"interaction graph nodes must be range({n}) in order")
        for a, b in self.weights:
            if not 0 <= a < b < n:
                raise ValidationError(f"interaction graph key {(a, b)} needs 0 <= a < b < {n}")

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


def interaction_graph(dag: CircuitDag) -> InteractionGraph:
    weights: dict[tuple[int, int], int] = {}
    for _, g in dag.two_qubit_nodes():
        a, b = g.qubits
        key = (a, b) if a < b else (b, a)
        weights[key] = weights.get(key, 0) + 1
    return InteractionGraph(tuple(range(dag.n_virt)), weights)


@dataclass(frozen=True, eq=False)
class Partition:
    """One patch: qubit set, bounding box, cell map and, once mapped, coordinates.

    ``cells`` holds each qubit's (row, col) in the box: the declared
    positions when the circuit shipped them, otherwise the box filled
    row-major by ascending qubit id. ``coords`` is set by the local
    mapping stage.
    """

    pid: int
    qubits: frozenset[int]
    width: int
    height: int
    cells: Mapping[int, tuple[int, int]] | None = None
    coords: Mapping[int, "PhysCoord"] | None = None

    def __post_init__(self) -> None:
        if not self.qubits:
            raise ValidationError(f"partition {self.pid} has no qubits")
        if self.width < 1 or self.height < 1 or self.width * self.height < len(self.qubits):
            raise ValidationError(
                f"partition {self.pid}: box {self.width}x{self.height} cannot hold "
                f"{len(self.qubits)} qubits"
            )
        if self.cells is None:
            cells = {q: divmod(i, self.width) for i, q in enumerate(sorted(self.qubits))}
            object.__setattr__(self, "cells", cells)
        if set(self.cells) != self.qubits:
            raise ValidationError(f"partition {self.pid}: cell map must cover exactly its qubits")
        seen: set[tuple[int, int]] = set()
        for q, (r, c) in self.cells.items():
            if not (0 <= r < self.height and 0 <= c < self.width):
                raise ValidationError(
                    f"partition {self.pid}: qubit {q} cell ({r}, {c}) outside "
                    f"{self.width}x{self.height} box"
                )
            if (r, c) in seen:
                raise ValidationError(f"partition {self.pid}: duplicate cell ({r}, {c})")
            seen.add((r, c))
        if self.coords is not None and set(self.coords) != self.qubits:
            raise ValidationError(
                f"partition {self.pid}: coordinate map must cover exactly its qubits"
            )

    @property
    def size(self) -> int:
        return len(self.qubits)


@dataclass(frozen=True)
class PartitionRegistry:
    """All partitions of one circuit."""

    partitions: tuple[Partition, ...]

    def __post_init__(self) -> None:
        ids = [p.pid for p in self.partitions]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate partition ids")
        seen: set[int] = set()
        for p in self.partitions:
            overlap = seen & p.qubits
            if overlap:
                raise ValidationError(f"qubits {sorted(overlap)} appear in more than one partition")
            seen |= p.qubits

    def __iter__(self) -> Iterator[Partition]:
        return iter(self.partitions)

    def __len__(self) -> int:
        return len(self.partitions)

    def by_id(self, pid: int) -> Partition:
        for p in self.partitions:
            if p.pid == pid:
                return p
        raise KeyError(pid)

    def qubit_map(self) -> dict[int, int]:
        """Map each covered virtual qubit to its partition id."""
        out: dict[int, int] = {}
        for p in self.partitions:
            for q in p.qubits:
                out[q] = p.pid
        return out


@dataclass(frozen=True)
class PartitionGeometry:
    width: int
    height: int
    cells: dict[int, tuple[int, int]]  # qubit -> (row, col)


@dataclass(frozen=True)
class LayoutHint:
    direction: str  # "below" | "right"
    ref: int        # partition to sit next to


@dataclass(frozen=True)
class CircuitInput:
    """Parsed circuit document: DAG plus optional partition declarations."""

    dag: CircuitDag
    partitions: dict[int, int] | None = None              # qubit -> partition id
    geometry: dict[int, PartitionGeometry] | None = None  # partition id -> box
    layout_hints: dict[int, LayoutHint] | None = None     # partition id -> hint


def _parse_gate(i: int, obj: dict) -> GateNode:
    op = obj["op"]
    qs = tuple(map(int, obj["qubits"]))  # integer-valued floats are integers too
    tag = obj.get("tag", "")
    kind = _KIND_BY_NAME.get(op.lower())
    if kind is None:
        if len(qs) > 2:
            raise ValidationError(f"gates[{i}]: unknown op {op!r} with arity {len(qs)}")
        kind = _opaque_kind(op, len(qs) == 2)
    try:
        return GateNode(kind, qs, tag)
    except ValidationError as exc:
        raise ValidationError(f"gates[{i}]: {exc}") from None


def _by_id(where: str, obj: dict) -> dict:
    """``obj`` keyed by the ids its decimal-string keys spell.

    The schema admits several spellings of one id (``"3"``, ``"03"``,
    ``"3\\n"``); two keys naming the same id are rejected rather than
    letting the later one win.
    """
    out = {int(k): v for k, v in obj.items()}
    if len(out) != len(obj):
        first: dict[int, str] = {}
        for k in obj:
            seen = first.setdefault(int(k), k)
            if seen != k:
                raise ValidationError(f"{where}: keys {seen!r} and {k!r} spell the same id {int(k)}")
    return out


def circuit_from_json(obj: dict) -> CircuitInput:
    """Parse a circuit document into a CircuitInput.

    ``obj`` is a JSON-decoded tree: objects are dicts and arrays are lists
    (a tuple or another Mapping is rejected, as JSON has no such value).

    The document is checked against ``CIRCUIT_SCHEMA`` first; the parse
    then applies the semantic rules: gate arity and distinct operands,
    qubit ids below ``n_qubits``, no id spelled by two keys of one
    object, and every geometry key, hint key and hint ``ref`` naming a
    partition that ``partitions`` declares. Partition boxes and cells are
    checked when the partitions are built.
    """
    validate_circuit_doc(obj)
    n = int(obj["n_qubits"])
    gates = [_parse_gate(i, g) for i, g in enumerate(obj["gates"])]
    dag = build_dag(gates, n)

    partitions: dict[int, int] | None = None
    if "partitions" in obj:
        partitions = {}
        for q, v in _by_id("partitions", obj["partitions"]).items():
            if q >= n:
                raise ValidationError(f"partitions[{q}]: qubit out of range")
            partitions[q] = int(v)

    geometry: dict[int, PartitionGeometry] | None = None
    if "partition_geometry" in obj:
        geometry = {
            k: PartitionGeometry(
                int(v["width"]),
                int(v["height"]),
                {
                    q: (int(r), int(c))
                    for q, (r, c) in _by_id(
                        f"partition_geometry[{k}].locals", v.get("locals", {})
                    ).items()
                },
            )
            for k, v in _by_id("partition_geometry", obj["partition_geometry"]).items()
        }

    hints: dict[int, LayoutHint] | None = None
    if "layout_hints" in obj:
        hints = {
            k: LayoutHint(v["dir"], int(v["ref"]))
            for k, v in _by_id("layout_hints", obj["layout_hints"]).items()
        }

    declared = set((partitions or {}).values())
    named = [("partition_geometry", k) for k in geometry or {}]
    for k, hint in (hints or {}).items():
        named += [("layout_hints", k), (f"layout_hints[{k}].ref", hint.ref)]
    for where, pid in named:
        if pid not in declared:
            raise ValidationError(f"{where}: partition {pid} is not declared in partitions")

    return CircuitInput(dag, partitions, geometry, hints)
