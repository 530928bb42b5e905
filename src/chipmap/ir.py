"""Logical IR: gate dependency DAG plus the partition registry.

Contains:
- GateKind / OpaqueKind / GateNode: the gate vocabulary; an unknown op
  loads as an OpaqueKind that keeps its name and arity
- CircuitDag: immutable gate list in topological order, kept as three
  columns (kinds, operand tuples, tags); each gate depends on the
  previous gate on any of its operands
- InteractionGraph: weighted qubit graph counting two-qubit gates
- Partition / PartitionRegistry: the patches of one circuit and each
  qubit's partition; local mapping returns a new registry that maps each
  qubit to the global id of a physical cell no other qubit holds
- circuit_from_json: the circuit interchange format

The DAG and the registry travel together through the pipeline: the DAG
never changes after construction. Each stage's product lives in that
stage's output: the order in ``SequencedOrder``, the rectangles in the
placements, and each qubit's cell id in the registry local mapping returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cache
from itertools import chain, compress
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import MappingError, ValidationError
from .schema import validate_circuit_doc


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


def _gate_error(kind: GateKind | OpaqueKind, qubits: tuple[int, ...]) -> str | None:
    """Why ``qubits`` cannot be the operands of a ``kind`` gate, or None if they can.

    The one statement of the operand rules: ``GateNode`` and the circuit
    parser both ask it.
    """
    n = len(qubits)
    if kind.is_two_qubit:
        if n != 2 or qubits[0] == qubits[1]:
            return f"{kind.value} needs two distinct operands, got {qubits}"
    elif kind is GateKind.BARRIER:
        if n == 0 or len(set(qubits)) != n:
            return f"barrier operands must be nonempty and distinct: {qubits}"
    elif n != 1:
        return f"{kind.value} takes one operand, got {qubits}"
    return None


@dataclass(frozen=True, slots=True)
class GateNode:
    """One gate. ``qubits`` are virtual ids before routing, physical after."""

    kind: GateKind | OpaqueKind
    qubits: tuple[int, ...]
    tag: str = ""

    def __post_init__(self) -> None:
        error = _gate_error(self.kind, self.qubits)
        if error:
            raise ValidationError(error)


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
    """Immutable gate list in a topological order, stored as three columns.

    Gate ``i`` is ``kinds[i]`` on the operand tuple ``qubits[i]``, tagged
    ``tags[i]``. Each gate depends on the previous gate on any of its
    operands, so the list order is a topological order by construction.
    Barriers depend on, and are depended on by, every listed operand,
    which keeps round structure intact. No edge lists are stored: the
    depth is read off per-qubit finish times. The constructor takes
    ``GateNode``s, which checked their own operands, and checks that
    every operand is below ``n_virt``.
    """

    __slots__ = ("kinds", "qubits", "tags", "n_virt")

    def __init__(self, nodes: Sequence[GateNode], n_virt: int):
        self._fill([g.kind for g in nodes], [g.qubits for g in nodes], [g.tag for g in nodes],
                   n_virt)

    @classmethod
    def _from_columns(cls, kinds: Sequence[GateKind | OpaqueKind],
                      qubits: Sequence[tuple[int, ...]], tags: Sequence[str],
                      n_virt: int) -> CircuitDag:
        """A DAG over columns whose gates the caller held to ``_gate_error``.

        The parser and the router check each gate as they append it; only
        the operand range is checked here.
        """
        dag = cls.__new__(cls)
        dag._fill(kinds, qubits, tags, n_virt)
        return dag

    def _fill(self, kinds: Sequence[GateKind | OpaqueKind], qubits: Sequence[tuple[int, ...]],
              tags: Sequence[str], n_virt: int) -> None:
        if n_virt < 0:
            raise ValidationError(f"n_virt must be nonnegative, got {n_virt}")
        if not len(kinds) == len(qubits) == len(tags):
            raise ValidationError("gate columns differ in length")
        flat = list(chain.from_iterable(qubits))
        if flat and (min(flat) < 0 or max(flat) >= n_virt):  # then name the first offender
            i, q = next((i, q) for i, qs in enumerate(qubits) for q in qs if not 0 <= q < n_virt)
            raise ValidationError(f"gate {i}: operand {q} out of range for n_virt={n_virt}")
        self.kinds = tuple(kinds)
        self.qubits = tuple(qubits)
        self.tags = tuple(tags)
        self.n_virt = n_virt

    def __len__(self) -> int:
        return len(self.kinds)

    @property
    def nodes(self) -> tuple[GateNode, ...]:
        """The gates as ``GateNode`` objects, built from the columns on each call."""
        return tuple(map(GateNode, self.kinds, self.qubits, self.tags))

    def two_qubit_operands(self) -> Iterator[tuple[int, ...]]:
        """The operand pair of every two-qubit gate, in gate order."""
        return compress(self.qubits, [kind.is_two_qubit for kind in self.kinds])

    def counts(self, chip_area: int) -> tuple[int, int, int, int]:
        """Two-qubit gates, non-barrier gates, crossings and depth, in one walk.

        A crossing is a two-qubit gate whose operands, read as physical
        ids, lie on different chiplets of ``chip_area`` cells; the count
        means nothing for a DAG over virtual qubits. The depth is the
        critical path length with unit gate weight, barriers weighing
        zero: a gate finishes one step after the latest finish among its
        operands, which is the longest path through its predecessors.
        """
        finish = [0] * self.n_virt  # finish time of the last gate on each qubit
        two = crossings = barriers = 0
        barrier = GateKind.BARRIER
        for kind, qs in zip(self.kinds, self.qubits):
            if kind.is_two_qubit:
                a, b = qs
                two += 1
                if a // chip_area != b // chip_area:
                    crossings += 1
                ta, tb = finish[a], finish[b]
                finish[a] = finish[b] = (ta if ta > tb else tb) + 1
            elif kind is barrier:
                barriers += 1
                t = max([finish[q] for q in qs])
                for q in qs:
                    finish[q] = t
            else:
                finish[qs[0]] += 1
        return two, len(self.kinds) - barriers, crossings, max(finish, default=0)

    def depth(self) -> int:
        """Critical path length with unit gate weight; barriers weigh zero."""
        return self.counts(max(self.n_virt, 1))[3]


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


def pair_counts(pairs: Iterable[tuple[int, int]]) -> dict[tuple[int, int], int]:
    """How often each unordered pair of distinct ids occurs, keyed (low, high)."""
    counts: dict[tuple[int, int], int] = {}
    for a, b in pairs:
        if a != b:
            key = (a, b) if a < b else (b, a)
            counts[key] = counts.get(key, 0) + 1
    return counts


def interaction_graph(dag: CircuitDag) -> InteractionGraph:
    return InteractionGraph(tuple(range(dag.n_virt)), pair_counts(dag.two_qubit_operands()))


@dataclass(frozen=True, eq=False)
class Partition:
    """One patch: qubit set, bounding box and cell map.

    ``cells`` holds each qubit's (row, col) in the box: the declared
    positions when the circuit shipped them, otherwise the box filled
    row-major by ascending qubit id.
    """

    pid: int
    qubits: frozenset[int]
    width: int
    height: int
    cells: Mapping[int, tuple[int, int]] | None = None

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

    @property
    def size(self) -> int:
        return len(self.qubits)


@dataclass(frozen=True)
class PartitionRegistry:
    """All partitions of one circuit and, once local mapping ran, each qubit's cell.

    ``pid_of``, built from ``partitions``, sends every qubit of the
    partitions to its partition id, and ``mapping`` to the global id of
    its physical cell (``ChipletBackend.gid``), no two qubits to one cell.
    Both are left out of equality and hashing.
    """

    partitions: tuple[Partition, ...]
    mapping: Mapping[int, int] | None = field(default=None, compare=False)
    pid_of: dict[int, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        ids = [p.pid for p in self.partitions]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate partition ids")
        pid_of: dict[int, int] = {}
        for p in self.partitions:
            overlap = pid_of.keys() & p.qubits
            if overlap:
                raise ValidationError(f"qubits {sorted(overlap)} appear in more than one partition")
            pid_of.update(dict.fromkeys(p.qubits, p.pid))
        object.__setattr__(self, "pid_of", pid_of)
        if self.mapping is None:
            return
        if self.mapping.keys() != pid_of.keys():
            raise ValidationError("cell mapping must cover exactly the partitions' qubits")
        if len(set(self.mapping.values())) != len(self.mapping):  # then name the first shared cell
            holder: dict[int, int] = {}  # cell id -> the first qubit mapped onto it
            for q, gid in self.mapping.items():
                first = holder.setdefault(gid, q)
                if first != q:
                    raise MappingError(f"qubits {first} and {q} mapped onto one cell {gid} "
                                       f"(partitions {pid_of[first]} and {pid_of[q]})")

    def __iter__(self) -> Iterator[Partition]:
        return iter(self.partitions)

    def __len__(self) -> int:
        return len(self.partitions)

    def by_id(self, pid: int) -> Partition:
        for p in self.partitions:
            if p.pid == pid:
                return p
        raise KeyError(pid)

    def check_covers(self, dag: CircuitDag) -> None:
        """Raise ValidationError unless every qubit of ``dag`` lies in a partition."""
        missing = [q for q in range(dag.n_virt) if q not in self.pid_of]
        if missing:
            raise ValidationError(f"qubits {missing[:8]} not covered by any partition")


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
    kinds, qubits, tags = [], [], []  # the DAG's columns
    for i, gate in enumerate(obj["gates"]):
        op = gate["op"]
        qs = tuple(map(int, gate["qubits"]))
        kind = _KIND_BY_NAME.get(op.lower())
        if kind is None:
            if len(qs) > 2:
                raise ValidationError(f"gates[{i}]: unknown op {op!r} with arity {len(qs)}")
            kind = _opaque_kind(op, len(qs) == 2)
        error = _gate_error(kind, qs)
        if error:
            raise ValidationError(f"gates[{i}]: {error}")
        kinds.append(kind)
        qubits.append(qs)
        tags.append(gate.get("tag", ""))
    dag = CircuitDag._from_columns(kinds, qubits, tags, n)

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
