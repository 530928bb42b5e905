"""Five-stage compilation pipeline.

partition -> sequence -> global map -> local map -> route, with
per-stage wall times and a metrics report at the end. Every stage is
also callable on its own; this module only wires them together.
"""

from __future__ import annotations

import io
import json
import logging
import time
from dataclasses import dataclass, field
from itertools import chain, groupby
from json.encoder import encode_basestring_ascii
from typing import Callable, Mapping

from .backend import ChipletBackend
from .errors import ValidationError, check_field_types
from .gmap import PLACEMENT_MODES, REF_MODES, Placement, global_map
from .ir import (
    CircuitDag,
    CircuitInput,
    GateKind,
    OpaqueKind,
    PartitionRegistry,
    interaction_graph,
)
from .lmap import local_map
from .metrics import CompileStats, stats
from .partition import (
    DEFAULT_DETECTION_BUDGET,
    estimate_partition_count,
    kway_partition,
    predefined_partitions,
)
from .route import CompiledCircuit, RoutingConfig, route_circuit
from .sequence import SequencedOrder, build_partition_graph, sequence

log = logging.getLogger(__name__)

PARTITION_MODES = ("auto", "predefined", "detect")


@dataclass(frozen=True)
class CompileOptions:
    """Knobs for a full compilation run.

    ``partitions="auto"`` adopts circuit-declared patches when present
    and falls back to community detection; the other values force one
    source. ``use_hints`` controls whether declared layout hints steer
    relative placement.
    """

    partitions: str = "auto"
    imbalance: float = 0.03
    detection_budget: int = DEFAULT_DETECTION_BUDGET
    placement: str = "center"
    relative_ref: str = "weight"
    use_hints: bool = True
    routing: RoutingConfig = field(default_factory=RoutingConfig)
    util_all_chiplets: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.partitions not in PARTITION_MODES:
            raise ValidationError(f"partitions must be one of {PARTITION_MODES}")
        if self.placement not in PLACEMENT_MODES:
            raise ValidationError(f"placement must be one of {PLACEMENT_MODES}")
        if self.relative_ref not in REF_MODES:
            raise ValidationError(f"relative_ref must be one of {REF_MODES}")
        if self.imbalance < 0:
            raise ValidationError("imbalance must be nonnegative")
        if self.detection_budget < 1:
            raise ValidationError("detection_budget must be positive")


@dataclass
class CompileResult:
    compiled: CompiledCircuit
    registry: PartitionRegistry
    placements: dict[int, Placement]
    order: SequencedOrder
    stats: CompileStats
    timings: dict[str, float]


def compile_circuit(
    circuit: CircuitInput,
    backend: ChipletBackend,
    options: CompileOptions | None = None,
) -> CompileResult:
    """Run the whole pipeline on one circuit and backend."""
    opts = options or CompileOptions()
    timings: dict[str, float] = {}
    t_start = time.perf_counter()

    t0 = t_start
    if opts.partitions == "predefined" and circuit.partitions is None:
        raise ValidationError("circuit declares no partitions but predefined mode was forced")
    if circuit.partitions is not None and opts.partitions != "detect":
        registry = predefined_partitions(circuit.dag, circuit.partitions, circuit.geometry)
    else:
        if opts.partitions == "auto" and circuit.partitions is None:
            log.info("no declared partitions, detecting communities")
        g = interaction_graph(circuit.dag)
        k, sizes = estimate_partition_count(g, opts.detection_budget)
        registry = kway_partition(g, k, sizes, opts.imbalance, opts.seed)
    timings["partition"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    pg = build_partition_graph(registry, circuit.dag)
    order = sequence(pg)
    timings["sequence"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    hints = circuit.layout_hints if opts.use_hints else None
    _, placements, _ = global_map(
        backend,
        order,
        registry,
        mode=opts.placement,
        relative_ref=opts.relative_ref,
        pg=pg,
        hints=hints,
    )
    timings["global_map"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    registry = local_map(backend, registry, placements)
    timings["local_map"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    compiled = route_circuit(circuit.dag, registry, backend, opts.routing)
    timings["route"] = time.perf_counter() - t0

    timings["total"] = time.perf_counter() - t_start
    report = stats(
        circuit.dag,
        compiled,
        backend,
        util_all_chiplets=opts.util_all_chiplets,
        wall_time_s=timings["total"],
    )
    return CompileResult(
        compiled=compiled,
        registry=registry,
        placements=placements,
        order=order,
        stats=report,
        timings=timings,
    )


def result_to_json(result: CompileResult, backend: ChipletBackend) -> dict:
    """The compiled-circuit document as a dict: ``dumps_compiled``'s text, parsed."""
    return json.loads(dumps_compiled(result, backend))


def dumps_compiled(result: CompileResult, backend: ChipletBackend) -> str:
    """The compiled-circuit document as one string: ``write_compiled`` into a buffer."""
    buf = io.StringIO()
    write_compiled(result, backend, buf.write)
    return buf.getvalue()


# One gate and one mapping entry, nested one level deep, as
# json.dumps(indent=2) lays them out.
_GATE = '{\n      "op": %s,\n      "qubits": [\n        %s\n      ]%s\n    }'
_COORD = '"%d": {\n      "chip": %d,\n      "x": %d,\n      "y": %d\n    }'
_SEP = ",\n    "  # between the items of the gate array and of the mapping


def write_compiled(
    result: CompileResult, backend: ChipletBackend, write: Callable[[str], object]
) -> None:
    """Write the compiled-circuit document through ``write``, piece by piece.

    The text is laid out as ``json.dumps(indent=2)`` does. The gate array
    and the mapping, which hold nearly all of a document, are written from
    the DAG's columns and the cell ids, read as chip and cell through
    ``backend.coord_columns``, through fixed templates, one run of gates at a time,
    so the document is never one string; every other field is encoded by
    ``json.dumps``.
    """
    compiled = result.compiled

    def encoded(value: object) -> str:
        return json.dumps(value, indent=2).replace("\n", "\n  ")

    def pairs(counts: dict[tuple[int, int], int]) -> list[dict]:
        return [{"a": a, "b": b, "count": n} for (a, b), n in sorted(counts.items())]

    write(f'{{\n  "schema_version": 1,\n  "n_physical": {encoded(backend.n_qubits)},\n  "gates": ')
    _write_gates(compiled.dag, write)
    write(',\n  "mapping": ')
    write(_dumps_mapping(compiled.mapping, backend))
    rest = {
        "placements": [
            {"pid": p.pid, "chip": p.chip, "x": p.x, "y": p.y, "w": p.w, "h": p.h}
            for p in (result.placements[pid] for pid in sorted(result.placements))
        ],
        "link_usage": pairs(compiled.link_usage),
        "link_traversals": pairs(compiled.link_traversals),
        "stats": result.stats.as_dict(),
        "timings": {k: round(v, 6) for k, v in result.timings.items()},
    }
    for key, value in rest.items():
        write(f',\n  "{key}": {encoded(value)}')
    write("\n}")


def _write_gates(dag: CircuitDag, write: Callable[[str], object]) -> None:
    """The gate array in its interchange form, as ``json.dumps(indent=2)`` lays it out.

    Each gate writes its kind's name, and its tag when it has one.
    Consecutive gates of one shape (kind, tag, arity) share a template,
    so each such run is formatted with one ``%`` and written at once.
    """
    if not dag.kinds:
        write("[]")
        return
    templates: dict[tuple[GateKind | OpaqueKind, str, int], str] = {}
    qubits = dag.qubits
    start = 0
    sep = "[\n    "
    for shape, run in groupby(zip(dag.kinds, dag.tags, map(len, qubits))):
        template = templates.get(shape)
        if template is None:
            template = templates[shape] = _gate_template(*shape)
        end = start + len(list(run))
        operands = tuple(chain.from_iterable(qubits[start:end]))
        write((sep + _SEP.join([template] * (end - start))) % operands)
        sep = _SEP
        start = end
    write("\n  ]")


def _gate_template(kind: GateKind | OpaqueKind, tag: str, arity: int) -> str:
    """One gate's text with its ``arity`` operands left as ``%d`` slots."""
    enc = encode_basestring_ascii
    op, tag_field = enc(kind.value), (',\n      "tag": ' + enc(tag) if tag else "")
    slots = ",\n        ".join(["%d"] * arity)
    return _GATE % (op.replace("%", "%%"), slots, tag_field.replace("%", "%%"))


def _dumps_mapping(mapping: Mapping[int, int], backend: ChipletBackend) -> str:
    """The mapping, id to chip and cell, as ``json.dumps(indent=2)`` lays it out."""
    if not mapping:
        return "{}"
    virts = sorted(mapping)
    values = [0] * (4 * len(virts))  # virtual id, chip, x and y of each entry in turn
    values[0::4] = virts
    values[1::4], values[2::4], values[3::4] = backend.coord_columns([mapping[v] for v in virts])
    return "{\n    " + _SEP.join([_COORD] * len(mapping)) % tuple(values) + "\n  }"
