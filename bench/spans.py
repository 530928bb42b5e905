"""Traced compile: the CLI's layers, timed from outside.

``traced_compile`` repeats the option wiring of ``chipmap compile``
through public calls only, with a span around each call: load, schema
check, parse, backend build, coupling graph, partition (predefined, or
detection and k-way bisection), sequence, global map, local map, route,
stats, serialize, dump and write. Spans live in memory until the compile
ends.

Run as a script, it compiles one circuit in a fresh interpreter, as the
CLI does, and writes its spans, counts and output digest to a record:

    PYTHONPATH=src python3 bench/spans.py CIRCUIT BACKEND OUT OPTIONS_JSON RECORD
"""

from __future__ import annotations

import json
import logging
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from chipmap.backend import CouplingGraph, build_backend
from chipmap.errors import CompilerError
from chipmap.gmap import global_map
from chipmap.ir import circuit_from_json, interaction_graph
from chipmap.lmap import local_map
from chipmap.metrics import stats
from chipmap.partition import estimate_partition_count, kway_partition, predefined_partitions
from chipmap.pipeline import CompileOptions, CompileResult, result_to_json
from chipmap.route import RoutingConfig, route_circuit
from chipmap.schema import validate_backend_doc, validate_circuit_doc
from chipmap.sequence import build_partition_graph, sequence_registry
from replay import digest

# Span name -> per-layer metric it feeds. Spans under "partition" are
# summed into it; the split stays in the span record.
LAYER_METRICS = {
    "cli.load": "cli.load_s",
    "schema.check": "schema.check_s",
    "ir.parse": "ir.parse_s",
    "backend.build": "backend.build_s",
    "backend.coupling": "backend.coupling_s",
    "partition": "partition.s",
    "sequence": "sequence.s",
    "gmap": "gmap.s",
    "lmap": "lmap.s",
    "route": "route.s",
    "metrics.stats": "metrics.stats_s",
    "pipeline.serialize": "pipeline.serialize_s",
    "cli.dump": "cli.dump_s",
    "cli.write": "cli.write_s",
}


class Tracer:
    """Span recorder: name, start, end and parent of each span of one compile."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter() - self.origin,
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        except BaseException as exc:
            record["error"] = type(exc).__name__
            raise
        finally:
            record["end"] = time.perf_counter() - self.origin
            self._open.pop()


def layer_seconds(spans: list[dict]) -> dict[str, float]:
    """Seconds per layer metric, from the spans of one compile."""
    return {
        LAYER_METRICS[s["name"]]: s["end"] - s["start"]
        for s in spans
        if s["name"] in LAYER_METRICS
    }


def compile_options(options: dict) -> CompileOptions:
    """CompileOptions for the CLI flags in ``options``, as ``chipmap compile`` builds them."""
    opts = dict(options)
    routing = RoutingConfig.from_policy(opts.pop("policy", "basic"))
    return CompileOptions(routing=routing, **opts)


def traced_compile(
    tracer: Tracer,
    circuit_file: Path,
    backend_file: Path,
    out_file: Path,
    opts: CompileOptions,
) -> tuple[dict, dict]:
    """Compile one circuit under spans; return the compiled document and layer counts.

    Raises the compiler's own errors exactly where the CLI would fail.
    """
    span = tracer.span
    counts: dict[str, int] = {}
    with span("compile"):
        with span("cli.load"):
            circuit_doc = json.loads(circuit_file.read_text())
            backend_doc = json.loads(backend_file.read_text())
        counts["cli.load_bytes"] = circuit_file.stat().st_size + backend_file.stat().st_size
        with span("schema.check"):
            validate_circuit_doc(circuit_doc)
            validate_backend_doc(backend_doc)
        with span("ir.parse"):
            circuit = circuit_from_json(circuit_doc)
        counts["ir.gates_in"] = len(circuit.dag.nodes)
        with span("backend.build"):
            backend = build_backend(backend_doc)
        with span("backend.coupling"):
            graph = CouplingGraph(backend)
        counts["backend.links"] = len(backend.links)

        stage_start = time.perf_counter()
        timings: dict[str, float] = {}
        with span("partition") as s:
            if circuit.partitions is not None and opts.partitions != "detect":
                with span("partition.predefined"):
                    registry = predefined_partitions(
                        circuit.dag, circuit.partitions, circuit.geometry
                    )
            else:
                with span("partition.detect"):
                    g = interaction_graph(circuit.dag)
                    k, sizes = estimate_partition_count(g, opts.detection_budget)
                with span("partition.kway"):
                    registry = kway_partition(g, k, sizes, opts.imbalance, opts.seed)
        timings["partition"] = s["end"] - s["start"]
        counts["partition.count"] = len(registry)
        with span("sequence") as s:
            pg = build_partition_graph(registry, circuit.dag)
            registry, order = sequence_registry(registry, pg)
        timings["sequence"] = s["end"] - s["start"]
        with span("gmap") as s:
            registry, placements, bins = global_map(
                backend,
                order,
                registry,
                mode=opts.placement,
                relative_ref=opts.relative_ref,
                pg=pg,
                hints=circuit.layout_hints if opts.use_hints else None,
            )
        timings["global_map"] = s["end"] - s["start"]
        counts["gmap.free_regions"] = sum(len(r) for r in bins.free.values())
        with span("lmap") as s:
            registry = local_map(backend, registry, placements)
        timings["local_map"] = s["end"] - s["start"]
        with span("route") as s:
            compiled = route_circuit(circuit.dag, registry, backend, opts.routing, graph=graph)
        timings["route"] = s["end"] - s["start"]
        timings["total"] = time.perf_counter() - stage_start
        counts["route.gates_out"] = len(compiled.dag.nodes)
        counts["route.swaps"] = compiled.swap_count
        counts["route.crossings"] = sum(compiled.link_usage.values())

        with span("metrics.stats"):
            report = stats(
                circuit.dag,
                compiled,
                backend,
                util_all_chiplets=opts.util_all_chiplets,
                wall_time_s=timings["total"],
            )
        result = CompileResult(compiled, registry, placements, order, report, timings)
        with span("pipeline.serialize"):
            doc = result_to_json(result, backend)
        with span("cli.dump"):
            text = json.dumps(doc, indent=2) + "\n"
        with span("cli.write"):
            out_file.write_text(text)
        counts["cli.out_bytes"] = out_file.stat().st_size
    return doc, counts


def main(argv: list[str]) -> int:
    circuit_file, backend_file, out_file, options, record_file = argv
    logging.basicConfig(  # as chipmap.cli configures it
        level=logging.INFO,
        handlers=[logging.StreamHandler(sys.stderr)],
        format="%(levelname)s %(name)s: %(message)s",
        force=True,
    )
    tracer = Tracer()
    record: dict = {"ok": True, "error": ""}
    try:
        doc, counts = traced_compile(
            tracer, Path(circuit_file), Path(backend_file), Path(out_file),
            compile_options(json.loads(options)),
        )
    except CompilerError as exc:
        record.update(ok=False, error=f"{type(exc).__name__}: {exc}")
    else:
        record.update(
            counts=counts,
            digest=digest(doc),
            document={
                "route.swaps": doc["stats"]["swap_count"],
                "route.crossings": sum(u["count"] for u in doc["link_usage"]),
                "route.gates_out": len(doc["gates"]),
            },
        )
    record["spans"] = tracer.spans
    Path(record_file).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
