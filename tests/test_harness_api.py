"""The package names the benchmark harness and the package exports rely on."""

import importlib
import json
from pathlib import Path

import pytest

import chipmap
from chipmap.backend import build_backend
from chipmap.benchgen import gen_backend_for, gen_memory_circuit
from chipmap.gmap import global_map
from chipmap.ir import build_dag, circuit_from_json, cx
from chipmap.partition import predefined_partitions
from chipmap.pipeline import compile_circuit, result_to_json
from chipmap.sequence import build_partition_graph, sequence, sequence_registry

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("module", ["spans", "replay"])
def test_bench_modules_import(module, monkeypatch):
    # spans.py calls the stages one by one; replay.py builds backends
    monkeypatch.syspath_prepend(str(BENCH))
    importlib.import_module(module)


def test_every_exported_name_resolves():
    missing = [name for name in chipmap.__all__ if not hasattr(chipmap, name)]
    assert not missing


def test_stage_calls_return_the_registry_they_were_given():
    """spans.py unpacks ``sequence_registry``'s pair and ``global_map``'s triple."""
    dag = build_dag([cx(0, 2)], 4)
    reg = predefined_partitions(dag, {0: 0, 1: 0, 2: 1, 3: 1})
    pg = build_partition_graph(reg, dag)
    same, order = sequence_registry(reg, pg)
    assert same is reg
    assert order == sequence(pg)
    backend = build_backend({"grid": [1, 1], "chiplet": [4, 4], "allow_non_pow2": True})
    placed, placements, _ = global_map(
        backend, order, reg, mode="size-aware", relative_ref="weight", pg=pg
    )
    assert placed is reg
    assert set(placements) == {0, 1}


def test_traced_compile_matches_compile_circuit(tmp_path, monkeypatch):
    """The harness's stage-by-stage compile gives the library's document."""
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    circuit_doc = gen_memory_circuit(3)
    backend_doc = gen_backend_for(circuit_doc)
    circuit, backend = tmp_path / "mem.json", tmp_path / "be.json"
    circuit.write_text(json.dumps(circuit_doc))
    backend.write_text(json.dumps(backend_doc))
    opts = spans.compile_options({"policy": "tradeoff"})
    traced, _ = spans.traced_compile(
        spans.Tracer(), circuit, backend, tmp_path / "out.json", opts
    )
    be = build_backend(backend_doc)
    direct = result_to_json(compile_circuit(circuit_from_json(circuit_doc), be, opts), be)
    for doc in (traced, direct):
        del doc["timings"], doc["stats"]["wall_time_s"]
    assert traced == direct
