"""The package names the benchmark harness and the package exports rely on."""

import importlib
import json
from pathlib import Path

import pytest

import chipmap
from chipmap.backend import build_backend
from chipmap.benchgen import gen_backend_for, gen_memory_circuit
from chipmap.ir import circuit_from_json
from chipmap.pipeline import compile_circuit, result_to_json

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("module", ["spans", "replay"])
def test_bench_modules_import(module, monkeypatch):
    # spans.py calls the stages one by one; replay.py builds backends
    monkeypatch.syspath_prepend(str(BENCH))
    importlib.import_module(module)


def test_every_exported_name_resolves():
    missing = [name for name in chipmap.__all__ if not hasattr(chipmap, name)]
    assert not missing


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
