"""End-to-end pipeline wiring and result serialization."""

import dataclasses
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipmap.backend import ChipletBackend, PhysCoord, build_backend
from chipmap.benchgen import gen_backend_for, gen_ls_cnot_circuit, gen_memory_circuit
from chipmap.errors import ValidationError
from chipmap.gmap import Placement
from chipmap.ir import (
    GateKind,
    GateNode,
    OpaqueKind,
    PartitionRegistry,
    build_dag,
    circuit_from_json,
)
from chipmap.metrics import CompileStats
from chipmap.pipeline import (
    CompileOptions,
    CompileResult,
    compile_circuit,
    dumps_compiled,
    result_to_json,
)
from chipmap.route import CompiledCircuit, RoutingConfig
from chipmap.schema import validate_compiled_doc
from chipmap.sequence import SequencedOrder
from oracles import compiled_document


def _memory_setup(d=3, **backend_kw):
    doc = gen_memory_circuit(d)
    be = build_backend(gen_backend_for(doc, **backend_kw))
    return circuit_from_json(doc), be


class TestOptions:
    def test_defaults(self):
        opts = CompileOptions()
        assert opts.partitions == "auto"
        assert opts.placement == "center"
        assert opts.routing.policy == "basic"

    @pytest.mark.parametrize(
        "kw",
        [
            {"partitions": "manual"},
            {"placement": "middle"},
            {"relative_ref": "nearest"},
            {"imbalance": -0.1},
            {"detection_budget": 0},
        ],
    )
    def test_bad_options_rejected(self, kw):
        with pytest.raises(ValidationError):
            CompileOptions(**kw)

    @pytest.mark.parametrize(
        "kw, message",
        [
            ({"imbalance": "abc"}, "CompileOptions.imbalance must be a finite number, got 'abc'"),
            ({"imbalance": True}, "CompileOptions.imbalance must be a finite number, got True"),
            ({"imbalance": float("inf")}, "CompileOptions.imbalance must be a finite number"),
            ({"detection_budget": 2.0}, "CompileOptions.detection_budget must be an integer"),
            ({"seed": False}, "CompileOptions.seed must be an integer, got False"),
            ({"use_hints": 1}, "CompileOptions.use_hints must be a boolean, got 1"),
            ({"partitions": ["auto"]}, "CompileOptions.partitions must be a string"),
            ({"routing": {}}, "CompileOptions.routing must be a RoutingConfig, got {}"),
        ],
    )
    def test_wrong_types_rejected_by_name(self, kw, message):
        with pytest.raises(ValidationError) as info:
            CompileOptions(**kw)
        assert str(info.value).startswith(message)


class TestCompile:
    def test_memory_patch_compiles_clean(self):
        circ, be = _memory_setup()
        result = compile_circuit(circ, be)
        assert all(p.coords is not None for p in result.registry)
        assert result.compiled.swap_count == 0
        assert result.stats.depth_ratio == 1.0
        assert result.stats.inter_chiplet_two_qubit == 0
        assert set(result.timings) == {
            "partition", "sequence", "global_map", "local_map", "route", "total",
        }

    def test_ls_cnot_blocks_use_multiple_chiplets(self):
        doc = gen_ls_cnot_circuit(3)
        be = build_backend(gen_backend_for(doc))
        result = compile_circuit(circuit_from_json(doc), be)
        assert result.stats.chiplets_used >= 2
        assert result.stats.inter_chiplet_two_qubit > 0

    def test_predefined_mode_requires_declared_partitions(self):
        doc = gen_memory_circuit(3)
        doc.pop("partitions")
        doc.pop("partition_geometry")
        circ = circuit_from_json(doc)
        be = build_backend({"grid": [1, 1], "chiplet": [8, 8], "allow_non_pow2": True})
        with pytest.raises(ValidationError, match="predefined"):
            compile_circuit(circ, be, CompileOptions(partitions="predefined"))

    def test_detect_mode_ignores_declared_partitions(self):
        circ, be = _memory_setup()
        forced = compile_circuit(circ, be, CompileOptions(partitions="detect"))
        declared = compile_circuit(circ, be)
        assert len(declared.registry) == 1
        # detection may split the patch differently; the result must still map
        assert all(p.coords is not None for p in forced.registry)

    def test_hints_can_be_disabled(self):
        doc = gen_ls_cnot_circuit(3)
        be = build_backend(gen_backend_for(doc))
        circ = circuit_from_json(doc)
        with_hints = compile_circuit(circ, be)
        without = compile_circuit(circ, be, CompileOptions(use_hints=False))
        for result in (with_hints, without):
            assert all(p.coords is not None for p in result.registry)

    def test_routing_config_reaches_the_router(self):
        doc = gen_ls_cnot_circuit(3)
        be = build_backend(gen_backend_for(doc))
        circ = circuit_from_json(doc)
        opts = CompileOptions(routing=RoutingConfig.from_policy("focus"))
        result = compile_circuit(circ, be, opts)
        assert result.compiled.link_usage  # selections happened under focus


class TestSharedBackend:
    def test_concurrent_compiles_match_a_serial_one(self):
        # routing counts link usage per run, so compiles may share one backend
        doc = gen_ls_cnot_circuit(5, 4)
        be = build_backend(gen_backend_for(doc, n_inter=2))
        circ = circuit_from_json(doc)
        opts = CompileOptions(routing=RoutingConfig.from_policy("tradeoff"))
        serial = compile_circuit(circ, be, opts).compiled
        assert sum(serial.link_usage.values()) > 8  # the beta term sees congestion
        start = threading.Barrier(8)

        def run():
            start.wait(timeout=30)
            return compile_circuit(circ, be, opts).compiled

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)  # interleave the threads finely
        t0 = time.perf_counter()
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(run) for _ in range(8)]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert time.perf_counter() - t0 < 60
        for compiled in results:
            assert compiled.link_usage == serial.link_usage
            assert compiled.dag.nodes == serial.dag.nodes


class TestSerialization:
    def test_document_validates_and_is_deterministic(self):
        doc = gen_ls_cnot_circuit(3)
        be = build_backend(gen_backend_for(doc))
        circ = circuit_from_json(doc)
        out1 = result_to_json(compile_circuit(circ, be), be)
        out2 = result_to_json(compile_circuit(circ, be), be)
        validate_compiled_doc(out1)
        for out in (out1, out2):
            out.pop("timings")
            out["stats"].pop("wall_time_s", None)
        assert out1 == out2

    def test_document_shape(self):
        circ, be = _memory_setup()
        out = result_to_json(compile_circuit(circ, be), be)
        assert out["schema_version"] == 1
        assert out["n_physical"] == be.n_qubits
        assert len(out["mapping"]) == 25
        assert [p["pid"] for p in out["placements"]] == [0]
        assert out["stats"]["swap_count"] == 0
        assert all(v >= 0 for v in out["timings"].values())


_text = st.text(alphabet=st.sampled_from('aZ0 "\\/%\n\t\x00\x7f\u00e9\u221a\U0001f600'), max_size=5)
_qubit = st.integers(0, 10**6)


@st.composite
def _gate_nodes(draw):
    kind = draw(st.sampled_from([*GateKind, OpaqueKind("rzz", True), OpaqueKind("t", False)]))
    if kind is GateKind.BARRIER:
        size = (1, 40)  # wide barriers too
    elif kind.is_two_qubit:
        size = (2, 2)
    else:
        size = (1, 1)
    qubits = draw(st.lists(_qubit, min_size=size[0], max_size=size[1], unique=True))
    return GateNode(kind, tuple(qubits), draw(_text))


_ints = st.integers(0, 10**6)
_small = st.integers(1, 40)


def _stats_field(f: dataclasses.Field):
    if f.name == "wall_time_s":
        return st.none() | st.floats()
    return _ints if f.type == "int" else st.floats()  # NaN and infinities too


@st.composite
def compile_results(draw):
    """A backend and a CompileResult with arbitrary contents in every written field.

    Only the fields the document is written from are filled; the registry and
    sequencing order are empty.
    """
    backend = ChipletBackend(*(draw(_small) for _ in range(4)))
    placements = draw(
        st.lists(st.builds(Placement, *[_ints] * 6), max_size=3, unique_by=lambda p: p.pid)
    )
    compiled = CompiledCircuit(
        dag=build_dag(draw(st.lists(_gate_nodes(), max_size=30)), 10**6 + 1),
        mapping=draw(
            st.dictionaries(_ints, st.builds(PhysCoord, _ints, _ints, _ints), max_size=4)
        ),
        swap_count=draw(_ints),
        link_usage=draw(st.dictionaries(st.tuples(_ints, _ints), _ints, max_size=3)),
        link_traversals=draw(st.dictionaries(st.tuples(_ints, _ints), _ints, max_size=3)),
        patch_violations=draw(_ints),
        restore_mapping=True,
    )
    report = CompileStats(
        **{f.name: draw(_stats_field(f)) for f in dataclasses.fields(CompileStats)}
    )
    result = CompileResult(
        compiled=compiled,
        registry=PartitionRegistry(()),
        placements={p.pid: p for p in placements},
        order=SequencedOrder(()),
        stats=report,
        timings=draw(st.dictionaries(_text, st.floats(0, 10), max_size=3)),
    )
    return result, backend


@st.composite
def tagged_circuits(draw):
    """An ls-cnot d=3 circuit with opaque and tagged gates spliced in.

    Opaque gates keep their name beside the drawn tag, so both are
    written. The generated gates are kept or dropped as a whole, so
    the list may hold only spliced gates, or none.
    """
    doc = gen_ls_cnot_circuit(3)
    n = doc["n_qubits"]
    gates = doc["gates"] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(0, 6))):
        qubits = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True))
        op = draw(st.sampled_from(["u", "reset"] if len(qubits) == 1 else ["u2", "cx"]))
        tag = draw(_text)
        gate = {"op": op, "qubits": qubits}
        if tag:
            gate["tag"] = tag
        gates.insert(draw(st.integers(0, len(gates))), gate)
    doc["gates"] = gates
    return doc


def _written(result, backend):
    return json.dumps(compiled_document(result, backend), indent=2)


class TestWriter:
    @settings(max_examples=200, deadline=None)
    @given(compile_results())
    def test_matches_json_dumps(self, case):
        result, backend = case
        assert dumps_compiled(result, backend) == _written(result, backend)

    @pytest.mark.parametrize("empty_gates", [False, True])
    def test_matches_json_dumps_on_a_compiled_document(self, empty_gates):
        doc = gen_ls_cnot_circuit(3)
        be = build_backend(gen_backend_for(doc))
        result = compile_circuit(circuit_from_json(doc), be)
        if empty_gates:
            result.compiled.dag = build_dag([], be.n_qubits)
        assert dumps_compiled(result, be) == _written(result, be)

    @settings(max_examples=25, deadline=None)
    @given(tagged_circuits())
    def test_matches_json_dumps_on_random_compiled_circuits(self, doc):
        be = build_backend(gen_backend_for(gen_ls_cnot_circuit(3)))
        result = compile_circuit(circuit_from_json(doc), be)
        assert dumps_compiled(result, be) == _written(result, be)
