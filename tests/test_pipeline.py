"""End-to-end pipeline wiring and result serialization."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipmap.backend import build_backend
from chipmap.benchgen import gen_backend_for, gen_ls_cnot_circuit, gen_memory_circuit
from chipmap.errors import ValidationError
from chipmap.ir import GateKind, GateNode, Stage, circuit_from_json, gates_to_json
from chipmap.pipeline import CompileOptions, compile_circuit, dumps_compiled, result_to_json
from chipmap.route import RoutingConfig
from chipmap.schema import validate_compiled_doc


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


class TestCompile:
    def test_memory_patch_compiles_clean(self):
        circ, be = _memory_setup()
        result = compile_circuit(circ, be)
        assert result.registry.stage is Stage.MAPPED
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
        assert forced.registry.stage is Stage.MAPPED

    def test_hints_can_be_disabled(self):
        doc = gen_ls_cnot_circuit(3)
        be = build_backend(gen_backend_for(doc))
        circ = circuit_from_json(doc)
        with_hints = compile_circuit(circ, be)
        without = compile_circuit(circ, be, CompileOptions(use_hints=False))
        assert with_hints.registry.stage is without.registry.stage is Stage.MAPPED

    def test_routing_config_reaches_the_router(self):
        doc = gen_ls_cnot_circuit(3)
        be = build_backend(gen_backend_for(doc))
        circ = circuit_from_json(doc)
        opts = CompileOptions(routing=RoutingConfig.from_policy("focus"))
        result = compile_circuit(circ, be, opts)
        assert result.compiled.link_usage  # selections happened under focus


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


_text = st.text(alphabet=st.sampled_from('aZ0 "\\/\n\t\x00\x7f\u00e9\u221a\U0001f600'), max_size=5)
_qubit = st.integers(0, 10**6)


@st.composite
def _gate_nodes(draw):
    kind = draw(st.sampled_from(list(GateKind)))
    if kind is GateKind.BARRIER:
        size = (1, 40)  # wide barriers too
    elif kind.is_two_qubit:
        size = (2, 2)
    else:
        size = (1, 1)
    qubits = draw(st.lists(_qubit, min_size=size[0], max_size=size[1], unique=True))
    return GateNode(kind, tuple(qubits), draw(_text))


_ints = st.integers(0, 10**6)
_counts = st.lists(st.fixed_dictionaries({"a": _ints, "b": _ints, "count": _ints}), max_size=3)
compiled_docs = st.fixed_dictionaries(
    {
        "schema_version": st.just(1),
        "n_physical": _ints,
        "gates": st.lists(_gate_nodes(), max_size=30).map(gates_to_json),
        "mapping": st.dictionaries(
            _ints.map(str),
            st.fixed_dictionaries({"chip": _ints, "x": _ints, "y": _ints}),
            max_size=4,
        ),
        "placements": st.lists(
            st.fixed_dictionaries({k: _ints for k in ("pid", "chip", "x", "y", "w", "h")}),
            max_size=3,
        ),
        "link_usage": _counts,
        "link_traversals": _counts,
        "stats": st.dictionaries(_text, _ints | st.floats(), max_size=4),
        "timings": st.dictionaries(_text, st.floats(0, 10), max_size=3),
    }
)


class TestWriter:
    @settings(max_examples=200, deadline=None)
    @given(compiled_docs)
    def test_matches_json_dumps(self, doc):
        assert dumps_compiled(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize("empty_gates", [False, True])
    def test_matches_json_dumps_on_a_compiled_document(self, empty_gates):
        doc = gen_ls_cnot_circuit(3)
        be = build_backend(gen_backend_for(doc))
        out = result_to_json(compile_circuit(circuit_from_json(doc), be), be)
        if empty_gates:
            out["gates"] = []
        assert dumps_compiled(out) == json.dumps(out, indent=2)
