"""Gate DAG construction, depth, parsing, and registry staging."""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipmap.backend import PhysCoord
from chipmap.errors import ValidationError
from chipmap.ir import (
    CircuitInput,
    GateKind,
    GateNode,
    OpaqueKind,
    Partition,
    PartitionRegistry,
    barrier,
    build_dag,
    circuit_from_json,
    cx,
    interaction_graph,
    measure,
    reset,
    swap,
)
from oracles import eager_preds, gate_node_error, gates_to_json, longest_path_depth, sim_depth

# every built-in kind, and an opaque kind of each arity
KINDS = [*GateKind, OpaqueKind("rzz", True), OpaqueKind("t", False)]


class TestGateNode:
    def test_two_qubit_needs_distinct_operands(self):
        with pytest.raises(ValidationError):
            cx(3, 3)

    def test_arity_enforced(self):
        with pytest.raises(ValidationError):
            GateNode(GateKind.MEASURE, (0, 1))
        with pytest.raises(ValidationError):
            GateNode(GateKind.CNOT, (0,))

    def test_barrier_accepts_many_operands(self):
        node = barrier(0, 1, 2)
        assert node.qubits == (0, 1, 2)

    @pytest.mark.parametrize(
        "kind", KINDS, ids=lambda k: f"OpaqueKind.{k.value}" if isinstance(k, OpaqueKind) else None
    )
    def test_is_two_qubit_per_kind(self, kind):
        two = {GateKind.CNOT, GateKind.SWAP, OpaqueKind("rzz", True)}
        assert kind.is_two_qubit is (kind in two)

    def test_barrier_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            barrier(0, 1, 0)

    @pytest.mark.parametrize(
        "node",
        [cx(0, 1), swap(4, 2, "route"), measure(3), barrier(0, 2, 1, tag="round")],
    )
    def test_value_semantics(self, node):
        assert not hasattr(node, "__dict__")  # slotted
        for twin in (pickle.loads(pickle.dumps(node)), copy.deepcopy(node), copy.copy(node)):
            assert twin == node and hash(twin) == hash(node)
            assert (twin.kind, twin.qubits, twin.tag) == (node.kind, node.qubits, node.tag)
        equal = GateNode(node.kind, tuple(node.qubits), node.tag)
        assert equal == node and hash(equal) == hash(node)
        assert GateNode(node.kind, node.qubits, node.tag + "x") != node
        for name, value in (("kind", GateKind.RESET), ("qubits", (7,)), ("tag", "x")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, name, value)
        with pytest.raises((AttributeError, TypeError)):
            node.extra = 1  # no attribute outside the three fields


    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(KINDS),
        qubits=st.lists(st.integers(0, 3), max_size=4).map(tuple),
        tag=st.sampled_from(["", "route", "u"]),
    )
    def test_constructor_matches_operand_rules(self, kind, qubits, tag):
        expected = gate_node_error(kind, qubits)
        valid = GateNode(kind, (0, 1) if kind.is_two_qubit else (0,), tag)
        if expected is None:
            node = GateNode(kind=kind, qubits=qubits, tag=tag)
            assert (node.kind, node.qubits, node.tag) == (kind, qubits, tag)
            assert dataclasses.replace(valid, qubits=qubits) == node
            return
        with pytest.raises(ValidationError) as direct:
            GateNode(kind, qubits, tag)
        assert str(direct.value) == expected
        with pytest.raises(ValidationError) as replaced:
            dataclasses.replace(valid, qubits=qubits)
        assert str(replaced.value) == expected


class TestBuildDag:
    def test_last_writer_edges_hand_case(self):
        # g0 cx(0,1); g1 cx(1,2) depends on g0; g2 cx(0,1) depends on both
        gates = [cx(0, 1), cx(1, 2), cx(0, 1)]
        preds = eager_preds(gates, 3)
        assert preds == ((), (0,), (0, 1))
        assert build_dag(gates, 3).depth() == longest_path_depth(gates, preds) == 3

    def test_parallel_edges_collapse(self):
        gates = [cx(0, 1), cx(0, 1)]
        assert eager_preds(gates, 2) == ((), (0,))
        assert build_dag(gates, 2).depth() == 2

    def test_operand_out_of_range(self):
        with pytest.raises(ValidationError):
            build_dag([cx(0, 5)], 3)

    def test_measurement_and_reset_create_dependencies(self):
        gates = [reset(0), cx(0, 1), measure(0)]
        assert eager_preds(gates, 2) == ((), (0,), (1,))
        assert build_dag(gates, 2).depth() == 3

    def test_depth_hand_case(self):
        gates = [cx(0, 1), cx(1, 2), cx(0, 1)]
        dag = build_dag(gates, 3)
        assert dag.depth() == 3
        assert dag.depth() == sim_depth([("cx", g.qubits) for g in gates])

    def test_barrier_weighs_zero_but_synchronizes(self):
        # without the barrier, measure(1) would sit at depth 1
        gates = [reset(0), barrier(0, 1), measure(1)]
        dag = build_dag(gates, 2)
        assert dag.depth() == 2
        assert dag.depth() == sim_depth([(g.kind.value, g.qubits) for g in gates])


@st.composite
def random_gate_lists(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    n_gates = draw(st.integers(min_value=0, max_value=30))
    gates = []
    for _ in range(n_gates):
        kind = draw(st.sampled_from(["cx", "swap", "measure", "reset", "barrier", "t", "rzz"]))
        if kind == "t":
            gates.append(GateNode(OpaqueKind(kind, False), (draw(st.integers(0, n - 1)),)))
        elif kind in ("measure", "reset"):
            gates.append(GateNode(GateKind(kind), (draw(st.integers(0, n - 1)),)))
        elif kind == "barrier":
            qs = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
            gates.append(GateNode(GateKind.BARRIER, tuple(qs)))
        else:
            a = draw(st.integers(0, n - 1))
            b = draw(st.integers(0, n - 1).filter(lambda x: x != a))
            gates.append(GateNode(
                OpaqueKind(kind, True) if kind == "rzz" else GateKind(kind), (a, b)
            ))
    return n, gates


class TestDagProperties:
    @given(random_gate_lists())
    @settings(max_examples=120, deadline=None)
    def test_depth_matches_availability_simulation(self, case):
        n, gates = case
        dag = build_dag(gates, n)
        assert dag.depth() == sim_depth([(g.kind.value, g.qubits) for g in gates])

    @given(random_gate_lists())
    @settings(max_examples=200, deadline=None)
    def test_lazy_edges_and_depth_match_eager_construction(self, case):
        n, gates = case
        preds = eager_preds(gates, n)
        assert build_dag(gates, n).depth() == longest_path_depth(gates, preds)

    @given(random_gate_lists())
    @settings(max_examples=60, deadline=None)
    def test_edges_point_forward_and_match_preds(self, case):
        # the oracle's edges: each runs forward from the last earlier gate
        # on one of the successor's operands
        n, gates = case
        for i, ps in enumerate(eager_preds(gates, n)):
            last = {}
            for j, g in enumerate(gates[:i]):
                for q in g.qubits:
                    last[q] = j
            assert ps == tuple(sorted({last[q] for q in gates[i].qubits if q in last}))

    @given(random_gate_lists())
    @settings(max_examples=60, deadline=None)
    def test_interaction_graph_counts_two_qubit_gates(self, case):
        n, gates = case
        g = interaction_graph(build_dag(gates, n))
        expected: dict[tuple[int, int], int] = {}
        for node in gates:
            if node.kind.value in ("cx", "swap", "rzz"):
                a, b = sorted(node.qubits)
                expected[(a, b)] = expected.get((a, b), 0) + 1
        assert g.weights == expected


class TestCircuitParsing:
    def test_minimal_document(self):
        ci = circuit_from_json({"n_qubits": 2, "gates": [{"op": "cx", "qubits": [0, 1]}]})
        assert ci.dag.n_virt == 2
        assert ci.dag.nodes[0].kind is GateKind.CNOT
        assert ci.partitions is None

    def test_op_names_case_insensitive(self):
        ci = circuit_from_json({"n_qubits": 2, "gates": [{"op": "CX", "qubits": [1, 0]}]})
        assert ci.dag.nodes[0].kind is GateKind.CNOT

    def test_unknown_op_becomes_opaque_with_name_in_kind(self):
        ci = circuit_from_json({"n_qubits": 2, "gates": [
            {"op": "rzz", "qubits": [0, 1]},
            {"op": "t", "qubits": [0]},
            {"op": "rzz", "qubits": [1, 0], "tag": "prep"},
        ]})
        rzz, t, tagged = ci.dag.nodes
        assert rzz.kind == OpaqueKind("rzz", True) and rzz.tag == ""
        assert t.kind == OpaqueKind("t", False) and t.tag == ""
        assert tagged.kind is rzz.kind and tagged.tag == "prep"  # one instance per name and arity
        twin = pickle.loads(pickle.dumps(tagged))
        assert twin == tagged and hash(twin) == hash(tagged)

    def test_unknown_op_with_bad_arity_rejected(self):
        with pytest.raises(ValidationError, match="arity"):
            circuit_from_json({"n_qubits": 3, "gates": [{"op": "ccx", "qubits": [0, 1, 2]}]})

    @pytest.mark.parametrize(
        "doc",
        [
            {"gates": []},
            {"n_qubits": -1, "gates": []},
            {"n_qubits": 2, "gates": [{"qubits": [0]}]},
            {"n_qubits": 2, "gates": [{"op": "cx", "qubits": [0, "x"]}]},
            {"n_qubits": 2, "gates": [], "partitions": {"bad": 0}},
            {"n_qubits": 2, "gates": [], "partitions": {"5": 0}},
            {"n_qubits": 1, "gates": [], "partition_geometry": {"0": {"width": 2}}},
            {"n_qubits": 1, "gates": [], "layout_hints": {"0": {"dir": "above", "ref": 1}}},
        ],
    )
    def test_malformed_documents_rejected(self, doc):
        with pytest.raises(ValidationError):
            circuit_from_json(doc)

    @pytest.mark.parametrize("other", ["03", "3\n"])
    @pytest.mark.parametrize(
        "section",
        ["partitions", "partition_geometry", "locals", "layout_hints"],
    )
    def test_one_id_spelled_two_ways_rejected(self, section, other):
        doc = {"n_qubits": 4, "gates": []}
        box = {"width": 2, "height": 2}
        hint = {"dir": "below", "ref": 0}
        if section == "partitions":
            doc["partitions"] = {"3": 0, other: 1}
        elif section == "partition_geometry":
            doc["partition_geometry"] = {"3": box, other: box}
        elif section == "locals":
            doc["partition_geometry"] = {"0": {**box, "locals": {"3": [0, 0], other: [0, 1]}}}
        else:
            doc["layout_hints"] = {"3": hint, other: hint}
        with pytest.raises(ValidationError) as info:
            circuit_from_json(doc)
        assert repr("3") in str(info.value) and repr(other) in str(info.value)

    def test_partitions_and_geometry_parsed(self):
        ci = circuit_from_json(
            {
                "n_qubits": 2,
                "gates": [],
                "partitions": {"0": 0, "1": 0},
                "partition_geometry": {
                    "0": {"width": 2, "height": 1, "locals": {"0": [0, 0], "1": [0, 1]}}
                },
                "layout_hints": {"0": {"dir": "right", "ref": 1}},
            }
        )
        assert ci.partitions == {0: 0, 1: 0}
        assert ci.geometry[0].cells == {0: (0, 0), 1: (0, 1)}
        assert ci.layout_hints[0].direction == "right"

    def test_gates_roundtrip(self):
        doc = {
            "n_qubits": 3,
            "gates": [
                {"op": "reset", "qubits": [0]},
                {"op": "cx", "qubits": [0, 1], "tag": "merge"},
                {"op": "rzz", "qubits": [1, 2]},
                {"op": "barrier", "qubits": [0, 1, 2]},
                {"op": "measure", "qubits": [0]},
            ],
        }
        ci = circuit_from_json(doc)
        again = circuit_from_json({"n_qubits": 3, "gates": gates_to_json(ci.dag.nodes)})
        assert again.dag.nodes == ci.dag.nodes


def _parts(*qubit_sets, width=3, height=3):
    return PartitionRegistry(
        tuple(
            Partition(i, frozenset(qs), width, height) for i, qs in enumerate(qubit_sets)
        )
    )


class TestPartitionRegistry:
    def test_overlapping_partitions_rejected(self):
        with pytest.raises(ValidationError, match="more than one partition"):
            _parts({0, 1}, {1, 2})

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError):
            PartitionRegistry(
                (Partition(0, frozenset({0}), 1, 1), Partition(0, frozenset({1}), 1, 1))
            )

    def test_box_must_hold_qubits(self):
        with pytest.raises(ValidationError):
            Partition(0, frozenset(range(5)), 2, 2)

    def test_declared_cell_outside_box_rejected(self):
        with pytest.raises(ValidationError):
            Partition(0, frozenset({0}), 2, 2, cells={0: (2, 0)})

    @pytest.mark.parametrize("covered", [(0,), (0, 1, 2)], ids=["short", "extra"])
    def test_coordinate_map_must_cover_exactly_its_qubits(self, covered):
        coords = {q: PhysCoord(0, q, 0) for q in covered}
        with pytest.raises(ValidationError, match="partition 4: coordinate map"):
            Partition(4, frozenset({0, 1}), 2, 1, coords=coords)

    def test_qubit_map_covers_partitions(self):
        reg = _parts({0, 2}, {1})
        assert reg.qubit_map() == {0: 0, 2: 0, 1: 1}
        assert set(reg.qubit_map()) == {0, 1, 2}
