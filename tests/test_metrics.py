"""Compiled-circuit statistics."""

import dataclasses

import pytest

from chipmap.backend import build_backend
from chipmap.errors import CompilerError
from chipmap.ir import CircuitDag, barrier, cx, measure
from chipmap.metrics import stats
from oracles import sim_depth
from test_route import _route, _singletons


def _chip():
    return build_backend({"grid": [1, 1], "chiplet": [5, 5], "allow_non_pow2": True})


def test_count_two_qubit_ignores_rest():
    dag = CircuitDag([cx(0, 1), measure(0), barrier(0, 1), cx(1, 2)], 3)
    two, gates, _, _ = dag.counts(chip_area=3)
    assert (two, gates) == (2, 3)  # barriers are not gates


def test_stats_on_a_routed_gate():
    be = _chip()
    labels, placements = _singletons([(0, 0, 0), (0, 2, 2)])
    gates = [cx(0, 1)]
    compiled = _route(gates, 2, labels, placements, be)
    st = stats(CircuitDag(gates, 2), compiled, be)
    assert st.n_virtual == 2 and st.n_physical == 25
    assert st.swap_count == 6
    assert st.two_qubit_original == 1
    assert st.two_qubit_compiled == 7  # 1 gate + 6 swaps
    assert st.gate_overhead == 7.0
    # every swap costs two extra entangling gates once expanded
    assert st.cx_expanded_two_qubit == 7 + 12
    assert st.cx_expanded_overhead == 19.0
    assert st.depth_original == 1
    assert st.depth_compiled == sim_depth(
        [(g.kind.value, g.qubits) for g in compiled.dag.nodes]
    )
    assert st.inter_chiplet_two_qubit == 0
    assert st.chiplets_used == 1
    assert st.utilization == 2 / 25
    assert st.patch_violations == 0


def test_inter_chiplet_count_and_utilization_modes():
    be = build_backend(
        {
            "grid": [1, 2],
            "chiplet": [3, 3],
            "links": [
                {"a": {"chip": 0, "x": 2, "y": 0}, "b": {"chip": 1, "x": 0, "y": 0}, "eps": 0.01}
            ],
            "allow_non_pow2": True,
        }
    )
    labels, placements = _singletons([(0, 2, 0), (1, 0, 0)])
    gates = [cx(0, 1), cx(0, 1)]
    compiled = _route(gates, 2, labels, placements, be)
    st = stats(CircuitDag(gates, 2), compiled, be)
    assert st.inter_chiplet_two_qubit == 2
    assert st.chiplets_used == 2
    assert st.utilization == 2 / 18
    st_all = stats(CircuitDag(gates, 2), compiled, be, util_all_chiplets=True)
    assert st_all.utilization == 2 / 18  # both chiplets hold a qubit anyway


def test_single_chip_utilization_ignores_empty_chips():
    be = build_backend({"grid": [1, 2], "chiplet": [3, 3], "allow_non_pow2": True})
    labels, placements = _singletons([(0, 0, 0), (0, 1, 1)])
    gates = [cx(0, 1)]
    compiled = _route(gates, 2, labels, placements, be)
    st = stats(CircuitDag(gates, 2), compiled, be)
    assert st.utilization == 2 / 9
    st_all = stats(CircuitDag(gates, 2), compiled, be, util_all_chiplets=True)
    assert st_all.utilization == 2 / 18


def test_empty_circuit_ratios_are_one():
    be = _chip()
    labels, placements = _singletons([(0, 0, 0)])
    compiled = _route([], 1, labels, placements, be)
    st = stats(CircuitDag([], 1), compiled, be)
    assert st.depth_ratio == 1.0
    assert st.gate_overhead == 1.0
    assert st.cx_expanded_overhead == 1.0


def test_barriers_excluded_from_gate_counts():
    be = _chip()
    labels, placements = _singletons([(0, 0, 0), (0, 0, 1)])
    gates = [barrier(0, 1), cx(0, 1), barrier(0, 1)]
    compiled = _route(gates, 2, labels, placements, be)
    st = stats(CircuitDag(gates, 2), compiled, be)
    assert st.gates_original == 1
    assert st.gates_compiled == 1


def test_traversal_mismatch_raises_compiler_error():
    be = build_backend(
        {
            "grid": [1, 2],
            "chiplet": [3, 3],
            "links": [
                {"a": {"chip": 0, "x": 2, "y": 0}, "b": {"chip": 1, "x": 0, "y": 0}, "eps": 0.01}
            ],
            "allow_non_pow2": True,
        }
    )
    labels, placements = _singletons([(0, 2, 0), (1, 0, 0)])
    gates = [cx(0, 1)]
    compiled = _route(gates, 2, labels, placements, be)
    broken = dataclasses.replace(compiled, link_traversals={})
    with pytest.raises(CompilerError, match="link traversals"):
        stats(CircuitDag(gates, 2), broken, be)


def test_wall_time_passthrough_and_dict_shape():
    be = _chip()
    labels, placements = _singletons([(0, 0, 0)])
    compiled = _route([], 1, labels, placements, be)
    st = stats(CircuitDag([], 1), compiled, be, wall_time_s=0.25)
    d = st.as_dict()
    assert d["wall_time_s"] == 0.25
    keys = [
        "n_virtual", "n_physical", "depth_original", "depth_compiled", "depth_ratio",
        "gates_original", "gates_compiled", "two_qubit_original", "two_qubit_compiled",
        "gate_overhead", "cx_expanded_two_qubit", "cx_expanded_overhead", "swap_count",
        "inter_chiplet_two_qubit", "chiplets_used", "utilization", "patch_violations",
    ]
    assert list(d) == keys + ["wall_time_s"]  # the written order of the stats block
    no_time = stats(CircuitDag([], 1), compiled, be)
    assert list(no_time.as_dict()) == keys
