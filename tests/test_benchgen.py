"""Generated benchmark circuits and matching backend documents."""

import itertools

import pytest

from chipmap.backend import build_backend
from chipmap.benchgen import gen_backend_for, gen_ls_cnot_circuit, gen_memory_circuit
from chipmap.errors import ValidationError
from chipmap.ir import circuit_from_json
from chipmap.schema import validate_backend_doc, validate_circuit_doc


class TestMemory:
    def test_d3_patch_structure(self):
        doc = gen_memory_circuit(3)
        assert doc["n_qubits"] == 25  # (2*3-1)^2
        geo = doc["partition_geometry"]["0"]
        assert geo["width"] == geo["height"] == 5
        data = [q for q, (r, c) in ((int(q), rc) for q, rc in geo["locals"].items()) if (r + c) % 2 == 0]
        assert len(data) == 13
        assert all(int(v) == 0 for v in doc["partitions"].values())

    def test_d3_round_gate_counts(self):
        doc = gen_memory_circuit(3, rounds=1)
        ops = [g["op"] for g in doc["gates"]]
        assert ops.count("reset") == 12
        assert ops.count("measure") == 12
        assert ops.count("cx") == 40  # every grid edge of the 5x5 box
        assert ops.count("barrier") == 3

    def test_rounds_scale_linearly(self):
        one = gen_memory_circuit(3, rounds=1)
        three = gen_memory_circuit(3, rounds=3)
        assert len(three["gates"]) == 3 * len(one["gates"])

    def test_entangling_gates_are_ancilla_led_neighbors(self):
        doc = gen_memory_circuit(5)
        side = 9
        locals_ = {int(q): tuple(rc) for q, rc in doc["partition_geometry"]["0"]["locals"].items()}
        for g in doc["gates"]:
            if g["op"] != "cx":
                continue
            a, b = g["qubits"]
            (ra, ca), (rb, cb) = locals_[a], locals_[b]
            assert (ra + ca) % 2 == 1, "control must be an ancilla"
            assert (rb + cb) % 2 == 0, "target must be a data qubit"
            assert abs(ra - rb) + abs(ca - cb) == 1

    def test_parses_and_validates(self):
        doc = gen_memory_circuit(3)
        validate_circuit_doc(doc)
        circ = circuit_from_json(doc)
        assert circ.dag.n_virt == 25
        assert circ.partitions == {q: 0 for q in range(25)}

    @pytest.mark.parametrize("d", [1, 2, 4, -3])
    def test_bad_distance_rejected(self, d):
        with pytest.raises(ValidationError, match="distance"):
            gen_memory_circuit(d)

    def test_bad_rounds_rejected(self):
        with pytest.raises(ValidationError, match="rounds"):
            gen_memory_circuit(3, rounds=0)


class TestLsCnot:
    def test_three_patches_per_block(self):
        doc = gen_ls_cnot_circuit(3, n_cnots=2)
        assert doc["n_qubits"] == 2 * 3 * 25
        assert set(doc["partition_geometry"]) == {str(p) for p in range(6)}
        sizes = {}
        for q, pid in doc["partitions"].items():
            sizes[pid] = sizes.get(pid, 0) + 1
        assert sizes == {p: 25 for p in range(6)}

    def test_merge_pairs_touch_facing_data_rows(self):
        d = 3
        side = 5
        doc = gen_ls_cnot_circuit(d)
        merges = [g for g in doc["gates"] if g.get("tag") == "merge"]
        assert len(merges) == 2 * d  # two merges of d pairs each
        expected = []
        for upper, lower in ((0, 25), (25, 50)):
            for c in (0, 2, 4):
                expected.append([upper + 4 * 5 + c, lower + c])
        assert [g["qubits"] for g in merges] == expected
        # both endpoints sit on even-parity (data) cells of their patches
        for g in merges:
            for q in g["qubits"]:
                r, c = divmod(q % 25, 5)
                assert (r + c) % 2 == 0

    def test_hints_chain_the_block_downward(self):
        doc = gen_ls_cnot_circuit(3, n_cnots=2)
        assert doc["layout_hints"] == {
            "1": {"dir": "below", "ref": 0},
            "2": {"dir": "below", "ref": 1},
            "4": {"dir": "below", "ref": 3},
            "5": {"dir": "below", "ref": 4},
        }

    def test_blocks_are_disjoint_copies(self):
        doc = gen_ls_cnot_circuit(3, n_cnots=3)
        for g in doc["gates"]:
            blocks = {q // 75 for q in g["qubits"]}
            assert len(blocks) == 1

    def test_parses_and_validates(self):
        doc = gen_ls_cnot_circuit(3, n_cnots=2)
        validate_circuit_doc(doc)
        circ = circuit_from_json(doc)
        assert circ.layout_hints is not None and len(circ.layout_hints) == 4

    def test_bad_counts_rejected(self):
        with pytest.raises(ValidationError, match="n_cnots"):
            gen_ls_cnot_circuit(3, n_cnots=0)


class TestBackendFor:
    def test_chiplet_side_carries_headroom(self):
        doc = gen_backend_for(gen_memory_circuit(3), headroom=0.30)
        # ceil(5 * sqrt(1.3)) = 6
        assert doc["chiplet"] == [6, 6]
        validate_backend_doc(doc)

    def test_zero_headroom_is_tight(self):
        doc = gen_backend_for(gen_memory_circuit(3), headroom=0.0)
        assert doc["chiplet"] == [5, 5]

    def test_grid_is_next_power_of_two_above_partition_count(self):
        assert gen_backend_for(gen_memory_circuit(3))["grid"] == [1, 2]
        assert gen_backend_for(gen_ls_cnot_circuit(3))["grid"] == [2, 2]
        assert gen_backend_for(gen_ls_cnot_circuit(3, n_cnots=2))["grid"] == [2, 4]

    def test_explicit_grid_wins(self):
        doc = gen_backend_for(gen_memory_circuit(3), grid=(1, 1))
        assert doc["grid"] == [1, 1]
        assert "auto_links" not in doc

    def test_link_budget_and_noise_spec(self):
        doc = gen_backend_for(gen_ls_cnot_circuit(3), n_inter=4, eps=1e-3)
        assert doc["auto_links"] == {"per_edge": 4, "eps": 1e-3}
        rand = gen_backend_for(
            gen_ls_cnot_circuit(3),
            eps={"base": 1e-3, "scale_range": [0.5, 2.0]},
            seed=7,
        )
        assert rand["auto_links"]["eps"]["seed"] == 7

    def test_defects_are_seeded_and_in_range(self):
        a = gen_backend_for(gen_ls_cnot_circuit(3), defects_per_chiplet=2, seed=5)
        b = gen_backend_for(gen_ls_cnot_circuit(3), defects_per_chiplet=2, seed=5)
        assert a["defects"] == b["defects"]
        assert len(a["defects"]) == 2 * 4
        side = a["chiplet"][0]
        for d in a["defects"]:
            assert 0 <= d["x"] < side and 0 <= d["y"] < side
        validate_backend_doc(a)

    def test_every_accepted_grid_builds(self):
        circuit = gen_ls_cnot_circuit(3)
        rejected = set()
        for rows, cols in itertools.product(range(1, 6), repeat=2):
            try:
                doc = gen_backend_for(circuit, grid=(rows, cols))
            except ValidationError as exc:
                assert f"chiplet count {rows * cols} is not a power of two" in str(exc)
                rejected.add(rows * cols)
                continue
            build_backend(doc)
        assert rejected == {3, 5, 6, 9, 10, 12, 15, 20, 25}

    def test_geometry_required(self):
        with pytest.raises(ValidationError, match="geometry"):
            gen_backend_for({"n_qubits": 4, "gates": []})
