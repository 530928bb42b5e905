"""Document schemas and the command line workflow."""

import concurrent.futures
import csv
import gc
import json
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

import chipmap.cli
from chipmap.benchgen import gen_backend_for, gen_memory_circuit
from chipmap.cli import (
    EXIT_COMPILER,
    EXIT_MAPPING,
    EXIT_NOFIT,
    EXIT_NOROUTE,
    EXIT_VALIDATION,
    main,
)
from chipmap.errors import CompilerError, MappingError, ValidationError
from chipmap.schema import (
    validate_backend_doc,
    validate_circuit_doc,
    validate_compiled_doc,
)


class TestSchemas:
    def test_generated_documents_pass(self):
        circuit = gen_memory_circuit(3)
        validate_circuit_doc(circuit)
        validate_backend_doc(gen_backend_for(circuit))

    def test_missing_required_field_names_the_path(self):
        with pytest.raises(ValidationError, match="n_qubits"):
            validate_circuit_doc({"gates": []})

    def test_extra_property_rejected(self):
        with pytest.raises(ValidationError):
            validate_circuit_doc({"n_qubits": 1, "gates": [], "extras": 1})

    def test_non_numeric_partition_key_rejected(self):
        doc = {"n_qubits": 1, "gates": [], "partitions": {"q0": 0}}
        with pytest.raises(ValidationError):
            validate_circuit_doc(doc)

    def test_gate_shape_enforced(self):
        doc = {"n_qubits": 2, "gates": [{"op": "cx"}]}
        with pytest.raises(ValidationError, match="qubits"):
            validate_circuit_doc(doc)

    def test_backend_negative_eps_rejected(self):
        doc = {
            "grid": [1, 2],
            "chiplet": [3, 3],
            "links": [
                {"a": {"chip": 0, "x": 2, "y": 0}, "b": {"chip": 1, "x": 0, "y": 0}, "eps": -1}
            ],
        }
        with pytest.raises(ValidationError):
            validate_backend_doc(doc)

    def test_wrong_schema_version_rejected(self):
        with pytest.raises(ValidationError, match="schema_version"):
            validate_circuit_doc({"schema_version": 2, "n_qubits": 0, "gates": []})

    def test_non_object_rejected(self):
        with pytest.raises(ValidationError):
            validate_compiled_doc([1, 2, 3])


@pytest.fixture()
def runner():
    return CliRunner()


def _gen(runner, tmp_path, *args):
    result = runner.invoke(
        main, ["--out-dir", str(tmp_path), "bench", "gen", *args]
    )
    assert result.exit_code == 0, result.output + str(result.exception)
    return result


class TestCliWorkflow:
    def test_gen_compile_validate_render(self, runner, tmp_path):
        _gen(runner, tmp_path, "-d", "3")
        circuit = tmp_path / "memory_d3.circuit.json"
        backend = tmp_path / "memory_d3.backend.json"
        assert circuit.exists() and backend.exists()

        result = runner.invoke(
            main,
            ["--out-dir", str(tmp_path), "compile", str(circuit), str(backend)],
        )
        assert result.exit_code == 0, result.output
        stats = json.loads(result.stdout)
        assert stats["swap_count"] == 0 and stats["depth_ratio"] == 1.0
        compiled = tmp_path / "memory_d3.circuit.compiled.json"
        assert compiled.exists()

        for kind, path in (
            ("circuit", circuit),
            ("backend", backend),
            ("compiled", compiled),
        ):
            result = runner.invoke(main, ["validate", kind, str(path)])
            assert result.exit_code == 0, result.output
            assert f"valid {kind}" in result.output

        svg = tmp_path / "memory_d3.circuit.layout.svg"
        result = runner.invoke(
            main,
            ["compile", str(circuit), str(backend), "--stats-only", "--svg", str(svg)],
        )
        assert result.exit_code == 0, result.output
        assert svg.exists()
        assert svg.read_text().startswith("<svg")

    def test_compile_svg_and_stats_only(self, runner, tmp_path):
        _gen(runner, tmp_path, "-d", "3")
        circuit = tmp_path / "memory_d3.circuit.json"
        backend = tmp_path / "memory_d3.backend.json"
        svg = tmp_path / "layout.svg"
        result = runner.invoke(
            main,
            [
                "--out-dir", str(tmp_path), "compile", str(circuit), str(backend),
                "--stats-only", "--svg", str(svg),
            ],
        )
        assert result.exit_code == 0, result.output
        assert svg.exists()
        assert not (tmp_path / "memory_d3.circuit.compiled.json").exists()

    def test_yaml_input_accepted(self, runner, tmp_path):
        circuit_doc = gen_memory_circuit(3)
        backend_doc = gen_backend_for(circuit_doc)
        circuit = tmp_path / "mem.yaml"
        backend = tmp_path / "be.yaml"
        circuit.write_text(yaml.safe_dump(circuit_doc))
        backend.write_text(yaml.safe_dump(backend_doc))
        result = runner.invoke(
            main, ["--out-dir", str(tmp_path), "compile", str(circuit), str(backend)]
        )
        assert result.exit_code == 0, result.output

    def test_invalid_document_exits_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n_qubits": 1}))  # gates missing
        backend = tmp_path / "be.json"
        backend.write_text(json.dumps(gen_backend_for(gen_memory_circuit(3))))
        result = runner.invoke(main, ["compile", str(bad), str(backend)])
        assert result.exit_code == EXIT_VALIDATION
        assert "error:" in result.stderr

    @pytest.mark.parametrize(
        "field, size, pointer", [("grid", [0, 2], "/grid/0"), ("chiplet", [3, 0], "/chiplet/1")]
    )
    def test_nonpositive_size_exits_2(self, runner, tmp_path, field, size, pointer):
        circuit_doc = gen_memory_circuit(3)
        circuit, backend = tmp_path / "mem.json", tmp_path / "be.json"
        circuit.write_text(json.dumps(circuit_doc))
        backend.write_text(json.dumps({**gen_backend_for(circuit_doc), field: size}))
        result = runner.invoke(main, ["compile", str(circuit), str(backend)])
        assert result.exit_code == EXIT_VALIDATION
        assert f"backend document invalid at {pointer}: " in result.stderr

    def test_unparseable_file_exits_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = runner.invoke(main, ["validate", "circuit", str(bad)])
        assert result.exit_code == EXIT_VALIDATION

    def test_unparseable_yaml_exits_2(self, runner, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("gates: [unclosed\n")
        backend = tmp_path / "be.json"
        backend.write_text(json.dumps(gen_backend_for(gen_memory_circuit(3))))
        result = runner.invoke(main, ["compile", str(bad), str(backend)])
        assert result.exit_code == EXIT_VALIDATION
        assert "not parseable" in result.stderr

    def test_no_fit_exits_3(self, runner, tmp_path):
        circuit = tmp_path / "mem.json"
        circuit.write_text(json.dumps(gen_memory_circuit(3)))
        backend = tmp_path / "tiny.json"
        backend.write_text(json.dumps({"grid": [1, 1], "chiplet": [3, 3], "allow_non_pow2": True}))
        result = runner.invoke(main, ["compile", str(circuit), str(backend)])
        assert result.exit_code == EXIT_NOFIT

    def test_no_route_exits_4(self, runner, tmp_path):
        # enough chiplets for the patches, but no links to cross between them
        _gen(runner, tmp_path, "--kind", "ls-cnot", "-d", "3", "--grid", "2", "2", "--n-inter", "0")
        circuit = tmp_path / "ls_cnot_d3_n1.circuit.json"
        backend = tmp_path / "ls_cnot_d3_n1.backend.json"
        result = runner.invoke(main, ["compile", str(circuit), str(backend)])
        assert result.exit_code == EXIT_NOROUTE

    def test_strict_patches_exits_2(self, runner, tmp_path):
        # a diagonal gate inside one undeclared patch needs in-patch routing
        doc = {
            "n_qubits": 4,
            "gates": [{"op": "cx", "qubits": [0, 3]}],
            "partitions": {str(q): 0 for q in range(4)},
        }
        backend_doc = {"grid": [1, 1], "chiplet": [4, 4], "allow_non_pow2": True}
        circuit = tmp_path / "diag.json"
        backend = tmp_path / "small.json"
        circuit.write_text(json.dumps(doc))
        backend.write_text(json.dumps(backend_doc))
        result = runner.invoke(
            main, ["compile", str(circuit), str(backend), "--strict-patches"]
        )
        assert result.exit_code == EXIT_VALIDATION

    def test_json_logs_are_json_lines(self, runner, tmp_path):
        result = runner.invoke(
            main, ["--out-dir", str(tmp_path), "--json-logs", "bench", "gen", "-d", "3"]
        )
        assert result.exit_code == 0
        lines = [l for l in result.stderr.splitlines() if l.strip()]
        assert lines
        for line in lines:
            entry = json.loads(line)
            assert {"level", "logger", "message"} <= set(entry)

    def test_seed_env_var_feeds_generation(self, runner, tmp_path):
        a_dir, b_dir, c_dir = (tmp_path / x for x in "abc")
        for d, seed in ((a_dir, "1"), (b_dir, "2"), (c_dir, "1")):
            result = runner.invoke(
                main,
                ["--out-dir", str(d), "bench", "gen", "--kind", "ls-cnot", "-d", "3",
                 "--defects", "2"],
                env={"CHIPMAP_SEED": seed},
            )
            assert result.exit_code == 0, result.output
        a = (a_dir / "ls_cnot_d3_n1.backend.json").read_text()
        b = (b_dir / "ls_cnot_d3_n1.backend.json").read_text()
        c = (c_dir / "ls_cnot_d3_n1.backend.json").read_text()
        assert a != b and a == c

    @pytest.mark.parametrize(
        "args, env",
        [(["--n-cnots", "4"], {}), ([], {"CHIPMAP_BENCH_GEN_N_CNOTS": "4"})],
        ids=["flag", "env"],
    )
    def test_n_cnots_rejected_for_memory(self, runner, tmp_path, args, env):
        result = runner.invoke(
            main,
            ["--out-dir", str(tmp_path), "bench", "gen", "--kind", "memory", "-d", "3", *args],
            env=env,
        )
        assert result.exit_code == EXIT_VALIDATION, result.output
        assert result.stderr.splitlines()[-1] == "error: 'n_cnots' applies only to kind ls-cnot"
        assert not list(tmp_path.iterdir())

    def test_non_power_of_two_grid_rejected(self, runner, tmp_path):
        result = runner.invoke(main, [
            "--out-dir", str(tmp_path), "bench", "gen", "--kind", "ls-cnot", "-d", "3",
            "--grid", "3", "1",
        ])
        assert result.exit_code == EXIT_VALIDATION, result.output
        assert result.stderr.splitlines()[-1] == (
            "error: grid (3, 1): chiplet count 3 is not a power of two"
        )
        assert not list(tmp_path.iterdir())

    def test_unknown_op_keeps_its_name_and_tag(self, runner, tmp_path):
        circuit, backend = tmp_path / "h.json", tmp_path / "be.json"
        circuit.write_text(json.dumps(
            {"n_qubits": 1, "gates": [{"op": "h", "qubits": [0], "tag": "prep"}]}
        ))
        backend.write_text(json.dumps({"grid": [1, 1], "chiplet": [2, 2]}))
        out = tmp_path / "h.compiled.json"
        result = runner.invoke(main, ["compile", str(circuit), str(backend), "-o", str(out)])
        assert result.exit_code == 0, result.output
        assert runner.invoke(main, ["validate", "compiled", str(out)]).exit_code == 0
        assert json.loads(out.read_text())["gates"] == [{"op": "h", "qubits": [0], "tag": "prep"}]


class TestCompilerErrorExitCodes:
    @pytest.mark.parametrize(
        "error, code",
        [
            (MappingError("cell (0, 0, 0) assigned twice"), EXIT_MAPPING),
            (CompilerError("restored mapping drifted"), EXIT_COMPILER),
        ],
        ids=["mapping", "compiler"],
    )
    def test_error_class_maps_to_its_exit_code(self, runner, tmp_path, monkeypatch, error, code):
        circuit_doc = gen_memory_circuit(3)
        circuit = tmp_path / "mem.json"
        backend = tmp_path / "be.json"
        circuit.write_text(json.dumps(circuit_doc))
        backend.write_text(json.dumps(gen_backend_for(circuit_doc)))

        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr("chipmap.cli.compile_circuit", fail)
        result = runner.invoke(main, ["compile", str(circuit), str(backend)])
        assert result.exit_code == code
        assert result.stderr.splitlines()[-1] == f"error: {error}"


_EPS = {"base": 0.001, "scale_range": [1, 100], "seed": 1}  # spread link error rates
# each sweep parameter, a value that changes a d=3 ls-cnot point's stats,
# and the fixed parameters that let it
_FIXED_OR_SWEPT = [
    ("d", 5, {}),
    ("n_cnots", 2, {}),
    ("rounds", 2, {}),
    ("n_inter", 2, {}),
    ("defects", 1, {"headroom": 1.0}),
    ("headroom", 1.0, {}),
    ("grid", [1, 4], {}),
    ("eps", _EPS, {"policy": "focus"}),
    ("policy", "tradeoff", {}),
    ("alpha", 0.5, {"policy": "focus", "eps": _EPS}),
    ("beta", 100.0, {"policy": "tradeoff", "n_inter": 2}),
]


class TestSweep:
    def _spec(self, tmp_path, **extra):
        spec = {
            "kind": "ls-cnot",
            "d": 3,
            "axes": {"n_inter": [8, 1]},
            **extra,
        }
        path = tmp_path / "sweep.yaml"
        path.write_text(yaml.safe_dump(spec))
        return path

    def test_rows_follow_axis_product_order(self, runner, tmp_path):
        spec = self._spec(tmp_path)
        result = runner.invoke(main, ["--out-dir", str(tmp_path), "sweep", str(spec)])
        assert result.exit_code == 0, result.output + str(result.exception)
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("n_inter,")
        assert [l.split(",")[0] for l in lines[1:]] == ["8", "1"]

    def test_reruns_are_byte_identical(self, runner, tmp_path):
        spec = self._spec(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            result = runner.invoke(main, ["sweep", str(spec), "-o", str(out)])
            assert result.exit_code == 0, result.output
        assert out1.read_bytes() == out2.read_bytes()

    def test_parallel_matches_serial(self, runner, tmp_path):
        spec = self._spec(tmp_path)
        serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
        r1 = runner.invoke(main, ["sweep", str(spec), "-o", str(serial), "--jobs", "1"])
        r2 = runner.invoke(main, ["sweep", str(spec), "-o", str(parallel), "--jobs", "2"])
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert serial.read_bytes() == parallel.read_bytes()

    @pytest.mark.parametrize("jobs, workers", [(2, 2), (8, 2), (64, 2)])
    def test_jobs_never_exceed_points(self, runner, tmp_path, monkeypatch, jobs, workers):
        # a stand-in pool records its size and maps in this process, so no
        # worker is ever started
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        spec = self._spec(tmp_path)
        out = tmp_path / "out.csv"
        result = runner.invoke(main, ["sweep", str(spec), "-o", str(out), "--jobs", str(jobs)])
        assert result.exit_code == 0, result.output
        assert sizes == [workers]
        assert len(out.read_text().splitlines()) == 3

    def test_one_point_runs_without_a_pool(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)  # unusable
        spec = self._spec(tmp_path, axes={"n_inter": [8]})
        result = runner.invoke(main, ["sweep", str(spec), "-o", str(tmp_path / "o.csv"),
                                      "--jobs", "4"])
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("jobs", ["0", "-3", "x"])
    def test_bad_jobs_exit_2(self, runner, tmp_path, jobs):
        spec = self._spec(tmp_path)
        result = runner.invoke(main, ["sweep", str(spec), "--jobs", jobs])
        assert result.exit_code == 2
        assert "--jobs" in result.output + result.stderr
        assert not (tmp_path / "sweep.csv").exists()

    def test_failed_point_keeps_every_row(self, runner, tmp_path):
        # 30 defects per chiplet leave no region for a d=3 patch
        spec = tmp_path / "sweep.yaml"
        spec.write_text(yaml.safe_dump({"kind": "ls-cnot", "d": 3, "axes": {"defects": [0, 30]}}))
        out = tmp_path / "out.csv"
        result = runner.invoke(main, ["sweep", str(spec), "-o", str(out)])
        assert result.exit_code == EXIT_NOFIT
        assert result.stderr.splitlines()[-1] == (
            f"error: 1 of 2 sweep points failed; see the error column of {out}"
        )
        header, ok, failed = [line.split(",") for line in out.read_text().splitlines()]
        assert header[0] == "defects" and header[-1] == "error"
        assert ok[0] == "0" and ok[-1] == "" and all(ok[1:-1])
        assert failed[0] == "30" and failed[1:-1] == [""] * (len(header) - 2)
        assert failed[-1] == "no chiplet region fits partition 1"

    def test_misspelled_policy_fails_before_any_point(self, runner, tmp_path, monkeypatch):
        ran = []
        monkeypatch.setattr(chipmap.cli, "_sweep_row", ran.append)
        spec = tmp_path / "sweep.yaml"
        spec.write_text(yaml.safe_dump(
            {"kind": "ls-cnot", "axes": {"policy": ["basic", "tradefof"]}}
        ))
        result = runner.invoke(main, ["sweep", str(spec), "-o", str(tmp_path / "s.csv")])
        assert result.exit_code == EXIT_VALIDATION, result.output
        assert result.stderr.splitlines()[-1] == (
            "error: sweep parameter 'policy' must be one of basic, focus, tradeoff, got 'tradefof'"
        )
        assert ran == [] and not (tmp_path / "s.csv").exists()

    def test_non_power_of_two_grid_point_keeps_its_row(self, runner, tmp_path):
        code, rows = self._rows(runner, tmp_path, {"axes": {"grid": [[2, 2], [3, 1]]}})
        assert code == EXIT_VALIDATION
        assert rows[1][-1] == ""
        assert rows[2][-1] == "grid (3, 1): chiplet count 3 is not a power of two"

    def test_unknown_axis_rejected(self, runner, tmp_path):
        spec = self._spec(tmp_path)
        spec.write_text(yaml.safe_dump({"kind": "memory", "axes": {"voltage": [1]}}))
        result = runner.invoke(main, ["sweep", str(spec)])
        assert result.exit_code == EXIT_VALIDATION
        assert "axis" in result.stderr

    def _rows(self, runner, tmp_path, spec):
        """Exit code and CSV rows (lists of cells, header first) of one sweep."""
        path, out = tmp_path / "spec.yaml", tmp_path / "out.csv"
        path.write_text(yaml.safe_dump({"kind": "ls-cnot", **spec}))
        result = runner.invoke(main, ["sweep", str(path), "-o", str(out)])
        with out.open(newline="") as fh:
            return result.exit_code, list(csv.reader(fh))

    def test_top_level_parameter_holds_for_every_point(self, runner, tmp_path):
        for name, value, base in _FIXED_OR_SWEPT:
            # the fixed value's run sweeps one other parameter over its default
            neutral = {"n_cnots": [1]} if name == "d" else {"d": [3]}
            fixed = self._rows(runner, tmp_path, {**base, name: value, "axes": neutral})
            swept = self._rows(runner, tmp_path, {**base, "axes": {name: [value]}})
            default = self._rows(runner, tmp_path, {**base, "axes": neutral})
            assert fixed[0] == swept[0] == default[0] == 0, name
            # the same stat cells after the one axis column, which the value changes
            assert fixed[1][1][1:] == swept[1][1][1:] != default[1][1][1:], name

    def test_top_level_defects_fail_like_the_axis(self, runner, tmp_path):
        fixed = self._rows(runner, tmp_path, {"defects": 30, "axes": {"n_cnots": [1]}})
        swept = self._rows(runner, tmp_path, {"axes": {"defects": [30]}})
        assert fixed[0] == swept[0] == EXIT_NOFIT
        assert fixed[1][1][-1] == swept[1][1][-1] == "no chiplet region fits partition 1"

    def test_axis_value_overrides_top_level(self, runner, tmp_path):
        both = self._rows(runner, tmp_path, {"defects": 30, "axes": {"defects": [0]}})
        assert both[0] == 0
        assert both[1][1][0] == "0" and both[1][1][-1] == ""

    def test_point_matches_bench_gen_then_compile(self, runner, tmp_path):
        code, rows = self._rows(runner, tmp_path, {
            "seed": 5, "d": 3, "n_cnots": 2, "defects": 1, "headroom": 1.0,
            "policy": "tradeoff", "axes": {"n_inter": [2]},
        })
        assert code == 0
        result = runner.invoke(main, [
            "--out-dir", str(tmp_path), "--seed", "5", "bench", "gen", "--kind", "ls-cnot",
            "-d", "3", "--n-cnots", "2", "--defects", "1", "--headroom", "1.0",
            "--n-inter", "2",
        ])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, [
            "--seed", "5", "compile", str(tmp_path / "ls_cnot_d3_n2.circuit.json"),
            str(tmp_path / "ls_cnot_d3_n2.backend.json"), "--policy", "tradeoff", "--stats-only",
        ])
        assert result.exit_code == 0, result.output
        stats = json.loads(result.stdout)
        header, row = rows
        assert row[1:-1] == [str(stats[column]) for column in header[1:-1]]

    def test_unknown_spec_key_rejected(self, runner, tmp_path):
        spec = tmp_path / "sweep.yaml"
        spec.write_text(yaml.safe_dump({"kind": "ls-cnot", "n_intre": 1, "axes": {"d": [3]}}))
        result = runner.invoke(main, ["sweep", str(spec), "-o", str(tmp_path / "s.csv")])
        assert result.exit_code == EXIT_VALIDATION
        assert "'n_intre'" in result.stderr
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize(
        "block, key, choice",
        [
            ("compile", "placment", "placement"),
            ("compile", "seed", "placement"),  # the sweep sets it from the spec
            ("routing", "k_neares", "k_nearest"),
            ("routing", "policy", "k_nearest"),  # an axis or top-level parameter
        ],
    )
    def test_unknown_block_option_rejected(self, runner, tmp_path, block, key, choice):
        spec = tmp_path / "sweep.yaml"
        spec.write_text(yaml.safe_dump(
            {"kind": "ls-cnot", "axes": {"d": [3]}, block: {key: 1}}
        ))
        result = runner.invoke(main, ["sweep", str(spec), "-o", str(tmp_path / "s.csv")])
        assert result.exit_code == EXIT_VALIDATION, result.output
        message = result.stderr.splitlines()[-1]
        assert f"unknown {block} option {key!r}" in message
        assert choice in message.split("choose from")[1]
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("block", ["compile", "routing"])
    def test_block_must_be_an_object(self, runner, tmp_path, block):
        spec = tmp_path / "sweep.yaml"
        spec.write_text(yaml.safe_dump({"kind": "ls-cnot", "axes": {"d": [3]}, block: [1]}))
        result = runner.invoke(main, ["sweep", str(spec), "-o", str(tmp_path / "s.csv")])
        assert result.exit_code == EXIT_VALIDATION, result.output
        assert f"'{block}' must be an object" in result.stderr
        assert not (tmp_path / "s.csv").exists()

    def test_block_options_reach_every_point(self, runner, tmp_path):
        base = {"axes": {"d": [3]}, "routing": {"k_nearest": 1}}
        plain = self._rows(runner, tmp_path, base)
        tuned = self._rows(runner, tmp_path, {**base, "compile": {"util_all_chiplets": True}})
        assert tuned[0] == plain[0] == 0
        column = plain[1][0].index("utilization")
        assert tuned[1][1][column] != plain[1][1][column]

    @pytest.mark.parametrize(
        "spec",
        [{"n_cnots": 4, "axes": {"d": [3]}}, {"axes": {"n_cnots": [1, 4]}}],
        ids=["top-level", "axis"],
    )
    def test_n_cnots_rejected_for_memory(self, runner, tmp_path, spec):
        path = tmp_path / "sweep.yaml"
        path.write_text(yaml.safe_dump({"kind": "memory", **spec}))
        result = runner.invoke(main, ["sweep", str(path), "-o", str(tmp_path / "s.csv")])
        assert result.exit_code == EXIT_VALIDATION, result.output
        assert "'n_cnots'" in result.stderr and "ls-cnot" in result.stderr
        assert not (tmp_path / "s.csv").exists()


    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"axes": {"d": ["abc"]}}, "sweep parameter 'd' must be an integer, got 'abc'"),
            ({"d": 3.5, "axes": {"n_inter": [1]}},
             "sweep parameter 'd' must be an integer, got 3.5"),
            ({"axes": {"d": [3], "alpha": [True]}},
             "sweep parameter 'alpha' must be a finite number, got True"),
            ({"seed": "x", "axes": {"d": [3]}},
             "sweep parameter 'seed' must be an integer, got 'x'"),
            ({"grid": "abc", "axes": {"d": [3]}},
             "sweep parameter 'grid' must be a list of two integers, got 'abc'"),
            ({"eps": "abc", "axes": {"d": [3]}},
             "sweep parameter 'eps' must be a finite number or an object, got 'abc'"),
            ({"axes": {"d": [3]}, "compile": {"imbalance": "abc"}},
             "CompileOptions.imbalance must be a finite number, got 'abc'"),
            ({"axes": {"d": [3]}, "routing": {"k_nearest": "2"}},
             "RoutingConfig.k_nearest must be an integer, got '2'"),
        ],
        ids=["axis", "top-level", "bool", "seed", "grid", "eps", "compile", "routing"],
    )
    def test_wrong_typed_value_names_key_and_value(self, runner, tmp_path, spec, message):
        path = tmp_path / "sweep.yaml"
        path.write_text(yaml.safe_dump({"kind": "ls-cnot", **spec}))
        result = runner.invoke(main, ["sweep", str(path), "-o", str(tmp_path / "s.csv")])
        assert result.exit_code == EXIT_VALIDATION, result.output
        assert result.stderr.splitlines()[-1].startswith(f"error: {message}")
        assert not (tmp_path / "s.csv").exists()

    def test_numeric_strings_convert(self, runner, tmp_path):
        spec = {"grid": ["2", 2], "axes": {"d": ["3"], "n_inter": ["2"]}}
        code, rows = self._rows(runner, tmp_path, spec)
        assert code == 0
        assert rows[1][:2] == ["3", "2"] and rows[1][-1] == ""


class TestCollectorPause:
    """Compiles run with the cyclic collector off and give back its prior state.

    The caller's frozen objects stay frozen. Frozen objects the compile
    frees by reference counting leave the count, so with a frozen caller
    the count may drop but must not reach zero, and a kept probe must
    still be outside every generation.
    """

    @pytest.fixture(
        params=[(True, False), (False, False), (True, True)],
        ids=["gc-on", "gc-off", "gc-on-frozen"],
    )
    def gc_state(self, request, monkeypatch):
        enabled, frozen = request.param
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        probe = [[]]
        if frozen:
            gc.freeze()
        freeze_count = gc.get_freeze_count()
        seen = []
        compile_circuit = chipmap.cli.compile_circuit

        def spy(*args, **kwargs):
            seen.append(gc.isenabled())
            return compile_circuit(*args, **kwargs)

        monkeypatch.setattr("chipmap.cli.compile_circuit", spy)
        def freeze_kept() -> bool:
            if not frozen:
                return gc.get_freeze_count() == freeze_count == 0
            return 0 < gc.get_freeze_count() <= freeze_count and all(
                o is not probe for o in gc.get_objects()
            )

        try:
            yield enabled, seen, freeze_kept
        finally:
            if frozen:
                gc.unfreeze()
            (gc.enable if was else gc.disable)()

    def test_survivors_skip_the_young_generations(self):
        was = gc.isenabled()
        gc.enable()
        try:
            with chipmap.cli._collector_paused():
                kept = [[i] for i in range(1000)]
            oldest = {id(o) for o in gc.get_objects(generation=2)}
            assert all(id(x) in oldest for x in kept)
            assert gc.get_freeze_count() == 0
        finally:
            (gc.enable if was else gc.disable)()

    def _files(self, tmp_path, backend_doc=None):
        circuit_doc = gen_memory_circuit(3)
        circuit, backend = tmp_path / "mem.json", tmp_path / "be.json"
        circuit.write_text(json.dumps(circuit_doc))
        backend.write_text(json.dumps(backend_doc or gen_backend_for(circuit_doc)))
        return str(circuit), str(backend)

    def test_compile(self, runner, tmp_path, gc_state):
        enabled, seen, freeze_kept = gc_state
        result = runner.invoke(main, ["compile", *self._files(tmp_path), "--stats-only"])
        assert result.exit_code == 0, result.output
        assert seen == [False]
        assert gc.isenabled() is enabled
        assert freeze_kept()

    def test_failed_compile(self, runner, tmp_path, gc_state):
        enabled, seen, freeze_kept = gc_state
        tiny = {"grid": [1, 1], "chiplet": [3, 3], "allow_non_pow2": True}
        result = runner.invoke(main, ["compile", *self._files(tmp_path, tiny)])
        assert result.exit_code == EXIT_NOFIT
        assert seen == [False]
        assert gc.isenabled() is enabled
        assert freeze_kept()

    def test_sweep(self, runner, tmp_path, gc_state):
        enabled, seen, freeze_kept = gc_state
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({"kind": "memory", "d": 3, "axes": {"n_inter": [8, 1]}}))
        result = runner.invoke(main, ["sweep", str(spec), "-o", str(tmp_path / "s.csv")])
        assert result.exit_code == 0, result.output
        assert seen == [False, False]
        assert gc.isenabled() is enabled
        assert freeze_kept()
