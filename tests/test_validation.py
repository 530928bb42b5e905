"""The compiled document checks against jsonschema as the oracle.

Documents are mutated in the ways that separate a hand-written check from
the schema: dropped and added keys, wrong types, booleans for integers,
integer-valued floats, negatives, non-digit keys, keys with a trailing
newline, schema_version 2. The checker and
``jsonschema.Draft202012Validator`` must give the same verdict, and a
rejection must name a JSON pointer at which jsonschema also reports an
error. Hypothesis draws random documents with up to three mutations; a
sweep applies every single mutation to every node of documents that use
every field. The parsers may raise only ValidationError, and must reject
every document the schema rejects.
"""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from chipmap.backend import build_backend
from chipmap.benchgen import gen_backend_for, gen_ls_cnot_circuit
from chipmap.errors import ValidationError
from chipmap.ir import circuit_from_json
from chipmap.schema import (
    BACKEND_SCHEMA,
    CIRCUIT_SCHEMA,
    COMPILED_SCHEMA,
    _compile,
    validate_backend_doc,
    validate_circuit_doc,
    validate_compiled_doc,
)

_small = st.integers(0, 4)
_id = _small.map(str)
_gate = st.fixed_dictionaries(
    {
        "op": st.sampled_from(["cx", "measure", "h", "barrier"]),
        "qubits": st.lists(_small, min_size=1, max_size=3),
    },
    optional={"tag": st.sampled_from(["", "merge"])},
)
_site = st.fixed_dictionaries({"chip": st.integers(0, 3), "x": _small, "y": _small})

circuit_docs = st.fixed_dictionaries(
    {"n_qubits": _small, "gates": st.lists(_gate, max_size=3)},
    optional={
        "schema_version": st.just(1),
        "name": st.text(max_size=2),
        "partitions": st.dictionaries(_id, _small, max_size=3),
        "partition_geometry": st.dictionaries(
            _id,
            st.fixed_dictionaries(
                {"width": st.integers(1, 3), "height": st.integers(1, 3)},
                optional={
                    "locals": st.dictionaries(
                        _id, st.lists(st.integers(-1, 3), min_size=2, max_size=2), max_size=2
                    )
                },
            ),
            max_size=2,
        ),
        "layout_hints": st.dictionaries(
            _id,
            st.fixed_dictionaries({"dir": st.sampled_from(["below", "right"]), "ref": _small}),
            max_size=2,
        ),
    },
)

_pair = st.lists(st.integers(1, 3), min_size=2, max_size=2)
_eps = st.floats(0, 1)
backend_docs = st.fixed_dictionaries(
    {"grid": _pair, "chiplet": _pair},
    optional={
        "schema_version": st.just(1),
        "name": st.text(max_size=2),
        "links": st.lists(st.fixed_dictionaries({"a": _site, "b": _site, "eps": _eps}), max_size=2),
        "defects": st.lists(_site, max_size=2),
        "auto_links": st.fixed_dictionaries(
            {"per_edge": st.integers(1, 3)},
            optional={
                "eps": st.one_of(
                    _eps,
                    st.fixed_dictionaries(
                        {"base": _eps},
                        optional={
                            "scale_range": st.lists(st.floats(0, 10), min_size=2, max_size=2),
                            "seed": st.integers(-3, 9),
                        },
                    ),
                )
            },
        ),
        "allow_non_pow2": st.booleans(),
    },
)

_counts = st.lists(st.fixed_dictionaries({"a": _small, "b": _small, "count": _small}), max_size=2)
compiled_docs = st.fixed_dictionaries(
    {
        "schema_version": st.just(1),
        "n_physical": _small,
        "gates": st.lists(_gate, max_size=3),
        "mapping": st.dictionaries(_id, _site, max_size=2),
    },
    optional={
        "placements": st.lists(
            st.fixed_dictionaries(
                {
                    "pid": _small, "chip": _small, "x": _small, "y": _small,
                    "w": st.integers(1, 3), "h": st.integers(1, 3),
                }
            ),
            max_size=2,
        ),
        "link_usage": _counts,
        "link_traversals": _counts,
        "stats": st.dictionaries(st.text(max_size=2), _small, max_size=2),
        "timings": st.just({"total": 0.5}),
    },
)

_ODD_VALUES = [True, False, None, "x", "", [], {}, 0, 2, -1, 0.5, -0.5, 1.0]
_NEW_KEYS = ["extras", "7", "q0", "schema_version", "tag", "name", "locals", "eps", "seed"]


def _nodes(doc, path=()):
    """Every (path, value) pair of a JSON tree, root first."""
    yield path, doc
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _nodes(v, path + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _nodes(v, path + (i,))


def _set(doc, path, value):
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _variants(node):
    """Replacements for ``node`` that probe one schema rule each."""
    out = list(_ODD_VALUES)
    if isinstance(node, int) and not isinstance(node, bool):
        out += [float(node), -node - 1, node + 0.5, node == 1, 2]  # 2: schema_version 2
    elif isinstance(node, float):
        out += [int(node), -node - 1.0, True]
    elif isinstance(node, list):
        out += [node[:-1], node + node[:1], node + [0]]
    elif isinstance(node, dict):
        for key in node:
            rest = {k: v for k, v in node.items() if k != key}
            out.append(rest)  # drop a key
            for new in (key + "\n", key + "\n\n", "q" + key, " " + key, "٣", key.upper()):
                out.append({**rest, new: node[key]})  # rename it
        out += [{**node, key: value} for key in _NEW_KEYS for value in (0, 1, 2, "x")]
        out.append({**node, "schema_version": 2})
    return out


@st.composite
def mutated(draw, docs):
    doc = copy.deepcopy(draw(docs))
    for _ in range(draw(st.integers(1, 3))):
        path, node = draw(st.sampled_from(list(_nodes(doc))))
        doc = _set(doc, path, copy.deepcopy(draw(st.sampled_from(_variants(node)))))
    return doc


def _pointer(path) -> str:
    return "".join(f"/{k}" for k in path) or "(root)"


def _agrees_with_jsonschema(doc, schema, check, what) -> bool:
    """Assert the checker's verdict matches jsonschema's; return validity."""
    errors = list(Draft202012Validator(schema).iter_errors(doc))
    try:
        check(doc)
    except ValidationError as exc:
        assert errors, f"checker rejected a valid document: {exc}"
        pointers = {_pointer(e.absolute_path) for e in errors}
        assert any(
            str(exc).startswith(f"{what} document invalid at {p}: ") for p in pointers
        ), (str(exc), pointers)
        return False
    assert not errors, f"checker accepted an invalid document: {errors[0].message}"
    return True


_settings = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@_settings
@given(st.one_of(circuit_docs, mutated(circuit_docs)))
def test_circuit_check_matches_jsonschema(doc):
    valid = _agrees_with_jsonschema(doc, CIRCUIT_SCHEMA, validate_circuit_doc, "circuit")
    try:
        circuit_from_json(doc)  # semantic errors are ValidationErrors too
    except ValidationError:
        return
    assert valid


@_settings
@given(st.one_of(backend_docs, mutated(backend_docs)))
def test_backend_check_matches_jsonschema(doc):
    valid = _agrees_with_jsonschema(doc, BACKEND_SCHEMA, validate_backend_doc, "backend")
    try:
        build_backend(doc)
    except ValidationError:
        return
    assert valid


@_settings
@given(st.one_of(compiled_docs, mutated(compiled_docs)))
def test_compiled_check_matches_jsonschema(doc):
    _agrees_with_jsonschema(doc, COMPILED_SCHEMA, validate_compiled_doc, "compiled circuit")


_RICH = [
    (
        CIRCUIT_SCHEMA, validate_circuit_doc, "circuit", circuit_from_json,
        {
            "schema_version": 1,
            "name": "c",
            "n_qubits": 3,
            "gates": [
                {"op": "cx", "qubits": [0, 1], "tag": "merge"},
                {"op": "barrier", "qubits": [0, 1, 2]},
            ],
            "partitions": {"0": 0, "1": 0, "2": 1},
            "partition_geometry": {"0": {"width": 2, "height": 1, "locals": {"1": [0, 1]}}},
            "layout_hints": {"1": {"dir": "below", "ref": 0}},
        },
    ),
    (
        BACKEND_SCHEMA, validate_backend_doc, "backend", build_backend,
        {
            "schema_version": 1,
            "name": "b",
            "grid": [1, 2],
            "chiplet": [3, 3],
            "links": [
                {"a": {"chip": 0, "x": 2, "y": 0}, "b": {"chip": 1, "x": 0, "y": 0}, "eps": 0.01}
            ],
            "defects": [{"chip": 1, "x": 2, "y": 2}],
            "auto_links": {"per_edge": 1, "eps": {"base": 0.001, "scale_range": [1, 2], "seed": 3}},
            "allow_non_pow2": False,
        },
    ),
    (
        BACKEND_SCHEMA, validate_backend_doc, "backend", build_backend,
        {"grid": [1, 2], "chiplet": [2, 2], "auto_links": {"per_edge": 2, "eps": 0.5}},
    ),
    (
        COMPILED_SCHEMA, validate_compiled_doc, "compiled circuit", None,
        {
            "schema_version": 1,
            "n_physical": 18,
            "gates": [{"op": "swap", "qubits": [2, 9], "tag": "route"}],
            "mapping": {"0": {"chip": 0, "x": 2, "y": 0}},
            "placements": [{"pid": 0, "chip": 0, "x": 2, "y": 0, "w": 1, "h": 1}],
            "link_usage": [{"a": 2, "b": 9, "count": 1}],
            "link_traversals": [{"a": 2, "b": 9, "count": 1}],
            "stats": {"swap_count": 1},
            "timings": {"total": 0.1},
        },
    ),
]


@pytest.mark.parametrize(
    "schema, check, what, parse, doc", _RICH, ids=["circuit", "backend", "flat-eps", "compiled"]
)
def test_every_single_mutation_agrees(schema, check, what, parse, doc):
    """Exhaustive over one mutation at every node of a document using every field."""
    assert _agrees_with_jsonschema(doc, schema, check, what)
    for path, node in list(_nodes(doc)):
        for variant in _variants(node):
            mutant = _set(copy.deepcopy(doc), path, copy.deepcopy(variant))
            valid = _agrees_with_jsonschema(mutant, schema, check, what)
            if parse is not None:
                try:
                    parse(mutant)
                except ValidationError:
                    continue
                assert valid, mutant


@pytest.mark.parametrize(
    "doc, pointer",
    [
        ({"gates": []}, "(root)"),
        ({"n_qubits": 2, "gates": [{"op": "cx", "qubits": [0, -1]}]}, "/gates/0/qubits/1"),
        ({"n_qubits": 2, "gates": [{"op": "cx", "qubits": [0, True]}]}, "/gates/0/qubits/1"),
        ({"n_qubits": 2, "gates": [], "partitions": {"1": 0.5}}, "/partitions/1"),
        ({"n_qubits": 2, "gates": [], "partitions": {"1\n\n": 0}}, "/partitions"),
        (
            {"n_qubits": 1, "gates": [], "layout_hints": {"0": {"dir": "up", "ref": 0}}},
            "/layout_hints/0/dir",
        ),
    ],
)
def test_rejection_names_the_json_pointer(doc, pointer):
    with pytest.raises(ValidationError) as info:
        circuit_from_json(doc)
    assert str(info.value).startswith(f"circuit document invalid at {pointer}: ")


@pytest.mark.parametrize(
    "schema",
    [
        {"type": "integer", "maximum": 3},
        {
            "type": "object",
            "properties": {"a": {"type": "integer"}},
            "patternProperties": {"^b$": {"type": "integer"}},
        },
        {"type": "object", "additionalProperties": {"type": "integer"}},
        {"enum": [1, 2]},
        {"oneOf": [{"type": "integer"}]},
    ],
)
def test_unsupported_schema_keywords_fail_at_compile(schema):
    with pytest.raises(TypeError):
        _compile(schema, schema)


def test_integer_valued_floats_parse_as_integers():
    circuit = {
        "n_qubits": 4,
        "gates": [{"op": "cx", "qubits": [0, 1]}, {"op": "barrier", "qubits": [0, 1, 3]}],
        "partitions": {"0": 0, "1": 0, "2\n": 1, "3": 1},
        "partition_geometry": {"0": {"width": 2, "height": 1, "locals": {"0": [0, 0]}}},
        "layout_hints": {"1": {"dir": "below", "ref": 0}},
    }
    as_floats = copy.deepcopy(circuit)
    as_floats["n_qubits"] = 4.0
    as_floats["gates"][1]["qubits"] = [0.0, 1.0, 3.0]
    as_floats["partitions"]["3"] = 1.0
    as_floats["partition_geometry"]["0"] = {
        "width": 2.0, "height": 1.0, "locals": {"0": [0.0, 0.0]},
    }
    as_floats["layout_hints"]["1"]["ref"] = 0.0
    a, b = circuit_from_json(circuit), circuit_from_json(as_floats)
    assert a.dag.nodes == b.dag.nodes and a.dag.n_virt == b.dag.n_virt == 4
    assert a.partitions == b.partitions == {0: 0, 1: 0, 2: 1, 3: 1}
    assert a.geometry == b.geometry and a.layout_hints == b.layout_hints
    assert all(type(q) is int for g in b.dag.nodes for q in g.qubits)

    backend = {
        "grid": [1, 2],
        "chiplet": [3, 3],
        "links": [{"a": {"chip": 0, "x": 2, "y": 1}, "b": {"chip": 1, "x": 0, "y": 1}, "eps": 0}],
        "auto_links": {"per_edge": 2, "eps": {"base": 0.001, "seed": 4}},
    }
    as_floats = copy.deepcopy(backend)
    as_floats["grid"] = [1.0, 2.0]
    as_floats["links"][0]["a"]["x"] = 2.0
    as_floats["auto_links"]["per_edge"] = 2.0
    as_floats["auto_links"]["eps"]["seed"] = 4.0
    a, b = build_backend(backend), build_backend(as_floats)
    assert (a.grid_rows, a.grid_cols) == (b.grid_rows, b.grid_cols) == (1, 2)
    assert [(l.a, l.b, l.eps) for l in a.links] == [(l.a, l.b, l.eps) for l in b.links]


def _run_python(code: str, *args: str) -> None:
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": path},
        check=True,
        timeout=60,
    )


def _cli_import_leaves_out(module: str) -> None:
    _run_python(f"import chipmap.cli, sys; assert {module!r} not in sys.modules")


def test_cli_import_leaves_jsonschema_out():
    _cli_import_leaves_out("jsonschema")


def test_cli_import_leaves_networkx_out():
    """networkx is not a runtime dependency."""
    _cli_import_leaves_out("networkx")


@pytest.mark.parametrize(
    "module", ["yaml", "concurrent.futures", "csv", "chipmap.render", "chipmap.benchgen"]
)
def test_cli_import_leaves_optional_modules_out(module):
    """Each of these is imported by the one command or branch that uses it."""
    _cli_import_leaves_out(module)


def _cli_compile_leaves_out(
    tmp_path, circuit: dict, backend: dict, *options: str
) -> tuple[dict, int]:
    """CLI-compile in a fresh interpreter; no numpy, scipy or networkx loads.

    Returns the compiled document and the number of BFS floods routing
    ran, counted by wrapping ``route._bfs_dist``.
    """
    circuit_file, backend_file = tmp_path / "c.json", tmp_path / "b.json"
    circuit_file.write_text(json.dumps(circuit))
    backend_file.write_text(json.dumps(backend))
    out, floods = tmp_path / "out.json", tmp_path / "floods.txt"
    _run_python(
        "import sys\n"
        "from chipmap import route\n"
        "from chipmap.cli import main\n"
        "bfs_dist, floods = route._bfs_dist, []\n"
        "def counted(*args):\n"
        "    dist = bfs_dist(*args)\n"
        "    floods.append(isinstance(dist, route._LevelDist))\n"
        "    return dist\n"
        "route._bfs_dist = counted\n"
        "try:\n"
        "    main(sys.argv[2:])\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n"
        "for module in ('numpy', 'scipy', 'networkx'):\n"
        "    assert module not in sys.modules, module\n"
        "open(sys.argv[1], 'w').write(str(sum(floods)))\n",
        str(floods), "compile", str(circuit_file), str(backend_file), *options, "-o", str(out),
    )
    return json.loads(out.read_text()), int(floods.read_text())


def test_detect_compile_leaves_networkx_out(tmp_path):
    """Community detection runs on the built-in kernel, not on networkx."""
    circuit = gen_ls_cnot_circuit(3, 3)
    backend = gen_backend_for(circuit)
    for key in ("partitions", "partition_geometry", "layout_hints"):
        del circuit[key]
    doc, _ = _cli_compile_leaves_out(
        tmp_path, circuit, backend, "--partitions", "detect", "--detection-budget", "256"
    )
    assert doc["stats"]["n_virtual"] == circuit["n_qubits"]


def test_defect_compile_floods_on_plain_integers(tmp_path):
    """Routing around dead cells floods bitboards without numpy or scipy."""
    circuit = gen_ls_cnot_circuit(3, 4)
    backend = gen_backend_for(circuit, headroom=8, n_inter=2, defects_per_chiplet=6)
    doc, floods = _cli_compile_leaves_out(
        tmp_path, circuit, backend, "--placement", "size-aware", "--policy", "tradeoff"
    )
    assert doc["stats"]["n_virtual"] == circuit["n_qubits"]
    assert floods > 0
