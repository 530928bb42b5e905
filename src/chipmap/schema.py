"""JSON Schemas for the interchange documents, and one checker for each.

The schema dicts are the published form of each document and the only
statement of its shape. At import each dict is written out as the Python
source of a checker function, exec'd on its first call, so a
``validate_*_doc`` call is one pass of generated loops over the
document: it accepts exactly what the schema accepts under JSON Schema
Draft 2020-12 and raises ValidationError naming the JSON pointer of the
failing value. The parsers (``circuit_from_json``, ``build_backend``)
run their checker first and then apply only the semantic rules: ranges,
arity, adjacency, disjointness.

Two Draft 2020-12 rules shape what the parsers see: an integer is any
number with a zero fractional part (``2.0`` counts, ``true`` does not),
and a decimal id key matches ``^\\d+$``, which also admits other Unicode
decimal digits and one trailing newline.

Documents carry ``schema_version`` 1; the field is optional on input so
hand-written files stay terse.
"""

from __future__ import annotations

import numbers
import re
from typing import Callable

from .errors import ValidationError

SCHEMA_VERSION = 1

_ID_KEY = r"^\d+$"  # keys of every object keyed by qubit or partition id

_site = {
    "type": "object",
    "properties": {
        "chip": {"type": "integer", "minimum": 0},
        "x": {"type": "integer", "minimum": 0},
        "y": {"type": "integer", "minimum": 0},
    },
    "required": ["chip", "x", "y"],
    "additionalProperties": False,
}

# a count per inter-chiplet link, keyed by its endpoints' global ids
_link_counts = {
    "type": "array",
    "items": {
        "type": "object",
        "properties": {
            "a": {"type": "integer", "minimum": 0},
            "b": {"type": "integer", "minimum": 0},
            "count": {"type": "integer", "minimum": 0},
        },
        "required": ["a", "b", "count"],
        "additionalProperties": False,
    },
}

# the gate list, one schema for circuits and compiled output
_gates = {
    "type": "array",
    "items": {
        "type": "object",
        "properties": {
            "op": {"type": "string", "minLength": 1},
            "qubits": {
                "type": "array",
                "items": {"type": "integer", "minimum": 0},
                "minItems": 1,
            },
            "tag": {"type": "string"},
        },
        "required": ["op", "qubits"],
        "additionalProperties": False,
    },
}

_int_pair = {
    "type": "array",
    "items": {"type": "integer"},
    "minItems": 2,
    "maxItems": 2,
}

_size_pair = {**_int_pair, "items": {"type": "integer", "minimum": 1}}

CIRCUIT_SCHEMA: dict = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "circuit",
    "type": "object",
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "name": {"type": "string"},
        "n_qubits": {"type": "integer", "minimum": 0},
        "gates": _gates,
        "partitions": {
            "type": "object",
            "patternProperties": {_ID_KEY: {"type": "integer", "minimum": 0}},
            "additionalProperties": False,
        },
        "partition_geometry": {
            "type": "object",
            "patternProperties": {
                _ID_KEY: {
                    "type": "object",
                    "properties": {
                        "width": {"type": "integer", "minimum": 1},
                        "height": {"type": "integer", "minimum": 1},
                        "locals": {
                            "type": "object",
                            "patternProperties": {_ID_KEY: _int_pair},
                            "additionalProperties": False,
                        },
                    },
                    "required": ["width", "height"],
                    "additionalProperties": False,
                }
            },
            "additionalProperties": False,
        },
        "layout_hints": {
            "type": "object",
            "patternProperties": {
                _ID_KEY: {
                    "type": "object",
                    "properties": {
                        "dir": {"enum": ["below", "right"]},
                        "ref": {"type": "integer", "minimum": 0},
                    },
                    "required": ["dir", "ref"],
                    "additionalProperties": False,
                }
            },
            "additionalProperties": False,
        },
    },
    "required": ["n_qubits", "gates"],
    "additionalProperties": False,
}

BACKEND_SCHEMA: dict = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "backend",
    "type": "object",
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "name": {"type": "string"},
        "grid": _size_pair,
        "chiplet": _size_pair,
        "links": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "a": _site,
                    "b": _site,
                    "eps": {"type": "number", "minimum": 0},
                },
                "required": ["a", "b", "eps"],
                "additionalProperties": False,
            },
        },
        "defects": {"type": "array", "items": _site},
        "auto_links": {
            "type": "object",
            "properties": {
                "per_edge": {"type": "integer", "minimum": 1},
                "eps": {
                    "anyOf": [
                        {"type": "number", "minimum": 0},
                        {
                            "type": "object",
                            "properties": {
                                "base": {"type": "number", "minimum": 0},
                                "scale_range": {
                                    "type": "array",
                                    "items": {"type": "number"},
                                    "minItems": 2,
                                    "maxItems": 2,
                                },
                                "seed": {"type": "integer"},
                            },
                            "required": ["base"],
                            "additionalProperties": False,
                        },
                    ]
                },
            },
            "required": ["per_edge"],
            "additionalProperties": False,
        },
        "allow_non_pow2": {"type": "boolean"},
    },
    "required": ["grid", "chiplet"],
    "additionalProperties": False,
}

COMPILED_SCHEMA: dict = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "compiled-circuit",
    "type": "object",
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "n_physical": {"type": "integer", "minimum": 0},
        "gates": _gates,
        "mapping": {
            "type": "object",
            "patternProperties": {_ID_KEY: _site},
            "additionalProperties": False,
        },
        "placements": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "pid": {"type": "integer", "minimum": 0},
                    "chip": {"type": "integer", "minimum": 0},
                    "x": {"type": "integer", "minimum": 0},
                    "y": {"type": "integer", "minimum": 0},
                    "w": {"type": "integer", "minimum": 1},
                    "h": {"type": "integer", "minimum": 1},
                },
                "required": ["pid", "chip", "x", "y", "w", "h"],
                "additionalProperties": False,
            },
        },
        "link_usage": _link_counts,
        "link_traversals": _link_counts,
        "stats": {"type": "object"},
        "timings": {"type": "object"},
    },
    "required": ["schema_version", "n_physical", "gates", "mapping"],
    "additionalProperties": False,
}


# -- checkers -------------------------------------------------------------
#
# ``_compile`` writes each schema dict above out as the source of one
# Python function, nested loops and tests over the document, at import,
# and execs it on the checker's first call, as fastjsonschema execs its
# generated code (https://github.com/horejsek/python-fastjsonschema).
# Compiling the source costs most, and a command uses at most two of the
# three checkers, so none is compiled before it is needed. A failing test
# raises _Invalid with the path of the failing value; the array indices on
# that path are looked up only then, so none is counted while a document
# is valid. Only the keywords the dicts use are supported; any other
# keyword fails at import, so a schema edit cannot be silently ignored.

_Checker = Callable[[object], None]


class _Invalid(Exception):
    def __init__(self, message: str, path: list[object]):
        super().__init__(message)
        self.path = path  # outermost key first


def _kind(v: object) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "a boolean"
    if isinstance(v, str):
        return "a string"
    if isinstance(v, list):
        return "an array"
    if isinstance(v, dict):
        return "an object"
    return repr(v)


def _is_integer(v: object) -> bool:
    if isinstance(v, bool):
        return False
    return isinstance(v, int) or (isinstance(v, float) and v.is_integer())


def _is_number(v: object) -> bool:
    return isinstance(v, numbers.Number) and not isinstance(v, bool)


def _at(items: list, item: object) -> int:
    """The index of the first item that is ``item``.

    A check depends only on the value it is given, so an earlier item that
    is the same object as the failing one would have failed first: the
    first match is the failing item's index.
    """
    return next(i for i, x in enumerate(items) if x is item)


_ANNOTATIONS = frozenset(("$schema", "title"))
_KEYWORDS = {
    "integer": frozenset(("type", "minimum")),
    "number": frozenset(("type", "minimum")),
    "string": frozenset(("type", "minLength")),
    "boolean": frozenset(("type",)),
    "array": frozenset(("type", "items", "minItems", "maxItems")),
    "object": frozenset(
        ("type", "properties", "required", "patternProperties", "additionalProperties")
    ),
    "const": frozenset(("const",)),
    "enum": frozenset(("enum",)),
    "anyOf": frozenset(("anyOf",)),
}


class _Source:
    """The generated functions of one document schema, and the names they use.

    ``emit`` appends the statements that check the value named ``v`` to
    ``out``. ``path`` holds the source of each key from the document root
    down to that value; it is evaluated only when a test fails.
    """

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.names: dict[str, object] = {
            "_Invalid": _Invalid, "_kind": _kind, "_is_integer": _is_integer,
            "_is_number": _is_number, "_at": _at,
        }
        self.count = 0

    def fresh(self, prefix: str) -> str:
        self.count += 1
        return f"{prefix}{self.count}"

    def function(self, schema: dict) -> str:
        """Define a function that checks ``schema``; return its name."""
        name, v = self.fresh("check"), self.fresh("v")
        body: list[str] = []
        self.emit(body, schema, v, [], 1)
        self.lines += [f"def {name}({v}):", *body]
        return name

    def emit(self, out: list[str], schema: dict, v: str, path: list[str], depth: int) -> None:
        form = next((k for k in ("const", "enum", "anyOf") if k in schema), None)
        form = form or schema.get("type")
        keywords = set(schema) - _ANNOTATIONS
        if form not in _KEYWORDS or not keywords <= _KEYWORDS[form]:
            raise TypeError(f"unsupported schema keywords: {sorted(keywords)}")
        pad = "    " * depth
        where = "[" + ", ".join(path) + "]"

        def fail(test: str, message: str, indent: str = "") -> None:
            out.append(f"{pad}{indent}if {test}:")
            out.append(f"{pad}{indent}    raise _Invalid({message}, {where})")

        if form == "anyOf":
            alts = "".join(f"{self.function(s)}, " for s in schema["anyOf"])
            reasons, alt, exc = self.fresh("reasons"), self.fresh("alt"), self.fresh("exc")
            out += [
                f"{pad}{reasons} = []",
                f"{pad}for {alt} in ({alts}):",
                f"{pad}    try:",
                f"{pad}        {alt}({v})",
                f"{pad}        break",
                f"{pad}    except _Invalid as {exc}:",
                f"{pad}        {reasons}.append(str({exc}))",
                f"{pad}else:",
                f"{pad}    raise _Invalid('matches none of the allowed forms ('"
                f" + '; '.join({reasons}) + ')', {where})",
            ]
        elif form == "const":
            value = schema["const"]
            if not _is_number(value):
                raise TypeError("only numeric const is supported")
            fail(f"not _is_number({v}) or {v} != {value!r}",
                 f"{f'expected {value!r}, got '!r} + repr({v})")
        elif form == "enum":
            values = tuple(schema["enum"])
            if not all(isinstance(x, str) for x in values):
                raise TypeError("only string enum is supported")
            listed = ", ".join(map(repr, values))
            fail(f"not isinstance({v}, str) or {v} not in {values!r}",
                 f"{f'expected one of {listed}, got '!r} + repr({v})")
        elif form in ("integer", "number"):
            minimum = schema.get("minimum")
            below = f"{v} < {minimum!r}", f"repr({v}) + {f' is less than the minimum of {minimum}'!r}"
            if form == "number":
                fail(f"not _is_number({v})", f"'expected a number, got ' + _kind({v})")
                if minimum is not None:
                    fail(*below)
            elif minimum is None:
                fail(f"type({v}) is not int and not _is_integer({v})",
                     f"'expected an integer, got ' + _kind({v})")
            else:  # a plain int at or above the minimum passes on one test
                out.append(f"{pad}if type({v}) is not int or {below[0]}:")
                fail(f"not _is_integer({v})", f"'expected an integer, got ' + _kind({v})", "    ")
                fail(*below, "    ")
        elif form == "string":
            fail(f"not isinstance({v}, str)", f"'expected a string, got ' + _kind({v})")
            n = schema.get("minLength", 0)
            if n:
                fail(f"len({v}) < {n}", f"{f'expected a string of length >= {n}, got '!r} + repr({v})")
        elif form == "boolean":
            fail(f"not isinstance({v}, bool)", f"'expected a boolean, got ' + _kind({v})")
        elif form == "array":
            fail(f"not isinstance({v}, list)", f"'expected an array, got ' + _kind({v})")
            lo, hi = schema.get("minItems", 0), schema.get("maxItems")
            if lo:
                fail(f"len({v}) < {lo}", f"'expected at least {lo} items, got ' + str(len({v}))")
            if hi is not None:
                fail(f"len({v}) > {hi}", f"'expected at most {hi} items, got ' + str(len({v}))")
            item = self.fresh("v")
            out.append(f"{pad}for {item} in {v}:")
            self.emit(out, schema["items"], item, [*path, f"_at({v}, {item})"], depth + 1)
        else:
            self.emit_object(out, schema, v, path, depth, fail)

    def emit_object(self, out, schema, v, path, depth, fail) -> None:
        """An object: its ``required`` keys first, then each key in the
        document's order, checked by the schema of its property or of the
        first pattern it matches; a key matching neither is an error when
        ``additionalProperties`` is false."""
        properties = schema.get("properties", {})
        patterns = schema.get("patternProperties", {})
        additional = schema.get("additionalProperties", True)
        if not isinstance(additional, bool) or (properties and patterns):
            raise TypeError("unsupported object schema: needs a boolean additionalProperties "
                            "and either properties or patternProperties")
        fail(f"not isinstance({v}, dict)", f"'expected an object, got ' + _kind({v})")
        for name in schema.get("required", ()):
            fail(f"{name!r} not in {v}", repr(f"{name!r} is a required property"))
        if not (properties or patterns or not additional):
            return
        pad = "    " * depth
        key, x = self.fresh("k"), self.fresh("v")
        out.append(f"{pad}for {key}, {x} in {v}.items():")
        branch = "if"
        for name, sub in properties.items():
            out.append(f"{pad}    {branch} {key} == {name!r}:")
            self.emit(out, sub, x, [*path, repr(name)], depth + 2)
            branch = "elif"
        for pattern, sub in patterns.items():
            match = self.fresh("match")
            self.names[match] = re.compile(pattern).search
            out.append(f"{pad}    {branch} isinstance({key}, str) and {match}({key}):")
            self.emit(out, sub, x, [*path, key], depth + 2)
            branch = "elif"
        if not additional:
            indent = "    " if branch == "if" else "        "
            if branch != "if":
                out.append(f"{pad}    else:")
            out.append(f"{pad}{indent}raise _Invalid('unexpected property ' + repr({key}),"
                       f" [{', '.join(path)}])")


def _compile(schema: dict) -> _Checker:
    """Generate the checker that accepts exactly what ``schema`` accepts.

    The source is written now, so an unsupported keyword raises here; it
    is exec'd on the first call.
    """
    source = _Source()
    name = source.function(schema)
    text = "\n".join(source.lines)
    checker: _Checker | None = None

    def check(obj: object) -> None:
        nonlocal checker
        if checker is None:  # two threads may both exec it; either result serves
            namespace = dict(source.names)
            exec(compile(text, f"<{schema.get('title', 'schema')} checker>", "exec"), namespace)
            checker = namespace[name]
        checker(obj)

    return check


_circuit_check = _compile(CIRCUIT_SCHEMA)
_backend_check = _compile(BACKEND_SCHEMA)
_compiled_check = _compile(COMPILED_SCHEMA)


def _check(obj: object, check: _Checker, what: str) -> None:
    try:
        check(obj)
    except _Invalid as exc:
        # Keys on a failing path are property names or decimal ids, so the
        # JSON pointer needs no escaping.
        where = "".join(f"/{k}" for k in exc.path) or "(root)"
        raise ValidationError(f"{what} document invalid at {where}: {exc}") from None


def validate_circuit_doc(obj: object) -> None:
    """Raise ValidationError unless ``obj`` satisfies CIRCUIT_SCHEMA."""
    _check(obj, _circuit_check, "circuit")


def validate_backend_doc(obj: object) -> None:
    """Raise ValidationError unless ``obj`` satisfies BACKEND_SCHEMA."""
    _check(obj, _backend_check, "backend")


def validate_compiled_doc(obj: object) -> None:
    """Raise ValidationError unless ``obj`` satisfies COMPILED_SCHEMA."""
    _check(obj, _compiled_check, "compiled circuit")
