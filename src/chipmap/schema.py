"""JSON Schemas for the interchange documents, and one checker for each.

The schema dicts are the published form of each document and the only
statement of its shape. At import each dict is compiled into a checker of
plain Python, so a ``validate_*_doc`` call is one pass over the document:
it accepts exactly what the schema accepts under JSON Schema Draft
2020-12 and raises ValidationError naming the JSON pointer of the failing
value. The parsers (``circuit_from_json``,
``build_backend``) run their checker first and then apply only the
semantic rules: ranges, arity, adjacency, disjointness.

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
        "gates": {
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
        },
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
        "gates": {
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
        },
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
        "link_usage": {
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
        },
        "link_traversals": {"$ref": "#/properties/link_usage"},
        "stats": {"type": "object"},
        "timings": {"type": "object"},
    },
    "required": ["schema_version", "n_physical", "gates", "mapping"],
    "additionalProperties": False,
}


# -- checkers -------------------------------------------------------------
#
# ``_compile`` turns each schema dict above into one rule: a function of
# one value that returns None or raises _Invalid. Containers append the
# failing key as the error unwinds, so no path is built while a document
# is valid. Only the keywords the dicts use are supported; any other
# keyword fails at import, so a schema edit cannot be silently ignored.

_Rule = Callable[[object], None]


class _Invalid(Exception):
    def __init__(self, message: str):
        super().__init__(message)
        self.keys: list[object] = []  # innermost first


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


def _integer(minimum: int | None = None) -> _Rule:
    def rule(v: object) -> None:
        if type(v) is not int and not _is_integer(v):
            raise _Invalid(f"expected an integer, got {_kind(v)}")
        if minimum is not None and v < minimum:  # type: ignore[operator]
            raise _Invalid(f"{v!r} is less than the minimum of {minimum}")

    return rule


def _number(minimum: float | None = None) -> _Rule:
    def rule(v: object) -> None:
        if not _is_number(v):
            raise _Invalid(f"expected a number, got {_kind(v)}")
        if minimum is not None and v < minimum:  # type: ignore[operator]
            raise _Invalid(f"{v!r} is less than the minimum of {minimum}")

    return rule


def _string(min_length: int = 0) -> _Rule:
    def rule(v: object) -> None:
        if not isinstance(v, str):
            raise _Invalid(f"expected a string, got {_kind(v)}")
        if len(v) < min_length:
            raise _Invalid(f"expected a string of length >= {min_length}, got {v!r}")

    return rule


def _boolean(v: object) -> None:
    if not isinstance(v, bool):
        raise _Invalid(f"expected a boolean, got {_kind(v)}")


def _const(value: int) -> _Rule:
    def rule(v: object) -> None:
        if not _is_number(v) or v != value:
            raise _Invalid(f"expected {value!r}, got {v!r}")

    return rule


def _choice(values: tuple[str, ...]) -> _Rule:
    def rule(v: object) -> None:
        if not isinstance(v, str) or v not in values:
            raise _Invalid(f"expected one of {', '.join(map(repr, values))}, got {v!r}")

    return rule


def _array(item: _Rule, min_items: int = 0, max_items: int | None = None) -> _Rule:
    def rule(v: object) -> None:
        if not isinstance(v, list):
            raise _Invalid(f"expected an array, got {_kind(v)}")
        if len(v) < min_items:
            raise _Invalid(f"expected at least {min_items} items, got {len(v)}")
        if max_items is not None and len(v) > max_items:
            raise _Invalid(f"expected at most {max_items} items, got {len(v)}")
        for i, x in enumerate(v):
            try:
                item(x)
            except _Invalid as exc:
                exc.keys.append(i)
                raise

    return rule


def _object(
    properties: dict[str, _Rule],
    required: tuple[str, ...],
    patterns: tuple[tuple[Callable[[str], object], _Rule], ...],
    closed: bool,
) -> _Rule:
    """An object with ``required`` keys, each value checked by the rule of
    its property or of the first pattern its key matches; a key matching
    neither is an error when ``closed``."""

    def rule(v: object) -> None:
        if not isinstance(v, dict):
            raise _Invalid(f"expected an object, got {_kind(v)}")
        for key in required:
            if key not in v:
                raise _Invalid(f"{key!r} is a required property")
        for key, x in v.items():
            check = properties.get(key)
            if check is None:
                for match, check in patterns:
                    if isinstance(key, str) and match(key):
                        break
                else:
                    if closed:
                        raise _Invalid(f"unexpected property {key!r}")
                    continue
            try:
                check(x)
            except _Invalid as exc:
                exc.keys.append(key)
                raise

    return rule


def _any_of(rules: tuple[_Rule, ...]) -> _Rule:
    def rule(v: object) -> None:
        reasons = []
        for check in rules:
            try:
                check(v)
                return
            except _Invalid as exc:
                reasons.append(str(exc))
        raise _Invalid(f"matches none of the allowed forms ({'; '.join(reasons)})")

    return rule


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
    "$ref": frozenset(("$ref",)),
}


def _compile(schema: dict, root: dict) -> _Rule:
    """Build the rule that accepts exactly what ``schema`` accepts.

    ``root`` is the document schema that local ``$ref`` pointers resolve
    against.
    """
    form = next((k for k in ("const", "enum", "anyOf", "$ref") if k in schema), None)
    form = form or schema.get("type")
    keywords = set(schema) - _ANNOTATIONS
    if form not in _KEYWORDS or not keywords <= _KEYWORDS[form]:
        raise TypeError(f"unsupported schema keywords: {sorted(keywords)}")
    if form == "$ref":
        target = root
        for part in schema["$ref"].removeprefix("#/").split("/"):
            target = target[part]
        return _compile(target, root)
    if form == "anyOf":
        return _any_of(tuple(_compile(s, root) for s in schema["anyOf"]))
    if form == "const":
        if not _is_number(schema["const"]):
            raise TypeError("only numeric const is supported")
        return _const(schema["const"])
    if form == "enum":
        if not all(isinstance(x, str) for x in schema["enum"]):
            raise TypeError("only string enum is supported")
        return _choice(tuple(schema["enum"]))
    if form == "integer":
        return _integer(schema.get("minimum"))
    if form == "number":
        return _number(schema.get("minimum"))
    if form == "string":
        return _string(schema.get("minLength", 0))
    if form == "boolean":
        return _boolean
    if form == "array":
        return _array(
            _compile(schema["items"], root), schema.get("minItems", 0), schema.get("maxItems")
        )
    # object
    properties = schema.get("properties", {})
    patterns = schema.get("patternProperties", {})
    additional = schema.get("additionalProperties", True)
    if not isinstance(additional, bool) or (properties and patterns):
        raise TypeError("unsupported object schema: needs a boolean additionalProperties "
                        "and either properties or patternProperties")
    return _object(
        {key: _compile(s, root) for key, s in properties.items()},
        tuple(schema.get("required", ())),
        tuple((re.compile(p).search, _compile(s, root)) for p, s in patterns.items()),
        closed=not additional,
    )


_circuit_rule = _compile(CIRCUIT_SCHEMA, CIRCUIT_SCHEMA)
_backend_rule = _compile(BACKEND_SCHEMA, BACKEND_SCHEMA)
_compiled_rule = _compile(COMPILED_SCHEMA, COMPILED_SCHEMA)


def _check(obj: object, rule: _Rule, what: str) -> None:
    try:
        rule(obj)
    except _Invalid as exc:
        # Keys on a failing path are property names or decimal ids, so the
        # JSON pointer needs no escaping.
        where = "".join(f"/{k}" for k in reversed(exc.keys)) or "(root)"
        raise ValidationError(f"{what} document invalid at {where}: {exc}") from None


def validate_circuit_doc(obj: object) -> None:
    """Raise ValidationError unless ``obj`` satisfies CIRCUIT_SCHEMA."""
    _check(obj, _circuit_rule, "circuit")


def validate_backend_doc(obj: object) -> None:
    """Raise ValidationError unless ``obj`` satisfies BACKEND_SCHEMA."""
    _check(obj, _backend_rule, "backend")


def validate_compiled_doc(obj: object) -> None:
    """Raise ValidationError unless ``obj`` satisfies COMPILED_SCHEMA."""
    _check(obj, _compiled_rule, "compiled circuit")
