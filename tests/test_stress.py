"""Whole-pipeline stress test: random generated inputs, every output replayed.

Each draw generates a circuit and a backend, compiles them with random
options, writes the document with ``dumps_compiled``, and hands it to the
benchmark's independent replay checker (``bench/replay.py``), which checks
the mapping, placements, gate order, restoration, stats and link
traversals. A compile may instead refuse its input with one of the
errors that say the input cannot be served: ValidationError, NoFitError
or NoRouteError. Any other exception, or a document the replay rejects,
fails the test.
"""

import collections
import importlib
import json
import logging
import random
import time
from pathlib import Path

import pytest

from chipmap.backend import build_backend
from chipmap.benchgen import gen_backend_for, gen_ls_cnot_circuit, gen_memory_circuit
from chipmap.errors import NoFitError, NoRouteError, ValidationError
from chipmap.ir import circuit_from_json
from chipmap.pipeline import CompileOptions, compile_circuit, dumps_compiled
from chipmap.route import RoutingConfig

BENCH = Path(__file__).resolve().parent.parent / "bench"
DRAWS = 150
_LABEL_KEYS = ("partitions", "partition_geometry", "layout_hints")
_GRIDS = (None, (1, 2), (2, 2), (2, 4), (3, 1), (4, 4))


@pytest.fixture()
def replay(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("replay")


@pytest.fixture(autouse=True)
def _quiet_warnings():
    # routed merges cross patch interiors and short edges clip their links
    logger = logging.getLogger("chipmap")
    old = logger.level
    logger.setLevel(logging.ERROR)
    yield
    logger.setLevel(old)


def _draw(rng: random.Random) -> tuple[dict, dict, CompileOptions]:
    """One generated circuit, its backend document and the compile options."""
    d = rng.choice((3, 5))
    if rng.random() < 0.5:
        circuit = gen_memory_circuit(d, rounds=rng.randint(1, 2))
    else:
        circuit = gen_ls_cnot_circuit(d, n_cnots=rng.randint(1, 2))
    backend = gen_backend_for(
        circuit,
        headroom=rng.choice((0.0, 0.3, 1.0, 3.0)),
        grid=rng.choice(_GRIDS),
        n_inter=rng.randint(1, 6),
        eps=rng.choice((1e-3, {"base": 1e-3, "scale_range": [1, 10]})),
        defects_per_chiplet=rng.randint(0, 6),
        seed=rng.randrange(1000),
    )
    stripped = rng.random() < 0.5
    if stripped:
        for key in _LABEL_KEYS:
            circuit.pop(key, None)
    options = CompileOptions(
        partitions="detect" if stripped else "auto",
        detection_budget=256,
        placement=rng.choice(("center", "size-aware")),
        relative_ref=rng.choice(("weight", "order")),
        use_hints=rng.random() < 0.5,
        routing=RoutingConfig.from_policy(
            rng.choice(("basic", "focus", "tradeoff")), k_nearest=rng.randint(1, 4)
        ),
    )
    return circuit, backend, options


def test_compiled_documents_replay_clean(replay):
    t0 = time.perf_counter()
    rng = random.Random(0)
    outcomes: collections.Counter = collections.Counter()
    for i in range(DRAWS):
        try:
            circuit, backend, options = _draw(rng)
            be = build_backend(backend)
            result = compile_circuit(circuit_from_json(circuit), be, options)
        except (ValidationError, NoFitError, NoRouteError) as exc:
            outcomes[type(exc).__name__] += 1
            continue
        doc = json.loads(dumps_compiled(result, be))
        try:
            replay.check(circuit, replay.Device(backend), doc)
        except replay.CheckError as exc:
            pytest.fail(f"draw {i}: replay rejects the compiled document: {exc}")
        outcomes["replayed"] += 1
    dt = time.perf_counter() - t0
    print(f"stress: {dict(sorted(outcomes.items()))} of {DRAWS} draws in {dt:.1f}s")
    assert sum(outcomes.values()) == DRAWS
    assert outcomes["replayed"] >= 60, outcomes
