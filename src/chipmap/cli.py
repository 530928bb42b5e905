"""Command line interface.

Exit codes: 0 success, 2 invalid input, 3 placement does not fit,
4 no route, 5 physical mapping broke an invariant, 6 any other compiler
error. Options can also come from CHIPMAP_* environment variables.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gc
import itertools
import json
import logging
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import click
from click.core import ParameterSource

from .backend import build_backend
from .errors import (
    CompilerError,
    MappingError,
    NoFitError,
    NoRouteError,
    StrictPatchViolationError,
    ValidationError,
)
from .ir import circuit_from_json
from .pipeline import (
    PARTITION_MODES,
    PLACEMENT_MODES,
    REF_MODES,
    CompileOptions,
    compile_circuit,
    write_compiled,
)
from .schema import validate_compiled_doc
from .route import DEFAULT_POLICY, POLICIES, RoutingConfig

log = logging.getLogger(__name__)

EXIT_VALIDATION = 2
EXIT_NOFIT = 3
EXIT_NOROUTE = 4
EXIT_MAPPING = 5
EXIT_COMPILER = 6

_STAT_COLUMNS = (
    "n_virtual",
    "n_physical",
    "depth_original",
    "depth_compiled",
    "gates_original",
    "gates_compiled",
    "two_qubit_original",
    "two_qubit_compiled",
    "cx_expanded_two_qubit",
    "swap_count",
    "inter_chiplet_two_qubit",
    "chiplets_used",
    "utilization",
    "patch_violations",
)

_KINDS = ("memory", "ls-cnot")


def _as_int(value: object) -> int:
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(value)
    return int(value)


def _as_float(value: object) -> float:
    if isinstance(value, bool):
        raise ValueError(value)
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(value)
    return number


def _as_grid(value: object) -> tuple[int, int]:
    if not isinstance(value, (list, tuple)):
        raise TypeError(value)
    rows, cols = value
    return _as_int(rows), _as_int(cols)


def _as_eps(value: object) -> object:
    return value if isinstance(value, dict) else _as_float(value)


def _as_policy(value: object) -> str:
    if value not in POLICIES:
        raise ValueError(value)
    return value


_INTEGER = (_as_int, "an integer")
# converter and expected form of each sweep parameter. A point's parameters
# are the spec's top-level values, overridden by that point's axis values;
# an absent one takes its generator's default, or DEFAULT_POLICY and its weights.
_SWEEP_PARAMS = {
    **dict.fromkeys(("d", "n_cnots", "rounds", "n_inter", "defects"), _INTEGER),
    **dict.fromkeys(("headroom", "alpha", "beta"), (_as_float, "a finite number")),
    "policy": (_as_policy, "one of " + ", ".join(POLICIES)),
    "grid": (_as_grid, "a list of two integers"),
    "eps": (_as_eps, "a finite number or an object"),
}
_SWEEP_KEYS = ("kind", "axes", "seed", "compile", "routing")
# spec block -> the class its keys set, and the fields the sweep sets itself
_SWEEP_BLOCKS = {
    "compile": (CompileOptions, ("routing", "seed")),
    "routing": (RoutingConfig, ("alpha", "beta")),
}
_CIRCUIT_PARAMS = ("d", "rounds", "n_cnots")
# gen_backend_for keyword of each backend parameter
_BACKEND_PARAMS = {
    "headroom": "headroom",
    "grid": "grid",
    "n_inter": "n_inter",
    "eps": "eps",
    "defects": "defects_per_chiplet",
}
_MEMORY_N_CNOTS = "'n_cnots' applies only to kind ls-cnot"


def _exit_code(exc: CompilerError) -> int:
    """The documented exit code for a compiler failure."""
    if isinstance(exc, NoFitError):
        return EXIT_NOFIT
    if isinstance(exc, NoRouteError):
        return EXIT_NOROUTE
    if isinstance(exc, (ValidationError, StrictPatchViolationError)):
        return EXIT_VALIDATION
    if isinstance(exc, MappingError):
        return EXIT_MAPPING
    return EXIT_COMPILER  # invariant checks and any future subclass


def _guard(fn):
    """Map compiler failures onto the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except CompilerError as exc:
            _fail(_exit_code(exc), str(exc))

    return wrapper


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


class _JsonLogFormatter(logging.Formatter):
    def format(self, record: logging.LogRecord) -> str:
        return json.dumps(
            {
                "level": record.levelname.lower(),
                "logger": record.name,
                "message": record.getMessage(),
            }
        )


@contextlib.contextmanager
def _collector_paused():
    """Run the block with the cyclic garbage collector off, then restore it.

    A d=15 compile builds 138,040 operand tuples (59,464 parsed, 78,576
    routed) and leaves almost no reference cycles behind, so collections
    during it only re-scan live objects. Reference counting still frees
    everything else as it goes. The collector's previous state comes back
    even when the block raises.

    Before re-enabling, the block's survivors move straight to the oldest
    generation (``gc.freeze`` then ``gc.unfreeze``); otherwise the first
    young collection would walk every tuple the compile kept alive. That
    step is skipped when the caller froze objects of its own, which must
    stay frozen.
    """
    was_enabled = gc.isenabled()
    hand_off = was_enabled and gc.get_freeze_count() == 0
    gc.disable()
    try:
        yield
    finally:
        if hand_off:
            gc.freeze()
            gc.unfreeze()
        if was_enabled:
            gc.enable()


def _load_doc(path: Path) -> object:
    text = path.read_text()
    if path.suffix in (".yaml", ".yml"):
        import yaml  # only YAML inputs pay for the import

        parse, errors = yaml.safe_load, yaml.YAMLError
    else:
        parse, errors = json.loads, json.JSONDecodeError
    try:
        return parse(text)
    except errors as exc:
        raise ValidationError(f"{path}: not parseable: {exc}") from None


def _refuse_directories(*paths: Path | None) -> None:
    """Raise ValidationError if one of ``paths`` is a directory, which no output replaces."""
    for path in paths:
        if path is not None and path.is_dir():
            raise ValidationError(f"{path}: output path is a directory")


@contextlib.contextmanager
def _writing(path: Path):
    """A text file, opened with ``newline=""``, that becomes ``path`` once the body ends.

    A regular file is written beside ``path`` and moved over it, so a
    write that fails midway leaves no partial file and an old ``path`` as
    it was; a symlink, device or pipe is written in place, and a directory
    is refused.
    """
    _refuse_directories(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    in_place = path.is_symlink() or (path.exists() and not path.is_file())
    tmp = path if in_place else path.with_name(f".{path.name}.partial")
    try:
        with tmp.open("w", newline="") as fh:
            yield fh
        tmp.replace(path)
    finally:
        if not in_place:
            tmp.unlink(missing_ok=True)
    log.info("wrote %s", path)


@click.group(context_settings={"auto_envvar_prefix": "CHIPMAP"})
@click.option("--out-dir", type=click.Path(path_type=Path), default=Path("."),
              show_default=True, help="Directory for output files.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed for every randomized step.")
@click.option("--json-logs", is_flag=True, help="Log to stderr as JSON lines.")
@click.pass_context
def main(ctx: click.Context, out_dir: Path, seed: int, json_logs: bool) -> None:
    """Map patch-structured circuits onto modular chiplet hardware."""
    handler = logging.StreamHandler(sys.stderr)
    if json_logs:
        handler.setFormatter(_JsonLogFormatter())
    else:
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logging.basicConfig(level=logging.INFO, handlers=[handler], force=True)
    ctx.obj = SimpleNamespace(out_dir=out_dir, seed=seed)


# The flags' choices and defaults are those of CompileOptions and RoutingConfig,
# read from the classes so that importing builds no instance.
@main.command("compile")
@click.argument("circuit_file", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.argument("backend_file", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--partitions", type=click.Choice(PARTITION_MODES),
              default=CompileOptions.partitions, show_default=True,
              help="Where partition labels come from.")
@click.option("--placement", type=click.Choice(PLACEMENT_MODES),
              default=CompileOptions.placement, show_default=True)
@click.option("--relative-ref", type=click.Choice(REF_MODES),
              default=CompileOptions.relative_ref, show_default=True,
              help="Reference choice for relative placement.")
@click.option("--no-hints", is_flag=True, help="Ignore declared layout hints.")
@click.option("--imbalance", type=float, default=CompileOptions.imbalance, show_default=True)
@click.option("--detection-budget", type=int, default=CompileOptions.detection_budget,
              show_default=True, help="Max interaction-graph size for community detection.")
@click.option("--policy", type=click.Choice(tuple(POLICIES)),
              default=DEFAULT_POLICY, show_default=True)
@click.option("--alpha", type=float, default=None,
              help="Link error-rate weight (overrides the policy default).")
@click.option("--beta", type=float, default=None,
              help="Link congestion weight (overrides the policy default).")
@click.option("--k-nearest", type=int, default=RoutingConfig.k_nearest, show_default=True,
              help="Candidate links considered per boundary crossing.")
@click.option("--no-restore", is_flag=True, help="Keep tokens where routing parks them.")
@click.option("--strict-patches", is_flag=True,
              help="Error out when a gate needs routing inside one patch.")
@click.option("--util-all-chiplets", is_flag=True,
              help="Compute utilization over the whole device.")
@click.option("-o", "--out", "out_file", type=click.Path(path_type=Path), default=None,
              help="Compiled document path (default <circuit>.compiled.json in --out-dir).")
@click.option("--stats-only", is_flag=True, help="Print stats, write no file.")
@click.option("--svg", "svg_file", type=click.Path(path_type=Path), default=None,
              help="Also render the placed layout to this SVG file.")
@click.pass_obj
@_guard
def compile_cmd(
    obj: SimpleNamespace,
    circuit_file: Path,
    backend_file: Path,
    out_file: Path | None,
    stats_only: bool,
    svg_file: Path | None,
    no_hints: bool,
    policy: str,
    alpha: float | None,
    beta: float | None,
    k_nearest: int,
    no_restore: bool,
    strict_patches: bool,
    **opts,
) -> None:
    """Compile CIRCUIT_FILE onto BACKEND_FILE and report metrics."""
    if not stats_only:
        out_file = out_file or obj.out_dir / (circuit_file.stem + ".compiled.json")
    _refuse_directories(None if stats_only else out_file, svg_file)
    with _collector_paused():
        circuit = circuit_from_json(_load_doc(circuit_file))
        backend = build_backend(_load_doc(backend_file))
        routing = RoutingConfig.from_policy(
            policy,
            alpha=alpha,
            beta=beta,
            k_nearest=k_nearest,
            restore_mapping=not no_restore,
            strict_patches=strict_patches,
        )
        options = CompileOptions(use_hints=not no_hints, routing=routing, seed=obj.seed, **opts)
        result = compile_circuit(circuit, backend, options)
        click.echo(json.dumps(result.stats.as_dict(), indent=2))
        if not stats_only:
            with _writing(out_file) as fh:  # streamed: the document is never one string
                write_compiled(result, backend, fh.write)
                fh.write("\n")
    if svg_file is not None:
        from .render import render_layout_svg

        svg = render_layout_svg(backend, result.placements, title=circuit_file.name,
                                link_usage=result.compiled.link_usage)
        with _writing(svg_file) as fh:
            fh.write(svg)


@main.group()
def bench() -> None:
    """Benchmark circuit and backend generation."""


@bench.command("gen")
@click.option("--kind", type=click.Choice(_KINDS), default="memory", show_default=True)
@click.option("-d", "--distance", type=int, required=True, help="Code distance (odd, >= 3).")
@click.option("--rounds", type=int, default=1, show_default=True)
@click.option("--n-cnots", type=int, default=1, show_default=True,
              help="CNOT blocks (ls-cnot only).")
@click.option("--headroom", type=float, default=0.30, show_default=True,
              help="Spare chiplet capacity fraction.")
@click.option("--grid", type=(int, int), default=None,
              help="Chiplet grid rows cols (default: sized automatically).")
@click.option("--n-inter", type=int, default=8, show_default=True,
              help="Links per facing chiplet edge.")
@click.option("--eps", type=float, default=1e-3, show_default=True,
              help="Link error rate.")
@click.option("--defects", type=int, default=0, show_default=True,
              help="Random defects per chiplet.")
@click.option("--out-circuit", type=click.Path(path_type=Path), default=None)
@click.option("--out-backend", type=click.Path(path_type=Path), default=None)
@click.pass_obj
@_guard
def bench_gen(
    obj: SimpleNamespace,
    kind: str,
    out_circuit: Path | None,
    out_backend: Path | None,
    **params,
) -> None:
    """Generate a benchmark circuit with a matching backend."""
    params["d"] = params.pop("distance")  # named so CHIPMAP_BENCH_GEN_DISTANCE still sets it
    if kind == "memory":
        source = click.get_current_context().get_parameter_source("n_cnots")
        if source in (ParameterSource.COMMANDLINE, ParameterSource.ENVIRONMENT):
            raise ValidationError(_MEMORY_N_CNOTS)
        del params["n_cnots"]
        stem = f"memory_d{params['d']}"
    else:
        stem = f"ls_cnot_d{params['d']}_n{params['n_cnots']}"
    paths = (out_circuit or obj.out_dir / f"{stem}.circuit.json",
             out_backend or obj.out_dir / f"{stem}.backend.json")
    _refuse_directories(*paths)
    for path, doc in zip(paths, _generate(kind, obj.seed, params)):
        with _writing(path) as fh:
            fh.write(json.dumps(doc, indent=2))
            fh.write("\n")


def _point_param(name: str, value: object, convert, form: str) -> object:
    """A sweep parameter as the type its consumer takes; exit 2 naming a bad one."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"sweep parameter {name!r} must be {form}, got {value!r}") from None


def _generate(kind: str, seed: int, params: dict) -> tuple[dict, dict]:
    """The circuit and backend documents of one benchmark point.

    ``params`` holds generator parameters under their sweep names and must
    hold ``d``; an absent one takes its generator's default.
    """
    from .benchgen import gen_backend_for, gen_ls_cnot_circuit, gen_memory_circuit

    gen = gen_memory_circuit if kind == "memory" else gen_ls_cnot_circuit
    circuit = gen(**{name: params[name] for name in _CIRCUIT_PARAMS if name in params})
    backend = gen_backend_for(
        circuit,
        seed=seed,
        **{kw: params[name] for name, kw in _BACKEND_PARAMS.items() if name in params},
    )
    return circuit, backend


def _sweep_row(task: dict) -> tuple[dict, int]:
    """Generate, compile, and measure one sweep point (worker-safe).

    Returns the CSV row and 0, or, when the point raises a compiler
    error, a row with only its axis values and the message in ``error``,
    and the error's exit code.
    """
    row, params, seed = dict(task["row"]), task["params"], task["seed"]
    try:
        circuit_doc, backend_doc = _generate(task["kind"], seed, params)
        routing = RoutingConfig.from_policy(
            params.get("policy", DEFAULT_POLICY),
            alpha=params.get("alpha"),
            beta=params.get("beta"),
            **task["routing"],
        )
        options = CompileOptions(routing=routing, seed=seed, **task["compile"])
        with _collector_paused():
            result = compile_circuit(
                circuit_from_json(circuit_doc), build_backend(backend_doc), options
            )
    except CompilerError as exc:
        log.warning("sweep point %s failed: %s", row, exc)
        row["error"] = str(exc)
        return row, _exit_code(exc)
    stats = result.stats.as_dict()
    row.update((col, stats[col]) for col in _STAT_COLUMNS)
    return row, 0


@main.command()
@click.argument("spec_file", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("-o", "--out", "out_file", type=click.Path(path_type=Path), default=None,
              help="CSV path (default sweep.csv in --out-dir).")
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True,
              help="Worker processes, at most one per point.")
@click.pass_obj
@_guard
def sweep(obj: SimpleNamespace, spec_file: Path, out_file: Path | None, jobs: int) -> None:
    """Run the benchmark sweep described by SPEC_FILE (YAML or JSON).

    The spec names a generator kind, fixed parameters, and swept axes:

    \b
        kind: ls-cnot
        rounds: 1
        axes:
          d: [3, 5]
          n_inter: [8, 4, 1]
          policy: [basic, tradeoff]
        compile:
          placement: center

    A point's parameters are the top-level values, overridden by that
    point's axis values. Each of d (3 unless given), n_cnots, rounds,
    n_inter, defects, headroom, alpha, beta, policy, grid and eps may be
    fixed at the top level or swept as an axis; the top level also takes
    kind, seed, compile and routing, and rejects any other key. n_cnots
    applies to kind ls-cnot only. compile and routing take
    the fields of CompileOptions and RoutingConfig that the sweep does not
    set itself. Every key and value is checked before the first point
    runs; numeric parameters may be given as numbers or numeric strings.

    Rows appear in axis-product order, outermost axis first. Wall-clock
    columns are omitted so reruns produce byte-identical files. A point
    that raises a compiler error keeps its row, with empty stat cells and
    the message in the trailing error column; the CSV is written in full,
    then the command exits with the first failed point's code.
    """
    import csv
    from concurrent.futures import ProcessPoolExecutor

    out_file = out_file or obj.out_dir / "sweep.csv"
    _refuse_directories(out_file)
    spec = _load_doc(spec_file)
    if not isinstance(spec, dict):
        raise ValidationError("sweep spec must be an object")
    for key in spec:
        if key not in _SWEEP_PARAMS and key not in _SWEEP_KEYS:
            raise ValidationError(f"unknown sweep spec key {key!r}; "
                                  f"choose from {', '.join([*_SWEEP_PARAMS, *_SWEEP_KEYS])}")
    kind = spec.get("kind", "memory")
    if kind not in _KINDS:
        raise ValidationError(f"unknown sweep kind {kind!r}")
    axes = spec.get("axes")
    if not isinstance(axes, dict) or not axes:
        raise ValidationError("sweep spec needs a nonempty axes object")
    for name, vals in axes.items():
        if name not in _SWEEP_PARAMS:
            raise ValidationError(
                f"unknown sweep axis {name!r}; choose from {', '.join(_SWEEP_PARAMS)}"
            )
        if not isinstance(vals, list) or not vals:
            raise ValidationError(f"axis {name!r} must list at least one value")
    if kind == "memory" and ("n_cnots" in spec or "n_cnots" in axes):
        raise ValidationError(_MEMORY_N_CNOTS)
    for block, (cls, owned) in _SWEEP_BLOCKS.items():
        given = spec.get(block, {})
        if not isinstance(given, dict):
            raise ValidationError(f"sweep spec {block!r} must be an object")
        choices = [f.name for f in dataclasses.fields(cls) if f.name not in owned]
        for key in given:
            if key not in choices:
                raise ValidationError(
                    f"unknown {block} option {key!r}; choose from {', '.join(choices)}"
                )
        cls(**given)  # wrong types and values fail before any point runs

    base = {
        "kind": kind,
        "seed": _point_param("seed", spec.get("seed", obj.seed), *_INTEGER),
        "compile": spec.get("compile", {}),
        "routing": spec.get("routing", {}),
    }
    fixed = {"d": 3, **{name: spec[name] for name in _SWEEP_PARAMS if name in spec}}
    tasks = []
    for combo in itertools.product(*axes.values()):
        row = dict(zip(axes, combo))
        params = {
            name: _point_param(name, v, *_SWEEP_PARAMS[name])
            for name, v in {**fixed, **row}.items()
        }
        tasks.append({**base, "row": row, "params": params})
    # a forking pool starts all its workers at the first submit
    workers = min(jobs, len(tasks))
    log.info("sweep: %d points, %d workers", len(tasks), workers)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_row, tasks))
    else:
        results = [_sweep_row(t) for t in tasks]

    with _writing(out_file) as fh:
        writer = csv.DictWriter(fh, fieldnames=[*axes, *_STAT_COLUMNS, "error"])
        writer.writeheader()
        writer.writerows(row for row, _ in results)
    failed = [code for _, code in results if code]
    if failed:
        _fail(failed[0], f"{len(failed)} of {len(results)} sweep points failed; "
                         f"see the error column of {out_file}")


@main.command()
@click.argument("kind", type=click.Choice(["circuit", "backend", "compiled"]))
@click.argument("file", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@_guard
def validate(kind: str, file: Path) -> None:
    """Check FILE against the KIND document schema and semantic rules."""
    doc = _load_doc(file)
    if kind == "circuit":
        circuit_from_json(doc)
    elif kind == "backend":
        build_backend(doc)
    else:
        validate_compiled_doc(doc)
    click.echo(f"{file}: valid {kind} document")

