"""Layered compile benchmark for chipmap.

Run from the repository root:

    python3 bench/run.py --workload ls-cnot-d15 --seed 0 --seconds 40 --trace 0

``--trace 0`` runs ``chipmap compile`` as a closed loop of fresh
processes, one at a time, each writing its compiled document, and prints
the end-to-end metrics. ``--trace 1`` alternates such a CLI compile with
an in-process compile traced layer by layer (see spans.py), prints the
per-layer metrics and writes the span record to
``bench/_work/<workload>/trace-seed<N>.json``. Every compiled document is
replayed by an independent checker (replay.py) and its digest compared
with ``bench/golden.json``; ``--record-golden`` stores this run's digests
there instead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))  # the checkout's sources, not an installed copy

from launcher import CLI, IMPORT_ONLY, run_python  # noqa: E402
from replay import CheckError, Device, check, corrupt_one_operand, digest  # noqa: E402
from spans import LAYER_METRICS, layer_seconds  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

GOLDEN = BENCH / "golden.json"
CHILD_TIMEOUT_S = 120
SETUP_SAMPLES = 5  # fewest fresh-interpreter imports per run, after one warm-up

END_TO_END_UNITS = {
    "compile_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "swap_count": "count",
    "depth_ratio": "ratio",
    "cx_expanded_overhead": "ratio",
    "inter_chiplet_two_qubit": "count",
    "patch_violations": "count",
    "max_link_usage": "count",
    "link_error_sum": "nats",
}
# Per-layer metrics: seconds come from the traced compile's spans, counts
# from TRACED_COUNTS or from the untraced CLI compile beside it.
PER_LAYER_UNITS = {
    "cli.load_s": "s",
    "cli.load_bytes": "bytes",
    "schema.check_s": "s",
    "ir.parse_s": "s",
    "ir.gates_in": "count",
    "backend.build_s": "s",
    "backend.coupling_s": "s",
    "backend.links": "count",
    "partition.s": "s",
    "partition.count": "count",
    "sequence.s": "s",
    "gmap.s": "s",
    "gmap.free_regions": "count",
    "lmap.s": "s",
    "route.s": "s",
    "route.gates_out": "count",
    "route.swaps": "count",
    "route.crossings": "count",
    "metrics.stats_s": "s",
    "pipeline.serialize_s": "s",
    "cli.dump_s": "s",
    "cli.write_s": "s",
    "cli.out_bytes": "bytes",
    "cli.warning_lines": "count",
    "pipeline.reported_wall_s": "s",
    "cli.unaccounted_s": "s",
    "trace.total_s": "s",
    "trace.overhead_s": "s",
}
TRACED_COUNTS = ("cli.load_bytes", "ir.gates_in", "backend.links", "partition.count",
                 "gmap.free_regions", "route.gates_out", "route.swaps", "route.crossings",
                 "cli.out_bytes")


@dataclass
class CaseRun:
    """One compile of one case, by the CLI or by the traced child."""

    label: str
    ok: bool
    wall_s: float
    peak_rss_mb: float = 0.0
    digest: str | None = None
    quality: dict | None = None
    reported_wall_s: float | None = None
    warning_lines: int = 0
    error: str = ""
    layers: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)


class Run:
    """State of one benchmark run: inputs, outcomes and the correctness verdict."""

    def __init__(self, workload, seed: int, seconds: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.cases = []
        t0 = time.perf_counter()
        for case in workload.cases():
            circuit_file = work / f"{case.label}.circuit.json"
            backend_file = work / f"{case.label}.backend.json"
            circuit_file.write_text(json.dumps(case.circuit))
            backend_file.write_text(json.dumps(case.backend))
            self.cases.append((case, circuit_file, backend_file, Device(case.backend)))
        self.gen_s = time.perf_counter() - t0
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, set[str]] = {}
        self.selftest = "not run"
        self.spans: list[dict] = []  # traced compiles, tagged with their trace id

    def fail(self, message: str) -> None:
        self.problems.append(message)

    # -- the untraced CLI path ----------------------------------------

    def cli_op(self) -> list[CaseRun]:
        runs = []
        for case, circuit_file, backend_file, device in self.cases:
            out = self.work / f"{case.label}.compiled.json"
            out.unlink(missing_ok=True)
            args = ["compile", str(circuit_file), str(backend_file),
                    *self.workload.cli_args(), "-o", str(out)]
            proc = run_python(["-c", CLI, *args], SRC, self.work, CHILD_TIMEOUT_S)
            run = CaseRun(case.label, proc.code == 0, proc.wall_s, proc.peak_rss_mb,
                          warning_lines=proc.stderr.count("\n"))
            self.attempted += 1
            if not run.ok:
                tail = proc.stderr.strip().splitlines()[-1:] or [""]
                run.error = f"exit {proc.code}: {tail[0]}"
            else:
                self._check_cli_output(case, device, out, proc.stdout, run)
            if not run.ok:
                self.failed += 1
            runs.append(run)
        return runs

    def _check_cli_output(self, case, device, out: Path, stdout: str, run: CaseRun) -> None:
        try:
            doc = json.loads(out.read_text())
            printed = json.loads(stdout)
            if printed != doc["stats"]:
                raise CheckError("stats printed on stdout differ from the written document")
            run.quality = check(case.circuit, device, doc)
        except (CheckError, ValueError, KeyError) as exc:
            run.ok = False
            run.error = f"output check: {exc}"
            self.fail(f"{case.label}: {run.error}")
            return
        run.reported_wall_s = printed["wall_time_s"]
        run.digest = digest(doc)
        self.digests.setdefault(case.label, set()).add(run.digest)
        if self.selftest == "not run":
            try:
                check(case.circuit, device, corrupt_one_operand(doc))
            except CheckError as exc:
                self.selftest = f"corrupted operand rejected ({exc})"
            else:
                self.selftest = "FAILED: a corrupted operand passed the checker"
                self.fail(self.selftest)

    # -- the traced path ------------------------------------------------

    def traced_op(self, n: int) -> list[CaseRun]:
        runs = []
        for case, circuit_file, backend_file, _ in self.cases:
            record_file = self.work / f"{case.label}.spans.json"
            record_file.unlink(missing_ok=True)
            args = [str(BENCH / "spans.py"), str(circuit_file), str(backend_file),
                    str(self.work / f"{case.label}.traced.json"),
                    json.dumps(self.workload.options), str(record_file)]
            proc = run_python(args, SRC, self.work, CHILD_TIMEOUT_S)
            self.attempted += 1
            if proc.code != 0:
                self.failed += 1
                self.fail(f"{case.label}: traced compile crashed: {proc.stderr.strip()[-300:]}")
                runs.append(CaseRun(case.label, False, proc.wall_s, error=f"exit {proc.code}"))
                continue
            record = json.loads(record_file.read_text())
            for span in record["spans"]:
                span["trace"] = f"{n}:{case.label}"
            self.spans += record["spans"]
            run = CaseRun(case.label, record["ok"], proc.wall_s, proc.peak_rss_mb,
                          digest=record.get("digest"), error=record["error"],
                          warning_lines=proc.stderr.count("\n"),
                          layers=layer_seconds(record["spans"]),
                          counts=record.get("counts", {}))
            if not run.ok:
                self.failed += 1
            else:
                for name, value in record["document"].items():
                    if run.counts[name] != value:
                        self.fail(f"{case.label}: traced {name} {run.counts[name]} "
                                  f"!= document {value}")
                self.digests.setdefault(case.label, set()).add(run.digest)
            runs.append(run)
        return runs

    # -- verdicts ------------------------------------------------------

    def check_outcomes(self, ops: list[list[CaseRun]]) -> None:
        """Every compile of a case must end the same way with the same output."""
        for label, digests in self.digests.items():
            if len(digests) > 1:
                self.fail(f"{label}: compiled documents differ between compiles of one run")
        for i, (case, *_) in enumerate(self.cases):
            outcomes = {op[i].ok for op in ops}
            if len(outcomes) > 1:
                self.fail(f"{case.label}: some compiles succeed and some fail")
            qualities = {json.dumps(op[i].quality, sort_keys=True) for op in ops if op[i].quality}
            if len(qualities) > 1:
                self.fail(f"{case.label}: quality metrics differ between compiles of one run")

    def golden_status(self) -> dict[str, str]:
        golden = json.loads(GOLDEN.read_text()).get(self.workload.name, {})
        status = {}
        for case, *_ in self.cases:
            seen = self.digests.get(case.label)
            if not seen:
                status[case.label] = "no output"
            elif case.label not in golden:
                status[case.label] = "no golden digest recorded"
            else:
                status[case.label] = "match" if golden[case.label] in seen else "MISMATCH"
        return status

    def record_golden(self) -> None:
        golden = json.loads(GOLDEN.read_text())
        golden[self.workload.name] = {
            label: next(iter(d)) for label, d in sorted(self.digests.items()) if len(d) == 1
        }
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


def _import_wall(work: Path) -> float:
    """Wall time of a fresh interpreter that imports chipmap.cli and exits."""
    proc = run_python(["-c", IMPORT_ONLY], SRC, work, CHILD_TIMEOUT_S)
    if proc.code != 0:
        raise RuntimeError(f"importing chipmap.cli failed: {proc.stderr.strip()}")
    return proc.wall_s


def _loop(seconds: int, step) -> list:
    """Closed loop: run ``step`` until the next one would overrun ``seconds``."""
    results, spent = [], 0.0
    while True:
        t0 = time.perf_counter()
        results.append(step(len(results)))
        took = time.perf_counter() - t0
        spent += took
        if spent + took > seconds:
            return results


def _quality(run: Run, ops: list[list[CaseRun]]) -> dict:
    """Quality metrics of the workload's first case (the one that compiles at the seed)."""
    for op in ops:
        if op[0].quality is not None:
            return op[0].quality
    raise RuntimeError(f"no compile of {run.cases[0][0].label} passed; no quality to report")


def _end_to_end(run: Run) -> tuple[dict, list[str]]:
    setup: list[float] = []

    def step(_):  # import samples spread over the run see the same machine load
        setup.append(_import_wall(run.work))
        return run.cli_op()

    ops = _loop(run.seconds, step)
    while len(setup) < SETUP_SAMPLES:
        setup.append(_import_wall(run.work))
    run.check_outcomes(ops)
    metrics = {
        "compile_s": median([sum(c.wall_s for c in op) for op in ops]),
        "setup_s": median(setup),
        "peak_rss_mb": median([max(c.peak_rss_mb for c in op) for op in ops]),
        **_quality(run, ops),
    }
    lines = [f"ops: {len(ops)} (one CLI call per case, each op closed-loop)"]
    lines += _case_lines(ops, "cli")
    lines.append(f"ops_failed {run.failed / run.attempted!r} share "
                 f"({run.failed} of {run.attempted} compiles)")
    return metrics, lines


def _per_layer(run: Run) -> tuple[dict, list[str]]:
    pairs = _loop(run.seconds, lambda n: (run.cli_op(), run.traced_op(n)))
    cli_ops = [p[0] for p in pairs]
    traced_ops = [p[1] for p in pairs]
    run.check_outcomes(cli_ops)
    run.check_outcomes(traced_ops)
    for cli, traced in zip(cli_ops, traced_ops):
        for a, b in zip(cli, traced):
            if a.ok != b.ok:
                run.fail(f"{a.label}: CLI and traced compile end differently")

    def median_sum(ops, value) -> float:
        return median([sum(value(c) for c in op) for op in ops])

    metrics = {name: median_sum(traced_ops, lambda c: c.layers.get(name, 0.0))
               for name in LAYER_METRICS.values()}
    metrics.update({name: median_sum(traced_ops, lambda c: c.counts.get(name, 0))
                    for name in TRACED_COUNTS})
    compile_s = median_sum(cli_ops, lambda c: c.wall_s)
    traced_s = median_sum(traced_ops, lambda c: c.wall_s)
    ok_cli = [[c for c in op if c.ok] for op in cli_ops]
    metrics.update({
        "cli.warning_lines": median_sum(cli_ops, lambda c: c.warning_lines),
        "pipeline.reported_wall_s": median_sum(ok_cli, lambda c: c.reported_wall_s),
        "cli.unaccounted_s": median_sum(ok_cli, lambda c: c.wall_s - c.reported_wall_s),
        "trace.total_s": traced_s,
        "trace.overhead_s": traced_s - compile_s,
    })

    record = run.work / f"trace-seed{run.seed}.json"
    record.write_text(json.dumps({
        "workload": run.workload.name,
        "seed": run.seed,
        "spans": run.spans,
        "counts": {f"{n}:{c.label}": c.counts for n, op in enumerate(traced_ops) for c in op},
        "untraced": [[c.__dict__ for c in op] for op in cli_ops],
    }, indent=1))
    lines = [f"pairs: {len(pairs)} (untraced CLI compile, then traced compile)",
             f"untraced compile_s {compile_s!r} s beside traced {traced_s!r} s",
             f"span record: {record.relative_to(ROOT)}"]
    lines += _case_lines(cli_ops, "cli") + _case_lines(traced_ops, "traced")
    return {name: metrics[name] for name in PER_LAYER_UNITS}, lines


def _case_lines(ops: list[list[CaseRun]], kind: str) -> list[str]:
    lines = []
    for i, op in enumerate(ops):
        for c in op:
            state = "ok" if c.ok else f"failed ({c.error})"
            lines.append(f"  {kind} op {i} {c.label}: {c.wall_s:.3f} s, {state}")
    return lines


def _environment() -> str:
    versions = ", ".join(f"{p} {metadata.version(p)}" for p in ("networkx", "jsonschema"))
    return (f"environment: python {platform.python_version()}, nproc {os.cpu_count()}, "
            f"{versions}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "chipmap" / "cli.py").is_file():
        print(f"error: chipmap sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    work = BENCH / "_work" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    # The checker expands backends with chipmap.backend; the CLI reports their warnings.
    logging.getLogger("chipmap").setLevel(logging.ERROR)
    workload = WORKLOADS[args.workload]
    run = Run(workload, args.seed, args.seconds, work)
    _import_wall(work)  # warm-up: the first import may write bytecode caches
    metrics, lines = (_per_layer if args.trace else _end_to_end)(run)
    golden = run.golden_status()
    if args.record_golden and not run.problems:
        run.record_golden()

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{run.attempted} compiles attempted, {run.failed} failed")
    print(_environment())
    print(f"inputs generated in {run.gen_s:.3f} s; known failures: "
          f"{workload.known_failures or 'none'}")
    for line in lines:
        print(line)
    print(f"checker self-test: {run.selftest}")
    for label, status in golden.items():
        print(f"digest {label}: {sorted(run.digests.get(label, []))} golden: {status}")
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"  {name} {value!r} {units[name]}")
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
