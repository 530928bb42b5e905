"""Run chipmap in a fresh interpreter and measure that one process.

The console script is not installed in a source checkout and
``python -m chipmap.cli`` does nothing (the module has no ``__main__``
guard), so the launcher calls ``chipmap.cli.main`` with ``src`` on the
path. Peak RSS comes from ``os.wait4`` on the child itself:
``RUSAGE_CHILDREN`` would keep the maximum over every earlier child.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

CLI = "from chipmap.cli import main; main(prog_name='chipmap')"
IMPORT_ONLY = "import chipmap.cli"


@dataclass(frozen=True)
class ProcResult:
    code: int
    wall_s: float  # spawn to exit, interpreter start included
    peak_rss_mb: float
    stdout: str
    stderr: str


def run_python(args: list[str], src: Path, work: Path, timeout_s: int) -> ProcResult:
    """Run ``python args`` with ``src`` on the path; kill it after ``timeout_s``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    # Children read and write bytecode caches, as an installed CLI does,
    # whatever the caller's environment says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    out_path, err_path = work / "child.stdout", work / "child.stderr"
    with out_path.open("wb") as out, err_path.open("wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], stdout=out, stderr=err, env=env
        )
        previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.alarm(timeout_s)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcResult(
        code=proc.returncode,
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        stdout=out_path.read_text(),
        stderr=err_path.read_text(),
    )
