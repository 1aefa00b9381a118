"""Loading the package from the checkout and running one CLI task in-process."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"
OUT = Path(__file__).resolve().parent / "out"
DIGESTS = Path(__file__).resolve().parent / "digests.json"


class SetupError(Exception):
    """The checkout does not hold a loadable slopechain package."""


def load_package(fresh=False):
    """Import slopechain from the checkout's `src`, never from elsewhere.

    With `fresh`, every slopechain module is dropped first so that the import
    runs again from the top (set-up time is measured that way).
    """
    if not (SRC / "slopechain" / "__init__.py").is_file():
        raise SetupError(f"no slopechain package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if fresh:
        for name in [m for m in sys.modules if m == "slopechain" or m.startswith("slopechain.")]:
            del sys.modules[name]
    package = importlib.import_module("slopechain")
    importlib.import_module("slopechain.cli")
    if Path(package.__file__).resolve().parent != SRC / "slopechain":
        raise SetupError(f"slopechain was imported from {package.__file__}, not {SRC}")
    return package


@dataclass(frozen=True)
class Task:
    """One CLI subcommand on one generated config."""

    stratum: str
    command: tuple
    config: dict

    @property
    def key(self) -> str:
        """Content key: identical tasks share it across seeds and passes."""
        text = json.dumps([list(self.command), self.config], sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:20]


@dataclass
class Outcome:
    rc: int | None            # None when cli.run raised
    seconds: float
    body: bytes               # the report (rc 0) or the error report on stdout
    error: str | None = None


def write_configs(tasks, workdir: Path):
    """One config file per distinct config; returns {task key: path}."""
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    by_config = {}
    for task in tasks:
        text = json.dumps(task.config, sort_keys=True)
        path = by_config.get(text)
        if path is None:
            path = workdir / f"cfg{len(by_config):04d}.json"
            path.write_text(text)
            by_config[text] = path
        paths[task.key] = str(path)
    return paths


def run_task(cli, task: Task, config_path: str, out_path: str) -> Outcome:
    """Run one task through `cli.run`; only the call itself is timed."""
    argv = list(task.command) + ["-c", config_path, "--out", out_path]
    captured = io.StringIO()
    error = None
    rc = None
    with contextlib.redirect_stdout(captured):
        start = perf_counter()
        try:
            rc = cli.run(argv)
        except Exception as exc:                 # a traceback is a failed task
            error = f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
    if rc == 0:
        with open(out_path, "rb") as fh:
            body = fh.read()
        os.remove(out_path)
    else:
        body = captured.getvalue().encode()
    return Outcome(rc, seconds, body, error)


def digest(body: bytes) -> str:
    return hashlib.sha256(body).hexdigest()[:32]


def load_digests():
    """{workload: {task key: digest or {"known_failure": cause}}}."""
    if not DIGESTS.is_file():
        return {}
    return json.loads(DIGESTS.read_text())


def calibrate() -> float:
    """Milliseconds for a fixed pure-Python loop: a host-drift diagnostic."""
    start = perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc + i * i) % 1_000_003
    return (perf_counter() - start) * 1000.0


# On the shared 2-vCPU Xeon sandbox the benchmark was defined on, host speed
# swung by up to 1.8x for seconds to tens of seconds at a time, on both CPUs
# at once.  Every timed task is therefore preceded by this probe, a fixed mix
# of the work the program does (Fraction elimination, JSON round trips,
# tuple-keyed dicts) written with the standard library only, so that it does
# not change with the program; the task's time is scaled to what it would
# have been on a host where the probe takes REFERENCE_S (its typical time on
# that sandbox).
REFERENCE_S = 0.004
_PROBE_MATRIX = tuple(
    tuple(Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + 2 * j) % 4) for j in range(7))
    for i in range(6)
)
_PROBE_DOC = {"rows": [[i, str(i), {"k": i * 3}] for i in range(40)], "cols": list(range(60))}


def _probe_elimination():
    work = [list(row) for row in _PROBE_MATRIX]
    r = 0
    for c in range(7):
        pivot = next((i for i in range(r, 6) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = 1 / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(6):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        r += 1


def _probe_documents():
    doc = json.loads(json.dumps(_PROBE_DOC, sort_keys=True, indent=2))
    table = {(i, row[1]): [x * 2 for x in doc["cols"][:20]] for i, row in enumerate(doc["rows"])}
    sorted(table.items())


def reference_probe() -> float:
    """Seconds for the fixed host-speed probe, taken after a full collection
    so that no garbage from earlier work is collected inside the next task."""
    gc.collect()
    start = perf_counter()
    for _ in range(2):
        _probe_elimination()
    for _ in range(3):
        _probe_documents()
    return perf_counter() - start


def normalized(seconds: float, probe_s: float) -> float:
    """`seconds` rescaled to the host speed at which the probe takes REFERENCE_S."""
    return seconds * REFERENCE_S / probe_s
