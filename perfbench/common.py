"""Shared pieces of the benchmark: paths, seeds, statistics, hygiene, results."""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
TMP = OUT / "tmp"


DATA_SEED = 0
"""Seed of every interval's start and length, whatever the run's ``--seed``.

The run's seed relabels interval uids (:func:`relabel`) and orders the
requests, so each seed gets its own inputs and answers, but the join work
stays the same: with seed-drawn intervals, one query's cost varied up to 3x
between datasets (Qf,b) and 30-s runs could not be compared at all."""


def derived_seed(seed: int, *parts: object) -> int:
    """A stable 32-bit seed for one input of one workload run."""
    digest = hashlib.sha256(repr((seed, *parts)).encode()).digest()
    return int.from_bytes(digest[:4], "little")


UID_STRIDE = 1000


def relabel(positions: np.ndarray, seed: int) -> np.ndarray:
    """Seed-drawn uids that keep the order of ``positions`` (distinct integers).

    Position ``p`` gets a uid in ``[p * UID_STRIDE, (p + 1) * UID_STRIDE)``, so
    every seed has its own uids and answers while ties between equal scores
    break in the same order.  A uid permutation instead changed the join's
    work from seed to seed (Qo,o on the network trace scored 219k-263k
    tuples), and with it the timings.
    """
    offsets = np.random.default_rng(seed).integers(0, UID_STRIDE, size=len(positions))
    return positions * UID_STRIDE + offsets


def check_connections(connections: int) -> None:
    """Refuse to run with more client connections than CPUs this process may use."""
    cpus = len(os.sched_getaffinity(0))
    if connections > cpus:
        raise SystemExit(f"error: {connections} connections exceed the {cpus} CPUs available")


# ------------------------------------------------------------------ statistics
def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default rule)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


TAIL_PCT = 90.0
"""The latency tail percentile of every workload.

It is fixed, so the tails of two runs always compare.  A run
holds 8-30 latency samples, so "the highest percentile with at least 10
samples beyond it" would be the median itself, and would move with the speed
of the host or the code.  Every result records its sample count beside the
tail."""


def summarise(values: list[float]) -> dict[str, float]:
    """Median, tail (at :data:`TAIL_PCT`) and sample count of a timing list."""
    return {
        "p50": statistics.median(values) if values else 0.0,
        "tail": percentile(values, TAIL_PCT),
        "tail_pct": TAIL_PCT,
        "count": len(values),
    }


def peak_rss_mb(children: bool) -> float:
    """Peak resident set size of this process, or of its largest ended child."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# --------------------------------------------------------------------- results
@dataclass
class Pass:
    """What one measured pass of a workload produced."""

    end_to_end: dict[str, float]
    layers: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: dict[str, Any] = field(default_factory=dict)
    requests: list[dict[str, Any]] = field(default_factory=list)
    """Per-operation summaries (kind, class, start, latency, ok) for offline analysis."""


def request_log(records: list[dict[str, Any]], origin: float) -> list[dict[str, Any]]:
    """The JSON-safe part of each timed record, times relative to ``origin``."""
    keep = (
        "kind", "shape", "k", "mode", "dataset", "conn", "episode", "tick", "ok", "code", "timings"
    )
    return [
        {
            **{key: record[key] for key in keep if key in record},
            "start": round(record["start"] - origin, 6),
            "latency": round(record["latency"], 6),
        }
        for record in records
    ]


# --------------------------------------------------------------------- hygiene
def prepare_out() -> None:
    """A clean scratch area inside the checkout (spans, server logs, TMPDIR)."""
    if TMP.exists():
        shutil.rmtree(TMP)
    TMP.mkdir(parents=True)


def leftovers(pids: set[int]) -> list[str]:
    """Processes, shared-memory segments and spill directories still around.

    Shared-memory segments are named ``<SEGMENT_PREFIX><pid>-<n>`` after the
    process that created them; only names carrying one of ``pids`` are ours.
    Spill directories are created under ``TMPDIR``, which the benchmark points
    into its own scratch area.
    """
    from repro.columnar.shm import SEGMENT_PREFIX
    from repro.mapreduce.spill import SPILL_DIR_PREFIX

    problems = [
        f"pool process {child.pid} still alive" for child in multiprocessing.active_children()
    ]
    shm = Path("/dev/shm")
    if shm.is_dir():
        pattern = re.compile(re.escape(SEGMENT_PREFIX) + r"(\d+)-")
        for entry in shm.iterdir():
            match = pattern.match(entry.name)
            if match and int(match.group(1)) in pids:
                problems.append(f"shared-memory segment {entry.name} left behind")
    for entry in TMP.glob(f"{SPILL_DIR_PREFIX}*"):
        problems.append(f"spill directory {entry.name} left behind")
    return problems


# ---------------------------------------------------------------------- server
class ServerProcess:
    """The query server as its own process, stock CLI or traced launcher."""

    BANNER = re.compile(r"serving on ([^\s:]+):(\d+)")

    def __init__(self, label: str, traced: bool) -> None:
        self.log_path = OUT / f"server-{label}.log"
        self.spans_path = OUT / f"spans-{label}.json"
        self.spans_path.unlink(missing_ok=True)
        if traced:
            command = [sys.executable, str(HERE / "launch_server.py"), str(self.spans_path)]
        else:
            command = [sys.executable, "-m", "repro.serving.cli"]
        command += ["--port", "0"]
        path = os.environ.get("PYTHONPATH")
        env = {
            **os.environ,
            "PYTHONPATH": str(SRC) + (os.pathsep + path if path else ""),
            "TMPDIR": str(TMP),
        }
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.process = subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT
            )
        self.address = self._await_banner(timeout=60.0)

    def _await_banner(self, timeout: float) -> tuple[str, int]:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = self.BANNER.search(self.log_path.read_text(encoding="utf-8"))
            if match:
                return match.group(1), int(match.group(2))
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        self.kill()
        raise RuntimeError(
            f"server did not start: {self.log_path.read_text(encoding='utf-8')[-2000:]}"
        )

    def stop(self, client: Any) -> list[str]:
        """Ask for shutdown and wait for the process; problems if it lingers."""
        problems = []
        try:
            client.shutdown()
        except (ConnectionError, OSError) as error:
            problems.append(f"shutdown request failed: {error}")
        try:
            code = self.process.wait(timeout=30)
            if code != 0:
                problems.append(f"server exited with code {code}")
        except subprocess.TimeoutExpired:
            problems.append("server still alive 30 s after shutdown")
            self.kill()
        return problems

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait(timeout=30)


# ------------------------------------------------------------------ load loop
def another_unit(started: float, units: int, seconds: float) -> bool:
    """Whether the window starts one more unit of work.

    A unit is a workload's repeating piece of work (a serve_mixed round, a
    serve_ingest episode, a batch_network pair), the same from one to the
    next, so a window of whole units always holds the same mix of requests,
    however many units fit.  Another unit starts while, at the mean unit
    duration so far, it would end within ``OVERRUN`` past ``seconds``; the
    first always runs.  A run therefore never measures much longer than
    ``seconds``, whatever the speed of the host.
    """
    elapsed = time.perf_counter() - started
    return units == 0 or elapsed * (units + 1) / units <= seconds * OVERRUN


OVERRUN = 1.1
"""How far past ``--seconds`` a window may be expected to end (see :func:`another_unit`)."""


def closed_loop(
    step: Callable[[int, int], list[dict[str, Any]]],
    connections: int,
    seconds: float,
    unit: int = 1,
) -> tuple[list[dict[str, Any]], tuple[float, float], float, list[float]]:
    """Run rounds of ``step(connection, round)``, all connections at once, in whole units.

    A unit is ``unit`` rounds; the window holds whole units (see
    :func:`another_unit`).  The next round starts when the slowest
    connection is done with the last, so every connection runs the same
    steps and none runs alone (a connection left alone ran its step about
    twice as fast).  Returns the records, the window (start, last
    completion), the client CPU share and each unit's duration.
    """
    records: list[dict[str, Any]] = []
    started = time.perf_counter()
    cpu_started = time.process_time()
    unit_seconds: list[float] = []
    with ThreadPoolExecutor(max_workers=connections) as pool:
        while another_unit(started, len(unit_seconds), seconds):
            unit_started = time.perf_counter()
            first = len(unit_seconds) * unit
            for index in range(first, first + unit):
                for stepped in pool.map(step, range(connections), [index] * connections):
                    records.extend(stepped)
            unit_seconds.append(time.perf_counter() - unit_started)
    finished = max((record["end"] for record in records), default=time.perf_counter())
    cpu_frac = (time.process_time() - cpu_started) / max(finished - started, 1e-9)
    return records, (started, finished), cpu_frac, unit_seconds


def unit_throughput(completed: int, unit_seconds: list[float]) -> float:
    """Completed operations per second at the median unit's pace.

    Every unit of a workload holds the same requests, so each completes
    ``completed / len(unit_seconds)`` of them.  Dividing by the median
    unit's duration, not the window's, keeps a burst of host slowness in one
    unit from moving the figure: two identical serve_mixed rounds of one
    run took 10.6 and 16.3 s on a 2-vCPU VM.
    """
    return completed / len(unit_seconds) / statistics.median(unit_seconds)
