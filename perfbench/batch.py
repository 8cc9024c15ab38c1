"""The ``batch_network`` workload: library calls on the process backend.

One caller alternates Qo,o and Qb,b (P3, k=100, g=10, other knobs at their
defaults) over a simulated firewall trace, its connection collection copied
once per vertex as in the paper, through
``ExecutionContext(cluster=ClusterConfig(backend="process", max_workers=nproc))``.
Each ``Algorithm.run`` call is one latency sample, from the call to the
returned ``RunReport``; the window holds whole (Qo,o, Qb,b) pairs
(``common.another_unit``), so both shapes contribute the same number of
samples.
"""

from __future__ import annotations

import os
import tempfile
import time
from typing import Any

import numpy as np

from common import (
    DATA_SEED,
    TMP,
    Pass,
    another_unit,
    derived_seed,
    leftovers,
    peak_rss_mb,
    relabel,
    request_log,
    summarise,
    unit_throughput,
)
from layers import layer_metrics
from referee import check_against_oracle, exact_top_k, verify
from repro.core.statistics import collect_statistics
from repro.datagen.network import NetworkTraceConfig, generate_network_collection, sample_collection
from repro.experiments.workloads import build_query
from repro.mapreduce import ClusterConfig
from repro.plan import ExecutionContext, get_algorithm
from repro.serving.protocol import deterministic_metrics
from repro.temporal.interval import Interval, IntervalCollection
from tracing import Recorder, install

__all__ = ["measure_batch"]

SHAPES = ("Qo,o", "Qb,b")
PARAMS, K, GRANULES = "P3", 100, 10
SESSIONS = 900
CONNECTIONS = 1100
"""Connections sampled from the simulated trace (about 1150 come out of 900
sessions)."""
TRACE = 2
"""Which generated trace the workload joins (the generator seed's index)."""
POOL_START_INTERVALS = 60


def network_copies(seed: int) -> list[IntervalCollection]:
    """The trace's connections, sampled to a fixed size, uids relabelled by ``seed``,
    copied once per vertex."""
    trace = generate_network_collection(
        NetworkTraceConfig(num_sessions=SESSIONS), seed=derived_seed(DATA_SEED, "trace", TRACE)
    )
    fraction = min(1.0, (CONNECTIONS + 0.5) / len(trace))
    base = sample_collection(trace, fraction, seed=derived_seed(DATA_SEED, "sample", TRACE))
    uids = relabel(np.arange(len(base)), derived_seed(seed, "uids"))
    intervals = [
        Interval(int(uid), interval.start, interval.end, interval.payload)
        for uid, interval in zip(uids, base.intervals)
    ]
    return [IntervalCollection(f"connections-{copy}", list(intervals)) for copy in (1, 2, 3)]


def measure_batch(
    seed: int, seconds: float, traced: bool, setup_reps: int, connections: int
) -> Pass:
    """Back-to-back (Qo,o, Qb,b) pairs from one caller for ``seconds``.

    The caller is the only connection; the pool gets one worker per CPU.
    A set-up generates the trace, warms the g=10 statistics both queries
    share and starts the pool.  After the last set-up each shape runs once
    untimed: the baseline every window run's ``deterministic_metrics`` must
    equal.
    """
    workers = len(os.sched_getaffinity(0))
    tempfile.tempdir = str(TMP)  # spill directories land in the scratch area
    tkij = get_algorithm("tkij")
    pool_pids: set[int] = set()
    problems: list[str] = []
    times = []
    for rep in range(setup_reps):
        started = time.perf_counter()
        collections = network_copies(seed)
        queries = {shape: build_query(shape, collections, PARAMS, K) for shape in SHAPES}
        context = ExecutionContext(
            cluster=ClusterConfig(backend="process", max_workers=workers)
        )
        context.statistics.get_or_collect(
            {c.name: c for c in collections}, GRANULES, collect_statistics
        )
        _start_pool(tkij, collections, context)
        times.append(time.perf_counter() - started)
        if rep < setup_reps - 1:
            pool_pids |= _pool_pids()
            context.close()
    setup_s = sorted(times)[len(times) // 2]

    recorder = Recorder()
    records: list[dict[str, Any]] = []
    outcomes: dict[str, list[tuple[list, dict]]] = {shape: [] for shape in SHAPES}
    try:
        for shape in SHAPES:
            report = tkij.run(queries[shape], context, num_granules=GRANULES)
            outcomes[shape].append((report.results, deterministic_metrics(report)))
        baseline = {shape: runs[0][1] for shape, runs in outcomes.items()}
        if traced:
            install(recorder)
        started = time.perf_counter()
        cpu_started = time.process_time()
        pair_seconds: list[float] = []
        while another_unit(started, len(pair_seconds), seconds):
            pair_started = time.perf_counter()
            for shape in SHAPES:
                call_start = time.perf_counter()
                with recorder.span("batch.request", root=True):
                    report = tkij.run(queries[shape], context, num_granules=GRANULES)
                end = time.perf_counter()
                outcomes[shape].append((report.results, deterministic_metrics(report)))
                records.append(
                    {"kind": "batch", "shape": shape, "ok": True, "start": call_start,
                     "end": end, "latency": end - call_start}
                )
            pair_seconds.append(time.perf_counter() - pair_started)
        finished = time.perf_counter()
        cpu_frac = (time.process_time() - cpu_started) / (finished - started)
        rss = peak_rss_mb(children=False)
        statistics_cache = context.statistics.describe()
        pool_pids |= _pool_pids()
    finally:
        context.close()
    problems.extend(leftovers(pool_pids | {os.getpid()}))

    # Every answer against the referee; every run's work counters equal the
    # shape's baseline.
    wrong = 0
    for shape, query in queries.items():
        reference = exact_top_k(query)
        for results, metrics in outcomes[shape]:
            if not verify(results, reference, query):
                wrong += 1
            if metrics != baseline[shape]:
                problems.append(f"{shape}: deterministic_metrics differ from the baseline run")
    for shape in check_against_oracle(SHAPES, collections, PARAMS, K):
        problems.append(f"referee disagrees with sql-oracle on {shape}")

    # The two shapes' latencies do not overlap (Qb,b about 2 s, Qo,o about
    # 4 s), so a median over both falls in the gap, halfway between the
    # slowest Qb,b and the fastest Qo,o call, and moved with those two calls
    # alone.  Each shape is summarised on its own and the two averaged.
    latency = summarise([r["latency"] for r in records])
    per_shape = [
        summarise([r["latency"] for r in records if r["shape"] == shape]) for shape in SHAPES
    ]
    result = Pass(
        end_to_end={
            "setup_s": setup_s,
            "latency_p50_s": sum(s["p50"] for s in per_shape) / len(SHAPES),
            "latency_tail_s": sum(s["tail"] for s in per_shape) / len(SHAPES),
            "throughput_qps": unit_throughput(len(records), pair_seconds),
            "peak_rss_mb": rss,
        },
        attempted=sum(len(runs) for runs in outcomes.values()),
        failed=wrong,
        problems=problems,
        notes={
            "tail_pct": latency["tail_pct"],
            "samples": latency["count"],
            "connections": connections,
            "pool_workers": workers,
            "cpu_frac": cpu_frac,
            "wrong_answers": wrong,
            "setup_reps_s": times,
            "intervals_per_vertex": len(collections[0]),
            "deterministic_metrics": baseline,
        },
        requests=request_log(records, started),
    )
    if traced:
        result.layers = layer_metrics(
            recorder.spans,
            records,
            (started, finished),
            {"statistics_cache": statistics_cache},
            {"cpu_frac": cpu_frac, "connections": connections},
        )
    return result


def _start_pool(tkij: Any, collections: list[IntervalCollection], context: Any) -> None:
    """Start the pool's workers with a k=1 query over the first intervals."""
    heads = [
        IntervalCollection(f"pool-start-{c.name}", list(c.intervals[:POOL_START_INTERVALS]))
        for c in collections
    ]
    tkij.run(build_query("Qb,b", heads, PARAMS, 1), context, num_granules=2)


def _pool_pids() -> set[int]:
    import multiprocessing

    return {child.pid for child in multiprocessing.active_children()}
