"""The two served workloads: ``serve_mixed`` (read mix) and ``serve_ingest`` (writes).

The server runs as its own process through ``repro.serving.cli`` with its
default flags (serial backend, 8 reducers, ``max_inflight`` 4); the traced
pass starts it through ``launch_server.py`` instead.  Data goes in through the
``register`` verb, so the server only ever sees generated intervals.  Load
comes from closed-loop connections in this process, one thread each,
stepping in rounds (``common.closed_loop``).
"""

from __future__ import annotations

import os
import random
import time
from typing import Any, Callable

import numpy as np

from common import (
    DATA_SEED,
    Pass,
    ServerProcess,
    closed_loop,
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
from repro.datagen.synthetic import SyntheticConfig
from repro.experiments.workloads import build_query
from repro.serving import QueryClient, ServingError
from repro.serving.protocol import decode_results, encode_intervals
from repro.streaming.parity import equivalent_top_k
from repro.temporal.interval import Interval, IntervalCollection
from tracing import Recorder, install_codec, load_spans

__all__ = ["measure_mixed", "measure_ingest"]

AUTO_SHAPE, AUTO_K = "Qo,m", 20
ROUND = (
    ("Qo,m", AUTO_K, "manual"),
    ("Qb,b", 50, "manual"),
    ("Qs,m", 10, "manual"),
    ("Qf,b", 50, "manual"),
    (AUTO_SHAPE, AUTO_K, "auto"),
)
"""The ``(shape, k, mode)`` requests of every ``serve_mixed`` round.

Each Table 1 shape once in manual mode, with every k of {10, 20, 50} in use,
and one auto request in five.  Every round holds the same requests, so the
window's unit is short (about 5 s) and a run holds five or more of them:
throughput is taken at the median round's pace, so a burst of host
slowness in one round does not move it.  Rounds that held every (shape, k)
pair took 10-16 s, two to a run, and two identical ones of one run took
10.6 and 16.3 s.  The auto request is Qo,m, also sent manually at the same
k: the planner's plan for it takes about twice as long as any manual
request, so auto requests are the slowest class and the latency tail
measures them (with autos on every shape the tail fell between request
classes and spread 0.18-0.31 over ten seeds)."""
SIZE = 200
PARAMS = "P1"
NAMES = ("R", "S", "T")
INGEST_SHAPE, INGEST_K, BATCH = "Qo,m", 20, 20
INGEST_SIZE = 60
"""Initial stream size: at 20 intervals a tick the streams double at tick 3,
where the planner replans."""
EPISODE_TICKS = 3
"""Ticks per ``serve_ingest`` episode.  An episode registers three fresh
streaming collections per connection, runs their cold streaming evaluation
and then ``EPISODE_TICKS`` ticks, the last of which replans.  Every episode
ingests the same intervals into new collections (new names, so no cache
carries over), so a window of whole episodes always holds the same ticks.
When the streams instead grew for as long as the window lasted, a faster
host or program ran more ticks over larger collections, and the latency
tail moved with the number of ticks (0.13-0.31 over ten seeds)."""


def _collection(
    name: str, size: int, seed: int, label_seed: int, first_uid: int = 0
) -> IntervalCollection:
    """Uniform intervals over ``SyntheticConfig``'s default ranges, stratified.

    Starts and lengths are drawn from ``seed``, one per equal-width stratum
    (lengths in a shuffled order); interval ``i`` gets the uid
    ``relabel(first_uid + i, label_seed)``.
    """
    config = SyntheticConfig(size=size)
    rng = np.random.default_rng(seed)
    uids = relabel(first_uid + np.arange(size), label_seed)
    strata = (np.arange(size) + rng.random(size)) / size
    starts = np.floor(config.start_min + strata * (config.start_max - config.start_min))
    lengths = config.length_min + rng.permutation(
        (np.arange(size) + rng.random(size)) / size
    ) * (config.length_max - config.length_min)
    lengths = np.maximum(1.0, np.round(lengths))
    return IntervalCollection(
        name,
        [
            Interval(int(uid), float(start), float(start + length))
            for uid, start, length in zip(uids, starts, lengths)
        ],
    )


def mixed_round(seed: int, index: int) -> list[tuple[str, int, str]]:
    """Round ``index`` of ``serve_mixed``: the ``ROUND`` requests in a seed-shuffled order."""
    requests = list(ROUND)
    random.Random(derived_seed(seed, "mixed-round", index)).shuffle(requests)
    return requests


def _timed(kind: str, call: Callable[[], dict[str, Any]], **fields: Any) -> dict[str, Any]:
    """One request as a record: latency, outcome, error code, response."""
    started = time.perf_counter()
    record: dict[str, Any] = {"kind": kind, "start": started, **fields}
    try:
        response = call()
        record.update(ok=True, code=None, response=response, timings=response.get("timings"))
    except ServingError as error:
        record.update(ok=False, code=error.code, response=None, timings=None)
    except (ConnectionError, OSError) as error:
        record.update(ok=False, code=f"TRANSPORT: {error}", response=None, timings=None)
    record["end"] = time.perf_counter()
    record["latency"] = record["end"] - started
    return record


def _results(record: dict[str, Any]) -> list:
    return decode_results(record["response"]["results"])


class _Served:
    """Setup, window and teardown shared by both served workloads."""

    def __init__(self, connections: int, traced: bool, label: str) -> None:
        self.connections = connections
        self.traced = traced
        self.label = label
        self.problems: list[str] = []
        self.server_pids: set[int] = set()
        self.setup_times: list[float] = []

    def start(self, register: Callable[[QueryClient], None], warm: Callable[[list], None]):
        """Spawn, connect, register and run the cold queries; returns (server, clients)."""
        server = ServerProcess(self.label, self.traced)
        self.server_pids.add(server.process.pid)
        clients = [QueryClient(*server.address, timeout=150.0) for _ in range(self.connections)]
        try:
            for client in clients:
                client.ping()
            register(clients[0])
            warm(clients)
        except BaseException:
            for client in clients:
                client.close()
            server.kill()
            raise
        return server, clients

    def setup(self, reps: int, register, warm) -> tuple[float, ServerProcess, list]:
        """Set up ``reps`` times from scratch; keep the last server, report the median."""
        times = self.setup_times
        for rep in range(reps):
            started = time.perf_counter()
            server, clients = self.start(register, warm)
            times.append(time.perf_counter() - started)
            if rep < reps - 1:
                self.stop(server, clients)
        return sorted(times)[len(times) // 2], server, clients

    def stop(self, server: ServerProcess, clients: list) -> dict[str, Any]:
        stats = clients[0].stats()
        self.problems.extend(server.stop(clients[0]))
        for client in clients:
            client.close()
        return stats


def _end_to_end(
    setup_s: float, latencies: list[float], completed: int, unit_seconds: list[float]
) -> tuple[dict[str, float], dict[str, float]]:
    latency = summarise(latencies)
    return {
        "setup_s": setup_s,
        "latency_p50_s": latency["p50"],
        "latency_tail_s": latency["tail"],
        "throughput_qps": unit_throughput(completed, unit_seconds),
        "peak_rss_mb": peak_rss_mb(children=True),
    }, latency


def _finish(
    served: _Served,
    records: list[dict[str, Any]],
    wrong: int,
    end_to_end: dict[str, float],
    latency: dict[str, float],
    window: tuple[float, float],
    cpu_frac: float,
    server: ServerProcess,
    stats: dict[str, Any],
    client_spans: list[dict[str, Any]],
) -> Pass:
    # Wrong answers were already marked not ok by the verification.
    failed = sum(1 for r in records if not r["ok"])
    problems = served.problems + leftovers(served.server_pids | {os.getpid()})
    result = Pass(
        end_to_end=end_to_end,
        attempted=len(records),
        failed=failed,
        problems=problems,
        notes={
            "tail_pct": latency["tail_pct"],
            "samples": latency["count"],
            "connections": served.connections,
            "cpu_frac": cpu_frac,
            "wrong_answers": wrong,
            "setup_reps_s": served.setup_times,
            "refused": sum(1 for r in records if r.get("code") in ("BUSY", "DRAINING")),
        },
        requests=request_log(records, window[0]),
    )
    if served.traced:
        spans = load_spans(server.spans_path) + client_spans
        result.layers = layer_metrics(
            spans,
            records,
            window,
            stats,
            {"cpu_frac": cpu_frac, "connections": served.connections},
        )
    return result


# ------------------------------------------------------------------ serve_mixed
def measure_mixed(
    seed: int, seconds: float, traced: bool, setup_reps: int, connections: int
) -> Pass:
    """Closed-loop Table 1 read mix over three uniform collections, 1 in 5 auto."""
    collections = [
        _collection(
            name, SIZE, derived_seed(DATA_SEED, "mixed", name), derived_seed(seed, "mixed", name)
        )
        for name in NAMES
    ]

    def register(client: QueryClient) -> None:
        for collection in collections:
            client.register(collection.name, encode_intervals(collection))

    def warm(clients: list) -> None:
        # One cold query per request class (manual, auto), on the cheapest
        # shape: the window's first auto request still misses the plan
        # cache, later ones hit it.
        clients[0].query("Qb,b", NAMES, PARAMS, 10)
        clients[0].query("Qb,b", NAMES, PARAMS, AUTO_K, options={"mode": "auto"})

    served = _Served(connections, traced, "mixed")
    setup_s, server, clients = served.setup(setup_reps, register, warm)
    recorder = Recorder()
    if traced:
        from repro.serving import client as client_module

        install_codec(recorder, client_module)

    def step(index: int, round_index: int) -> list[dict[str, Any]]:
        records = []
        for shape, k, mode in mixed_round(seed, round_index):
            options = {"mode": "auto"} if mode == "auto" else {}
            records.append(
                _timed(
                    "query",
                    lambda: clients[index].query(shape, NAMES, PARAMS, k, options=options),
                    shape=shape,
                    k=k,
                    mode=mode,
                )
            )
        return records

    try:
        records, window, cpu_frac, units = closed_loop(step, connections, seconds)
    finally:
        stats = served.stop(server, clients)

    # Verify every answer against the referee's top-k prefix.
    top = max(k for _, k, _ in ROUND)
    queries = {shape: build_query(shape, collections, PARAMS, top) for shape, _, _ in ROUND}
    references = {shape: exact_top_k(query) for shape, query in queries.items()}
    wrong = 0
    for record in records:
        shape = record["shape"]
        if record["ok"] and not verify(
            _results(record), references[shape][: record["k"]], queries[shape]
        ):
            record["ok"] = False
            wrong += 1
    for shape in check_against_oracle(list(queries), collections, PARAMS, top):
        served.problems.append(f"referee disagrees with sql-oracle on {shape}")

    ok = [r for r in records if r["ok"]]
    end_to_end, latency = _end_to_end(setup_s, [r["latency"] for r in ok], len(ok), units)
    return _finish(
        served, records, wrong, end_to_end, latency, window, cpu_frac, server, stats,
        recorder.spans,
    )


# ------------------------------------------------------------------ serve_ingest
def measure_ingest(
    seed: int, seconds: float, traced: bool, setup_reps: int, connections: int
) -> Pass:
    """Per connection: episodes of register -> cold streaming query -> ticks.

    A tick ingests a batch into each collection, then runs a streaming query
    and a static query.  Episode 0 is the set-up's; the window runs whole
    episodes from 1 on (``common.closed_loop`` with one unit per episode).
    """
    bases = {index: [f"c{index}{name}" for name in NAMES] for index in range(connections)}

    def names_of(index: int, episode: int) -> list[str]:
        return [f"{base}e{episode}" for base in bases[index]]

    initial = {
        base: _collection(
            base,
            INGEST_SIZE,
            derived_seed(DATA_SEED, "ingest", base),
            derived_seed(seed, "ingest", base),
        )
        for index in range(connections)
        for base in bases[index]
    }

    def batch(base: str, tick: int) -> IntervalCollection:
        return _collection(
            base,
            BATCH,
            derived_seed(DATA_SEED, "batch", base, tick),
            derived_seed(seed, "batch", base, tick),
            first_uid=INGEST_SIZE + BATCH * (tick - 1),
        )

    def register(client: QueryClient, index: int, episode: int) -> dict[str, Any]:
        for base, name in zip(bases[index], names_of(index, episode)):
            response = client.register(name, encode_intervals(initial[base]), streaming=True)
        return response

    def streaming_query(client: QueryClient, index: int, episode: int) -> dict[str, Any]:
        return client.query(
            INGEST_SHAPE, names_of(index, episode), PARAMS, INGEST_K,
            algorithm="tkij-streaming", options={"stream_id": f"bench-{index}-{episode}"},
        )

    def static_query(client: QueryClient, index: int, episode: int) -> dict[str, Any]:
        return client.query(INGEST_SHAPE, names_of(index, episode), PARAMS, INGEST_K)

    def warm(clients: list) -> None:
        # One cold query per class: a stream's initial full evaluation, and static.
        streaming_query(clients[0], 0, 0)
        static_query(clients[0], 0, 0)

    served = _Served(connections, traced, "ingest")
    setup_s, server, clients = served.setup(
        setup_reps, lambda client: register(client, 0, 0), warm
    )
    recorder = Recorder()
    if traced:
        from repro.serving import client as client_module

        install_codec(recorder, client_module)
    unit = EPISODE_TICKS + 1

    def step(index: int, round_index: int) -> list[dict[str, Any]]:
        client = clients[index]
        episode, tick = 1 + round_index // unit, round_index % unit
        where = {"conn": index, "episode": episode, "tick": tick}
        if tick == 0:
            return [
                _timed("register", lambda: register(client, index, episode), **where),
                _timed("start", lambda: streaming_query(client, index, episode), **where),
            ]
        first = time.perf_counter()
        out = [
            _timed(
                "ingest",
                lambda base=base, name=name: client.ingest(
                    name, encode_intervals(batch(base, tick)), seq=tick
                ),
                **where,
            )
            for base, name in zip(bases[index], names_of(index, episode))
        ]
        refresh = _timed("refresh", lambda: streaming_query(client, index, episode), **where)
        refresh["refresh"] = refresh["end"] - first
        static = _timed("query", lambda: static_query(client, index, episode), **where)
        return out + [refresh, static]

    try:
        records, window, cpu_frac, units = closed_loop(step, connections, seconds, unit)
    finally:
        stats = served.stop(server, clients)

    # Each tick: streaming == static == the referee over that tick's snapshot,
    # the same for every episode; the cold streaming answer is tick 0's.
    references: dict[tuple[int, int], tuple[list, Any]] = {}

    def reference(index: int, tick: int) -> tuple[list, Any]:
        if (index, tick) not in references:
            snapshot = [
                IntervalCollection(
                    base,
                    list(initial[base].intervals)
                    + [i for t in range(1, tick + 1) for i in batch(base, t).intervals],
                )
                for base in bases[index]
            ]
            query = build_query(INGEST_SHAPE, snapshot, PARAMS, INGEST_K)
            references[index, tick] = exact_top_k(query), query
        return references[index, tick]

    answers: dict[tuple[int, int, int], dict[str, dict]] = {}
    for record in records:
        if record["kind"] in ("start", "refresh", "query"):
            key = (record["conn"], record["episode"], record["tick"])
            answers.setdefault(key, {})[record["kind"]] = record
    wrong = 0
    for (index, episode, tick), pair in sorted(answers.items()):
        results, query = reference(index, tick)
        answered = {kind: _results(r) for kind, r in pair.items() if r["ok"]}
        for kind, answer in answered.items():
            if not verify(answer, results, query):
                pair[kind]["ok"] = False
                wrong += 1
        if len(answered) == 2 and not equivalent_top_k(answered["refresh"], answered["query"]):
            served.problems.append(
                f"connection {index} episode {episode} tick {tick}: streaming != static"
            )
    for shape in check_against_oracle(
        [INGEST_SHAPE], [initial[base] for base in bases[0]], PARAMS, INGEST_K
    ):
        served.problems.append(f"referee disagrees with sql-oracle on {shape}")

    # Failed registrations are in ``failed``; only query latencies are timed.
    ok_static = [r for r in records if r["kind"] == "query" and r["ok"]]
    ok_queries = [r for r in records if r["kind"] in ("start", "refresh", "query") and r["ok"]]
    end_to_end, latency = _end_to_end(
        setup_s, [r["latency"] for r in ok_static], len(ok_queries), units
    )
    return _finish(
        served, records, wrong, end_to_end, latency, window, cpu_frac, server, stats,
        recorder.spans,
    )
