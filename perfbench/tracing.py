"""Spans around the program's layer entry points, recorded from outside it.

A :class:`Recorder` keeps spans in memory — name, start, end, parent span and
request id — and writes them out once, at the end of the run.  :func:`install`
wraps the public calls of each layer (serving codec and query execution,
planning, the five TKIJ phases, the Map-Reduce engine and its backends, the
local-join kernel and streaming evaluation) with recording wrappers, so the
program itself stays untouched.  Parent/request links follow a ContextVar, so
they are right both on executor threads and on asyncio tasks.

Wrapping is process-local: the traced server installs it through
``launch_server.py``; process-backend pool workers forked before or after
installation record nothing (their kernel time comes from the engine's own
task metrics instead).
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

__all__ = ["Recorder", "install", "install_codec", "load_spans"]


class Recorder:
    """In-memory span store.  Spans are dicts with keys
    ``id, parent, request, name, start, end, attrs``."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )

    @contextmanager
    def span(self, name: str, root: bool = False, **attrs: Any) -> Iterator[dict[str, Any]]:
        """Record one span; ``root`` starts a new request id."""
        parent = self._current.get()
        with self._lock:
            span_id = next(self._ids)
            if root or parent is None:
                request = next(self._requests)
            else:
                request = parent[1]
        record = {
            "id": span_id,
            "parent": None if root or parent is None else parent[0],
            "request": request,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        token = self._current.set((span_id, request))
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._current.reset(token)
            with self._lock:
                self.spans.append(record)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: "str | Callable[[tuple], str]",
        root: bool = False,
        before: Callable[[tuple, dict], dict] | None = None,
        after: Callable[[Any, tuple], dict] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``name`` may be a function of the call's positional arguments (so a
        phase operator's span carries the operator's phase name).  ``before``
        derives span attributes from the arguments, ``after`` from the return
        value.  A missing target is an error, so a refactor that renames a
        traced call breaks the traced run instead of quietly changing a figure.
        """
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            raise AttributeError(f"cannot trace {owner!r}.{attr}: not found")
        is_static = isinstance(raw, staticmethod)
        function = raw.__func__ if is_static else raw
        recorder = self

        def span_name(args: tuple) -> str:
            return name(args) if callable(name) else name

        def start_attrs(args: tuple, kwargs: dict) -> dict:
            return before(args, kwargs) if before is not None else {}

        if inspect.iscoroutinefunction(function):

            @functools.wraps(function)
            async def wrapper(*args: Any, **kwargs: Any) -> Any:
                with recorder.span(span_name(args), root, **start_attrs(args, kwargs)) as rec:
                    result = await function(*args, **kwargs)
                    if after is not None:
                        rec["attrs"].update(after(result, args))
                    return result

        else:

            @functools.wraps(function)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                with recorder.span(span_name(args), root, **start_attrs(args, kwargs)) as rec:
                    result = function(*args, **kwargs)
                    if after is not None:
                        rec["attrs"].update(after(result, args))
                    return result

        setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)

    def dump(self, path: str | Path) -> None:
        """Write the recorded spans as one JSON document."""
        Path(path).write_text(json.dumps(self.spans), encoding="utf-8")


def load_spans(path: str | Path) -> list[dict[str, Any]]:
    """Spans written by :meth:`Recorder.dump` (empty when the file is absent)."""
    path = Path(path)
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else []


# ----------------------------------------------------------------- after hooks
def _job_attrs(result: Any, args: tuple) -> dict:
    """Engine work from the ``JobResult`` the engine already returns."""
    metrics = result.metrics
    return {
        "job": metrics.job_name,
        "map_s": sum(task.elapsed_seconds for task in metrics.map_tasks),
        "reduce_s": sum(task.elapsed_seconds for task in metrics.reduce_tasks),
        "reduce_max_s": metrics.max_reduce_seconds,
        "imbalance": metrics.imbalance,
        "shuffle_bytes": metrics.shuffle_bytes,
        "shuffle_records": metrics.shuffle_records,
        "map_input_records": sum(task.input_records for task in metrics.map_tasks),
        "failed_attempts": len(metrics.failed_attempts),
    }


def _join_attrs(result: Any, args: tuple) -> dict:
    stats = result[1]
    return {
        "candidates_examined": stats.candidates_examined,
        "tuples_scored": stats.tuples_scored,
    }


def _tkij_attrs(result: Any, args: tuple) -> dict:
    """Work counts of one TKIJ execution, from its ``RunReport``."""
    raw, query = result.raw, args[1].query
    counters: dict[str, int] = {}
    for metrics in result.metrics:
        for key, value in metrics.counters.as_dict().items():
            counters[key] = counters.get(key, 0) + value
    return {
        "results": len(result.results),
        "combinations_selected": len(raw.top_buckets.selected),
        "combinations_total": raw.top_buckets.total_combinations,
        "candidates_examined": counters.get("join.candidates_examined", 0),
        "tuples_scored": counters.get("join.tuples_scored", 0),
        "intervals_shuffled": counters.get("join.intervals_shuffled", 0),
        "input_intervals": sum(len(query.collections[v]) for v in query.vertices),
    }


def _streaming_attrs(result: Any, args: tuple) -> dict:
    """Tick counts and pruning of one streaming evaluation."""
    batches = result.raw.batches
    candidates = sum(batch.candidates for batch in batches)
    pruned = sum(batch.pruned_pairs for batch in batches)
    counters: dict[str, int] = {}
    for metrics in result.metrics:
        for key, value in metrics.counters.as_dict().items():
            counters[key] = counters.get(key, 0) + value
    return {
        "results": len(result.results),
        "ticks": len(batches),
        "replans": sum(1 for batch in batches if batch.replanned),
        "tick_seconds": [sum(batch.phase_seconds.values()) for batch in batches],
        "candidates": candidates,
        "pruned": pruned,
        "candidates_examined": counters.get("join.candidates_examined", 0),
        "tuples_scored": counters.get("join.tuples_scored", 0),
    }


def _call_attrs(args: tuple, kwargs: dict) -> dict:
    call = args[0]
    return {
        "algorithm": call.algorithm.name,
        "mode": call.knobs.get("mode", "manual"),
        "query": call.query_name,
        "k": call.k,
    }


def _operator_name(args: tuple) -> str:
    return f"core.{args[0].name}"


# --------------------------------------------------------------------- install
def install_codec(recorder: Recorder, *modules: Any) -> None:
    """Trace the wire codec functions, also where ``modules`` imported them by name."""
    from repro.serving import protocol

    for function in ("encode_message", "decode_message", "encode_results", "decode_intervals"):
        original = getattr(protocol, function)
        recorder.wrap(protocol, function, f"serving.codec.{function}")
        traced = getattr(protocol, function)
        for module in modules:
            if getattr(module, function, None) is original:
                setattr(module, function, traced)


def install(recorder: Recorder, serving: bool = False) -> None:
    """Wrap every layer entry point of the program in ``recorder`` spans.

    ``serving`` adds the server's request boundary and codec (the launcher of
    the traced server passes it; the in-process batch workload does not).
    """
    from repro.core import operators as core_operators
    from repro.core.local_join import LocalTopKJoin
    from repro.mapreduce.backends.base import ExecutionBackend
    from repro.mapreduce.engine import MapReduceEngine
    from repro.plan.algorithms import TKIJAlgorithm
    from repro.plan.context import StatisticsCache
    from repro.plan.planner import AutoPlanner
    from repro.streaming import operators as _streaming_operators  # noqa: F401 - defines IncrementalTopBucketsOp
    from repro.streaming.algorithm import StreamingTKIJ
    import repro.mapreduce.faults  # noqa: F401 - registers the fault-injecting backend

    # plan: the plan step of both TKIJ algorithms, and the auto planner's probe.
    recorder.wrap(TKIJAlgorithm, "plan", "plan.plan")
    recorder.wrap(StreamingTKIJ, "plan", "plan.plan")
    recorder.wrap(AutoPlanner, "plan", "plan.probe")

    # core: the query boundary, phase (a) through the statistics cache, and
    # every phase operator class that defines its own ``run``.
    recorder.wrap(TKIJAlgorithm, "execute", "core.execute", after=_tkij_attrs)
    recorder.wrap(StatisticsCache, "get_or_collect", "core.statistics")
    recorder.wrap(StatisticsCache, "update", "core.statistics")
    operator_classes = set()
    pending = [core_operators.PhaseOperator]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "run" in cls.__dict__ and not inspect.isabstract(cls):
            operator_classes.add(cls)
    for cls in sorted(operator_classes, key=lambda c: c.__qualname__):
        recorder.wrap(cls, "run", _operator_name)

    # mapreduce: one span per job, one per task wave handed to a backend.
    recorder.wrap(MapReduceEngine, "run", "mapreduce.job", after=_job_attrs)
    backends = set()
    pending = [ExecutionBackend]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "run_tasks" in cls.__dict__ and not inspect.isabstract(cls):
            backends.add(cls)
    for cls in sorted(backends, key=lambda c: c.__qualname__):
        recorder.wrap(cls, "run_tasks", "mapreduce.tasks")

    # the local-join kernel (in-process runs only; pool workers are not traced).
    recorder.wrap(LocalTopKJoin, "run", "local_join.run", after=_join_attrs)

    # streaming: one span per streaming query, carrying its ticks.
    recorder.wrap(StreamingTKIJ, "execute", "streaming.execute", after=_streaming_attrs)

    if serving:
        from repro.serving import server

        # The server has no public per-query hook; its private execute
        # boundary tells manual requests from auto ones (core.bounds_share).
        recorder.wrap(
            server.QueryServer,
            "_execute_call",
            "serving.execute",
            root=True,
            before=_call_attrs,
        )
        install_codec(recorder, server)
