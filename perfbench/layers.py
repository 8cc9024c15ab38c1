"""Per-layer metrics of one traced pass, computed from its spans and records.

Time metrics are seconds per query executed in the timed window (a query is
one ``core.execute`` or ``streaming.execute`` span), so runs of different
length compare.  Phase times (``core.*_s``) are a phase span minus the part
covered by other ``core.*`` spans nested in it: they include the engine job a
phase launches, which the ``mapreduce.*`` metrics split further.
``mapreduce.driver_s`` is an engine job span minus the task waves it handed
to the backend.  A metric whose layer a workload does not exercise is 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Iterable

from common import summarise

__all__ = ["layer_metrics"]

PHASES = ("statistics", "top_buckets", "distribution", "join", "merge")


def _cover(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def _self_time(span: dict, children: dict[int, list[dict]], prefix: str) -> float:
    """Duration minus the cover of (transitively) nested spans named ``prefix*``."""
    covered = []
    pending = list(children.get(span["id"], ()))
    while pending:
        child = pending.pop()
        if child["name"].startswith(prefix):
            covered.append((child["start"], child["end"]))
        else:
            pending.extend(children.get(child["id"], ()))
    return span["end"] - span["start"] - _cover(covered)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: list[dict[str, Any]],
    records: list[dict[str, Any]],
    window: tuple[float, float],
    server_stats: dict[str, Any],
    loadgen: dict[str, float],
) -> dict[str, float]:
    """Every per-layer metric of one traced pass.

    ``records`` are the client's timed operations (``kind`` is ``query``,
    ``ingest``, ``refresh``, ``register``, ``start`` or ``batch``);
    ``server_stats`` holds the ``statistics_cache`` and ``plan_cache``
    counter sections.
    """
    start, end = window
    spans = [s for s in spans if s["start"] >= start and s["end"] <= end]
    children: dict[int, list[dict]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    by_name: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
    executes = by_name["core.execute"]
    streams = by_name["streaming.execute"]
    queries = max(len(executes) + len(streams), 1)
    metrics: dict[str, float] = {}

    # serving -------------------------------------------------------------
    served = [r for r in records if r["kind"] in ("query", "refresh", "start") and r["ok"]]
    timed = [r for r in served if r.get("timings")]
    overheads = [
        r["latency"] - sum(r["timings"][key] for key in ("queue_seconds", "plan_seconds", "execute_seconds"))
        for r in timed
    ]
    metrics["serving.overhead_s"] = statistics.median(overheads) if overheads else 0.0
    codec = sum(s["end"] - s["start"] for name, group in by_name.items() if name.startswith("serving.codec.") for s in group)
    requests = [r for r in records if r["kind"] != "batch"]
    metrics["serving.codec_s"] = _ratio(codec, len(requests))
    queue = summarise([r["timings"]["queue_seconds"] for r in timed])
    metrics["serving.queue_p50_s"] = queue["p50"]
    metrics["serving.queue_tail_s"] = queue["tail"]
    metrics["serving.busy_rejections"] = float(sum(1 for r in records if r.get("code") == "BUSY"))
    ingests = [r["latency"] for r in records if r["kind"] == "ingest" and r["ok"]]
    metrics["serving.ingest_p50_s"] = summarise(ingests)["p50"]

    # plan ----------------------------------------------------------------
    if timed:
        plan = summarise([r["timings"]["plan_seconds"] for r in timed])
    else:
        plan = summarise([s["end"] - s["start"] for s in by_name["plan.plan"]])
    metrics["plan.plan_p50_s"] = plan["p50"]
    metrics["plan.plan_tail_s"] = plan["tail"]
    autos = [r for r in served if r.get("mode") == "auto"]
    metrics["plan.probe_s"] = _ratio(
        sum(s["end"] - s["start"] for s in by_name["plan.probe"]), len(autos)
    )
    # Each auto request over the median manual latency of the same shape and
    # k (of the same shape when no such manual request ran).
    manual: dict[tuple, list[float]] = defaultdict(list)
    for r in served:
        if r.get("mode") == "manual":
            manual[(r["shape"], r["k"])].append(r["latency"])
            manual[(r["shape"], None)].append(r["latency"])
    ratios = []
    for r in autos:
        base = manual.get((r["shape"], r["k"])) or manual.get((r["shape"], None))
        if base:
            ratios.append(r["latency"] / statistics.median(base))
    metrics["plan.auto_over_manual"] = statistics.median(ratios) if ratios else 0.0
    plan_cache = server_stats.get("plan_cache") or {}
    metrics["plan.plan_cache_hit_ratio"] = _ratio(
        plan_cache.get("hits", 0), plan_cache.get("hits", 0) + plan_cache.get("misses", 0)
    )
    stats_cache = server_stats.get("statistics_cache") or {}
    metrics["plan.stats_cache_hit_ratio"] = _ratio(
        stats_cache.get("hits", 0), stats_cache.get("hits", 0) + stats_cache.get("misses", 0)
    )
    metrics["plan.stats_updates"] = float(stats_cache.get("updates", 0))

    # core ----------------------------------------------------------------
    phase_total = {phase: 0.0 for phase in PHASES}
    for phase in PHASES:
        for span in by_name[f"core.{phase}"]:
            phase_total[phase] += _self_time(span, children, "core.")
        metrics[f"core.{phase}_s"] = phase_total[phase] / queries
    # Shares over manual TKIJ executions: the request mode rides on the
    # serving.execute root when served; library runs are all manual.
    manual_requests = {
        s["request"]
        for s in by_name["serving.execute"]
        if s["attrs"].get("mode") == "manual" and s["attrs"].get("algorithm") == "tkij"
    }
    population = [
        s for s in executes if not by_name["serving.execute"] or s["request"] in manual_requests
    ]
    requests_in = {s["request"] for s in population}
    execute_time = sum(s["end"] - s["start"] for s in population)

    def share(*phases: str) -> float:
        total = sum(
            _self_time(span, children, "core.")
            for phase in phases
            for span in by_name[f"core.{phase}"]
            if span["request"] in requests_in
        )
        return _ratio(total, execute_time)

    metrics["core.bounds_share"] = share("top_buckets", "distribution")
    metrics["core.join_share"] = share("join")
    attrs = [s["attrs"] for s in executes]
    every = attrs + [s["attrs"] for s in streams]
    metrics["core.combinations_selected"] = _ratio(
        sum(a["combinations_selected"] for a in attrs), len(attrs)
    )
    metrics["core.selected_frac"] = _ratio(
        sum(a["combinations_selected"] for a in attrs), sum(a["combinations_total"] for a in attrs)
    )
    examined = sum(a["candidates_examined"] for a in every)
    scored = sum(a["tuples_scored"] for a in every)
    metrics["core.candidates_examined"] = examined / queries
    metrics["core.tuples_scored"] = scored / queries
    metrics["core.scored_per_result"] = _ratio(scored, sum(a["results"] for a in every))

    # mapreduce -----------------------------------------------------------
    jobs = [s["attrs"] for s in by_name["mapreduce.job"]]
    joins = [a for a in jobs if a["job"] == "tkij-join"]
    metrics["mapreduce.map_s"] = sum(a["map_s"] for a in jobs) / queries
    metrics["mapreduce.reduce_s"] = sum(a["reduce_s"] for a in jobs) / queries
    metrics["mapreduce.reduce_max_s"] = _ratio(sum(a["reduce_max_s"] for a in joins), len(joins))
    metrics["mapreduce.imbalance"] = _ratio(sum(a["imbalance"] for a in joins), len(joins))
    metrics["mapreduce.driver_s"] = (
        sum(_self_time(s, children, "mapreduce.tasks") for s in by_name["mapreduce.job"]) / queries
    )
    metrics["mapreduce.shuffle_bytes"] = sum(a["shuffle_bytes"] for a in jobs) / queries
    metrics["mapreduce.replication"] = _ratio(
        sum(a["intervals_shuffled"] for a in attrs), sum(a["input_intervals"] for a in attrs)
    )
    metrics["mapreduce.failed_attempts"] = float(sum(a["failed_attempts"] for a in jobs))

    # local join ----------------------------------------------------------
    kernel = sum(s["end"] - s["start"] for s in by_name["local_join.run"])
    if not kernel:
        # Pool workers are not traced: their reduce tasks are the kernel.
        kernel = sum(a["reduce_s"] for a in joins)
    metrics["local_join.kernel_s"] = kernel / queries
    metrics["local_join.scored_per_candidate"] = _ratio(scored, examined)

    # streaming -----------------------------------------------------------
    stream_attrs = [s["attrs"] for s in streams]
    ticks = [seconds for a in stream_attrs for seconds in a["tick_seconds"]]
    metrics["streaming.tick_s"] = statistics.mean(ticks) if ticks else 0.0
    metrics["streaming.ticks_per_query"] = _ratio(
        sum(a["ticks"] for a in stream_attrs), len(stream_attrs)
    )
    metrics["streaming.replans"] = float(sum(a["replans"] for a in stream_attrs))
    pruned = sum(a["pruned"] for a in stream_attrs)
    metrics["streaming.pruned_frac"] = _ratio(
        pruned, pruned + sum(a["candidates"] for a in stream_attrs)
    )
    refresh = summarise([r["refresh"] for r in records if r["kind"] == "refresh" and r["ok"]])
    metrics["streaming.refresh_p50_s"] = refresh["p50"]
    metrics["streaming.refresh_tail_s"] = refresh["tail"]

    metrics["loadgen.cpu_frac"] = loadgen["cpu_frac"]
    metrics["loadgen.connections"] = float(loadgen["connections"])
    return metrics
