"""The repository benchmark: one workload, one seed, one measured run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
tracing off.  ``--trace 1`` runs the workload twice for half the time each,
first untraced and then with spans around every layer, and reports the
per-layer metrics of the traced pass plus the tracing overhead (traced minus
untraced end-to-end numbers).  Every answer is checked; the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  A wrong answer, a failed or refused request, or anything left
running or on disk afterwards makes the run exit 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import common  # noqa: E402
from common import Pass  # noqa: E402


def _workloads():
    """Each workload's measure function, client connection count and set-ups per run.

    ``setup_s`` is the median of the set-ups of an untraced run (a traced
    pass sets up once).  serve_mixed runs one connection: with two, an auto
    request co-running with manual ones took 5-12 s instead of about 2 s
    while the manual ones ran at full speed, and the median latency of 30-s
    runs ranged 1.1-5.3 s across seeds — too chaotic to gate on.
    serve_ingest (no auto requests) keeps two.  A batch_network set-up takes
    about 0.4 s, so it repeats five times.
    """
    from batch import measure_batch
    from served import measure_ingest, measure_mixed

    return {
        "serve_mixed": (measure_mixed, 1, 3),
        "batch_network": (measure_batch, 1, 5),
        "serve_ingest": (measure_ingest, 2, 3),
    }


def _declared() -> dict:
    return json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _metrics(values: dict[str, float], declared: list[dict]) -> dict[str, dict]:
    missing = [metric["name"] for metric in declared if metric["name"] not in values]
    if missing:
        raise SystemExit(f"error: the run produced no value for {missing}")
    return {
        metric["name"]: {"value": float(values[metric["name"]]), "unit": metric["unit"]}
        for metric in declared
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    declared = _declared()
    workloads = _workloads()
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(workloads)}")
    measure, connections, setup_reps = workloads[args.workload]
    common.check_connections(connections)
    common.prepare_out()
    began = time.perf_counter()
    if args.trace:
        half = args.seconds / 2
        plain = measure(args.seed, half, False, 1, connections)
        traced = measure(args.seed, half, True, 1, connections)
        layers = dict(traced.layers)
        layers["trace.latency_p50_delta_s"] = (
            traced.end_to_end["latency_p50_s"] - plain.end_to_end["latency_p50_s"]
        )
        layers["trace.throughput_delta_qps"] = (
            traced.end_to_end["throughput_qps"] - plain.end_to_end["throughput_qps"]
        )
        passes = [plain, traced]
        metrics = _metrics(layers, declared["per_layer"])
    else:
        passes = [measure(args.seed, args.seconds, False, setup_reps, connections)]
        metrics = _metrics(passes[0].end_to_end, declared["end_to_end"])
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [problem for p in passes for problem in p.problems]
    problems += _repeats_earlier_runs(args.workload, args.seed, passes)
    correct = failed == 0 and not problems and attempted > 0

    _report(args, passes, metrics, problems, time.perf_counter() - began)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def _source_digest() -> str:
    """A digest of the program's and the benchmark's source files."""
    digest = hashlib.sha256()
    for root in (common.SRC, HERE):
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(common.ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _repeats_earlier_runs(workload: str, seed: int, passes: list[Pass]) -> list[str]:
    """Work counters must repeat exactly across runs of one seed on the same source.

    The first run of a (workload, seed, source) keeps its passes'
    ``deterministic_metrics`` under ``.perfbench_out/deterministic/``; every
    later run of it must produce the same.
    """
    counters = [
        p.notes["deterministic_metrics"] for p in passes if "deterministic_metrics" in p.notes
    ]
    if not counters:
        return []
    path = common.OUT / "deterministic" / f"{workload}-{seed}-{_source_digest()}.json"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counters[0], sort_keys=True), encoding="utf-8")
    first = json.loads(path.read_text(encoding="utf-8"))
    if any(json.loads(json.dumps(c)) != first for c in counters):
        return [f"deterministic_metrics differ from an earlier run of seed {seed} ({path.name})"]
    return []


def _report(args, passes: list[Pass], metrics: dict, problems: list[str], wall: float) -> None:
    """Human-readable lines (everything before the final JSON line)."""
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} ({wall:.1f} s wall)")
    for label, result in zip(("untraced", "traced") if args.trace else ("run",), passes):
        notes = result.notes
        e2e = result.end_to_end
        print(
            f"  {label}: {result.attempted} attempted, {result.failed} failed "
            f"({notes.get('wrong_answers', 0)} wrong, {notes.get('refused', 0)} refused); "
            f"connections {notes['connections']}, loadgen cpu_frac {notes['cpu_frac']:.3f}; "
            f"latency p50 {e2e['latency_p50_s']:.4f} s, "
            f"p{notes['tail_pct']:g} {e2e['latency_tail_s']:.4f} s "
            f"of {notes['samples']} samples"
        )
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "correct": not problems and all(p.failed == 0 for p in passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
        "passes": [
            {
                "end_to_end": p.end_to_end,
                "notes": p.notes,
                "problems": p.problems,
                "requests": p.requests,
            }
            for p in passes
        ],
    }
    with open(common.OUT / "runs.jsonl", "a", encoding="utf-8") as log:
        log.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    raise SystemExit(main())
