"""Compare two sets of benchmark runs: the parent commit's and a change's.

Usage::

    python3 perfbench/compare.py PARENT_RUNS.jsonl CHANGE_RUNS.jsonl

Each file holds one JSON object per line with ``workload`` and the run's
final ``correct``/``attempted``/``failed``/``metrics`` (``run.py`` appends
exactly that to ``.perfbench_out/runs.jsonl``).  Every end-to-end metric of
``BENCHMARK.json`` is judged per workload, by the bounds declared there:

* ``regression`` — the change's median is worse than the parent's by more
  than the bound;
* ``unresolved`` — either side's spread (interquartile range over median) is
  wider than the bound, unless every change run beats every parent run;
* ``rejected`` — the change fails a larger share of its operations;
* ``error`` — a workload or metric is missing from either set, the two sets
  measured the latency tail at different percentiles, or two runs of one
  seed in a set disagree on their ``deterministic_metrics`` (work counters
  that must repeat exactly).

The exit code is 1 when any verdict is ``regression``, ``rejected`` or
``error``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Any, Iterable

__all__ = ["Verdict", "compare", "load_runs"]

Verdict = tuple[str, str, str, str]
"""(workload, metric, verdict, detail)."""


def load_runs(path: str | Path) -> dict[str, list[dict[str, Any]]]:
    """Untraced runs per workload from a JSON-lines file (traced runs are skipped)."""
    runs: dict[str, list[dict[str, Any]]] = defaultdict(list)
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            record = json.loads(line)
            if not record.get("trace"):
                runs[record["workload"]].append(record)
    return runs


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / abs(median) if median else 0.0


def _failed_frac(runs: Iterable[dict[str, Any]]) -> float:
    runs = list(runs)
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 1.0


def _notes(run: dict[str, Any]) -> list[dict[str, Any]]:
    return [p.get("notes", {}) for p in run.get("passes", ())]


def _consistency(workload: str, parent: list, change: list) -> list[Verdict]:
    """Errors for runs that cannot be compared or do not repeat themselves."""
    verdicts: list[Verdict] = []
    tails = {n["tail_pct"] for run in parent + change for n in _notes(run) if "tail_pct" in n}
    if len(tails) > 1:
        verdicts.append(
            (workload, "latency_tail_s", "error", f"tail percentiles differ: {sorted(tails)}")
        )
    for side, runs in (("parent", parent), ("change", change)):
        first: dict[Any, Any] = {}
        for run in runs:
            for notes in _notes(run):
                if "deterministic_metrics" not in notes:
                    continue
                seen = first.setdefault(run.get("seed"), notes["deterministic_metrics"])
                if notes["deterministic_metrics"] != seen:
                    verdicts.append(
                        (workload, "deterministic_metrics", "error",
                         f"{side} runs of seed {run.get('seed')} differ")
                    )
    return verdicts


def compare(
    parent: dict[str, list[dict[str, Any]]],
    change: dict[str, list[dict[str, Any]]],
    benchmark: dict[str, Any],
) -> list[Verdict]:
    """One verdict per (workload, end-to-end metric), plus failure and consistency checks."""
    verdicts: list[Verdict] = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        if not parent.get(workload) or not change.get(workload):
            side = "parent" if not parent.get(workload) else "change"
            verdicts.append((workload, "*", "error", f"no {side} runs"))
            continue
        verdicts.extend(_consistency(workload, parent[workload], change[workload]))
        before, after = _failed_frac(parent[workload]), _failed_frac(change[workload])
        if after > before:
            verdicts.append(
                (workload, "failed_frac", "rejected", f"{before:.4f} -> {after:.4f}")
            )
        for metric in benchmark["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            try:
                old = [run["metrics"][name]["value"] for run in parent[workload]]
                new = [run["metrics"][name]["value"] for run in change[workload]]
            except KeyError:
                verdicts.append((workload, name, "error", "metric missing from a run"))
                continue
            sign = 1.0 if metric["better"] == "lower" else -1.0
            old_median, new_median = statistics.median(old), statistics.median(new)
            worse = sign * (new_median - old_median) / abs(old_median) if old_median else 0.0
            detail = (
                f"median {old_median:.4g} -> {new_median:.4g} ({worse:+.1%} worse), "
                f"spread {spread(old):.1%} / {spread(new):.1%}, bound {bound:.0%}"
            )
            always_better = all(sign * (n - o) < 0 for n in new for o in old)
            if max(spread(old), spread(new)) > bound and not always_better:
                verdicts.append((workload, name, "unresolved", detail))
            elif worse > bound:
                verdicts.append((workload, name, "regression", detail))
            else:
                verdicts.append((workload, name, "ok", detail))
    return verdicts


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    root = Path(__file__).resolve().parent.parent
    benchmark = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    verdicts = compare(load_runs(argv[0]), load_runs(argv[1]), benchmark)
    for workload, metric, verdict, detail in verdicts:
        print(f"{workload:14s} {metric:16s} {verdict:10s} {detail}")
    bad = {"regression", "rejected", "error"}
    return 1 if any(verdict in bad for _, _, verdict, _ in verdicts) else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
