"""Workload assignment of bucket combinations to reducers (TKIJ phase c).

``DistributeTopBuckets`` (DTB, Algorithms 3-4) hands out the selected combinations
``Ω_k,S`` so that every reducer receives a fair share of *high-scoring* work — the
key to early termination in top-k processing — while opportunistically limiting
input replication and capping worst-case output load.  The paper compares DTB to an
LPT-style assignment (largest number of results first, least-loaded reducer); both
are implemented here, plus a plain round-robin used as an extra ablation arm.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .bounds import BucketCombination
from .statistics import BucketKey

__all__ = ["WorkloadAssignment", "distribute_top_buckets", "lpt_assignment", "round_robin_assignment", "ASSIGNERS", "assign"]

VertexBucket = tuple[str, BucketKey]


@dataclass
class WorkloadAssignment:
    """The outcome of a workload-assignment policy.

    ``combinations_per_reducer`` drives the local joins; ``buckets_per_reducer``
    (the ``M`` relation of Algorithm 3) determines which reducers each input
    interval must be replicated to, and therefore the shuffle cost.
    ``routing`` is that relation inverted once, at construction: every
    assigned ``(vertex, bucket)`` with the reducers it ships to, ascending.
    """

    num_reducers: int
    combinations_per_reducer: dict[int, list[BucketCombination]] = field(default_factory=dict)
    buckets_per_reducer: dict[int, set[VertexBucket]] = field(default_factory=dict)
    routing: dict[VertexBucket, tuple[int, ...]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for reducer in range(self.num_reducers):
            self.combinations_per_reducer.setdefault(reducer, [])
            self.buckets_per_reducer.setdefault(reducer, set())
        reducers_of: dict[VertexBucket, list[int]] = {}
        for reducer in sorted(self.buckets_per_reducer):
            for item in self.buckets_per_reducer[reducer]:
                reducers_of.setdefault(item, []).append(reducer)
        self.routing = {item: tuple(reducers) for item, reducers in reducers_of.items()}

    # ----------------------------------------------------------------- queries
    def reducers_of_bucket(self, vertex: str, bucket: BucketKey) -> list[int]:
        """Reducers that must receive the intervals of ``(vertex, bucket)``."""
        return list(self.routing.get((vertex, bucket), ()))

    def results_per_reducer(self) -> dict[int, int]:
        """Worst-case number of candidate results each reducer may evaluate."""
        return {
            reducer: sum(c.nb_res for c in combos)
            for reducer, combos in self.combinations_per_reducer.items()
        }

    def replication_cost(self, bucket_counts: Mapping[VertexBucket, int]) -> int:
        """Total shuffled records: every bucket's cardinality times its replication."""
        cost = 0
        for buckets in self.buckets_per_reducer.values():
            for item in buckets:
                cost += bucket_counts.get(item, 0)
        return cost

    def describe(self, bucket_counts: Mapping[VertexBucket, int] | None = None) -> dict[str, float]:
        """Flat summary used by the experiment reports."""
        per_reducer = self.results_per_reducer()
        loads = list(per_reducer.values())
        total = sum(loads)
        summary = {
            "assigned_combinations": float(
                sum(len(c) for c in self.combinations_per_reducer.values())
            ),
            "max_results_per_reducer": float(max(loads) if loads else 0),
            "avg_results_per_reducer": float(total / len(loads)) if loads else 0.0,
        }
        if bucket_counts is not None:
            summary["shuffle_replication"] = float(self.replication_cost(bucket_counts))
        return summary


def _check_reducers(num_reducers: int) -> None:
    if num_reducers <= 0:
        raise ValueError("num_reducers must be positive")


def _assignment(
    num_reducers: int,
    combinations: Sequence[BucketCombination],
    keys: Sequence[tuple[VertexBucket, ...]],
    reducer_of: Sequence[int],
    order: Sequence[int],
) -> WorkloadAssignment:
    """Assignment that gives ``combinations[i]`` to ``reducer_of[i]``, visiting ``order``.

    ``keys[i]`` is ``combinations[i].key()``: its ``(vertex, bucket)`` pairs
    are the buckets the reducer must receive.
    """
    per_reducer: dict[int, list[BucketCombination]] = {r: [] for r in range(num_reducers)}
    buckets: dict[int, set[VertexBucket]] = {r: set() for r in range(num_reducers)}
    for index in order:
        reducer = reducer_of[index]
        per_reducer[reducer].append(combinations[index])
        buckets[reducer].update(keys[index])
    return WorkloadAssignment(num_reducers, per_reducer, buckets)


# --------------------------------------------------------------------------- DTB
def distribute_top_buckets(
    combinations: Sequence[BucketCombination], num_reducers: int
) -> WorkloadAssignment:
    """Algorithm 3 (DistributeTopBuckets).

    Combinations are visited in descending order of score upper bound so that the
    round-robin over least-loaded reducers spreads the likely high-scoring work
    evenly; ``getReducer`` (Algorithm 4) breaks ties in favour of the reducer that
    already holds the largest part of the combination's buckets, which minimises
    the additional input that has to be shuffled.

    Algorithm 4 (getReducer) runs inline on integers.  Reducers already holding
    more than twice the average number of results are discarded (worst-case
    output cap); when every reducer exceeds the cap (e.g. a single huge
    combination) all of them stay candidates.  Among the candidates with the
    fewest assigned combinations, the one that needs the least *new* input
    wins, the lowest id on ties.  The paper describes the tie-break as
    favouring the reducer "already assigned the largest fraction of the
    current ω", i.e. the one whose additional input cost is smallest;
    ``inCost`` is therefore the number of the combination's buckets the
    reducer does *not* yet hold.  Buckets are bits of one integer per
    reducer, so ``inCost`` is a single popcount.
    """
    _check_reducers(num_reducers)
    keys = [c.key() for c in combinations]
    order = sorted(
        range(len(combinations)), key=lambda i: (-combinations[i].upper_bound, keys[i])
    )
    total_results = sum(c.nb_res for c in combinations)
    cap = 2.0 * (total_results / num_reducers)
    # One bit per distinct (vertex, bucket); a combination's buckets are
    # distinct items, so the sum of their bits is their union.
    bit_of = {
        item: 1 << bit
        for bit, item in enumerate(dict.fromkeys(itertools.chain.from_iterable(keys)))
    }
    masks = [sum(map(bit_of.__getitem__, key)) for key in keys]

    held = [0] * num_reducers
    combos_assigned = [0] * num_reducers
    results_assigned = [0] * num_reducers
    reducer_of = [0] * len(combinations)
    # Results only grow, so a reducer over the cap never becomes a candidate
    # again; once all are over it, all stay candidates.  ``tied`` holds the
    # candidates with the fewest combinations, ascending: assigning one
    # removes it, and the set is recomputed when it runs empty.
    all_reducers = list(range(num_reducers))
    capped = cap != 0.0
    candidates = list(all_reducers)
    tied: list[int] = []
    for index in order:
        if not tied:
            fewest = min(combos_assigned[r] for r in candidates)
            tied = [r for r in candidates if combos_assigned[r] == fewest]
        mask = masks[index]
        best = tied[0]
        if len(tied) > 1:
            best_cost = (mask & ~held[best]).bit_count()
            for reducer in tied[1:]:
                cost = (mask & ~held[reducer]).bit_count()
                if cost < best_cost:
                    best, best_cost = reducer, cost
        tied.remove(best)
        reducer_of[index] = best
        held[best] |= mask
        combos_assigned[best] += 1
        results_assigned[best] += combinations[index].nb_res
        if capped and results_assigned[best] >= cap:
            candidates.remove(best)
            if not candidates:
                candidates = all_reducers
                capped = False
                tied = []
    return _assignment(num_reducers, combinations, keys, reducer_of, order)


# --------------------------------------------------------------------------- LPT
def lpt_assignment(
    combinations: Sequence[BucketCombination], num_reducers: int
) -> WorkloadAssignment:
    """The LPT baseline of Section 4.2.2.

    Combinations are treated as tasks whose processing time is their result count;
    they are assigned in descending ``nbRes`` order to the reducer with the least
    total results so far (the lowest id on ties).  Scores are ignored entirely.
    """
    _check_reducers(num_reducers)
    keys = [c.key() for c in combinations]
    order = sorted(range(len(combinations)), key=lambda i: (-combinations[i].nb_res, keys[i]))
    loads = [(0, reducer) for reducer in range(num_reducers)]
    reducer_of = [0] * len(combinations)
    for index in order:
        load, reducer = heapq.heappop(loads)
        reducer_of[index] = reducer
        heapq.heappush(loads, (load + combinations[index].nb_res, reducer))
    return _assignment(num_reducers, combinations, keys, reducer_of, order)


# ------------------------------------------------------------------- round robin
def round_robin_assignment(
    combinations: Sequence[BucketCombination], num_reducers: int
) -> WorkloadAssignment:
    """Naive round-robin in input order (ablation arm, not in the paper)."""
    _check_reducers(num_reducers)
    keys = [c.key() for c in combinations]
    reducer_of = [index % num_reducers for index in range(len(combinations))]
    return _assignment(num_reducers, combinations, keys, reducer_of, range(len(combinations)))


ASSIGNERS = {
    "dtb": distribute_top_buckets,
    "lpt": lpt_assignment,
    "round-robin": round_robin_assignment,
}
"""Named workload-assignment policies selectable on the TKIJ runner."""


def assign(
    name: str, combinations: Sequence[BucketCombination], num_reducers: int
) -> WorkloadAssignment:
    """Dispatch to a named assignment policy."""
    if name not in ASSIGNERS:
        raise ValueError(f"unknown assigner {name!r}; expected one of {sorted(ASSIGNERS)}")
    return ASSIGNERS[name](combinations, num_reducers)
