"""Streaming-specific phase operators.

:class:`IncrementalTopBucketsOp` is the streaming phase (b): it bounds the
bucket-combination space with *loose* (pairwise) bounds whose primitives are
memoised across batches — granule boundaries are fixed between replans, so a
bucket pair's bounds never change and only pairs involving newly non-empty
buckets cost solver work on later batches — and prunes with the standard
``get_top_buckets``.  :class:`CandidateFilter` is the streaming pruning rule
applied by :class:`~repro.core.FilteredDistributeOp` on top of that selection:
a combination survives only if (1) at least one of its buckets received
intervals in the current batch (otherwise every tuple it can form was already
considered) and (2) its score upper bound can still crack the current top-k.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, MutableMapping

from ..core.bounds import BoundsEstimator, BucketCombination, CombinationSpace
from ..core.operators import PhaseOperator, PhaseState
from ..core.statistics import BucketKey
from ..core.top_buckets import TopBucketsResult, select_top_buckets
from ..solver import BranchAndBoundSolver

__all__ = ["CandidateFilter", "IncrementalTopBucketsOp"]


@dataclass
class CandidateFilter:
    """The streaming keep-predicate over selected combinations, with counters.

    ``dirty`` maps each query vertex to the bucket keys that received intervals
    in the current batch; ``threshold`` is the score of the persistent k-th
    result (``None`` while fewer than k results exist).  A combination whose
    upper bound does not *strictly* exceed the threshold is pruned: its tuples
    can at best tie the incumbent k-th result, and top-k answers are defined up
    to boundary ties (see :func:`repro.streaming.equivalent_top_k`) — the
    persistent heap already holds k results at or above that score.
    """

    dirty: Mapping[str, frozenset[BucketKey]]
    threshold: float | None
    kept: int = 0
    clean_skipped: int = 0
    bound_pruned: int = 0

    def __call__(self, combination: BucketCombination) -> bool:
        if not any(
            bucket in self.dirty.get(vertex, frozenset())
            for vertex, bucket in combination.bucket_items()
        ):
            self.clean_skipped += 1
            return False
        if self.threshold is not None and combination.upper_bound <= self.threshold:
            self.bound_pruned += 1
            return False
        self.kept += 1
        return True


@dataclass
class IncrementalTopBucketsOp(PhaseOperator):
    """Phase (b) with cross-batch memoised pairwise bounds.

    Bounds and selects like the array form of
    :class:`~repro.core.TopBucketsSelector`'s loose strategy.  The pairwise
    matrices are recomputed per batch (one numpy pass per edge); only pairs
    missing from the shared memo count as bounded.  Always uses the loose
    strategy: pairwise bounds are the only primitives that stay valid verbatim
    across batches (tight joint bounds would have to be re-solved whenever any
    bucket's *cardinality* changes, which defeats incrementality).  Queries with attribute constraints keep every bounded
    combination, mirroring :class:`~repro.core.TopBucketsSelector` — the
    count-based pruning of Definition 2 is unsound for them, while the
    dirty/threshold filtering applied downstream remains exact.
    """

    shared_bounds: MutableMapping = field(default_factory=dict)
    solver: BranchAndBoundSolver = field(default_factory=BranchAndBoundSolver)

    name = "top_buckets"

    def run(self, state: PhaseState) -> None:
        assert state.statistics is not None, (
            "StatisticsOp must run before IncrementalTopBucketsOp"
        )
        query = state.query
        space = CombinationSpace(query, state.statistics)
        estimator = BoundsEstimator(
            query, space, solver=self.solver, shared_pairwise=self.shared_bounds
        )
        table = estimator.loose_table()
        if query.has_attribute_constraints:
            selected = table.combinations()
        else:
            selected = select_top_buckets(table, query.k)
        state.top_buckets = TopBucketsResult(
            selected=selected,
            strategy="loose",
            total_combinations=space.size(),
            total_results=space.total_results(),
            selected_results=sum(c.nb_res for c in selected),
            pairs_bounded=estimator.pairwise.pairs_computed,
            tight_bounds_computed=0,
        )
