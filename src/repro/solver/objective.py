"""Objective functions for the bound solver.

The Bounds Problem of Section 3.3 maximises (or minimises) the aggregate score
``S`` of a query over the endpoint boxes of a bucket combination.  The objective is
represented here as a list of *edge objectives* -- one renamed scored predicate per
query edge -- combined by the query's monotone aggregation function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..temporal.aggregation import Aggregation
from ..temporal.interval import Interval
from ..temporal.predicates import ScoredPredicate
from ..temporal.terms import EndpointVar
from .domain import DomainSet

__all__ = ["EdgeObjective", "AggregateObjective"]


@dataclass(frozen=True)
class EdgeObjective:
    """One query edge's scored predicate, renamed onto the edge's vertex names."""

    source: str
    target: str
    predicate: ScoredPredicate

    @classmethod
    def from_edge(cls, source: str, target: str, predicate: ScoredPredicate) -> "EdgeObjective":
        """Rename the canonical ``x``/``y`` predicate onto the edge vertices."""
        return cls(source, target, predicate.rename(source, target))

    def evaluate(self, assignment: Mapping[str, Interval]) -> float:
        """Concrete edge score for an assignment covering both vertices."""
        scores = [c.score(assignment, self.predicate.params) for c in self.predicate.comparisons]
        return min(scores)

    def score_range(
        self, domains: Mapping[EndpointVar, tuple[float, float]]
    ) -> tuple[float, float]:
        """Relaxed (per-conjunct exact) score range over endpoint boxes."""
        return self.predicate.score_range(domains)


@dataclass(frozen=True)
class AggregateObjective:
    """Aggregate score of all query edges, the objective of the Bounds Problem."""

    edges: tuple[EdgeObjective, ...]
    aggregation: Aggregation

    def evaluate(self, assignment: Mapping[str, Interval]) -> float:
        """Aggregate score at a concrete assignment (a feasible objective value)."""
        return self.aggregation.combine([edge.evaluate(assignment) for edge in self.edges])

    def relaxed_range(self, domains: DomainSet) -> tuple[float, float]:
        """Box relaxation of the aggregate score.

        Each edge's range is exact per conjunct but edges are bounded independently,
        so shared variables are not coupled: the result is a valid outer bound
        (identical in spirit to the paper's *loose* bounds).  The solver calls
        this on every box it visits, so it runs the predicates' compiled
        corner plans (:meth:`ScoredPredicate.corner_score_range`), which equal
        :meth:`EdgeObjective.score_range` bit for bit.
        """
        corners = domains.corners()
        lows: list[float] = []
        highs: list[float] = []
        for edge in self.edges:
            lo, hi = edge.predicate.corner_score_range(corners)
            lows.append(lo)
            highs.append(hi)
        return self.aggregation.lower_bound(lows), self.aggregation.upper_bound(highs)

    def edge_ranges(self, domains: DomainSet) -> list[tuple[float, float]]:
        """Per-edge relaxed score ranges (used by the loose strategy and DTB)."""
        endpoint_domains = domains.endpoint_domains()
        return [edge.score_range(endpoint_domains) for edge in self.edges]

    def combine(self, edge_bounds: Sequence[float]) -> float:
        """Aggregate already-computed per-edge bounds (monotone combination)."""
        return self.aggregation.combine(list(edge_bounds))
