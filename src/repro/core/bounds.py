"""Bucket combinations and their score bounds (TKIJ phase b, part 1).

A *bucket combination* ``ω = (b_1, ..., b_n)`` picks one bucket per query vertex.
Its cardinality ``ω.nbRes`` is the product of the bucket cardinalities and its
score bounds ``ω.LB``/``ω.UB`` bracket the aggregate score of every result tuple
that can be formed from it (Definition 1).  This module enumerates combinations
and computes their bounds, either per edge (exact per pair of buckets, aggregated
through the monotone function — the *loose* bounds) or jointly over all vertices
with the branch-and-bound solver (the *tight* bounds of brute-force / two-phase).

Loose bounds are computed in array form (DESIGN.md §4): one numpy pass per edge
bounds every source × target bucket pair, and broadcasting those matrices over
the vertex axes bounds every combination of ``Ω`` at once, bit-identical to
the scalar per-pair and per-combination arithmetic.  ``BucketCombination``
objects are then built only for the combinations a caller keeps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Iterator, MutableMapping, Sequence

import numpy as np

from ..columnar.kernels import combine_scores_v, score_range_v
from ..query.graph import RTJQuery
from ..solver import AggregateObjective, BranchAndBoundSolver, DomainSet, EdgeObjective
from ..solver.domain import VariableBox
from ..temporal.terms import EndpointVar
from .statistics import BucketKey, DatasetStatistics

__all__ = [
    "BucketCombination",
    "CombinationSpace",
    "LooseBoundsTable",
    "PairwiseBoundsCache",
    "BoundsEstimator",
    "count_array",
]

_INT64_LIMIT = 2**63


def count_array(values: Sequence[int], total: int | None = None) -> np.ndarray:
    """Result counts as an exact integer array.

    ``int64`` when ``total`` (the sum of ``values``, computed when not given)
    is below ``2**63`` — then every count and every running sum fits — and an
    object array of Python ints otherwise, so cardinality products and their
    cumulative sums never wrap around.
    """
    if total is None:
        total = sum(values)
    return np.array(values, dtype=np.int64 if total < _INT64_LIMIT else object)


@dataclass(frozen=True)
class BucketCombination:
    """One bucket per query vertex, with cardinality and score bounds."""

    vertices: tuple[str, ...]
    buckets: tuple[BucketKey, ...]
    nb_res: int
    lower_bound: float = 0.0
    upper_bound: float = 1.0
    edge_bounds: tuple[tuple[float, float], ...] = ()

    def bucket_of(self, vertex: str) -> BucketKey:
        """Bucket assigned to ``vertex`` in this combination."""
        return self.buckets[self.vertices.index(vertex)]

    def bucket_items(self) -> list[tuple[str, BucketKey]]:
        """``(vertex, bucket)`` pairs of the combination."""
        return list(zip(self.vertices, self.buckets))

    def with_bounds(
        self,
        lower_bound: float,
        upper_bound: float,
        edge_bounds: Sequence[tuple[float, float]] | None = None,
    ) -> "BucketCombination":
        """Copy with (re)computed bounds."""
        return replace(
            self,
            lower_bound=lower_bound,
            upper_bound=upper_bound,
            edge_bounds=tuple(edge_bounds) if edge_bounds is not None else self.edge_bounds,
        )

    def key(self) -> tuple[tuple[str, BucketKey], ...]:
        """Hashable identity of the combination (vertex/bucket pairs)."""
        return tuple(zip(self.vertices, self.buckets))


class CombinationSpace:
    """Enumerates the bucket-combination search space ``Ω`` of a query.

    Only non-empty buckets participate: a combination with an empty bucket cannot
    produce results.  The per-vertex bucket lists and boxes are cached so that the
    strategies and the distribution phase can reuse them.
    """

    def __init__(self, query: RTJQuery, statistics: DatasetStatistics) -> None:
        self.query = query
        self.statistics = statistics
        self._buckets_per_vertex: dict[str, list[BucketKey]] = {}
        self._counts: dict[tuple[str, BucketKey], int] = {}
        self._boxes: dict[tuple[str, BucketKey], VariableBox] = {}
        for vertex in query.vertices:
            collection_name = query.collections[vertex].name
            matrix = statistics.matrix(collection_name)
            keys = matrix.nonempty_buckets()
            self._buckets_per_vertex[vertex] = keys
            for key in keys:
                self._counts[(vertex, key)] = matrix.count(key)
                self._boxes[(vertex, key)] = matrix.bucket_box(key)
        self._endpoint_arrays: dict[str, dict[str, tuple[np.ndarray, np.ndarray]]] = {}

    # ------------------------------------------------------------------ access
    def buckets_of(self, vertex: str) -> list[BucketKey]:
        """Non-empty buckets available for ``vertex``."""
        return self._buckets_per_vertex[vertex]

    def count(self, vertex: str, bucket: BucketKey) -> int:
        """Cardinality of ``bucket`` for ``vertex``'s collection."""
        return self._counts[(vertex, bucket)]

    def box(self, vertex: str, bucket: BucketKey) -> VariableBox:
        """Endpoint box of ``bucket`` for ``vertex``'s collection."""
        return self._boxes[(vertex, bucket)]

    def size(self) -> int:
        """|Ω|: the number of combinations that would be enumerated."""
        size = 1
        for vertex in self.query.vertices:
            size *= len(self._buckets_per_vertex[vertex])
        return size

    def shape(self) -> tuple[int, ...]:
        """Non-empty bucket count per vertex (vertex order): the axes of ``Ω``.

        Combination ``i`` of :meth:`enumerate` is the C-order (row-major) ravel
        index of its per-vertex bucket positions in this shape.
        """
        return tuple(len(self._buckets_per_vertex[vertex]) for vertex in self.query.vertices)

    def total_results(self) -> int:
        """Sum of ``nb_res`` over ``Ω``: the product of the per-vertex bucket totals."""
        total = 1
        for vertex in self.query.vertices:
            total *= sum(self._counts[(vertex, key)] for key in self._buckets_per_vertex[vertex])
        return total

    def nb_res_array(self) -> np.ndarray:
        """``nb_res`` of every combination, in :meth:`enumerate` order.

        Integer products are exact in any order; the dtype comes from
        :func:`count_array` with the space's :meth:`total_results`, so it is
        ``int64`` only when no product or running sum can overflow it.
        """
        vertices = self.query.vertices
        shape = self.shape()
        total = self.total_results()
        nb_res = count_array([1], total).reshape((1,) * len(vertices))
        for axis, vertex in enumerate(vertices):
            counts = count_array(
                [self._counts[(vertex, key)] for key in self._buckets_per_vertex[vertex]], total
            )
            nb_res = nb_res * counts.reshape(_axis_shape(len(vertices), {axis: shape[axis]}))
        return nb_res.reshape(-1)

    def endpoint_arrays(self, vertex: str) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """``{'start': (lows, highs), 'end': (lows, highs)}`` over ``vertex``'s buckets.

        Element ``i`` holds the ranges of :meth:`box` for the ``i``-th bucket
        of :meth:`buckets_of`, so arrays index like the bucket list.
        """
        arrays = self._endpoint_arrays.get(vertex)
        if arrays is None:
            boxes = [self._boxes[(vertex, key)] for key in self._buckets_per_vertex[vertex]]
            arrays = {
                "start": (
                    np.array([box.start_low for box in boxes], dtype=float),
                    np.array([box.start_high for box in boxes], dtype=float),
                ),
                "end": (
                    np.array([box.end_low for box in boxes], dtype=float),
                    np.array([box.end_high for box in boxes], dtype=float),
                ),
            }
            self._endpoint_arrays[vertex] = arrays
        return arrays

    # ------------------------------------------------------------- enumeration
    def enumerate(self) -> Iterator[BucketCombination]:
        """Yield every combination of non-empty buckets (without bounds)."""
        vertices = self.query.vertices
        bucket_lists = [self._buckets_per_vertex[vertex] for vertex in vertices]
        for buckets in itertools.product(*bucket_lists):
            nb_res = 1
            for vertex, bucket in zip(vertices, buckets):
                nb_res *= self._counts[(vertex, bucket)]
            yield BucketCombination(vertices, tuple(buckets), nb_res)

    def domain_set(self, combination: BucketCombination) -> DomainSet:
        """Solver domains of a combination (one box per query vertex)."""
        boxes = {
            vertex: self._boxes[(vertex, bucket)]
            for vertex, bucket in combination.bucket_items()
        }
        return DomainSet.from_mapping(boxes)


class PairwiseBoundsCache:
    """Exact score bounds of (edge, bucket pair) combinations — the loose primitives.

    For a single edge the comparator ranges over a pair of boxes are exact per
    conjunct, so no branching is needed; results are memoised because the same
    bucket pair is shared by many combinations.  :meth:`edge_matrices` bounds
    all pairs of an edge in one numpy pass; :meth:`bounds` is the scalar path
    (the tight strategies' per-combination lookups, and the reference the
    array form is tested against).

    ``shared`` injects an externally-owned memo dictionary.  Bucket boxes are a
    pure function of the granularity, so as long as the granule boundaries stay
    fixed the same memo can be carried across many cache instances — the
    streaming evaluator reuses one memo for every batch of a stream, making the
    per-batch bound computation incremental too.
    """

    def __init__(
        self,
        query: RTJQuery,
        space: CombinationSpace,
        shared: MutableMapping[tuple[int, BucketKey, BucketKey], tuple[float, float]]
        | None = None,
    ) -> None:
        self.query = query
        self.space = space
        self._edge_objectives = [
            EdgeObjective.from_edge(edge.source, edge.target, edge.predicate)
            for edge in query.edges
        ]
        self._cache: MutableMapping[
            tuple[int, BucketKey, BucketKey], tuple[float, float]
        ] = shared if shared is not None else {}
        self._matrices: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._pairs: dict[int, np.ndarray] = {}
        self.pairs_computed = 0

    def edge_objective(self, edge_index: int) -> EdgeObjective:
        """Renamed predicate objective of one query edge."""
        return self._edge_objectives[edge_index]

    def bounds(
        self, edge_index: int, source_bucket: BucketKey, target_bucket: BucketKey
    ) -> tuple[float, float]:
        """Exact (LB, UB) of one edge's score over a pair of buckets."""
        cache_key = (edge_index, source_bucket, target_bucket)
        cached = self._cache.get(cache_key)
        if cached is not None:
            return cached
        edge = self.query.edges[edge_index]
        domains = DomainSet.from_mapping({
            edge.source: self.space.box(edge.source, source_bucket),
            edge.target: self.space.box(edge.target, target_bucket),
        })
        bounds = self._edge_objectives[edge_index].score_range(domains.endpoint_domains())
        self._cache[cache_key] = bounds
        self.pairs_computed += 1
        return bounds

    def edge_matrices(self, edge_index: int) -> tuple[np.ndarray, np.ndarray]:
        """Exact (LB, UB) of one edge over every source × target bucket pair.

        Element ``[i, j]`` bounds the ``i``-th bucket of the source vertex
        against the ``j``-th bucket of the target vertex (``buckets_of``
        order) and equals :meth:`bounds` of that pair bit for bit.  Pairs the
        memo does not hold yet are memoised and counted in ``pairs_computed``,
        exactly as :meth:`bounds` would, so the scalar lookups of the tight
        strategies and a shared cross-batch memo see the same pairs.
        """
        matrices = self._matrices.get(edge_index)
        if matrices is not None:
            return matrices
        edge = self.query.edges[edge_index]
        sources = self.space.buckets_of(edge.source)
        targets = self.space.buckets_of(edge.target)
        shape = (len(sources), len(targets))
        domains: dict[EndpointVar, tuple[np.ndarray, np.ndarray]] = {}
        layouts = ((edge.source, (slice(None), None)), (edge.target, (None, slice(None))))
        for vertex, layout in layouts:
            for endpoint, (lows, highs) in self.space.endpoint_arrays(vertex).items():
                domains[EndpointVar(vertex, endpoint)] = (
                    np.broadcast_to(lows[layout], shape),
                    np.broadcast_to(highs[layout], shape),
                )
        lower, upper = score_range_v(self._edge_objectives[edge_index].predicate, domains)
        lower = np.broadcast_to(lower, shape)
        upper = np.broadcast_to(upper, shape)

        cache = self._cache
        pairs = np.empty(shape, dtype=object)
        for i, (source, lows, highs) in enumerate(zip(sources, lower.tolist(), upper.tolist())):
            for j, (target, low, high) in enumerate(zip(targets, lows, highs)):
                cache_key = (edge_index, source, target)
                pair = cache.get(cache_key)
                if pair is None:
                    pair = cache[cache_key] = (low, high)
                    self.pairs_computed += 1
                pairs[i, j] = pair
        self._matrices[edge_index] = (lower, upper)
        self._pairs[edge_index] = pairs
        return lower, upper

    def edge_pairs(self, edge_index: int) -> np.ndarray:
        """:meth:`edge_matrices` as an object array of the memo's ``(LB, UB)`` tuples.

        Combinations built from it share one tuple per bucket pair, as the
        per-combination lookups of :meth:`bounds` did.
        """
        self.edge_matrices(edge_index)
        return self._pairs[edge_index]

    def precompute_all_pairs(self) -> int:
        """Compute bounds for every bucket pair of every edge (Algorithm 2, lines 1-3)."""
        for edge_index in range(len(self.query.edges)):
            self.edge_matrices(edge_index)
        return self.pairs_computed


def _axis_shape(ndim: int, sizes: dict[int, int]) -> tuple[int, ...]:
    """Shape with ``sizes[axis]`` on the given axes and 1 elsewhere (for broadcasting)."""
    return tuple(sizes.get(axis, 1) for axis in range(ndim))


@dataclass(frozen=True)
class LooseBoundsTable:
    """Loose bounds of every combination of ``Ω``, in array form.

    Entry ``i`` of ``lower``/``upper``/``nb_res`` describes the ``i``-th
    combination of :meth:`CombinationSpace.enumerate` (``itertools.product``
    order).  Since every vertex's bucket list is sorted, that order is also
    the combinations' ``key()`` order, so index order can stand in for key
    order in the selection (DESIGN.md §4).  ``edge_bounds`` holds each
    edge's pairwise ``(LB, UB)`` tuples (:meth:`PairwiseBoundsCache.edge_pairs`).
    """

    space: CombinationSpace
    lower: np.ndarray
    upper: np.ndarray
    nb_res: np.ndarray
    edge_bounds: tuple[np.ndarray, ...]

    def combinations(
        self, indices: Sequence[int] | np.ndarray | None = None
    ) -> list[BucketCombination]:
        """The combinations at ``indices`` (all of ``Ω`` when ``None``), in that order.

        Each one carries its loose bounds and per-edge ``edge_bounds``; these
        are the only :class:`BucketCombination` objects the loose path builds.
        """
        space = self.space
        query = space.query
        vertices = query.vertices
        if indices is None:
            indices = np.arange(len(self.lower))
        indices = np.asarray(indices, dtype=np.intp)
        positions = np.unravel_index(indices, space.shape())
        columns = []
        for vertex, axis in zip(vertices, positions):
            keys = space.buckets_of(vertex)
            column = np.empty(len(keys), dtype=object)
            for slot, key in enumerate(keys):
                column[slot] = key
            columns.append(column[axis].tolist())
        buckets = list(zip(*columns))
        edge_pairs = [
            pairs[positions[vertices.index(edge.source)], positions[vertices.index(edge.target)]]
            .tolist()
            for edge, pairs in zip(query.edges, self.edge_bounds)
        ]
        edge_bounds = list(zip(*edge_pairs)) if edge_pairs else [()] * len(indices)
        return [
            BucketCombination(vertices, combination, nb_res, lower, upper, bounds)
            for combination, nb_res, lower, upper, bounds in zip(
                buckets,
                self.nb_res[indices].tolist(),
                self.lower[indices].tolist(),
                self.upper[indices].tolist(),
                edge_bounds,
            )
        ]


@dataclass
class BoundsEstimator:
    """Computes loose (pairwise) and tight (joint) bounds of bucket combinations.

    ``shared_pairwise`` optionally injects a persistent memo for the pairwise
    bounds (see :class:`PairwiseBoundsCache`); sound only while the granule
    boundaries of the statistics stay fixed.
    """

    query: RTJQuery
    space: CombinationSpace
    solver: BranchAndBoundSolver = field(default_factory=BranchAndBoundSolver)
    shared_pairwise: MutableMapping[
        tuple[int, BucketKey, BucketKey], tuple[float, float]
    ] | None = None

    def __post_init__(self) -> None:
        self.pairwise = PairwiseBoundsCache(self.query, self.space, self.shared_pairwise)
        self._objective = AggregateObjective(
            edges=tuple(
                EdgeObjective.from_edge(edge.source, edge.target, edge.predicate)
                for edge in self.query.edges
            ),
            aggregation=self.query.aggregation,
        )

    # ------------------------------------------------------------------ bounds
    def loose_table(self) -> LooseBoundsTable:
        """Loose bounds of all of ``Ω``: pairwise bounds aggregated through S.

        Each edge's pair matrix is laid over its two vertex axes and
        broadcast to every combination; the aggregation then folds the edges
        left to right from ``0.0`` (:func:`combine_scores_v`), the float
        sequence of the scalar ``combine``.  An empty ``Ω`` bounds no pair.
        """
        space = self.space
        shape = space.shape()
        size = space.size()
        nb_res = space.nb_res_array()
        if size == 0:
            empty = np.zeros(0, dtype=float)
            return LooseBoundsTable(space, empty, empty, nb_res, ())
        vertices = self.query.vertices
        lows: list[np.ndarray] = []
        highs: list[np.ndarray] = []
        for edge_index, edge in enumerate(self.query.edges):
            lower, upper = self.pairwise.edge_matrices(edge_index)
            source = vertices.index(edge.source)
            target = vertices.index(edge.target)
            lows.append(_spread(lower, source, target, shape))
            highs.append(_spread(upper, source, target, shape))
        aggregation = self.query.aggregation
        return LooseBoundsTable(
            space,
            combine_scores_v(aggregation, lows, size),
            combine_scores_v(aggregation, highs, size),
            nb_res,
            tuple(self.pairwise.edge_pairs(index) for index in range(len(self.query.edges))),
        )

    def tight_bounds(self, combination: BucketCombination) -> BucketCombination:
        """Joint bounds over all vertices via branch-and-bound (brute-force strategy).

        Per-edge bounds are refreshed with the pairwise cache so that the local join
        can derive residual thresholds per edge.
        """
        domains = self.space.domain_set(combination)
        lower, upper = self.solver.bounds(self._objective, domains)
        edge_bounds: list[tuple[float, float]] = []
        for edge_index, edge in enumerate(self.query.edges):
            source_bucket = combination.bucket_of(edge.source)
            target_bucket = combination.bucket_of(edge.target)
            edge_bounds.append(self.pairwise.bounds(edge_index, source_bucket, target_bucket))
        # Joint bounds can only be tighter than (or equal to) the aggregated
        # pairwise bounds; guard against solver budget artefacts.
        loose_lower = self.query.aggregation.lower_bound([b[0] for b in edge_bounds])
        loose_upper = self.query.aggregation.upper_bound([b[1] for b in edge_bounds])
        lower = max(lower, loose_lower)
        upper = min(upper, loose_upper)
        if lower > upper:
            lower = loose_lower
            upper = loose_upper
        return combination.with_bounds(lower, upper, edge_bounds)

    @property
    def objective(self) -> AggregateObjective:
        """The aggregate objective (shared with the distribution/join phases)."""
        return self._objective


def _spread(
    matrix: np.ndarray, source_axis: int, target_axis: int, shape: tuple[int, ...]
) -> np.ndarray:
    """An edge's pair matrix broadcast over ``Ω``, flattened in combination order."""
    sizes = {source_axis: shape[source_axis], target_axis: shape[target_axis]}
    if source_axis > target_axis:
        matrix = matrix.T
    laid = np.reshape(matrix, _axis_shape(len(shape), sizes))
    return np.broadcast_to(laid, shape).reshape(-1)
