"""Differential tests: TKIJ phases (b)+(c) in array form against the scalar reference.

The reference below is the per-combination code the array form replaced:
per-pair ``PairwiseBoundsCache.bounds`` aggregated through the query's
aggregation one combination at a time, ``get_top_buckets`` as two sorts and
two loops over ``BucketCombination`` objects, and the assigners driven by set
scans.  The solver's compiled box relaxation is checked against
``score_range`` over endpoint mappings.  Every comparison is ``==`` — floats
included — because the local join's pruning decisions compare these bounds
against thresholds.
"""

from __future__ import annotations

import typing

import hypothesis.strategies as st
import numpy as np
from hypothesis import HealthCheck, given, settings

from repro.core import collect_statistics
from repro.core.bounds import (
    BoundsEstimator,
    BucketCombination,
    CombinationSpace,
    PairwiseBoundsCache,
)
from repro.core.distribution import ASSIGNERS
from repro.core.operators import FilteredDistributeOp, PhaseState
from repro.core.statistics import BucketMatrix, DatasetStatistics, Granularity, update_statistics
from repro.core.top_buckets import TopBucketsSelector, get_top_buckets, select_top_buckets
from repro.experiments import PARAMETERS
from repro.query import QueryBuilder
from repro.solver import BranchAndBoundSolver, DomainSet, VariableBox
from repro.streaming import IncrementalTopBucketsOp
from repro.temporal import Interval, IntervalCollection
from repro.temporal.aggregation import AverageScore, MinScore, SumScore, WeightedSum
from repro.temporal.attributes import AttributeEquals
from repro.temporal.predicates import predicate_by_name

PREDICATES = (
    "before",
    "equals",
    "meets",
    "overlaps",
    "contains",
    "starts",
    "finishedBy",
    "justBefore",
    "shiftMeets",
    "sparks",
)


# ----------------------------------------------------------------- reference
def reference_loose(estimator: BoundsEstimator, combination: BucketCombination):
    """Loose bounds of one combination: scalar pairwise bounds, aggregated."""
    query = estimator.query
    edge_bounds = [
        estimator.pairwise.bounds(
            index, combination.bucket_of(edge.source), combination.bucket_of(edge.target)
        )
        for index, edge in enumerate(query.edges)
    ]
    lower = query.aggregation.lower_bound([b[0] for b in edge_bounds])
    upper = query.aggregation.upper_bound([b[1] for b in edge_bounds])
    return combination.with_bounds(lower, upper, edge_bounds)


def reference_top_buckets(combinations, k):
    """Algorithm 1 as two sorts and two loops over objects."""
    combos = [c for c in combinations if c.nb_res > 0]
    if not combos:
        return []
    by_lower = sorted(combos, key=lambda c: (-c.lower_bound, c.key()))
    collected = 0
    kth_res_lb = by_lower[-1].lower_bound
    for combo in by_lower:
        collected += combo.nb_res
        kth_res_lb = combo.lower_bound
        if collected >= k:
            break
    by_upper = sorted(combos, key=lambda c: (-c.upper_bound, c.key()))
    selected = []
    collected = 0
    for combo in by_upper:
        if collected >= k and combo.upper_bound < kth_res_lb:
            break
        selected.append(combo)
        collected += combo.nb_res
    return selected


def _reference_assignment(num_reducers):
    return {r: [] for r in range(num_reducers)}, {r: set() for r in range(num_reducers)}


def reference_dtb(combinations, num_reducers):
    """Algorithms 3-4 with per-reducer bucket sets scanned for every combination."""
    per_reducer, held = _reference_assignment(num_reducers)
    ordered = sorted(combinations, key=lambda c: (-c.upper_bound, c.key()))
    avg_results = sum(c.nb_res for c in ordered) / num_reducers
    results = {r: 0 for r in range(num_reducers)}
    cap = 2.0 * avg_results
    for combination in ordered:
        candidates = [r for r in range(num_reducers) if results[r] < cap or cap == 0.0]
        if not candidates:
            candidates = list(range(num_reducers))
        fewest = min(len(per_reducer[r]) for r in candidates)
        best, best_cost = None, None
        for reducer in (r for r in candidates if len(per_reducer[r]) == fewest):
            cost = sum(1 for item in combination.bucket_items() if item not in held[reducer])
            if best_cost is None or cost < best_cost:
                best, best_cost = reducer, cost
        per_reducer[best].append(combination)
        held[best].update(combination.bucket_items())
        results[best] += combination.nb_res
    return per_reducer, held


def reference_lpt(combinations, num_reducers):
    per_reducer, held = _reference_assignment(num_reducers)
    load = {r: 0 for r in range(num_reducers)}
    for combination in sorted(combinations, key=lambda c: (-c.nb_res, c.key())):
        reducer = min(load, key=lambda r: (load[r], r))
        per_reducer[reducer].append(combination)
        held[reducer].update(combination.bucket_items())
        load[reducer] += combination.nb_res
    return per_reducer, held


def reference_round_robin(combinations, num_reducers):
    per_reducer, held = _reference_assignment(num_reducers)
    for index, combination in enumerate(combinations):
        per_reducer[index % num_reducers].append(combination)
        held[index % num_reducers].update(combination.bucket_items())
    return per_reducer, held


REFERENCE_ASSIGNERS = {
    "dtb": reference_dtb,
    "lpt": reference_lpt,
    "round-robin": reference_round_robin,
}


def reference_routing(held):
    reducers_of: dict = {}
    for reducer, buckets in held.items():
        for item in buckets:
            reducers_of.setdefault(item, []).append(reducer)
    return {item: tuple(reducers) for item, reducers in reducers_of.items()}


# ----------------------------------------------------------------- strategies
@st.composite
def collections_strategy(draw, count):
    """Tiny skewed collections: clustered starts, many ties, a heavy length tail."""
    collections = []
    for index in range(count):
        size = draw(st.integers(1, 7))
        intervals = []
        for uid in range(size):
            start = float(draw(st.sampled_from([0, 0, 1, 5, 5, 20, 60, 200])))
            length = float(draw(st.sampled_from([0, 0, 1, 3, 10, 10, 80, 400])))
            colour = draw(st.sampled_from(["a", "b"]))
            intervals.append(Interval(uid, start, start + length, payload={"colour": colour}))
        collections.append(IntervalCollection(f"c{index}", intervals))
    return collections


@st.composite
def query_strategy(draw):
    """A 2-4 vertex chain, star or triangle query with random edge orientations."""
    num_vertices = draw(st.integers(2, 4))
    shape = draw(st.sampled_from(["chain", "star", "triangle"]))
    pairs = [(i, i + 1) for i in range(num_vertices - 1)]
    if shape == "star":
        pairs = [(0, i) for i in range(1, num_vertices)]
    elif shape == "triangle" and num_vertices >= 3:
        pairs.append((0, 2))
    pairs = [pair[::-1] if draw(st.booleans()) else pair for pair in pairs]

    collections = draw(collections_strategy(num_vertices))
    # A shared collection on two vertices exercises identical bucket lists.
    if num_vertices > 2 and draw(st.booleans()):
        collections[-1] = collections[0]
    params = PARAMETERS[draw(st.sampled_from(["P1", "P2", "P3", "PB"]))]
    builder = QueryBuilder(name="array-parity", params=params)
    vertices = [f"v{i}" for i in range(num_vertices)]
    for vertex, collection in zip(vertices, collections):
        builder.add_collection(vertex, collection)
    hybrid = draw(st.integers(0, 3)) == 0
    for position, (source, target) in enumerate(pairs):
        attributes = [AttributeEquals("colour")] if hybrid and position == 0 else []
        builder.add_predicate(
            vertices[source],
            vertices[target],
            draw(st.sampled_from(PREDICATES)),
            attributes=attributes,
        )
    aggregation = draw(st.sampled_from(["average", "sum", "weighted", "min"]))
    if aggregation == "sum":
        builder.aggregate_with(SumScore())
    elif aggregation == "weighted":
        weights = draw(
            st.lists(
                st.sampled_from([0.0, 0.25, 1.0, 3.0]), min_size=len(pairs), max_size=len(pairs)
            )
        )
        builder.aggregate_with(WeightedSum(tuple(weights)))
    elif aggregation == "min":
        builder.aggregate_with(MinScore())
    else:
        builder.aggregate_with(AverageScore(len(pairs)))
    builder.top(draw(st.integers(1, 40)))
    query = builder.build()
    by_name = {c.name: c for c in collections}
    statistics = collect_statistics(by_name, draw(st.integers(1, 5)))
    return query, statistics


_SETTINGS = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _keys(assignment_lists):
    return {r: [c.key() for c in combos] for r, combos in assignment_lists.items()}


class TestArrayPhasesMatchScalarReference:
    @_SETTINGS
    @given(case=query_strategy(), num_reducers=st.integers(1, 5))
    def test_bounds_selection_and_assignment(self, case, num_reducers):
        query, statistics = case
        space = CombinationSpace(query, statistics)
        estimator = BoundsEstimator(query, space)
        table = estimator.loose_table()

        # Pairwise matrices == the scalar per-pair bounds of a fresh cache.
        scalar = PairwiseBoundsCache(query, space)
        for index, edge in enumerate(query.edges):
            lower, upper = estimator.pairwise.edge_matrices(index)
            for i, source in enumerate(space.buckets_of(edge.source)):
                for j, target in enumerate(space.buckets_of(edge.target)):
                    assert (lower[i, j], upper[i, j]) == scalar.bounds(index, source, target)
        assert estimator.pairwise.pairs_computed == scalar.pairs_computed

        # Loose LB/UB, nb_res and edge_bounds of every combination.
        reference_estimator = BoundsEstimator(query, space)
        reference = [reference_loose(reference_estimator, c) for c in space.enumerate()]
        assert table.combinations() == reference
        assert [int(n) for n in table.nb_res] == [c.nb_res for c in reference]
        assert space.total_results() == sum(c.nb_res for c in reference)

        # Selection: the same combinations in the same order.
        expected = reference_top_buckets(reference, query.k)
        assert select_top_buckets(table, query.k) == expected
        assert get_top_buckets(reference[::-1], query.k) == expected

        # The selector's strategies (hybrid queries keep everything).
        loose = TopBucketsSelector("loose").run(query, statistics)
        assert loose.selected == (reference if query.has_attribute_constraints else expected)
        assert loose.total_results == space.total_results()
        assert loose.pairs_bounded == scalar.pairs_computed

        # The solver's box relaxation (compiled corner plans) == the scalar
        # per-edge score ranges over endpoint mappings, aggregated.
        for combination in reference[:: max(1, len(reference) // 20)]:
            domains = space.domain_set(combination)
            ranges = [
                edge.score_range(domains.endpoint_domains())
                for edge in estimator.objective.edges
            ]
            assert estimator.objective.relaxed_range(domains) == (
                query.aggregation.lower_bound([r[0] for r in ranges]),
                query.aggregation.upper_bound([r[1] for r in ranges]),
            )

        # Per-reducer assignments and the routing JoinOp ships by.
        for name, assigner in ASSIGNERS.items():
            assignment = assigner(expected, num_reducers)
            per_reducer, held = REFERENCE_ASSIGNERS[name](expected, num_reducers)
            assert _keys(assignment.combinations_per_reducer) == _keys(per_reducer)
            assert assignment.buckets_per_reducer == held
            assert assignment.routing == reference_routing(held)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=query_strategy())
    def test_two_phase_matches_reference(self, case):
        query, statistics = case
        solver = BranchAndBoundSolver(max_nodes=4)
        result = TopBucketsSelector("two-phase", solver=solver).run(query, statistics)
        if query.has_attribute_constraints:
            return
        space = CombinationSpace(query, statistics)
        estimator = BoundsEstimator(query, space, solver=BranchAndBoundSolver(max_nodes=4))
        survivors = reference_top_buckets(
            [reference_loose(estimator, c) for c in space.enumerate()], query.k
        )
        refined = [estimator.tight_bounds(c) for c in survivors]
        assert result.selected == reference_top_buckets(refined, query.k)
        assert result.tight_bounds_computed == len(refined)
        assert result.pairs_bounded == estimator.pairwise.pairs_computed

    @_SETTINGS
    @given(
        name=st.sampled_from(PREDICATES),
        params=st.sampled_from(sorted(PARAMETERS)),
        corners=st.lists(
            st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False), min_size=8, max_size=8
        ),
        avg_length=st.floats(0, 500, allow_nan=False),
    )
    def test_corner_ranges_match_endpoint_ranges(self, name, params, corners, avg_length):
        predicate = predicate_by_name(name, PARAMETERS[params], avg_length).rename("u", "w")
        boxes = {
            var: VariableBox(min(a, b), max(a, b), min(c, d), max(c, d))
            for var, (a, b, c, d) in (("u", corners[:4]), ("w", corners[4:]))
        }
        domains = DomainSet.from_mapping(boxes)
        assert predicate.corner_score_range(domains.corners()) == predicate.score_range(
            domains.endpoint_domains()
        )

    @_SETTINGS
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(0, 3),
                st.integers(0, 5),
                st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                st.sampled_from([0.0, 0.5, 0.75, 1.0]),
            ),
            max_size=25,
        ),
        k=st.integers(1, 30),
    )
    def test_get_top_buckets_on_unordered_lists(self, rows, k):
        combos = [
            BucketCombination(("x", "y"), ((a, a), (i, i)), nb_res, lower, max(lower, upper))
            for i, (a, nb_res, lower, upper) in enumerate(rows)
        ]
        assert get_top_buckets(combos, k) == reference_top_buckets(combos, k)


# ------------------------------------------------------------------ edge cases
def _chain_query(names):
    builder = QueryBuilder(name="wide", params=PARAMETERS["P1"])
    for index, name in enumerate(names):
        builder.add_collection(f"v{index}", IntervalCollection(name, [Interval(0, 0.0, 1.0)]))
    for index in range(len(names) - 1):
        builder.add_predicate(f"v{index}", f"v{index + 1}", "meets")
    return builder.top(5).build()


def _statistics(counts_per_collection):
    granularity = Granularity(0.0, 30.0, 3)
    return DatasetStatistics(
        {
            name: BucketMatrix(name, granularity, dict(counts))
            for name, counts in counts_per_collection.items()
        },
        3,
    )


class TestResultCountsDoNotOverflow:
    def _check(self, counts):
        names = list(counts)
        query = _chain_query(names)
        statistics = _statistics(counts)
        space = CombinationSpace(query, statistics)
        reference = [c.nb_res for c in space.enumerate()]
        table = BoundsEstimator(query, space).loose_table()
        assert table.nb_res.tolist() == reference
        result = TopBucketsSelector("loose").run(query, statistics)
        assert result.total_results == sum(reference)
        expected = reference_top_buckets(
            [reference_loose(BoundsEstimator(query, space), c) for c in space.enumerate()], query.k
        )
        assert result.selected == expected
        assert result.selected_results == sum(c.nb_res for c in expected)
        return table

    def test_products_above_int64(self):
        big = {(0, 0): 3 * 2**16, (0, 1): 7, (1, 2): 2**17 + 1, (2, 2): 5}
        table = self._check({f"c{i}": big for i in range(4)})
        assert sum(table.nb_res.tolist()) > 2**63
        assert table.nb_res.dtype == object

    def test_int64_just_below_the_limit(self):
        table = self._check({"c0": {(0, 0): 2**32 - 2, (1, 1): 1}, "c1": {(0, 0): 2**31}})
        assert sum(table.nb_res.tolist()) == 2**63 - 2**31
        assert table.nb_res.dtype == np.int64


class TestStreamingMemo:
    def test_pairs_bounded_counts_only_new_pairs(self, tiny_collections):
        first = [IntervalCollection(c.name, c.intervals[:10]) for c in tiny_collections]
        builder = QueryBuilder(name="stream", params=PARAMETERS["P1"])
        for index, collection in enumerate(first):
            builder.add_collection(f"v{index}", collection)
        builder.add_predicate("v0", "v1", "overlaps").add_predicate("v2", "v1", "meets")
        query = builder.top(5).build()
        statistics = collect_statistics({c.name: c for c in first}, 4)

        memo: dict = {}
        reference_memo: dict = {}
        for batch in range(4):
            state = PhaseState(query, None, 3)
            state.statistics = statistics
            IncrementalTopBucketsOp(memo).run(state)

            space = CombinationSpace(query, statistics)
            reference_estimator = BoundsEstimator(query, space, shared_pairwise=reference_memo)
            reference = [reference_loose(reference_estimator, c) for c in space.enumerate()]
            top = state.top_buckets
            assert top.pairs_bounded == reference_estimator.pairwise.pairs_computed
            assert memo == reference_memo
            assert top.selected == reference_top_buckets(reference, query.k)
            assert top.total_results == sum(c.nb_res for c in reference)
            if batch == 0:
                assert top.pairs_bounded == len(memo) > 0
            update_statistics(
                statistics,
                inserted={
                    c.name: c.intervals[10 + 10 * batch : 20 + 10 * batch] for c in tiny_collections
                },
            )


def test_filtered_distribute_op_type_hints_resolve():
    hints = typing.get_type_hints(FilteredDistributeOp)
    assert hints["keep"] == typing.Optional[typing.Callable[[BucketCombination], bool]]
