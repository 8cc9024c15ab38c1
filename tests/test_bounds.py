"""Tests for bucket combinations, the combination space and bound estimation."""

import itertools

import pytest

from repro.core import collect_statistics
from repro.core.bounds import BoundsEstimator, BucketCombination, CombinationSpace
from repro.experiments import build_query
from repro.solver import BranchAndBoundSolver
from repro.temporal import Interval, IntervalCollection, PredicateParams

P1 = PredicateParams.of(4, 16, 0, 10)


@pytest.fixture()
def small_setup():
    """Two tiny collections, statistics with 3 granules, and a meets query."""
    c1 = IntervalCollection(
        "c1", [Interval(0, 0, 8), Interval(1, 5, 20), Interval(2, 22, 29), Interval(3, 25, 28)]
    )
    c2 = IntervalCollection(
        "c2", [Interval(0, 8, 12), Interval(1, 20, 25), Interval(2, 27, 30), Interval(3, 2, 4)]
    )
    query = build_query("Qs,m", [c1, c2, c1], P1, k=3)
    statistics = collect_statistics({"c1": c1, "c2": c2}, num_granules=3)
    return query, statistics


class TestBucketCombination:
    def test_accessors(self):
        combo = BucketCombination(("x1", "x2"), ((0, 1), (1, 2)), nb_res=12)
        assert combo.bucket_of("x2") == (1, 2)
        assert combo.bucket_items() == [("x1", (0, 1)), ("x2", (1, 2))]
        assert combo.key() == (("x1", (0, 1)), ("x2", (1, 2)))

    def test_with_bounds(self):
        combo = BucketCombination(("x1",), ((0, 0),), nb_res=1)
        updated = combo.with_bounds(0.2, 0.8, [(0.2, 0.8)])
        assert updated.lower_bound == 0.2
        assert updated.upper_bound == 0.8
        assert updated.edge_bounds == ((0.2, 0.8),)
        # Original is unchanged (immutability).
        assert combo.upper_bound == 1.0


class TestCombinationSpace:
    def test_enumerate_size(self, small_setup):
        query, statistics = small_setup
        space = CombinationSpace(query, statistics)
        combos = list(space.enumerate())
        expected = 1
        for vertex in query.vertices:
            expected *= len(space.buckets_of(vertex))
        assert len(combos) == expected == space.size()

    def test_nb_res_is_product_of_counts(self, small_setup):
        query, statistics = small_setup
        space = CombinationSpace(query, statistics)
        for combo in space.enumerate():
            expected = 1
            for vertex, bucket in combo.bucket_items():
                expected *= space.count(vertex, bucket)
            assert combo.nb_res == expected
            assert combo.nb_res > 0

    def test_total_results_cover_cross_product(self, small_setup):
        """Summing nb_res over all combinations covers the full cross product."""
        query, statistics = small_setup
        space = CombinationSpace(query, statistics)
        total = sum(c.nb_res for c in space.enumerate())
        expected = 1
        for vertex in query.vertices:
            expected *= len(query.collections[vertex])
        assert total == expected

    def test_domain_set_matches_buckets(self, small_setup):
        query, statistics = small_setup
        space = CombinationSpace(query, statistics)
        combo = next(space.enumerate())
        domains = space.domain_set(combo)
        for vertex, bucket in combo.bucket_items():
            assert domains.box_of(vertex) == space.box(vertex, bucket)


class TestBoundsEstimator:
    def test_loose_bounds_bracket_actual_scores(self, small_setup):
        query, statistics = small_setup
        space = CombinationSpace(query, statistics)
        estimator = BoundsEstimator(query, space)
        for bounded in estimator.loose_table().combinations():
            assert 0.0 <= bounded.lower_bound <= bounded.upper_bound <= 1.0
            # Every concrete tuple of this combination scores within the bounds.
            pools = []
            for vertex, bucket in bounded.bucket_items():
                matrix = statistics.matrix(query.collections[vertex].name)
                members = [
                    x
                    for x in query.collections[vertex]
                    if matrix.granularity.bucket_of(x) == bucket
                ]
                pools.append(members)
            for tuple_ in itertools.product(*pools):
                score = query.score_assignment(dict(zip(query.vertices, tuple_)))
                assert bounded.lower_bound - 1e-9 <= score <= bounded.upper_bound + 1e-9

    def test_tight_bounds_never_looser_than_loose(self, small_setup):
        query, statistics = small_setup
        space = CombinationSpace(query, statistics)
        estimator = BoundsEstimator(query, space, solver=BranchAndBoundSolver(max_nodes=128))
        for loose in estimator.loose_table().combinations():
            tight = estimator.tight_bounds(loose)
            assert tight.upper_bound <= loose.upper_bound + 1e-9
            assert tight.lower_bound >= loose.lower_bound - 1e-9

    def test_pairwise_cache_reuse(self, small_setup):
        query, statistics = small_setup
        space = CombinationSpace(query, statistics)
        estimator = BoundsEstimator(query, space)
        estimator.loose_table()
        first_count = estimator.pairwise.pairs_computed
        estimator.loose_table()
        assert estimator.pairwise.pairs_computed == first_count
        # A second estimator over the same shared memo bounds no pair again.
        memo: dict = {}
        BoundsEstimator(query, space, shared_pairwise=memo).loose_table()
        assert len(memo) == first_count
        again = BoundsEstimator(query, space, shared_pairwise=memo)
        again.loose_table()
        assert again.pairwise.pairs_computed == 0

    def test_precompute_all_pairs_counts(self, small_setup):
        query, statistics = small_setup
        space = CombinationSpace(query, statistics)
        estimator = BoundsEstimator(query, space)
        computed = estimator.pairwise.precompute_all_pairs()
        expected = 0
        for edge in query.edges:
            expected += len(space.buckets_of(edge.source)) * len(space.buckets_of(edge.target))
        assert computed == expected

    def test_edge_bounds_align_with_query_edges(self, small_setup):
        query, statistics = small_setup
        space = CombinationSpace(query, statistics)
        estimator = BoundsEstimator(query, space)
        combo = estimator.loose_table().combinations([0])[0]
        assert len(combo.edge_bounds) == query.num_edges
