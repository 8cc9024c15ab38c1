"""Reference answers for the served workloads.

:func:`exact_top_k` computes the exact top-k of a star-shaped query with
numpy.  It shares no code with TKIJ's bounds, distribution, join enumeration or
merge; it reuses only the program's vectorized per-edge scorers, which are
bit-identical to the scalar ones.  :func:`check_against_oracle` referees the referee: on a
deterministic subsample of the same collections it must agree with the
``sql-oracle`` algorithm (SQLite over endpoint tables), which is too slow to
score the full collections inside a run (about 8-19 s per shape at 200
intervals per collection on a 2-core x86 box).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.columnar.kernels import combine_scores_v, compile_vector
from repro.experiments.workloads import build_query
from repro.plan import ExecutionContext, get_algorithm
from repro.query.graph import ResultTuple, RTJQuery
from repro.streaming.parity import equivalent_top_k
from repro.temporal.interval import IntervalCollection

__all__ = ["exact_top_k", "check_against_oracle", "verify"]


def exact_top_k(query: RTJQuery, k: int | None = None) -> list[ResultTuple]:
    """Exact top-k of a star-shaped ``query`` (every edge touches one centre vertex).

    For each centre interval, every edge keeps its ``k`` best partners; with a
    monotone aggregation the top-k of the whole cross product lies among
    those candidates — both its score vector and every tuple scoring strictly
    above the k-th score, which is what :func:`equivalent_top_k` compares.
    """
    if query.has_attribute_constraints:
        raise ValueError("the referee scores temporal predicates only")
    k = k or query.k
    vertices = query.vertices
    centres = [
        vertex
        for vertex in vertices
        if all(vertex in (edge.source, edge.target) for edge in query.edges)
    ]
    if not centres or len(query.edges) != len(vertices) - 1:
        raise ValueError(f"the referee needs a star-shaped query, got {query.name!r}")
    centre = centres[0]
    columns = {}
    for vertex in vertices:
        collection = query.collections[vertex]
        columns[vertex] = (
            np.asarray(collection.starts, dtype=float),
            np.asarray(collection.ends, dtype=float),
            np.asarray([interval.uid for interval in collection], dtype=np.int64),
        )
    c_start, c_end, _ = columns[centre]
    num_centre = len(c_start)
    parts, partners = [], {}
    for axis, edge in enumerate(query.edges, start=1):
        other = edge.target if edge.source == centre else edge.source
        o_start, o_end, _ = columns[other]
        scorer = compile_vector(edge.predicate)
        if edge.source == centre:
            matrix = scorer(c_start[:, None], c_end[:, None], o_start[None, :], o_end[None, :])
        else:
            matrix = scorer(o_start[None, :], o_end[None, :], c_start[:, None], c_end[:, None])
        keep = min(k, matrix.shape[1])
        best = np.argpartition(-matrix, keep - 1, axis=1)[:, :keep]
        shape = [num_centre] + [1] * len(query.edges)
        shape[axis] = keep
        parts.append(np.take_along_axis(matrix, best, axis=1).reshape(shape))
        partners[other] = best.reshape(shape)
    grid = np.broadcast_shapes(*(part.shape for part in parts))
    size = int(np.prod(grid))
    scores = np.asarray(
        combine_scores_v(
            query.aggregation, [np.broadcast_to(p, grid).ravel() for p in parts], size
        )
    )
    keep = min(k, size)
    top = np.argpartition(-scores, keep - 1)[:keep]
    cells = np.unravel_index(top, grid)
    rows = {centre: cells[0]}
    for vertex, best in partners.items():
        rows[vertex] = np.broadcast_to(best, grid)[cells]
    results = [
        ResultTuple(
            uids=tuple(int(columns[vertex][2][rows[vertex][i]]) for vertex in vertices),
            score=float(scores[position]),
        )
        for i, position in enumerate(top)
    ]
    results.sort(key=ResultTuple.sort_key)
    return results


def verify(answer: Sequence[ResultTuple], reference: Sequence[ResultTuple], query: RTJQuery) -> bool:
    """Whether ``answer`` is a correct top-k given the referee's ``reference``.

    ``equivalent_top_k`` fixes the score vector and every tuple strictly above
    the k-th score; the tuples tied at the k-th score may legitimately differ,
    so each must also be distinct and really score what the answer claims.
    """
    return (
        len(answer) == len(reference)
        and len({result.uids for result in answer}) == len(answer)
        and equivalent_top_k(answer, reference)
        and all(
            round(query.score_tuple(result.uids), 9) == round(result.score, 9)
            for result in answer
        )
    )


def _subsample(collections: Sequence[IntervalCollection], size: int) -> list[IntervalCollection]:
    return [
        IntervalCollection(collection.name, list(collection.intervals)[:size])
        for collection in collections
    ]


def check_against_oracle(
    shapes: Sequence[str],
    collections: Sequence[IntervalCollection],
    params: str,
    k: int,
    sample: int = 40,
) -> list[str]:
    """Shapes on which :func:`exact_top_k` disagrees with ``sql-oracle``.

    Both evaluate the same query over the first ``sample`` intervals of every
    collection (an empty list means the referee is trusted for this run).
    """
    small = _subsample(collections, sample)
    context = ExecutionContext()
    oracle = get_algorithm("sql-oracle")
    disagreements = []
    try:
        for shape in shapes:
            query = build_query(shape, small, params, k)
            expected = oracle.run(query, context).results
            if not equivalent_top_k(exact_top_k(query), expected):
                disagreements.append(shape)
    finally:
        context.close()
    return disagreements
