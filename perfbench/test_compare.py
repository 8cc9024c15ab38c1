"""Self-tests of the run-set comparison in ``compare.py``, on fabricated runs.

Run with ``python3 perfbench/test_compare.py`` (no program code is needed).
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from compare import compare, spread  # noqa: E402

BENCHMARK = {
    "workloads": [{"name": "w1", "why": "."}, {"name": "w2", "why": "."}],
    "end_to_end": [
        {"name": "latency_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
}


def run(
    latency: float, qps: float, attempted: int = 100, failed: int = 0, **notes
) -> dict:
    return {
        "seed": 1,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "latency_s": {"value": latency, "unit": "s"},
            "qps": {"value": qps, "unit": "1/s"},
        },
        "passes": [{"notes": {"tail_pct": 90.0, **notes}}],
    }


def steady(latency: float = 1.0, qps: float = 10.0, **fields) -> list[dict]:
    """Ten runs within +-1% of the given values."""
    return [run(latency * (1 + 0.002 * i), qps * (1 - 0.002 * i), **fields) for i in range(10)]


def verdicts(parent: dict, change: dict) -> dict[tuple[str, str], str]:
    return {(w, m): v for w, m, v, _ in compare(parent, change, BENCHMARK)}


class CompareTest(unittest.TestCase):
    def test_identical_sets_pass(self) -> None:
        sets = {"w1": steady(), "w2": steady()}
        self.assertEqual(set(verdicts(sets, sets).values()), {"ok"})

    def test_median_worse_than_bound_is_a_regression(self) -> None:
        parent = {"w1": steady(), "w2": steady()}
        change = {"w1": steady(latency=1.2), "w2": steady(qps=8.5)}
        result = verdicts(parent, change)
        self.assertEqual(result[("w1", "latency_s")], "regression")
        self.assertEqual(result[("w2", "qps")], "regression")
        self.assertEqual(result[("w1", "qps")], "ok")

    def test_worse_within_bound_is_not_a_regression(self) -> None:
        parent = {"w1": steady(), "w2": steady()}
        change = {"w1": steady(latency=1.05), "w2": steady()}
        self.assertEqual(verdicts(parent, change)[("w1", "latency_s")], "ok")

    def test_spread_wider_than_bound_is_unresolved(self) -> None:
        noisy = [run(latency, 10.0) for latency in (0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4)]
        self.assertGreater(spread([r["metrics"]["latency_s"]["value"] for r in noisy]), 0.1)
        parent = {"w1": steady(), "w2": steady()}
        change = {"w1": noisy, "w2": steady()}
        self.assertEqual(verdicts(parent, change)[("w1", "latency_s")], "unresolved")

    def test_noisy_but_always_better_is_resolved(self) -> None:
        faster = [run(latency, 10.0) for latency in (0.3, 0.4, 0.5, 0.6, 0.7)]
        parent = {"w1": steady(), "w2": steady()}
        self.assertEqual(
            verdicts(parent, {"w1": faster, "w2": steady()})[("w1", "latency_s")], "ok"
        )

    def test_higher_failed_frac_is_rejected(self) -> None:
        parent = {"w1": steady(), "w2": steady()}
        change = {"w1": steady(failed=1), "w2": steady()}
        result = verdicts(parent, change)
        self.assertEqual(result[("w1", "failed_frac")], "rejected")
        self.assertNotIn(("w2", "failed_frac"), result)

    def test_missing_workload_is_an_error(self) -> None:
        parent = {"w1": steady(), "w2": steady()}
        self.assertEqual(verdicts(parent, {"w1": steady()})[("w2", "*")], "error")
        self.assertEqual(verdicts({"w2": steady()}, parent)[("w1", "*")], "error")

    def test_missing_metric_is_an_error(self) -> None:
        parent = {"w1": steady(), "w2": steady()}
        broken = steady()
        del broken[3]["metrics"]["qps"]
        result = verdicts(parent, {"w1": broken, "w2": steady()})
        self.assertEqual(result[("w1", "qps")], "error")
        self.assertEqual(result[("w1", "latency_s")], "ok")

    def test_tails_at_different_percentiles_are_an_error(self) -> None:
        parent = {"w1": steady(), "w2": steady()}
        change = {"w1": steady(tail_pct=75.0), "w2": steady()}
        result = verdicts(parent, change)
        self.assertEqual(result[("w1", "latency_tail_s")], "error")
        self.assertNotIn(("w2", "latency_tail_s"), result)

    def test_counters_that_do_not_repeat_for_a_seed_are_an_error(self) -> None:
        repeat = steady(deterministic_metrics={"Qo,o": {"tuples_scored": 7}})
        parent = {"w1": repeat, "w2": steady()}
        self.assertEqual(set(verdicts(parent, parent).values()), {"ok"})
        drifted = steady(deterministic_metrics={"Qo,o": {"tuples_scored": 7}})
        drifted[4]["passes"][0]["notes"]["deterministic_metrics"] = {"Qo,o": {"tuples_scored": 8}}
        result = verdicts(parent, {"w1": drifted, "w2": steady()})
        self.assertEqual(result[("w1", "deterministic_metrics")], "error")


if __name__ == "__main__":
    unittest.main()
