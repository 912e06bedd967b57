"""The seeded inputs and helpers of the benchmark's workloads.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.workloads import SERVICE_PLAN, service_stream, time_to_best  # noqa: E402


def test_service_stream_is_a_function_of_the_seed():
    assert service_stream(3) == service_stream(3)
    assert service_stream(3) != service_stream(4)


def test_service_stream_follows_the_plan():
    seen_ops, seen_groups = [], []
    for batch, (new, repeats, group_repeat) in zip(service_stream(5), SERVICE_PLAN):
        fresh, again = batch["ops"][:new], batch["ops"][new:]
        assert len(again) == repeats
        assert not set(fresh) & set(seen_ops), "new requests are misses"
        assert set(again) <= set(seen_ops), "repeats are hits"
        assert (batch["group"] in seen_groups) == group_repeat
        seen_ops.extend(fresh)
        seen_groups.append(batch["group"])
    assert len(set(seen_groups)) > 1, "the group's shape varies across batches"


def test_time_to_best_is_the_first_round_within_tolerance():
    rounds = [(1.0, 300.0), (2.0, 104.0), (3.0, 101.0), (4.0, 100.0)]
    assert time_to_best(0.5, rounds) == 1.5
    assert time_to_best(0.0, [(2.0, 50.0)]) == 2.0
    assert time_to_best(0.0, []) == 0.0
