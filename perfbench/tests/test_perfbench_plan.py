"""Seed → input generation and the benchmark's declared metric set."""

from __future__ import annotations

import itertools
import json
import os
from collections import Counter
from types import SimpleNamespace

from perfbench.breakdown import PER_LAYER
from perfbench.campaign import GRID_SHAPE, CampaignWorkload
from perfbench.plan import (
    CAMPAIGN_CLASSES,
    MISS_SEED_FLOOR,
    SERVE_BLOCK,
    campaign_ops,
    scale_ops,
    serve_ops,
    setup_seeds,
)
from perfbench.run import END_TO_END, WORKLOADS

WARM = ("/experiments/a", "/experiments/b", "/experiments/c")
BULK = "/results?tag=x&format=ndjson"
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def take(iterator, count):
    return list(itertools.islice(iterator, count))


class TestDeterminism:
    def test_same_seed_same_ops(self):
        assert take(campaign_ops(5), 60) == take(campaign_ops(5), 60)
        assert take(scale_ops(5), 10) == take(scale_ops(5), 10)
        assert take(serve_ops(5, WARM, BULK), 200) == take(serve_ops(5, WARM, BULK), 200)
        assert setup_seeds("campaign", 5, 3) == setup_seeds("campaign", 5, 3)

    def test_another_seed_changes_the_inputs(self):
        assert [op.seed for op in take(campaign_ops(5), 30)] != [
            op.seed for op in take(campaign_ops(6), 30)
        ]
        assert take(scale_ops(5), 3) != take(scale_ops(6), 3)
        assert take(serve_ops(5, WARM, BULK), 40) != take(serve_ops(6, WARM, BULK), 40)
        assert setup_seeds("campaign", 5, 2) != setup_seeds("campaign", 6, 2)

    def test_indices_are_consecutive(self):
        assert [op.index for op in take(serve_ops(1, WARM, BULK), 50)] == list(range(50))


class TestFixedMix:
    def test_every_campaign_block_runs_each_class_once(self):
        for seed in range(5):
            ops = take(campaign_ops(seed), 3 * 20)
            for start in range(0, len(ops), 3):
                block = ops[start : start + 3]
                assert sorted(op.kind for op in block) == sorted(CAMPAIGN_CLASSES)

    def test_class_counts_do_not_depend_on_the_seed(self):
        counts = {
            seed: Counter(op.kind for op in take(serve_ops(seed, WARM, BULK), 20 * 30))
            for seed in range(4)
        }
        expected = Counter({kind: 30 * n for kind, n in Counter(SERVE_BLOCK).items()})
        assert all(count == expected for count in counts.values())

    def test_serve_requests_target_the_generated_keys(self):
        ops = take(serve_ops(3, WARM, BULK), 20 * 25)
        misses = [op for op in ops if op.kind == "miss"]
        assert len({op.seed for op in misses}) == len(misses)
        assert all(op.seed >= MISS_SEED_FLOOR for op in misses)
        assert all(op.path.endswith(f"seed={op.seed}") for op in misses)
        assert all(op.path in WARM for op in ops if op.kind in ("hit", "not_modified"))
        assert all(op.path == BULK for op in ops if op.kind == "bulk")


class TestGridMonotoneCheck:
    """Neighbouring grid budgets are independent estimates: sampling noise
    passes the check, a real drop does not."""

    @staticmethod
    def failures(series):
        points = [
            SimpleNamespace(trials=GRID_SHAPE["trials"], violation_probabilities=(value,))
            for value in series
        ]
        return CampaignWorkload(0).check(SimpleNamespace(kind="grid"), points)

    def test_a_dip_within_the_noise_passes(self):
        assert self.failures([0.40, 0.47, 0.43, 0.47, 1.0, 1.0]) == []
        assert self.failures([0.0, 0.004, 0.0, 0.002, 0.002, 0.002]) == []

    def test_a_drop_beyond_the_noise_fails(self):
        assert len(self.failures([0.40, 0.60, 0.30, 0.70, 1.0, 1.0])) == 1
        assert len(self.failures([0.0, 0.2, 0.05, 0.3, 0.3, 0.3])) == 1


def test_benchmark_json_declares_what_the_runs_print():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == PER_LAYER
