"""Seed → input generation for every workload.

The benchmark takes its workload seed as an argument and hands the program
only what these functions generate.  Each plan is an endless, deterministic
op sequence: the same seed yields the same ops in the same order, and a
different seed changes every op's inputs and the order within each block
while the class mix of every block stays fixed — so op counts per class do
not depend on the seed, only on how many blocks a run completes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

#: Op classes of the ``campaign`` workload; each block runs each once.
CAMPAIGN_CLASSES = ("trials", "grid", "census")

#: One ``serve`` block: 16 hits, 2 conditional 304s, 1 bulk read, 1 miss.
SERVE_BLOCK = ("hit",) * 16 + ("not_modified",) * 2 + ("bulk",) + ("miss",)

#: ``campaign_budget`` seeds below this are never used by misses, so a miss
#: never collides with a warm-set key.
MISS_SEED_FLOOR = 1_000_000


def _rng(workload: str, seed: int, stream: str) -> random.Random:
    # String seeds are hashed with SHA-512, identically on every platform.
    return random.Random(f"perfbench:{workload}:{seed}:{stream}")


@dataclass(frozen=True)
class Op:
    """One generated operation: its position, class and inputs."""

    index: int
    kind: str
    seed: int = 0
    path: str = ""


def setup_seeds(workload: str, seed: int, count: int) -> Tuple[int, ...]:
    """Seeds for the inputs a workload builds during set-up."""
    rng = _rng(workload, seed, "setup")
    return tuple(rng.randrange(1 << 31) for _ in range(count))


def campaign_ops(seed: int) -> Iterator[Op]:
    """Blocks of one op per class in a seeded order, each with its own seed."""
    rng = _rng("campaign", seed, "ops")
    index = 0
    while True:
        for kind in rng.sample(CAMPAIGN_CLASSES, len(CAMPAIGN_CLASSES)):
            yield Op(index, kind, rng.randrange(1 << 31))
            index += 1


def scale_ops(seed: int) -> Iterator[Op]:
    """One freshly seeded population build per op."""
    rng = _rng("scale", seed, "ops")
    index = 0
    while True:
        yield Op(index, "op", rng.randrange(1 << 31))
        index += 1


def serve_ops(seed: int, warm_paths: Sequence[str], bulk_path: str) -> Iterator[Op]:
    """Shuffled :data:`SERVE_BLOCK` blocks over the warm key set.

    Hits and 304s pick a warm path; each miss asks ``campaign_budget`` for
    a seed no earlier request used.
    """
    if not warm_paths:
        raise ValueError("the serve plan needs at least one warm path")
    rng = _rng("serve", seed, "ops")
    miss_base = MISS_SEED_FLOOR * (1 + rng.randrange(1000))
    misses = 0
    index = 0
    while True:
        block = list(SERVE_BLOCK)
        rng.shuffle(block)
        for kind in block:
            path: Optional[str]
            miss_seed = 0
            if kind in ("hit", "not_modified"):
                path = rng.choice(warm_paths)
            elif kind == "bulk":
                path = bulk_path
            else:
                miss_seed = miss_base + misses
                misses += 1
                path = f"/experiments/campaign_budget?seed={miss_seed}"
            yield Op(index, kind, miss_seed, path)
            index += 1
