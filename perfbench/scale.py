"""``scale``: one streamed population build plus a sparse estimate per op.

Each op streams a freshly seeded 10⁴-replica default ecosystem into CSR with
``sparse_ecosystem_matrix`` (p_exploit 0.45), then runs one worst-case point
(budget 1, tolerances 1/3 and 1/2, 32 trials) through
``GridCampaignEngine.from_matrix``.  ``datasets`` and ``faults.matrix`` do
nearly all of the work and the dense kernels none, so population-build
changes show here and not on ``campaign``; it is also the only workload of
the sparse kernel.

The latency metrics are the mean of their class over the run, not the
median.  On a shared 2-vCPU VM this pure-Python build takes anywhere from
130 to 260 ms per op as the load of other tenants shifts over seconds to
minutes; in sets of 30-s runs the run means spread 0–30% less than the
run medians.  The medians, with their sample counts, are in the report
line.
"""

from __future__ import annotations

from typing import Dict, List

from perfbench.harness import OpRecord, Phase, Workload, mean, summary, timed
from perfbench.plan import Op, scale_ops

REPLICAS = 10_000
EXPLOIT_PROBABILITY = 0.45
TRIALS = 32
TOLERANCES = (1.0 / 3.0, 0.5)
#: Set-up streams a small population through the same path once.
WARMUP_REPLICAS = 2_000


class ScaleWorkload(Workload):
    name = "scale"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def ops(self):
        return scale_ops(self.seed)

    def setup(self) -> None:
        from repro.datasets.software_ecosystem import default_ecosystem

        self.markets = len(default_ecosystem().markets)
        self.compute(Op(-1, "op", 0), WARMUP_REPLICAS)

    def start_phase(self) -> None:
        self.first = None

    def compute(self, op: Op, replicas: int = REPLICAS):
        from repro.faults.engine import GridCampaignEngine, GridPointRequest
        from repro.faults.scenarios import sparse_ecosystem_matrix

        (matrix, _catalog), build_ms = timed(
            lambda: sparse_ecosystem_matrix(
                ecosystem="default",
                population_size=replicas,
                seed=op.seed,
                exploit_probability=EXPLOIT_PROBABILITY,
            )
        )
        request = GridPointRequest(tolerances=TOLERANCES, worst_case=1, seed_offset=0)
        estimate, estimate_ms = timed(
            lambda: GridCampaignEngine.from_matrix(matrix).estimate_grid(
                (request,), trials=TRIALS, seed=op.seed
            )[0]
        )
        return matrix, estimate, build_ms, estimate_ms

    def run_op(self, op: Op) -> OpRecord:
        matrix, estimate, build_ms, estimate_ms = self.compute(op)
        failures: List[str] = []
        if not matrix.is_sparse:
            failures.append("the streamed build produced a dense matrix")
        if matrix.replica_count != REPLICAS:
            failures.append(f"matrix has {matrix.replica_count} rows, not {REPLICAS}")
        # Every replica runs one component of each market, and the catalog
        # has one vulnerability per component: exactly one cell per market.
        if matrix.nnz != REPLICAS * self.markets:
            failures.append(f"matrix nnz {matrix.nnz} != {REPLICAS * self.markets}")
        if estimate.trials != TRIALS:
            failures.append(f"estimate ran {estimate.trials} trials")
        for value in estimate.violation_probabilities:
            if not 0.0 <= value <= 1.0:
                failures.append(f"violation probability {value} outside [0, 1]")
        if self.first is None:
            self.first = (op, matrix.nnz, estimate)
        latencies = {"op": build_ms + estimate_ms, "build": build_ms, "estimate": estimate_ms}
        return OpRecord(op, latencies, failures)

    def final_checks(self) -> List[str]:
        op, nnz, estimate = self.first
        matrix, replayed, _, _ = self.compute(op)
        if (matrix.nnz, replayed) != (nnz, estimate):
            return [f"replaying op {op.index} changed its matrix or estimate"]
        return []

    def end_to_end(self, phase: Phase) -> Dict[str, float]:
        return {
            "op_ms": mean(phase.samples("op")),
            "light_ms": mean(phase.samples("estimate")),
            "heavy_ms": mean(phase.samples("build")),
        }

    def report(self, phase: Phase) -> Dict[str, object]:
        return {
            f"{kind}_p50_ms": summary(phase.samples(kind)) for kind in ("op", "build", "estimate")
        }
