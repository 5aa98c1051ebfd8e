"""``campaign``: Monte-Carlo estimation bound by the backend kernels.

One caller runs a closed loop over three op classes in a seeded order:

- ``trials`` — ``BatchCampaignEngine.estimate_worst_case`` on the default
  ecosystem, 150 replicas, p_exploit 0.6, budget 4, 10k trials;
- ``grid`` — ``GridCampaignEngine.estimate_grid`` over
  ``budget_grid((1, 2, 3, 4, 6, 8), families=(BFT, NAKAMOTO))`` at 2,000
  replicas and 500 trials;
- ``census`` — ``estimate_violation_probability`` on
  ``zipf_distribution(1000, 1.2)``, budget 3, p 0.25, 10k trials.

Populations and matrices are built in set-up, so op time is kernel time
plus target selection; kernel and engine changes show here and the
population build does not.
"""

from __future__ import annotations

import math
from typing import Dict, List

from perfbench.harness import OpRecord, Phase, Workload, median, summary, timed
from perfbench.plan import Op, campaign_ops, setup_seeds

TRIALS_SHAPE = dict(replicas=150, exploit_probability=0.6, budget=4, trials=10_000)
GRID_SHAPE = dict(replicas=2_000, exploit_probability=0.6, budgets=(1, 2, 3, 4, 6, 8), trials=500)
CENSUS_SHAPE = dict(configurations=1_000, exponent=1.2, budget=3, probability=0.25, trials=10_000)

#: The analytic check: at budget 1 the violation probability has a closed
#: form; 0.1 puts two Zipf configurations at or above the tolerance.
ANALYTIC_TOLERANCE = 0.1
ANALYTIC_SIGMAS = 5.0
#: ``budget_grid`` gives each budget its own seed offset, so neighbouring
#: grid points are independent estimates; a later budget may read lower by
#: sampling noise, and fails the check only beyond this many standard errors.
GRID_SIGMAS = 5.0


def _grid_slack(earlier: float, later: float) -> float:
    """Largest drop two independent grid estimates may show by chance."""
    trials = GRID_SHAPE["trials"]
    mean = (earlier + later) / 2.0
    # The floor keeps estimates near 0 or 1 from getting a zero allowance.
    variance = max(mean * (1.0 - mean), 1.0 / trials)
    return GRID_SIGMAS * math.sqrt(2.0 * variance / trials)


def _probability_failures(label: str, value: float) -> List[str]:
    return [] if 0.0 <= value <= 1.0 else [f"{label} {value} outside [0, 1]"]


class CampaignWorkload(Workload):
    name = "campaign"
    classes = ("trials", "grid", "census")

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def ops(self):
        return campaign_ops(self.seed)

    def setup(self) -> None:
        from repro.analysis import monte_carlo
        from repro.core.resilience import ProtocolFamily
        from repro.datasets.generators import zipf_distribution
        from repro.faults.engine import BatchCampaignEngine, GridCampaignEngine
        from repro.faults.scenarios import budget_grid, ecosystem_scenario

        self.monte_carlo = monte_carlo
        trials_seed, grid_seed = setup_seeds(self.name, self.seed, 2)
        trials_scenario = ecosystem_scenario(
            ecosystem="default",
            population_size=TRIALS_SHAPE["replicas"],
            seed=trials_seed,
            exploit_probability=TRIALS_SHAPE["exploit_probability"],
        )
        self.trials_engine = BatchCampaignEngine(
            trials_scenario.population, trials_scenario.catalog
        )
        grid_scenario = ecosystem_scenario(
            ecosystem="default",
            population_size=GRID_SHAPE["replicas"],
            seed=grid_seed,
            exploit_probability=GRID_SHAPE["exploit_probability"],
        )
        self.grid_engine = GridCampaignEngine(grid_scenario.population, grid_scenario.catalog)
        self.grid_requests = budget_grid(
            GRID_SHAPE["budgets"], families=(ProtocolFamily.BFT, ProtocolFamily.NAKAMOTO)
        )
        self.census = zipf_distribution(CENSUS_SHAPE["configurations"], CENSUS_SHAPE["exponent"])
        # One small call per class fills the per-backend array caches.
        self.trials_engine.estimate_worst_case(
            max_vulnerabilities=TRIALS_SHAPE["budget"], trials=100, seed=0
        )
        self.grid_engine.estimate_grid(self.grid_requests, trials=10, seed=0)
        self._census_estimate(trials=100, seed=0)

    def _census_estimate(
        self, *, trials: int, seed: int, budget: int = CENSUS_SHAPE["budget"], **extra
    ):
        # Looked up on the module at call time, where the trace wrapper sits.
        return self.monte_carlo.estimate_violation_probability(
            self.census,
            vulnerability_probability=CENSUS_SHAPE["probability"],
            exploit_budget=budget,
            trials=trials,
            seed=seed,
            **extra,
        )

    def compute(self, op: Op):
        if op.kind == "trials":
            return self.trials_engine.estimate_worst_case(
                max_vulnerabilities=TRIALS_SHAPE["budget"],
                trials=TRIALS_SHAPE["trials"],
                seed=op.seed,
            )
        if op.kind == "grid":
            return self.grid_engine.estimate_grid(
                self.grid_requests, trials=GRID_SHAPE["trials"], seed=op.seed
            )
        return self._census_estimate(trials=CENSUS_SHAPE["trials"], seed=op.seed)

    def check(self, op: Op, result) -> List[str]:
        if op.kind == "grid":
            failures: List[str] = []
            for point in result:
                if point.trials != GRID_SHAPE["trials"]:
                    failures.append(f"grid point ran {point.trials} trials")
                for value in point.violation_probabilities:
                    failures += _probability_failures("grid probability", value)
            # Each extra exploit can only add compromised power, so the true
            # probabilities never fall as the budget grows.
            for column in range(len(result[0].violation_probabilities)):
                series = [point.violation_probabilities[column] for point in result]
                if any(
                    earlier - later > _grid_slack(earlier, later)
                    for earlier, later in zip(series, series[1:])
                ):
                    failures.append(f"grid tolerance #{column} not monotone in budget: {series}")
            return failures
        expected = TRIALS_SHAPE["trials"] if op.kind == "trials" else CENSUS_SHAPE["trials"]
        failures = [] if result.trials == expected else [f"ran {result.trials} trials"]
        failures += _probability_failures("violation probability", result.violation_probability)
        failures += _probability_failures("compromised fraction", result.mean_compromised_fraction)
        return failures

    def run_op(self, op: Op) -> OpRecord:
        result, elapsed = timed(lambda: self.compute(op))
        self.results.setdefault(op.kind, (op, result))
        return OpRecord(op, {op.kind: elapsed}, self.check(op, result))

    def start_phase(self) -> None:
        #: First op of each class and its result, replayed after the phase.
        self.results: Dict[str, tuple] = {}

    def final_checks(self) -> List[str]:
        from repro.analysis.monte_carlo import analytic_single_vulnerability_violation

        failures = []
        for kind, (op, result) in sorted(self.results.items()):
            if self.compute(op) != result:
                failures.append(f"replaying op {op.index} ({kind}) changed its estimate")
        trials = CENSUS_SHAPE["trials"]
        estimate = self._census_estimate(
            trials=trials,
            seed=setup_seeds(self.name, self.seed, 3)[2],
            budget=1,
            tolerated_fraction=ANALYTIC_TOLERANCE,
        )
        exact = analytic_single_vulnerability_violation(
            self.census,
            vulnerability_probability=CENSUS_SHAPE["probability"],
            tolerated_fraction=ANALYTIC_TOLERANCE,
        )
        bound = ANALYTIC_SIGMAS * math.sqrt(exact * (1.0 - exact) / trials) + 1.0 / trials
        if abs(estimate.violation_probability - exact) > bound:
            failures.append(
                f"budget-1 census estimate {estimate.violation_probability} is more than "
                f"{bound:.4f} from the closed form {exact}"
            )
        return failures

    def end_to_end(self, phase: Phase) -> Dict[str, float]:
        """Each class's median on one of the shared latency metrics."""
        return {
            "op_ms": median(phase.samples("trials")),
            "light_ms": median(phase.samples("census")),
            "heavy_ms": median(phase.samples("grid")),
        }

    def report(self, phase: Phase) -> Dict[str, object]:
        return {f"{kind}_p50_ms": summary(phase.samples(kind)) for kind in self.classes}
