"""``serve``: the request path of an in-process result server.

A ``ResultServer`` runs in this process with ``jobs=1``, a fresh cache
directory and the refresh loop off.  Set-up warms :data:`WARM_PATHS`.  Two
keep-alive ``BenchClient`` connections then run a closed loop, since callers
wait for replies, over the seeded request sequence of
:func:`perfbench.plan.serve_ops`: 80% hits, 10% conditional 304s, 5% NDJSON
bulk reads from the disk cache, 5% misses that build in the pool and write
the cache.  The serving process runs no kernel, so this workload isolates
``serve`` and ``experiments.orchestrator``.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import shutil
import time
import traceback
from contextlib import AsyncExitStack, nullcontext
from typing import Dict, List, Optional

from perfbench.harness import OpRecord, Phase, Workload, median, p90, summary
from perfbench.layers import OP_HEADER
from perfbench.plan import Op, serve_ops
from perfbench.spans import SpanRecorder

CONNECTIONS = 2
BUILD_WORKERS = 1
BULK_PATH = "/results?tag=campaign&format=ndjson"
#: Default-params experiments whose numpy-served bodies equal their
#: ``tests/golden`` files byte for byte, then keys with non-default params.
GOLDEN_PATHS = (
    "/experiments/example1",
    "/experiments/proposition1",
    "/experiments/proposition2",
    "/experiments/proposition3",
    "/experiments/safety_violation",
    "/experiments/two_class",
    "/experiments/diversity_ablation",
    "/experiments/campaign_budget",
    "/experiments/campaign_reliability",
    "/experiments/campaign_churn",
    "/experiments/ecosystem_scale",
)
OTHER_PATHS = (
    "/experiments/example1?max_residual_miners=10",
    "/experiments/campaign_budget?trials=200",
    "/experiments/proposition1?omega=2.0",
)
WARM_PATHS = GOLDEN_PATHS + OTHER_PATHS
#: Per-request class of each plan op kind.
REQUEST_CLASS = {"hit": "read", "not_modified": "read", "bulk": "bulk", "miss": "miss"}
CHILD_JOIN_SECONDS = 30.0


def _golden_name(path: str) -> str:
    from repro.experiments.orchestrator import registry

    spec = registry.get_spec(path.rsplit("/", 1)[1])
    if spec.backend_sensitive:
        return f"{spec.experiment_id}.numpy.json"
    return f"{spec.experiment_id}.json"


def wait_for_children() -> None:
    """Join every child process, terminating any that outlive the timeout."""
    for child in multiprocessing.active_children():
        child.join(CHILD_JOIN_SECONDS)
        if child.is_alive():
            child.terminate()
            child.join(CHILD_JOIN_SECONDS)


class ServeWorkload(Workload):
    name = "serve"

    def __init__(self, seed: int, root: str, work_dir: str) -> None:
        self.seed = seed
        self.root = root
        self.work_dir = work_dir
        self.loop = asyncio.new_event_loop()
        self.server = None
        self.clients: List = []
        self.setup_failures: List[str] = []
        self.op_spans: Dict[int, int] = {}
        self.servers_started = 0

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> None:
        self.loop.run_until_complete(self._setup())

    async def _setup(self) -> None:
        from repro.experiments.orchestrator import registry
        from repro.serve.loadgen import BenchClient
        from repro.serve.server import ResultServer

        self.bulk_count = sum(1 for spec in registry.all_specs() if "campaign" in spec.tags)
        self.servers_started += 1
        self.cache_dir = os.path.join(self.work_dir, f"cache-{self.servers_started}")
        self.server = ResultServer(
            host="127.0.0.1",
            port=0,
            jobs=BUILD_WORKERS,
            cache_dir=self.cache_dir,
            backend="numpy",
            refresh_interval=0,
        )
        await self.server.start()
        self.connections = AsyncExitStack()
        self.clients = [
            await self.connections.enter_async_context(BenchClient("127.0.0.1", self.server.port))
            for _ in range(CONNECTIONS)
        ]
        golden_dir = os.path.join(self.root, "tests", "golden")
        self.expected: Dict[str, bytes] = {}
        self.etags: Dict[str, str] = {}
        self.setup_failures = []
        for path in WARM_PATHS:
            response = await self.clients[0].get(path)
            if response.status != 200:
                self.setup_failures.append(f"warming {path} answered {response.status}")
                continue
            self.expected[path] = response.body
            self.etags[path] = response.header("etag")
            if path in GOLDEN_PATHS:
                with open(os.path.join(golden_dir, _golden_name(path)), "rb") as handle:
                    if handle.read() != response.body:
                        self.setup_failures.append(f"{path} differs from its golden file")
        bulk = await self.clients[1].get(BULK_PATH)
        self.setup_failures += self._check_bulk(bulk)
        self.setup_failures += self._check(
            Op(-1, "not_modified", 0, WARM_PATHS[0]),
            await self.clients[1].get(
                WARM_PATHS[0], {"If-None-Match": self.etags.get(WARM_PATHS[0], "")}
            ),
        )

    def teardown(self) -> None:
        if self.server is not None:
            self.loop.run_until_complete(self._teardown())
        wait_for_children()
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    async def _teardown(self) -> None:
        await self.connections.aclose()
        self.clients = []
        await self.server.stop()
        self.server = None
        # Connection handlers end once they read the clients' EOF.
        others = [task for task in asyncio.all_tasks() if task is not asyncio.current_task()]
        if others:
            await asyncio.wait(others, timeout=CHILD_JOIN_SECONDS)

    def close(self) -> None:
        self.loop.run_until_complete(self.loop.shutdown_default_executor())
        self.loop.close()

    # -- ops -------------------------------------------------------------------

    def _check_bulk(self, response) -> List[str]:
        if response.status != 200:
            return [f"bulk read answered {response.status}"]
        lines = response.body.splitlines()
        failures = []
        announced = int(response.header("x-result-count", "-1"))
        if len(lines) != announced or len(lines) != self.bulk_count:
            failures.append(
                f"{len(lines)} NDJSON lines, X-Result-Count {response.header('x-result-count')}"
            )
        if not all(line.startswith(b'{"experiment_id"') for line in lines):
            failures.append("an NDJSON line is not a result")
        return failures

    def _check(self, op: Op, response) -> List[str]:
        if op.kind == "hit":
            if response.status != 200:
                return [f"hit answered {response.status}"]
            if response.body != self.expected[op.path]:
                return [f"{op.path} body differs from its warm-up bytes"]
            return []
        if op.kind == "not_modified":
            if response.status != 304 or response.body:
                return [
                    f"conditional read answered {response.status} "
                    f"with {len(response.body)} bytes"
                ]
            return []
        if op.kind == "bulk":
            return self._check_bulk(response)
        if response.status != 200 or response.header("x-cache") != "miss":
            return [f"miss answered {response.status} X-Cache {response.header('x-cache')}"]
        if json.loads(response.body)["params"]["seed"] != op.seed:
            return ["miss result carries another seed"]
        return []

    async def _request(self, client, op: Op, recorder: Optional[SpanRecorder]) -> OpRecord:
        from repro.core.exceptions import ServeError

        headers = {OP_HEADER: str(op.index)}
        if op.kind == "not_modified":
            headers["If-None-Match"] = self.etags[op.path]
        scope = (
            recorder.span("op", parent=None, op=op.index, kind=op.kind)
            if recorder is not None
            else nullcontext()
        )
        with scope as span:
            if span is not None:
                self.op_spans[op.index] = span.span_id
            started = time.perf_counter()
            try:
                response = await client.get(op.path, headers)
            except (OSError, ServeError) as error:
                traceback.print_exc()
                return OpRecord(op, {}, [f"request raised {type(error).__name__}: {error}"], span)
            elapsed = (time.perf_counter() - started) * 1000.0
        return OpRecord(op, {REQUEST_CLASS[op.kind]: elapsed}, self._check(op, response), span)

    async def metrics(self) -> Dict:
        response = await self.clients[0].get("/metrics")
        return json.loads(response.body)

    def run_phase(
        self,
        *,
        seconds: Optional[float] = None,
        count: Optional[int] = None,
        recorder: Optional[SpanRecorder] = None,
    ) -> Phase:
        return self.loop.run_until_complete(self._phase(seconds, count, recorder))

    async def _phase(self, seconds, count, recorder) -> Phase:
        ops = serve_ops(self.seed, WARM_PATHS, BULK_PATH)
        self.metrics_before = await self.metrics()
        phase = Phase()
        issued = 0
        started = time.perf_counter()

        async def connection(client) -> None:
            nonlocal issued
            while True:
                if count is not None and issued >= count:
                    return
                if seconds is not None and time.perf_counter() - started >= seconds:
                    return
                op = next(ops)
                issued += 1
                phase.records.append(await self._request(client, op, recorder))

        await asyncio.gather(*(connection(client) for client in self.clients))
        phase.seconds = time.perf_counter() - started
        phase.records.sort(key=lambda record: record.op.index)
        self.metrics_after = await self.metrics()
        return phase

    def server_delta(self) -> Dict[str, int]:
        names = (
            "requests_total",
            "builds",
            "build_failures",
            "cache_misses",
            "memory_hits",
            "single_flight_joined",
            "not_modified",
        )
        delta = {name: self.metrics_after[name] - self.metrics_before[name] for name in names}
        delta["peak_build_rss_kb"] = self.metrics_after["peak_build_rss_kb"]
        return delta

    def final_checks(self) -> List[str]:
        failures = list(self.setup_failures)
        failed_builds = self.server_delta()["build_failures"]
        if failed_builds:
            failures.append(f"{failed_builds} builds failed")
        return failures

    # -- metrics -----------------------------------------------------------------

    def end_to_end(self, phase: Phase) -> Dict[str, float]:
        return {
            "op_ms": median(phase.samples("bulk")),
            "light_ms": median(phase.samples("read")),
            "heavy_ms": median(phase.samples("miss")),
        }

    def report(self, phase: Phase) -> Dict[str, object]:
        reads = phase.samples("read")
        return {
            "read_p50_ms": summary(reads),
            "read_p90_ms": {"value": p90(reads), "n": len(reads)},
            "bulk_p50_ms": summary(phase.samples("bulk")),
            "miss_p50_ms": summary(phase.samples("miss")),
        }
