"""What every workload shares: the op log, timed loops, statistics, trace
analysis and the environment record."""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence

from perfbench.plan import Op
from perfbench.spans import Span, SpanRecorder, self_times

#: Thread-count variables pinned to 1 before NumPy is imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class OpRecord:
    """One finished op: latencies in ms by class, and its failed checks."""

    op: Op
    latencies: Dict[str, float]
    failures: List[str]
    span: Optional[Span] = None

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class Phase:
    """The ops of one timed phase and how long it took."""

    records: List[OpRecord] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(1 for record in self.records if not record.ok)

    def ops_per_s(self) -> float:
        completed = self.attempted - self.failed
        return completed / self.seconds if self.seconds > 0 else 0.0

    def samples(self, kind: str) -> List[float]:
        """Latencies of class ``kind`` from ops whose checks all passed."""
        return [
            record.latencies[kind]
            for record in self.records
            if record.ok and kind in record.latencies
        ]

    def failures(self) -> List[str]:
        return [
            f"op {record.op.index} ({record.op.kind}): {failure}"
            for record in self.records
            for failure in record.failures
        ]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def summary(values: Sequence[float]) -> Dict[str, float]:
    """A class's median latency with its sample count."""
    return {"value": median(values), "n": len(values)}


def p90(values: Sequence[float]) -> float:
    if len(values) < 2:
        return median(values)
    return float(statistics.quantiles(values, n=10, method="inclusive")[8])


def run_ops(
    ops: Iterator[Op],
    run_op: Callable[[Op], OpRecord],
    *,
    seconds: Optional[float] = None,
    count: Optional[int] = None,
    recorder: Optional[SpanRecorder] = None,
) -> Phase:
    """Closed loop over ``ops``: until ``seconds`` pass, or ``count`` ops.

    No op starts after the deadline; the phase ends when the last one does.
    Under a recorder every op runs inside a root ``op`` span.
    """
    phase = Phase()
    started = time.perf_counter()
    for op in ops:
        if count is not None and phase.attempted >= count:
            break
        if seconds is not None and time.perf_counter() - started >= seconds:
            break
        scope = (
            recorder.span("op", parent=None, op=op.index, kind=op.kind)
            if recorder is not None
            else nullcontext()
        )
        with scope as span:
            try:
                record = run_op(op)
            except Exception as error:  # the program failed this op; keep going
                traceback.print_exc()
                record = OpRecord(op, {}, [f"raised {type(error).__name__}: {error}"])
        record.span = span
        phase.records.append(record)
    phase.seconds = time.perf_counter() - started
    return phase


class Workload:
    """A benchmark workload; subclasses generate and run ops.

    The sync default runs :meth:`run_op` over :meth:`ops` in one caller
    thread; a workload with its own event loop overrides :meth:`run_phase`.
    """

    name = ""
    #: Client op index → root span id, for ops whose spans a server records.
    op_spans: Optional[Dict[int, int]] = None

    def ops(self) -> Iterator[Op]:
        raise NotImplementedError

    def run_op(self, op: Op) -> OpRecord:
        raise NotImplementedError

    def setup(self) -> None:
        """Build inputs; a traced run sets up twice, so it must be re-runnable."""

    def start_phase(self) -> None:
        """Reset per-phase state (the ops replayed by :meth:`final_checks`)."""

    def run_phase(
        self,
        *,
        seconds: Optional[float] = None,
        count: Optional[int] = None,
        recorder: Optional[SpanRecorder] = None,
    ) -> Phase:
        return run_ops(self.ops(), self.run_op, seconds=seconds, count=count, recorder=recorder)

    def final_checks(self) -> List[str]:
        return []

    def server_delta(self) -> Optional[Dict[str, Any]]:
        """The server's ``/metrics`` counter deltas over the last phase."""
        return None

    def teardown(self) -> None:
        """Release what :meth:`setup` started."""

    def close(self) -> None:
        """Release what the workload holds for its whole life."""

    def end_to_end(self, phase: Phase) -> Dict[str, float]:
        raise NotImplementedError

    def report(self, phase: Phase) -> Dict[str, Any]:
        raise NotImplementedError


def timed(fn: Callable[[], Any]) -> tuple:
    """``(result, elapsed ms)`` of one call."""
    started = time.perf_counter()
    result = fn()
    return result, (time.perf_counter() - started) * 1000.0


# -- trace analysis -----------------------------------------------------------


def per_op_self(spans: Sequence[Span]) -> Dict[int, Dict[str, float]]:
    """Op id → span name → summed self time (ms) of that name in the op."""
    selfs = self_times(spans)
    per_op: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        if span.op is not None:
            per_op[span.op][span.name] += selfs[span.span_id] * 1000.0
    return per_op


def median_self_ms(per_op: Dict[int, Dict[str, float]], name: str, ops: Iterable[int]) -> float:
    """Median over ``ops`` that contain ``name`` of its per-op self time."""
    values = [per_op[op][name] for op in ops if name in per_op.get(op, {})]
    return median(values)


def share_pct(
    per_op: Dict[int, Dict[str, float]],
    roots: Sequence[Span],
    prefixes: Sequence[str],
) -> float:
    """Self time of spans named with ``prefixes`` as % of the roots' time."""
    total = sum(root.duration for root in roots) * 1000.0
    part = sum(
        value
        for root in roots
        for name, value in per_op.get(root.op, {}).items()
        if name.startswith(tuple(prefixes))
    )
    return 100.0 * part / total if total > 0 else 0.0


# -- environment ----------------------------------------------------------------


def git_revision(root: str) -> Optional[str]:
    """HEAD of the checkout when it is a git work tree, else ``None``."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip() or None


def environment(root: str, workload: str, seed: int, backend: str) -> Dict[str, Any]:
    import numpy

    from repro.experiments.orchestrator.cache import compute_code_fingerprint

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "backend": backend,
        "git_revision": git_revision(root),
        "source_fingerprint": compute_code_fingerprint(),
        "platform": platform.platform(),
        "argv": sys.argv[1:],
    }


def peak_rss_mb() -> float:
    from repro.backend.timing import peak_rss_kb

    return peak_rss_kb() / 1024.0
