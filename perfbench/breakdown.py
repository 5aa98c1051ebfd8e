"""Per-layer metrics of a traced phase, and the checks that the spans agree
with the program's own counters.

Conventions: ``*.calls``, ``*.trials``, ``*.cells`` and the ``serve.*``
counter deltas are totals over the traced phase (set-up included for the
kernels, since ``KERNEL_TIMINGS`` sees it too); every ``*.self_ms`` is the
median, over the ops that contain such a span, of that span name's summed
self time in the op, with set-up standing in as the one op for a span no
phase op contains (the campaign matrix builds); ``*.nnz``, ``*.replicas``
and ``*.chunks`` are medians per op of the phase.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from perfbench.harness import Phase, median, median_self_ms, per_op_self, share_pct
from perfbench.layers import KERNELS
from perfbench.spans import Span, self_times

#: Op id of the traced set-up.
SETUP_OP = -1

_KERNEL_METRICS = [
    (f"backend.{kernel}.{field}", unit)
    for kernel in KERNELS
    for field, unit in (
        ("calls", "count"),
        ("trials", "count"),
        ("cells", "count"),
        ("self_ms", "ms"),
    )
]

#: Every per-layer metric: name → unit.  ``BENCHMARK.json`` lists the same.
PER_LAYER: Dict[str, str] = dict(
    _KERNEL_METRICS
    + [
        ("faults.engine.estimate_worst_case.self_ms", "ms"),
        ("faults.engine.estimate.self_ms", "ms"),
        ("faults.engine.estimate_grid.self_ms", "ms"),
        ("faults.engine.run_census_trials.self_ms", "ms"),
        ("faults.engine.estimate_grid.chunks", "count"),
        ("faults.matrix.from_replica_chunks.self_ms", "ms"),
        ("faults.matrix.most_damaging.self_ms", "ms"),
        ("faults.matrix.build.self_ms", "ms"),
        ("faults.matrix.nnz", "count"),
        ("datasets.stream_replica_chunks.self_ms", "ms"),
        ("datasets.stream_replica_chunks.replicas", "count"),
        ("analysis.monte_carlo.estimate_violation_probability.self_ms", "ms"),
        ("orchestrator.cache.load.calls", "count"),
        ("orchestrator.cache.load.self_ms", "ms"),
        ("orchestrator.cache.store.calls", "count"),
        ("orchestrator.cache.store.self_ms", "ms"),
        ("orchestrator.cache.store.bytes", "B"),
        ("orchestrator.build.ms", "ms"),
        ("orchestrator.build.wait_ms", "ms"),
        ("serve.handle.read.self_ms", "ms"),
        ("serve.handle.bulk.self_ms", "ms"),
        ("serve.handle.miss.self_ms", "ms"),
        ("serve.fetch.self_ms", "ms"),
        ("serve.transport_ms", "ms"),
        ("serve.memory_hit_ratio", "ratio"),
        ("serve.builds", "count"),
        ("serve.build_failures", "count"),
        ("serve.single_flight_joined", "count"),
        ("serve.not_modified", "count"),
        ("serve.peak_build_rss_mb", "MiB"),
        ("trace.ops", "count"),
        ("trace.overhead_pct", "%"),
        ("trace.unattributed_ms", "ms"),
        ("trace.unattributed_pct", "%"),
        ("trace.backend_share_pct", "%"),
        ("trace.build_share_pct", "%"),
    ]
)

_SELF_MS = [name[: -len(".self_ms")] for name in PER_LAYER if name.endswith(".self_ms")]
_READ_KINDS = ("hit", "not_modified")
_CACHE_SPANS = ("orchestrator.cache.load", "orchestrator.cache.store")
#: Measured on bulk reads only: on a miss, fetch waits for the pool build
#: (``orchestrator.build.*``) and its one cache load finds nothing.
_BULK_ONLY = ("serve.fetch", "orchestrator.cache.load")


def _attr_median(spans: Sequence[Span], name: str, attr: str, ops: Iterable[int]) -> float:
    """Median over ``ops`` of the per-op sum of ``attr`` on spans ``name``."""
    ops = set(ops)
    per_op: Dict[int, float] = {}
    for span in spans:
        if span.name == name and span.op in ops and attr in span.attrs:
            per_op[span.op] = per_op.get(span.op, 0.0) + span.attrs[attr]
    return median(list(per_op.values()))


def _ops_by_kind(phase: Phase) -> Dict[str, List[int]]:
    by_kind: Dict[str, List[int]] = {}
    for record in phase.records:
        by_kind.setdefault(record.op.kind, []).append(record.op.index)
    return by_kind


def layer_metrics(
    spans: Sequence[Span],
    phase: Phase,
    *,
    untraced_ops_per_s: float,
    serve_delta: Optional[Dict[str, Any]] = None,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric; layers a workload does not reach read 0."""
    per_op = per_op_self(spans)
    selfs = self_times(spans)
    phase_ops = {record.op.index for record in phase.records}
    by_kind = _ops_by_kind(phase)
    values: Dict[str, float] = {name: 0.0 for name in PER_LAYER}

    for name in _SELF_MS:
        if name.startswith("serve.handle."):
            continue
        if name in _BULK_ONLY:
            values[f"{name}.self_ms"] = median_self_ms(per_op, name, by_kind.get("bulk", ()))
        else:
            values[f"{name}.self_ms"] = median_self_ms(per_op, name, phase_ops) or median_self_ms(
                per_op, name, (SETUP_OP,)
            )
    for span in spans:
        if span.name.startswith("backend."):
            values[f"{span.name}.calls"] += 1
            values[f"{span.name}.trials"] += span.attrs.get("trials", 0)
            values[f"{span.name}.cells"] += span.attrs.get("cells", 0)
        elif span.name in _CACHE_SPANS and span.op in phase_ops:
            values[f"{span.name}.calls"] += 1
    values["faults.engine.estimate_grid.chunks"] = _attr_median(
        spans, "faults.engine.estimate_grid", "chunks", phase_ops
    )
    values["faults.matrix.nnz"] = median(
        [
            span.attrs["nnz"]
            for span in spans
            if span.name.startswith("faults.matrix.")
            and span.op in phase_ops
            and "nnz" in span.attrs
        ]
    )
    values["datasets.stream_replica_chunks.replicas"] = _attr_median(
        spans, "datasets.stream_replica_chunks", "replicas", phase_ops
    )
    values.update(_serve_metrics(spans, phase, per_op, selfs, by_kind, serve_delta))

    roots = [record.span for record in phase.records]
    values["trace.ops"] = len(phase.records)
    if untraced_ops_per_s > 0:
        values["trace.overhead_pct"] = (
            100.0 * (untraced_ops_per_s - phase.ops_per_s()) / untraced_ops_per_s
        )
    values["trace.unattributed_ms"] = median([selfs[root.span_id] * 1000.0 for root in roots])
    total = sum(root.duration for root in roots)
    if total > 0:
        unattributed = sum(selfs[root.span_id] for root in roots)
        values["trace.unattributed_pct"] = 100.0 * unattributed / total
    values["trace.backend_share_pct"] = share_pct(per_op, roots, ("backend.",))
    values["trace.build_share_pct"] = share_pct(per_op, roots, ("datasets.", "faults.matrix."))
    return values


def _serve_metrics(spans, phase, per_op, selfs, by_kind, serve_delta) -> Dict[str, float]:
    """Request classes, cache writes, pool builds and the ``/metrics`` deltas."""
    values: Dict[str, float] = {}
    phase_ops = {record.op.index for record in phase.records}
    for request_class, kinds in (("read", _READ_KINDS), ("bulk", ("bulk",)), ("miss", ("miss",))):
        # A streamed body's chunk spans are part of its request's handling.
        values[f"serve.handle.{request_class}.self_ms"] = median(
            [
                per_op[op]["serve.handle"] + per_op[op].get("serve.handle.stream", 0.0)
                for kind in kinds
                for op in by_kind.get(kind, [])
                if "serve.handle" in per_op.get(op, {})
            ]
        )
    stores = [s for s in spans if s.name == "orchestrator.cache.store" and s.op in phase_ops]
    values["orchestrator.cache.store.bytes"] = median([s.attrs["bytes"] for s in stores])
    store_ms = {s.op: s.duration * 1000.0 for s in stores}
    misses = {
        s.op: s.attrs["build_ms"]
        for s in spans
        if s.name == "serve.fetch" and s.op in phase_ops and s.attrs.get("state") == "miss"
    }
    values["orchestrator.build.ms"] = median(list(misses.values()))
    values["orchestrator.build.wait_ms"] = median(
        [
            record.span.duration * 1000.0
            - misses[record.op.index]
            - store_ms.get(record.op.index, 0.0)
            for record in phase.records
            if record.op.index in misses
        ]
    )
    # A read's client span has one child, the server's handle span.
    values["serve.transport_ms"] = median(
        [
            selfs[record.span.span_id] * 1000.0
            for record in phase.records
            if record.op.kind in _READ_KINDS and "serve.handle" in per_op.get(record.op.index, {})
        ]
    )
    if serve_delta is not None:
        hits = len(by_kind.get("hit", []))
        values["serve.memory_hit_ratio"] = serve_delta["memory_hits"] / hits if hits else 0.0
        for name in ("builds", "build_failures", "single_flight_joined", "not_modified"):
            values[f"serve.{name}"] = serve_delta[name]
        values["serve.peak_build_rss_mb"] = serve_delta["peak_build_rss_kb"] / 1024.0
    return values


def class_shares(spans: Sequence[Span], phase: Phase) -> Dict[str, Dict[str, float]]:
    """Per op class: backend and build (datasets + faults.matrix) % of op time."""
    per_op = per_op_self(spans)
    by_kind: Dict[str, List[Span]] = {}
    for record in phase.records:
        by_kind.setdefault(record.op.kind, []).append(record.span)
    return {
        kind: {
            "backend_pct": share_pct(per_op, roots, ("backend.",)),
            "build_pct": share_pct(per_op, roots, ("datasets.", "faults.matrix.")),
        }
        for kind, roots in sorted(by_kind.items())
    }


def kernel_span_totals(spans: Any) -> Dict[str, Dict[str, int]]:
    """Per ``KERNEL_TIMINGS`` name: span calls and trials."""
    totals: Dict[str, Dict[str, int]] = {}
    for span in spans:
        if span.name.startswith("backend."):
            counter = totals.setdefault(
                KERNELS[span.name[len("backend."):]], {"calls": 0, "trials": 0}
            )
            counter["calls"] += 1
            counter["trials"] += int(span.attrs.get("trials", 0))
    return totals



def counter_mismatches(
    spans: Sequence[Span],
    kernel_delta: Dict[str, Dict[str, float]],
    phase: Phase,
    serve_delta: Optional[Dict[str, Any]] = None,
) -> List[str]:
    """Where span counts disagree with the program's counters.

    Kernel calls and trials must equal the ``KERNEL_TIMINGS`` delta over the
    traced phase.  For ``serve``, linked request spans, misses and 304s must
    equal the ``/metrics`` deltas; the phase's closing ``/metrics`` read is
    the one request the server counted that the plan did not issue.
    """
    mismatches = []
    spanned = kernel_span_totals(spans)
    for kernel in sorted(set(spanned) | set(kernel_delta)):
        seen = spanned.get(kernel, {"calls": 0, "trials": 0})
        counted = kernel_delta.get(kernel, {})
        for field in ("calls", "trials"):
            expected = int(counted.get(field, 0))
            if seen[field] != expected:
                mismatches.append(
                    f"{kernel}.{field}: spans {seen[field]} != KERNEL_TIMINGS {expected}"
                )
    if serve_delta is None:
        return mismatches
    phase_ops = {record.op.index for record in phase.records}
    handled = sum(1 for s in spans if s.name == "serve.handle" and s.op in phase_ops)
    missed = sum(
        1
        for s in spans
        if s.name == "serve.fetch" and s.op in phase_ops and s.attrs.get("state") == "miss"
    )
    not_modified = sum(1 for record in phase.records if record.op.kind == "not_modified")
    expected: List[Tuple[str, int, int]] = [
        ("requests_total", handled, serve_delta["requests_total"] - 1),
        ("builds", missed, serve_delta["builds"]),
        ("cache_misses", missed, serve_delta["cache_misses"]),
        ("not_modified", not_modified, serve_delta["not_modified"]),
    ]
    for name, seen, counted in expected:
        if seen != counted:
            mismatches.append(f"serve {name}: spans {seen} != /metrics {counted}")
    return mismatches
