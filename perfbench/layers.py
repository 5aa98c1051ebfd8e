"""Wrappers on the program's public callables, one span name per boundary.

:func:`install` patches each callable where its caller looks it up and
returns the :class:`~perfbench.spans.Patcher` that puts everything back:

- ``backend.*`` — the kernels, as methods of the pinned ``NumpyBackend``;
- ``faults.engine.*`` — the campaign engines, and ``run_census_trials`` as
  bound inside ``repro.analysis.monte_carlo``;
- ``faults.matrix.*`` — ``PopulationMatrix`` builds and target selection;
- ``datasets.stream_replica_chunks`` — as bound inside
  ``repro.faults.scenarios``, one span per yielded chunk;
- ``analysis.monte_carlo.estimate_violation_probability``;
- ``orchestrator.cache.{load,store}`` — ``ResultCache`` methods;
- ``serve.handle`` / ``serve.fetch`` — the app's request handler and the
  service's single-flight fetch.

Kernel spans carry ``trials`` with the same meaning as the program's own
``KERNEL_TIMINGS`` (point-trials for grid kernels) and ``cells`` = trials ×
exposed cells the kernel reads, an operation count.
"""

from __future__ import annotations

import functools
import os
from typing import Any, Dict, Optional

from perfbench.spans import (
    Patcher,
    SpanRecorder,
    traced,
    traced_async,
    traced_async_iterator,
    traced_generator,
)

#: Span name of each kernel → its ``KERNEL_TIMINGS`` name.
KERNELS = {
    "campaign_trials": "campaign_trials",
    "campaign_grid": "campaign_grid",
    "violation_trials": "violation_trials",
    "sparse_grid_partials": "sparse_campaign_partials",
}

#: Header carrying the client op index, so a server-side span can join the
#: client request span that caused it.
OP_HEADER = "x-bench-op"


def _shape_cells(array: Any) -> int:
    rows, columns = array.shape
    return int(rows) * int(columns)


def _campaign_trials_attrs(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    trials = kwargs["trials"]
    return {"trials": trials, "cells": trials * _shape_cells(args[1])}


def _campaign_grid_attrs(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    trials = kwargs["trials"]
    points = args[4]
    rows = args[1].shape[0]
    columns = sum(len(point.columns) for point in points)
    return {"trials": trials * len(points), "cells": trials * rows * columns}


def _violation_trials_attrs(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    trials = kwargs["trials"]
    return {"trials": trials, "cells": trials * len(args[1])}


def _sparse_partials_attrs(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    import numpy

    trials = kwargs["trials"]
    sparse, points = args[1], args[2]
    indices = numpy.asarray(sparse.indices, dtype=numpy.int64)
    exposed = sum(
        int(numpy.isin(indices, numpy.asarray(point.columns, dtype=numpy.int64)).sum())
        for point in points
    )
    return {"trials": trials * len(points), "cells": trials * exposed}


_KERNEL_ATTRS = {
    "campaign_trials": _campaign_trials_attrs,
    "campaign_grid": _campaign_grid_attrs,
    "violation_trials": _violation_trials_attrs,
    "sparse_grid_partials": _sparse_partials_attrs,
}


def _grid_attrs(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {"chunks": args[0].last_chunk_count}


def _nnz_attrs(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {"nnz": result.nnz}


def _store_attrs(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {"bytes": os.path.getsize(result)}


def _fetch_attrs(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    experiment, state = result
    attrs: Dict[str, Any] = {"state": state}
    if state == "miss":
        attrs["build_ms"] = experiment.wall_time_seconds * 1000.0
    return attrs


def install(
    recorder: SpanRecorder,
    backend: Any,
    op_spans: Optional[Dict[int, int]] = None,
) -> Patcher:
    """Wrap every layer boundary; ``backend`` is the pinned backend instance.

    ``op_spans`` maps a client op index to its root span id, for linking
    ``serve.handle`` spans to the request that caused them.
    """
    patcher = Patcher()
    try:
        _wrap_all(patcher, recorder, backend, op_spans)
    except BaseException:
        # A callable that moved or was renamed: leave nothing half-installed.
        patcher.restore()
        raise
    return patcher


def _wrap_all(
    patcher: Patcher,
    recorder: SpanRecorder,
    backend: Any,
    op_spans: Optional[Dict[int, int]],
) -> None:
    from repro.analysis import monte_carlo
    from repro.experiments.orchestrator.cache import ResultCache
    from repro.faults import scenarios
    from repro.faults.engine import BatchCampaignEngine, GridCampaignEngine
    from repro.faults.matrix import PopulationMatrix
    from repro.serve.app import ResultApp
    from repro.serve.service import ResultService

    def wrap(owner: object, attribute: str, name: str, attrs: Any = None) -> None:
        patcher.replace(owner, attribute, lambda fn: traced(recorder, name, fn, attrs))

    for kernel, attrs in _KERNEL_ATTRS.items():
        wrap(type(backend), kernel, f"backend.{kernel}", attrs)
    wrap(BatchCampaignEngine, "estimate_worst_case", "faults.engine.estimate_worst_case")
    wrap(BatchCampaignEngine, "estimate", "faults.engine.estimate")
    wrap(GridCampaignEngine, "estimate_grid", "faults.engine.estimate_grid", _grid_attrs)
    wrap(monte_carlo, "run_census_trials", "faults.engine.run_census_trials")
    wrap(PopulationMatrix, "build", "faults.matrix.build", _nnz_attrs)
    wrap(
        PopulationMatrix,
        "from_replica_chunks",
        "faults.matrix.from_replica_chunks",
        _nnz_attrs,
    )
    wrap(PopulationMatrix, "most_damaging", "faults.matrix.most_damaging")
    patcher.replace(
        scenarios,
        "stream_replica_chunks",
        lambda fn: traced_generator(
            recorder,
            "datasets.stream_replica_chunks",
            fn,
            lambda chunk: {"replicas": len(chunk)},
        ),
    )
    wrap(
        monte_carlo,
        "estimate_violation_probability",
        "analysis.monte_carlo.estimate_violation_probability",
    )
    wrap(ResultCache, "load", "orchestrator.cache.load")
    wrap(ResultCache, "store", "orchestrator.cache.store", _store_attrs)

    def traced_handle(fn):
        # A request carrying the op header joins the client span that sent
        # it.  A streamed body is produced after handle() returns, so its
        # chunks get spans of their own under the same client span.
        @functools.wraps(fn)
        async def wrapper(app, request):
            header = request.header(OP_HEADER)
            link = {}
            if header is not None and op_spans is not None:
                link = {"parent": op_spans.get(int(header)), "op": int(header)}
            with recorder.span("serve.handle", **link) as span:
                response = await fn(app, request)
            chunks = getattr(response, "chunks", None)
            if chunks is not None:
                response.chunks = traced_async_iterator(
                    recorder, "serve.handle.stream", chunks, parent=span.parent, op=span.op
                )
            return response

        return wrapper

    patcher.replace(ResultApp, "handle", traced_handle)
    patcher.replace(
        ResultService,
        "fetch",
        lambda fn: traced_async(recorder, "serve.fetch", fn, _fetch_attrs),
    )
