"""The repository benchmark: ``campaign``, ``scale`` and ``serve`` workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

Each invocation is one fresh process with the compute backend pinned to
``numpy`` (whatever ``REPRO_BACKEND`` says) and BLAS threads pinned to 1.
The workload seed generates every input (``perfbench/plan.py``); the
program receives only those inputs.

``--trace 0`` sets up, runs a closed loop for ``--seconds`` and reports the
end-to-end metrics.  ``setup_s`` is the time from process start to the
first timed op; the run also times the same path in :data:`SETUP_PROBES`
fresh processes (``--setup-only``) and reports the median of all of them.
``--trace 1`` runs one fixed-length op sequence untraced, then the same
sequence again with span wrappers installed on the program's public
callables (``perfbench/layers.py``), reports the per-layer metrics
(``perfbench/breakdown.py``) with the tracing overhead, and writes the spans
to ``.perfbench-traces/<workload>-seed<seed>.jsonl``.

Every op's output is checked; a failed check makes the op failed, and a
failed op counts as missing every latency figure.  The last stdout line is
the result object; the line before it is a report with the environment,
per-class latencies with their sample counts, and every failure.

End-to-end metrics, the same names on every workload.  A latency is the
median of its class on ``campaign`` and ``serve``, and its mean on ``scale``
(why: ``perfbench/scale.py``):

=============== =========== ========================= =====================
metric           campaign    scale                     serve
=============== =========== ========================= =====================
``setup_s``      process start to first timed op (median over processes)
``peak_rss_mb``  peak RSS of this process (the serving process for serve)
``ops_per_s``    ops completed per second of the timed phase (serve: requests)
``op_ms``        trials op   streamed build + estimate NDJSON bulk reads
``light_ms``     census op   sparse-estimate step      reads (hits and 304s)
``heavy_ms``     grid op     streamed-build step       misses (build + store)
=============== =========== ========================= =====================
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402 - the clock above starts before any import
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("campaign", "scale", "serve")
#: Extra fresh processes that time their set-up for ``setup_s``.
SETUP_PROBES = 4
PROBE_TIMEOUT_SECONDS = 60
#: Where a traced run writes its spans, one JSON object per line.
TRACE_DIR = os.path.join(ROOT, ".perfbench-traces")

#: End-to-end metric → unit.  ``BENCHMARK.json`` lists the same.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ops_per_s": "1/s",
    "op_ms": "ms",
    "light_ms": "ms",
    "heavy_ms": "ms",
}

#: Program modules imported before the workload is made.
PROGRAM_MODULES = (
    "numpy",
    "repro.analysis.monte_carlo",
    "repro.faults.engine",
    "repro.faults.scenarios",
    "repro.serve.server",
    "repro.serve.loadgen",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="set up, print the seconds since process start as JSON and exit",
    )
    return parser.parse_args(argv)


def trace_op_count(workload: str, seconds: float) -> int:
    """Fixed op count of each traced-run phase: whole blocks, set by
    ``--seconds`` alone so the same arguments give the same sequence."""
    budget = max(1, int(seconds))
    if workload == "campaign":
        return 3 * max(1, budget // 2)
    if workload == "scale":
        return 2 * budget
    return 20 * 5 * budget


def make_workload(name: str, seed: int, work_dir: str):
    if name == "campaign":
        from perfbench.campaign import CampaignWorkload

        return CampaignWorkload(seed)
    if name == "scale":
        from perfbench.scale import ScaleWorkload

        return ScaleWorkload(seed)
    from perfbench.serve import ServeWorkload

    return ServeWorkload(seed, ROOT, work_dir)


def probe_setups(args) -> list:
    """Process start → end of set-up, in :data:`SETUP_PROBES` fresh processes
    run one after another."""
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--setup-only",
    ]
    values = []
    for _ in range(SETUP_PROBES):
        completed = subprocess.run(
            command,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=PROBE_TIMEOUT_SECONDS,
            check=True,
        )
        values.append(json.loads(completed.stdout.splitlines()[-1])["setup_s"])
    return values


def measure(args, workload):
    """The untraced run: end-to-end metrics."""
    from perfbench.harness import peak_rss_mb

    workload.setup()
    setups = [time.perf_counter() - PROCESS_START] + probe_setups(args)
    workload.start_phase()
    phase = workload.run_phase(seconds=args.seconds)
    failures = phase.failures() + workload.final_checks()
    workload.teardown()
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "ops_per_s": phase.ops_per_s(),
        **workload.end_to_end(phase),
    }
    report = {
        "setups_s": setups,
        "classes": workload.report(phase),
        "phase_seconds": phase.seconds,
    }
    return phase, metrics, failures, report


def measure_traced(args, workload, backend):
    """The traced run: the same op sequence untraced, then traced."""
    from repro.backend.timing import KERNEL_TIMINGS

    from perfbench import breakdown, layers
    from perfbench.spans import SpanRecorder

    count = trace_op_count(args.workload, args.seconds)
    workload.setup()
    workload.start_phase()
    untraced = workload.run_phase(count=count)
    failures = untraced.failures() + workload.final_checks()
    workload.teardown()

    recorder = SpanRecorder()
    patcher = layers.install(recorder, backend, workload.op_spans)
    try:
        before = KERNEL_TIMINGS.snapshot()
        with recorder.span("op", parent=None, op=breakdown.SETUP_OP, kind="setup"):
            workload.setup()
        workload.start_phase()
        phase = workload.run_phase(count=count, recorder=recorder)
        kernel_delta = KERNEL_TIMINGS.delta_since(before)
    finally:
        patcher.restore()
    delta = workload.server_delta()
    failures += phase.failures() + workload.final_checks()
    failures += breakdown.counter_mismatches(recorder.spans, kernel_delta, phase, delta)
    workload.teardown()
    metrics = breakdown.layer_metrics(
        recorder.spans, phase, untraced_ops_per_s=untraced.ops_per_s(), serve_delta=delta
    )
    os.makedirs(TRACE_DIR, exist_ok=True)
    spans_path = os.path.join(TRACE_DIR, f"{args.workload}-seed{args.seed}.jsonl")
    recorder.write_jsonl(spans_path)
    report = {
        "spans_file": os.path.relpath(spans_path, ROOT),
        "ops_per_s": {"untraced": untraced.ops_per_s(), "traced": phase.ops_per_s()},
        "class_shares": breakdown.class_shares(recorder.spans, phase),
        "classes": workload.report(phase),
        "spans": len(recorder.spans),
    }
    return phase, metrics, failures, report


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")) or not os.path.isdir(
        os.path.join(ROOT, "tests", "golden")
    ):
        print("perfbench: src/repro and tests/golden are missing; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    work_dir = os.path.join(ROOT, ".perfbench-work", f"run-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        return run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def run(args, work_dir: str) -> int:
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench.harness import BLAS_THREAD_VARS

    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"
    os.environ["TMPDIR"] = work_dir
    # The benchmark measures the program as shipped, without injected faults.
    for name in ("REPRO_CHAOS", "REPRO_CHAOS_ONCE"):
        os.environ.pop(name, None)
    import importlib

    for module in PROGRAM_MODULES:
        importlib.import_module(module)
    from repro.backend import get_backend, set_default_backend

    from perfbench.harness import environment

    set_default_backend("numpy")
    backend = get_backend()

    workload = make_workload(args.workload, args.seed, work_dir)
    try:
        if args.setup_only:
            workload.setup()
            print(json.dumps({"setup_s": time.perf_counter() - PROCESS_START}))
            workload.teardown()
            return 0
        if args.trace:
            phase, metrics, failures, report = measure_traced(args, workload, backend)
            from perfbench.breakdown import PER_LAYER as units
        else:
            phase, metrics, failures, report = measure(args, workload)
            units = END_TO_END
    finally:
        workload.close()

    report["environment"] = environment(ROOT, args.workload, args.seed, backend.name)
    report["failures"] = failures
    print("perfbench report " + json.dumps(report, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
