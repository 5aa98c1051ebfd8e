"""Span recorder, self-time arithmetic and wrapper tests."""

from __future__ import annotations

import asyncio
import json

import pytest

from perfbench.breakdown import counter_mismatches
from perfbench.harness import Phase
from perfbench.spans import (
    Patcher,
    SpanRecorder,
    covered_length,
    self_times,
    traced,
    traced_async,
    traced_async_iterator,
    traced_generator,
)


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def recorder(clock):
    return SpanRecorder(clock=clock)


def by_name(recorder):
    selfs = self_times(recorder.spans)
    return {span.name: (span, selfs[span.span_id]) for span in recorder.spans}


class TestCoveredLength:
    def test_disjoint_intervals_add(self):
        assert covered_length([(1, 2), (4, 6)], 0, 10) == 3

    def test_overlapping_intervals_count_once(self):
        assert covered_length([(1, 5), (3, 8), (4, 6)], 0, 10) == 7

    def test_intervals_are_clipped_to_the_parent(self):
        assert covered_length([(-5, 2), (9, 20), (30, 40)], 0, 10) == 3

    def test_no_intervals(self):
        assert covered_length([], 0, 10) == 0


class TestSelfTime:
    def test_nested_spans_subtract_only_their_direct_children(self, recorder, clock):
        with recorder.span("root"):
            clock.advance(2)
            with recorder.span("child"):
                clock.advance(1)
                with recorder.span("grandchild"):
                    clock.advance(1)
                clock.advance(2)
            clock.advance(4)
        spans = by_name(recorder)
        assert spans["root"][1] == 6
        assert spans["child"][1] == 3
        assert spans["grandchild"][1] == 1
        assert sum(value for _, value in spans.values()) == spans["root"][0].duration

    def test_sequential_siblings(self, recorder, clock):
        with recorder.span("root"):
            for name in ("a", "b"):
                with recorder.span(name):
                    clock.advance(2)
                clock.advance(1)
        spans = by_name(recorder)
        assert spans["root"][1] == 2
        assert spans["a"][0].parent == spans["root"][0].span_id
        assert spans["b"][0].parent == spans["root"][0].span_id

    def test_overlapping_siblings_are_counted_once(self, recorder, clock):
        with recorder.span("root") as root:
            pass
        root.end = 10.0
        with recorder.span("x", parent=root.span_id, op=None) as first:
            pass
        with recorder.span("y", parent=root.span_id, op=None) as second:
            pass
        first.start, first.end = 1.0, 5.0
        second.start, second.end = 3.0, 8.0
        assert self_times(recorder.spans)[root.span_id] == 3.0

    def test_spans_are_written_out_one_per_line(self, recorder, clock, tmp_path):
        with recorder.span("op", parent=None, op=2, kind="grid"):
            clock.advance(1)
            with recorder.span("inner", trials=4):
                clock.advance(1)
        path = tmp_path / "spans.jsonl"
        recorder.write_jsonl(str(path))
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [row["name"] for row in rows] == ["inner", "op"]
        assert rows[0] == {
            "span_id": 2,
            "name": "inner",
            "start": 1.0,
            "end": 2.0,
            "parent": 1,
            "op": 2,
            "attrs": {"trials": 4},
        }

    def test_op_id_is_inherited_and_explicit_parent_overrides(self, recorder):
        with recorder.span("op", parent=None, op=7) as root:
            with recorder.span("inner") as inner:
                pass
        with recorder.span("joined", parent=root.span_id, op=7) as joined:
            pass
        assert inner.op == 7 and inner.parent == root.span_id
        assert joined.parent == root.span_id and joined.op == 7
        assert recorder.current() is None


class Engine:
    """Toy layers: an outer method calling an inner one, plus a classmethod."""

    def __init__(self, clock):
        self.clock = clock

    def outer(self):
        self.clock.advance(1)
        value = self.inner()
        self.clock.advance(1)
        return value

    def inner(self):
        self.clock.advance(3)
        return 42

    @classmethod
    def build(cls, clock):
        clock.advance(2)
        return cls(clock)


class TestWrappers:
    def test_nested_wrappers_never_double_count(self, recorder, clock):
        patcher = Patcher()
        for attribute in ("outer", "inner", "build"):
            patcher.replace(
                Engine, attribute, lambda fn, name=attribute: traced(recorder, name, fn)
            )
        try:
            with recorder.span("op", parent=None, op=1):
                engine = Engine.build(clock)
                assert engine.outer() == 42
        finally:
            patcher.restore()
        spans = by_name(recorder)
        assert spans["outer"][1] == 2
        assert spans["inner"][1] == 3
        assert spans["build"][1] == 2
        assert spans["op"][1] == 0
        total = sum(value for _, value in spans.values())
        assert total == spans["op"][0].duration == 7

    def test_restore_puts_the_originals_back(self, recorder):
        originals = {name: vars(Engine)[name] for name in ("outer", "build")}
        patcher = Patcher()
        patcher.replace(Engine, "outer", lambda fn: traced(recorder, "outer", fn))
        patcher.replace(Engine, "build", lambda fn: traced(recorder, "build", fn))
        assert vars(Engine)["outer"] is not originals["outer"]
        assert isinstance(vars(Engine)["build"], classmethod)
        patcher.restore()
        assert {name: vars(Engine)[name] for name in originals} == originals

    def test_attributes_come_from_the_result(self, recorder):
        wrapped = traced(
            recorder, "f", lambda x: x * 2, lambda args, kwargs, result: {"out": result}
        )
        assert wrapped(4) == 8
        assert recorder.spans[0].attrs == {"out": 8}

    def test_generator_spans_cover_each_chunk_not_the_consumer(self, recorder, clock):
        def chunks(count):
            for index in range(count):
                clock.advance(2)
                yield [index] * 3

        wrapped = traced_generator(recorder, "gen", chunks, lambda chunk: {"items": len(chunk)})
        with recorder.span("consumer") as consumer:
            for _chunk in wrapped(3):
                clock.advance(5)
        generator_spans = [span for span in recorder.spans if span.name == "gen"]
        # One span per next() call: three chunks and the call that ends it.
        assert len(generator_spans) == 4
        assert [span.duration for span in generator_spans] == [2, 2, 2, 0]
        assert [span.attrs.get("items") for span in generator_spans] == [3, 3, 3, None]
        assert all(span.parent == consumer.span_id for span in generator_spans)
        assert self_times(recorder.spans)[consumer.span_id] == 15

    def test_async_spans_reach_worker_threads(self):
        recorder = SpanRecorder()
        work = traced(recorder, "thread_work", lambda: 1)

        async def handler():
            return await asyncio.to_thread(work)

        wrapped = traced_async(recorder, "handler", handler)
        assert asyncio.run(wrapped()) == 1
        spans = {span.name: span for span in recorder.spans}
        assert spans["thread_work"].parent == spans["handler"].span_id


    def test_async_iterator_spans_join_the_given_parent(self, recorder, clock):
        async def chunks():
            for index in range(2):
                clock.advance(1)
                yield index

        async def consume():
            with recorder.span("op", parent=None, op=3) as root:
                pass
            stream = traced_async_iterator(recorder, "stream", chunks(), parent=root.span_id, op=3)
            return root, [item async for item in stream]

        root, items = asyncio.run(consume())
        assert items == [0, 1]
        stream_spans = [span for span in recorder.spans if span.name == "stream"]
        assert [span.duration for span in stream_spans] == [1, 1, 0]
        assert all(span.parent == root.span_id and span.op == 3 for span in stream_spans)


class TestInstall:
    """The wrappers on the real program, on tiny inputs."""

    def test_traced_calls_match_the_kernel_counters_and_restore(self):
        pytest.importorskip("numpy")
        from repro.backend import get_backend
        from repro.backend.timing import KERNEL_TIMINGS
        from repro.faults import scenarios
        from repro.faults.engine import BatchCampaignEngine, GridCampaignEngine, GridPointRequest
        from repro.faults.matrix import PopulationMatrix

        from perfbench.layers import install

        backend = get_backend("numpy")
        originals = (
            vars(PopulationMatrix)["from_replica_chunks"],
            vars(BatchCampaignEngine)["estimate"],
            scenarios.stream_replica_chunks,
            vars(type(backend))["campaign_trials"],
        )
        recorder = SpanRecorder()
        patcher = install(recorder, backend)
        try:
            before = KERNEL_TIMINGS.snapshot()
            with recorder.span("op", parent=None, op=0):
                scenario = scenarios.ecosystem_scenario(population_size=20, seed=1)
                engine = BatchCampaignEngine(
                    scenario.population, scenario.catalog, backend=backend
                )
                engine.estimate_worst_case(max_vulnerabilities=2, trials=50, seed=2)
            with recorder.span("op", parent=None, op=1):
                matrix, _ = scenarios.sparse_ecosystem_matrix(population_size=300, chunk_size=128)
                GridCampaignEngine.from_matrix(matrix, backend=backend).estimate_grid(
                    (GridPointRequest(tolerances=(0.5,), worst_case=1),), trials=8
                )
            delta = KERNEL_TIMINGS.delta_since(before)
        finally:
            patcher.restore()
        assert originals == (
            vars(PopulationMatrix)["from_replica_chunks"],
            vars(BatchCampaignEngine)["estimate"],
            scenarios.stream_replica_chunks,
            vars(type(backend))["campaign_trials"],
        )
        assert counter_mismatches(recorder.spans, delta, Phase()) == []
        names = {span.name for span in recorder.spans}
        assert {
            "faults.engine.estimate_worst_case",
            "faults.engine.estimate",
            "faults.matrix.most_damaging",
            "faults.matrix.build",
            "backend.campaign_trials",
            "faults.matrix.from_replica_chunks",
            "datasets.stream_replica_chunks",
            "faults.engine.estimate_grid",
            "backend.sparse_grid_partials",
        } <= names
        chunks = [s for s in recorder.spans if s.name == "datasets.stream_replica_chunks"]
        assert [s.attrs.get("replicas") for s in chunks] == [128, 128, 44, None]
        build = next(s for s in recorder.spans if s.name == "faults.matrix.from_replica_chunks")
        assert all(s.parent == build.span_id for s in chunks)


    def test_a_failed_install_leaves_nothing_wrapped(self):
        from perfbench.layers import install

        class PartialBackend:
            def campaign_trials(self):
                return "original"

        original = vars(PartialBackend)["campaign_trials"]
        with pytest.raises(KeyError):
            install(SpanRecorder(), PartialBackend())
        assert vars(PartialBackend)["campaign_trials"] is original


class TestCounterChecks:
    def test_spans_matching_kernel_counters_pass(self, recorder):
        with recorder.span("backend.campaign_grid", trials=12):
            pass
        delta = {"campaign_grid": {"calls": 1, "trials": 12, "seconds": 0.1}}
        assert counter_mismatches(recorder.spans, delta, Phase()) == []

    def test_double_counted_and_missing_spans_fail(self, recorder):
        for _ in range(2):
            with recorder.span("backend.violation_trials", trials=5):
                pass
        delta = {
            "violation_trials": {"calls": 1, "trials": 5, "seconds": 0.1},
            "sparse_campaign_partials": {"calls": 1, "trials": 8, "seconds": 0.1},
        }
        mismatches = counter_mismatches(recorder.spans, delta, Phase())
        assert any(m.startswith("violation_trials.calls") for m in mismatches)
        assert any(m.startswith("sparse_campaign_partials.calls") for m in mismatches)
