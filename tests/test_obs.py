"""Tests for the ``repro.obs`` observability layer.

Covers the four building blocks and their wiring into the stack:

* metrics — counter / gauge / histogram semantics, registry get-or-create,
  Prometheus text exposition and JSON snapshots;
* tracing — span nesting via context vars, the disabled no-op fast path,
  manual cross-thread span hand-off, error status on exceptions;
* exporters — Chrome ``trace_event`` JSON validity, JSONL span logs;
* flight recorder — K-slowest retention and report structure;
* integration — a served request produces one connected span tree
  (enqueue → queue wait → batch → engine → replay → per-kernel children),
  the trainer splits a step into data-wait / forward / backward / optimizer,
  prefetch-worker failures land in the consumer's trace, and
  ``InferenceServer.debug_report`` bundles all of it.
"""

from __future__ import annotations

import json
import math
import threading

import numpy as np
import pytest

from repro import obs
from repro.data.datasets import ArrayDataset, DataLoader
from repro.models.vgg import spiking_vgg9
from repro.obs.export import ChromeTraceExporter, JSONLExporter
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               default_registry)
from repro.obs.trace import NOOP_SPAN, Span, current_span, get_tracer
from repro.serve import InferenceServer, ModelRegistry, ServerStats
from repro.serve.batcher import MicroBatcher
from repro.training.config import TrainingConfig
from repro.training.trainer import BPTTTrainer

SAMPLE_SHAPE = (3, 10, 10)


@pytest.fixture(autouse=True)
def obs_reset():
    """Leave the process-wide tracer exactly as we found it (disabled)."""
    tracer = get_tracer()
    yield
    tracer.enabled = False
    tracer.set_exporters(())
    tracer.set_kernel_sample_rate(0.0)
    tracer.flight = None


def _tiny_model(seed: int = 0):
    return spiking_vgg9(num_classes=4, in_channels=3, timesteps=2,
                        width_scale=0.08, rng=np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


class TestInstruments:
    def test_counter_monotonic(self):
        c = Counter("reqs")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)
        c.reset()
        assert c.value == 0.0

    def test_gauge_set_and_callback(self):
        g = Gauge("depth")
        g.set(4)
        g.inc()
        g.dec(2)
        assert g.value == 3.0
        g.set_function(lambda: 42.0)
        assert g.value == 42.0
        g.set_function(lambda: 1 / 0)  # a broken callback must not raise
        assert math.isnan(g.value)

    def test_histogram_buckets_are_cumulative(self):
        h = Histogram("lat", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(value)
        assert h.count == 5
        assert h.sum == pytest.approx(56.05)
        assert h.max == 50.0
        assert h.bucket_counts() == {"0.1": 1, "1": 3, "10": 4, "+Inf": 5}

    def test_histogram_window_is_bounded_and_recent(self):
        h = Histogram("lat", buckets=(1.0,), max_samples=10)
        for i in range(100):
            h.observe(float(i))
        window = h.window()
        assert window == [float(i) for i in range(90, 100)]
        # Bucket counts stay exact over the lifetime, not the window.
        assert h.bucket_counts()["+Inf"] == 100

    def test_histogram_quantiles_use_shared_percentile_math(self):
        from repro.metrics.profiler import summarize_latencies

        h = Histogram("lat", buckets=(1.0,))
        values = [float(i) for i in range(1, 101)]
        for value in values:
            h.observe(value)
        assert h.quantile_summary() == summarize_latencies(values)


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instance(self):
        reg = MetricsRegistry()
        a = reg.counter("hits", labels={"model": "m"})
        b = reg.counter("hits", labels={"model": "m"})
        assert a is b
        # Same name, different labels: a distinct series.
        c = reg.counter("hits", labels={"model": "n"})
        assert c is not a

    def test_type_mismatch_is_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered as counter"):
            reg.gauge("x")

    def test_register_replace_repoints_the_scrape(self):
        reg = MetricsRegistry()
        old = Counter("reqs", labels={"model": "m"})
        new = Counter("reqs", labels={"model": "m"})
        reg.register(old)
        assert reg.register(old) is old  # idempotent without replace
        reg.register(new, replace=True)
        new.inc(7)
        assert reg.get("reqs", labels={"model": "m"}).value == 7.0

    def test_snapshot_and_prometheus_exposition(self):
        reg = MetricsRegistry()
        reg.counter("reqs", help="requests", labels={"model": "m"}).inc(3)
        reg.gauge("depth").set(2)
        reg.histogram("lat", buckets=(0.5, 1.0)).observe(0.25)
        snap = reg.snapshot()
        assert snap["reqs"][0]["value"] == 3.0
        assert snap["lat"][0]["buckets"]["0.5"] == 1
        assert "p99_s" in snap["lat"][0]["quantiles"]
        json.dumps(snap)  # must be JSON-able as-is
        text = reg.to_prometheus()
        assert "# HELP reqs requests" in text
        assert "# TYPE reqs counter" in text
        assert 'reqs{model="m"} 3' in text
        assert 'lat_bucket{le="0.5"} 1' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_count 1" in text

    def test_unregister(self):
        reg = MetricsRegistry()
        reg.counter("x")
        assert reg.unregister("x") is True
        assert reg.unregister("x") is False
        assert reg.get("x") is None


class TestServerStats:
    def test_latency_reservoir_is_capped(self):
        stats = ServerStats(max_samples=16)
        for i in range(100):
            stats.record_request(float(i))
        assert stats.requests == 100
        assert len(stats.latency_histogram.window()) == 16
        # Lifetime max survives even after the spike left the window.
        stats2 = ServerStats(max_samples=4)
        stats2.record_request(9.0)
        for _ in range(10):
            stats2.record_request(0.001)
        assert stats2.latency_summary()["max_s"] == 9.0

    def test_table_keys_and_qps(self):
        stats = ServerStats()
        stats.record_request(0.010, timestamp=1.0)
        stats.record_request(0.020, timestamp=2.0)
        stats.record_batch(2, 0.015)
        stats.record_cache(hit=True)
        stats.record_cache(hit=False)
        table = stats.as_table()
        for key in ("requests", "batches", "qps", "mean_batch_fill",
                    "p50_ms", "p95_ms", "p99_ms", "mean_ms", "max_ms",
                    "cache_hits", "cache_misses"):
            assert key in table
        assert table["requests"] == 2.0
        assert table["qps"] > 0
        assert stats.mean_batch_fill() == 2.0
        assert "batch_fill" in stats.format_table()
        stats.reset()
        assert stats.requests == 0 and stats.latency_summary()["p50_s"] == 0.0

    def test_named_stats_register_in_default_registry(self):
        stats = ServerStats(name="obs-test-model")
        try:
            stats.record_request(0.001)
            found = default_registry().get("repro_serve_requests_total",
                                           labels={"model": "obs-test-model"})
            assert found is not None and found.value == 1.0
            # A replacement collector (hot-swap) repoints the same series.
            stats2 = ServerStats(name="obs-test-model")
            stats2.record_request(0.001)
            found = default_registry().get("repro_serve_requests_total",
                                           labels={"model": "obs-test-model"})
            assert found.value == 1.0
        finally:
            for metric in ("repro_serve_request_latency_seconds",
                           "repro_serve_requests_total",
                           "repro_serve_batches_total",
                           "repro_serve_cache_hits_total",
                           "repro_serve_cache_misses_total"):
                default_registry().unregister(metric,
                                              labels={"model": "obs-test-model"})


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


class TestTracing:
    def test_disabled_tracing_returns_the_shared_noop(self):
        tracer = get_tracer()
        tracer.enabled = False
        assert tracer.span("anything") is NOOP_SPAN
        assert tracer.start_span("anything") is None
        with tracer.span("x") as sp:
            sp.set_attr("a", 1)  # all mutators are no-ops
            sp.add_event("e")
        assert current_span() is None

    def test_spans_nest_through_context_vars(self):
        tracer = get_tracer()
        tracer.enabled = True
        with tracer.span("outer", a=1) as outer:
            assert current_span() is outer
            with tracer.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
            assert current_span() is outer
        assert current_span() is None
        assert outer.children == [inner]
        assert outer.duration_s is not None
        assert outer.find("inner") is inner
        assert [s.name for s in outer.walk()] == ["outer", "inner"]

    def test_exception_marks_error_status(self):
        tracer = get_tracer()
        tracer.enabled = True
        with pytest.raises(RuntimeError):
            with tracer.span("failing") as sp:
                raise RuntimeError("boom")
        assert sp.status == "error"
        assert "boom" in sp.attrs["error"]

    def test_manual_span_survives_a_thread_hop(self):
        tracer = get_tracer()
        tracer.enabled = True
        root = tracer.start_span("request")
        seen = {}

        def worker():
            assert current_span() is None  # fresh thread, fresh context
            with tracer.activate(root):
                with tracer.span("compute") as sp:
                    seen["span"] = sp
            tracer.finish_span(root)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert seen["span"].parent_id == root.span_id
        assert root.children == [seen["span"]]

    def test_add_timed_children_lays_kernels_out_sequentially(self):
        tracer = get_tracer()
        tracer.enabled = True
        parent = tracer.start_span("replay")
        tracer.add_timed_children(parent, [("conv@numpy", 0.5, 4),
                                           ("lif@numba", 0.25, 2)])
        tracer.finish_span(parent)
        first, second = parent.children
        assert first.duration_s == pytest.approx(0.5)
        assert second.duration_s == pytest.approx(0.25)
        assert second.start_perf == pytest.approx(first.start_perf + 0.5)
        assert first.attrs["calls"] == 4

    def test_kernel_sampler_rate(self):
        tracer = get_tracer()
        tracer.enabled = True
        tracer.set_kernel_sample_rate(0.25)
        hits = sum(tracer.sample_kernels() for _ in range(100))
        assert hits == 25
        tracer.set_kernel_sample_rate(1.0)
        assert all(tracer.sample_kernels() for _ in range(5))
        tracer.set_kernel_sample_rate(0.0)
        assert not any(tracer.sample_kernels() for _ in range(5))
        with pytest.raises(ValueError):
            tracer.set_kernel_sample_rate(1.5)

    def test_module_level_event_helper(self):
        tracer = get_tracer()
        tracer.enabled = True
        obs.event("orphan")  # no current span: silently dropped
        with tracer.span("holder") as sp:
            obs.event("marker", detail=7)
        assert sp.events[0][1] == "marker"
        assert sp.events[0][2] == {"detail": 7}


# ---------------------------------------------------------------------------
# exporters + flight recorder
# ---------------------------------------------------------------------------


class TestExporters:
    def test_chrome_trace_is_valid_and_complete(self):
        chrome = ChromeTraceExporter()
        tracer = obs.configure(enabled=True, exporters=[chrome],
                               flight_capacity=None)
        with tracer.span("parent", model="m"):
            with tracer.span("child") as child:
                child.add_event("tick", n=1)
        data = json.loads(chrome.to_json())
        events = data["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert {e["name"] for e in complete} == {"parent", "child"}
        assert instants[0]["name"] == "tick"
        parent = next(e for e in complete if e["name"] == "parent")
        assert parent["args"]["model"] == "m"
        assert parent["dur"] >= 0 and parent["ts"] > 0

    def test_chrome_trace_write_and_bound(self, tmp_path):
        chrome = ChromeTraceExporter(max_events=3)
        tracer = obs.configure(enabled=True, exporters=[chrome],
                               flight_capacity=None)
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        assert len(chrome.trace_events()) == 3
        path = tmp_path / "trace.json"
        chrome.write(str(path))
        assert len(json.loads(path.read_text())["traceEvents"]) == 3

    def test_jsonl_exporter_writes_parseable_lines(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        jsonl = JSONLExporter(path=str(path))
        tracer = obs.configure(enabled=True, exporters=[jsonl],
                               flight_capacity=None)
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["name"] for line in lines] == ["b", "a"]  # finish order
        assert lines[0]["parent_id"] == lines[1]["span_id"]

    def test_broken_exporter_never_breaks_the_traced_code(self):
        class Broken:
            def export(self, span):
                raise RuntimeError("exporter bug")

        tracer = obs.configure(enabled=True, exporters=[Broken()],
                               flight_capacity=None)
        with tracer.span("safe"):
            pass  # must not raise


class TestFlightRecorder:
    def _finished(self, name: str, duration: float) -> Span:
        span = Span(name)
        span.duration_s = duration
        return span

    def test_keeps_the_k_slowest(self):
        recorder = FlightRecorder(capacity=3, names=None)
        for duration in (0.1, 0.5, 0.2, 0.9, 0.05, 0.3):
            recorder.record(self._finished("serve.request", duration))
        assert [s.duration_s for s in recorder.slowest()] == [0.9, 0.5, 0.3]
        assert recorder.threshold_s() == 0.3
        assert recorder.considered == 6 and len(recorder) == 3

    def test_name_filter(self):
        recorder = FlightRecorder(capacity=2)  # default: serve.request only
        assert not recorder.record(self._finished("train.step", 1.0))
        assert recorder.record(self._finished("serve.request", 0.1))
        assert len(recorder) == 1

    def test_report_serialises_full_trees(self):
        recorder = FlightRecorder(capacity=2, names=None)
        root = self._finished("serve.request", 0.2)
        child = Span("serve.batch", parent=root)
        child.duration_s = 0.1
        root.children.append(child)
        recorder.record(root)
        report = recorder.report()
        assert report["capacity"] == 2 and report["retained"] == 1
        assert report["traces"][0]["children"][0]["name"] == "serve.batch"
        json.dumps(report)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------


class TestServeTracing:
    def test_request_tree_is_connected_down_to_kernels(self):
        obs.configure(enabled=True, exporters=[], kernel_sample_rate=1.0,
                      flight_capacity=4)
        # max_batch_size=1 pins every request to the batch-1 plan the warm-up
        # captured, so each traced request deterministically hits a *replay*.
        server = InferenceServer(max_batch_size=1, max_wait_ms=0.0,
                                 cache_capacity=0)
        try:
            server.register("traced", _tiny_model(), compile=True,
                            warmup_sample=np.zeros(SAMPLE_SHAPE, np.float32))
            rng = np.random.default_rng(0)
            for _ in range(4):
                server.infer("traced",
                             rng.random(SAMPLE_SHAPE).astype(np.float32),
                             timeout=60)
        finally:
            server.close()
        traces = obs.flight_recorder().slowest()
        assert traces, "flight recorder saw no request traces"
        replayed = [t for t in traces if t.find("runtime.replay") is not None]
        assert replayed, [t.to_dict(with_children=True) for t in traces]
        root = replayed[0]
        assert root.name == "serve.request"
        assert root.attrs["model"] == "traced"
        assert root.find("serve.queue_wait") is not None
        batch = root.find("serve.batch")
        assert batch is not None and batch.attrs["batch_size"] >= 1
        engine_span = root.find("engine.infer")
        assert engine_span is not None and engine_span.attrs["compiled"]
        replay = root.find("runtime.replay")
        kernels = replay.children
        assert kernels, "kernel_sample_rate=1.0 must emit per-kernel children"
        assert all("@" in k.name for k in kernels)
        from repro.metrics.profiler import kernel_backend
        assert {kernel_backend(k.name) for k in kernels} >= {"numpy"}

    def test_shared_batch_span_appears_in_every_riders_tree(self):
        obs.configure(enabled=True, exporters=[], flight_capacity=8)
        release = threading.Event()

        def slow_infer(batch):
            release.wait(timeout=10)
            return batch.mean(axis=(1, 2, 3))

        batcher = MicroBatcher(slow_infer, max_batch_size=4, max_wait_ms=50.0,
                               name="shared")
        try:
            futures = [batcher.submit(np.full(SAMPLE_SHAPE, np.float32(i)))
                       for i in range(3)]
            release.set()
            for future in futures:
                future.result(timeout=30)
        finally:
            batcher.close()
        traces = obs.flight_recorder().slowest()
        assert len(traces) == 3
        batch_spans = {id(t.find("serve.batch")) for t in traces}
        assert len(batch_spans) == 1, "one fused batch = one shared span object"
        assert all(t.find("serve.queue_wait") is not None for t in traces)

    def test_batch_exception_marks_request_spans(self):
        obs.configure(enabled=True, exporters=[], flight_capacity=4)

        def exploding(batch):
            raise ValueError("engine down")

        batcher = MicroBatcher(exploding, max_batch_size=4, max_wait_ms=1.0)
        try:
            future = batcher.submit(np.zeros(SAMPLE_SHAPE, np.float32))
            with pytest.raises(ValueError, match="engine down"):
                future.result(timeout=30)
        finally:
            batcher.close()
        (trace,) = obs.flight_recorder().slowest()
        assert trace.status == "error"
        assert trace.find("serve.batch").status == "error"

    def test_cache_hit_requests_are_traced_too(self):
        obs.configure(enabled=True, exporters=[], flight_capacity=8)
        server = InferenceServer(max_batch_size=4, max_wait_ms=1.0,
                                 cache_capacity=8)
        try:
            server.register("cached", _tiny_model())
            sample = np.ones(SAMPLE_SHAPE, np.float32)
            server.infer("cached", sample, timeout=60)
            server.infer("cached", sample, timeout=60)  # served from cache
        finally:
            server.close()
        traces = obs.flight_recorder().slowest()
        hits = [t for t in traces if t.attrs.get("cache") == "hit"]
        assert len(hits) == 1
        assert hits[0].events[0][1] == "cache_hit"

    def test_registry_publish_spans(self):
        jsonl = JSONLExporter()
        obs.configure(enabled=True, exporters=[jsonl], flight_capacity=None)
        registry = ModelRegistry()
        registry.register("pub", _tiny_model(),
                          warmup_sample=np.zeros(SAMPLE_SHAPE, np.float32))
        registry.swap("pub", _tiny_model(seed=1))
        publishes = [r for r in jsonl.records if r["name"] == "serve.publish"]
        assert [p["attrs"]["action"] for p in publishes] == ["register", "swap"]
        register = publishes[0]
        assert register["attrs"]["model"] == "pub"
        assert register["attrs"]["version"] == "1"
        assert any(e["name"] == "warmup" for e in register["events"])
        # engine.warmup nested under the register publish
        warmups = [r for r in jsonl.records if r["name"] == "engine.warmup"]
        assert warmups and warmups[0]["trace_id"] == register["trace_id"]

    def test_debug_report_bundles_everything(self):
        obs.configure(enabled=True, exporters=[], flight_capacity=4)
        server = InferenceServer(max_batch_size=4, max_wait_ms=1.0,
                                 cache_capacity=0)
        try:
            server.register("dbg", _tiny_model(), compile=True)
            server.infer("dbg", np.zeros(SAMPLE_SHAPE, np.float32), timeout=60)
            report = server.debug_report()
        finally:
            server.close()
        assert set(report) == {"models", "registry", "metrics", "flight", "runtime"}
        assert report["models"]["dbg"]["requests"] >= 1
        assert report["registry"][0]["name"] == "dbg"
        assert report["flight"]["retained"] >= 1
        assert report["flight"]["traces"][0]["name"] == "serve.request"
        assert report["runtime"]["dbg"]["captures"] >= 1
        assert "repro_serve_requests_total" in report["metrics"]
        json.dumps(report)


class TestTrainTracing:
    def test_eager_step_splits_into_stages(self):
        jsonl = JSONLExporter()
        obs.configure(enabled=True, exporters=[jsonl], flight_capacity=None)
        trainer = BPTTTrainer(_tiny_model(),
                              TrainingConfig(timesteps=2, batch_size=4))
        rng = np.random.default_rng(0)
        images = rng.random((8, 3, 10, 10)).astype(np.float32)
        labels = rng.integers(0, 4, 8)
        loader = DataLoader(ArrayDataset(images, labels), batch_size=4,
                            shuffle=False)
        trainer.train_epoch(loader, epoch=3)
        names = [r["name"] for r in jsonl.records]
        for expected in ("train.epoch", "train.data_wait", "train.step",
                         "train.forward", "train.backward", "train.optimizer"):
            assert expected in names, names
        epoch = next(r for r in jsonl.records if r["name"] == "train.epoch")
        assert epoch["attrs"] == {"epoch": 3, "batches": 2}
        steps = [r for r in jsonl.records if r["name"] == "train.step"]
        assert len(steps) == 2
        assert all(s["trace_id"] == epoch["trace_id"] for s in steps)

    def test_compiled_step_traces_capture_then_replay(self):
        jsonl = JSONLExporter()
        obs.configure(enabled=True, exporters=[jsonl], kernel_sample_rate=1.0,
                      flight_capacity=None)
        trainer = BPTTTrainer(_tiny_model(),
                              TrainingConfig(timesteps=2, batch_size=4),
                              compile=True)
        rng = np.random.default_rng(0)
        data = rng.random((4, 3, 10, 10)).astype(np.float32)
        labels = rng.integers(0, 4, 4)
        trainer.train_step(data, labels)
        trainer.train_step(data, labels)
        names = [r["name"] for r in jsonl.records]
        assert "runtime.capture" in names and "runtime.replay" in names
        replay = next(r for r in jsonl.records if r["name"] == "runtime.replay")
        assert replay["attrs"]["kind"] == "train"
        kernel_spans = [r for r in jsonl.records
                        if r["parent_id"] == replay["span_id"]]
        assert kernel_spans and all("@" in r["name"] for r in kernel_spans)

    def test_prefetch_failure_lands_in_the_consumers_trace(self):
        jsonl = JSONLExporter()
        tracer = obs.configure(enabled=True, exporters=[jsonl],
                               flight_capacity=None)

        class Exploding(ArrayDataset):
            def __getitem__(self, index):
                if index == 5:
                    raise RuntimeError("corrupt shard")
                return super().__getitem__(index)

        rng = np.random.default_rng(0)
        dataset = Exploding(rng.random((8, 3, 10, 10)).astype(np.float32),
                            rng.integers(0, 4, 8))
        loader = DataLoader(dataset, batch_size=2, shuffle=False, prefetch=True)
        with pytest.raises(RuntimeError, match="corrupt shard"):
            with tracer.span("train.epoch") as epoch_span:
                for _ in loader:
                    pass
        errors = [r for r in jsonl.records if r["name"] == "data.prefetch_error"]
        assert len(errors) == 1
        error = errors[0]
        assert error["status"] == "error"
        assert "corrupt shard" in error["attrs"]["error"]
        assert error["attrs"]["batches_assembled"] == 2
        assert error["trace_id"] == epoch_span.trace_id
        assert error["parent_id"] == epoch_span.span_id

    def test_prefetch_is_untraced_and_working_when_disabled(self):
        rng = np.random.default_rng(0)
        dataset = ArrayDataset(rng.random((8, 3, 10, 10)).astype(np.float32),
                               rng.integers(0, 4, 8))
        loader = DataLoader(dataset, batch_size=4, shuffle=False, prefetch=True)
        assert sum(1 for _ in loader) == 2


class TestSearchTracing:
    def test_candidate_evaluations_are_traced_with_cache_flag(self):
        from repro.data.synthetic import make_static_image_dataset
        from repro.models.specs import vgg_layer_specs
        from repro.models.vgg import VGG9_CONFIG
        from repro.search import SearchConfig, Searcher, TTSupernet

        jsonl = JSONLExporter()
        obs.configure(enabled=True, exporters=[jsonl], flight_capacity=None)
        supernet = TTSupernet(_tiny_model(), max_rank=8)
        train = make_static_image_dataset(16, 4, height=10, width=10, seed=1)
        val = make_static_image_dataset(16, 4, height=10, width=10, seed=2)
        searcher = Searcher(supernet, train, val,
                            vgg_layer_specs(VGG9_CONFIG, num_classes=4),
                            config=SearchConfig(warmup_epochs=0, batch_size=8,
                                                eval_batch_size=16, seed=0))
        config = searcher.space.random_config(np.random.default_rng(0))
        searcher.evaluate_config(config)
        searcher.evaluate_config(config)  # second call hits the eval cache
        candidates = [r for r in jsonl.records if r["name"] == "search.candidate"]
        assert [c["attrs"]["cached"] for c in candidates] == [False, True]
        assert "accuracy" in candidates[0]["attrs"]
        assert "cost" in candidates[0]["attrs"]


class TestRuntimeMetrics:
    def test_compiled_runtime_counters_and_gauges(self):
        trainer = BPTTTrainer(_tiny_model(),
                              TrainingConfig(timesteps=2, batch_size=4),
                              compile=True)
        rng = np.random.default_rng(0)
        data = rng.random((4, 3, 10, 10)).astype(np.float32)
        labels = rng.integers(0, 4, 4)
        registry = default_registry()
        captures = registry.get("repro_runtime_captures_total")
        replays = registry.get("repro_runtime_replays_total")
        before_c = captures.value if captures else 0.0
        before_r = replays.value if replays else 0.0
        trainer.train_step(data, labels)
        trainer.train_step(data, labels)
        captures = registry.get("repro_runtime_captures_total")
        replays = registry.get("repro_runtime_replays_total")
        assert captures.value == before_c + 1
        assert replays.value == before_r + 1
        # Pull gauges aggregate over live runtimes; with a numpy backend the
        # node counts are zero but the gauge must exist and answer.
        native = registry.get("repro_runtime_native_nodes")
        assert native is not None and math.isfinite(native.value)

    def test_prometheus_endpoint_serves_the_default_registry(self):
        import urllib.request

        server = obs.serve_metrics(port=0)
        try:
            port = server.server_address[1]
            body = urllib.request.urlopen(
                f"http://127.0.0.1:{port}/metrics", timeout=10).read().decode()
            assert "# TYPE" in body
            with pytest.raises(Exception):
                urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/nope", timeout=10)
        finally:
            server.shutdown()
