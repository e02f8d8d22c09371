"""Tests for the public API of :mod:`repro.metrics.profiler`.

The profiler module carries the repo's one shared percentile routine
(:func:`summarize_latencies` — also the math behind ``ServerStats`` and the
obs histograms), the compiled-runtime report (:func:`summarize_runtime` with
its hot-op table) and the ``op@backend`` label parser
(:func:`kernel_backend`).  These were previously exercised only indirectly
through serving tests; this file pins their contracts down directly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.metrics.profiler import (TrainingTimeProfiler, kernel_backend,
                                    summarize_latencies, summarize_runtime,
                                    time_training_step)


class TestSummarizeLatencies:
    def test_empty_sample_yields_zeros(self):
        summary = summarize_latencies([])
        assert summary == {"count": 0.0, "mean_s": 0.0, "max_s": 0.0,
                           "p50_s": 0.0, "p95_s": 0.0, "p99_s": 0.0}

    def test_known_percentiles(self):
        values = [float(i) for i in range(1, 101)]  # 1..100
        summary = summarize_latencies(values)
        assert summary["count"] == 100.0
        assert summary["mean_s"] == pytest.approx(50.5)
        assert summary["max_s"] == 100.0
        assert summary["p50_s"] == pytest.approx(np.percentile(values, 50))
        assert summary["p95_s"] == pytest.approx(np.percentile(values, 95))
        assert summary["p99_s"] == pytest.approx(np.percentile(values, 99))

    def test_custom_percentiles_shape_the_keys(self):
        summary = summarize_latencies([1.0, 2.0, 3.0], percentiles=(10, 90))
        assert set(summary) == {"count", "mean_s", "max_s", "p10_s", "p90_s"}
        assert summary["p90_s"] >= summary["p10_s"]

    def test_single_observation(self):
        summary = summarize_latencies([0.25])
        assert summary["p50_s"] == 0.25 == summary["max_s"] == summary["mean_s"]


class TestKernelBackend:
    @pytest.mark.parametrize("label, backend", [
        ("conv2d", "numpy"),                      # unsuffixed = reference
        ("bwd:conv2d", "numpy"),
        ("matmul@numba", "numba"),
        ("bwd:lif@numba", "numba"),
        ("fn_cached:ConvChannelsLastFunction@numpy", "numpy"),
        ("elementwise_chain@fallback", "fallback"),
    ])
    def test_parses_executing_backend(self, label, backend):
        assert kernel_backend(label) == backend


class TestSummarizeRuntime:
    def test_rejects_sources_without_runtime_stats(self):
        with pytest.raises(TypeError, match="does not expose runtime_stats"):
            summarize_runtime(object())

    def test_rejects_inactive_runtime(self):
        class Eager:
            def runtime_stats(self):
                return None

        with pytest.raises(ValueError, match="not active"):
            summarize_runtime(Eager())

    def test_report_from_a_fake_source(self):
        class Fake:
            replay_durations = [0.010, 0.012, 0.011]

            def runtime_stats(self):
                return {
                    "captures": 1, "replays": 3,
                    "mean_capture_s": 0.100, "mean_replay_s": 0.010,
                    "kernels": {
                        "conv2d": {"seconds": 6.0, "calls": 30},
                        "matmul@numba": {"seconds": 3.0, "calls": 10},
                        "bwd:lif@fallback": {"seconds": 1.0, "calls": 5},
                    },
                }

        report = summarize_runtime(Fake(), top_k=2)
        assert report["capture_over_replay"] == pytest.approx(10.0)
        assert report["replay_latency"]["count"] == 3.0
        hot = report["hot_ops"]
        assert len(hot) == 2  # top_k truncates
        assert hot[0]["op"] == "conv2d" and hot[0]["backend"] == "numpy"
        assert hot[0]["share"] == pytest.approx(0.6)
        assert hot[1]["op"] == "matmul@numba"
        assert hot[1]["backend"] == "numba"

    def test_hot_op_table_from_a_real_profiled_trainer(self):
        from repro.models.vgg import spiking_vgg9
        from repro.training.config import TrainingConfig
        from repro.training.trainer import BPTTTrainer

        model = spiking_vgg9(num_classes=4, in_channels=3, timesteps=2,
                             width_scale=0.08, rng=np.random.default_rng(0))
        trainer = BPTTTrainer(model, TrainingConfig(timesteps=2, batch_size=4),
                              compile=True, profile=True)
        rng = np.random.default_rng(1)
        data = rng.random((4, 3, 10, 10)).astype(np.float32)
        labels = rng.integers(0, 4, 4)
        trainer.train_step(data, labels)  # capture
        trainer.train_step(data, labels)  # profiled replay
        report = summarize_runtime(trainer, top_k=5)
        assert report["replays"] >= 1
        hot = report["hot_ops"]
        assert 1 <= len(hot) <= 5
        assert all(entry["seconds"] >= 0 and entry["calls"] >= 1
                   for entry in hot)
        shares = [entry["share"] for entry in hot]
        assert shares == sorted(shares, reverse=True)
        assert all(entry["backend"] == "numpy" for entry in hot)


class TestTrainingTimeProfiler:
    def test_measure_and_reduction(self):
        from repro.models.vgg import spiking_vgg9

        model = spiking_vgg9(num_classes=4, in_channels=3, timesteps=2,
                             width_scale=0.08, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        inputs = rng.random((2, 2, 3, 10, 10)).astype(np.float32)
        labels = rng.integers(0, 4, 2)
        profiler = TrainingTimeProfiler(repeats=1, warmup=0)
        base = profiler.measure("baseline", model, inputs, labels)
        assert base > 0
        profiler.timings["fast"] = base / 2  # synthetic second method
        assert profiler.reduction_vs("fast") == pytest.approx(50.0)
        table = profiler.as_table()
        assert table["fast"]["reduction_pct"] == pytest.approx(50.0)
        assert "reduction_pct" not in table["baseline"]
        with pytest.raises(KeyError):
            profiler.reduction_vs("missing")

    def test_time_training_step_returns_positive_median(self):
        from repro.models.vgg import spiking_vgg9

        model = spiking_vgg9(num_classes=4, in_channels=3, timesteps=2,
                             width_scale=0.08, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        inputs = rng.random((2, 2, 3, 10, 10)).astype(np.float32)
        labels = rng.integers(0, 4, 2)
        assert time_training_step(model, inputs, labels,
                                  repeats=1, warmup=0) > 0
