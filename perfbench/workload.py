"""One benchmark workload, run in its own interpreter by ``run.py``.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1 --out DIR

The seed only shapes the generated inputs (training data, request samples,
arrival times); model initialisation is fixed so the model-size counts repeat
exactly.  The last line of standard output is one JSON object holding the
operation counts, the metrics and the environment record.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import gc
import glob
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time
from concurrent.futures import wait
from pathlib import Path
from typing import Dict, List

import numpy as np

from measure import (LOGIT_TOL, LOSS_TOL, SpanCollector, Tally, kernel_metrics,
                     kernel_table, p50, windowed_tail, within)

ROOT = Path(__file__).resolve().parent.parent

RANK = 8
WIDTH = 0.25
NUM_CLASSES = 10
LEARNING_RATE = 0.05
#: Set-up is repeated and its median reported, so one slow build cannot move it.
SETUP_REPS = 7
#: ``train.loss_final`` is the mean loss over the last tenth of this many
#: measured steps, so it depends on the seed and the arithmetic, not on speed.
LOSS_STEPS = 40
#: A traced run alternates its untraced, traced and profiled phases this many
#: times, so drift of the host during the run falls on every phase alike.
TRACE_ROUNDS = 3
#: Backward MACs per forward MAC (input and weight gradients) in
#: ``runtime.macs_per_s``.
BWD_FACTOR = 2.0

WORKLOADS = {
    # The paper's CIFAR configuration; BN, conv, LIF and max-pool kernels.
    "train-ptt-static": dict(kind="train", arch="vgg9", variant="ptt",
                             timesteps=4, batch=16, data="static", samples=512),
    # The N-Caltech101 setting (T=6, HTT half path on t=5,6); no max-pool,
    # HTT half-timestep slicing in the backward.
    "train-htt-event": dict(kind="train", arch="resnet18", variant="htt",
                            schedule="FFFFHH", timesteps=6, batch=8,
                            data="event", samples=256),
    # The train-ptt-static model, merged (Eq. 6) and served at O2 behind the
    # default batcher (16 / 2 ms) and response cache, open loop.
    "serve-open": dict(kind="serve", arch="vgg9", variant="ptt", timesteps=4,
                       batch=16, data="static", samples=512),
}

#: The model-size counts each architecture must reproduce exactly.
EXPECTED_COUNTS = {
    "vgg9": {"tt.params": 10266, "tt.params_ratio_vs_dense": 27.632378725891293,
             "tt.fwd_macs": 4748288},
    "resnet18": {"tt.params": 35338, "tt.params_ratio_vs_dense": 19.846114664100966,
                 "tt.fwd_macs": 5991936},
}

# Open-loop serving.
LOW_RPS = 40.0
HIGH_RPS = 100.0
REPEAT_SHARE = 0.25
REPEAT_WINDOW = 64
#: Distinct request samples.  More than the response cache's 1024 entries
#: plus the repeat window, so a recycled sample is never still cached.
POOL_SAMPLES = 1100
PARITY_SAMPLES = 256
#: Share of samples whose compiled O2 logits may differ from the eager
#: engine by more than LOGIT_TOL before the run is marked incorrect.  A spike
#: whose membrane sits within rounding of the threshold flips when BN folding
#: reorders the arithmetic; a broken fold changes nearly every sample.
EAGER_MISMATCH_MAX = 0.05
#: ``throughput_per_s`` on serve-open comes from a closed loop of this many
#: clients (one full batch), which drives the cache, batcher and engine at
#: full batches.
SATURATION_CLIENTS = 16
PREP_STEPS = 10
BUCKETS = (1, 2, 4, 8, 16)
SERVE_NAME = "vgg9-ptt"
DRAIN_SECONDS = 30.0


# -- environment and state ------------------------------------------------------


def assert_clean_state() -> None:
    """A workload must start with grad mode on, no fault injector and tracing
    off; leftover process state would otherwise read as a regression."""
    from repro.autograd.tensor import is_grad_enabled
    from repro.obs.trace import get_tracer
    from repro.resilience import faults

    problems = []
    if not is_grad_enabled():
        problems.append("grad mode is disabled")
    if faults.get_injector() is not None:
        problems.append("a fault injector is installed")
    if get_tracer().enabled:
        problems.append("tracing is enabled")
    if problems:
        raise SystemExit("workload started in a dirty process: " + "; ".join(problems))


#: ``prctl`` option that turns transparent huge pages off for this process.
PR_SET_THP_DISABLE = 41


def disable_huge_pages() -> str:
    """Keep transparent huge pages out of the workload.  NumPy asks for them
    on large arrays; they backed 35-55 MB of the serve process, and with
    them ``peak_rss_mb`` of one seed moved by up to 50 MB between runs.
    Returns the state recorded with the environment."""
    prctl = getattr(ctypes.CDLL(None, use_errno=True), "prctl", None)
    if prctl is None or prctl(PR_SET_THP_DISABLE, 1, 0, 0, 0) != 0:
        return "unchanged"
    return "disabled"


def blas_threads() -> str:
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*.so*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def environment(seed: int, backend: str, huge_pages: str) -> Dict[str, object]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                    capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit or "unknown",
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "backend": backend,
        "transparent_huge_pages": huge_pages,
    }


# -- model, data and counts -----------------------------------------------------


def build_model(spec):
    from repro.models.builder import convert_to_tt

    model = dense_model(spec)
    convert_to_tt(model, spec["variant"], rank=RANK, timesteps=spec["timesteps"],
                  schedule=spec.get("schedule"), rng=np.random.default_rng(1))
    return model


def dense_model(spec):
    from repro.models.resnet import spiking_resnet18
    from repro.models.vgg import spiking_vgg9

    if spec["arch"] == "vgg9":
        return spiking_vgg9(num_classes=NUM_CLASSES, in_channels=3,
                            timesteps=spec["timesteps"], width_scale=WIDTH,
                            rng=np.random.default_rng(0))
    return spiking_resnet18(num_classes=NUM_CLASSES, in_channels=2,
                            timesteps=spec["timesteps"], width_scale=WIDTH,
                            rng=np.random.default_rng(0))


def layer_specs(spec):
    from repro.models.specs import _resnet_specs, scaled_width, vgg_layer_specs
    from repro.models.vgg import VGG9_CONFIG

    if spec["arch"] == "vgg9":
        config = [c if c == "M" else scaled_width(c, WIDTH) for c in VGG9_CONFIG]
        return vgg_layer_specs(config, num_classes=NUM_CLASSES, in_channels=3,
                               input_hw=(32, 32), name="vgg9")
    widths = [scaled_width(w, WIDTH) for w in (64, 128, 256, 512)]
    return _resnet_specs([2, 2, 2, 2], widths, 2, NUM_CLASSES, (16, 16), "resnet18")


def model_counts(spec, model) -> Dict[str, float]:
    """``tt.*`` counts plus the per-sample forward MACs of the TT model and
    of its merged (dense) form."""
    from repro.metrics.flops import compression_report_from_specs
    from repro.metrics.params import count_parameters

    half = spec.get("schedule", "").count("H")
    report = compression_report_from_specs(layer_specs(spec), RANK,
                                           spec["timesteps"], half_timesteps=half)
    params = count_parameters(model)
    return {
        "tt.params": float(params),
        "tt.params_ratio_vs_dense": count_parameters(dense_model(spec)) / params,
        "tt.fwd_macs": float(report.tt_macs),
        "_dense_macs": float(report.dense_macs),
    }


def invariant_violations(spec, counts, steady_allocs: int, info) -> List[str]:
    """Checks that are not operations but still make a run incorrect: the
    ``tt.*`` counts must equal EXPECTED_COUNTS (a silently changed model)
    and the arena must allocate nothing after warm-up.  The counts are
    copied into ``info``."""
    problems = []
    for name, expected in EXPECTED_COUNTS[spec["arch"]].items():
        info[name] = counts[name]
        if not math.isclose(counts[name], expected, rel_tol=1e-12):
            problems.append(f"{name} is {counts[name]!r}, expected {expected!r}")
    info["runtime.arena.steady_allocs"] = steady_allocs
    if steady_allocs:
        problems.append(f"the arena allocated {steady_allocs} buffers after warm-up")
    return problems


def make_dataset(spec, seed: int):
    from repro.data.synthetic import make_event_dataset, make_static_image_dataset

    if spec["data"] == "static":
        return make_static_image_dataset(spec["samples"], NUM_CLASSES, 3, 32, 32, seed=seed)
    return make_event_dataset(spec["samples"], NUM_CLASSES, timesteps=spec["timesteps"],
                              channels=2, height=16, width=16, seed=seed)


def train_config(spec):
    from repro.training.config import TrainingConfig

    return TrainingConfig(timesteps=spec["timesteps"], epochs=1, batch_size=spec["batch"],
                          learning_rate=LEARNING_RATE)


class Batches:
    """Endless ``DataLoader`` iteration, epoch after epoch."""

    def __init__(self, dataset, batch: int, seed: int):
        from repro.data.datasets import DataLoader

        self.loader = DataLoader(dataset, batch_size=batch, shuffle=True,
                                 drop_last=True, seed=seed)
        self._it = iter(self.loader)

    def next(self):
        try:
            return next(self._it)
        except StopIteration:
            self._it = iter(self.loader)
            return next(self._it)


def timed_setups(setup, teardown=None):
    """Run ``setup`` SETUP_REPS times, handing each result but the last to the
    untimed ``teardown``; returns (median seconds, last result)."""
    durations, result = [], None
    for _ in range(SETUP_REPS):
        if result is not None and teardown is not None:
            teardown(result)
        result = None
        gc.collect()
        start = time.perf_counter()
        result = setup()
        durations.append(time.perf_counter() - start)
    return float(np.median(durations)), result


def reset_peak_rss() -> None:
    """Start the ``peak_rss_mb`` window at the measured phase: hand freed heap
    back to the kernel, then reset its high-water mark (VmHWM) to the current
    RSS, so set-ups, training before serving and eager references done
    earlier in the process do not set the peak."""
    gc.collect()
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim(0)
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def peak_rss_mb() -> float:
    """VmHWM since :func:`reset_peak_rss`."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def tracing(collector: SpanCollector):
    from repro import obs

    obs.configure(enabled=True, exporters=[collector], kernel_sample_rate=0.0,
                  flight_capacity=0)


def tracing_off():
    from repro import obs

    obs.disable()
    obs.get_tracer().set_exporters([])


def joined(results: List[dict], key: str) -> list:
    """``key``'s list concatenated over the rounds of a traced run."""
    return [value for result in results for value in result[key]]


def replay_self_ms(before, after, kernels) -> float:
    """Mean replay time outside the kernels, from two ``runtime_stats()``
    snapshots of the same profiled runtime."""
    replays = after["replays"] - before["replays"]
    mean_ms = (after["replay_time_s"] - before["replay_time_s"]) * 1e3 / max(replays, 1)
    return mean_ms - kernels["kernel.total_ms"]


# -- training -------------------------------------------------------------------


def train_setup(spec, dataset, seed: int):
    """Model build, TT conversion, trainer construction and the first
    (capture) step: the span ``setup_s`` measures."""
    from repro.training.trainer import BPTTTrainer

    model = build_model(spec)
    state = model.state_dict()
    trainer = BPTTTrainer(model, train_config(spec), compile=True, optimize="O1")
    batches = Batches(dataset, spec["batch"], seed)
    x, y = batches.next()
    first = trainer.train_step(x, y)
    return model, trainer, batches, state, (x, y), first


def eager_loss(twin, spec, state, x, y) -> float:
    from repro.training.trainer import BPTTTrainer

    twin.load_state_dict(state)
    return float(BPTTTrainer(twin, train_config(spec)).train_step(x, y)["loss"])


def check_parity(tally: Tally, compiled_loss, reference: float) -> None:
    if compiled_loss is not None and not abs(compiled_loss - reference) <= LOSS_TOL:
        tally.fail("parity")


def train_loop(trainer, batches, tally: Tally, seconds: float, tracer) -> Dict[str, object]:
    steps: List[float] = []
    losses: List[float] = []
    samples = 0
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        with tracer.span("bench.data"):
            x, y = batches.next()
        begin = time.perf_counter()
        with tracer.span("bench.step"):
            loss = tally.run_step(trainer.train_step, x, y)
        steps.append((time.perf_counter() - begin) * 1e3)
        losses.append(loss)
        samples += len(y)
    return {"steps_ms": steps, "losses": losses, "samples": samples,
            "wall_s": time.perf_counter() - start}


def loss_final(losses) -> float:
    window = losses[:LOSS_STEPS]
    tail_part = [v for v in window[-max(1, len(window) // 10):] if v is not None]
    return float(np.mean(tail_part)) if tail_part else 0.0


def run_train(spec, args) -> Dict[str, object]:
    from repro.obs.trace import get_tracer

    dataset = make_dataset(spec, args.seed)
    setup_s, ctx = timed_setups(lambda: train_setup(spec, dataset, args.seed))
    model, trainer, batches, state0, (x0, y0), first = ctx
    tally = Tally()
    twin = build_model(spec)
    # Parity: the capture step and the first replayed step against eager steps
    # from the same state_dict().
    tally.attempted += 1
    check_parity(tally, first["loss"], eager_loss(twin, spec, state0, x0, y0))
    x1, y1 = batches.next()
    state1 = model.state_dict()
    check_parity(tally, tally.run_step(trainer.train_step, x1, y1),
                 eager_loss(twin, spec, state1, x1, y1))
    del twin
    allocs_after_warm = trainer.runtime_stats()["arena"]["allocated_buffers"]
    counts = model_counts(spec, model)
    if args.trace:
        metrics, plain = traced_train(spec, model, trainer, batches, tally, args, counts)
    else:
        reset_peak_rss()
        plain = train_loop(trainer, batches, tally, args.seconds, get_tracer())
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "throughput_per_s": plain["samples"] / plain["wall_s"],
            "p50_ms": p50(plain["steps_ms"]),
        }
    stats = trainer.runtime_stats()
    tail_ms, tail_pct = windowed_tail(plain["steps_ms"])
    info = {"step_tail_ms": tail_ms, "tail_pct": tail_pct, "steps": len(plain["steps_ms"]),
            "captures": stats["captures"], "replays": stats["replays"]}
    steady_allocs = stats["arena"]["allocated_buffers"] - allocs_after_warm
    if args.trace:
        metrics["runtime.arena.steady_allocs"] = float(steady_allocs)
    else:
        info["train.loss_final"] = loss_final(plain["losses"])
    return {"metrics": metrics, "tally": tally, "info": info,
            "backend": stats["backend"]["active"],
            "violations": invariant_violations(spec, counts, steady_allocs, info)}


def traced_train(spec, model, trainer, batches, tally, args, counts):
    """Per-layer metrics and the untraced steps they are compared with.  Three
    phases alternate for TRACE_ROUNDS rounds: the trainer untraced, the same
    trainer under tracing (spans, self times, tracing overhead), and a
    profiled trainer on the same model, untraced (kernel table), so
    per-kernel timing never counts as tracing overhead."""
    from repro.metrics.profiler import summarize_runtime
    from repro.obs.trace import get_tracer
    from repro.training.trainer import BPTTTrainer

    profiled = BPTTTrainer(model, train_config(spec), compile=True, optimize="O1",
                           profile=True)
    tally.run_step(profiled.train_step, *batches.next())  # capture
    before = profiled.runtime_stats()
    collector = SpanCollector()
    block = args.seconds / (3 * TRACE_ROUNDS)
    plain: List[dict] = []
    traced: List[dict] = []
    kerneled: List[dict] = []
    for _ in range(TRACE_ROUNDS):
        plain.append(train_loop(trainer, batches, tally, block, get_tracer()))
        tracing(collector)
        try:
            traced.append(train_loop(trainer, batches, tally, block, get_tracer()))
        finally:
            tracing_off()
        kerneled.append(train_loop(profiled, batches, tally, block, get_tracer()))
    after = profiled.runtime_stats()
    replays = after["replays"] - before["replays"]
    kernels = kernel_metrics(kernel_table(before["kernels"], after["kernels"], replays))
    stats = summarize_runtime(trainer)
    steps = [s for s in collector.spans if s.name == "train.step"]
    replay = collector.durations_ms("runtime.replay")
    optim = collector.durations_ms("train.optimizer")
    training_self = [(s.duration_s - sum(c.duration_s for c in s.children)) * 1e3
                     for s in steps]
    layer_sum = p50(training_self) + p50(replay) + p50(optim)
    plain_steps = joined(plain, "steps_ms")
    untraced = p50(plain_steps)
    write_spans(collector, args)
    metrics = {
        "data.wait_ms": p50(collector.durations_ms("bench.data")),
        "optim.step_ms": p50(optim),
        "training.self_ms": p50(training_self),
        "runtime.replay_ms": p50(replay),
        "runtime.self_ms": replay_self_ms(before, after, kernels),
        "runtime.capture_s": stats["capture_time_s"],
        "runtime.captures": float(stats["captures"]),
        "runtime.replays": float(stats["replays"]),
        "runtime.replay_frac": stats["replays"] / (stats["replays"] + stats["captures"]),
        "runtime.arena.high_water_mb": stats["arena"]["bytes_high_water"] / 2 ** 20,
        "runtime.macs_per_s": counts["tt.fwd_macs"] * spec["batch"] * (1 + BWD_FACTOR)
        / stats["replay_latency"]["p50_s"],
        "tail_ms": windowed_tail(plain_steps)[0],
        "trace.overhead_frac": p50(joined(traced, "steps_ms")) / untraced - 1.0,
        "trace.profile_overhead_frac": p50(joined(kerneled, "steps_ms")) / untraced - 1.0,
        "trace.untraced_p50_ms": untraced,
        "trace.layer_sum_ms": layer_sum,
        "trace.layer_sum_gap_frac": abs(layer_sum - untraced) / untraced,
    }
    metrics.update(kernels)
    return metrics, {"steps_ms": plain_steps}


# -- serving --------------------------------------------------------------------


def serve_setup(spec, state):
    """Build, load the trained weights, merge/register (compiled O2) and warm
    every padded bucket: the span ``setup_s`` measures."""
    from repro.serve.server import InferenceServer

    model = build_model(spec)
    model.load_state_dict(state)
    server = InferenceServer()
    engine = server.register(SERVE_NAME, model, compile=True)
    for size in BUCKETS:
        engine.infer(np.zeros((size, 3, 32, 32), dtype=np.float32))
    return model, server, engine


def request_order(n: int, distinct_start: int, rng) -> tuple:
    """Pool indices for ``n`` requests: a REPEAT_SHARE of them re-send one of
    the last REPEAT_WINDOW distinct samples, the rest are fresh samples."""
    order = np.empty(n, dtype=np.int64)
    recent: List[int] = []
    fresh = distinct_start
    repeats = rng.random(n) < REPEAT_SHARE
    picks = rng.random(n)
    for i in range(n):
        if repeats[i] and recent:
            window = recent[-REPEAT_WINDOW:]
            order[i] = window[int(picks[i] * len(window))]
        else:
            order[i] = fresh % POOL_SAMPLES
            recent.append(order[i])
            fresh += 1
    return order, int(repeats.sum()) / n, fresh


def _stamp(done: np.ndarray, index: int, _future) -> None:
    done[index] = time.perf_counter()


class OpenLoop:
    """One generator thread sending single-sample requests on a Poisson
    schedule; latency is timed from each request's due time."""

    def __init__(self, server, pool: np.ndarray, references: np.ndarray, seed: int):
        self.server = server
        self.pool = pool
        self.references = references
        self.rng = np.random.default_rng(seed)
        self.fresh = 0

    def run(self, name: str, rate: float, seconds: float, tally: Tally) -> Dict[str, object]:
        n = max(1, int(round(rate * seconds)))
        due = np.cumsum(self.rng.exponential(1.0 / rate, n))
        order, repeat_frac, self.fresh = request_order(n, self.fresh, self.rng)
        cache = self.server.cache(name)
        cache.clear()
        stats = self.server.stats(name)
        stats.reset()
        hits0, misses0 = cache.hits, cache.misses
        sent = np.zeros(n)
        done = np.full(n, np.nan)
        futures = [None] * n
        start = time.perf_counter() + 0.005
        for i in range(n):
            delay = start + due[i] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent[i] = time.perf_counter()
            try:
                future = self.server.submit(name, self.pool[order[i]])
            except Exception:  # noqa: BLE001 - a refused request is counted
                continue
            future.add_done_callback(functools.partial(_stamp, done, i))
            futures[i] = future
        wait([f for f in futures if f is not None], timeout=DRAIN_SECONDS)
        latency = (done - (start + due)) * 1e3
        for i, future in enumerate(futures):
            if not tally.check_response(future, self.references[order[i]]):
                latency[i] = math.inf
        latency[np.isnan(latency)] = math.inf
        lookups = (cache.hits - hits0) + (cache.misses - misses0)
        return {
            "latency_ms": latency.tolist(),
            "lag_ms": ((sent - (start + due)) * 1e3).tolist(),
            "failed": int(np.isinf(latency).sum()),
            "fill": stats.mean_batch_fill(),
            "hits": cache.hits - hits0,
            "lookups": lookups,
            "repeat_frac": repeat_frac,
            "window": (start, time.perf_counter()),
        }


def saturation_rps(loop: OpenLoop, tally: Tally, seconds: float) -> float:
    """Requests answered per second by SATURATION_CLIENTS clients in lock
    step: each round sends one fresh sample per client and waits for every
    answer, so the batcher can gather a full batch each round.  The median
    over rounds, so one round stalled by the host does not set it."""
    server = loop.server
    server.cache(SERVE_NAME).clear()
    rates = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        start = time.perf_counter()
        picks = [(loop.fresh + j) % POOL_SAMPLES for j in range(SATURATION_CLIENTS)]
        loop.fresh += SATURATION_CLIENTS
        futures = []
        for index in picks:
            try:
                futures.append(server.submit(SERVE_NAME, loop.pool[index]))
            except Exception:  # noqa: BLE001 - a refused request is counted
                futures.append(None)
        wait([f for f in futures if f is not None], timeout=DRAIN_SECONDS)
        answered = sum(tally.check_response(future, loop.references[index])
                       for index, future in zip(picks, futures))
        rates.append(answered / (time.perf_counter() - start))
    return p50(rates)


def references(engine, model, pool: np.ndarray):
    """Per-sample reference logits: the served engine called directly, and the
    share of samples where it differs from the eager merged engine."""
    from repro.serve.engine import InferenceEngine

    direct = np.concatenate([engine.infer(pool[i:i + 16])
                             for i in range(0, len(pool), 16)])
    eager = InferenceEngine(model, compile=False)
    reference = np.concatenate([eager.infer(pool[i:i + 64])
                                for i in range(0, PARITY_SAMPLES, 64)])
    errors = np.abs(direct[:PARITY_SAMPLES] - reference).max(axis=1)
    return direct, float((errors > LOGIT_TOL).mean())


def bucket_ms(engine, size: int, reps: int = 7) -> float:
    batch = np.zeros((size, 3, 32, 32), dtype=np.float32)
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        engine.infer(batch)
        times.append((time.perf_counter() - start) * 1e3)
    return p50(times)


def run_serve(spec, args) -> Dict[str, object]:
    from repro.data.synthetic import make_static_image_dataset
    from repro.training.trainer import BPTTTrainer

    tally = Tally()
    # The served model is the train-ptt-static model after PREP_STEPS compiled
    # steps; an untrained model emits no output spikes and all-zero logits.
    trained = build_model(spec)
    trainer = BPTTTrainer(trained, train_config(spec), compile=True, optimize="O1")
    batches = Batches(make_dataset(spec, args.seed), spec["batch"], args.seed)
    for _ in range(PREP_STEPS):
        tally.run_step(trainer.train_step, *batches.next())
    state = trained.state_dict()
    del trained, trainer, batches
    pool = make_static_image_dataset(POOL_SAMPLES, NUM_CLASSES, 3, 32, 32,
                                     seed=args.seed + 1).images
    setup_s, (model, server, engine) = timed_setups(
        lambda: serve_setup(spec, state), teardown=lambda built: built[1].close())
    try:
        direct, mismatch = references(engine, model, pool)
        loop = OpenLoop(server, pool, direct, args.seed + 2)
        counts = model_counts(spec, model)
        allocs_after_warm = engine.runtime_stats()["arena"]["allocated_buffers"]
        info = {"eager_mismatch_frac": mismatch}
        if args.trace:
            metrics = traced_serve(args, server, engine, model, loop, tally, counts, info)
        else:
            reset_peak_rss()
            low = loop.run(SERVE_NAME, LOW_RPS, 0.8 * args.seconds, tally)
            metrics = {
                "setup_s": setup_s,
                "throughput_per_s": saturation_rps(loop, tally, 0.2 * args.seconds),
                "p50_ms": p50(low["latency_ms"]),
                "peak_rss_mb": peak_rss_mb(),
            }
            tail_ms, tail_pct = windowed_tail(low["latency_ms"])
            info.update({"serve_tail_ms.low": tail_ms, "tail_pct": tail_pct,
                         "requests_low": len(low["latency_ms"]),
                         "serve.repeat_frac": low["repeat_frac"]})
        stats = engine.runtime_stats()
        info.update({"captures": stats["captures"], "replays": stats["replays"]})
    finally:
        server.close()
    steady_allocs = stats["arena"]["allocated_buffers"] - allocs_after_warm
    if args.trace:
        metrics["runtime.arena.steady_allocs"] = float(steady_allocs)
    violations = invariant_violations(spec, counts, steady_allocs, info)
    if mismatch > EAGER_MISMATCH_MAX:
        violations.append(f"{mismatch:.1%} of samples differ from the eager engine")
    return {"metrics": metrics, "tally": tally, "info": info,
            "backend": stats["backend"]["active"], "violations": violations}


def traced_serve(args, server, engine, model, loop, tally, counts, info) -> Dict[str, float]:
    """Per-layer metrics.  Five phases alternate for TRACE_ROUNDS rounds: 40
    and 100 rps on the served engine untraced, the same two rates on it under
    tracing (spans, self times, tracing overhead), and 40 rps untraced on a
    profiled engine of the same model (kernel table), so per-kernel timing
    never counts as tracing overhead."""
    profiled_name = SERVE_NAME + "-profiled"
    profiled = server.register(profiled_name, model, compile=True, profile=True)
    for size in BUCKETS:
        profiled.infer(np.zeros((size, 3, 32, 32), dtype=np.float32))
    before = profiled.runtime_stats()
    collector = SpanCollector()
    block = args.seconds / (5 * TRACE_ROUNDS)
    runs: Dict[str, List[dict]] = {"low": [], "high": [], "low_t": [], "high_t": [],
                                   "low_p": []}
    for _ in range(TRACE_ROUNDS):
        runs["low"].append(loop.run(SERVE_NAME, LOW_RPS, block, tally))
        runs["high"].append(loop.run(SERVE_NAME, HIGH_RPS, block, tally))
        tracing(collector)
        try:
            runs["low_t"].append(loop.run(SERVE_NAME, LOW_RPS, block, tally))
            runs["high_t"].append(loop.run(SERVE_NAME, HIGH_RPS, block, tally))
        finally:
            tracing_off()
        runs["low_p"].append(loop.run(profiled_name, LOW_RPS, block, tally))
    after = profiled.runtime_stats()
    kernels = kernel_metrics(kernel_table(before["kernels"], after["kernels"],
                                          after["replays"] - before["replays"]))
    buckets = {f"serve.engine.infer_ms.b{size}": bucket_ms(engine, size) for size in BUCKETS}
    write_spans(collector, args)

    # Self time of each layer on a traced low-rate request: queue wait, the
    # batch (stack/scatter), engine.infer (encode/pad) and the replay.
    low_windows = [run["window"] for run in runs["low_t"]]
    high_windows = [run["window"] for run in runs["high_t"]]
    parts = {"queue": [], "batch": [], "engine": [], "replay": []}
    for root in collector.spans:
        if root.name != "serve.request" or not within(root.start_perf, low_windows):
            continue
        durations = {"queue": 0.0, "batch": 0.0, "engine": 0.0, "replay": 0.0}
        for span in root.walk():
            if span.name == "serve.queue_wait":
                durations["queue"] = span.duration_s
            elif span.name == "serve.batch":
                durations["batch"] += span.duration_s
            elif span.name == "engine.infer":
                durations["engine"] += span.duration_s
            elif span.name == "runtime.replay":
                durations["replay"] += span.duration_s
        parts["queue"].append(durations["queue"] * 1e3)
        parts["batch"].append((durations["batch"] - durations["engine"]) * 1e3)
        parts["engine"].append((durations["engine"] - durations["replay"]) * 1e3)
        parts["replay"].append(durations["replay"] * 1e3)
    layer_sum = p50(joined(runs["low_t"], "lag_ms")) + sum(p50(v) for v in parts.values())
    low = joined(runs["low"], "latency_ms")
    high = joined(runs["high"], "latency_ms")
    lag = joined(runs["low"], "lag_ms") + joined(runs["high"], "lag_ms")
    untraced = p50(low)
    queue_high = collector.durations_ms("serve.queue_wait", high_windows)
    traced = runs["low_t"] + runs["high_t"]
    lookups = sum(run["lookups"] for run in traced)
    stats = engine.runtime_stats()
    info["serve.repeat_frac"] = float(np.mean([run["repeat_frac"] for run in traced]))
    metrics = {
        "runtime.replay_ms": p50(collector.durations_ms("runtime.replay", low_windows)),
        "runtime.self_ms": replay_self_ms(before, after, kernels),
        "runtime.capture_s": stats["capture_time_s"],
        "runtime.captures": float(stats["captures"]),
        "runtime.replays": float(stats["replays"]),
        "runtime.replay_frac": stats["replays"] / (stats["replays"] + stats["captures"]),
        "runtime.arena.high_water_mb": stats["arena"]["bytes_high_water"] / 2 ** 20,
        # The merged model runs dense kernels: dense MACs at the full bucket.
        "runtime.macs_per_s": counts["_dense_macs"] * 16
        / (buckets["serve.engine.infer_ms.b16"] / 1e3),
        "serve.batch.fill_mean": float(np.mean([run["fill"] for run in runs["high_t"]])),
        "serve.queue_wait_ms.p50": p50(queue_high),
        "serve.queue_wait_ms.tail": windowed_tail(queue_high)[0],
        "serve.batch.self_ms": p50(parts["batch"]),
        "serve.engine.self_ms": p50(parts["engine"]),
        "serve.cache.hit_frac": sum(run["hits"] for run in traced) / max(lookups, 1),
        "serve.gen_lag_ms.p50": p50(lag),
        "serve.gen_lag_ms.max": float(max(lag)),
        "serve.high.p50_ms": p50(high),
        "serve.high.tail_ms": windowed_tail(high)[0],
        "tail_ms": windowed_tail(low)[0],
        "trace.overhead_frac": p50(joined(runs["low_t"], "latency_ms")) / untraced - 1.0,
        "trace.profile_overhead_frac": p50(joined(runs["low_p"], "latency_ms")) / untraced
        - 1.0,
        "trace.untraced_p50_ms": untraced,
        "trace.layer_sum_ms": layer_sum,
        "trace.layer_sum_gap_frac": abs(layer_sum - untraced) / untraced,
    }
    metrics.update(buckets)
    metrics.update(kernels)
    return metrics


# -- entry point ----------------------------------------------------------------


def write_spans(collector: SpanCollector, args) -> None:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    collector.write(str(out / f"spans-{args.workload}-seed{args.seed}.jsonl"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    huge_pages = disable_huge_pages()
    assert_clean_state()
    spec = WORKLOADS[args.workload]
    run = run_train if spec["kind"] == "train" else run_serve
    result = run(spec, args)
    tally = result["tally"]
    incorrect = {"parity", "wrong_logits", "nonfinite_loss"} & set(tally.causes)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "correct": not incorrect and not result["violations"],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failure_causes": tally.causes,
        "violations": result["violations"],
        "metrics": result["metrics"],
        "info": result["info"],
        "env": environment(args.seed, result["backend"], huge_pages),
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
