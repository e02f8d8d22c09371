"""Measurement helpers shared by the workloads: percentiles, failure
accounting, the in-memory span collector and kernel grouping.

Nothing here imports ``repro``; the self-test in ``run.py`` exercises the
failure accounting without building a model.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Percentiles the tail rule chooses from when a series is shorter than one
#: window.  A fixed ladder keeps the reported percentile comparable between
#: runs of different lengths.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9)
#: A tail percentile must have at least this many samples beyond it.
TAIL_MIN_BEYOND = 10
#: Operations per tail window (see :func:`windowed_tail`), and the percentile
#: taken in each: the highest with TAIL_MIN_BEYOND operations beyond it.
TAIL_WINDOW = 100
TAIL_PCT = 90.0
#: Served logits must match their reference within this absolute tolerance.
LOGIT_TOL = 1e-5
#: A compiled step's loss must match the eager step within this tolerance.
LOSS_TOL = 1e-5


def p50(values: Sequence[float]) -> float:
    return float(np.median(values)) if len(values) else 0.0


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(value, percentile)``: the highest ladder percentile with at least
    :data:`TAIL_MIN_BEYOND` samples beyond it (a failed operation is ``inf``,
    so it counts as a miss of any limit)."""
    n = len(values)
    if n == 0:
        return 0.0, 0.0
    chosen = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) >= TAIL_MIN_BEYOND * 100.0:
            chosen = pct
    return float(np.percentile(np.asarray(values, dtype=np.float64), chosen,
                               method="lower")), chosen


def windowed_tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(value, percentile)``: the :data:`TAIL_PCT` percentile of each
    consecutive window of :data:`TAIL_WINDOW` operations, median over the
    complete windows.  A fixed window keeps the percentile the same however
    many operations a run completes, and the median keeps one disturbed
    window from setting it.  A series shorter than one window falls back to
    :func:`tail`."""
    windows = [np.asarray(values[i:i + TAIL_WINDOW], dtype=np.float64)
               for i in range(0, len(values) - TAIL_WINDOW + 1, TAIL_WINDOW)]
    if not windows:
        return tail(values)
    return float(np.median([np.percentile(window, TAIL_PCT, method="lower")
                            for window in windows])), TAIL_PCT


class Tally:
    """Attempted / failed operation counts, split by failure cause."""

    def __init__(self) -> None:
        self.attempted = 0
        self.causes: Dict[str, int] = {}

    @property
    def failed(self) -> int:
        return sum(self.causes.values())

    def fail(self, cause: str) -> None:
        self.causes[cause] = self.causes.get(cause, 0) + 1

    def run_step(self, step, *args) -> Optional[float]:
        """Run one train step; returns its loss, or ``None`` when it failed
        (raised or returned a non-finite loss)."""
        self.attempted += 1
        try:
            loss = float(step(*args)["loss"])
        except Exception:  # noqa: BLE001 - a failed step is counted, not fatal
            self.fail("step_raised")
            return None
        if not math.isfinite(loss):
            self.fail("nonfinite_loss")
            return None
        return loss

    def check_response(self, future, reference: np.ndarray) -> bool:
        """Count one served request: it must resolve without error to logits
        within :data:`LOGIT_TOL` of ``reference``.  ``future`` is ``None``
        when the server refused the request."""
        self.attempted += 1
        if future is None:
            self.fail("refused")
            return False
        if not future.done():
            self.fail("timeout")
            return False
        if future.exception() is not None:
            self.fail("raised")
            return False
        logits = np.asarray(future.result())
        if logits.shape != reference.shape or not (
                np.abs(logits - reference).max() <= LOGIT_TOL):
            self.fail("wrong_logits")
            return False
        return True


def within(t: float, windows) -> bool:
    return any(start <= t < end for start, end in windows)


class SpanCollector:
    """``repro.obs`` exporter that keeps every finished span in memory."""

    def __init__(self) -> None:
        self.spans: List = []

    def export(self, span) -> None:
        self.spans.append(span)

    def durations_ms(self, name: str, windows=None) -> List[float]:
        """Durations of the spans called ``name``; with ``windows``, only of
        those starting inside one of its ``(start, end)`` perf-counter spans."""
        return [s.duration_s * 1e3 for s in self.spans
                if s.name == name and (windows is None or within(s.start_perf, windows))]

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict(), default=str) + "\n")


#: Op-kind groups of the profiled kernel labels (checked in order).
KERNEL_KINDS = (
    ("bn", ("bn_", "batchnorm")),
    ("maxpool", ("maxpool",)),
    ("conv", ("conv",)),
    ("lif", ("lif",)),
    ("slice", ("getitem",)),
    ("concat", ("concatenate",)),
)


def kernel_kind(label: str) -> str:
    op = label.split("@", 1)[0].lower()
    for kind, needles in KERNEL_KINDS:
        if any(needle in op for needle in needles):
            return kind
    return "other"


def kernel_table(before: Dict[str, dict], after: Dict[str, dict],
                 per: int) -> Dict[str, float]:
    """Per-operation kernel milliseconds by ``kind.direction`` from two
    ``runtime_stats()["kernels"]`` snapshots taken ``per`` replays apart."""
    table: Dict[str, float] = {}
    for label, entry in after.items():
        seconds = entry["seconds"] - before.get(label, {}).get("seconds", 0.0)
        direction = "bwd" if label.startswith("bwd:") else "fwd"
        key = f"{kernel_kind(label.removeprefix('bwd:'))}.{direction}"
        table[key] = table.get(key, 0.0) + seconds * 1e3 / max(per, 1)
    return table


def kernel_metrics(table: Dict[str, float]) -> Dict[str, float]:
    """Flatten a :func:`kernel_table` into the ``kernel.*`` per-layer names
    (ms per operation and share of all kernel time)."""
    total = sum(table.values()) or 1.0
    out: Dict[str, float] = {}
    for kind in ("bn", "maxpool", "slice", "conv", "lif"):
        for direction in ("fwd", "bwd"):
            ms = table.get(f"{kind}.{direction}", 0.0)
            out[f"kernel.{kind}.{direction}_ms"] = ms
            out[f"kernel.{kind}.{direction}_share"] = ms / total
    for kind in ("concat", "other"):
        ms = table.get(f"{kind}.fwd", 0.0) + table.get(f"{kind}.bwd", 0.0)
        out[f"kernel.{kind}_ms"] = ms
        out[f"kernel.{kind}_share"] = ms / total
    out["kernel.total_ms"] = sum(table.values())
    return out


def selftest() -> List[str]:
    """Feed the failure accounting deliberately bad operations; returns the
    list of problems (empty when every bad operation was counted)."""
    from concurrent.futures import Future

    problems: List[str] = []
    tally = Tally()

    def good_step(x, y):
        return {"loss": 0.5}

    def raising_step(x, y):
        raise RuntimeError("deliberate failure")

    def nan_step(x, y):
        return {"loss": float("nan")}

    for step in (good_step, raising_step, nan_step):
        tally.run_step(step, None, None)
    reference = np.arange(10, dtype=np.float32)
    right, wrong, raised = Future(), Future(), Future()
    right.set_result(reference + 1e-7)
    wrong.set_result(reference + 1e-3)
    raised.set_exception(RuntimeError("deliberate failure"))
    for future in (right, wrong, raised, None, Future()):
        tally.check_response(future, reference)
    expected = {"step_raised": 1, "nonfinite_loss": 1, "wrong_logits": 1,
                "raised": 1, "refused": 1, "timeout": 1}
    if tally.attempted != 8 or tally.causes != expected:
        problems.append(f"failure accounting: attempted={tally.attempted} "
                        f"causes={tally.causes}, expected 8 and {expected}")
    value, pct = tail([1.0] * 190 + [100.0] * 10)
    if pct != 95.0 or value != 1.0:
        problems.append(f"tail rule: got p{pct}={value}, expected p95=1.0")
    if tail([1.0] * 99 + [math.inf])[0] != 1.0 or \
            tail([1.0] * 5 + [math.inf] * 15)[0] != math.inf:
        problems.append("tail rule: failed operations must count as misses")
    value, pct = windowed_tail([1.0] * 90 + [5.0] * 10 + [2.0] * 90 + [9.0] * 10
                               + [3.0] * 90 + [7.0] * 10 + [100.0] * 50)
    if (value, pct) != (2.0, 90.0):
        problems.append(f"windowed tail: got p{pct}={value}, expected p90=2.0")
    return problems
