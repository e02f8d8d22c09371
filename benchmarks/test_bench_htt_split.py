"""HTT time split: basic time slices vs the previous gather/scatter wiring.

``htt_sequence_wiring`` splits the conv1 output into its full and half
timesteps and merges the two branch outputs back into time order.  It now
does both with basic slices of the time axis plus one concatenate, and the
getitem backward writes its gradient instead of calling ``np.add.at``.  The
benchmark replays one compiled O1 forward + backward of a single HTT
convolution, the four sub-convolutions included, at the ``train-htt-event``
layer1 shape (T=6, batch 8, 16x16, 16 channels, rank 8, schedule ``FFFFHH``)
against
``_previous_htt_sequence_wiring`` — a copy of the wiring it replaced
(integer-list gathers and an ``argsort`` reorder, each with an
``np.add.at`` backward).  Both sides alternate inside every trial
(:func:`conftest.ab_median`); the ratio is recorded as ``htt_split.speedup``.

Run: ``python -m pytest benchmarks/test_bench_htt_split.py -q -s``
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Function, Tensor
from repro.nn.module import fold_time, unfold_time
from repro.runtime import GraphCapture, compile_plan
from repro.tt.layers import HTTConv2d, htt_sequence_wiring, parse_htt_schedule

from conftest import ab_median, record_bench

#: ``train-htt-event`` layer1: (T, N, H, W, C), rank and schedule.
SHAPE = (6, 8, 16, 16, 16)
RANK = 8
SCHEDULE = "FFFFHH"
MIN_SPEEDUP = 1.5


class _Gather(Function):
    """The previous getitem: ``x[index]`` with an ``np.add.at`` backward."""

    def __init__(self, index):
        self.index = index

    def forward(self, x):
        self._like = x
        return x[self.index]

    def backward(self, grad_output):
        full = np.zeros_like(self._like)
        np.add.at(full, self.index, grad_output)
        return full


def _previous_htt_sequence_wiring(conv1, conv2, conv3, conv4, x_seq, flags):
    """The gather/scatter wiring for a mixed schedule, kept for A/B."""
    timesteps = x_seq.shape[0]
    shared = unfold_time(conv1(fold_time(x_seq)), timesteps)
    full_steps = [t for t, half in enumerate(flags) if not half]
    half_steps = [t for t, half in enumerate(flags) if half]
    shared_full = fold_time(_Gather.apply(shared, index=full_steps))
    out_full = unfold_time(conv4(conv2(shared_full) + conv3(shared_full)), len(full_steps))
    out_half = unfold_time(conv4(fold_time(_Gather.apply(shared, index=half_steps))),
                           len(half_steps))
    combined = Tensor.concatenate([out_full, out_half], axis=0)
    order = np.argsort(np.asarray(full_steps + half_steps, dtype=np.int64))
    return _Gather.apply(combined, index=list(order))


def _compiled_step(wiring, layer, x, upstream):
    """One HTT conv forward + backward captured into an O1 training plan.

    ``x`` is a gradient-carrying leaf, as the spikes feeding a layer inside
    the network are, so conv1 computes its input gradient too.
    """
    steps = [conv.forward_channels_last for conv in layer.sub_convolutions()]
    x_t = Tensor(x, requires_grad=True)
    with GraphCapture() as capture:
        out = wiring(*steps, x_t, parse_htt_schedule(SCHEDULE))
        capture.mark_loss((out * Tensor(upstream)).sum())
        capture.mark_output(out, "out")
    plan = compile_plan(capture, optimize="O1")
    plan.backward_from_capture()
    return plan, x_t


def test_htt_split_speedup(bench_rng):
    layer = HTTConv2d(SHAPE[-1], SHAPE[-1], 3, rank=RANK, timesteps=SHAPE[0],
                      schedule=SCHEDULE, rng=bench_rng)
    x = bench_rng.standard_normal(SHAPE).astype(np.float32)
    upstream = bench_rng.standard_normal(SHAPE).astype(np.float32)
    previous = _compiled_step(_previous_htt_sequence_wiring, layer, x, upstream)
    current = _compiled_step(htt_sequence_wiring, layer, x, upstream)

    def replay(side):
        plan, x_t = side
        for tensor in [x_t] + list(layer.parameters()):
            tensor.zero_grad()
        (out,) = plan.replay({})
        return out.copy(), [t.grad.copy() for t in [x_t] + list(layer.parameters())]

    # Same numbers before timing: only the data movement changed.
    (out_a, grads_a), (out_b, grads_b) = replay(previous), replay(current)
    np.testing.assert_array_equal(out_b, out_a)
    for grad_a, grad_b in zip(grads_a, grads_b):
        np.testing.assert_array_equal(grad_b, grad_a)

    previous_s, current_s = ab_median(lambda: previous[0].replay({}),
                                      lambda: current[0].replay({}), calls=5, trials=9)
    speedup = previous_s / current_s
    print(f"\nHTT {SCHEDULE} conv fwd+bwd at {SHAPE} rank {RANK} (compiled O1): "
          f"previous {previous_s * 1e3:.2f} ms, current {current_s * 1e3:.2f} ms, "
          f"speedup {speedup:.2f}x")
    record_bench("htt_split", {
        "previous_ms": previous_s * 1e3,
        "current_ms": current_s * 1e3,
        "speedup": speedup,
    })
    assert speedup >= MIN_SPEEDUP, f"htt_split speedup {speedup:.2f}x < {MIN_SPEEDUP}x"
