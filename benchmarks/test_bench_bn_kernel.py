"""Sequence batch-norm kernel: channel-sum rewrite vs the previous kernel.

``BatchNormSequenceFunction`` serves eager training, the compiled
``bn_seq``/``bn_seq_cached`` replay kernels and tdBN.  The benchmark times
one forward + backward at every batch-norm shape of the VGG-9 PTT training
workload (width 0.25, T=4, batch 16, 32x32 input), with a workspace
installed as in compiled replay, against ``_PreviousBatchNormSequence`` — a
copy of the training path of the kernel it replaced (strided ``np.mean``
reductions and the ``xhat`` formulation).  Both sides alternate inside every trial
(:func:`conftest.ab_median`); the ratio is recorded as ``bn_seq.speedup``.

Run: ``python -m pytest benchmarks/test_bench_bn_kernel.py -q -s``
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Function, Workspace, ws_buf
from repro.nn.layers import BatchNormSequenceFunction

from conftest import ab_median, record_bench

#: The six ``(T, N, H, W, C)`` batch-norm inputs of one VGG-9 PTT train step.
PTT_SHAPES = (
    (4, 16, 32, 32, 16),
    (4, 16, 16, 16, 32),
    (4, 16, 16, 16, 64),
    (4, 16, 8, 8, 64),
    (4, 16, 8, 8, 128),
    (4, 16, 4, 4, 128),
)
MIN_SPEEDUP = 1.5


class _PreviousBatchNormSequence(Function):
    """The pre-rewrite training kernel (channels-last, affine), kept for A/B."""

    def __init__(self, eps: float, gamma_scale: float = 1.0):
        self.eps = eps
        self.gamma_scale = gamma_scale
        self._axes = (1, 2, 3)

    def forward(self, x, weight, bias):
        mean = x.mean(axis=self._axes, keepdims=True)
        centered = ws_buf(self, "xhat", x.shape, x.dtype)
        np.subtract(x, mean, out=centered)
        squared = ws_buf(self, "sq", x.shape, x.dtype)
        np.multiply(centered, centered, out=squared)
        var = np.mean(squared, axis=self._axes, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = centered
        xhat *= inv_std
        self._xhat = xhat
        self._inv_std = inv_std
        self._weight = weight
        out = ws_buf(self, "out", x.shape, x.dtype)
        np.multiply(xhat, self.gamma_scale * weight.reshape(1, 1, 1, 1, -1), out=out)
        out += bias.reshape(1, 1, 1, 1, -1)
        return out

    def backward(self, grad_output):
        xhat = self._xhat
        param_axes = (0, 1, 2, 3)
        product = ws_buf(self, "sq", xhat.shape, xhat.dtype)
        np.multiply(grad_output, xhat, out=product)
        grad_weight = self.gamma_scale * product.sum(axis=param_axes)
        grad_bias = grad_output.sum(axis=param_axes)
        grad_xhat = ws_buf(self, "gxh", grad_output.shape, grad_output.dtype)
        np.multiply(grad_output, self.gamma_scale * self._weight.reshape(1, 1, 1, 1, -1),
                    out=grad_xhat)
        grad_mean = grad_xhat.mean(axis=self._axes, keepdims=True)
        np.multiply(grad_xhat, xhat, out=product)
        grad_proj = product.mean(axis=self._axes, keepdims=True)
        grad_xhat -= grad_mean
        np.multiply(xhat, grad_proj, out=product)
        grad_xhat -= product
        grad_xhat *= self._inv_std
        return grad_xhat, grad_weight, grad_bias


def _contexts(make):
    contexts = []
    for _ in PTT_SHAPES:
        ctx = make()
        ctx.set_workspace(Workspace())
        contexts.append(ctx)
    return contexts


def test_bn_seq_kernel_speedup(bench_rng):
    cases = []
    for shape in PTT_SHAPES:
        channels = shape[-1]
        cases.append((bench_rng.standard_normal(shape).astype(np.float32),
                      bench_rng.uniform(0.5, 1.5, channels).astype(np.float32),
                      bench_rng.standard_normal(channels).astype(np.float32),
                      bench_rng.standard_normal(shape).astype(np.float32)))
    previous = _contexts(lambda: _PreviousBatchNormSequence(1e-5))
    current = _contexts(lambda: BatchNormSequenceFunction(
        eps=1e-5, training=True, channels_last=True))

    def step(contexts):
        results = []
        for ctx, (x, weight, bias, grad) in zip(contexts, cases):
            out = ctx.forward(x, weight, bias)
            results.append((out, ctx.backward(grad)))
        return results

    # Same numbers before timing: the rewrite is a refactoring of the math.
    for (out_a, grads_a), (out_b, grads_b) in zip(step(previous), step(current)):
        np.testing.assert_allclose(out_b, out_a, rtol=1e-4, atol=1e-4)
        for grad_a, grad_b in zip(grads_a, grads_b):
            np.testing.assert_allclose(grad_b, grad_a, rtol=1e-3, atol=1e-3)

    previous_s, current_s = ab_median(lambda: step(previous), lambda: step(current),
                                      calls=3, trials=9)
    speedup = previous_s / current_s
    print(f"\nbn_seq fwd+bwd over the {len(PTT_SHAPES)} VGG-9 PTT shapes: "
          f"previous {previous_s * 1e3:.1f} ms, current {current_s * 1e3:.1f} ms, "
          f"speedup {speedup:.2f}x")
    record_bench("bn_seq", {
        "previous_ms": previous_s * 1e3,
        "current_ms": current_s * 1e3,
        "speedup": speedup,
    })
    assert speedup >= MIN_SPEEDUP, f"bn_seq speedup {speedup:.2f}x < {MIN_SPEEDUP}x"
