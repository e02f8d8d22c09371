"""Tests for the standard layers: Conv2d, Linear, BatchNorm2d, pooling, dropout."""

import numpy as np
import pytest

from repro.autograd.tensor import Tensor
from repro.nn.layers import (
    AdaptiveAvgPool2d,
    AvgPool2d,
    BatchNorm2d,
    BatchNormSequenceFunction,
    Conv2d,
    Dropout,
    Flatten,
    Identity,
    Linear,
    MaxPool2d,
    ReLU,
    batch_norm_sequence,
)
from repro.nn import init
from repro.nn.module import Parameter
from repro.runtime import CompiledTrainStep
from repro.snn.loss import mean_output_cross_entropy


class TestConv2dLayer:
    def test_output_shape_square(self, rng, small_image_batch):
        conv = Conv2d(3, 8, 3, stride=1, padding=1)
        out = conv(Tensor(small_image_batch))
        assert out.shape == (2, 8, 8, 8)

    def test_output_shape_asymmetric(self, rng, small_image_batch):
        conv_v = Conv2d(3, 4, (3, 1), padding=(1, 0))
        conv_h = Conv2d(3, 4, (1, 3), padding=(0, 1))
        assert conv_v(Tensor(small_image_batch)).shape == (2, 4, 8, 8)
        assert conv_h(Tensor(small_image_batch)).shape == (2, 4, 8, 8)

    def test_same_padding_string(self, small_image_batch):
        conv = Conv2d(3, 4, 3, padding="same")
        assert conv.padding == (1, 1)
        assert conv(Tensor(small_image_batch)).shape[-2:] == (8, 8)

    def test_stride_downsamples(self, small_image_batch):
        conv = Conv2d(3, 4, 3, stride=2, padding=1)
        assert conv(Tensor(small_image_batch)).shape[-2:] == (4, 4)

    def test_bias_parameter_optional(self):
        assert Conv2d(3, 4, 3, bias=False).bias is None
        assert Conv2d(3, 4, 3, bias=True).bias is not None

    def test_invalid_channels(self):
        with pytest.raises(ValueError):
            Conv2d(0, 4, 3)

    def test_output_shape_helper(self):
        conv = Conv2d(3, 4, 3, stride=2, padding=1)
        assert conv.output_shape((32, 32)) == (16, 16)


class TestLinearLayer:
    def test_shapes_and_grad(self, rng):
        fc = Linear(6, 3)
        x = Tensor(rng.standard_normal((4, 6)).astype(np.float32), requires_grad=True)
        out = fc(x)
        assert out.shape == (4, 3)
        out.sum().backward()
        assert fc.weight.grad.shape == (3, 6)
        assert fc.bias.grad.shape == (3,)


class TestBatchNorm2d:
    def test_normalises_in_training(self, rng):
        bn = BatchNorm2d(4)
        x = Tensor(rng.standard_normal((8, 4, 5, 5)).astype(np.float32) * 3 + 2)
        out = bn(x)
        assert abs(out.data.mean()) < 1e-2
        assert abs(out.data.std() - 1.0) < 5e-2

    def test_running_stats_updated(self, rng):
        bn = BatchNorm2d(2, momentum=0.5)
        x = Tensor(np.ones((4, 2, 3, 3), dtype=np.float32) * 10)
        bn(x)
        assert np.all(bn.running_mean.data > 0)

    def test_eval_uses_running_stats(self, rng):
        bn = BatchNorm2d(2)
        x = Tensor(rng.standard_normal((8, 2, 4, 4)).astype(np.float32))
        for _ in range(20):
            bn(x)
        bn.eval()
        out_eval = bn(x)
        bn.train()
        out_train = bn(x)
        # After many updates the two paths should be close but computed differently.
        assert out_eval.shape == out_train.shape
        assert np.all(np.isfinite(out_eval.data))

    def test_rejects_non_4d(self):
        bn = BatchNorm2d(2)
        with pytest.raises(ValueError):
            bn(Tensor(np.ones((2, 2))))

    def test_gamma_init(self):
        bn = BatchNorm2d(3, gamma_init=0.5)
        np.testing.assert_allclose(bn.weight.data, np.full(3, 0.5))


# (T, N, H, W, C) with N*H*W = 105, not a power of two.
BN_SEQ_SHAPE = (3, 5, 3, 7, 4)
BN_EPS = 1e-5
BN_MOMENTUM = 0.1
GAMMA_SCALE = 1.7


def _bn_sequence_reference(x, grad, weight, bias, running_mean, running_var,
                           training, channels_last):
    """Float64 per-timestep batch norm: outputs, statistics and gradients."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if not channels_last:
        x, grad = np.moveaxis(x, 2, -1), np.moveaxis(grad, 2, -1)
    channels = x.shape[-1]
    affine = weight is not None
    gamma = GAMMA_SCALE * np.asarray(weight, np.float64) if affine else np.ones(channels)
    beta = np.asarray(bias, np.float64) if affine else np.zeros(channels)
    run_mean = running_mean.astype(np.float64)
    run_var = running_var.astype(np.float64)
    out, dx = np.empty_like(x), np.empty_like(x)
    means, variances = [], []
    dgamma, dbeta = np.zeros(channels), np.zeros(channels)
    for t in range(x.shape[0]):
        xt, gt = x[t].reshape(-1, channels), grad[t].reshape(-1, channels)
        if training:
            mean, var = xt.mean(axis=0), xt.var(axis=0)
        else:
            mean, var = running_mean.astype(np.float64), running_var.astype(np.float64)
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat = (xt - mean) * inv_std
        out[t] = (xhat * gamma + beta).reshape(x.shape[1:])
        g_xhat = gt * gamma
        if training:
            dxt = inv_std * (g_xhat - g_xhat.mean(axis=0)
                             - xhat * (g_xhat * xhat).mean(axis=0))
            run_mean = (1 - BN_MOMENTUM) * run_mean + BN_MOMENTUM * mean
            run_var = (1 - BN_MOMENTUM) * run_var + BN_MOMENTUM * var
        else:
            dxt = g_xhat * inv_std
        dx[t] = dxt.reshape(x.shape[1:])
        dgamma += GAMMA_SCALE * (gt * xhat).sum(axis=0)
        dbeta += gt.sum(axis=0)
        means.append(mean)
        variances.append(var)
    if not channels_last:
        out, dx = np.moveaxis(out, -1, 2), np.moveaxis(dx, -1, 2)
    return dict(out=out, dx=dx, dgamma=dgamma, dbeta=dbeta, mean=np.array(means),
                var=np.array(variances), running_mean=run_mean, running_var=run_var)


def _bn_sequence_inputs(channels_last, seed=0):
    rng = np.random.default_rng(seed)
    shape = BN_SEQ_SHAPE if channels_last else tuple(np.array(BN_SEQ_SHAPE)[[0, 1, 4, 2, 3]])
    channels = BN_SEQ_SHAPE[-1]
    # A per-channel offset and spread so centering actually matters.
    offset = rng.standard_normal(channels) * 3
    spread = rng.uniform(0.5, 2.0, channels)
    axis_shape = (1, 1, 1, 1, -1) if channels_last else (1, 1, -1, 1, 1)
    x = (rng.standard_normal(shape) * spread.reshape(axis_shape)
         + offset.reshape(axis_shape)).astype(np.float32)
    grad = rng.standard_normal(shape).astype(np.float32)
    weight = rng.uniform(0.5, 1.5, channels).astype(np.float32)
    bias = rng.standard_normal(channels).astype(np.float32)
    running_mean = rng.standard_normal(channels).astype(np.float32)
    running_var = rng.uniform(0.5, 2.0, channels).astype(np.float32)
    return x, grad, weight, bias, running_mean, running_var


class TestBatchNormSequenceFunction:
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("affine", [True, False])
    @pytest.mark.parametrize("channels_last", [True, False])
    def test_matches_float64_per_timestep_reference(self, channels_last, affine, training):
        x, grad, weight, bias, running_mean, running_var = _bn_sequence_inputs(channels_last)
        if not affine:
            weight = bias = None
        want = _bn_sequence_reference(x, grad, weight, bias, running_mean, running_var,
                                      training, channels_last)
        ctx = BatchNormSequenceFunction(
            eps=BN_EPS, training=training, running_mean=running_mean.copy(),
            running_var=running_var.copy(), gamma_scale=GAMMA_SCALE,
            channels_last=channels_last)
        arrays = (x, weight, bias) if affine else (x,)
        out = ctx.forward(*arrays)
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, want["out"], rtol=1e-5, atol=2e-5)
        if training:
            np.testing.assert_allclose(ctx.batch_mean, want["mean"], rtol=1e-5, atol=1e-5)
            np.testing.assert_allclose(ctx.batch_var, want["var"], rtol=1e-5, atol=1e-5)
            run_mean, run_var = running_mean.copy(), running_var.copy()
            ctx.update_running_stats(run_mean, run_var, BN_MOMENTUM)
            np.testing.assert_allclose(run_mean, want["running_mean"], rtol=1e-5, atol=1e-6)
            np.testing.assert_allclose(run_var, want["running_var"], rtol=1e-5, atol=1e-6)
        grad_before = grad.copy()
        grads = ctx.backward(grad)
        np.testing.assert_array_equal(grad, grad_before)
        np.testing.assert_allclose(grads[0], want["dx"], rtol=1e-4, atol=1e-5)
        if affine:
            assert len(grads) == 3
            np.testing.assert_allclose(grads[1], want["dgamma"], rtol=1e-4, atol=1e-3)
            np.testing.assert_allclose(grads[2], want["dbeta"], rtol=1e-4, atol=1e-3)
        else:
            assert len(grads) == 1

    @pytest.mark.parametrize("channels_last", [True, False])
    def test_reference_gradient_matches_finite_differences(self, channels_last):
        # The float64 kernel's input and weight gradients against central
        # differences of sum(out * grad), independent of the reference above.
        x, grad, weight, bias, running_mean, running_var = _bn_sequence_inputs(channels_last, 3)
        x = x[:, :2, ...].astype(np.float64)
        grad = grad[:, :2, ...].astype(np.float64)
        weight = weight.astype(np.float64)

        def objective(x_value, weight_value):
            ctx = BatchNormSequenceFunction(eps=BN_EPS, training=True,
                                            gamma_scale=GAMMA_SCALE,
                                            channels_last=channels_last)
            return float((ctx.forward(x_value, weight_value, bias) * grad).sum())

        ctx = BatchNormSequenceFunction(eps=BN_EPS, training=True, gamma_scale=GAMMA_SCALE,
                                        channels_last=channels_last)
        ctx.forward(x, weight, bias)
        dx, dgamma, _ = ctx.backward(grad)
        step = 1e-6
        rng = np.random.default_rng(4)
        for flat in rng.choice(x.size, 12, replace=False):
            index = np.unravel_index(flat, x.shape)
            bumped_up, bumped_down = x.copy(), x.copy()
            bumped_up[index] += step
            bumped_down[index] -= step
            numeric = (objective(bumped_up, weight) - objective(bumped_down, weight)) / (2 * step)
            assert dx[index] == pytest.approx(numeric, rel=1e-4, abs=1e-6)
        for channel in range(weight.size):
            up, down = weight.copy(), weight.copy()
            up[channel] += step
            down[channel] -= step
            numeric = (objective(x, up) - objective(x, down)) / (2 * step)
            assert dgamma[channel] == pytest.approx(numeric, rel=1e-4, abs=1e-6)

    @pytest.mark.parametrize("affine", [True, False])
    @pytest.mark.parametrize("channels_last", [True, False])
    def test_compiled_o1_replays_bit_exact_with_o0(self, channels_last, affine):
        # Fresh batches on every replay: a workspace buffer left stale from
        # the previous replay would make O1 drift from O0's fresh contexts.
        models = [_BatchNormProbe(channels_last, affine) for _ in range(2)]
        steps = [CompiledTrainStep(model, mean_output_cross_entropy, optimize=level)
                 for model, level in zip(models, ("O0", "O1"))]
        rng = np.random.default_rng(5)
        for step_index in range(4):       # one capture + three replays
            batch = _bn_sequence_inputs(channels_last, seed=10 + step_index)[0]
            labels = rng.integers(0, _BatchNormProbe.CLASSES, batch.shape[1])
            results = []
            for model, step in zip(models, steps):
                for param in model.parameters():
                    param.zero_grad()
                results.append(step.run(batch, labels))
            (loss0, logits0, _), (loss1, logits1, replayed) = results
            assert replayed == (step_index > 0)
            assert loss0 == loss1
            for got, want in zip(logits1, logits0):
                np.testing.assert_array_equal(got, want)
            for p0, p1 in zip(models[0].parameters(), models[1].parameters()):
                np.testing.assert_array_equal(p1.grad, p0.grad)
            np.testing.assert_array_equal(models[1].running_mean, models[0].running_mean)
            np.testing.assert_array_equal(models[1].running_var, models[0].running_var)


class _BatchNormProbe:
    """Duck-typed model: input gain -> sequence batch norm -> tanh -> linear.

    The learnable per-channel input gain puts the batch norm's input
    gradient on the parameter gradients the replay check compares.
    """

    CLASSES = 3

    def __init__(self, channels_last, affine):
        rng = np.random.default_rng(1)
        channels = BN_SEQ_SHAPE[-1]
        features = int(np.prod(BN_SEQ_SHAPE[2:]))
        self.channels_last = channels_last
        self.weight = Parameter(rng.uniform(0.5, 1.5, channels).astype(np.float32)) if affine else None
        self.bias = Parameter(rng.standard_normal(channels).astype(np.float32)) if affine else None
        gain_shape = (1, 1, 1, 1, channels) if channels_last else (1, 1, channels, 1, 1)
        self.gain = Parameter(rng.uniform(0.5, 1.5, gain_shape).astype(np.float32))
        self.head = Parameter((rng.standard_normal((features, self.CLASSES)) * 0.1).astype(np.float32))
        self.running_mean = np.zeros(channels, np.float32)
        self.running_var = np.ones(channels, np.float32)
        self.training = True
        self.timesteps = BN_SEQ_SHAPE[0]
        self.step_mode = "fused"

    def parameters(self):
        return [p for p in (self.gain, self.weight, self.bias, self.head) if p is not None]

    def run_timesteps(self, batch, step_mode=None):
        out = batch_norm_sequence(
            batch * self.gain, self.weight, self.bias, eps=BN_EPS, momentum=BN_MOMENTUM,
            training=True, running_mean=self.running_mean, running_var=self.running_var,
            gamma_scale=GAMMA_SCALE, channels_last=self.channels_last).tanh()
        return [out[t].reshape(batch.shape[1], -1) @ self.head for t in range(self.timesteps)]


class TestPoolingLayers:
    def test_avg_and_max_pool_layers(self, small_image_batch):
        assert AvgPool2d(2)(Tensor(small_image_batch)).shape == (2, 3, 4, 4)
        assert MaxPool2d(2)(Tensor(small_image_batch)).shape == (2, 3, 4, 4)

    def test_adaptive_pool_layer(self, small_image_batch):
        assert AdaptiveAvgPool2d(1)(Tensor(small_image_batch)).shape == (2, 3, 1, 1)


class TestMiscLayers:
    def test_flatten(self, small_image_batch):
        assert Flatten()(Tensor(small_image_batch)).shape == (2, 3 * 64)

    def test_identity(self, small_image_batch):
        x = Tensor(small_image_batch)
        assert Identity()(x) is x

    def test_relu_layer(self):
        out = ReLU()(Tensor(np.array([-1.0, 1.0])))
        np.testing.assert_allclose(out.data, [0.0, 1.0])

    def test_dropout_layer_respects_training_flag(self, rng):
        drop = Dropout(0.5, rng=np.random.default_rng(0))
        x = Tensor(np.ones((100,), dtype=np.float32))
        drop.eval()
        np.testing.assert_array_equal(drop(x).data, x.data)
        drop.train()
        assert not np.array_equal(drop(x).data, x.data)


class TestInit:
    def test_fan_in_fan_out_conv(self):
        fan_in, fan_out = init.calculate_fan_in_fan_out((8, 4, 3, 3))
        assert fan_in == 4 * 9 and fan_out == 8 * 9

    def test_kaiming_normal_std(self):
        w = init.kaiming_normal((256, 128, 3, 3), rng=np.random.default_rng(0))
        expected_std = np.sqrt(2.0 / (256 * 9))
        assert w.std() == pytest.approx(expected_std, rel=0.05)

    def test_xavier_uniform_bound(self):
        w = init.xavier_uniform((64, 64), rng=np.random.default_rng(0))
        bound = np.sqrt(6.0 / 128)
        assert np.all(np.abs(w) <= bound + 1e-6)

    def test_fan_requires_2d(self):
        with pytest.raises(ValueError):
            init.calculate_fan_in_fan_out((5,))
