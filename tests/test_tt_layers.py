"""Tests for the STT / PTT / HTT convolution modules."""

import itertools

import numpy as np
import pytest

from repro.autograd.conv import conv2d
from repro.autograd.tensor import Tensor
from repro.models.builder import convert_to_tt
from repro.models.resnet import spiking_resnet18
from repro.runtime import CompiledTrainStep
from repro.snn.encoding import encode_batch
from repro.snn.loss import mean_output_cross_entropy
from repro.training.config import TrainingConfig
from repro.training.trainer import BPTTTrainer
from repro.tt.decomposition import max_tt_ranks
from repro.tt.layers import (HTTConv2d, PTTConv2d, STTConv2d, htt_step_wiring,
                             parse_htt_schedule)


class TestConstruction:
    def test_sub_convolution_shapes(self):
        layer = PTTConv2d(16, 32, 3, rank=5)
        assert layer.conv1.weight.shape == (5, 16, 1, 1)
        assert layer.conv2.weight.shape == (5, 5, 3, 1)
        assert layer.conv3.weight.shape == (5, 5, 1, 3)
        assert layer.conv4.weight.shape == (32, 5, 1, 1)

    def test_parameter_count_formula(self):
        i, o, r = 16, 32, 5
        layer = STTConv2d(i, o, 3, rank=r)
        expected = r * i + 3 * r * r + 3 * r * r + o * r
        assert layer.num_parameters() == expected

    def test_rank_clipped_to_channels(self):
        layer = PTTConv2d(4, 4, 3, rank=64)
        assert max(layer.ranks) <= max(max_tt_ranks(4, 4, (3, 3)))
        assert layer.ranks[0] == layer.ranks[1] == layer.ranks[2]

    def test_rejects_invalid_rank(self):
        with pytest.raises(ValueError):
            STTConv2d(8, 8, 3, rank=0)
        with pytest.raises(ValueError):
            STTConv2d(8, 8, 3, rank=(2, 2))

    def test_rejects_non_square_kernel(self):
        with pytest.raises(ValueError):
            PTTConv2d(8, 8, (3, 5), rank=2)

    def test_rejects_bad_stride_mode(self):
        with pytest.raises(ValueError):
            PTTConv2d(8, 8, 3, rank=2, stride_mode="middle")


class TestForwardShapes:
    @pytest.mark.parametrize("cls", [STTConv2d, PTTConv2d])
    def test_output_shape_matches_dense(self, cls, rng):
        layer = cls(6, 12, 3, rank=4)
        x = Tensor(rng.standard_normal((2, 6, 10, 10)).astype(np.float32))
        assert layer(x).shape == (2, 12, 10, 10)

    @pytest.mark.parametrize("stride_mode", ["first", "last"])
    def test_strided_output_shape(self, rng, stride_mode):
        layer = PTTConv2d(6, 12, 3, rank=4, stride=2, stride_mode=stride_mode)
        x = Tensor(rng.standard_normal((1, 6, 8, 8)).astype(np.float32))
        assert layer(x).shape == (1, 12, 4, 4)

    def test_gradients_reach_all_cores(self, rng):
        layer = PTTConv2d(4, 6, 3, rank=3)
        x = Tensor(rng.standard_normal((1, 4, 6, 6)).astype(np.float32))
        layer(x).sum().backward()
        for conv in layer.sub_convolutions():
            assert conv.weight.grad is not None
            assert np.any(conv.weight.grad != 0)


class TestDenseInitialisation:
    def test_stt_from_full_rank_dense_matches_dense_conv(self, rng):
        """With full TT-ranks, the STT chain reproduces the dense convolution exactly."""
        w = rng.standard_normal((8, 6, 3, 3)).astype(np.float32)
        layer = STTConv2d(6, 8, 3, rank=max(max_tt_ranks(6, 8, (3, 3))), dense_weight=w)
        x = Tensor(rng.standard_normal((2, 6, 9, 9)).astype(np.float32))
        dense_out = conv2d(x, Tensor(w), padding=1)
        np.testing.assert_allclose(layer(x).data, dense_out.data, atol=1e-3)

    def test_truncated_init_is_approximation(self, rng):
        w = rng.standard_normal((8, 6, 3, 3)).astype(np.float32)
        layer = STTConv2d(6, 8, 3, rank=2, dense_weight=w)
        x = Tensor(rng.standard_normal((1, 6, 9, 9)).astype(np.float32))
        dense_out = conv2d(x, Tensor(w), padding=1)
        # Not exact, but correlated (the decomposition keeps the top singular directions).
        error = np.abs(layer(x).data - dense_out.data).mean()
        assert 0 < error < np.abs(dense_out.data).mean() * 2

    def test_load_dense_weight_shape_check(self, rng):
        layer = STTConv2d(6, 8, 3, rank=2)
        with pytest.raises(ValueError):
            layer.load_dense_weight(rng.standard_normal((8, 7, 3, 3)))

    def test_extract_cores_round_trip(self, rng):
        w = rng.standard_normal((8, 6, 3, 3)).astype(np.float32)
        layer = STTConv2d(6, 8, 3, rank=3, dense_weight=w)
        cores = layer.extract_cores()
        assert cores.w1.shape == (6, 3)
        assert cores.w4.shape == (3, 8)
        layer2 = STTConv2d(6, 8, 3, rank=3)
        layer2.load_cores(cores)
        x = Tensor(rng.standard_normal((1, 6, 5, 5)).astype(np.float32))
        np.testing.assert_allclose(layer(x).data, layer2(x).data, atol=1e-5)


class TestPTTSemantics:
    def test_ptt_branches_share_first_output(self, rng):
        """Eq. 5: both asymmetric kernels consume conv1's output; the sum feeds conv4."""
        layer = PTTConv2d(4, 4, 3, rank=2)
        x = Tensor(rng.standard_normal((1, 4, 6, 6)).astype(np.float32))
        shared = layer.conv1(x)
        manual = layer.conv4(layer.conv2(shared) + layer.conv3(shared))
        np.testing.assert_allclose(layer(x).data, manual.data, atol=1e-5)

    def test_ptt_differs_from_stt_wiring(self, rng):
        """The same cores wired sequentially vs in parallel give different outputs."""
        w = rng.standard_normal((8, 8, 3, 3)).astype(np.float32)
        stt = STTConv2d(8, 8, 3, rank=4, dense_weight=w)
        ptt = PTTConv2d(8, 8, 3, rank=4, dense_weight=w)
        x = Tensor(rng.standard_normal((1, 8, 7, 7)).astype(np.float32))
        assert not np.allclose(stt(x).data, ptt(x).data, atol=1e-3)


class TestHTT:
    def test_schedule_parsing(self):
        assert parse_htt_schedule("FFHH") == [False, False, True, True]
        assert parse_htt_schedule([True, False]) == [True, False]
        with pytest.raises(ValueError):
            parse_htt_schedule("FFXH")

    def test_default_schedule_half_late(self):
        layer = HTTConv2d(4, 4, 3, rank=2, timesteps=4)
        assert layer.schedule == [False, False, True, True]

    def test_schedule_length_validated(self):
        with pytest.raises(ValueError):
            HTTConv2d(4, 4, 3, rank=2, timesteps=4, schedule="FFH")

    def test_half_timesteps_use_short_path(self, rng):
        layer = HTTConv2d(4, 6, 3, rank=3, timesteps=2, schedule="FH")
        x = Tensor(rng.standard_normal((1, 4, 6, 6)).astype(np.float32))
        full_out = layer(x)                          # t=0: full PTT path
        half_out = layer(x)                          # t=1: conv1 -> conv4 only
        manual_half = layer.conv4(layer.conv1(x))
        np.testing.assert_allclose(half_out.data, manual_half.data, atol=1e-5)
        assert not np.allclose(full_out.data, half_out.data, atol=1e-4)

    def test_reset_time_restarts_schedule(self, rng):
        layer = HTTConv2d(4, 4, 3, rank=2, timesteps=2, schedule="FH")
        x = Tensor(rng.standard_normal((1, 4, 5, 5)).astype(np.float32))
        first = layer(x)
        layer(x)
        layer.reset_time()
        again = layer(x)
        np.testing.assert_allclose(first.data, again.data, atol=1e-6)

    def test_timestep_counter_saturates(self, rng):
        layer = HTTConv2d(4, 4, 3, rank=2, timesteps=2, schedule="FH")
        x = Tensor(rng.standard_normal((1, 4, 5, 5)).astype(np.float32))
        for _ in range(5):       # more calls than timesteps must not crash
            layer(x)
        assert layer.half_timestep(10) is True

    def test_invalid_timesteps(self):
        with pytest.raises(ValueError):
            HTTConv2d(4, 4, 3, rank=2, timesteps=0)


def _schedule_str(flags):
    return "".join("H" if half else "F" for half in flags)


#: Every full/half placement at T=4, plus the paper's N-Caltech101 schedule.
HTT_SCHEDULES = [_schedule_str(f) for f in itertools.product((False, True), repeat=4)]
HTT_SCHEDULES.append("FFFFHH")


def _resnet_htt(schedule: str, seed: int = 0):
    model = spiking_resnet18(num_classes=4, in_channels=3, timesteps=len(schedule),
                             width_scale=0.07, rng=np.random.default_rng(seed))
    convert_to_tt(model, variant="htt", rank=4, timesteps=len(schedule), schedule=schedule)
    return model


class TestHTTSequenceWiring:
    """The time-sliced fused HTT path against a per-timestep reference."""

    @pytest.mark.parametrize("schedule", HTT_SCHEDULES)
    def test_matches_per_timestep_loop(self, schedule):
        timesteps = len(schedule)
        rng = np.random.default_rng(3)
        layer = HTTConv2d(3, 5, 3, rank=2, timesteps=timesteps, schedule=schedule, rng=rng)
        convs = layer.sub_convolutions()
        for conv in convs:              # float64: 1e-5 then bounds wiring errors only
            conv.weight.data = conv.weight.data.astype(np.float64)
        x = rng.standard_normal((timesteps, 2, 5, 5, 3))
        upstream = Tensor(rng.standard_normal((timesteps, 2, 5, 5, 5)))

        def run(forward):
            for conv in convs:
                conv.weight.zero_grad()
            x_t = Tensor(x, requires_grad=True)
            out = forward(x_t)
            (out * upstream).sum().backward()
            weight_grads = [np.zeros_like(c.weight.data) if c.weight.grad is None
                            else c.weight.grad.copy() for c in convs]
            return out.data, x_t.grad, weight_grads

        fused = run(layer.forward_sequence)
        steps = [c.forward_channels_last for c in convs]
        flags = parse_htt_schedule(schedule)
        looped = run(lambda x_t: Tensor.stack(
            [htt_step_wiring(*steps, x_t[t], flags[t]) for t in range(timesteps)], axis=0))
        np.testing.assert_allclose(fused[0], looped[0], atol=1e-5)
        np.testing.assert_allclose(fused[1], looped[1], atol=1e-5)
        for name, got, want in zip(("conv1", "conv2", "conv3", "conv4"), fused[2], looped[2]):
            np.testing.assert_allclose(got, want, atol=1e-5, err_msg=name)

    @pytest.mark.parametrize("schedule", ["FFHH", "HFHF"])
    def test_compiled_o1_train_step_is_bit_exact_to_o0(self, schedule):
        models = {level: _resnet_htt(schedule) for level in ("O0", "O1")}
        models["O1"].load_state_dict(models["O0"].state_dict())
        config = TrainingConfig(timesteps=len(schedule), batch_size=2, learning_rate=0.05)
        rng = np.random.default_rng(7)
        data = rng.random((2, 3, 8, 8)).astype(np.float32)
        labels = rng.integers(0, 4, 2)
        losses = {level: BPTTTrainer(model, config, compile=True, optimize=level)
                  .train_step(data, labels)["loss"] for level, model in models.items()}
        assert losses["O0"] == losses["O1"]
        for (name, p0), (_, p1) in zip(models["O0"].named_parameters(),
                                       models["O1"].named_parameters()):
            np.testing.assert_array_equal(p0.grad, p1.grad, err_msg=f"grad {name}")

    def test_paper_schedule_captures_no_gather(self):
        model = _resnet_htt("FFFFHH")
        step = CompiledTrainStep(model, mean_output_cross_entropy, optimize="O0")
        rng = np.random.default_rng(8)
        step.run(encode_batch(rng.random((2, 3, 8, 8)).astype(np.float32), 6),
                 rng.integers(0, 4, 2))
        plan = next(iter(step._plans.values()))[0]
        getitems = [node.attrs["index"] for node in plan.nodes if node.op == "getitem"]

        def gathers(index):
            parts = index if isinstance(index, tuple) else (index,)
            return any(isinstance(part, (list, np.ndarray)) for part in parts)

        assert sum(map(gathers, getitems)) == 0
        # Each HTT layer splits its conv1 output into exactly two time slices.
        htt_layers = sum(isinstance(m, HTTConv2d) for m in model.modules())
        assert htt_layers > 0
        assert getitems.count(slice(0, 4)) == htt_layers
        assert getitems.count(slice(4, 6)) == htt_layers
