"""Tests for the kernel backend registry and the native numba backend
(:mod:`repro.runtime.backends`).

Guarantees under test:

* **The NumPy backend is the parity oracle**: every native backend is
  compared against it with the same harness as ``tests/test_optimizer.py``
  — train O1 (losses, gradients, parameters after SGD) and serve O2
  (logits) across architectures, TT variants and dtypes.
* **Graceful degradation**: unknown backend names raise at construction;
  a registered-but-unavailable backend (numba not installed) resolves to
  the reference backend; a backend that declines every node produces a
  plan that still replays correctly, with the declines counted as
  fallbacks and labelled ``@fallback``.
* **The flat-loop sources are plain valid Python**: under the
  ``interpreted_numba`` fixture the real ``numba`` backend runs them
  un-jitted, so plan-time verification, per-node fallback, the
  capture-step backward and the parity matrix all run on machines without
  numba; the emitters are also checked directly against the registry
  reference kernels.
* **Accounting**: ``runtime_stats()["backend"]`` counts native/fallback
  nodes and replays; profiler hot-op rows carry the executing backend;
  native plans keep the zero-steady-state-allocation property.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd.tensor import Workspace, _unbroadcast
from repro.metrics.profiler import kernel_backend, summarize_runtime
from repro.models.builder import convert_to_tt
from repro.models.resnet import spiking_resnet18
from repro.models.vgg import spiking_vgg9
from repro.runtime import (
    Backend,
    CompiledForward,
    CompiledTrainStep,
    available_backends,
    backend_names,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.runtime.backends.codegen import (
    UnsupportedNode,
    chain_program,
    compile_python,
    emit_chain_numba,
    emit_lif_numba,
    lif_config,
    verify_kernel,
)
from repro.runtime.backends.numba_backend import (
    NUMBA_AVAILABLE,
    _NumbaChainKernel,
    _NumbaLIFKernel,
)
from repro.runtime.ops import _ew_chain_bwd, _ew_chain_fwd, get_op
from repro.serve.engine import InferenceEngine
from repro.snn.loss import mean_output_cross_entropy
from repro.training.config import TrainingConfig
from repro.training.trainer import BPTTTrainer

TIMESTEPS = 2
NUM_CLASSES = 4
#: ISSUE bound on native-vs-reference logit drift per dtype
DRIFT = {"float32": 1e-3, "float64": 1e-6}


def _make_model(arch: str, variant: str, seed: int = 0):
    rng = np.random.default_rng(seed)
    if arch == "vgg9":
        model = spiking_vgg9(num_classes=NUM_CLASSES, in_channels=3,
                             timesteps=TIMESTEPS, width_scale=0.1, rng=rng)
    else:
        model = spiking_resnet18(num_classes=NUM_CLASSES, in_channels=3,
                                 timesteps=TIMESTEPS, width_scale=0.07, rng=rng)
    convert_to_tt(model, variant=variant, rank=4, timesteps=TIMESTEPS)
    return model


def _make_pair(arch: str, variant: str):
    reference = _make_model(arch, variant)
    native = _make_model(arch, variant)
    native.load_state_dict(reference.state_dict())
    return reference, native


def _batches(steps: int = 3, n: int = 2, size: int = 8, seed: int = 7):
    rng = np.random.default_rng(seed)
    return [(rng.random((n, 3, size, size)).astype(np.float32),
             rng.integers(0, NUM_CLASSES, n)) for _ in range(steps)]


def _trainer(model, **kwargs):
    config = TrainingConfig(timesteps=TIMESTEPS, batch_size=2, learning_rate=0.05)
    return BPTTTrainer(model, config, compile=True, optimize="O1", **kwargs)


def _unsealed_plan(backend: str = "numpy"):
    """One captured (never replayed) train plan — slot arrays still attached."""
    trainer = _trainer(_make_model("vgg9", "ptt"), backend=backend)
    data, labels = _batches(steps=1)[0]
    trainer.train_step(data, labels)
    plan = next(iter(trainer._compiled._plans.values()))[0]
    return trainer, plan


# ---------------------------------------------------------------------------
# registry and graceful degradation
# ---------------------------------------------------------------------------


def test_registry_names_and_reference():
    assert backend_names() == ["numba", "numpy"]
    # The reference backend is available everywhere; numba may not be.
    assert "numpy" in available_backends()
    assert get_backend("numpy").is_reference
    assert not get_backend("numba").is_reference
    assert resolve_backend("numpy").name == "numpy"
    with pytest.raises(ValueError, match="unknown backend"):
        resolve_backend("codegen")


def test_auto_resolves_to_fastest_available():
    resolved = resolve_backend("auto")
    assert resolved.name == ("numba" if NUMBA_AVAILABLE else "numpy")


def test_auto_resolves_to_numba_when_it_can_compile(interpreted_numba):
    assert resolve_backend("auto").name == "numba"


def test_unknown_backend_raises_everywhere():
    with pytest.raises(ValueError, match="unknown backend"):
        get_backend("cuda")
    with pytest.raises(ValueError, match="unknown backend"):
        CompiledForward(lambda t: t, backend="cuda")
    with pytest.raises(ValueError, match="unknown backend"):
        _trainer(_make_model("vgg9", "ptt"), backend="cuda")
    with pytest.raises(ValueError, match="unknown backend"):
        InferenceEngine(_make_model("vgg9", "ptt"), compile=True, backend="cuda")


@pytest.mark.skipif(NUMBA_AVAILABLE, reason="numba is installed here")
def test_unavailable_numba_degrades_to_reference():
    """Requesting numba on a machine without it must still work end to end."""
    assert "numba" not in available_backends()
    assert resolve_backend("numba").name == "numpy"
    reference, native = _make_pair("vgg9", "ptt")
    t_ref = _trainer(reference)
    t_nb = _trainer(native, backend="numba")
    for data, labels in _batches(steps=2):
        s0 = t_ref.train_step(data, labels)
        s1 = t_nb.train_step(data, labels)
        assert s0["loss"] == s1["loss"]
    stats = t_nb.runtime_stats()["backend"]
    assert stats["requested"] == "numba"
    assert stats["active"] == "numpy"
    assert stats["native_nodes"] == 0
    assert stats["fallback_nodes"] == 0


def test_kernel_backend_label_parsing():
    assert kernel_backend("ew_chain") == "numpy"
    assert kernel_backend("ew_chain@numba") == "numba"
    assert kernel_backend("bwd:fn_cached:_FusedLIFSequence@numba") == "numba"
    assert kernel_backend("ew_chain@fallback") == "fallback"


def test_invalid_dtype_policy_rejected():
    with pytest.raises(ValueError, match="float32 or float64"):
        CompiledForward(lambda t: t, dtype="int32")
    with pytest.raises(ValueError, match="float32 or float64"):
        _make_model("vgg9", "ptt").astype("float16")


# ---------------------------------------------------------------------------
# parity matrix: native backends vs the NumPy oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("arch,variant", [
    ("vgg9", "stt"), ("vgg9", "ptt"), ("vgg9", "htt"), ("resnet18", "ptt"),
])
def test_native_train_matches_numpy_backend(interpreted_numba, arch, variant):
    """Native O1 training tracks the reference backend across K SGD steps."""
    reference, native = _make_pair(arch, variant)
    t_ref = _trainer(reference)
    t_nat = _trainer(native, backend="numba")
    for step, (data, labels) in enumerate(_batches(steps=3)):
        s0 = t_ref.train_step(data, labels)
        s1 = t_nat.train_step(data, labels)
        assert abs(s0["loss"] - s1["loss"]) <= DRIFT["float32"], f"step {step}"
    for (name, p0), (_, p1) in zip(reference.named_parameters(),
                                   native.named_parameters()):
        np.testing.assert_allclose(p1.grad, p0.grad, atol=DRIFT["float32"],
                                   err_msg=f"grad {name}")
        np.testing.assert_allclose(p1.data, p0.data, atol=DRIFT["float32"],
                                   err_msg=f"param {name}")
    stats = t_nat.runtime_stats()["backend"]
    assert stats["active"] == "numba"
    assert stats["native_nodes"] > 0
    assert stats["native_replays"] > 0


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_native_train_dtype_policy(interpreted_numba, dtype):
    """The dtype knob carries through params, plans and native kernels."""
    reference, native = _make_pair("vgg9", "ptt")
    t_ref = _trainer(reference, dtype=dtype)
    t_nat = _trainer(native, backend="numba", dtype=dtype)
    for data, labels in _batches(steps=2):
        s0 = t_ref.train_step(data, labels)
        s1 = t_nat.train_step(data, labels)
        assert abs(s0["loss"] - s1["loss"]) <= DRIFT[dtype]
    assert next(native.parameters()).data.dtype == np.dtype(dtype)
    stats = t_nat.runtime_stats()
    assert stats["dtype"] == dtype
    assert stats["backend"]["native_nodes"] > 0


@pytest.mark.parametrize("arch", ["vgg9", "resnet18"])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_native_serve_matches_numpy_backend(interpreted_numba, arch, dtype):
    """O2 serve logits stay within the per-dtype drift bound of the oracle."""
    reference, native = _make_pair(arch, "ptt")
    e_ref = InferenceEngine(reference, compile=True, dtype=dtype)
    e_nat = InferenceEngine(native, compile=True, backend="numba", dtype=dtype)
    rng = np.random.default_rng(3)
    for n in (2, 2, 1):
        batch = rng.random((n, 3, 8, 8)).astype(np.float32)
        l0 = e_ref.infer(batch)
        l1 = e_nat.infer(batch)
        assert l1.dtype == np.dtype(dtype)
        np.testing.assert_allclose(l1, l0, atol=DRIFT[dtype])
    stats = e_nat.runtime_stats()["backend"]
    assert stats["active"] == "numba"
    assert stats["native_nodes"] > 0


# ---------------------------------------------------------------------------
# per-node fallback and accounting
# ---------------------------------------------------------------------------


class _DecliningBackend(Backend):
    """Eligible for everything the numba backend is, compiles nothing."""

    name = "declining-test"

    def eligible(self, node) -> bool:
        return get_backend("numba").eligible(node)


def test_declining_backend_counts_fallbacks_and_stays_correct():
    register_backend(_DecliningBackend())
    reference, native = _make_pair("vgg9", "ptt")
    t_ref = _trainer(reference)
    t_dec = _trainer(native, backend="declining-test", profile=True)
    for data, labels in _batches(steps=3):
        s0 = t_ref.train_step(data, labels)
        s1 = t_dec.train_step(data, labels)
        assert s0["loss"] == s1["loss"]           # fallback IS the reference
    stats = t_dec.runtime_stats()["backend"]
    assert stats["native_nodes"] == 0
    assert stats["fallback_nodes"] > 0
    assert stats["native_replays"] == 0
    assert stats["fallback_replays"] == stats["fallback_nodes"] * 2
    report = summarize_runtime(t_dec._compiled)
    backends_seen = {row["backend"] for row in report["hot_ops"]}
    assert "fallback" in backends_seen or all(
        row["backend"] == "numpy" for row in report["hot_ops"])
    plan = next(iter(t_dec._compiled._plans.values()))[0]
    assert any(label.endswith("@fallback") for label in plan._fwd_labels)


def test_native_labels_and_profiler_attribution(interpreted_numba):
    trainer = _trainer(_make_model("vgg9", "ptt"), backend="numba", profile=True)
    for data, labels in _batches(steps=3):
        trainer.train_step(data, labels)
    plan = next(iter(trainer._compiled._plans.values()))[0]
    assert any(label.endswith("@numba") for label in plan._fwd_labels)
    assert any(label.startswith("bwd:") and label.endswith("@numba")
               for label in plan._bwd_labels)
    stats = trainer.runtime_stats()["backend"]
    assert stats["native_replays"] == stats["native_nodes"] * 2
    report = summarize_runtime(trainer._compiled)
    assert any(row["backend"] == "numba" for row in report["hot_ops"])


def test_native_plans_keep_zero_steady_state_allocations(interpreted_numba):
    trainer = _trainer(_make_model("vgg9", "ptt"), backend="numba")
    batches = _batches(steps=6)
    for data, labels in batches[:3]:
        trainer.train_step(data, labels)
    arena = trainer._compiled.arena
    allocated = arena.allocated
    for data, labels in batches[3:]:
        trainer.train_step(data, labels)
    assert arena.allocated == allocated


def test_capture_step_backward_reads_reference_saved_state(interpreted_numba):
    """The first backward follows the eager capture forward, not a native
    one: until a replayed forward hands a kernel its token, its backward must
    run on the reference saved state, never on its own (stale) buffers."""
    _, plan = _unsealed_plan()
    backend = get_backend("numba")
    bwd_ids = {id(node) for node in plan._bwd_nodes}
    checked = set()
    for node in plan.nodes:
        if node is None or id(node) not in bwd_ids or not backend.eligible(node):
            continue
        needs = tuple(plan._needs[i] for i in node.inputs)
        kernel = backend.compile_node(node, plan.slots, needs, True)
        if kernel is None:
            continue                          # declined: replays on NumPy
        ins = [np.asarray(plan.slots[i].array) for i in node.inputs]
        out = np.asarray(plan.slots[node.out].array)
        g = np.cos(np.arange(out.size)).reshape(out.shape).astype(out.dtype)
        kernel.forward([x * 2 + 1 for x in ins], node.attrs)   # stale buffers
        want = get_op(node.op).backward(np.array(g), ins, out, node.saved,
                                        node.attrs, needs)
        got = kernel.backward(np.array(g), ins, out, node.saved, node.attrs, needs)
        for position, need in enumerate(needs):
            if need:
                np.testing.assert_allclose(got[position], want[position],
                                           rtol=1e-5, atol=1e-6)
        checked.add(node.op)
    assert checked == {"ew_chain", "fn_cached"}


# ---------------------------------------------------------------------------
# flat-loop sources are plain valid Python (semantics covered without numba)
# ---------------------------------------------------------------------------


def test_numba_chain_sources_verify_on_captured_nodes():
    """Every uniform-shape captured chain: exec'd flat-loop kernel == reference."""
    _, plan = _unsealed_plan()
    chains = [(position, node) for position, node in enumerate(plan.nodes)
              if node is not None and node.op == "ew_chain"]
    assert chains, "expected fused ew_chain nodes in a VGG-9 O1 train plan"
    verified = declined = 0
    bwd_ids = {id(node) for node in plan._bwd_nodes}
    for _, node in chains:
        program = chain_program(node, plan.slots)
        needs = tuple(plan._needs[i] for i in node.inputs)
        try:
            source, kinds = emit_chain_numba(program, needs)
        except UnsupportedNode:
            declined += 1                     # broadcast chain: per-node fallback
            continue
        funcs = compile_python(source)        # NOT jitted: plain Python
        impl = _NumbaChainKernel(funcs, program, kinds, needs,
                                 id(node) in bwd_ids)
        assert verify_kernel(impl, node, plan.slots, needs, id(node) in bwd_ids)
        verified += 1
    assert verified + declined == len(chains)


def test_numba_lif_sources_verify_on_captured_nodes():
    """Exec'd flat-loop LIF recurrences match the reference on real nodes."""
    _, plan = _unsealed_plan()
    from repro.snn.neurons import _FusedLIFSequence

    lif_nodes = [node for node in plan.nodes
                 if node is not None and node.op == "fn_cached"
                 and node.attrs.get("cls") is _FusedLIFSequence]
    assert lif_nodes, "expected specialized LIF nodes in a VGG-9 O1 train plan"
    bwd_ids = {id(node) for node in plan._bwd_nodes}
    for node in lif_nodes:
        cfg = lif_config(node, plan.slots)
        funcs = compile_python(emit_lif_numba(cfg))
        impl = _NumbaLIFKernel(funcs, cfg)
        needs = tuple(plan._needs[i] for i in node.inputs)
        assert verify_kernel(impl, node, plan.slots, needs, id(node) in bwd_ids)


def _toy_program(dtype, in_shapes, step_shapes):
    """A fabricated chain program touching most of the emitted op set."""
    dtype = np.dtype(dtype)
    ops = [("mul", (0, 1)), ("add", (-1, 2)), ("tanh", (-1,)),
           ("sigmoid", (-1,)), ("clip", (-1,)), ("pow", (-1,)),
           ("relu", (-1,)), ("abs", (-1,)), ("neg", (-1,))]
    steps = []
    for index, (op, ins) in enumerate(ops):
        step = {"op": op, "ins": ins, "shape": step_shapes[index], "dtype": dtype}
        if op == "clip":
            step["low"], step["high"] = -0.9, 0.9
        elif op == "pow":
            step["exponent"] = 2.0
        steps.append(step)
    return {
        "steps": steps,
        "n_inputs": len(in_shapes),
        "in_shapes": list(in_shapes),
        "in_dtypes": [dtype] * len(in_shapes),
        "out_shape": steps[-1]["shape"],
        "out_dtype": dtype,
    }


def _reference_chain_attrs(program):
    """The optimizer's ``ew_chain`` attrs for ``program``: each step runs its
    registered op kernels (see ``repro.runtime.optimizer``)."""
    prog = []
    for step in program["steps"]:
        opdef = get_op(step["op"])
        attrs = {key: step[key] for key in ("low", "high", "exponent")
                 if key in step}
        prog.append({"op": step["op"], "fwd": opdef.forward, "bwd": opdef.backward,
                     "attrs": attrs, "ins": list(step["ins"]),
                     "needs": (True,) * len(step["ins"]), "shape": step["shape"],
                     "dtype": step["dtype"], "buffered": opdef.out_capable})
    return {"prog": prog, "ws": Workspace()}


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_numba_chain_source_matches_reference_kernels(dtype):
    """The flat-loop chain agrees with the registry ``ew_chain`` kernels on a
    fabricated chain with array and scalar externals (scalar grads use the
    accumulator path)."""
    shape = (2, 6)
    program = _toy_program(dtype, [shape, shape, (1, 1)], [shape] * 9)
    needs = (True, True, True)
    rng = np.random.default_rng(9)
    ins = [rng.standard_normal(s).astype(dtype) + 0.5
           for s in program["in_shapes"]]
    g = rng.standard_normal(shape).astype(dtype)

    attrs = _reference_chain_attrs(program)
    want, saved = _ew_chain_fwd(ins, attrs)
    want = np.array(want)
    want_grads = _ew_chain_bwd(g, ins, want, saved, attrs, needs)

    source, kinds = emit_chain_numba(program, needs)
    assert kinds == ["array", "array", "scalar"]
    impl = _NumbaChainKernel(compile_python(source), program, kinds, needs, True)
    got, token = impl.forward(ins, {})
    rtol = 1e-5 if dtype == "float32" else 1e-12
    np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol)
    got_grads = impl.backward(g, ins, got, token, {}, needs)
    for k, shape in enumerate(program["in_shapes"]):
        # The planner unbroadcasts external grads to the slot shape after the
        # kernel returns; mirror that here so both sides are comparable.
        np.testing.assert_allclose(
            _unbroadcast(np.asarray(got_grads[k]), shape),
            _unbroadcast(np.asarray(want_grads[k]), shape),
            rtol=rtol, atol=rtol, err_msg=f"input {k}")

    # Capture-step backward: handed reference-format saved state, the kernel
    # must ignore its own step buffers (stale after this forward).
    impl.forward([x * 2 for x in ins], {})
    capture_grads = impl.backward(g, ins, want, saved, attrs, needs)
    for k in range(len(ins)):
        np.testing.assert_array_equal(capture_grads[k], want_grads[k])


def test_numba_chain_emitter_declines_broadcast_and_mixed_dtype():
    needs = (True, True, True)
    broadcast = _toy_program("float32", [(2, 6), (2, 1), (1, 1)], [(2, 6)] * 9)
    with pytest.raises(UnsupportedNode, match="broadcast"):
        emit_chain_numba(broadcast, needs)
    mixed = _toy_program("float32", [(2, 6), (2, 6), (1, 1)], [(2, 6)] * 9)
    mixed["in_dtypes"][1] = np.dtype("float64")
    with pytest.raises(UnsupportedNode, match="mixed"):
        emit_chain_numba(mixed, needs)


@pytest.mark.parametrize("hard,detach", [(True, False), (False, False), (True, True),
                                         (False, True)])
def test_numba_lif_source_matches_reference_kernel(hard, detach):
    """Flat-loop LIF recurrence == ``_FusedLIFSequence`` for every reset and
    detach branch the emitter specializes (soft-reset cases use a
    non-unit surrogate width)."""
    from repro.snn.neurons import SurrogateRectangular, _FusedLIFSequence

    shape, dtype = (3, 2, 4), np.dtype(np.float32)
    width = 1.0 if hard else 0.5
    cfg = {"shape": shape, "timesteps": 3, "frame": shape[1:], "size": 8,
           "dtype": dtype, "tau": 0.5, "vth": 1.0, "width": width,
           "hard": hard, "detach": detach}
    rng = np.random.default_rng(11)
    cur = (rng.standard_normal(shape) * 2).astype(dtype)
    g = rng.standard_normal(shape).astype(dtype)

    reference = _FusedLIFSequence(0.5, 1.0, SurrogateRectangular(width),
                                  hard_reset=hard, detach_reset=detach)
    want_spk = np.array(reference.forward(cur))
    (want_gin,) = reference.backward(g)
    want_gin = np.array(want_gin)
    want_infer = np.array(reference.forward_inference(cur))

    impl = _NumbaLIFKernel(compile_python(emit_lif_numba(cfg)), cfg)
    got_spk, token = impl.forward([cur], {})
    np.testing.assert_array_equal(got_spk, want_spk)
    (got_gin,) = impl.backward(g, [cur], got_spk, token, {}, (True,))
    np.testing.assert_allclose(got_gin, want_gin, rtol=1e-6, atol=1e-6)
    infer_spk = impl.forward_inference([cur], {})
    np.testing.assert_array_equal(infer_spk, want_infer)


@pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed")
def test_numba_backend_jit_smoke():
    """With numba present, the jitted backend trains within the drift bound."""
    reference, native = _make_pair("vgg9", "ptt")
    t_ref = _trainer(reference)
    t_nb = _trainer(native, backend="numba")
    for data, labels in _batches(steps=2):
        s0 = t_ref.train_step(data, labels)
        s1 = t_nb.train_step(data, labels)
        assert abs(s0["loss"] - s1["loss"]) <= DRIFT["float32"]
    stats = t_nb.runtime_stats()["backend"]
    assert stats["active"] == "numba"
    assert stats["native_nodes"] > 0


# ---------------------------------------------------------------------------
# dtype plumbing satellites
# ---------------------------------------------------------------------------


def test_workspace_buffers_keyed_by_dtype():
    ws = Workspace()
    f32 = ws.buf("k", (4,), "float32")
    f64 = ws.buf("k", (4,), "float64")
    assert f32.dtype == np.float32 and f64.dtype == np.float64
    assert f32 is not f64
    assert ws.buf("k", (4,), "float32") is f32
    assert ws.buf("k", (4,), "float64") is f64
    assert ws.buf("k", (2, 2), "float32") is not f32   # shape is part of the key


def test_module_astype_casts_params_and_buffers():
    model = _make_model("vgg9", "ptt")
    out = model.astype("float64")
    assert out is model
    assert all(p.data.dtype == np.float64 for p in model.parameters())
    model.astype(np.float32)
    assert all(p.data.dtype == np.float32 for p in model.parameters())


def test_engine_pad_buffers_keyed_by_dtype():
    """A float64 engine and a float32 engine never share pad storage."""
    e32 = InferenceEngine(_make_model("vgg9", "ptt"), compile=True)
    e64 = InferenceEngine(_make_model("vgg9", "ptt"), compile=True,
                          dtype="float64")
    rng = np.random.default_rng(21)
    batch = rng.random((3, 3, 8, 8)).astype(np.float32)   # pads to 4
    l32 = e32.infer(batch)
    l64 = e64.infer(batch)
    assert l32.dtype == np.float32 and l64.dtype == np.float64
    assert all(key[1] == "<f4" for key in e32._pad_buffers)
    assert all(key[1] == "<f8" for key in e64._pad_buffers)
