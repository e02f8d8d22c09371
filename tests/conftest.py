"""Shared fixtures and helpers for the TT-SNN reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd.tensor import Tensor


def _shared_state() -> dict:
    """Process-wide mutable state a test must leave as it found it."""
    from repro.autograd.tensor import active_trace, is_grad_enabled
    from repro.obs.trace import get_tracer
    from repro.resilience import faults
    from repro.runtime.backends import numba_backend

    tracer = get_tracer()
    return {
        "grad mode": is_grad_enabled(),
        "op trace": active_trace(),
        "resilience.faults._ACTIVE": faults._ACTIVE,
        "tracer.enabled": tracer.enabled,
        "tracer.exporters": tracer.exporters,
        "tracer.kernel_sample_rate": tracer.kernel_sample_rate,
        "tracer.flight": tracer.flight,
        "numba_backend.NUMBA_AVAILABLE": numba_backend.NUMBA_AVAILABLE,
        "numba_backend._njit": numba_backend._njit,
        "numba_backend._JIT_CACHE": numba_backend._JIT_CACHE,
    }


def _same(before, after) -> bool:
    """Plain values compare by value; objects (traces, recorders, caches) by identity."""
    return before is after or (isinstance(before, (bool, int, float, tuple))
                               and before == after)


@pytest.fixture(autouse=True)
def shared_state_guard():
    """Fail the test that leaves shared state changed, not a later victim."""
    before = _shared_state()
    yield
    after = _shared_state()
    leaked = [f"{name}: {before[name]!r} -> {after[name]!r}"
              for name in before if not _same(before[name], after[name])]
    if leaked:
        pytest.fail("test leaked shared state:\n  " + "\n  ".join(leaked),
                    pytrace=False)


@pytest.fixture
def interpreted_numba(monkeypatch):
    """Run the real ``numba`` backend with its flat-loop kernels un-jitted.

    Marks numba available and swaps ``njit`` for an identity decorator (with
    a fresh JIT cache), so ``backend="numba"`` compiles, verifies and
    replays the emitted sources as plain Python.  The whole native-kernel
    path — plan-time verification, per-node fallback, labels, accounting —
    then runs on machines without numba.
    """
    from repro.runtime.backends import numba_backend

    monkeypatch.setattr(numba_backend, "NUMBA_AVAILABLE", True)
    monkeypatch.setattr(numba_backend, "_njit", lambda **options: (lambda fn: fn))
    monkeypatch.setattr(numba_backend, "_JIT_CACHE", {})


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for every test."""
    return np.random.default_rng(12345)


def numerical_gradient(fn, x: np.ndarray, eps: float = 1e-3) -> np.ndarray:
    """Central-difference numerical gradient of a scalar-valued ``fn``.

    ``fn`` receives a plain ndarray and must return a Python float.
    """
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        upper = fn(x)
        flat[i] = original - eps
        lower = fn(x)
        flat[i] = original
        grad_flat[i] = (upper - lower) / (2 * eps)
    return grad


def assert_grad_close(analytic: np.ndarray, numeric: np.ndarray, atol: float = 1e-2,
                      rtol: float = 5e-2) -> None:
    """Compare analytic and numeric gradients with tolerances suited to float32."""
    np.testing.assert_allclose(analytic, numeric, atol=atol, rtol=rtol)


@pytest.fixture
def small_image_batch(rng) -> np.ndarray:
    """A tiny (N, C, H, W) float batch."""
    return rng.standard_normal((2, 3, 8, 8)).astype(np.float32)


@pytest.fixture
def tiny_resnet():
    """A very small spiking ResNet-18 for integration tests."""
    from repro.models.resnet import spiking_resnet18

    return spiking_resnet18(num_classes=4, in_channels=3, timesteps=2, width_scale=0.07,
                            rng=np.random.default_rng(0))


@pytest.fixture
def tiny_static_dataset():
    """A tiny synthetic static-image dataset."""
    from repro.data.synthetic import make_static_image_dataset

    return make_static_image_dataset(num_samples=16, num_classes=4, channels=3,
                                     height=12, width=12, seed=7)


@pytest.fixture
def tiny_event_dataset():
    """A tiny synthetic event dataset."""
    from repro.data.synthetic import make_event_dataset

    return make_event_dataset(num_samples=12, num_classes=4, timesteps=3, channels=2,
                              height=12, width=12, seed=7)
