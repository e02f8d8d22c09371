"""Backend abstraction for the compiled runtime's kernel substitution.

A :class:`Backend` is a named provider of *node-specialized* kernels: at plan
time (:class:`~repro.runtime.planner.ExecutionPlan`) every graph node is
offered to the selected backend, which may return a :class:`NativeKernel`
(a drop-in replacement for the node's registry kernels, specialized to the
node's exact program, shapes and dtype) or decline it — declined nodes keep
the NumPy reference kernel from :mod:`repro.runtime.ops`, so a plan is always
complete and a backend only ever *adds* speed (per-node fallback).

Backends live in a :class:`KernelRegistry`; :data:`REGISTRY` is the process
default with two members:

``numpy``
    The always-on reference backend.  Compiles nothing — every node replays
    the registry kernels, which are the parity oracle for everything else.
``numba``
    ``@njit``-compiled flat-loop kernels from the plan-time code generator
    (:mod:`repro.runtime.backends.codegen`), one per ``ew_chain`` /
    LIF-recurrence node (:mod:`repro.runtime.backends.numba_backend`).
    Gracefully absent when numba is not installed: the backend still
    registers, reports ``available = False``, and
    :meth:`KernelRegistry.resolve` silently falls back to the reference
    backend.

Every kernel a native backend compiles is verified at plan time against the
reference kernel on the captured arrays (forward and, for training plans,
backward) — a mismatch or a compile error declines the node instead of
shipping a wrong kernel.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

__all__ = [
    "Backend",
    "KernelRegistry",
    "NativeKernel",
    "REGISTRY",
    "available_backends",
    "backend_names",
    "get_backend",
    "register_backend",
    "resolve_backend",
]


class NativeKernel:
    """A node-specialized kernel triple with registry-compatible signatures.

    ``forward(ins, attrs, out=None)`` / ``backward(grad, ins, out, saved,
    attrs, needs)`` / ``forward_inference(ins, attrs, out=None)`` — exactly
    the :class:`~repro.runtime.ops.OpDef` calling convention, so the planner
    can substitute a native kernel without changing step construction.
    """

    __slots__ = ("backend", "forward", "backward", "forward_inference", "label")

    def __init__(self, backend: str, forward: Callable,
                 backward: Optional[Callable] = None,
                 forward_inference: Optional[Callable] = None,
                 label: str = ""):
        self.backend = backend
        self.forward = forward
        self.backward = backward
        self.forward_inference = forward_inference
        self.label = label


class Backend:
    """A named kernel provider; subclasses implement :meth:`compile_node`."""

    #: registry name (``numpy`` / ``numba``)
    name = "base"
    #: the reference backend replays registry kernels and never compiles
    is_reference = False

    @property
    def available(self) -> bool:
        """Whether the backend can compile kernels in this process."""
        return True

    def eligible(self, node) -> bool:
        """Whether ``node`` is of a kind this backend *could* compile.

        Eligible-but-declined nodes are what the planner reports as
        ``fallback`` (an unsupported program variant, a failed verification,
        a JIT error) — ineligible nodes are simply not the backend's
        business and stay unlabelled.
        """
        return False

    def compile_node(self, node, slots, needs, node_has_backward: bool
                     ) -> Optional[NativeKernel]:
        """Return a specialized kernel for ``node`` or ``None`` to decline.

        ``slots`` is the plan's slot table (capture arrays still attached —
        plans compile before :meth:`ExecutionPlan.seal`), ``needs`` the
        per-input needs-grad tuple, ``node_has_backward`` whether the node
        appears in the plan's backward schedule.  Must not raise: any
        internal failure is a decline.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r}, available={self.available})"


class KernelRegistry:
    """Name-keyed registry of :class:`Backend` instances."""

    def __init__(self):
        self._backends: Dict[str, Backend] = {}

    def register(self, backend: Backend) -> Backend:
        self._backends[backend.name] = backend
        return backend

    def names(self) -> List[str]:
        """All registered backend names (available or not)."""
        return sorted(self._backends)

    def available(self) -> List[str]:
        """Names of the backends that can compile (or replay) right now."""
        return sorted(name for name, backend in self._backends.items()
                      if backend.available)

    def get(self, name: str) -> Backend:
        """The backend registered under ``name`` (it may be unavailable)."""
        try:
            return self._backends[name]
        except KeyError:
            raise ValueError(
                f"unknown backend {name!r}; registered: {self.names()}"
            ) from None

    def resolve(self, name: str) -> Backend:
        """Backend for ``name``, degrading gracefully to the reference.

        ``"auto"`` picks ``numba`` if it can compile, else the reference.  A
        registered-but-unavailable backend (numba not installed) resolves to
        the reference backend — callers can tell from
        ``resolve(name).name != name`` and the plan stats.
        """
        backend = self.get("numba" if name == "auto" else name)
        if not backend.available:
            return self.reference()
        return backend

    def reference(self) -> Backend:
        return self.get("numpy")


#: process-wide default registry (populated on package import)
REGISTRY = KernelRegistry()


def register_backend(backend: Backend) -> Backend:
    return REGISTRY.register(backend)


def get_backend(name: str) -> Backend:
    return REGISTRY.get(name)


def resolve_backend(name: str) -> Backend:
    return REGISTRY.resolve(name)


def backend_names() -> List[str]:
    return REGISTRY.names()


def available_backends() -> List[str]:
    return REGISTRY.available()
