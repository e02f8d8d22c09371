"""Multi-backend kernel registry for the compiled runtime.

Importing the package registers the two process backends — ``numpy``
(reference) and ``numba`` (``@njit`` flat loops, gracefully absent) — into
:data:`~repro.runtime.backends.base.REGISTRY`.  See ``README.md`` §Backends
for the selection/fallback contract.
"""

from repro.runtime.backends.base import (
    Backend,
    KernelRegistry,
    NativeKernel,
    REGISTRY,
    available_backends,
    backend_names,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.runtime.backends.numba_backend import NUMBA_AVAILABLE, NumbaBackend
from repro.runtime.backends.numpy_backend import NumpyBackend

__all__ = [
    "Backend",
    "KernelRegistry",
    "NativeKernel",
    "NUMBA_AVAILABLE",
    "NumbaBackend",
    "NumpyBackend",
    "REGISTRY",
    "available_backends",
    "backend_names",
    "get_backend",
    "register_backend",
    "resolve_backend",
]

register_backend(NumpyBackend())
register_backend(NumbaBackend())
