"""Backend registry: name -> :class:`~repro.backend.base.ArrayBackend`.

Three backends are registered: the NumPy reference (``"numpy"``), the
instrumented CPU test double (``"instrumented"``), and
``"array_api_strict"`` through the generic array-API adapter.
``import repro.backend`` stays cheap: the optional ``array_api_strict``
is *probed* with ``importlib.util.find_spec`` to decide availability,
but imported only when it is first resolved.  Any other library that
exposes the array-API standard plugs in as an
:class:`~repro.backend.array_api.ArrayAPIBackend` instance.  Resolved
backends are singletons per name, so the cache ``key`` a live
``WorldBatch`` stores backend arrays under is stable across calls.

Public surface:

- :func:`resolve_backend` — ``None`` / name / instance -> backend object
  (``None`` means the NumPy reference backend, the bit-identity default).
- :func:`available_backends` — names resolvable on this machine (the
  validation set for the CLI ``--backend`` knob and the server's
  ``backend`` parameter).
- ``DEFAULT_BACKEND`` — ``"numpy"``.
"""

from __future__ import annotations

import importlib
import importlib.util

from .array_api import ArrayAPIBackend
from .base import OPS, ArrayBackend, NumpyBackend
from .instrumented import InstrumentedBackend

DEFAULT_BACKEND = "numpy"

__all__ = [
    "OPS",
    "ArrayBackend",
    "ArrayAPIBackend",
    "NumpyBackend",
    "InstrumentedBackend",
    "DEFAULT_BACKEND",
    "available_backends",
    "resolve_backend",
]


def _make_array_api_strict() -> ArrayBackend:
    namespace = importlib.import_module("array_api_strict")
    return ArrayAPIBackend(namespace, name="array_api_strict")


def _has_module(module: str) -> bool:
    try:
        return importlib.util.find_spec(module) is not None
    except (ImportError, ValueError):  # pragma: no cover - exotic loaders
        return False


#: name -> (availability probe, factory).  Probes must be cheap; factories
#: may import the optional library.
_FACTORIES = {
    "numpy": (lambda: True, NumpyBackend),
    "instrumented": (lambda: True, InstrumentedBackend),
    "array_api_strict": (lambda: _has_module("array_api_strict"), _make_array_api_strict),
}

_CACHE: dict[str, ArrayBackend] = {}


def available_backends() -> tuple[str, ...]:
    """Backend names resolvable on this machine, reference first."""
    return tuple(name for name, (probe, _) in _FACTORIES.items() if probe())


def resolve_backend(backend=None) -> ArrayBackend:
    """Turn ``None`` / a registry name / a backend instance into a backend.

    ``None`` resolves to the NumPy reference backend (bit-identity
    default).  Name lookups are cached, so repeated resolution returns
    the same instance — and therefore the same cache ``key``.
    """
    if backend is None:
        backend = DEFAULT_BACKEND
    if isinstance(backend, ArrayBackend):
        return backend
    if not isinstance(backend, str):
        raise ValueError(
            f"backend must be None, a name, or an ArrayBackend; got {type(backend)!r}"
        )
    cached = _CACHE.get(backend)
    if cached is not None:
        return cached
    entry = _FACTORIES.get(backend)
    if entry is None:
        raise ValueError(
            f"unknown backend {backend!r}; known names: {sorted(_FACTORIES)}"
        )
    probe, factory = entry
    if not probe():
        raise ValueError(
            f"backend {backend!r} is not available on this machine "
            f"(available: {list(available_backends())})"
        )
    resolved = factory()
    _CACHE[backend] = resolved
    return resolved
