"""Generic ``xp`` backend over any array-API-standard namespace.

Used two ways:

- ``backend="array_api_strict"`` (when the reference implementation is
  installed, e.g. in the CI ``backend`` job) — the strictest possible
  conformance check: the standard's reference namespace rejects every
  NumPy-ism the portable kernels might lean on.
- ``ArrayAPIBackend(numpy)`` in tests — NumPy driven purely through its
  standard-conformant surface, giving a second generic-path backend with
  a distinct cache ``key`` on machines with nothing else installed.

The scatter primitives are not in the array-API standard, so this
backend round-trips them through host NumPy — correct everywhere,
fast nowhere; a subclass for a specific library can override them
with native scatter kernels.
"""

from __future__ import annotations

import numpy as np

from .base import ArrayBackend


class ArrayAPIBackend(ArrayBackend):
    """``xp`` over an array-API namespace (``array_api_strict``, ...)."""

    is_reference = False

    def __init__(self, namespace, name: str | None = None) -> None:
        self._xp = namespace
        self.name = name if name is not None else getattr(
            namespace, "__name__", "array_api"
        )
        self.device = "cpu"
        self.bool_ = namespace.bool if hasattr(namespace, "bool") else namespace.bool_
        self.int64 = namespace.int64
        self.float64 = namespace.float64

    def _wrap_scalar(self, value, ref):
        """Promote a python scalar operand to an array of ``ref``'s dtype
        (the standard's ``where`` historically required array operands)."""
        if hasattr(value, "dtype") or hasattr(value, "__array_namespace__"):
            return value
        if hasattr(ref, "dtype"):
            return self._xp.asarray(value, dtype=ref.dtype)
        return self._xp.asarray(value)

    # -- transfers -----------------------------------------------------------
    def asarray(self, x, dtype=None):
        return self._xp.asarray(x, dtype=dtype)

    def to_host(self, x) -> np.ndarray:
        if isinstance(x, np.ndarray):
            return x
        try:
            return np.asarray(x)
        except (TypeError, ValueError, RuntimeError):
            pass
        try:
            return np.asarray(np.from_dlpack(x))
        except (TypeError, ValueError, RuntimeError, BufferError):
            pass
        # array_api_strict keeps its NumPy storage on ``_array``.
        inner = getattr(x, "_array", None)
        if inner is not None:
            return np.asarray(inner)
        raise TypeError(f"cannot convert {type(x)!r} to a host array")

    # -- creation ------------------------------------------------------------
    def zeros(self, shape, dtype=None):
        return self._xp.zeros(shape, dtype=dtype)

    def full(self, shape, value, dtype=None):
        return self._xp.full(shape, value, dtype=dtype)

    # -- elementwise ---------------------------------------------------------
    def where(self, cond, x, y):
        ref = y if hasattr(y, "dtype") else x
        return self._xp.where(cond, self._wrap_scalar(x, ref), self._wrap_scalar(y, ref))

    def minimum(self, a, b):
        return self._xp.minimum(a, b)

    def isfinite(self, a):
        return self._xp.isfinite(a)

    def clip(self, a, lo, hi):
        return self._xp.clip(a, lo, hi)

    def abs(self, a):
        return self._xp.abs(a)

    def astype(self, a, dtype):
        return self._xp.astype(a, dtype)

    # -- shape / gather ------------------------------------------------------
    def take(self, a, idx, axis):
        return self._xp.take(a, self.asarray(idx, self.int64), axis=axis)

    def expand_cols(self, a):
        return self._xp.expand_dims(a, axis=1)

    # -- reductions ----------------------------------------------------------
    def any(self, a, axis=None):
        return self._xp.any(a, axis=axis)

    def all(self, a, axis=None):
        return self._xp.all(a, axis=axis)

    def sum(self, a, axis=None):
        return self._xp.sum(a, axis=axis)

    def min(self, a):
        return self._xp.min(a)

    # -- scatter primitives (host round-trip; see module docstring) ----------
    def scatter_min_cols(self, shape, col_idx, values):
        host = ArrayBackend.scatter_min_cols(
            self, shape, np.asarray(self.to_host(col_idx)), self.to_host(values)
        )
        return self.asarray(host, self.float64)

    def scatter_or_cols(self, shape, col_idx, values):
        host = ArrayBackend.scatter_or_cols(
            self, shape, np.asarray(self.to_host(col_idx)), self.to_host(values)
        )
        return self.asarray(host, self.bool_)

    def put(self, a, idx, values):
        host = self.to_host(a).copy()
        host[np.asarray(self.to_host(self.asarray(idx)))] = self.to_host(
            self.asarray(values)
        )
        return self.asarray(host, a.dtype)
