"""Instrumented strict backend: the dispatch seam's CPU-only test double.

``InstrumentedBackend`` wraps the NumPy op implementations but

- reports ``is_reference = False``, so every consumer takes the *portable*
  ``xp`` kernel path (exactly what any non-reference backend runs) while staying
  runnable on CPU-only CI;
- records every shim call in a :class:`collections.Counter`, so tests can
  assert the kernels actually routed their work through the shim (e.g.
  "this BFS performed N ``scatter_or_cols`` calls and zero raw-NumPy
  escapes would have gone unrecorded");
- defaults creation ops to **non-default dtypes** (float32 / int32) when a
  kernel omits ``dtype=``.  Other array libraries default differently
  than NumPy (often float32), so any kernel relying on implicit dtypes produces
  visibly wrong precision here and fails the conformance equality gates
  instead of silently passing on CPU and breaking on device.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .base import OPS, ArrayBackend

#: What a creation op hands back when a kernel forgets ``dtype=`` — chosen
#: to be *wrong* (narrower than any dtype the kernels legitimately use).
_TRAP_FLOAT = np.float32
_TRAP_INT = np.int32


class InstrumentedBackend(ArrayBackend):
    """NumPy-computing, call-recording, dtype-strict ``xp`` backend."""

    name = "instrumented"
    device = "cpu"
    is_reference = False

    def __init__(self, label: str = "") -> None:
        #: per-op call counts, e.g. ``backend.calls["scatter_min_cols"]``.
        self.calls: Counter = Counter()
        self._label = label
        for op in OPS:
            self._wrap(op)

    @property
    def key(self) -> str:
        # The label lets tests construct two *distinct* cache identities
        # from one backend class (stale-cache regression coverage).
        suffix = f"#{self._label}" if self._label else ""
        return f"{self.name}:{self.device}{suffix}"

    def _wrap(self, op: str) -> None:
        inner = getattr(ArrayBackend, op).__get__(self, type(self))
        strict = getattr(self, f"_strict_{op}", None)
        target = strict if strict is not None else inner

        def recorded(*args, _target=target, _op=op, **kwargs):
            self.calls[_op] += 1
            return _target(*args, **kwargs)

        # Instance attribute shadows the class method: every call is
        # counted, including ones made by sibling default ops.
        setattr(self, op, recorded)

    # -- dtype traps ---------------------------------------------------------
    def _strict_asarray(self, x, dtype=None):
        if dtype is None:
            arr = np.asarray(x)
            if arr.dtype == np.float64:
                return arr.astype(_TRAP_FLOAT)
            if arr.dtype == np.int64:
                return arr.astype(_TRAP_INT)
            return arr
        return np.asarray(x, dtype=dtype)

    def _strict_zeros(self, shape, dtype=None):
        return np.zeros(shape, dtype=_TRAP_FLOAT if dtype is None else dtype)

    def _strict_full(self, shape, value, dtype=None):
        return np.full(shape, value, dtype=_TRAP_FLOAT if dtype is None else dtype)
