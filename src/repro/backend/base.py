"""The ``xp`` array-namespace shim: one op surface, many array libraries.

The traversal kernels (:mod:`repro.sampling.kernels`) and the GDB sweep
engine (:mod:`repro.core.sweep`) are pure array programs.  This module
defines the *curated* operation surface they are written against —
:class:`ArrayBackend` — so the same kernel source runs on NumPy or any
array-API namespace.  The contract is deliberately small:

- **NumPy semantics are the spec.**  Every op is defined by what the
  NumPy reference backend does; other backends may compute however they
  like (scatter kernels, host round-trips) as long as values match
  within the device tolerance gates.
- **Host builds the plan, the backend runs the array program.**  CSR
  topology, bucket schedules, and sweep colorings stay host-side NumPy;
  only the dense per-world / per-edge-class math goes through ``xp``.
  Control flow crosses back through :meth:`~ArrayBackend.to_host` /
  the scalar helpers — one small sync per level / bucket / sweep.
- **Determinism contract.**  Chunk boundaries, stitch order, and every
  schedule are pure functions of the problem shape — never of the
  device.  The NumPy reference backend routes to the existing
  specialised kernels (``is_reference`` below), so default results stay
  bit-identical; non-reference backends run the portable ``xp`` kernel
  formulations and gate on tolerance.

Array *operators* (``+ - * / < >= & | ~`` and basic ``[:, None]`` /
integer indexing) are part of the contract too — every supported
namespace implements them on its array type — so the shim only names
the operations that differ across libraries (creation, gather/scatter,
reductions with an axis, transfers).
"""

from __future__ import annotations

import numpy as np

#: The curated op surface, in one place so the instrumented backend can
#: wrap every entry and the conformance suite can assert coverage.
OPS = (
    "asarray", "to_host",
    "zeros", "full",
    "where", "minimum", "isfinite", "clip", "abs", "astype",
    "take", "expand_cols",
    "any", "all", "sum", "min",
    "scatter_min_cols", "scatter_or_cols", "put",
)


class ArrayBackend:
    """Base class of every ``xp`` backend (NumPy semantics by default).

    Subclasses override :attr:`name` / :attr:`device` and whichever ops
    their library spells differently.  The base implementation *is* the
    NumPy reference — subclassing it means "NumPy except where noted".

    Attributes
    ----------
    name:
        Registry name (``"numpy"``, ``"instrumented"``, ...).
    device:
        Where the arrays live (``"cpu"`` for every registered backend)
        — part of the cache :attr:`key`.
    is_reference:
        ``True`` only for the NumPy reference backend: batch methods
        then dispatch to the existing specialised kernels (packed
        uint64 BFS, ``reduceat`` delta-stepping, fused sweeps), keeping
        default results bit-identical.  Every other backend — including
        the CPU-bound instrumented one — runs the portable ``xp``
        kernel formulations.
    """

    name = "numpy"
    device = "cpu"
    is_reference = True

    #: dtype tokens kernels pass explicitly to every creation op.
    bool_ = np.bool_
    int64 = np.int64
    float64 = np.float64

    @property
    def key(self) -> str:
        """Cache identity: device arrays cached under one key can never
        be served to a different namespace (see ``_batch_cached``)."""
        return f"{self.name}:{self.device}"

    @property
    def spec(self) -> str:
        """Canonical registry spec that resolves back to this backend
        (what executors ship to worker processes instead of the
        instance, which may not pickle)."""
        return self.name

    # -- transfers -----------------------------------------------------------
    def asarray(self, x, dtype=None):
        """Upload/convert to a backend array (dtype always explicit in
        kernel code; ``None`` passes the input dtype through)."""
        return np.asarray(x, dtype=dtype)

    def to_host(self, x) -> np.ndarray:
        """Download to a host NumPy array (no-op for host backends)."""
        return np.asarray(x)

    def bool_scalar(self, x) -> bool:
        """One host boolean — the per-level / per-bucket sync point."""
        return bool(self.to_host(x))

    def float_scalar(self, x) -> float:
        return float(self.to_host(x))

    # -- creation ------------------------------------------------------------
    def zeros(self, shape, dtype=None):
        return np.zeros(shape, dtype=dtype)

    def full(self, shape, value, dtype=None):
        return np.full(shape, value, dtype=dtype)

    # -- elementwise ---------------------------------------------------------
    def where(self, cond, x, y):
        """Ternary select; ``x`` / ``y`` may be python scalars (the
        result takes the array operand's dtype)."""
        return np.where(cond, x, y)

    def minimum(self, a, b):
        return np.minimum(a, b)

    def isfinite(self, a):
        return np.isfinite(a)

    def clip(self, a, lo, hi):
        return np.clip(a, lo, hi)

    def abs(self, a):
        return np.abs(a)

    def astype(self, a, dtype):
        return a.astype(dtype)

    # -- shape / gather ------------------------------------------------------
    def take(self, a, idx, axis):
        """Gather along ``axis`` with a 1-D integer index array."""
        return np.take(a, np.asarray(idx), axis=axis)

    def expand_cols(self, a):
        """``(N,) -> (N, 1)`` for broadcasting against ``(N, k)``."""
        return a[:, None]

    # -- reductions ----------------------------------------------------------
    def any(self, a, axis=None):
        return np.any(a, axis=axis)

    def all(self, a, axis=None):
        return np.all(a, axis=axis)

    def sum(self, a, axis=None):
        return np.sum(a, axis=axis)

    def min(self, a):
        return np.min(a)

    # -- scatter primitives --------------------------------------------------
    # The two ensemble scatters every traversal kernel reduces to: given
    # per-directed-edge values (R, E) and the edges' target columns (E,),
    # combine into a fresh (R, C) matrix per world row.  Minimum and OR
    # are exact regardless of reduction order, so no backend's scatter
    # schedule can leak into results.
    def scatter_min_cols(self, shape, col_idx, values):
        """``out[r, col_idx[e]] = min(values[r, e])`` over an ``inf``-filled
        ``shape`` matrix."""
        out = np.full(shape, np.inf, dtype=np.float64)
        rows, edges = np.nonzero(np.isfinite(values))
        if rows.size:
            np.minimum.at(
                out, (rows, np.asarray(col_idx)[edges]), values[rows, edges]
            )
        return out

    def scatter_or_cols(self, shape, col_idx, values):
        """``out[r, col_idx[e]] |= values[r, e]`` over a ``False``-filled
        ``shape`` matrix."""
        n_rows, n_cols = shape
        rows, edges = np.nonzero(values)
        if rows.size == 0:
            return np.zeros(shape, dtype=bool)
        flat = rows * n_cols + np.asarray(col_idx)[edges]
        hit = np.bincount(flat, minlength=n_rows * n_cols)
        return hit.reshape(n_rows, n_cols).astype(bool)

    def put(self, a, idx, values):
        """Scatter-assign ``a[idx] = values`` for *unique* 1-D indices;
        returns the updated array (functionally, for namespaces without
        integer-array ``__setitem__``)."""
        a[np.asarray(idx)] = values
        return a

    # -- device introspection -------------------------------------------------
    def free_memory(self) -> "int | None":
        """Free device memory in bytes, or ``None`` for host backends
        (chunk autosizing then falls back to the fixed budget)."""
        return None

    def world_bytes(self, n_edges: int, n_vertices: int) -> int:
        """Per-world working-set estimate of the portable ``xp`` kernels.

        Dominated by the dense ``(B, 2m)`` float64 candidate matrix of a
        relaxation plus its boolean liveness/frontier companions and a
        few ``(B, n)`` float64 state matrices.
        """
        return 20 * max(2 * n_edges, 1) + 40 * max(n_vertices, 1)

    def synchronize(self) -> None:
        """Barrier for async devices (host backends: no-op)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.key}>"


class NumpyBackend(ArrayBackend):
    """The reference backend: plain NumPy, bit-identity guaranteed.

    ``is_reference`` routes batch methods to the existing specialised
    kernels, so selecting ``backend="numpy"`` (the default) is
    arithmetically a no-op against pre-shim behaviour.  The generic op
    implementations above are still exercised — the conformance suite
    runs the portable ``xp`` kernels against this backend directly and
    pins them bit-identical to the specialised kernels.
    """
