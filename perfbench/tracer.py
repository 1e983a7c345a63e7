"""Span tracer that wraps the library's callables from outside.

The benchmark never edits ``src/``: tracing replaces an attribute in the
namespace its caller looks it up in (a module global such as
``repro.core.gdb.gdb_refine``, or a method on its class such as
``SparsificationState.select_edges``) with a wrapper that records one
span per call and restores the original on :meth:`Tracer.uninstall`.

Spans are kept in memory as ``(name, op, start, end, parent)`` rows;
``op`` is the benchmark operation the span ran under (set with
:meth:`Tracer.operation`), so one layer can be split by caller or batch
kind.  The tracer is single-threaded by design: every traced workload
drives the library from the benchmark's main thread.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.ops: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.fired: dict[str, int] = {}
        self.op = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    @contextlib.contextmanager
    def operation(self, op: str):
        """Tag every span opened inside the block with ``op``."""
        previous, self.op = self.op, op
        try:
            yield
        finally:
            self.op = previous

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[(name, self.op)] += value

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.ops.append(self.op)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    # -- wrapping ------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, after=None,
             before=None) -> str:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``before(args, kwargs)`` runs ahead of the call and its value is
        handed to ``after(tracer, result, args, kwargs, before_value)``,
        which runs once the call returns, inside the caller's op, to
        record counts.  Returns the wrapper's label in :attr:`fired`.
        """
        original = getattr(owner, attr)
        where = (f"{owner.__module__}.{owner.__qualname__}"
                 if isinstance(owner, type) else owner.__name__)
        label = f"{where}.{attr}"
        self.fired.setdefault(label, 0)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self.fired[label] += 1
            token = before(args, kwargs) if before is not None else None
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                after(self, result, args, kwargs, token)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))
        return label

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- derived views -------------------------------------------------
    def self_times(self) -> dict[tuple[str, str], float]:
        """``(span name, op) -> seconds`` not covered by child spans."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        out: dict[tuple[str, str], float] = defaultdict(float)
        for i, name in enumerate(self.names):
            out[(name, self.ops[i])] += self.ends[i] - self.starts[i] - child[i]
        return out

    def inclusive(self, name: str, op: "str | None" = None,
                  prefix: bool = False) -> float:
        """Wall seconds inside spans called ``name`` (outermost only).

        With ``prefix`` every span whose name starts with ``name``
        matches, and a match nested in another match is not counted
        twice.
        """
        def matches(i: int) -> bool:
            n = self.names[i]
            return n.startswith(name) if prefix else n == name

        total = 0.0
        for i in range(len(self.names)):
            if not matches(i) or (op is not None and self.ops[i] != op):
                continue
            parent = self.parents[i]
            while parent >= 0 and not matches(parent):
                parent = self.parents[parent]
            if parent < 0:
                total += self.ends[i] - self.starts[i]
        return total

    def calls(self, name: str, op: "str | None" = None) -> int:
        return sum(
            1 for i, n in enumerate(self.names)
            if n == name and (op is None or self.ops[i] == op)
        )

    def total(self, counter: str, op: "str | None" = None) -> float:
        return sum(
            v for (name, o), v in self.counts.items()
            if name == counter and (op is None or o == op)
        )
