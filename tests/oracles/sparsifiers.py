"""Scalar GDB / EMD references (see the package docstring)."""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from unittest import mock

from repro.core.discrepancy import SparsificationState
from repro.core.emd_sparsifier import EMDConfig, _best_probability, _gain
from repro.core.gdb import GDBConfig
from repro.core.rules import make_rule
from repro.core.sweep import apply_scalar_step
from repro.utils.heap import IndexedMaxHeap


def loop_refine(state: SparsificationState, config: GDBConfig) -> int:
    """GDB sweeps as one rule call and one state update per edge.

    Same stopping rule and return value (the sweep count) as
    :func:`repro.core.gdb.gdb_refine`.
    """
    rule = make_rule(config.k, config.relative, state.n)
    objective = state.d1(relative=config.relative)
    edge_ids = [int(e) for e in state.selected_edge_ids()]
    sweeps = 0
    for sweeps in range(1, config.max_sweeps + 1):
        for eid in edge_ids:
            apply_scalar_step(state, eid, rule(state, eid), config.h)
        new_objective = state.d1(relative=config.relative)
        if abs(objective - new_objective) <= config.tau:
            break
        objective = new_objective
    return sweeps


def e_phase(state: SparsificationState, heap: IndexedMaxHeap,
            config: EMDConfig) -> int:
    """One pass of edge swapping (Algorithm 3, lines 8-20).

    Returns the number of structural swaps (edges replaced by a
    different edge); zero means the backbone has stabilised.
    """
    swaps = 0
    for eid in [int(e) for e in state.selected_edge_ids()]:
        u, v = state.endpoints(eid)
        previous_p = state.deselect_edge(eid)
        heap.update(u, abs(float(state.delta[u])))
        heap.update(v, abs(float(state.delta[v])))

        top_vertex, _ = heap.peek()
        # Candidates: every unselected original edge at the top vertex.
        # Line 17's arg max also includes the just-removed edge e, but
        # that is scored separately below (as the incumbent), so it is
        # skipped here.
        incident = state.incident_edges(top_vertex)
        candidates = [
            int(candidate)
            for candidate in incident[~state.selected[incident]]
        ]

        # The removed edge competes both at its rule-optimal probability
        # and at the probability it already had (the entropy guard can
        # cap the former below the latter; keeping the edge unchanged
        # must never lose to a worse swap).
        best_eid = eid
        best_p = _best_probability(state, eid, config.h, config.relative)
        best_gain = _gain(state, eid, best_p)
        keep_gain = _gain(state, eid, previous_p)
        if keep_gain > best_gain:
            best_gain, best_p = keep_gain, previous_p
        for candidate in candidates:
            if candidate == eid:
                continue
            p = _best_probability(state, candidate, config.h, config.relative)
            g = _gain(state, candidate, p)
            if g > best_gain:
                best_gain, best_eid, best_p = g, candidate, p

        if best_eid != eid:
            swaps += 1
        state.select_edge(best_eid, probability=best_p)
        bu, bv = state.endpoints(best_eid)
        heap.update(bu, abs(float(state.delta[bu])))
        heap.update(bv, abs(float(state.delta[bv])))
    return swaps


# ``repro.core`` re-exports functions named like these modules, so
# attribute access on the package would return the functions.
_GDB = importlib.import_module("repro.core.gdb")
_GRID = importlib.import_module("repro.core.grid")
_EMD = importlib.import_module("repro.core.emd_sparsifier")


def _refine(state, config, plan=None, backend=None, *, sequential=False):
    """``gdb_refine``'s signature, answered by :func:`loop_refine`."""
    return loop_refine(state, config)


@contextmanager
def scalar_reference():
    """Run the sparsifier facades on the scalar references.

    Replaces ``gdb_refine`` where :func:`~repro.core.gdb.gdb`,
    :func:`~repro.core.grid.gdb_grid` and EMD's M-phase look it up, and
    EMD's eager E-phase scan, so ``gdb``, ``emd``, ``sparsify`` and the
    experiment and CLI code built on them run the one-edge-at-a-time
    algorithms of the paper.  In-process only: sharded grid workers are not patched.
    """
    with mock.patch.object(_GDB, "gdb_refine", _refine), \
            mock.patch.object(_GRID, "gdb_refine", _refine), \
            mock.patch.object(_EMD, "gdb_refine", _refine), \
            mock.patch.object(_EMD, "_e_phase_vector", e_phase):
        yield
