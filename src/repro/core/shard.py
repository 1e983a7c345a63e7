"""Deterministic work sharding: fan the (alpha, h) grid over processes.

The partitioning rule (after Bobpp's deterministic-partitioning
playbook) is that **shard composition is a pure function of the work
description, never of the worker count or arrival order**: the grid's
canonical cell list (``alphas x h_values`` in declaration order) is cut
into :class:`GridShard` blocks keyed ``(alpha index, h block)``, every
worker computes its shards from an identically-seeded per-process
state, and the parent stitches cells back in canonical ``(alpha, h)``
order.  Because each cell of :func:`repro.core.grid.gdb_grid` under an
*int* seed is independent — the backbone is re-seeded per alpha and the
snapshot/restore resets the state between cells — a cell's bits cannot
depend on which process computed it, so results are **bit-identical
for any ``workers``** (the acceptance gate of the out-of-core bench).

Workers are a :class:`~concurrent.futures.ProcessPoolExecutor` with a
pool *initializer* (the PR 2 pattern): per-process graph state is built
once, either

- from a **binary dataset path** — each worker ``mmap``s the file
  read-only (:func:`repro.datasets.binary_io.read_binary`), so no edge
  bytes are pickled over IPC and all processes share the page cache, or
- from the graph's **edge arrays** shipped once via ``initargs`` (the
  fallback when no on-disk dataset backs the graph).

If the pool cannot start (sandboxes, missing semaphores), execution
falls back to the serial :func:`gdb_grid` body in-process — same
cells, same bits — with a single :class:`RuntimeWarning`, mirroring
:class:`repro.sampling.parallel.ParallelBatchExecutor`.

Sharded mode is for *objective sweeps*: ``build_graphs`` and
``consume`` are parent-side features and stay on the serial path, and
the seed must be an ``int`` (a shared generator stream cannot be
consumed sequentially from several processes; ``None`` would give each
worker different entropy).
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.core.array_graph import EdgeArrayGraph
from repro.core.grid import GridCell

#: Default h-block width: rows split in blocks of this many h values so
#: a single-alpha grid still fans out.  Worker-count independent.
DEFAULT_H_BLOCK = 4


@dataclass(frozen=True)
class GridShard:
    """One deterministic unit of grid work: an alpha row's h block."""

    alpha_index: int
    h_start: int
    h_stop: int


def grid_shards(
    n_alphas: int, n_h: int, h_block: "int | None" = None
) -> list[GridShard]:
    """Canonical shard list for an ``n_alphas x n_h`` grid.

    The partition depends only on the grid shape (and the explicit
    ``h_block`` override) — never on worker count — and is ordered by
    ``(alpha_index, h_start)``, which is also the stitch order.
    """
    if n_alphas < 1 or n_h < 1:
        raise ValueError(
            f"grid must be non-empty, got {n_alphas} alphas x {n_h} h values"
        )
    if h_block is None:
        h_block = DEFAULT_H_BLOCK
    if h_block < 1:
        raise ValueError(f"h_block must be positive, got {h_block}")
    return [
        GridShard(a, start, min(start + h_block, n_h))
        for a in range(n_alphas)
        for start in range(0, n_h, h_block)
    ]


# -- worker-process side ------------------------------------------------------
#: Per-process state installed by the pool initializer: the rebuilt
#: graph view, its SparsificationState / BackbonePlan, and a per-alpha
#: memo of (backbone, seeded snapshot, sweep plan) so several shards of
#: one alpha row pay the row setup once.
_GRID_WORKER: dict = {}


def _build_worker_graph(payload: dict):
    if payload["kind"] == "binary":
        from repro.datasets.binary_io import read_binary

        dataset = read_binary(payload["path"], mmap=True, name=payload["name"])
        return dataset.graph()
    return EdgeArrayGraph(
        payload["n"], payload["src"], payload["dst"], payload["prob"],
        name=payload["name"], validate=False,
    )


def _init_grid_worker(payload: dict, config: dict) -> None:
    """Pool initializer: build the per-process grid state once."""
    from repro.core.backbone import BackbonePlan
    from repro.core.discrepancy import SparsificationState

    graph = _build_worker_graph(payload)
    state = SparsificationState(graph)
    _GRID_WORKER["config"] = config
    _GRID_WORKER["state"] = state
    _GRID_WORKER["empty"] = state.snapshot()
    _GRID_WORKER["plan"] = BackbonePlan(graph)
    _GRID_WORKER["rows"] = {}


def _worker_row(alpha_index: int):
    """The alpha row's (backbone, seeded snapshot, sweep plan), memoised."""
    row = _GRID_WORKER["rows"].get(alpha_index)
    if row is not None:
        return row
    from repro.core.gdb import _colored_eligible
    from repro.core.sweep import build_sweep_plan

    config = _GRID_WORKER["config"]
    state = _GRID_WORKER["state"]
    state.restore(_GRID_WORKER["empty"])
    backbone = _GRID_WORKER["plan"].backbone(
        config["alphas"][alpha_index],
        method=config["backbone_method"],
        rng=config["seed"],
    )
    state.select_edges(backbone)
    seeded = state.snapshot()
    colored = _colored_eligible(config["k"], state.n)
    plan = build_sweep_plan(state, sequential_only=not colored)
    row = (backbone, seeded, plan)
    _GRID_WORKER["rows"][alpha_index] = row
    return row


def _cells_for_shard(shard_key: tuple) -> tuple:
    """Worker task: one shard's cells ``(alpha_index, backbone, rows)``.

    ``rows`` is a list of ``(h_index, objective, sweeps)`` — exactly the
    quantities the serial driver derives per cell, computed from an
    identically-seeded state, so each value is bit-identical to its
    serial counterpart.
    """
    alpha_index, h_start, h_stop = shard_key
    from repro.core.gdb import GDBConfig, gdb_refine

    config = _GRID_WORKER["config"]
    state = _GRID_WORKER["state"]
    backbone, seeded, plan = _worker_row(alpha_index)
    rows = []
    for h_index in range(h_start, h_stop):
        state.restore(seeded)
        gdb_config = GDBConfig(
            h=config["h_values"][h_index],
            tau=config["tau"],
            max_sweeps=config["max_sweeps"],
            k=config["k"],
            relative=config["relative"],
        )
        sweeps = gdb_refine(state, gdb_config, plan=plan)
        objective = float(state.d1(relative=config["relative"]))
        rows.append((h_index, objective, sweeps))
    return alpha_index, backbone, rows


# -- parent side --------------------------------------------------------------
def _graph_payload(graph, dataset) -> dict:
    """How workers rebuild the graph: mmap a dataset, or shipped arrays."""
    if dataset is not None:
        from repro.datasets.binary_io import BinaryDataset, read_header

        if isinstance(dataset, BinaryDataset):
            path, header = dataset.path, dataset.header
            if path is None:
                raise ValueError(
                    "sharded execution needs an on-disk binary dataset "
                    "(this BinaryDataset has no path)"
                )
        else:
            path = str(dataset)
            header = read_header(path)
        if (header.n_vertices != graph.number_of_vertices()
                or header.n_edges != graph.number_of_edges()):
            raise ValueError(
                f"dataset {path!r} ({header.n_vertices} vertices, "
                f"{header.n_edges} edges) does not match the graph "
                f"({graph.number_of_vertices()} vertices, "
                f"{graph.number_of_edges()} edges)"
            )
        return {"kind": "binary", "path": path, "name": graph.name}
    endpoints = graph.edge_index_array()
    return {
        "kind": "arrays",
        "n": graph.number_of_vertices(),
        "src": np.ascontiguousarray(endpoints[:, 0]),
        "dst": np.ascontiguousarray(endpoints[:, 1]),
        "prob": np.asarray(graph.probability_array()),
        "name": graph.name,
    }


def sharded_gdb_grid(
    graph,
    alphas,
    h_values,
    workers: int,
    k: "int | str" = 1,
    relative: bool = False,
    tau: float = 1e-9,
    max_sweeps: int = 200,
    backbone_method: str = "bgi",
    rng: "int | None" = None,
    dataset=None,
    h_block: "int | None" = None,
) -> dict:
    """Sharded counterpart of :func:`repro.core.grid.gdb_grid`.

    Returns the same ``{(alpha, h): GridCell}`` dict (``graph=None`` in
    every cell, as with ``build_graphs=False``), bit-identical to the
    serial driver for the same int ``rng`` and to itself for any
    ``workers``.  ``dataset`` (a
    :class:`~repro.datasets.binary_io.BinaryDataset` or a path to one)
    lets workers mmap the edge data instead of receiving it pickled.

    Callers normally reach this through ``gdb_grid(..., workers=N)``.
    """
    alphas = [float(a) for a in alphas]
    h_values = [float(h) for h in h_values]
    if rng is not None and not isinstance(rng, (int, np.integer)):
        raise ValueError(
            "sharded gdb_grid needs an int seed (or None): a generator's "
            "stream cannot be consumed deterministically across processes"
        )
    if rng is None and backbone_method != "local_degree":
        raise ValueError(
            "sharded gdb_grid needs an explicit int seed: with rng=None "
            "each process would draw its backbone top-up from fresh OS "
            "entropy and results would not be reproducible"
        )
    shards = grid_shards(len(alphas), len(h_values), h_block=h_block)
    config = {
        "alphas": alphas,
        "h_values": h_values,
        "k": k,
        "relative": relative,
        "tau": tau,
        "max_sweeps": max_sweeps,
        "backbone_method": backbone_method,
        "seed": None if rng is None else int(rng),
    }

    shard_rows = _run_shards(graph, config, shards, workers, dataset)

    # Stitch in canonical (alpha, h) order — the serial driver's
    # insertion order — attaching each row's shared backbone array.
    results: dict = {}
    backbones: dict[int, np.ndarray] = {}
    cells: dict[tuple[int, int], tuple[float, int]] = {}
    for (alpha_index, backbone, rows) in shard_rows:
        backbones.setdefault(alpha_index, backbone)
        for h_index, objective, sweeps in rows:
            cells[(alpha_index, h_index)] = (objective, sweeps)
    for alpha_index, alpha in enumerate(alphas):
        for h_index, h in enumerate(h_values):
            objective, sweeps = cells[(alpha_index, h_index)]
            results[(alpha, h)] = GridCell(
                alpha=alpha, h=h, objective=objective, sweeps=sweeps,
                graph=None, backbone=backbones[alpha_index],
            )
    return results


def _run_shards(graph, config, shards, workers, dataset) -> list:
    """Fan shards over a pool; in-process fallback on any pool failure."""
    workers = min(int(workers), len(shards))
    keys = [(s.alpha_index, s.h_start, s.h_stop) for s in shards]
    if workers > 1:
        try:
            payload = _graph_payload(graph, dataset)
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_grid_worker,
                initargs=(payload, config),
            ) as pool:
                return list(pool.map(_cells_for_shard, keys))
        except ValueError:
            raise  # caller errors (dataset mismatch), not pool failures
        except Exception as error:
            warnings.warn(
                f"process pool unavailable ({type(error).__name__}: {error});"
                " computing grid shards in-process",
                RuntimeWarning,
                stacklevel=3,
            )
    # Serial fallback: run the same shard bodies against local state.
    _init_grid_worker_local(graph, config)
    try:
        return [_cells_for_shard(key) for key in keys]
    finally:
        _GRID_WORKER.clear()


def _init_grid_worker_local(graph, config: dict) -> None:
    """In-process twin of :func:`_init_grid_worker` reusing the live graph."""
    from repro.core.backbone import BackbonePlan
    from repro.core.discrepancy import SparsificationState

    state = SparsificationState(graph)
    _GRID_WORKER["config"] = config
    _GRID_WORKER["state"] = state
    _GRID_WORKER["empty"] = state.snapshot()
    _GRID_WORKER["plan"] = BackbonePlan(graph)
    _GRID_WORKER["rows"] = {}
