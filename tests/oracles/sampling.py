"""Per-world Monte-Carlo references (see the package docstring)."""

from __future__ import annotations

import numpy as np

from repro.sampling import (
    AdaptiveResult,
    EstimationResult,
    StratifiedEstimator,
    WorldBatch,
    WorldSampler,
)
from repro.sampling.kernels import _csr_segment_indices
from repro.sampling.monte_carlo import warnings_suppressed
from repro.utils.rng import ensure_rng, spawn_rngs


# ----------------------------------------------------------------------
# Boolean-frontier BFS
# ----------------------------------------------------------------------
def bfs_distances_boolean(
    batch, source: int, targets: "np.ndarray | list[int] | None" = None
) -> np.ndarray:
    """``(N, n)`` BFS distances from ``source`` in every world (-1 unreachable).

    Each level expands the frontier of *all still-growing worlds* at
    once: activate the directed edges leaving any frontier vertex,
    scatter their targets through one flat ``bincount``, and retire
    worlds whose frontier emptied.

    With ``targets``, a world also retires as soon as every listed
    vertex has a distance — its other entries may then still read
    ``-1``, so only consume the target columns (the point-to-point
    query optimisation; BFS levels are deterministic, so the target
    distances are unaffected by the early exit).
    """
    N, n = batch.n_worlds, batch.n
    dist = np.full((N, n), -1, dtype=np.int64)
    dist[:, source] = 0
    reached = np.zeros((N, n), dtype=bool)
    reached[:, source] = True
    alive = batch.alive_directed()
    src, dst = batch.topology.dir_source, batch.topology.indices
    if targets is not None:
        targets = np.asarray(targets, dtype=np.int64)
    indptr = batch.topology.indptr
    rows = np.arange(N)
    if targets is not None and targets.size:
        rows = rows[~reached[:, targets].all(axis=1)]
    frontier = np.zeros((N, n), dtype=bool)
    frontier[:, source] = True
    frontier = frontier[rows]
    level = 0
    while rows.size:
        level += 1
        # Hybrid expansion: wide frontiers activate edges with one
        # contiguous pass; narrow ones gather only the CSR segments
        # of vertices that front in *some* world, so the long tail
        # of levels costs almost nothing.
        cols = np.flatnonzero(frontier.any(axis=0))
        lengths = indptr[cols + 1] - indptr[cols]
        total = int(lengths.sum())
        if total == 0:
            break
        if total * 4 >= alive.shape[1]:
            active = alive[rows] & frontier[:, src]
            w_loc, e_loc = np.nonzero(active)
            if w_loc.size == 0:
                break
            flat = w_loc * n + dst[e_loc]
        else:
            e_sub = _csr_segment_indices(indptr, cols, lengths, total)
            src_sub = np.repeat(cols, lengths)
            active = alive[np.ix_(rows, e_sub)] & frontier[:, src_sub]
            w_loc, e_loc = np.nonzero(active)
            if w_loc.size == 0:
                break
            flat = w_loc * n + dst[e_sub[e_loc]]
        hit = np.bincount(flat, minlength=rows.size * n)
        hit = hit.reshape(rows.size, n).astype(bool)
        new = hit & ~reached[rows]
        w_new, v_new = np.nonzero(new)
        if w_new.size == 0:
            break
        dist[rows[w_new], v_new] = level
        reached[rows[w_new], v_new] = True
        keep = new.any(axis=1)
        if targets is not None and targets.size:
            keep &= ~reached[np.ix_(rows, targets)].all(axis=1)
        rows = rows[keep]
        frontier = new[keep]
    return dist


class BooleanBFSBatch(WorldBatch):
    """A :class:`WorldBatch` whose host BFS is :func:`bfs_distances_boolean`.

    Every query's ``evaluate_batch`` reaches BFS through
    ``batch.bfs_distances``, so evaluating a query on this batch runs
    the whole query on the boolean reference kernel.
    """

    __slots__ = ()

    def bfs_distances(self, source, targets=None):
        return bfs_distances_boolean(self, source, targets)


# ----------------------------------------------------------------------
# World-at-a-time estimators
# ----------------------------------------------------------------------
def per_world_outcomes(graph, query, n_samples, rng=None) -> EstimationResult:
    """``MonteCarloEstimator(graph, n_samples).run(query, rng)``, one
    ``Query.evaluate`` per sampled world."""
    rng = ensure_rng(rng)
    sampler = WorldSampler(graph)
    outcomes = np.empty((n_samples, query.unit_count()), dtype=np.float64)
    for i, world in enumerate(sampler.sample_many(n_samples, rng)):
        outcomes[i] = query.evaluate(world)
    return EstimationResult(outcomes=outcomes)


def per_world_repeated_estimates(
    graph, query, runs=100, n_samples=200, rng=None
) -> np.ndarray:
    """:func:`repro.sampling.repeated_estimates` on :func:`per_world_outcomes`."""
    return np.array([
        per_world_outcomes(graph, query, n_samples, rng=g).scalar_estimate()
        for g in spawn_rngs(rng, runs)
    ])


def per_world_adaptive(
    graph, query, target_width, rng=None, min_samples=30,
    max_samples=20_000, batch=10,
) -> AdaptiveResult:
    """:func:`repro.sampling.adaptive_estimate`, drawing one world at a time.

    Same stopping rule and result; each world's scalar is the nan-mean
    of its ``Query.evaluate`` outcome.
    """
    rng = ensure_rng(rng)
    sampler = WorldSampler(graph)
    values: list[float] = []

    def draw(count: int) -> None:
        for world in sampler.sample_many(count, rng):
            outcome = query.evaluate(world)
            with warnings_suppressed():
                values.append(float(np.nanmean(outcome)))

    draw(min_samples)
    while True:
        arr = np.asarray(values, dtype=np.float64)
        defined = arr[~np.isnan(arr)]
        if len(defined) >= 2:
            sigma = float(np.std(defined, ddof=1))
            width = 3.92 * sigma / np.sqrt(len(defined))
            if width <= target_width:
                return AdaptiveResult(
                    estimate=float(defined.mean()),
                    samples_used=len(values),
                    confidence_width=width,
                    converged=True,
                )
        if len(values) >= max_samples:
            sigma = float(np.std(defined, ddof=1)) if len(defined) >= 2 else float("nan")
            return AdaptiveResult(
                estimate=float(defined.mean()) if len(defined) else float("nan"),
                samples_used=len(values),
                confidence_width=(
                    3.92 * sigma / np.sqrt(len(defined)) if len(defined) >= 2
                    else float("nan")
                ),
                converged=False,
            )
        draw(min(batch, max_samples - len(values)))


def per_world_stratified(
    estimator: StratifiedEstimator, query, rng=None
) -> float:
    """``estimator.run(query, rng)``, one masked world at a time per stratum."""
    rng = ensure_rng(rng)
    sampler = estimator.sampler
    weights = estimator.stratum_weights()
    allocation = np.maximum(1, np.rint(weights * estimator.n_samples).astype(int))
    total = 0.0
    for assignment, weight, budget in zip(
        estimator.stratum_assignments(), weights, allocation
    ):
        if weight == 0.0:
            continue
        stratum_values = np.empty(budget, dtype=np.float64)
        for i in range(budget):
            mask = sampler.sample_mask(rng)
            mask[estimator.conditioned] = assignment
            outcome = query.evaluate(sampler.world_from_mask(mask))
            defined = outcome[~np.isnan(outcome)]
            stratum_values[i] = defined.mean() if len(defined) else np.nan
        defined_values = stratum_values[~np.isnan(stratum_values)]
        if len(defined_values) == 0:
            continue
        total += weight * float(defined_values.mean())
    return total
