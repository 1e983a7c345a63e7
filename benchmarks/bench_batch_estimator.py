"""Smoke benchmark: the Monte-Carlo estimator vs its per-world oracle.

Times a 500-world reliability estimate on a ~2k-edge synthetic graph
through :class:`MonteCarloEstimator` (batched world ensembles) and
through the world-at-a-time reference loop of ``tests/oracles``
("legacy").  The estimator must (a) return the exact same outcome
matrix and (b) beat the per-world loop by at least ``MIN_SPEEDUP``.
Results are archived under ``benchmarks/results/`` like the figure
benchmarks.  Run from the repository root (``python -m pytest
benchmarks/bench_batch_estimator.py``) so ``tests.oracles`` imports.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.datasets import flickr_like
from repro.experiments.common import ResultTable
from repro.queries import PageRankQuery, ReliabilityQuery, sample_vertex_pairs
from repro.sampling import MonteCarloEstimator
from tests.oracles import per_world_outcomes

#: Acceptance floor for the reliability workload (the headline claim).
#: Shared CI runners have noisy clocks — they override this via
#: REPRO_BENCH_MIN_SPEEDUP; the correctness assertion always holds.
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "5.0"))

N_WORLDS = 500
N_PAIRS = 20


@pytest.fixture(scope="module")
def graph():
    # ~2000 edges: n=200, avg_degree=20 -> 20/2 * (200 - 10) + 55 = 1955.
    g = flickr_like(n=200, avg_degree=20, seed=17)
    assert 1800 <= g.number_of_edges() <= 2200
    return g


def _run_both(graph, query, n_samples=N_WORLDS, legacy_samples=None):
    """(speedup, batched outcomes, legacy outcomes) for one query.

    ``legacy_samples`` lets slow queries time the legacy path on fewer
    worlds and extrapolate per-world cost; outcomes are then compared on
    that prefix (the RNG stream is shared, so prefixes coincide).
    """
    legacy_samples = legacy_samples or n_samples
    batched = MonteCarloEstimator(graph, n_samples=n_samples)
    start = time.perf_counter()
    batched_result = batched.run(query, rng=3)
    batched_seconds = time.perf_counter() - start

    start = time.perf_counter()
    legacy_result = per_world_outcomes(graph, query, legacy_samples, rng=3)
    legacy_seconds = (time.perf_counter() - start) * (n_samples / legacy_samples)

    assert np.array_equal(
        batched_result.outcomes[:legacy_samples],
        legacy_result.outcomes,
        equal_nan=True,
    )
    return legacy_seconds / batched_seconds, batched_seconds, legacy_seconds


def test_bench_batch_vs_legacy_reliability(graph, emit):
    pairs = sample_vertex_pairs(graph, N_PAIRS, rng=7)
    speedup, batched_s, legacy_s = _run_both(graph, ReliabilityQuery(pairs))

    table = ResultTable(
        title=f"Batched vs legacy estimator — RL, {N_WORLDS} worlds, "
        f"{graph.number_of_edges()} edges",
        headers=["path", "seconds", "speedup"],
    )
    table.add_row("legacy", legacy_s, 1.0)
    table.add_row("batched", batched_s, speedup)
    emit("bench_batch_estimator", table)

    assert speedup >= MIN_SPEEDUP, (
        f"batched reliability estimate only {speedup:.1f}x faster "
        f"(need >= {MIN_SPEEDUP}x)"
    )


def test_bench_batch_vs_legacy_pagerank(graph, emit):
    query = PageRankQuery(graph.number_of_vertices())
    speedup, batched_s, legacy_s = _run_both(
        graph, query, n_samples=100, legacy_samples=100
    )
    table = ResultTable(
        title=f"Batched vs legacy estimator — PR, 100 worlds, "
        f"{graph.number_of_edges()} edges",
        headers=["path", "seconds", "speedup"],
    )
    table.add_row("legacy", legacy_s, 1.0)
    table.add_row("batched", batched_s, speedup)
    emit("bench_batch_estimator_pagerank", table)
    # PR's legacy inner loop is already vectorised; just require a win.
    assert speedup >= 1.0
