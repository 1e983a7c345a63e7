"""Smoke benchmark: the device-portable ``xp`` backend seam.

Runs the portable xp kernel formulations against the specialised host
kernels on a ~5k-edge Flickr-style ensemble and a GDB sweep workload,
and archives machine-readable results as
``benchmarks/results/BENCH_backend.json``.

Gates:

- **Bit-identity:** ``backend="numpy"`` — the reference — must return
  byte-identical BFS/weighted distance matrices to the default path,
  and the portable xp formulations themselves (run through an
  array-API adapter over the NumPy namespace) must match BFS *exactly*
  and weighted distances within ``1e-9``.
- **Sweep tolerance:** the DeviceSweep GDB path must converge to the
  host engine's objective within ``1e-6``.

Timings for every locally-available backend are archived, so the JSON
doubles as a portability report.
"""

from __future__ import annotations

import os
import time

import pytest

import numpy as np

from repro.backend import ArrayAPIBackend, available_backends, resolve_backend
from repro.core.backbone import build_backbone
from repro.core.discrepancy import SparsificationState
from repro.core.gdb import GDBConfig, gdb_refine
from repro.datasets import flickr_like
from repro.sampling import WorldSampler

N_WORLDS = int(os.environ.get("REPRO_BENCH_BACKEND_WORLDS", "128"))
N_SOURCES = 4


@pytest.fixture(scope="module")
def sampler():
    return WorldSampler(flickr_like(n=400, avg_degree=20, seed=17))


def _time_distances(batch, sources) -> float:
    start = time.perf_counter()
    for s in sources:
        batch.bfs_distances(s)
        batch.weighted_distances(s)
    if not batch.backend.is_reference:
        batch.backend.synchronize()
    return time.perf_counter() - start


def test_bench_backend(sampler, emit_json):
    sources = list(range(N_SOURCES))
    ref_batch = sampler.sample_batch(N_WORLDS, rng=3)
    ref_bfs = [ref_batch.bfs_distances(s) for s in sources]
    ref_weighted = [ref_batch.weighted_distances(s) for s in sources]

    # Gate 1a: the named reference backend is arithmetically a no-op.
    named = sampler.sample_batch(N_WORLDS, rng=3, backend="numpy")
    for s in sources:
        np.testing.assert_array_equal(named.bfs_distances(s), ref_bfs[s])
        np.testing.assert_array_equal(named.weighted_distances(s), ref_weighted[s])

    # Gate 1b: the portable xp formulations on raw NumPy ops.
    numpy_api = ArrayAPIBackend(np, name="numpy_api")
    portable = sampler.sample_batch(N_WORLDS, rng=3, backend=numpy_api)
    for s in sources:
        np.testing.assert_array_equal(portable.bfs_distances(s), ref_bfs[s])
        np.testing.assert_allclose(
            portable.weighted_distances(s), ref_weighted[s],
            rtol=0.0, atol=1e-9,
        )

    # Gate 2: DeviceSweep converges to the host objective.
    sweep_graph = flickr_like(n=60, avg_degree=12, seed=5)
    backbone = build_backbone(sweep_graph, 0.4, method="bgi", rng=5)
    config = GDBConfig(max_sweeps=2000)
    host_state = SparsificationState(sweep_graph)
    host_state.select_edges(backbone)
    host_sweeps = gdb_refine(host_state, config)
    dev_state = SparsificationState(sweep_graph)
    dev_state.select_edges(backbone)
    dev_sweeps = gdb_refine(dev_state, config, backend=numpy_api)
    sweep_gap = abs(host_state.d1() - dev_state.d1())
    assert sweep_gap <= 1e-6

    # Timings for every backend resolvable here (incl. "instrumented",
    # whose wrapping overhead is itself worth tracking).
    timings: dict[str, float] = {}
    reference_s = _time_distances(ref_batch, sources)
    timings["numpy"] = reference_s
    timings["numpy_api"] = _time_distances(portable, sources)
    for name in available_backends():
        if name == "numpy":
            continue
        batch = sampler.sample_batch(N_WORLDS, rng=3, backend=name)
        timings[name] = _time_distances(batch, sources)

    payload = {
        "workload": {
            "n_vertices": 400,
            "n_edges": sampler.m,
            "worlds": N_WORLDS,
            "sources": N_SOURCES,
        },
        "available_backends": list(available_backends()),
        "timings_s": {k: round(v, 6) for k, v in timings.items()},
        "gates": {
            "numpy_bit_identical": True,
            "portable_bfs_exact": True,
            "portable_weighted_atol": 1e-9,
            "sweep_objective_gap": sweep_gap,
            "sweep_counts": {"host": host_sweeps, "device": dev_sweeps},
        },
    }
    emit_json("backend", payload)
