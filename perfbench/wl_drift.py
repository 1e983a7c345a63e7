"""drift-stream: incremental maintenance under a seeded drift stream.

``IncrementalSparsifier(GDB^R-t, alpha=0.3)`` on an ~18k-edge graph is
fed by ``DriftWorkload`` at 1% probability drift per batch; every 4th
batch also inserts and deletes 0.2% of the edges.  One operation is one
``apply`` call; generating the batch is not part of its latency.  At the
end the maintained selection must equal a cold rebuild's under the same
seed, with D1 no worse than cold beyond 1e-6 (relative).
"""

from __future__ import annotations

import time

import numpy as np

import inputs
from common import (Result, cpu_clock, digest, finish_trace, loop_metrics,
                    median, op_scope, percentile, run_for, timed_setups)

VARIANT = "GDB^R-t"
DRIFT_OPS = ("drift", "structural")
#: One-sided D1 slack against the cold rebuild, relative to max(1, cold).
D1_TOL = 1e-6


def _setup(params):
    from repro.core.maintain import IncrementalSparsifier
    from repro.datasets.drift import DriftWorkload

    maintainer = IncrementalSparsifier(
        inputs.drift_graph(), params["alpha"], variant=VARIANT,
        rng=params["rng"],
    )
    workload = DriftWorkload(maintainer.graph,
                             edge_fraction=inputs.DRIFT_FRACTION,
                             seed=params["drift_seed"])
    return maintainer, workload


def _step(maintainer, workload, index, result: Result, tracer=None):
    """Generate and apply batch ``index``; (kind, apply seconds, output)."""
    kind = "structural" if inputs.structural(index) else "drift"
    with op_scope(tracer, "generate"):
        batch = inputs.drift_batches(workload, lambda: maintainer.graph, index)
    start = cpu_clock()
    with op_scope(tracer, kind):
        report = result.call(maintainer.apply, batch)
    seconds = cpu_clock() - start
    if report is None:
        return kind, seconds, None
    return kind, seconds, (digest(maintainer.state.selected), report.d1)


def _check_against_cold(maintainer, params, result: Result) -> None:
    """Final selection bit-identical to a cold rebuild, D1 one-sided."""
    from repro.core.backbone import BackbonePlan
    from repro.core.discrepancy import SparsificationState
    from repro.core.gdb import gdb_refine
    from repro.core.sweep import build_sweep_plan

    graph = maintainer.graph
    plan = BackbonePlan(graph)
    ids = plan.backbone(params["alpha"], method="bgi", rng=params["rng"],
                        top_up="stable")
    state = SparsificationState(graph)
    state.select_edges(ids)
    gdb_refine(state, maintainer.config, plan=build_sweep_plan(state))
    result.check(
        bool(np.array_equal(maintainer.state.selected, state.selected)),
        "maintained selection differs from the cold rebuild's")
    warm, cold = maintainer.d1(), state.d1(relative=maintainer.config.relative)
    result.check(bool(np.isfinite(warm)), "maintained D1 is not finite")
    result.check(warm <= cold + D1_TOL * max(1.0, cold),
                 f"maintained D1 {warm:.6e} exceeds cold {cold:.6e}")


def run(seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    params = inputs.drift_params(seed)
    setup_s, (maintainer, workload) = timed_setups(lambda: _setup(params),
                                                   result.speed)
    reference = []

    def step(index):
        _, spent, out = _step(maintainer, workload, index, result)
        reference.append(out)
        return spent

    # A traced run spends half its budget untraced, half traced; an
    # untraced one keeps 10+ batches beyond its p90.
    loop = run_for(seconds / 2 if trace else seconds, 20 if trace else 100,
                   step, result.speed)
    latencies = loop.latencies
    result.summary = {"batches": len(latencies),
                      "maintain_p50_s": median(latencies),
                      "maintain_p90_s": percentile(latencies, 90)}
    if not trace:
        _check_against_cold(maintainer, params, result)
        result.metrics = loop_metrics(result, setup_s, loop)
        return result

    import layers
    from tracer import Tracer

    tracer = Tracer()
    must_fire = layers.install(tracer, "drift-stream")
    try:
        with tracer.operation("setup"):
            maintainer, workload = _setup(params)
        start = time.perf_counter()
        kinds = []
        for index, expected in enumerate(reference):
            kind, _, out = _step(maintainer, workload, index, result, tracer)
            kinds.append(kind)
            result.check(out == expected, f"traced batch {index} differs "
                         "from the untraced run's")
        traced_wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    _check_against_cold(maintainer, params, result)
    incl, total = tracer.inclusive, tracer.total
    result.layers = {
        "drift.generate_s": (incl("drift.generate", "generate") / len(kinds),
                             "s"),
        "datasets.generate_s": (incl("datasets.generate", "setup"), "s"),
        "quality.d1_maintained": (maintainer.d1(), "ratio"),
    }
    for kind in DRIFT_OPS:
        n = max(1, kinds.count(kind))
        for metric, span in (
            ("delta.apply_s", "delta.apply"),
            ("backbone.repair_s", "backbone.repair"),
            ("state.apply_delta_s", "state.apply_delta"),
            ("backbone.instantiate_s", "backbone.instantiate"),
            ("sweep.extend_s", "sweep.extend"),
            ("gdb.warm_s", "gdb.warm"),
        ):
            result.layers[f"{metric}.{kind}"] = (incl(span, kind) / n, "s")
        result.layers[f"gdb.warm_sweeps.{kind}"] = (
            total("gdb.warm_sweeps", kind) / n, "count")
        result.layers[f"maintain.churn.{kind}"] = (
            total("maintain.churn", kind) / n, "count")
    finish_trace(result, tracer, must_fire, DRIFT_OPS + ("generate",),
                 traced_wall, loop.wall)
    return result
