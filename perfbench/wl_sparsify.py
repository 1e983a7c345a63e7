"""sparsify-12k: the cold ``core`` path on an 11,922-edge graph.

One operation is a pass of the paper's evaluation of one dataset:
``sparsify`` with GDB^R-t, EMD^R-t and LP-t at alpha=0.3, then a serial
``gdb_grid`` over alphas {0.2, 0.4} x h {0.05, 0.2}.  Every pass gets
the same inputs, so every pass must return the same outputs.
"""

from __future__ import annotations

import importlib
import math
import time

import inputs
from common import (Result, cpu_clock, digest, finish_trace, graph_digest,
                    loop_metrics, median, op_scope, run_for, timed_setups)

VARIANTS = {"gdb": "GDB^R-t", "emd": "EMD^R-t", "lp": "LP-t"}
OPS = ("gdb", "emd", "lp", "grid")


def _one_pass(graph, params, result: Result, tracer=None):
    """Run the four operations; returns (seconds per op, outputs)."""
    from repro.core.discrepancy import d1_objective
    from repro.core.sparsify import check_budget

    facade = importlib.import_module("repro.core.sparsify")
    grid_mod = importlib.import_module("repro.core.grid")
    alpha = params["alpha"]
    calls = {
        "gdb": lambda: facade.sparsify(graph, alpha, variant=VARIANTS["gdb"],
                                       rng=params["gdb_rng"]),
        "emd": lambda: facade.sparsify(graph, alpha, variant=VARIANTS["emd"],
                                       rng=params["emd_rng"]),
        "lp": lambda: facade.sparsify(graph, alpha, variant=VARIANTS["lp"],
                                      rng=params["lp_rng"]),
        "grid": lambda: grid_mod.gdb_grid(
            graph, params["grid_alphas"], params["grid_h"], relative=True,
            rng=params["grid_rng"]),
    }
    seconds, outputs = {}, {}
    for op in OPS:
        if tracer is None:
            result.speed.sample_if_due()
        start = cpu_clock()
        with op_scope(tracer, op):
            out = result.call(calls[op])
        seconds[op] = cpu_clock() - start
        if out is None:
            outputs[op] = None
        elif op == "grid":
            cells = sorted(out.items())
            objectives = [cell.objective for _, cell in cells]
            result.check(all(math.isfinite(o) for o in objectives),
                         "grid objective is not finite")
            outputs[op] = digest(
                [key for key, _ in cells], objectives,
                [cell.sweeps for _, cell in cells],
                [graph_digest(cell.graph) for _, cell in cells],
            )
        else:
            d1 = d1_objective(graph, out, relative=True)
            result.check(check_budget(graph, out, alpha),
                         f"{VARIANTS[op]} output breaks the alpha budget")
            result.check(math.isfinite(d1), f"{VARIANTS[op]} D1 is not finite")
            outputs[op] = (graph_digest(out), d1)
    return seconds, outputs


def run(seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    params = inputs.sparsify_params(seed)
    setup_s, graph = timed_setups(inputs.sparsify_graph, result.speed)
    per_op = {op: [] for op in OPS}
    reference = {}

    def step(index):
        spent, outputs = _one_pass(graph, params, result)
        if index == 0:
            reference.update(outputs)
        result.check(outputs == reference,
                     f"pass {index} outputs differ from pass 0")
        for op in OPS:
            per_op[op].append(spent[op])
        return sum(spent.values())

    # A traced run spends half its budget untraced, half traced.
    loop = run_for(seconds / 2 if trace else seconds, 1 if trace else 2, step,
                   result.speed)
    result.summary = {"passes": len(loop.latencies),
                      **_summary(per_op, reference)}
    if not trace:
        result.metrics = loop_metrics(result, setup_s, loop)
        return result

    import layers
    from tracer import Tracer

    tracer = Tracer()
    must_fire = layers.install(tracer, "sparsify-12k")
    try:
        with tracer.operation("setup"):
            inputs.sparsify_graph()
        start = time.perf_counter()
        for _ in loop.latencies:
            _, outputs = _one_pass(graph, params, result, tracer)
            result.check(outputs == reference,
                         "traced outputs differ from the untraced run's")
        traced_wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    _layer_metrics(result, tracer, len(loop.latencies))
    finish_trace(result, tracer, must_fire, OPS, traced_wall, loop.wall)
    return result


def _summary(per_op, outputs) -> dict:
    """The per-variant CPU times (medians over passes) and D1 values."""
    return {
        "sparsify_gdb_s": median(per_op["gdb"]),
        "sparsify_emd_s": median(per_op["emd"]),
        "sparsify_lp_s": median(per_op["lp"]),
        "grid_s": median(per_op["grid"]),
        "d1_gdb": outputs["gdb"][1] if outputs.get("gdb") else 0.0,
        "d1_emd": outputs["emd"][1] if outputs.get("emd") else 0.0,
    }


def _layer_metrics(result, tracer, n: int) -> None:
    """Per-layer seconds and counts, per pass."""
    def incl(name, op=None, prefix=False):
        return tracer.inclusive(name, op, prefix) / n

    def total(name, op=None):
        return tracer.total(name, op) / n

    refine_ops = ("gdb", "grid")
    self_time = tracer.self_times()
    result.layers = {
        "backbone.plan_s": (sum(incl("backbone.", op, prefix=True)
                                for op in OPS), "s"),
        "backbone.forests": (total("backbone.forests"), "count"),
        "state.select_s": (incl("state.select"), "s"),
        "state.build_graph_s": (incl("state.build_graph"), "s"),
        "sweep.plan_s": (incl("sweep.plan"), "s"),
        "sweep.colors": (total("sweep.colors"), "count"),
        "gdb.refine_s": (sum(incl("gdb.refine", op) for op in refine_ops), "s"),
        "gdb.sweeps": (sum(total("gdb.sweeps", op) for op in refine_ops),
                       "count"),
        "gdb.capped": (sum(total("gdb.capped", op) for op in refine_ops),
                       "count"),
        "emd.mphase_s": (incl("gdb.refine", "emd"), "s"),
        "emd.iterations": (tracer.calls("gdb.refine", "emd") / n, "count"),
        "emd.ephase_s": (self_time.get(("emd", "emd"), 0.0) / n, "s"),
        "lp.solve_s": (incl("lp.solve"), "s"),
        "grid.cells": (total("grid.cells"), "count"),
        "grid.capped_cells": (total("grid.capped_cells"), "count"),
        "datasets.generate_s": (tracer.inclusive("datasets.generate", "setup"),
                                "s"),
    }
