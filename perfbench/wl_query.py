"""query-mc: the paper's four MC queries on G and on its sparsifier G'.

G is the 35,922-edge graph, G' = GDB^R-t at alpha=0.3 of it (built in
set-up).  One operation is a pass: PR, SP, RL and CC estimated over 100
worlds on G and on G', then the D_em (Eq. 17) of each query's outcomes
between the two graphs.  Every pass gets the same inputs, so every pass
must return the same outcome matrices.
"""

from __future__ import annotations

import importlib
import math
import time

import numpy as np

import inputs
from common import (Result, cpu_clock, digest, finish_trace, loop_metrics,
                    median, op_scope, run_for, timed_setups)

QUERIES = ("PR", "SP", "RL", "CC")
GRAPHS = ("orig", "sparse")
OPS = tuple(f"{g}.{q}" for g in GRAPHS for q in QUERIES) + ("demd",)


def _setup(seed: int):
    from repro.core.sparsify import sparsify
    from repro.queries import (ClusteringCoefficientQuery, PageRankQuery,
                               ReliabilityQuery, ShortestPathQuery)
    from repro.sampling import MonteCarloEstimator

    graph = inputs.query_graph()
    params = inputs.query_params(seed, graph)
    sparse = sparsify(graph, params["alpha"], variant="GDB^R-t",
                      rng=params["sparse_rng"])
    n = graph.number_of_vertices()
    queries = {
        "PR": PageRankQuery(n),
        "SP": ShortestPathQuery(params["pairs"]),
        "RL": ReliabilityQuery(params["pairs"]),
        "CC": ClusteringCoefficientQuery(n),
    }
    estimators = {
        "orig": MonteCarloEstimator(graph, n_samples=params["worlds"],
                                    workers=1),
        "sparse": MonteCarloEstimator(sparse, n_samples=params["worlds"],
                                      workers=1),
    }
    return {"params": params, "queries": queries, "estimators": estimators}


def _one_pass(ctx, result: Result, tracer=None):
    """Eight estimates and four D_em values; (seconds per op, outputs)."""
    earth_movers = importlib.import_module("repro.metrics.earth_movers")
    seconds, outcomes, outputs = {}, {}, {}

    def timed(op, fn):
        if tracer is None:
            result.speed.sample_if_due()
        start = cpu_clock()
        with op_scope(tracer, op):
            out = result.call(fn)
        seconds[op] = seconds.get(op, 0.0) + cpu_clock() - start
        return out

    rng = ctx["params"]["mc_rng"]
    for g in GRAPHS:
        for q in QUERIES:
            run = timed(f"{g}.{q}", lambda: ctx["estimators"][g].run(
                ctx["queries"][q], rng=rng))
            outcomes[(g, q)] = None if run is None else run.outcomes
            if run is not None:
                outputs[f"{g}.{q}"] = digest(run.outcomes)
                estimates = run.unit_estimates()
                if q in ("PR", "CC", "RL"):
                    result.check(bool(np.all(np.isfinite(estimates))),
                                 f"{q} estimate on {g} is not finite")
    for q in QUERIES:
        a, b = outcomes[("orig", q)], outcomes[("sparse", q)]
        if a is None or b is None:
            continue
        d = timed("demd", lambda: earth_movers.mean_earth_movers_distance(a, b))
        result.check(d is not None and math.isfinite(d),
                     f"D_em of {q} is not finite")
        outputs[f"demd.{q}"] = d
    return seconds, outputs


def _demd(outputs) -> float:
    values = [outputs.get(f"demd.{q}") for q in QUERIES]
    values = [v for v in values if v is not None]
    return float(np.mean(values)) if values else 0.0


def run(seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    setup_s, ctx = timed_setups(lambda: _setup(seed), result.speed)
    per_graph = {g: [] for g in GRAPHS}
    reference = {}

    def step(index):
        spent, outputs = _one_pass(ctx, result)
        if index == 0:
            reference.update(outputs)
        result.check(outputs == reference,
                     f"pass {index} outputs differ from pass 0")
        _split(spent, per_graph)
        return sum(spent.values())

    # A traced run spends half its budget untraced, half traced.
    loop = run_for(seconds / 2 if trace else seconds, 1 if trace else 2, step,
                   result.speed)
    result.summary = {"passes": len(loop.latencies),
                      **_summary(per_graph, reference)}
    if not trace:
        result.metrics = loop_metrics(result, setup_s, loop)
        return result

    import layers
    from tracer import Tracer

    tracer = Tracer()
    must_fire = layers.install(tracer, "query-mc")
    try:
        with tracer.operation("setup"):
            inputs.query_graph()
        start = time.perf_counter()
        for _ in loop.latencies:
            _, outputs = _one_pass(ctx, result, tracer)
            result.check(outputs == reference,
                         "traced outputs differ from the untraced run's")
        traced_wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    n = len(loop.latencies)

    def incl(name, op=None):
        return tracer.inclusive(name, op) / n

    result.layers = {
        "sampling.sample_s": (incl("sampling.sample"), "s"),
        "sampling.batch_s": (incl("sampling.batch"), "s"),
        "sampling.worlds": (tracer.total("sampling.worlds") / n, "count"),
        "sampling.chunks": (tracer.total("sampling.chunks") / n, "count"),
        "metrics.demd_s": (incl("metrics.demd"), "s"),
        "datasets.generate_s": (tracer.inclusive("datasets.generate", "setup"),
                                "s"),
    }
    for g in GRAPHS:
        for q in QUERIES:
            result.layers[f"queries.{g}.{q}.eval_s"] = (
                incl("queries.eval", f"{g}.{q}"), "s")
    finish_trace(result, tracer, must_fire, OPS, traced_wall, loop.wall)
    return result


def _split(spent, per_graph) -> None:
    for g in GRAPHS:
        per_graph[g].append(sum(spent[f"{g}.{q}"] for q in QUERIES))


def _summary(per_graph, outputs) -> dict:
    return {
        "query_orig_s": median(per_graph["orig"]),
        "query_sparse_s": median(per_graph["sparse"]),
        "query_demd": _demd(outputs),
    }
