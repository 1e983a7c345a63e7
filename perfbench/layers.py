"""Where the traced run wraps the library, layer by layer.

Each entry names the namespace a caller looks a callable up in, the span
it records and, where the call returns work done, the counts it adds.
:func:`install` wraps the entries a workload uses and returns the
labels that must fire, so a call site that rebinds its import cannot
silently zero a layer.
"""

from __future__ import annotations

import importlib


def _module(name: str):
    # ``import_module`` returns the module even where a package
    # re-exports a function of the same name (``repro.core.sparsify``).
    return importlib.import_module(name)


def _refine_counts(tracer, sweeps, args, kwargs, _):
    config = args[1] if len(args) > 1 else kwargs["config"]
    tracer.count("gdb.sweeps", sweeps)
    tracer.count("gdb.capped", sweeps >= config.max_sweeps)


def _warm_counts(tracer, sweeps, args, kwargs, _):
    tracer.count("gdb.warm_sweeps", sweeps)


def _plan_colors(tracer, plan, args, kwargs, _):
    tracer.count("sweep.colors", plan.n_colors)


def _forests_before(args, kwargs):
    return args[0].forests_computed


def _forests_after(tracer, _result, args, kwargs, before):
    tracer.count("backbone.forests", args[0].forests_computed - before)


def _grid_counts(tracer, cells, args, kwargs, _):
    cap = kwargs.get("max_sweeps", 200)
    tracer.count("grid.cells", len(cells))
    tracer.count("grid.capped_cells",
                 sum(cell.sweeps >= cap for cell in cells.values()))


def _churn(tracer, report, args, kwargs, _):
    tracer.count("maintain.churn", report.removed + report.added)


def _sampled(tracer, masks, args, kwargs, _):
    tracer.count("sampling.worlds", masks.shape[0])
    tracer.count("sampling.chunks")


def _core_entries():
    """(owner, attribute, span, after, before) for the ``core`` layers."""
    from repro.core.backbone import BackbonePlan
    from repro.core.discrepancy import SparsificationState

    gdb_mod = _module("repro.core.gdb")
    grid_mod = _module("repro.core.grid")
    emd_mod = _module("repro.core.emd_sparsifier")
    lp_mod = _module("repro.core.lp")
    facade = _module("repro.core.sparsify")
    return [
        (facade, "sparsify", "sparsify", None, None),
        (facade, "gdb", "gdb", None, None),
        (facade, "emd", "emd", None, None),
        (facade, "lp_sparsify", "lp", None, None),
        (gdb_mod, "build_backbone", "backbone.build", None, None),
        (BackbonePlan, "backbone", "backbone.instantiate", None, None),
        (BackbonePlan, "ensure_forests", "backbone.peel",
         _forests_after, _forests_before),
        (SparsificationState, "select_edges", "state.select", None, None),
        (SparsificationState, "build_graph", "state.build_graph", None, None),
        (gdb_mod, "build_sweep_plan", "sweep.plan", _plan_colors, None),
        (grid_mod, "build_sweep_plan", "sweep.plan", _plan_colors, None),
        (gdb_mod, "gdb_refine", "gdb.refine", _refine_counts, None),
        (emd_mod, "gdb_refine", "gdb.refine", _refine_counts, None),
        (grid_mod, "gdb_refine", "gdb.refine", _refine_counts, None),
        (lp_mod, "lp_assign_probabilities", "lp.solve", None, None),
        (grid_mod, "gdb_grid", "grid", _grid_counts, None),
    ]


def _maintain_entries():
    from repro.core.backbone import BackbonePlan
    from repro.core.discrepancy import SparsificationState
    from repro.core.maintain import IncrementalSparsifier
    from repro.datasets.drift import DriftWorkload

    maintain = _module("repro.core.maintain")
    return [
        (DriftWorkload, "next_batch", "drift.generate", None, None),
        (IncrementalSparsifier, "apply", "maintain.apply", _churn, None),
        (maintain, "apply_delta", "delta.apply", None, None),
        (BackbonePlan, "repair", "backbone.repair", None, None),
        (SparsificationState, "apply_delta", "state.apply_delta", None, None),
        (BackbonePlan, "backbone", "backbone.instantiate", None, None),
        (maintain, "extend_sweep_plan", "sweep.extend", None, None),
        (maintain, "gdb_refine_warm", "gdb.warm", _warm_counts, None),
    ]


def _sampling_entries():
    from repro.sampling.monte_carlo import MonteCarloEstimator
    from repro.sampling.worlds import WorldSampler

    return [
        (MonteCarloEstimator, "run", "sampling.estimate", None, None),
        (WorldSampler, "sample_mask_matrix", "sampling.sample", _sampled, None),
        (WorldSampler, "batch_from_masks", "sampling.batch", None, None),
        (_module("repro.queries.base"), "evaluate_query_batch",
         "queries.eval", None, None),
        (_module("repro.metrics.earth_movers"), "mean_earth_movers_distance",
         "metrics.demd", None, None),
    ]


#: Workload -> the entry groups its traced run wraps.
GROUPS = {
    "sparsify-12k": (_core_entries,),
    "query-mc": (_sampling_entries,),
    "drift-stream": (_maintain_entries,),
}


def install(tracer, workload: str) -> list[str]:
    """Wrap every entry ``workload`` uses; returns the must-fire labels."""
    labels = [tracer.wrap(_module("repro.datasets"), "flickr_like",
                          "datasets.generate")]
    for group in GROUPS.get(workload, ()):
        for owner, attr, span, after, before in group():
            labels.append(tracer.wrap(owner, attr, span, after, before))
    return labels
