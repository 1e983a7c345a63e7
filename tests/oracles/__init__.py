"""Reference implementations the production paths are tested against.

Production GDB runs color-blocked / fused sweeps and EMD a vectorised
E-phase scan (:mod:`repro.core.sweep`, :mod:`repro.core.emd_sparsifier`);
the literal one-edge-at-a-time forms of the same algorithms live here,
outside the package, as oracles:

- :func:`loop_refine` — GDB's per-edge ``rule`` + ``apply_scalar_step``
  loop (Algorithm 2), in edge-id order;
- :func:`e_phase` — EMD's E-phase scanning one candidate at a time
  (Algorithm 3, lines 8-20);
- :func:`scalar_reference` — a context manager that runs the public
  facades (``gdb``, ``emd``, ``sparsify``, ``gdb_grid`` and everything
  built on them) on the two references above.

Production Monte-Carlo estimation evaluates chunked world ensembles
through the bit-packed BFS kernel (:mod:`repro.sampling`); its
references are:

- :func:`bfs_distances_boolean` — the dense boolean-frontier ensemble
  BFS, and :class:`BooleanBFSBatch`, a ``WorldBatch`` running every
  query on it;
- :func:`per_world_outcomes`, :func:`per_world_repeated_estimates`,
  :func:`per_world_adaptive` and :func:`per_world_stratified` — the
  estimators of ``MonteCarloEstimator.run``, ``repeated_estimates``,
  ``adaptive_estimate`` and ``StratifiedEstimator.run`` as
  world-at-a-time ``Query.evaluate`` loops, consuming the RNG stream
  exactly as the production paths do.

Production backbones run through :class:`repro.core.backbone.BackbonePlan`
(one stable argsort, batched Kruskal peels, array top-up), NI samples
over a memoised peel structure, and the edge-list parser converts
chunks in bulk.  Their per-call references:

- :func:`maximum_spanning_forest` — scalar Kruskal over a candidate set;
- :func:`mc_top_up` — Algorithm 1's Monte-Carlo top-up on a list and a
  ``set`` of edge ids;
- :func:`bgi_backbone_legacy`, :func:`random_backbone_legacy` and
  :func:`t_bundle_backbone_legacy` — the ``bgi``, ``random`` and
  ``t_bundle`` backbones built from the two above;
- :func:`ni_core` — Algorithm 4 re-peeling scalar forests per call, and
  :func:`scalar_ni`, a context manager running ``ni_sparsify`` on it;
- :func:`parse_edge_list_scalar` — the line-at-a-time text parser.

Nothing under ``src/repro`` may import this package
(``tests/test_package_api.py`` enforces it).
"""

from .backbone import (
    bgi_backbone_legacy,
    maximum_spanning_forest,
    mc_top_up,
    ni_core,
    random_backbone_legacy,
    scalar_ni,
    t_bundle_backbone_legacy,
)
from .io import parse_edge_list_scalar
from .sampling import (
    BooleanBFSBatch,
    bfs_distances_boolean,
    per_world_adaptive,
    per_world_outcomes,
    per_world_repeated_estimates,
    per_world_stratified,
)
from .sparsifiers import e_phase, loop_refine, scalar_reference

__all__ = [
    "BooleanBFSBatch",
    "bfs_distances_boolean",
    "bgi_backbone_legacy",
    "e_phase",
    "loop_refine",
    "maximum_spanning_forest",
    "mc_top_up",
    "ni_core",
    "parse_edge_list_scalar",
    "per_world_adaptive",
    "per_world_outcomes",
    "per_world_repeated_estimates",
    "per_world_stratified",
    "random_backbone_legacy",
    "scalar_ni",
    "scalar_reference",
    "t_bundle_backbone_legacy",
]
