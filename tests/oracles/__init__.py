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
"""

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
    "e_phase",
    "loop_refine",
    "per_world_adaptive",
    "per_world_outcomes",
    "per_world_repeated_estimates",
    "per_world_stratified",
    "scalar_reference",
]
