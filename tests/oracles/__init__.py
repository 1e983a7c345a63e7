"""Scalar references the production sparsifier paths are tested against.

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
"""

from .sparsifiers import e_phase, loop_refine, scalar_reference

__all__ = ["e_phase", "loop_refine", "scalar_reference"]
