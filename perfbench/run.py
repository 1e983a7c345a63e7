"""End-to-end benchmark of the sparsification library: one command.

Run from the repository root::

    python3 perfbench/run.py --workload sparsify-12k --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same operations untraced and then traced, checks
both give the same outputs and reports the per-layer split, coverage and
tracing overhead.  Human-readable lines go first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when a correctness check
fails and 2 when the library is not there to measure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CATALOG = HERE / "catalog.json"

WORKLOADS = {
    "sparsify-12k": "wl_sparsify",
    "query-mc": "wl_query",
    "drift-stream": "wl_drift",
    "serve-mixed": "wl_serve",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _library_present() -> bool:
    return (ROOT / "src" / "repro" / "__init__.py").is_file()


def _finite(value) -> float:
    value = float(value)
    return value if math.isfinite(value) else 0.0


def main(argv=None) -> int:
    args = _parse(argv)
    if not _library_present():
        print(f"error: no library sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    catalog = json.loads(CATALOG.read_text())

    import importlib

    workload = importlib.import_module(WORKLOADS[args.workload])
    result = workload.run(args.seed, args.seconds, bool(args.trace))

    metrics = {}
    if args.trace:
        # Per-layer metrics of layers this workload bypasses read 0; the
        # summary metrics come from the trace run's untraced phase.
        for entry in catalog["per_layer"]:
            name = entry["name"]
            value = result.layers.get(name, (result.summary.get(name, 0.0),))[0]
            metrics[name] = {"value": _finite(value), "unit": entry["unit"]}
    else:
        for entry in catalog["end_to_end"]:
            value, unit = result.metrics[entry["name"]]
            metrics[entry["name"]] = {"value": _finite(value), "unit": unit}

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  attempted {result.attempted}  "
          f"failed {result.failed}")
    units = {e["name"]: e["unit"] for e in catalog["summary"]}
    for name, value in result.summary.items():
        unit = units.get(name) or ("1/s" if name.endswith("_per_s") else
                                   "s" if name.endswith("_s") else "")
        print(f"  {name:<28} {value!r:>24} {unit}")
    for name, entry in metrics.items():
        if name not in result.summary and (entry["value"] or not args.trace):
            print(f"  {name:<28} {entry['value']:>24.6g} {entry['unit']}")
    for error in result.errors:
        print(f"  CHECK FAILED: {error}")
    correct = not result.errors and result.failed == 0 and result.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
