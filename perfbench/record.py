"""Record a baseline: run every workload over several seeds, keep medians.

Run from the repository root::

    python3 perfbench/record.py --seeds 1,2,3,4,5,6,7,8,9,10 \\
        --out perfbench/results/baseline.json

Each seed is one ``run.py`` process with tracing off; one more traced
process per workload (the first seed) adds the per-layer split.  For
every end-to-end metric the file keeps the ten values, their median and
their quartile spread ``(q3 - q1) / median``, next to the machine it ran
on, so later baselines can be compared against this one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    document = json.loads(lines[-1])
    summary = {}
    for line in lines[1:-1]:
        parts = line.split()
        if len(parts) == 3:
            try:
                summary[parts[0]] = float(parts[1])
            except ValueError:
                pass
    document["lines"] = summary
    document["exit"] = proc.returncode
    print(f"{workload} seed {seed} trace {trace}: exit {proc.returncode} "
          f"correct {document['correct']}", file=sys.stderr, flush=True)
    return document


def _environment() -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--out", required=True)
    parser.add_argument("--note", default="")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    catalog = json.loads((HERE / "catalog.json").read_text())
    seeds = [int(s) for s in args.seeds.split(",")]
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    seconds = bench["run_seconds"]
    summary_names = {m["name"] for m in catalog["summary"]}

    record = {
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "note": args.note,
        "environment": _environment(),
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for name in names:
        runs = [_run(name, seed, seconds, 0) for seed in seeds]
        traced = _run(name, seeds[0], seconds, 1)
        e2e = {}
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, mid, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            e2e[metric["name"]] = {
                "unit": metric["unit"], "median": med,
                "spread": (q3 - q1) / med if med else 0.0,
                "bound": metric["bound"], "values": values,
            }
        summary = {}
        for key in sorted({k for r in runs for k in r["lines"]}
                          & summary_names):
            summary[key] = statistics.median(
                r["lines"][key] for r in runs if key in r["lines"])
        record["workloads"][name] = {
            "correct": all(r["correct"] for r in runs + [traced]),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": e2e,
            "summary_medians": summary,
            "per_layer_seed": seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()
                          if v["value"]},
        }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    ok = all(w["correct"] for w in record["workloads"].values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
