"""Steadiness checks of the benchmark's own inputs.

Every workload generator is a pure function of the seed: the same seed
gives byte-identical inputs and another seed different ones.  Also pins
that ``BENCHMARK.json`` lists exactly the catalogue's metrics.

Run with ``PYTHONPATH=src python -m pytest -q perfbench/test_inputs.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE.parent / "src") not in sys.path:
    sys.path.insert(0, str(HERE.parent / "src"))
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import inputs  # noqa: E402


def _graph_bytes(graph) -> bytes:
    from repro.datasets.io import format_edge_list

    return format_edge_list(graph).encode()


def _drift_stream(seed: int, batches: int = 6) -> bytes:
    from repro.core.delta import apply_delta
    from repro.datasets.drift import DriftWorkload

    params = inputs.drift_params(seed)
    graph = inputs.drift_graph()
    workload = DriftWorkload(graph, edge_fraction=inputs.DRIFT_FRACTION,
                             seed=params["drift_seed"])
    out = [json.dumps(params, sort_keys=True).encode()]
    for index in range(batches):
        batch = inputs.drift_batches(workload, lambda: graph, index)
        for array in (batch.update_eids, batch.update_ps, batch.delete_eids,
                      batch.insert_endpoints, batch.insert_ps):
            out.append(array.tobytes())
        graph = apply_delta(graph, batch, in_place=True).graph
    return b"|".join(out)


def _serve_requests(seed: int, client: int = 0) -> bytes:
    graph = inputs.serve_graphs()[0]
    edges = [(u, v) for u, v, _ in graph.edges()]
    return json.dumps(inputs.serve_requests(seed, client, 300, edges)).encode()


def test_datasets_are_fixed():
    assert _graph_bytes(inputs.sparsify_graph()) == \
        _graph_bytes(inputs.sparsify_graph())
    a, b = inputs.serve_graphs()
    assert _graph_bytes(a) != _graph_bytes(b)


def test_sparsify_params_follow_the_seed():
    assert inputs.sparsify_params(3) == inputs.sparsify_params(3)
    assert inputs.sparsify_params(3) != inputs.sparsify_params(4)


def test_query_params_follow_the_seed():
    graph = inputs.sparsify_graph()
    same = json.dumps(inputs.query_params(5, graph), sort_keys=True)
    assert same == json.dumps(inputs.query_params(5, graph), sort_keys=True)
    assert same != json.dumps(inputs.query_params(6, graph), sort_keys=True)


def test_drift_stream_follows_the_seed():
    assert _drift_stream(7) == _drift_stream(7)
    assert _drift_stream(7) != _drift_stream(8)


def test_drift_stream_has_structural_batches():
    from repro.datasets.drift import DriftWorkload

    graph = inputs.drift_graph()
    workload = DriftWorkload(graph, edge_fraction=inputs.DRIFT_FRACTION,
                             seed=1)
    kinds = [
        inputs.drift_batches(workload, lambda: graph, i).is_structural
        for i in range(inputs.STRUCTURAL_EVERY)
    ]
    assert kinds == [False] * (inputs.STRUCTURAL_EVERY - 1) + [True]


def test_serve_requests_follow_the_seed():
    assert _serve_requests(9) == _serve_requests(9)
    assert _serve_requests(9) != _serve_requests(10)
    assert _serve_requests(9, client=0) != _serve_requests(9, client=1)


def test_benchmark_json_matches_the_catalogue():
    catalog = json.loads((HERE / "catalog.json").read_text())
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for section, keys in (("end_to_end", ("name", "unit", "better", "bound")),
                          ("per_layer", ("name", "unit", "better"))):
        assert bench[section] == [
            {k: m[k] for k in keys} for m in catalog[section]
        ]
    assert [w["name"] for w in bench["workloads"]] == list(catalog["workloads"])
    for entry in bench["workloads"]:
        assert entry["why"] == catalog["workloads"][entry["name"]]["why"]
