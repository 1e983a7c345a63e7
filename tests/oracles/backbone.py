"""Per-call backbone and NI references (see the package docstring)."""

from __future__ import annotations

import importlib
import math
from contextlib import contextmanager
from unittest import mock

import numpy as np

from repro.baselines.spanner import baswana_sen_spanner
from repro.core.backbone import _as_edge_ids, target_edge_count
from repro.core.uncertain_graph import UncertainGraph
from repro.exceptions import SparsificationError
from repro.utils.rng import ensure_rng
from repro.utils.unionfind import UnionFind


def maximum_spanning_forest(
    n: int,
    candidate_ids: np.ndarray,
    edge_vertices: np.ndarray,
    probabilities: np.ndarray,
) -> np.ndarray:
    """Kruskal maximum spanning forest over a subset of edges.

    Parameters
    ----------
    n:
        Number of vertices (dense ids ``0..n-1``).
    candidate_ids:
        Edge ids eligible for the forest.
    edge_vertices:
        ``(m, 2)`` array of endpoints for *all* edges (indexed by id).
    probabilities:
        Weight of every edge (indexed by id); higher is kept first.

    Returns
    -------
    numpy.ndarray
        Read-only int64 ids of the forest edges in acceptance order
        (maximal: one tree per connected component of the candidate
        subgraph).
    """
    order = np.argsort(-probabilities[candidate_ids], kind="stable")
    uf = UnionFind(n)
    forest: list[int] = []
    for idx in order:
        eid = int(candidate_ids[idx])
        u, v = edge_vertices[eid]
        if uf.union(int(u), int(v)):
            forest.append(eid)
    return _as_edge_ids(forest)


def mc_top_up(
    chosen: list[int],
    remaining: set[int],
    probabilities: np.ndarray,
    target: int,
    rng: np.random.Generator,
    max_passes: int = 10_000,
) -> None:
    """Fill ``chosen`` up to ``target`` by sampling ``remaining`` edges.

    Repeated passes over a random permutation, keeping each edge with
    its probability (Algorithm 1, lines 7-11).  Because every
    probability is strictly positive the loop terminates with
    probability 1; a deterministic fallback guards against pathological
    RNG streaks.
    """
    passes = 0
    while len(chosen) < target and remaining:
        passes += 1
        if passes > max_passes:
            # Deterministic fallback: take the highest-probability leftovers.
            leftovers = sorted(remaining, key=lambda e: -probabilities[e])
            for eid in leftovers[: target - len(chosen)]:
                chosen.append(eid)
                remaining.discard(eid)
            return
        order = rng.permutation(np.fromiter(remaining, dtype=np.int64, count=len(remaining)))
        draws = rng.random(len(order))
        for eid, draw in zip(order, draws):
            if draw < probabilities[eid]:
                chosen.append(int(eid))
                remaining.discard(int(eid))
                if len(chosen) >= target:
                    return


def bgi_backbone_legacy(
    graph: UncertainGraph,
    alpha: float,
    rng: "int | np.random.Generator | None" = None,
    spanning_fraction: float = 0.5,
    max_forests: int = 6,
) -> np.ndarray:
    """Per-call reference implementation of Algorithm 1.

    The scalar list-and-set construction: one Kruskal pass per forest
    over the remaining edges, then :func:`mc_top_up`.
    """
    rng = ensure_rng(rng)
    m = graph.number_of_edges()
    n = graph.number_of_vertices()
    target = target_edge_count(m, alpha)
    edge_vertices = graph.edge_index_array()
    probabilities = np.array(graph.probability_array())

    remaining = set(range(m))
    chosen: list[int] = []

    # First forest: a maximum spanning tree (of each component).
    first = maximum_spanning_forest(
        n, np.fromiter(remaining, dtype=np.int64, count=len(remaining)),
        edge_vertices, probabilities,
    )
    if len(first) > target:
        raise SparsificationError(
            f"alpha={alpha} keeps {target} edges but a spanning forest needs "
            f"{len(first)}; connectivity cannot be preserved "
            f"(require alpha >= (|V|-1)/|E|)"
        )
    chosen.extend(int(e) for e in first)
    remaining.difference_update(chosen)

    spanning_budget = int(spanning_fraction * alpha * m)
    forests_built = 1
    while (
        len(chosen) < spanning_budget
        and forests_built < max_forests
        and remaining
        and len(chosen) < target
    ):
        forest = [
            int(e) for e in maximum_spanning_forest(
                n, np.fromiter(remaining, dtype=np.int64, count=len(remaining)),
                edge_vertices, probabilities,
            )
        ]
        if not forest:
            break
        if len(chosen) + len(forest) > target:
            forest = forest[: target - len(chosen)]
        chosen.extend(forest)
        remaining.difference_update(forest)
        forests_built += 1

    mc_top_up(chosen, remaining, probabilities, target, rng)
    return _as_edge_ids(chosen)


def random_backbone_legacy(
    graph: UncertainGraph,
    alpha: float,
    rng: "int | np.random.Generator | None" = None,
) -> np.ndarray:
    """Random backbone as one :func:`mc_top_up` over every edge."""
    rng = ensure_rng(rng)
    m = graph.number_of_edges()
    chosen: list[int] = []
    mc_top_up(chosen, set(range(m)), np.array(graph.probability_array()),
              target_edge_count(m, alpha), rng)
    return _as_edge_ids(chosen)


def t_bundle_backbone_legacy(
    graph: UncertainGraph,
    alpha: float,
    rng: "int | np.random.Generator | None" = None,
    stretch: int = 2,
    max_layers: int = 8,
) -> np.ndarray:
    """The t-bundle backbone on list-and-set bookkeeping + :func:`mc_top_up`."""
    rng = ensure_rng(rng)
    m = graph.number_of_edges()
    n = graph.number_of_vertices()
    target = target_edge_count(m, alpha)
    edge_vertices = graph.edge_index_array()
    probabilities = np.array(graph.probability_array())
    weights = -np.log(np.clip(probabilities, 1e-15, 1.0))

    remaining = set(range(m))
    chosen: list[int] = []
    for _ in range(max_layers):
        if not remaining or len(chosen) >= target:
            break
        candidate_ids = np.fromiter(remaining, dtype=np.int64, count=len(remaining))
        layer_local = baswana_sen_spanner(
            n, edge_vertices[candidate_ids], weights[candidate_ids], stretch, rng
        )
        layer = [int(candidate_ids[i]) for i in layer_local]
        if not layer:
            break
        if len(chosen) + len(layer) > target:
            if not chosen:
                layer.sort(key=lambda eid: (weights[eid], eid))
                layer = layer[:target]
                chosen.extend(layer)
                remaining.difference_update(layer)
            break
        chosen.extend(layer)
        remaining.difference_update(layer)

    mc_top_up(chosen, remaining, probabilities, target, rng)
    return _as_edge_ids(chosen)


# ----------------------------------------------------------------------
# NI (Algorithm 4)
# ----------------------------------------------------------------------
def ni_core(
    n: int,
    edge_vertices: np.ndarray,
    weights: np.ndarray,
    epsilon: float,
    rng: np.random.Generator,
) -> dict[int, float]:
    """Algorithm 4: returns ``{edge_id: sampled_weight}`` for kept edges.

    The contiguity requirement — an edge of the previous forest that is
    still alive must stay in the next forest — is honoured by seeding
    each round's union-find pass with the previous forest's surviving
    edges before scanning the rest.
    """
    m = len(weights)
    remaining = weights.astype(np.int64).copy()
    alive = set(range(m))
    log_n = math.log(max(n, 2))
    kept: dict[int, float] = {}
    previous_forest: list[int] = []
    r = 0
    while alive:
        r += 1
        uf = UnionFind(n)
        forest: list[int] = []
        # Contiguous forests: previous forest edges first (Algorithm 4 line 5).
        for eid in previous_forest:
            if eid in alive:
                u, v = edge_vertices[eid]
                if uf.union(int(u), int(v)):
                    forest.append(eid)
        for eid in list(alive):
            u, v = edge_vertices[eid]
            if uf.union(int(u), int(v)):
                forest.append(eid)
        if not forest:
            # Alive edges are all intra-component duplicates, which cannot
            # happen in a simple graph; guard against infinite loops anyway.
            break
        for eid in forest:
            remaining[eid] -= 1
            if remaining[eid] == 0:
                sampling_probability = min(log_n / (epsilon * epsilon * r), 1.0)
                if rng.random() < sampling_probability:
                    kept[eid] = float(weights[eid]) / sampling_probability
                alive.discard(eid)
        previous_forest = forest
    return kept


_NI = importlib.import_module("repro.baselines.ni")


def _scalar_structure(n, edge_vertices, weights):
    """``ni_peel_structure``'s signature: defer all peeling to the core."""
    return ("scalar", edge_vertices)


def _scalar_core(n, weights, structure, epsilon, rng):
    """``ni_core_planned``'s signature, answered by :func:`ni_core`."""
    tag, edge_vertices = structure
    assert tag == "scalar", "plan holds a production NI structure"
    return ni_core(n, edge_vertices, weights, epsilon, rng)


@contextmanager
def scalar_ni():
    """Run :func:`repro.baselines.ni.ni_sparsify` on :func:`ni_core`.

    Every calibration step re-peels scalar forests instead of sampling
    over the memoised peel structure.  Pass no ``backbone_plan`` (or a
    fresh one): a plan that already memoised the production structure
    is refused.
    """
    with mock.patch.object(_NI, "ni_peel_structure", _scalar_structure), \
            mock.patch.object(_NI, "ni_core_planned", _scalar_core):
        yield
