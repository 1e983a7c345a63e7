"""Ensemble traversal kernels: the compute layer under WorldBatch.

:class:`~repro.sampling.batch.WorldBatch` is the *data* layout of a
world ensemble — an ``(N, m)`` mask matrix over one shared parent CSR.
This module holds the *traversal* kernels that run over that layout, so
the batch object stays a thin facade and device backends plug in behind
the same interface:

- :func:`bfs_distances_packed` — the host BFS, with worlds bit-packed
  into uint64 words: frontier / visited sets are ``(vertices, words)``
  matrices and each level expands all 64 worlds of a word with single
  bitwise AND/OR passes over the shared CSR.  Distances are
  **bit-identical** to a dense boolean-frontier BFS — BFS levels do not
  depend on the frontier representation — which the seeded property
  tests in ``tests/test_kernels.py`` enforce against the boolean
  reference kept in ``tests/oracles``;
- :func:`delta_stepping_distances` — batched bucketed delta-stepping
  for *weighted* distances (the paper's ``-log p`` most-probable-path
  transform, after Potamias et al. [32]): one shared bucket schedule,
  a per-world tentative-distance matrix, and settled worlds dropping
  out of the working set;
- :func:`bfs_distances_xp` / :func:`delta_stepping_distances_xp` — the
  portable formulations of the two kernels above for non-reference
  array backends;
- :func:`dijkstra_distances` — the per-world binary-heap reference
  (``repro.utils.heap.IndexedMaxHeap`` with negated keys) used by the
  ``Query.evaluate`` protocol and as the test oracle for the batched
  kernel.

Kernels are deliberately ignorant of :class:`WorldBatch` itself; they
consume the duck-typed surface (``n``, ``n_worlds``, ``masks``,
``topology``, ``alive_directed()``) so they never import the batch
module and the dependency points one way only.
"""

from __future__ import annotations

import numpy as np

from repro.utils.heap import IndexedMaxHeap

#: Bits per packed frontier word.
WORD_BITS = 64


# ----------------------------------------------------------------------
# Weight transform
# ----------------------------------------------------------------------
def most_probable_path_weights(probabilities: np.ndarray) -> np.ndarray:
    """``w_e = -log p_e``: most-probable paths become shortest paths [32].

    Probabilities above 1 are clipped (``w >= 0`` always, and ``p = 1``
    maps to exactly ``+0.0``); non-positive probabilities — impossible
    in an :class:`UncertainGraph` but representable in raw arrays — map
    to ``inf``, i.e. an edge no shortest path may use.
    """
    p = np.asarray(probabilities, dtype=np.float64)
    weights = np.full(p.shape, np.inf, dtype=np.float64)
    positive = p > 0.0
    weights[positive] = -np.log(np.minimum(p[positive], 1.0))
    return np.maximum(weights, 0.0)


# ----------------------------------------------------------------------
# Shared frontier plumbing
# ----------------------------------------------------------------------
def _csr_segment_indices(
    indptr: np.ndarray, cols: np.ndarray, lengths: np.ndarray, total: int
) -> np.ndarray:
    """Directed-edge positions of the CSR segments of vertices ``cols``.

    The narrow-frontier gather every kernel shares: concatenate the
    half-open CSR ranges ``[indptr[c], indptr[c+1])`` of the frontier
    vertices without a Python loop.
    """
    return np.repeat(
        indptr[cols] - np.concatenate([[0], np.cumsum(lengths)[:-1]]),
        lengths,
    ) + np.arange(total)


# ----------------------------------------------------------------------
# Bit-packed BFS
# ----------------------------------------------------------------------
def _pack_world_columns(matrix: np.ndarray) -> np.ndarray:
    """Pack a ``(N, cols)`` boolean matrix into ``(cols, W)`` uint64 words.

    World ``i`` lands in bit ``i % 8`` of byte ``i // 8`` of each
    column; viewing 8 consecutive bytes as one machine word keeps the
    pack/unpack mapping consistent on any endianness (all kernel
    operations in between are pure bitwise AND/OR, which never look at
    bit positions).
    """
    packed = np.packbits(
        np.ascontiguousarray(matrix.T), axis=1, bitorder="little"
    )
    pad = (-packed.shape[1]) % 8
    if pad:
        packed = np.concatenate(
            [packed, np.zeros((packed.shape[0], pad), dtype=np.uint8)], axis=1
        )
    return packed.view(np.uint64)


def _world_word_mask(n_worlds: int) -> np.ndarray:
    """``(W,)`` uint64 with exactly the worlds ``0..n_worlds-1`` set.

    Built through the same packbits pipeline as the data matrices so
    the bit <-> world mapping matches on any endianness.
    """
    return _pack_world_columns(np.ones((n_worlds, 1), dtype=bool))[0]


#: Cache key of the host-layout transforms below.  Every ``_batch_cached``
#: slot stores ``(key, value)`` so arrays built for one array namespace
#: can never be served to another (e.g. after flipping ``backend=`` on a
#: live batch — the xp plan cache uses the backend's ``key`` here).
_HOST_KEY = "numpy"


def _batch_cached(batch, slot: str, key: str, build):
    """Per-batch kernel cache: queries traverse from many sources, so
    layout transforms of the (immutable) mask matrix are built once.
    A slot holds ``(key, value)``; a key mismatch rebuilds, so switching
    backends on a live batch invalidates instead of serving stale
    arrays from another namespace."""
    cached = getattr(batch, slot, None)
    if cached is not None and cached[0] == key:
        return cached[1]
    value = build()
    try:
        setattr(batch, slot, (key, value))
    except AttributeError:  # duck-typed batch without the cache slot
        pass
    return value


def _packed_masks(batch) -> np.ndarray:
    """The batch's ``(m, W)`` packed mask matrix (cached on the batch)."""
    return _batch_cached(
        batch, "_packed_masks", _HOST_KEY, lambda: _pack_world_columns(batch.masks)
    )


def _packed_alive_directed(batch) -> np.ndarray:
    """``(2m, W)`` packed liveness per directed edge (cached on the batch)."""
    return _batch_cached(
        batch,
        "_packed_alive",
        _HOST_KEY,
        lambda: _packed_masks(batch)[batch.topology.dir_edge],
    )


def _alive_target_ordered(batch, order: np.ndarray) -> np.ndarray:
    """``(N, 2m)`` boolean liveness in target-sorted order (cached)."""
    return _batch_cached(
        batch, "_alive_ordered", _HOST_KEY, lambda: batch.alive_directed()[:, order]
    )


def _xp_plan(batch, xp):
    """Device-resident ensemble plan: liveness + directed-edge indices.

    The host builds the ``(N, 2m)`` liveness matrix and the CSR index
    vectors once; they are uploaded once per (batch, backend ``key``)
    and reused across every traversal from every source.
    """

    def build():
        topology = batch.topology
        return {
            "alive": xp.asarray(batch.alive_directed(), xp.bool_),
            "src": xp.asarray(topology.dir_source, xp.int64),
            "dst": xp.asarray(topology.indices, xp.int64),
        }

    return _batch_cached(batch, "_xp_plan", xp.key, build)


def _unpack_word_entries(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decode ``(k,)`` uint64 words into (entry index, bit position) pairs."""
    bits = np.unpackbits(
        words[:, None].view(np.uint8), axis=1, bitorder="little"
    )
    return np.nonzero(bits)


def bfs_distances_packed(
    batch, source: int, targets: "np.ndarray | list[int] | None" = None
) -> np.ndarray:
    """``(N, n)`` BFS distances from ``source`` in every world (-1 unreachable).

    Frontier and visited sets live as ``(vertices, W)`` uint64 matrices
    with the ensemble's worlds packed along the bits (``W = ceil(N/64)``
    words), so one AND over the alive-edge words expands a level for 64
    worlds at a time and the level loop moves ~8x fewer bytes than a
    dense boolean frontier.  Wide frontiers group the activated edge
    words by target vertex with a single ``bitwise_or.reduceat`` over
    the target-sorted CSR; narrow frontiers gather only the touched CSR
    segments and scatter with ``bitwise_or.at``.  BFS levels are a
    property of the graph, not of the frontier encoding, so the
    returned matrix — including the ``-1`` pattern left by the
    ``targets`` early exit — is bit-identical to a boolean-frontier
    BFS's.

    With ``targets``, a world retires as soon as every listed vertex has
    a distance (or its frontier empties) — its other entries may then
    still read ``-1``, so only consume the target columns.
    """
    N, n = batch.n_worlds, batch.n
    dist = np.full((N, n), -1, dtype=np.int64)
    if N == 0:
        return dist
    dist[:, source] = 0
    topology = batch.topology
    indptr, src, dst = topology.indptr, topology.dir_source, topology.indices
    order, starts, empty = topology.target_grouping()
    alive_packed = _packed_alive_directed(batch)
    words = (N + WORD_BITS - 1) // WORD_BITS
    world_mask = _world_word_mask(N)

    visited = np.zeros((n, words), dtype=np.uint64)
    visited[source] = world_mask
    active = world_mask.copy()
    if targets is not None:
        targets = np.asarray(targets, dtype=np.int64)
        if targets.size:
            active &= ~np.bitwise_and.reduce(visited[targets], axis=0)
    frontier = np.zeros((n, words), dtype=np.uint64)
    frontier[source] = active
    two_m = len(dst)
    level = 0
    while active.any():
        level += 1
        cols = np.flatnonzero(frontier.any(axis=1))
        lengths = indptr[cols + 1] - indptr[cols]
        total = int(lengths.sum())
        if total == 0:
            break
        if total * 4 >= two_m:
            activated = alive_packed & frontier[src]
            padded = np.concatenate(
                [activated[order], np.zeros((1, words), dtype=np.uint64)],
                axis=0,
            )
            hit = np.bitwise_or.reduceat(padded, starts, axis=0)
            hit[empty] = 0
        else:
            e_sub = _csr_segment_indices(indptr, cols, lengths, total)
            activated = alive_packed[e_sub] & frontier[np.repeat(cols, lengths)]
            hit = np.zeros((n, words), dtype=np.uint64)
            np.bitwise_or.at(hit, dst[e_sub], activated)
        new = hit & ~visited & active
        if not new.any():
            break
        visited |= new
        vertex_idx, word_idx = np.nonzero(new)
        entry, bit = _unpack_word_entries(new[vertex_idx, word_idx])
        dist[word_idx[entry] * WORD_BITS + bit, vertex_idx[entry]] = level
        active &= np.bitwise_or.reduce(new, axis=0)
        if targets is not None and targets.size:
            active &= ~np.bitwise_and.reduce(visited[targets], axis=0)
        frontier = new & active
    return dist


# ----------------------------------------------------------------------
# Batched weighted distances: bucketed delta-stepping
# ----------------------------------------------------------------------
def default_bucket_width(weights: np.ndarray) -> float:
    """Coarse default: the maximum finite edge weight.

    Any positive width is correct (the tests sweep several); the choice
    only moves work between the bucket schedule and the light-phase
    re-relaxations.  The classic scalar heuristic
    (``max_w / avg_degree``) minimises *re-relaxation work*, but for a
    vectorised ensemble the dominant cost is the number of full-width
    relaxation passes, so coarse buckets win decisively: on a 5k-edge /
    256-world benchmark, ``max_w`` runs ~5x faster than
    ``max_w / avg_degree`` (95 buckets collapse to ~5).  ``max_w``
    keeps every edge light while still producing a real multi-bucket
    schedule whenever distances exceed one edge weight — which is what
    the settled-world / target early exits prune on.  Graphs whose
    finite weights are all zero (every ``p = 1``) get width 1: a single
    bucket, degenerating to frontier-based batched relaxation.
    """
    weights = np.asarray(weights, dtype=np.float64)
    finite = weights[np.isfinite(weights) & (weights > 0)]
    if finite.size == 0:
        return 1.0
    return float(finite.max())


def delta_stepping_distances(
    batch,
    source: int,
    weights: np.ndarray,
    delta: "float | None" = None,
    targets: "np.ndarray | list[int] | None" = None,
) -> np.ndarray:
    """``(N, n)`` weighted shortest-path distances in every world at once.

    ``weights`` holds one non-negative weight per *parent* undirected
    edge (``inf`` marks an unusable edge, e.g. the ``-log p`` image of a
    zero-probability edge); unreachable vertices score ``inf``.

    The kernel is classic delta-stepping lifted to the ensemble: a
    ``(N, n)`` tentative-distance matrix, light/heavy edge classes split
    at the bucket width ``delta``, and one **shared bucket schedule** —
    the outer loop jumps to the smallest nonempty bucket over all still-
    running worlds, and each relaxation is a masked gather + per-target
    ``minimum.reduceat`` over the shared CSR.  Worlds contribute only
    their own rows to every relaxation, so a world's result never
    depends on its chunk-mates (rounds where a world's bucket is empty
    reduce with ``inf`` and are exact no-ops); worlds whose pending set
    empties — or, with ``targets``, whose target distances are all
    final — retire from the working set.  As with the BFS early exit,
    only consume the target columns of a targeted call.

    Relaxation order differs from Dijkstra's, so agreement with the
    per-world reference is up to float addition reordering (the seeded
    property tests bound it at ``rtol = 1e-9``).
    """
    N, n = batch.n_worlds, batch.n
    topology = batch.topology
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (batch.m,):
        raise ValueError(
            f"weights must have shape ({batch.m},), got {weights.shape}"
        )
    if np.any(weights < 0):
        raise ValueError("edge weights must be non-negative")
    if delta is None:
        delta = default_bucket_width(weights)
    delta = float(delta)
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")

    tent = np.full((N, n), np.inf, dtype=np.float64)
    tent[:, source] = 0.0
    if N == 0 or n == 0:
        return tent
    order, starts, empty = topology.target_grouping()
    indptr, src, dst = topology.indptr, topology.dir_source, topology.indices
    weight_dir = weights[topology.dir_edge]
    alive = batch.alive_directed()
    # Directed-edge arrays pre-permuted into target-sorted order so a
    # wide relaxation is gather -> add -> one reduceat, no per-round
    # reshuffle.
    weight_ordered = weight_dir[order]
    source_ordered = src[order]
    alive_ordered = _alive_target_ordered(batch, order)
    light_dir = weight_dir <= delta
    light_ordered = light_dir[order]
    two_m = len(weight_dir)
    if targets is not None:
        targets = np.asarray(targets, dtype=np.int64)
        if targets.size == 0:
            targets = None

    def relax(rows: np.ndarray, frontier: np.ndarray, want_light: bool) -> np.ndarray:
        """Min candidate distance per (world row, vertex) via ``frontier``.

        Hybrid like the BFS kernels: wide frontiers take one contiguous
        pass over all directed edges (per-target ``minimum.reduceat``);
        narrow ones gather only the frontier vertices' CSR segments and
        scatter with ``minimum.at``.  Minimum is exact in floating
        point, so both branches return bitwise-identical rows — the
        branch choice can never leak between worlds.
        """
        cols = np.flatnonzero(frontier.any(axis=0))
        lengths = indptr[cols + 1] - indptr[cols]
        total = int(lengths.sum())
        relaxed = np.full((len(rows), n), np.inf)
        if total == 0:
            return relaxed
        if total * 4 >= two_m:
            edge_class = light_ordered if want_light else ~light_ordered
            activated = alive_ordered[rows] & frontier[:, source_ordered] & edge_class
            candidates = np.where(
                activated, tent[rows][:, source_ordered] + weight_ordered, np.inf
            )
            padded = np.concatenate(
                [candidates, np.full((len(rows), 1), np.inf)], axis=1
            )
            relaxed = np.minimum.reduceat(padded, starts, axis=1)
            relaxed[:, empty] = np.inf
            return relaxed
        e_sub = _csr_segment_indices(indptr, cols, lengths, total)
        edge_class = light_dir[e_sub] if want_light else ~light_dir[e_sub]
        activated = (
            alive[np.ix_(rows, e_sub)]
            & frontier[:, np.repeat(cols, lengths)]
            & edge_class
        )
        w_loc, e_loc = np.nonzero(activated)
        if w_loc.size == 0:
            return relaxed
        hits = e_sub[e_loc]
        values = tent[rows[w_loc], src[hits]] + weight_dir[hits]
        np.minimum.at(relaxed, (w_loc, dst[hits]), values)
        return relaxed

    rows = np.arange(N)
    bucket = 0
    while rows.size:
        tentative = tent[rows]
        lower = bucket * delta
        pending = np.isfinite(tentative) & (tentative >= lower)
        keep = pending.any(axis=1)
        if targets is not None:
            keep &= ~(tentative[:, targets] < lower).all(axis=1)
        rows = rows[keep]
        if rows.size == 0:
            break
        tentative = tentative[keep]
        pending = pending[keep]
        # Shared schedule: jump to the smallest nonempty bucket anywhere.
        bucket = int(np.where(pending, tentative, np.inf).min() // delta)
        upper = (bucket + 1) * delta
        current = pending & (tentative < upper)
        settled = np.zeros_like(current)
        while current.any():
            settled |= current
            relaxed = relax(rows, current, want_light=True)
            tentative = tent[rows]
            improved = relaxed < tentative
            tentative = np.minimum(tentative, relaxed)
            tent[rows] = tentative
            # Re-insertions: improvements always land at >= bucket*delta
            # (weights are non-negative), so < upper pins them to this
            # bucket — including vertices already settled this phase.
            current = improved & (tentative < upper)
        tent[rows] = np.minimum(tent[rows], relax(rows, settled, want_light=False))
        bucket += 1
    return tent


# ----------------------------------------------------------------------
# Portable xp kernels: the device formulations behind non-reference
# backends (see repro.backend).  Host builds the plan; the backend runs
# one dense array program per level / bucket phase.  They are the
# *same algorithms* as the specialised kernels above — identical
# per-level / per-bucket retirement conditions — so integer BFS levels
# are exactly equal on any backend, and weighted distances agree to
# float-min exactness (minimum is order-exact, so only the candidate
# additions can differ, bounded by the usual 1e-9 gate on devices).
# ----------------------------------------------------------------------
def bfs_distances_xp(
    batch,
    source: int,
    targets: "np.ndarray | list[int] | None" = None,
    backend=None,
) -> np.ndarray:
    """``(N, n)`` BFS distances through the ``xp`` shim (-1 unreachable).

    Dense boolean-frontier formulation without the host kernels' row
    compaction: retired worlds keep a cleared frontier row (their
    ``active`` bit masks every update), which is the branch-free shape
    devices want.  Retirement — empty new frontier, or all ``targets``
    reached — matches :func:`bfs_distances_packed` level for level, so
    the returned matrix (including the ``-1`` pattern of the targeted
    early exit) is bit-identical to the host kernel's.
    """
    from repro.backend import resolve_backend

    xp = resolve_backend(backend)
    N, n = batch.n_worlds, batch.n
    host_dist = np.full((N, n), -1, dtype=np.int64)
    host_dist[:, source] = 0
    if N == 0:
        return host_dist
    plan = _xp_plan(batch, xp)
    alive, src, dst = plan["alive"], plan["src"], plan["dst"]

    host_reached = np.zeros((N, n), dtype=bool)
    host_reached[:, source] = True
    dist = xp.asarray(host_dist, xp.int64)
    reached = xp.asarray(host_reached, xp.bool_)
    target_idx = None
    if targets is not None:
        targets = np.asarray(targets, dtype=np.int64)
        if targets.size:
            target_idx = xp.asarray(targets, xp.int64)
    active = xp.asarray(np.ones(N, dtype=bool), xp.bool_)
    if target_idx is not None:
        active = active & ~xp.all(xp.take(reached, target_idx, axis=1), axis=1)
    # host_reached doubles as the initial frontier: only the source set.
    frontier = xp.asarray(host_reached, xp.bool_) & xp.expand_cols(active)
    level = 0
    while xp.bool_scalar(xp.any(frontier)):
        level += 1
        activated = alive & xp.take(frontier, src, axis=1)
        hit = xp.scatter_or_cols((N, n), dst, activated)
        new = hit & ~reached & xp.expand_cols(active)
        if not xp.bool_scalar(xp.any(new)):
            break
        reached = reached | new
        dist = xp.where(new, level, dist)
        active = active & xp.any(new, axis=1)
        if target_idx is not None:
            active = active & ~xp.all(xp.take(reached, target_idx, axis=1), axis=1)
        frontier = new & xp.expand_cols(active)
    return np.asarray(xp.to_host(dist), dtype=np.int64)


def delta_stepping_distances_xp(
    batch,
    source: int,
    weights: np.ndarray,
    delta: "float | None" = None,
    targets: "np.ndarray | list[int] | None" = None,
    backend=None,
) -> np.ndarray:
    """``(N, n)`` weighted distances through the ``xp`` shim.

    Same shared bucket schedule as :func:`delta_stepping_distances` —
    validation, default ``delta``, light/heavy split, bucket jump, and
    every retirement condition are identical — but dense: instead of
    compacting retired world rows out of the working set, a per-world
    ``active`` mask silences them (their frontier rows contribute only
    ``inf`` candidates, so their tentative rows provably never change
    once retired, exactly like the compacted kernel).  One
    ``scatter_min_cols`` per relaxation replaces the host's
    ``reduceat`` / ``minimum.at`` hybrid; min is order-exact, so this
    cannot introduce divergence by itself.
    """
    from repro.backend import resolve_backend

    xp = resolve_backend(backend)
    N, n = batch.n_worlds, batch.n
    topology = batch.topology
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (batch.m,):
        raise ValueError(
            f"weights must have shape ({batch.m},), got {weights.shape}"
        )
    if np.any(weights < 0):
        raise ValueError("edge weights must be non-negative")
    if delta is None:
        delta = default_bucket_width(weights)
    delta = float(delta)
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")

    host_tent = np.full((N, n), np.inf, dtype=np.float64)
    host_tent[:, source] = 0.0
    if N == 0 or n == 0:
        return host_tent
    plan = _xp_plan(batch, xp)
    alive, src, dst = plan["alive"], plan["src"], plan["dst"]
    weight_dir = weights[topology.dir_edge]
    light_host = weight_dir <= delta
    w_dir = xp.asarray(weight_dir, xp.float64)
    light = xp.asarray(light_host, xp.bool_)
    heavy = xp.asarray(~light_host, xp.bool_)
    tent = xp.asarray(host_tent, xp.float64)
    target_idx = None
    if targets is not None:
        targets = np.asarray(targets, dtype=np.int64)
        if targets.size:
            target_idx = xp.asarray(targets, xp.int64)
    inf = float("inf")

    def relax(tent, frontier, edge_class):
        candidates = xp.where(
            alive & xp.take(frontier, src, axis=1) & edge_class,
            xp.take(tent, src, axis=1) + w_dir,
            inf,
        )
        return xp.scatter_min_cols((N, n), dst, candidates)

    bucket = 0
    while True:
        lower = bucket * delta
        pending = xp.isfinite(tent) & (tent >= lower)
        world_active = xp.any(pending, axis=1)
        if target_idx is not None:
            world_active = world_active & ~xp.all(
                xp.take(tent, target_idx, axis=1) < lower, axis=1
            )
        if not xp.bool_scalar(xp.any(world_active)):
            break
        pending = pending & xp.expand_cols(world_active)
        # Shared schedule: jump to the smallest nonempty bucket anywhere.
        masked = xp.where(pending, tent, inf)
        bucket = int(xp.float_scalar(xp.min(masked)) // delta)
        upper = (bucket + 1) * delta
        current = pending & (tent < upper)
        settled = xp.asarray(np.zeros((N, n), dtype=bool), xp.bool_)
        while xp.bool_scalar(xp.any(current)):
            settled = settled | current
            relaxed = relax(tent, current, light)
            improved = relaxed < tent
            tent = xp.minimum(tent, relaxed)
            current = improved & (tent < upper) & xp.expand_cols(world_active)
        tent = xp.minimum(tent, relax(tent, settled, heavy))
        bucket += 1
    return np.asarray(xp.to_host(tent), dtype=np.float64)


# ----------------------------------------------------------------------
# Per-world reference: binary-heap Dijkstra
# ----------------------------------------------------------------------
def dijkstra_distances(
    n: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    source: int,
) -> np.ndarray:
    """Single-source weighted distances on one world's CSR (``inf`` = cut off).

    The reference implementation behind ``Query.evaluate`` for weighted
    queries and the oracle the batched delta-stepping kernel is tested
    against: Dijkstra on an indexed binary heap
    (:class:`~repro.utils.heap.IndexedMaxHeap` with negated keys, so
    decrease-key is a real ``update`` instead of lazy deletion).
    ``weights`` is aligned with the CSR's directed edges.
    """
    dist = np.full(n, np.inf, dtype=np.float64)
    dist[source] = 0.0
    heap = IndexedMaxHeap({int(source): 0.0})
    while heap:
        u, negative = heap.pop()
        d = -negative
        for slot in range(int(indptr[u]), int(indptr[u + 1])):
            v = int(indices[slot])
            candidate = d + float(weights[slot])
            if candidate < dist[v]:
                dist[v] = candidate
                heap.update(v, -candidate)
    return dist
