"""Edge-list I/O for uncertain graphs.

The on-disk format mirrors the public releases of uncertain-graph
datasets (Flickr/Twitter style): one edge per line, whitespace-separated
``u v p``, ``#`` comments, vertices as arbitrary tokens.  Isolated
vertices can be declared with a single-token line.

Round-trip contract
-------------------
``write_edge_list`` followed by ``read_edge_list`` is *lossless up to
vertex stringification*: probabilities are serialised with ``repr``
(the shortest decimal string that parses back to the exact same
float), so ``float(token)`` recovers the original value bit for bit,
and vertex tokens that the line format cannot represent (empty,
containing whitespace or ``#``) are rejected at write time with a
:class:`~repro.exceptions.GraphError` instead of producing a file the
reader mis-parses.  This contract is what makes content digests
(:func:`dataset_digest`, :func:`graph_digest`) sound cache keys: the
serialisation of a graph is a pure function of its content.

Parsing
-------
:func:`parse_edge_list` (and :func:`read_edge_list` on top of it) is
the one parser: it routes lines in chunks and converts probabilities in
bulk, yet builds exactly the graph — insertion order and errors
included — that adding the lines one at a time would.  The
line-at-a-time reference it is pinned against lives in ``tests/oracles``.
"""

from __future__ import annotations

import hashlib
import os

from repro.core.uncertain_graph import UncertainGraph
from repro.exceptions import GraphError


def _serialisable_token(vertex) -> str:
    """Render a vertex as its on-disk token, rejecting unrepresentable ones.

    The line format is whitespace-split with ``#`` starting a comment, so
    a token containing either — or an empty token — would be silently
    mis-parsed (or rejected) on read.  Fail at write time instead.
    """
    token = str(vertex)
    if not token or "#" in token or any(ch.isspace() for ch in token):
        raise GraphError(
            f"vertex {vertex!r} cannot be serialised as an edge-list token: "
            f"tokens must be non-empty and contain no whitespace or '#'"
        )
    return token


def format_edge_list(graph: UncertainGraph, header: bool = True) -> str:
    """Serialise a graph to the edge-list text format.

    This is the exact content :func:`write_edge_list` writes; exposing it
    as a string lets callers (the artifact server, digests) serialise
    without touching disk.  Probabilities use ``repr`` so the write →
    read round trip is bit-identical.
    """
    lines = []
    if header:
        lines.append(
            f"# uncertain graph {graph.name!r}: "
            f"{graph.number_of_vertices()} vertices, "
            f"{graph.number_of_edges()} edges\n"
        )
    touched = set()
    for u, v, p in graph.edges():
        lines.append(f"{_serialisable_token(u)} {_serialisable_token(v)} {p!r}\n")
        touched.add(u)
        touched.add(v)
    for vertex in graph.vertices():
        if vertex not in touched:
            lines.append(f"{_serialisable_token(vertex)}\n")
    return "".join(lines)


def write_edge_list(graph: UncertainGraph, path: "str | os.PathLike") -> None:
    """Write a graph as ``u v p`` lines (isolated vertices as bare tokens)."""
    content = format_edge_list(graph)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(content)


def content_digest(data: bytes) -> str:
    """SHA-256 hex digest of in-memory dataset bytes.

    Callers that must bind a digest to the *exact* content they parse
    (the artifact server) read the file once and feed the same bytes to
    both this function and :func:`parse_edge_list`, closing the
    read/digest race a separate :func:`dataset_digest` call would leave.
    """
    return hashlib.sha256(data).hexdigest()


def dataset_digest(path: "str | os.PathLike") -> str:
    """SHA-256 hex digest of a dataset file's bytes.

    The artifact cache keys on this: two requests naming files with the
    same bytes share cached artifacts, and rewriting a file invalidates
    every entry derived from its old content.
    """
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def graph_digest(graph: UncertainGraph) -> str:
    """SHA-256 hex digest of a graph's canonical serialisation.

    Name-independent (the header comment carries the name and is
    excluded), so two graphs with identical vertices/edges/probabilities
    digest identically regardless of how they were labelled.
    """
    content = format_edge_list(graph, header=False)
    return hashlib.sha256(content.encode("utf-8")).hexdigest()


#: Lines per parser chunk: bounds pending-token memory and keeps the
#: bulk float conversions in cache-sized batches.
_PARSE_CHUNK = 65536


def _edge_lineno(lines: list, start: int, edge_index: int) -> int:
    """1-based line number of the ``edge_index``-th edge line in a chunk.

    Error path only: the hot routing loop doesn't track line numbers, so
    a conversion failure re-routes the chunk to locate its line.
    """
    count = -1
    for offset in range(start, len(lines)):
        raw = lines[offset]
        line = raw.split("#", 1)[0] if "#" in raw else raw
        if len(line.split()) == 3:
            count += 1
            if count == edge_index:
                return offset + 1
    raise AssertionError("edge index outside chunk")  # pragma: no cover


def _convert_probabilities(
    tokens: list, range_checked: int, source: str, lines: list, start: int
):
    """Convert pending probability tokens, raising in line order.

    Tokens are converted in line order; the first failure raises what a
    line-at-a-time parse would have raised at that line.  Only the first
    ``range_checked`` tokens get the domain check — a trailing token
    whose line failed *after* conversion (a self-loop) is converted but
    not range-checked, because ``add_edge`` checks self-loops first.

    Bulk ``numpy`` conversion handles the common all-numeric case in one
    vectorised pass; any failure falls back to a per-token ``float()``
    scan, which both locates the first bad token and accepts the few
    spellings Python allows but numpy doesn't (e.g. ``1_0``).
    """
    import numpy as np

    from repro.exceptions import ProbabilityError

    try:
        probs = np.asarray(tokens, dtype=np.float64)
    except ValueError:
        probs = np.empty(len(tokens), dtype=np.float64)
        for i, token in enumerate(tokens):
            try:
                value = float(token)
            except ValueError:
                lineno = _edge_lineno(lines, start, i)
                raise GraphError(
                    f"{source}:{lineno}: probability is not a number: "
                    f"{token!r}"
                ) from None
            if i < range_checked and not (0.0 < value <= 1.0):
                raise ProbabilityError(
                    f"edge probability must be in (0, 1], got {value}"
                )
            probs[i] = value
        return probs
    checked = probs[:range_checked]
    bad = ~((checked > 0.0) & (checked <= 1.0))
    if bool(bad.any()):
        value = float(checked[int(np.argmax(bad))])
        raise ProbabilityError(
            f"edge probability must be in (0, 1], got {value}"
        )
    return probs


def parse_edge_list(
    text: str, name: str = "", source: str = "<string>"
) -> UncertainGraph:
    """Parse edge-list *text* into an :class:`UncertainGraph`.

    The in-memory counterpart of :func:`read_edge_list` — callers that
    already hold the file's bytes (and have digested them) parse the
    same content instead of re-reading a file that may have changed.
    ``source`` labels error messages.

    The result is exactly what adding the lines one at a time through
    :meth:`UncertainGraph.add_vertex` / ``add_edge`` would build — same
    vertex/edge dict insertion order (bare-vertex interleaving and
    duplicate-edge overwrites included), same errors at the same line —
    but lines are routed in chunks: probability tokens are converted in
    bulk and adjacency entries are written directly, skipping the
    per-edge method dispatch, probability re-validation and cache
    invalidation.

    Raises
    ------
    GraphError
        On malformed lines or out-of-range probabilities.
    """
    graph = UncertainGraph(name=name)
    adj = graph._adj
    lines = text.splitlines()
    for start in range(0, len(lines), _PARSE_CHUNK):
        chunk = lines[start:start + _PARSE_CHUNK]
        us: list = []           # edge endpoints, line order
        vs: list = []
        tokens: list = []       # pending probability tokens, line order
        vops: list = []         # (edge position, token) for bare vertices
        us_append, vs_append = us.append, vs.append
        tokens_append = tokens.append
        for offset, raw in enumerate(chunk):
            line = raw.split("#", 1)[0] if "#" in raw else raw
            parts = line.split()
            n_parts = len(parts)
            if n_parts == 3:
                u = parts[0]
                v = parts[1]
                tokens_append(parts[2])
                if u == v:
                    # This line's float() runs before the self-loop
                    # check; earlier lines validate fully.
                    _convert_probabilities(
                        tokens, len(tokens) - 1, source, lines, start
                    )
                    raise GraphError(f"self-loops are not allowed: {u!r}")
                us_append(u)
                vs_append(v)
            elif n_parts == 0:
                continue
            elif n_parts == 1:
                vops.append((len(us), parts[0]))
            else:
                # Earlier float/domain errors outrank this line's
                # structure error — validate them first.
                _convert_probabilities(
                    tokens, len(tokens), source, lines, start
                )
                raise GraphError(
                    f"{source}:{start + offset + 1}: expected 'u v p' or a "
                    f"bare vertex, got {raw.rstrip()!r}"
                )
        # tolist() yields Python floats — add_edge stores Python floats
        # too, and repr(np.float64) would break serialisation.
        probs = _convert_probabilities(
            tokens, len(tokens), source, lines, start
        ).tolist()
        if vops:
            # Bare vertices interleave with edges: replay in line order
            # so dict insertion order follows the file exactly.
            vi = 0
            n_vops = len(vops)
            for eid, p in enumerate(probs):
                while vi < n_vops and vops[vi][0] == eid:
                    token = vops[vi][1]
                    if token not in adj:
                        adj[token] = {}
                    vi += 1
                u = us[eid]
                v = vs[eid]
                row = adj.get(u)
                if row is None:
                    row = adj[u] = {}
                col = adj.get(v)
                if col is None:
                    col = adj[v] = {}
                row[v] = p
                col[u] = p
            while vi < n_vops:
                token = vops[vi][1]
                if token not in adj:
                    adj[token] = {}
                vi += 1
        else:
            for u, v, p in zip(us, vs, probs):
                row = adj.get(u)
                if row is None:
                    row = adj[u] = {}
                col = adj.get(v)
                if col is None:
                    col = adj[v] = {}
                row[v] = p
                col[u] = p
    graph._invalidate_caches()
    return graph


def read_edge_list(path: "str | os.PathLike", name: str = "") -> UncertainGraph:
    """Parse a ``u v p`` edge list back into an :class:`UncertainGraph`.

    Raises
    ------
    GraphError
        On malformed lines or out-of-range probabilities.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_edge_list(
        text,
        name=name or os.path.basename(os.fspath(path)),
        source=os.fspath(path),
    )
