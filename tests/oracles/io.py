"""Line-at-a-time edge-list parser (see the package docstring)."""

from __future__ import annotations

from repro.core.uncertain_graph import UncertainGraph
from repro.exceptions import GraphError


def parse_edge_list_scalar(
    text: str, name: str = "", source: str = "<string>"
) -> UncertainGraph:
    """The line-at-a-time reference parser.

    The behavioural pin for :func:`repro.datasets.io.parse_edge_list`:
    every fixture must parse bit-identically through both, including
    error type/message/line for malformed input.
    """
    graph = UncertainGraph(name=name)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) == 1:
            graph.add_vertex(parts[0])
            continue
        if len(parts) != 3:
            raise GraphError(
                f"{source}:{lineno}: expected 'u v p' or a bare vertex, "
                f"got {raw.rstrip()!r}"
            )
        u, v, p_raw = parts
        try:
            p = float(p_raw)
        except ValueError:
            raise GraphError(
                f"{source}:{lineno}: probability is not a number: {p_raw!r}"
            ) from None
        graph.add_edge(u, v, p)
    return graph
