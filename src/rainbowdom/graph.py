"""Immutable simple-graph representation, edge-list I/O, and the product
construction used by the exact rainbow oracle.

Vertices are dense 0-indexed integers.  Graph values never mutate after
construction, so they can be shared freely between workers.
"""

from __future__ import annotations

from typing import Iterable, Iterator

__all__ = [
    "Graph",
    "GraphParseError",
    "parse_graph",
    "render_graph",
    "closed_neighborhood",
    "cartesian_product_complete",
    "graph_union",
    "graph_join",
    "complement",
]


class GraphParseError(ValueError):
    """Raised for malformed edge-list documents."""


class Graph:
    """Simple undirected graph: no loops, no parallel edges."""

    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        canon = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            canon.add((u, v) if u < v else (v, u))
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in canon:
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.edges = frozenset(canon)
        self._adj = tuple(frozenset(s) for s in adj)

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def vertices(self) -> range:
        return range(self.n)

    @property
    def m(self) -> int:
        return len(self.edges)

    def induced(self, vertices: Iterable[int]) -> tuple["Graph", list[int]]:
        """Induced subgraph plus the list mapping new indices to old ones."""
        keep = sorted(set(vertices))
        index = {v: i for i, v in enumerate(keep)}
        edges = [
            (index[u], index[v])
            for u, v in self.edges
            if u in index and v in index
        ]
        return Graph(len(keep), edges), keep

    def components(self, vertices: Iterable[int] | None = None) -> list[list[int]]:
        """Connected components of G[vertices] (default: all of G), each
        sorted, ordered by smallest vertex.  Builds no subgraph."""
        return self._parts(vertices, co=False)

    def co_components(self, vertices: Iterable[int]) -> list[list[int]]:
        """Connected components of the complement of G[vertices], in the
        same order as ``components``.  Each search step keeps only the
        unvisited vertices the popped vertex sees, so a call costs
        O(|S| + m(S)) set work and builds no complement."""
        return self._parts(vertices, co=True)

    def _parts(self, vertices, co: bool) -> list[list[int]]:
        adj = self._adj
        if vertices is None:
            order = range(self.n)
            unseen = set(order)
        else:
            unseen = set(vertices)
            order = sorted(unseen)
        comps = []
        for s in order:
            if s not in unseen:
                continue
            unseen.discard(s)
            comp = [s]
            stack = [s]
            while stack and unseen:
                if len(unseen) < len(stack):
                    # Few vertices left unvisited: test each against the
                    # whole stack at once instead of popping it one by one.
                    pending = set(stack)
                    stack.clear()
                    if co:
                        new = [x for x in unseen if not pending <= adj[x]]
                    else:
                        new = [x for x in unseen if not pending.isdisjoint(adj[x])]
                    unseen.difference_update(new)
                else:
                    nb = adj[stack.pop()]
                    if co:
                        new = unseen - nb
                        unseen &= nb
                    else:
                        new = unseen & nb
                        unseen -= new
                comp.extend(new)
                stack.extend(new)
            comp.sort()
            comps.append(comp)
        return comps

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    def __setattr__(self, name, value):
        if hasattr(self, "_adj"):
            raise AttributeError("Graph is immutable")
        object.__setattr__(self, name, value)


def parse_graph(text: str) -> Graph:
    """Parse an edge-list document: first line ``n m``, then m lines ``u v``.

    Duplicate edges, self-loops, out-of-range vertices and malformed lines
    are each rejected with a distinct message.
    """
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise GraphParseError("empty document")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphParseError(f"malformed header line: {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphParseError(f"malformed header line: {lines[0]!r}") from None
    if n < 0 or m < 0:
        raise GraphParseError("negative counts in header")
    if len(lines) - 1 != m:
        raise GraphParseError(
            f"expected {m} edge lines, found {len(lines) - 1}"
        )
    seen: set[tuple[int, int]] = set()
    edges: list[tuple[int, int]] = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphParseError(f"malformed edge line: {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"malformed edge line: {ln!r}") from None
        if u == v:
            raise GraphParseError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"vertex out of range in edge ({u}, {v})")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphParseError(f"duplicate edge ({u}, {v})")
        seen.add(key)
        edges.append(key)
    return Graph(n, edges)


def render_graph(g: Graph) -> str:
    """Emit the same edge-list format ``parse_graph`` consumes."""
    lines = [f"{g.n} {g.m}"]
    for u, v in sorted(g.edges):
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def closed_neighborhood(g: Graph, v: int) -> frozenset[int]:
    """N(v) together with v itself."""
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range")
    return g.neighbors(v) | {v}


def cartesian_product_complete(g: Graph, k: int) -> Graph:
    """Cartesian product of g with a complete graph on k vertices.

    Vertex (v, c) maps to index v*k + c.  Two product vertices are adjacent
    when they share the graph coordinate and differ in the complete-graph
    coordinate, or vice versa.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    edges = []
    for v in range(g.n):
        base = v * k
        for c in range(k):
            for d in range(c + 1, k):
                edges.append((base + c, base + d))
    for u, v in g.edges:
        for c in range(k):
            edges.append((u * k + c, v * k + c))
    return Graph(g.n * k, edges)


def graph_union(a: Graph, b: Graph) -> Graph:
    """Disjoint union; b's vertices are shifted up by a.n."""
    edges = list(a.edges) + [(u + a.n, v + a.n) for u, v in b.edges]
    return Graph(a.n + b.n, edges)


def graph_join(a: Graph, b: Graph) -> Graph:
    """Disjoint union plus every edge between the two sides."""
    g = graph_union(a, b)
    edges = list(g.edges)
    for u in range(a.n):
        for v in range(b.n):
            edges.append((u, a.n + v))
    return Graph(a.n + b.n, edges)


def complement(g: Graph) -> Graph:
    edges = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if not g.has_edge(u, v)
    ]
    return Graph(g.n, edges)
