"""Immutable simple-graph representation, edge-list I/O, and the product
construction used by the exact rainbow oracle.

Vertices are dense 0-indexed integers.  Graph values never mutate after
construction, so they can be shared freely between workers.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Sequence

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
    """Simple undirected graph: no loops, no parallel edges.

    The neighbour sets are the stored form; ``edges`` is derived from them
    on first access and cached.
    """

    __slots__ = ("n", "_edges", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = (), *,
                 adj: Sequence[AbstractSet[int]] | None = None):
        """Build from an edge list (each edge checked; repeats merge) or,
        for builders that already have them, from ``adj``: n neighbour
        sets, symmetric and loop-free, taken without checks."""
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if adj is None:
            adj = [set() for _ in range(n)]
            for u, v in edges:
                if u == v:
                    raise ValueError(f"self-loop at vertex {u}")
                if not (0 <= u < n and 0 <= v < n):
                    raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
                adj[u].add(v)
                adj[v].add(u)
        elif len(adj) != n:
            raise ValueError(f"{len(adj)} neighbour sets for n={n}")
        self.n = n
        self._edges = None
        self._adj = tuple(map(frozenset, adj))

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Every edge as (u, v) with u < v."""
        if self._edges is None:
            edges = frozenset(
                (u, v) for u, nb in enumerate(self._adj) for v in nb if u < v
            )
            object.__setattr__(self, "_edges", edges)
        return self._edges

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def open_sums(self, x: Sequence[int]) -> list[int]:
        """Per vertex, the sum of ``x`` over its neighbours (the adjacency
        matrix times x); only the vertices where x is nonzero add."""
        sums = [0] * self.n
        adj = self._adj
        for v, xv in enumerate(x):
            if xv:
                for u in adj[v]:
                    sums[u] += xv
        return sums

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    @property
    def m(self) -> int:
        return sum(map(len, self._adj)) // 2

    def induced(self, vertices: Iterable[int]) -> tuple["Graph", list[int]]:
        """Induced subgraph plus the list mapping new indices to old ones."""
        keep = sorted(set(vertices))
        index = {v: i for i, v in enumerate(keep)}
        kept = set(keep)
        adj = [{index[w] for w in self._adj[v] & kept} for v in keep]
        return Graph(len(keep), adj=adj), keep

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
        return self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

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
    adj: list[set[int]] = [set() for _ in range(n)]
    for ln in lines[1:]:
        try:
            a, b = ln.split()
            u, v = int(a), int(b)
        except ValueError:
            raise GraphParseError(f"malformed edge line: {ln!r}") from None
        if u == v:
            raise GraphParseError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"vertex out of range in edge ({u}, {v})")
        nu = adj[u]
        if v in nu:
            raise GraphParseError(f"duplicate edge ({u}, {v})")
        nu.add(v)
        adj[v].add(u)
    return Graph(n, adj=adj)


def _vertex_rows(text: str, fields: int, what: str, cover: str) -> list[list[str]]:
    """The split non-blank lines of a file with one line ``v ...`` per
    vertex, in vertex order.  Raises ValueError on a line without
    ``fields`` fields ("malformed <what> line") and, worded by ``cover``,
    unless the lines name each vertex 0..n-1 exactly once."""
    rows = {}
    n = 0  # lines read; a repeated vertex leaves fewer rows
    for ln in (raw.strip() for raw in text.splitlines()):
        if not ln:
            continue
        parts = ln.split()
        if len(parts) != fields:
            raise ValueError(f"malformed {what} line: {ln!r}")
        rows[int(parts[0])] = parts
        n += 1
    if sorted(rows) != list(range(n)):
        raise ValueError(f"{cover} 0..n-1 exactly once")
    return [rows[v] for v in range(n)]


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
    adj = []
    for v, nb in enumerate(g._adj):
        row = range(v * k, v * k + k)
        for c in range(k):
            s = {u * k + c for u in nb}
            s.update(row)
            s.discard(v * k + c)
            adj.append(s)
    return Graph(g.n * k, adj=adj)


def graph_union(a: Graph, b: Graph) -> Graph:
    """Disjoint union; b's vertices are shifted up by a.n."""
    shifted = [{x + a.n for x in nb} for nb in b._adj]
    return Graph(a.n + b.n, adj=list(a._adj) + shifted)


def graph_join(a: Graph, b: Graph) -> Graph:
    """Disjoint union plus every edge between the two sides."""
    g = graph_union(a, b)
    side_a, side_b = range(a.n), range(a.n, g.n)
    adj = [nb.union(side_b) for nb in g._adj[:a.n]]
    adj += [nb.union(side_a) for nb in g._adj[a.n:]]
    return Graph(g.n, adj=adj)


def complement(g: Graph) -> Graph:
    everyone = set(range(g.n))
    adj = []
    for v, nb in enumerate(g._adj):
        s = everyone - nb
        s.discard(v)
        adj.append(s)
    return Graph(g.n, adj=adj)
