"""Immutable simple-graph representation and edge-list I/O.

Vertices are dense 0-indexed integers.  Graph values never mutate after
construction, so they can be shared freely between workers.  Unions,
joins, complements and the product behind the exact rainbow oracle (which
searches its closed neighbourhoods without building it) are built only by
the tests, in ``tests/reference.py``.

Files of whitespace-separated integer lines share one bulk reader,
``_columns``: one split of the whole text, with each ``\n`` made a marker
token that one slice checks.  Edge lists name vertices through a dict of
``"0".."n-1"``.  A refused file's lines are walked only to word the first
bad line in file order.
"""

from __future__ import annotations

from itertools import chain, islice, repeat
from typing import AbstractSet, Iterable, Sequence

__all__ = [
    "Graph",
    "GraphParseError",
    "MAX_VERTICES",
    "parse_graph",
    "render_graph",
]


class GraphParseError(ValueError):
    """Raised for malformed edge-list documents."""


# an edge list's n sizes its neighbour lists before any edge line is read
MAX_VERTICES = 10**6


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

    Duplicate edges, self-loops, out-of-range vertices, malformed lines and
    an ``n`` above ``MAX_VERTICES`` are each rejected with a distinct
    message, worded by the first bad line in file order.
    """
    columns = _columns(text, 2)
    if not columns or not columns[0]:
        raise _edge_list_error(text)
    us, vs = columns
    del columns  # so that the tokens die once converted
    try:
        n, m = int(us[0]), int(vs[0])
    except ValueError:
        n = m = -1
    if not (0 <= n <= MAX_VERTICES and m == len(us) - 1):
        raise _edge_list_error(text)
    names = dict(zip(map(str, range(n)), range(n)))
    try:
        us, vs = (list(map(names.__getitem__, islice(c, 1, None))) for c in (us, vs))
    except KeyError:  # "01", "+1" and other spellings, or no vertex
        try:
            us, vs = (list(map(int, islice(c, 1, None))) for c in (us, vs))
        except ValueError:
            raise _edge_list_error(text) from None
        if not all(0 <= v < n for v in chain(us, vs)):
            raise _edge_list_error(text)
    adj = [[] for _ in range(n)]
    for u, v in zip(us, vs):
        adj[u].append(v)
        adj[v].append(u)
    # a frozenset copied from a set is sized to fit, one built from a list
    # can be twice as large
    adj = list(map(frozenset, map(set, adj)))
    # a self-loop or a repeated edge lists some neighbour twice
    if sum(map(len, adj)) != 2 * m:
        raise _edge_list_error(text)
    return Graph(n, adj=adj)


def _edge_list_error(text: str) -> Exception:
    """Walk the lines of an edge list that ``parse_graph`` refused, for the
    error of the first bad one."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        return GraphParseError("empty document")
    n, m = _header(lines[0], 2, GraphParseError)
    if n < 0 or m < 0:
        return GraphParseError("negative counts in header")
    if n > MAX_VERTICES:
        return GraphParseError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")
    if len(lines) - 1 != m:
        return GraphParseError(f"expected {m} edge lines, found {len(lines) - 1}")
    seen: set[tuple[int, int]] = set()
    for ln in lines[1:]:
        try:
            a, b = ln.split()
            u, v = int(a), int(b)
        except ValueError:
            return GraphParseError(f"malformed edge line: {ln!r}")
        if u == v:
            return GraphParseError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            return GraphParseError(f"vertex out of range in edge ({u}, {v})")
        if (u, v) in seen:
            return GraphParseError(f"duplicate edge ({u}, {v})")
        seen.update(((u, v), (v, u)))
    return AssertionError("parse_graph refused a well-formed edge list")


def _header(line: str, fields: int, error: type[ValueError] = ValueError) -> list[int]:
    """The integers of a header line that must hold ``fields`` of them."""
    parts = line.split()
    if len(parts) == fields:
        try:
            return list(map(int, parts))
        except ValueError:
            pass
    raise error(f"malformed header line: {line!r}")


# line breaks of str.splitlines besides "\n" and "\r\n", and the marker
_MARK = "|"
_ODD = ("\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", _MARK)


def _columns(text: str, fields: int) -> list[list[str]] | None:
    """The token columns of a text whose non-blank lines each hold
    ``fields`` whitespace-separated tokens, or None if some line holds
    another number.  Lines are those of ``str.splitlines``."""
    step = fields + 1
    if text.count("\r") == text.count("\r\n") and not any(map(text.__contains__, _ODD)):
        # one split, each "\n" a marker token: the lines are well formed
        # when the markers sit exactly at every step-th token
        body = text.strip()
        tokens = body.replace("\n", " | ").split()
        tokens.append(_MARK)
        rows = body.count("\n") + 1
        if len(tokens) == rows * step and tokens[fields::step].count(_MARK) == rows:
            return [tokens[i::step] for i in range(fields)]
    # blank lines inside, other line breaks or the marker itself: split
    # line by line, with None as the marker
    lines = filter(None, map(str.split, text.splitlines()))
    tokens = list(chain.from_iterable(map(list.__add__, lines, repeat([None]))))
    rows = tokens.count(None)
    if len(tokens) == rows * step and tokens[fields::step].count(None) == rows:
        return [tokens[i::step] for i in range(fields)]
    return None


def _vertex_rows(text: str, fields: int, what: str, cover: str) -> list[list[int]]:
    """The fields after the vertex of a file with one line ``v ...`` per
    vertex, as integer columns in vertex order.  Raises ValueError on a
    line without ``fields`` fields ("malformed <what> line") and, worded by
    ``cover``, unless the lines name each vertex 0..n-1 exactly once.  The
    first bad line, in file order, words the error."""
    columns = _columns(text, fields)
    if columns is None:
        # walk the lines to raise on the first bad one, which may instead
        # be an earlier line whose vertex is not an integer
        for ln in map(str.strip, text.splitlines()):
            if ln:
                parts = ln.split()
                if len(parts) != fields:
                    raise ValueError(f"malformed {what} line: {ln!r}")
                int(parts[0])
        raise AssertionError("well-formed vertex rows were refused")
    ids, *rest = columns
    ids = list(map(int, ids))
    n = len(ids)
    if ids != list(range(n)):
        if sorted(ids) != list(range(n)):
            raise ValueError(f"{cover} 0..n-1 exactly once")
        order = sorted(range(n), key=ids.__getitem__)
        rest = [list(map(col.__getitem__, order)) for col in rest]
    # row by row, so that the first bad field in vertex order words the error
    flat = list(map(int, chain.from_iterable(zip(*rest))))
    return [flat[i::fields - 1] for i in range(fields - 1)]


def render_graph(g: Graph) -> str:
    """Emit the same edge-list format ``parse_graph`` consumes."""
    lines = [f"{g.n} {g.m}"]
    for u, v in sorted(g.edges):
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"

