"""Independent references that only the tests use: graph operations, the
definition-level spider and P4-sparse predicates, the split by graph
search that recognition peels by degrees, the rooted-forest and
clique readings of the models, and the witness normalizations behind the
split-graph pendant identities.

The library never calls these.  The tests hold the library's fast paths
against them: ``cartesian_product_complete`` builds the product graph that
``oracle.exact_rainbow`` searches as masks, and ``normalize_gadget_*``
plus ``extract_dominating_set`` run the argument behind
``gadgets.verify_gadget_identities``.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from rainbowdom.cograph import CotreeBuilder, SpiderPartition
from rainbowdom.gadgets import GadgetInfo, SplitPartition
from rainbowdom.graph import Graph
from rainbowdom.interval import CliqueArrangement
from rainbowdom.oracle import OracleResult
from rainbowdom.p4sparse import count_induced_p4s
from rainbowdom.semantics import RainbowFunction, WeightFunction
from rainbowdom.trivially_perfect import RootedTreeModel


# --- graphs --------------------------------------------------------------------


def induced(g: Graph, vertices: Iterable[int]) -> tuple[Graph, list[int]]:
    """Induced subgraph plus the list mapping new indices to old ones."""
    keep = sorted(set(vertices))
    index = {v: i for i, v in enumerate(keep)}
    kept = set(keep)
    adj = [{index[w] for w in g._adj[v] & kept} for v in keep]
    return Graph(len(keep), adj=adj), keep


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(g.components()) == 1


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


# --- P4-sparse definitions -------------------------------------------------------


def check_spider(g: Graph, sp: SpiderPartition) -> bool:
    """Independent predicate for the spider invariants."""
    s, kset, t = set(sp.feet), set(sp.body), set(sp.head)
    if s | kset | t != set(range(g.n)) or len(s) + len(kset) + len(t) != g.n:
        return False
    for a, b in combinations(sp.feet, 2):
        if g.has_edge(a, b):
            return False
    for a, b in combinations(sp.body, 2):
        if not g.has_edge(a, b):
            return False
    for h in sp.head:
        for b in sp.body:
            if not g.has_edge(h, b):
                return False
        for f in sp.feet:
            if g.has_edge(h, f):
                return False
    for i, f in enumerate(sp.feet):
        for jdx, b in enumerate(sp.body):
            want = (i == jdx) if sp.kind == "thin" else (i != jdx)
            if g.has_edge(f, b) != want:
                return False
    return True


def is_p4_sparse_bruteforce(g: Graph) -> bool:
    """Definition-level predicate: every 5 vertices induce at most one P4."""
    for five in combinations(range(g.n), 5):
        if count_induced_p4s(g, five) > 1:
            return False
    return True


# --- decomposition ---------------------------------------------------------------


def split_by_search(g: Graph, stuck):
    """``cograph.decompose`` as it was before the degree peel: every
    piece is split by ``Graph.components``, then ``Graph.co_components``,
    then ``stuck``."""
    if g.n == 0:
        raise ValueError("empty graph has no decomposition tree")
    records: list = []
    todo: list[list[int]] = [list(range(g.n))]
    while todo:
        vs = todo.pop()
        if len(vs) == 1:
            records.append(vs[0])
            continue
        tag, parts = "U", g.components(vs)
        if len(parts) == 1:
            tag, parts = "J", g.co_components(vs)
        if len(parts) > 1:
            records.append((tag, len(parts)))
            todo += reversed(parts)
            continue
        sp = stuck(g, vs)
        if not isinstance(sp, SpiderPartition):
            return sp
        records.append(sp)
        if sp.head:
            todo.append(list(sp.head))
    b = CotreeBuilder()
    done: list[int] = []  # finished subtree roots, the leftmost part on top
    for rec in reversed(records):
        if isinstance(rec, int):
            done.append(b.leaf(rec))
        elif isinstance(rec, SpiderPartition):
            done.append(b.spider_node(rec, done.pop() if rec.head else -1))
        else:
            tag, m = rec
            node = done.pop()
            for _ in range(m - 1):
                node = b.node(tag, node, done.pop())
            done.append(node)
    return b.tree(done[0])


# --- model readings --------------------------------------------------------------


def ancestors(model: RootedTreeModel, v: int) -> list[int]:
    out = []
    p = model.parents[v]
    while p != -1:
        out.append(p)
        p = model.parents[p]
    return out


def cliques(arr: CliqueArrangement) -> tuple[frozenset[int], ...]:
    """The members of each clique, built from the ranges."""
    members: list[list[int]] = [[] for _ in range(arr.t)]
    for v in range(arr.n):
        for i in range(arr.first[v], arr.last[v] + 1):
            members[i].append(v)
    return tuple(frozenset(K) for K in members)


def dominating_set_of(res: OracleResult) -> set[int]:
    """Vertex set of a 0/1 domination witness."""
    w = res.witness
    assert isinstance(w, WeightFunction)
    return {v for v, x in enumerate(w.weights) if x}


# --- split graphs and the pendant identities -------------------------------------


def parse_split_partition(text: str) -> SplitPartition:
    """Two lines: the clique side, then the independent side."""
    lines = text.splitlines()
    if len(lines) < 2:
        raise ValueError("expected two lines: clique side then independent side")
    C = frozenset(int(x) for x in lines[0].split())
    I = frozenset(int(x) for x in lines[1].split())
    return SplitPartition(C, I)


def pendant_of(info: GadgetInfo) -> dict:
    owner = {}
    for c, ps in info.pendants:
        for p in ps:
            owner[p] = c
    return owner


def normalize_gadget_rainbow(
    f: RainbowFunction, info: GadgetInfo
) -> RainbowFunction:
    """Push all but one color of any multi-colored pendant onto its clique
    owner; cost is preserved and the function stays rainbow."""
    labels = [set(lab) for lab in f.labels]
    for p, c in pendant_of(info).items():
        if len(labels[p]) > 1:
            keep = min(labels[p])
            labels[c] |= labels[p] - {keep}
            labels[p] = {keep}
    return RainbowFunction(f.k, tuple(frozenset(s) for s in labels))


def normalize_gadget_weights(
    w: WeightFunction, info: GadgetInfo
) -> WeightFunction:
    """Cap pendant weights at one, moving the excess onto the owner."""
    weights = list(w.weights)
    for p, c in pendant_of(info).items():
        if weights[p] > 1:
            weights[c] = min(w.k, weights[c] + weights[p] - 1)
            weights[p] = 1
    return WeightFunction(w.k, tuple(weights))


def extract_dominating_set(witness, n_original: int) -> set[int]:
    """Original vertices carrying anything; for a normalized witness of the
    gadget this is a dominating set of the original graph."""
    if isinstance(witness, RainbowFunction):
        return {v for v in range(n_original) if witness.labels[v]}
    return {v for v in range(n_original) if witness.weights[v] > 0}
