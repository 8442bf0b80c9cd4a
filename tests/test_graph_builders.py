"""Every graph builder fills neighbour sets directly; each must give the
same graph as the edge-list constructor fed the builder's edge-list
definition."""

import pickle
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from rainbowdom.bipartite import complete_bipartite_graph
from rainbowdom.cograph import Cotree, cotree_to_graph, parse_cotree, random_cotree
from rainbowdom.graph import (
    Graph,
    GraphParseError,
    cartesian_product_complete,
    complement,
    graph_join,
    graph_union,
    parse_graph,
)
from rainbowdom.interval import IntervalModel, build_arrangement, interval_graph
from rainbowdom.permutation import diagram_to_graph
from rainbowdom.trivially_perfect import RootedTreeModel

from test_recognition_properties import gnp, p4sparse_texts

SETTINGS = settings(max_examples=100, deadline=None)


def assert_same_graph(g: Graph, n: int, reference_edges) -> None:
    want = Graph(n, reference_edges)
    canon = {(u, v) if u < v else (v, u) for u, v in reference_edges}
    assert want.edges == canon
    assert g == want and hash(g) == hash(want)
    assert n < 2 or g != complement(want)
    assert g.m == want.m == len(canon)
    assert all(g.neighbors(v) == want.neighbors(v) for v in range(n))
    assert g.edges == want.edges


def leaf_lists(kind, left, right, leaf_of, root, spider=None):
    """Per node, its leaves left to right (a spider: feet, body, head)."""
    out = {}
    stack = [(root, False)]
    while stack:
        v, done = stack.pop()
        kids = [c for c in (left[v], right[v]) if c != -1] if kind[v] != "L" else []
        if kids and not done:
            stack.append((v, True))
            stack.extend((c, False) for c in reversed(kids))
        elif kind[v] == "L":
            out[v] = [leaf_of[v]]
        elif kind[v] == "S":
            sp = spider[v]
            out[v] = list(sp.feet) + list(sp.body) + out.get(left[v], [])
        else:
            out[v] = out[left[v]] + out[right[v]]
    return out


@SETTINGS
@given(st.integers(1, 40), st.integers(0, 10**6), st.data())
def test_cotree_to_graph(n, seed, data):
    t = random_cotree(n, seed)
    perm = data.draw(st.permutations(range(n)))
    t = Cotree(t.kind, t.left, t.right,
               [perm[x] if x != -1 else -1 for x in t.leaf_vertex], t.root)
    leaves = leaf_lists(t.kind, t.left, t.right, t.leaf_vertex, t.root)
    edges = [(x, y) for v, kv in enumerate(t.kind) if kv == "J"
             for x in leaves[t.left[v]] for y in leaves[t.right[v]]]
    assert_same_graph(cotree_to_graph(t), n, edges)


@SETTINGS
@given(p4sparse_texts(max_n=20))
def test_p4sparse_to_graph_and_leaf_spans(text):
    tree = parse_cotree(text)
    leaves = leaf_lists(tree.kind, tree.left, tree.right, tree.leaf_vertex,
                        tree.root, tree.spider)
    seq, start = tree.leaf_spans()
    for v in leaves:
        assert seq[start[v]:start[v] + tree.size[v]] == leaves[v]
    edges = []
    for v, kv in enumerate(tree.kind):
        if kv == "J":
            edges += [(x, y) for x in leaves[tree.left[v]] for y in leaves[tree.right[v]]]
        elif kv == "S":
            sp = tree.spider[v]
            edges += list(combinations(sp.body, 2))
            edges += [(f, x) for i, f in enumerate(sp.feet) for j, x in enumerate(sp.body)
                      if (i == j) == (sp.kind == "thin")]
            edges += [(h, x) for h in sp.head for x in sp.body]
    assert_same_graph(cotree_to_graph(tree), tree.n_leaves, edges)


@SETTINGS
@given(st.integers(1, 40), st.integers(0, 10**6))
def test_forest_derived_graph(n, seed):
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    parents = [-1] * n
    for i, v in enumerate(order[1:], 1):
        if rng.random() < 0.8:
            parents[v] = order[rng.randrange(i)]
    model = RootedTreeModel(parents)
    edges = [(v, a) for v in range(n) for a in model.ancestors(v)]
    assert_same_graph(model.derived_graph(), n, edges)


@given(st.integers(0, 12), st.integers(0, 12))
def test_complete_bipartite_graph(n1, n2):
    edges = [(u, n1 + v) for u in range(n1) for v in range(n2)]
    assert_same_graph(complete_bipartite_graph(n1, n2), n1 + n2, edges)


@st.composite
def interval_models(draw, max_n=14):
    n = draw(st.integers(1, max_n))
    ivs = []
    for _ in range(n):
        lo = draw(st.integers(0, 20))
        ivs.append((lo, lo + draw(st.integers(0, 8))))
    return IntervalModel(tuple(ivs))


@SETTINGS
@given(interval_models())
def test_interval_graph_and_arrangement(m):
    edges = [(u, v) for u, v in combinations(range(m.n), 2)
             if max(m.intervals[u][0], m.intervals[v][0])
             <= min(m.intervals[u][1], m.intervals[v][1])]
    assert_same_graph(interval_graph(m), m.n, edges)
    arr = build_arrangement(m)
    clique_edges = {e for K in arr.cliques for e in combinations(sorted(K), 2)}
    assert_same_graph(interval_graph(m), m.n, clique_edges)


@SETTINGS
@given(st.permutations(range(12)), st.integers(0, 12))
def test_diagram_to_graph(perm, n):
    pi = [x for x in perm if x < n]
    edges = [(i, j) for i, j in combinations(range(n), 2) if pi[i] > pi[j]]
    assert_same_graph(diagram_to_graph(pi), n, edges)


@SETTINGS
@given(gnp(max_n=10), st.randoms(use_true_random=False))
def test_parse_graph(g, rnd):
    edges = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in g.edges]
    rnd.shuffle(edges)
    text = f"{g.n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
    assert_same_graph(parse_graph(text), g.n, edges)


@SETTINGS
@given(gnp(max_n=7), gnp(max_n=7), st.integers(1, 3), st.data())
def test_graph_helpers(a, b, k, data):
    shifted = [(u + a.n, v + a.n) for u, v in b.edges]
    n = a.n + b.n
    assert_same_graph(graph_union(a, b), n, list(a.edges) + shifted)
    across = [(u, a.n + v) for u in range(a.n) for v in range(b.n)]
    assert_same_graph(graph_join(a, b), n, list(a.edges) + shifted + across)
    assert_same_graph(complement(a), a.n,
                      [e for e in combinations(range(a.n), 2) if e not in a.edges])
    product = [(v * k + c, v * k + d) for v in range(a.n) for c, d in combinations(range(k), 2)]
    product += [(u * k + c, v * k + c) for u, v in a.edges for c in range(k)]
    assert_same_graph(cartesian_product_complete(a, k), a.n * k, product)
    sub, keep = a.induced(data.draw(st.sets(st.integers(0, a.n - 1))))
    index = {v: i for i, v in enumerate(keep)}
    assert_same_graph(sub, len(keep), [(index[u], index[v]) for u, v in a.edges
                                       if u in index and v in index])


def test_reversed_duplicate_edge_rejected():
    with pytest.raises(GraphParseError, match=r"^duplicate edge \(3, 1\)$"):
        parse_graph("4 2\n1 3\n3 1\n")


def test_immutable_and_picklable_after_edges_built():
    g = Graph(3, [(0, 1), (2, 1)])
    assert g.edges == {(0, 1), (1, 2)}
    for name in ("n", "edges", "_edges", "_adj"):
        with pytest.raises(AttributeError):
            setattr(g, name, None)
    assert g.edges == {(0, 1), (1, 2)}
    assert pickle.loads(pickle.dumps(g)) == g
