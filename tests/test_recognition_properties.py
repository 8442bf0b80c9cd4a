"""Property tests for the subset splits and the three recognizers: splits
agree with induced subgraphs, members of each class are recognized back to
the same graph under any labelling, and every refusal is a genuine
witness."""

import random
from itertools import combinations

from hypothesis import given, settings, strategies as st

from rainbowdom.cograph import (
    CographRefusal,
    Cotree,
    cotree_to_graph,
    parse_cotree,
    random_cotree,
    recognize_cograph,
)
from rainbowdom.graph import Graph, complement
from rainbowdom.p4sparse import P4SparseRefusal, recognize_p4sparse
from rainbowdom.trivially_perfect import (
    RootedTreeModel,
    TPRefusal,
    build_tree_model,
)

SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def gnp(draw, max_n=9):
    n = draw(st.integers(1, max_n))
    p = draw(st.floats(0.0, 1.0))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def relabel(g: Graph, perm) -> Graph:
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def edge_count_and_degrees(g: Graph, vs):
    edges = [(a, b) for a, b in combinations(vs, 2) if g.has_edge(a, b)]
    degs = sorted(sum(g.has_edge(a, b) for b in vs if b != a) for a in vs)
    return len(edges), degs


def is_induced_p4(g: Graph, quad) -> bool:
    return len(set(quad)) == 4 and edge_count_and_degrees(g, quad) == (3, [1, 1, 2, 2])


def is_induced_c4(g: Graph, quad) -> bool:
    return len(set(quad)) == 4 and edge_count_and_degrees(g, quad) == (4, [2, 2, 2, 2])


# --- subset splits ---------------------------------------------------------------


@SETTINGS
@given(gnp(max_n=10), st.data())
def test_subset_splits_match_induced_subgraph(g, data):
    subset = data.draw(st.sets(st.integers(0, g.n - 1)))
    sub, keep = g.induced(subset)
    want = [[keep[i] for i in c] for c in sub.components()]
    want_co = [[keep[i] for i in c] for c in complement(sub).components()]
    assert g.components(subset) == want
    assert g.co_components(subset) == want_co


# --- members are recognized back ---------------------------------------------


@SETTINGS
@given(st.integers(1, 14), st.integers(0, 10**6), st.data())
def test_random_cotree_recognized_back(n, seed, data):
    perm = data.draw(st.permutations(range(n)))
    g = relabel(cotree_to_graph(random_cotree(n, seed)), perm)
    t = recognize_cograph(g)
    assert isinstance(t, Cotree) and cotree_to_graph(t) == g
    tree = recognize_p4sparse(g)
    assert isinstance(tree, Cotree) and "S" not in tree.kind
    assert cotree_to_graph(tree) == g


@st.composite
def p4sparse_texts(draw, max_n=14):
    """A P4-sparse decomposition tree in the .p4tree grammar, labels 0..n-1."""
    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        return str(counter[0] - 1)

    def build(size: int) -> str:
        if size == 1:
            return fresh()
        tags = ["U", "J", "S"] if size >= 4 else ["U", "J"]
        tag = draw(st.sampled_from(tags))
        if tag == "S":
            s = draw(st.integers(2, size // 2))
            kind = draw(st.sampled_from(["thin", "thick"]))
            feet = " ".join(fresh() for _ in range(s))
            body = " ".join(fresh() for _ in range(s))
            head = " " + build(size - 2 * s) if size > 2 * s else ""
            return f"(S {kind} ({feet}) ({body}){head})"
        a = draw(st.integers(1, size - 1))
        return f"({tag} {build(a)} {build(size - a)})"

    return build(draw(st.integers(1, max_n)))


@SETTINGS
@given(p4sparse_texts(), st.data())
def test_spider_tree_recognized_back(text, data):
    base = cotree_to_graph(parse_cotree(text))
    g = relabel(base, data.draw(st.permutations(range(base.n))))
    tree = recognize_p4sparse(g)
    assert isinstance(tree, Cotree) and cotree_to_graph(tree) == g


@st.composite
def forests(draw, max_n=14):
    n = draw(st.integers(1, max_n))
    parents = [-1]
    for v in range(1, n):
        parents.append(draw(st.integers(-1, v - 1)))
    return RootedTreeModel(parents)


@SETTINGS
@given(forests(), st.data())
def test_tp_forest_recognized_back(model, data):
    g = relabel(model.derived_graph(), data.draw(st.permutations(range(model.n))))
    got = build_tree_model(g)
    assert isinstance(got, RootedTreeModel) and got.derived_graph() == g


# --- refusals are genuine ----------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(gnp())
def test_refusals_are_genuine(g):
    t = recognize_cograph(g)
    if isinstance(t, CographRefusal):
        a, b, c, d = t.p4
        assert is_induced_p4(g, t.p4)
        assert g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(c, d)
    else:
        assert cotree_to_graph(t) == g

    tree = recognize_p4sparse(g)
    if isinstance(tree, P4SparseRefusal):
        five = tree.witness
        assert len(set(five)) == 5
        assert sum(is_induced_p4(g, q) for q in combinations(five, 4)) >= 2
    else:
        assert cotree_to_graph(tree) == g

    model = build_tree_model(g)
    if isinstance(model, TPRefusal):
        assert model.vertices == tuple(sorted(model.vertices))
        check = is_induced_p4 if model.kind == "P4" else is_induced_c4
        assert model.kind in ("P4", "C4") and check(g, model.vertices)
    else:
        assert model.derived_graph() == g
