"""Every graph builder fills neighbour sets directly; each must give the
same graph as the edge-list constructor fed the builder's edge-list
definition.  Each model's ``open_sums`` states its adjacency a second
time, so it must agree with the neighbour sums of the graph the model
builds, and a witness must check the same on the model as on the graph."""

import pickle
import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from rainbowdom.bipartite import BipartiteInstance, complete_bipartite_graph
from rainbowdom.cograph import (
    Cotree,
    SpiderPartition,
    cotree_to_graph,
    parse_cotree,
    random_cotree,
)
from rainbowdom.graph import (
    Graph,
    GraphParseError,
    cartesian_product_complete,
    complement,
    graph_join,
    graph_union,
    parse_graph,
)
from rainbowdom.harness import (
    enumerate_cographs,
    enumerate_interval_models,
    enumerate_p4sparse_trees,
    enumerate_rooted_forests,
)
from rainbowdom.interval import IntervalModel, build_arrangement, interval_graph
from rainbowdom.oracle import InfeasibleInstance
from rainbowdom.permutation import Permutation, diagram_to_graph
from rainbowdom.registry import REGISTRY
from rainbowdom.semantics import (
    KAssignment,
    RainbowFunction,
    WeightFunction,
    check_witness,
)
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
    seq, start = tree.seq, tree.start
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
    assert_same_graph(cotree_to_graph(tree), tree.n, edges)


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


def maximal_active_sets(m: IntervalModel) -> list:
    """The arrangement by definition: the active set at each distinct right
    end, in order, less those inside another and repeats."""
    active = [frozenset(v for v, (lo, hi) in enumerate(m.intervals) if lo <= p <= hi)
              for p in sorted({hi for _lo, hi in m.intervals})]
    out = []
    for K in active:
        if not any(K < K2 for K2 in active) and K not in out:
            out.append(K)
    return out


# few coordinates, so that touching ends, points, repeats and nesting are common
@SETTINGS
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 3)), max_size=12))
def test_arrangement_is_the_maximal_active_sets(spans):
    m = IntervalModel(tuple((lo, lo + length) for lo, length in spans))
    want = maximal_active_sets(m)
    arr = build_arrangement(m)
    assert arr.t == len(want) and arr.cliques == tuple(want)
    for v in range(m.n):
        assert arr.first[v] <= arr.last[v]
        assert [i for i, K in enumerate(want) if v in K] == list(
            range(arr.first[v], arr.last[v] + 1))


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


# --- open_sums: the second statement of each model's adjacency ---------------


def assert_open_sums(model, g: Graph, rng) -> None:
    """model.open_sums and g.open_sums both give, per vertex, the sum of x
    over g's neighbours, for a dense and a sparse random integer vector."""
    assert model.n == g.n
    for density in (1.0, 0.3):
        x = [rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(g.n)]
        want = [sum(x[u] for u in g.neighbors(v)) for v in range(g.n)]
        assert g.open_sums(x) == want
        assert model.open_sums(x) == want


def relabel_tree(t: Cotree, perm) -> Cotree:
    """The same tree with vertex v renamed perm[v]."""
    spider = [sp and SpiderPartition(sp.kind, tuple(perm[v] for v in sp.feet),
                                     tuple(perm[v] for v in sp.body), ())
              for sp in t.spider]
    return Cotree(t.kind, t.left, t.right,
                  [perm[x] if x != -1 else -1 for x in t.leaf_vertex], t.root, spider)


def small_models(max_n: int, max_interval_n: int):
    """(class, model, graph) for every model the certification enumerators
    give up to max_n vertices (interval classes up to max_interval_n), every
    permutation of up to max_n elements and the complete bipartite graphs
    with sides of up to 3."""
    for t, g in enumerate_cographs(max_n):
        yield "cograph", t, g
    for t, g in enumerate_p4sparse_trees(max_n):
        if "S" in t.kind:
            yield "p4sparse", t, g
    for m in enumerate_rooted_forests(max_n):
        yield "trivially-perfect", m, m.derived_graph()
    for g, m in enumerate_interval_models(max_interval_n):
        yield "interval", m, g
    for n in range(max_n + 1):
        for pi in permutations(range(n)):
            yield "permutation", Permutation(pi), diagram_to_graph(pi)
    for n1 in range(1, 4):
        for n2 in range(1, 4):
            yield ("complete-bipartite", BipartiteInstance.from_labels(1, [0] * n1, [0] * n2),
                   complete_bipartite_graph(n1, n2))


# interval classes stop at 7 vertices: enumerating those on 8 takes minutes
def test_open_sums_on_enumerated_models():
    rng = random.Random(0)
    for _cls, model, g in small_models(8, 7):
        assert_open_sums(model, g, rng)


@st.composite
def random_models(draw, max_n=60):
    """A model of any kind on up to max_n vertices, with shuffled vertex
    ids, and the graph its builder gives."""
    kind = draw(st.sampled_from(["cotree", "p4tree", "forest", "intervals",
                                 "permutation", "bipartite"]))
    n = draw(st.integers(1, max_n))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    perm = list(range(n))
    rng.shuffle(perm)
    if kind == "cotree":
        t = relabel_tree(random_cotree(n, rng.randrange(10**6)), perm)
        return t, cotree_to_graph(t)
    if kind == "p4tree":
        t = parse_cotree(draw(p4sparse_texts(max_n=max_n)))
        perm = list(range(t.n))
        rng.shuffle(perm)
        t = relabel_tree(t, perm)
        return t, cotree_to_graph(t)
    if kind == "forest":
        parents = [-1] * n
        for i, v in enumerate(perm[1:], 1):
            if rng.random() < 0.9:
                parents[v] = perm[rng.randrange(i)]
        m = RootedTreeModel(parents)
        return m, m.derived_graph()
    if kind == "intervals":
        m = IntervalModel(tuple(
            (lo, lo + rng.randint(0, 10)) for lo in (rng.randint(0, 3 * n) for _ in range(n))))
        return m, interval_graph(m)
    if kind == "permutation":
        return Permutation(perm), diagram_to_graph(perm)
    n1 = rng.randint(1, max(1, n - 1))
    return (BipartiteInstance.from_labels(1, [0] * n1, [0] * (n + 1 - n1)),
            complete_bipartite_graph(n1, n + 1 - n1))


@SETTINGS
@given(random_models(), st.randoms(use_true_random=False))
def test_open_sums_on_random_models(model_and_graph, rnd):
    assert_open_sums(*model_and_graph, rnd)


def broken(witness):
    """The witness itself, then every function one change away from it: a
    vertex zeroed, one colour dropped, one unit of weight taken off."""
    yield witness
    k = witness.k
    if isinstance(witness, RainbowFunction):
        labels = witness.labels
        for v, lab in enumerate(labels):
            if lab:
                yield RainbowFunction(k, labels[:v] + (frozenset(),) + labels[v + 1:])
                if len(lab) > 1:
                    yield RainbowFunction(k, labels[:v] + (lab - {min(lab)},) + labels[v + 1:])
    else:
        ws = witness.weights
        for v, x in enumerate(ws):
            if x:
                yield WeightFunction(k, ws[:v] + (0,) + ws[v + 1:])
                if x > 1:
                    yield WeightFunction(k, ws[:v] + (x - 1,) + ws[v + 1:])


def test_check_witness_same_on_model_and_graph():
    """For every supported problem on the small models, the solver's
    witness, the same witness against a wrong value and every witness one
    change away from it get the same verdict, word for word, on the model
    as on its graph."""
    rng = random.Random(1)
    verdicts = set()
    for cls, model, g in small_models(6, 6):
        for problem, solve in REGISTRY[cls].solvers.items():
            k = 2 if cls in ("interval", "permutation") else rng.randint(1, 3)
            j = rng.randint(1, k)
            L = None
            if cls == "complete-bipartite":
                model = BipartiteInstance.from_labels(
                    k, [rng.randint(0, k) for _ in range(model.n1)],
                    [rng.randint(0, k) for _ in range(model.n2)])
                L = model.assignment()
            elif problem == "weakL":  # floors a below 2 keep some vertices at zero
                L = KAssignment(k, tuple((rng.randint(0, min(k, 1)), rng.randint(0, k))
                                         for _ in range(g.n)))
            try:
                value, witness = solve(model, k, j, L)
            except InfeasibleInstance:  # (j, k) with j too small for a leaf
                continue
            for f, claim in [(witness, value + 1)] + [(f, value) for f in broken(witness)]:
                got = check_witness(problem, model, claim, f, j, L)
                assert got == check_witness(problem, g, claim, f, j, L), (cls, problem, f)
                verdicts.add(got if got is None else got.split()[1])
    assert verdicts == {None, "fails", "costs"}


def test_rainbow_check_at_large_k_same_on_model_and_graph():
    """At k = 1000 the colours take several packed open sums; on a cotree
    and a rooted forest of stars, whose solver witnesses leave vertices
    empty, every witness one change away (a colour of any chunk dropped)
    gets the graph's verdict."""
    k = 1000
    star = [-1 if v % 1200 == 0 else v - v % 1200 for v in range(2400)]
    forest = RootedTreeModel(star)
    tree = forest.to_cotree()
    for cls, model in (("trivially-perfect", forest), ("cograph", tree)):
        g = forest.derived_graph()
        value, witness = REGISTRY[cls].solvers["rainbow"](model, k, None, None)
        assert value == 2 * k and check_witness("rainbow", model, value, witness) is None
        labels = witness.labels
        for v, lab in enumerate(labels):
            if lab:
                for c in (1, 500, k):
                    f = RainbowFunction(k, labels[:v] + (lab - {c},) + labels[v + 1:])
                    want = check_witness("rainbow", g, value - 1, f)
                    assert want is not None
                    assert check_witness("rainbow", model, value - 1, f) == want
