"""Cross-class agreement at sizes the oracle cannot reach.

Trivially perfect graphs are interval graphs (nested DFS intervals of the
rooted forest) and cographs are permutation graphs (separable permutations:
a union is a direct sum, a join a skew sum), so the sweeps must agree with
the tree DPs there.  Trivially perfect graphs are also cographs, so the
forest DPs must agree with the decomposition-tree DPs.  Every witness is
validated.
"""

import random

import pytest

from rainbowdom.cograph import (
    Cotree,
    cotree_to_graph,
    random_cotree,
    rainbow_cograph,
    recognize_cograph,
    weak_cograph,
)
from rainbowdom.interval import (
    IntervalModel,
    build_arrangement,
    interval_graph,
    rainbow2_interval,
    weak2_interval,
)
from rainbowdom.p4sparse import recognize_p4sparse
from rainbowdom.permutation import diagram_to_graph, rainbow2_permutation, weak2_permutation
from rainbowdom.semantics import is_rainbow, is_weak_k, rainbow_cost, weight_cost
from rainbowdom.trivially_perfect import (
    RootedTreeModel,
    gamma_wk_tp,
    random_tree_model,
)


def nested_intervals(model: RootedTreeModel) -> IntervalModel:
    """[enter, exit] DFS times: an ancestor's interval contains its
    descendants', and unrelated vertices get disjoint intervals."""
    lo, hi = [0] * model.n, [0] * model.n
    clock = 0
    stack = [(r, False) for r in reversed(model.roots)]
    while stack:
        v, done = stack.pop()
        if done:
            hi[v] = clock
        else:
            lo[v] = clock
            stack.append((v, True))
            stack.extend((c, False) for c in reversed(model.children[v]))
        clock += 1
    return IntervalModel(tuple(zip(lo, hi)))


def deep_forest(n: int, seed: int) -> RootedTreeModel:
    """Each vertex hangs below one of the four before it, or starts a tree."""
    rng = random.Random(seed)
    return RootedTreeModel(
        [-1 if v == 0 or rng.random() < 0.05 else rng.randrange(max(0, v - 4), v)
         for v in range(n)]
    )


def tp_models(n: int):
    tree = random_tree_model(n, n)
    # without the root, which alone dominates the tree, the forest's value grows
    forest = RootedTreeModel([p - 1 for p in random_tree_model(n + 1, n).parents[1:]])
    return tree, forest, deep_forest(n, n)


def assert_valid(g, w, value, check, cost):
    ok, bad = check(g, w)
    assert ok, f"witness fails at vertex {bad}"
    assert cost(w) == value


@pytest.mark.parametrize("n", [50, 300, 1000])
def test_interval_sweeps_match_trivially_perfect(n):
    for model in tp_models(n):
        ivs = nested_intervals(model)
        g = interval_graph(ivs)
        if n <= 300:
            assert g.edges == model.derived_graph().edges
        arr = build_arrangement(ivs)
        value, w = weak2_interval(arr)
        assert value == gamma_wk_tp(model, 2)[0]
        assert_valid(g, w, value, is_weak_k, weight_cost)
        value, f = rainbow2_interval(arr)
        assert value == gamma_wk_tp(model, 2)[0]
        assert_valid(g, f, value, is_rainbow, rainbow_cost)


def separable_permutation(t):
    """The permutation whose inversion graph is the cograph of cotree t, and
    the cotree vertex of each segment."""
    seq, perm = {}, {}
    for v in t.post_order():
        if t.kind[v] == "L":
            seq[v], perm[v] = [t.leaf_vertex[v]], [0]
            continue
        a, b = t.left[v], t.right[v]
        pa, pb = perm.pop(a), perm.pop(b)
        if t.kind[v] == "U":  # direct sum: no segment of a crosses one of b
            perm[v] = pa + [p + len(pa) for p in pb]
        else:  # skew sum: every segment of a crosses every one of b
            perm[v] = [p + len(pb) for p in pa] + pb
        seq[v] = seq.pop(a) + seq.pop(b)
    return tuple(perm[t.root]), seq[t.root]


@pytest.mark.parametrize("n", [4, 8, 12, 16, 20, 24])
def test_permutation_sweeps_match_cograph(n):
    for seed in range(8):
        t = random_cotree(n, seed)
        pi, vertex = separable_permutation(t)
        g, h = diagram_to_graph(pi), cotree_to_graph(t)
        assert all({vertex[u] for u in g.neighbors(s)} == h.neighbors(vertex[s])
                   for s in range(n))

        value, f = rainbow2_permutation(pi)
        cvalue, cf = rainbow_cograph(t, 2)
        assert value == cvalue
        assert_valid(g, f, value, is_rainbow, rainbow_cost)
        assert_valid(h, cf, cvalue, is_rainbow, rainbow_cost)

        value, w = weak2_permutation(pi)
        cvalue, cw = weak_cograph(t, 2)
        assert value == cvalue
        assert_valid(g, w, value, is_weak_k, weight_cost)
        assert_valid(h, cw, cvalue, is_weak_k, weight_cost)


@pytest.mark.parametrize("n", [1000, 3000])
def test_tree_dps_match_trivially_perfect(n):
    # a forest: the tree without its root, which alone dominates the tree
    model = RootedTreeModel([p - 1 for p in random_tree_model(n + 1, n).parents[1:]])
    g = model.derived_graph()
    cotree, p4tree = recognize_cograph(g), recognize_p4sparse(g)
    assert isinstance(cotree, Cotree) and isinstance(p4tree, Cotree)
    assert "S" not in p4tree.kind
    for k in (1, 2, 3):
        value = gamma_wk_tp(model, k)[0]
        for tree in (cotree, p4tree):
            rv, f = rainbow_cograph(tree, k)
            assert rv == value
            assert_valid(g, f, rv, is_rainbow, rainbow_cost)
        wv, w = gamma_wk_tp(model, k)
        cv, cw = weak_cograph(cotree, k)
        assert wv == cv
        assert_valid(g, w, wv, is_weak_k, weight_cost)
        assert_valid(g, cw, cv, is_weak_k, weight_cost)
