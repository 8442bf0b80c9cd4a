import random
import sys
import time

import pytest

from rainbowdom.graph import Graph
from rainbowdom.semantics import (
    KAssignment,
    is_jk_dom,
    is_weak_k,
    is_weak_kL,
    weight_cost,
)
from rainbowdom.oracle import (
    InfeasibleInstance,
    exact_rainbow,
    exact_weight_variant,
)
from rainbowdom.trivially_perfect import (
    RootedTreeModel,
    TPRefusal,
    build_tree_model,
    gamma_wkL,
    gamma_wk_tp,
    jk_domination_tp,
    parse_assignment,
    parse_tree_model,
    random_tree_model,
    render_assignment,
    render_tree_model,
)
from rainbowdom.cograph import cotree_to_graph, rainbow_cograph
from rainbowdom.harness import enumerate_rooted_forests


def test_model_roundtrip():
    m = RootedTreeModel((-1, 0, 0, 1))
    assert parse_tree_model(render_tree_model(m)).parents == m.parents


def test_to_cotree_encodes_the_derived_graph():
    for m in enumerate_rooted_forests(7):
        assert cotree_to_graph(m.to_cotree()) == m.derived_graph(), m.parents
    # a path model of depth d is the complete graph K_d, so the graphs are
    # compared past the recursion limit and the 5,000-deep path is solved
    deep = sys.getrecursionlimit() + 200
    path = RootedTreeModel([-1] + list(range(deep - 1)))
    assert cotree_to_graph(path.to_cotree()) == path.derived_graph()
    path = RootedTreeModel([-1] + list(range(4999)))
    t = path.to_cotree()
    assert t.n == 5000
    for k in (1, 2, 3):
        value, f = rainbow_cograph(t, k)
        assert value == gamma_wk_tp(path, k)[0] == k
        # on a complete graph, a labelling is rainbow iff it uses every color
        assert frozenset().union(*f.labels) == frozenset(range(1, k + 1))
        assert sum(map(len, f.labels)) == k


def test_to_cotree_rejects_empty_forest():
    with pytest.raises(ValueError):
        RootedTreeModel(()).to_cotree()


def test_model_rejects_cycles():
    with pytest.raises(ValueError):
        RootedTreeModel((1, 0))


def test_assignment_roundtrip():
    L = KAssignment(2, ((0, 2), (1, 0)))
    assert parse_assignment(render_assignment(L), 2) == L


def test_build_star(star4):
    m = build_tree_model(star4)
    assert isinstance(m, RootedTreeModel)
    assert m.parents == (-1, 0, 0, 0)


def test_build_refusals(p4, c4):
    r = build_tree_model(p4)
    assert isinstance(r, TPRefusal) and r.kind == "P4"
    r = build_tree_model(c4)
    assert isinstance(r, TPRefusal) and r.kind == "C4"


def test_build_roundtrip_on_random_models():
    for seed in range(40):
        m = random_tree_model(random.Random(seed).randint(1, 9), seed)
        g = m.derived_graph()
        m2 = build_tree_model(g)
        assert isinstance(m2, RootedTreeModel)
        assert m2.derived_graph() == g


def test_two_branch_schedule_counterexample():
    """Two asymmetric branches where any one-scalar elimination that
    processes the deeper branch first overshoots; the subtree DP and the
    oracle agree on 3."""
    model = RootedTreeModel((-1, 0, 1, 1, 0, 4, 4, 4))
    k = 3
    L = KAssignment(
        k,
        ((0, 0), (0, 0), (0, 3), (0, 1), (0, 0), (0, 3), (0, 3), (0, 3)),
    )
    g = model.derived_graph()
    val, wit = gamma_wkL(model, L)
    orc = exact_weight_variant(g, "weak_kL", k, assignment=L)
    assert val == orc.value == 3
    ok, _ = is_weak_kL(g, wit, L)
    assert ok and weight_cost(wit) == 3


def test_gamma_wkL_zero_labels():
    m = random_tree_model(5, 2)
    L = KAssignment(2, tuple((0, 0) for _ in range(5)))
    val, wit = gamma_wkL(m, L)
    assert val == 0 and weight_cost(wit) == 0


def test_gamma_wkL_rejects_assignment_of_wrong_length():
    m = RootedTreeModel((-1, 0, 0))
    for n in (2, 4):
        with pytest.raises(ValueError):
            gamma_wkL(m, KAssignment.uniform(2, n))


def test_gamma_wkL_matches_oracle_randomized():
    """Single-root trees, then forests whose parents are drawn from -1 and
    the earlier vertices, with a positive floor on every root."""
    for seed in range(240):
        rng = random.Random(seed)
        n = rng.randint(1, 8)
        if seed < 120:
            m = random_tree_model(n, seed)
        else:
            m = RootedTreeModel([rng.randrange(-1, v) for v in range(n)])
        g = m.derived_graph()
        k = rng.randint(1, 3)
        pairs = [(rng.randint(0, k), rng.randint(0, k)) for _ in range(n)]
        if seed >= 120:
            for r in m.roots:
                pairs[r] = (rng.randint(1, k), pairs[r][1])
        L = KAssignment(k, tuple(pairs))
        val, wit = gamma_wkL(m, L)
        orc = exact_weight_variant(g, "weak_kL", k, assignment=L)
        assert val == orc.value, (m.parents, L.pairs)
        ok, _ = is_weak_kL(g, wit, L)
        assert ok and weight_cost(wit) == val


def test_forest_additivity():
    m = RootedTreeModel((-1, 0, -1, 2, 2))
    k = 2
    L = KAssignment(k, tuple((0, k) for _ in range(5)))
    val, wit = gamma_wkL(m, L)
    a, _ = gamma_wkL(RootedTreeModel((-1, 0)), KAssignment(k, ((0, k),) * 2))
    b, _ = gamma_wkL(RootedTreeModel((-1, 0, 0)), KAssignment(k, ((0, k),) * 3))
    assert val == a + b


def test_gamma_wk_examples(k1, star4):
    m = build_tree_model(star4)
    val, wit = gamma_wk_tp(m, 2)
    assert val == exact_weight_variant(star4, "weak_k", 2).value == 2
    m1 = build_tree_model(k1)
    assert gamma_wk_tp(m1, 3)[0] == exact_weight_variant(k1, "weak_k", 3).value == 1


def test_gamma_rk_matches_rainbow_oracle():
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randint(1, 8)
        m = random_tree_model(n, 77 + seed)
        g = m.derived_graph()
        for k in (1, 2, 3):
            assert gamma_wk_tp(m, k)[0] == exact_rainbow(g, k, cap=24).value


def test_jk_level_rule_examples():
    # j=k puts k on the root only
    m = random_tree_model(6, 4)
    v, w = jk_domination_tp(m, 2, 2)
    assert w.weights[m.roots[0]] == 2
    assert v == 2
    # star, j=1, k=2: every vertex carries one
    star = RootedTreeModel((-1, 0, 0, 0))
    v, w = jk_domination_tp(star, 1, 2)
    assert v == 4 and set(w.weights) == {1}
    g = star.derived_graph()
    assert v == exact_weight_variant(g, "jk_dom", 2, j=1).value


def test_jk_deep_path_remainder():
    chain = RootedTreeModel((-1, 0, 1, 2, 3))
    v, w = jk_domination_tp(chain, 2, 5)
    # two full levels of 2 and a remainder of 1
    assert w.weights[:3] == (2, 2, 1) and v == 5
    ok, _ = is_jk_dom(chain.derived_graph(), w, 2)
    assert ok


def test_jk_infeasible_shallow():
    star = RootedTreeModel((-1, 0, 0))
    with pytest.raises(InfeasibleInstance):
        jk_domination_tp(star, 1, 3)


def test_jk_matches_oracle_randomized():
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randint(1, 8)
        m = random_tree_model(n, 300 + seed)
        g = m.derived_graph()
        for k in (1, 2, 3):
            for j in range(1, k + 1):
                try:
                    v, w = jk_domination_tp(m, j, k)
                    ok, _ = is_jk_dom(g, w, j)
                    assert ok and weight_cost(w) == v
                except InfeasibleInstance:
                    v = None
                try:
                    expect = exact_weight_variant(g, "jk_dom", k, j=j).value
                except InfeasibleInstance:
                    expect = None
                assert v == expect


def test_large_model_fast():
    m = random_tree_model(100_000, 7)
    t0 = time.time()
    val, wit = gamma_wk_tp(m, 8)
    assert time.time() - t0 < 3.0
    g_ok = weight_cost(wit) == val
    assert g_ok and val >= 1
