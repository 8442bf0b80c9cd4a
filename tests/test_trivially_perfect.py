import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from itertools import combinations

import pytest

from rainbowdom.graph import Graph
from rainbowdom.semantics import (
    KAssignment,
    check_witness,
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
    gamma_rk_tp,
    gamma_wkL,
    gamma_wk_tp,
    jk_domination_tp,
    parse_assignment,
    parse_tree_model,
    random_tree_model,
    render_tree_model,
)
from rainbowdom.cograph import rainbow_cograph, recognize_cograph
from rainbowdom.harness import enumerate_cographs, enumerate_rooted_forests
from reference import render_assignment


def test_model_roundtrip():
    m = RootedTreeModel((-1, 0, 0, 1))
    assert parse_tree_model(render_tree_model(m)).parents == m.parents


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


def test_recognizer_follows_the_cotree_rule_on_every_small_cograph():
    # a cograph is trivially perfect exactly when no join node has a
    # non-edge on both of its sides, one from each side making a C4; a side
    # has no non-edge when all its internal nodes are joins
    accepted = refused = 0
    for tree, g in enumerate_cographs(8):
        clique = [False] * len(tree.kind)
        c4_join = False
        for v, kind in enumerate(tree.kind):  # ids are bottom-up
            if kind == "L":
                clique[v] = True
            elif kind == "J":
                a, b = clique[tree.left[v]], clique[tree.right[v]]
                clique[v] = a and b
                c4_join = c4_join or not (a or b)
        m = build_tree_model(g)
        if isinstance(m, RootedTreeModel):
            assert not c4_join
            assert m.derived_graph() == g
            accepted += 1
        else:
            assert c4_join and m.kind == "C4"
            quad = set(m.vertices)
            assert len(quad) == 4
            assert all(len(g.neighbors(v) & quad) == 2 for v in quad)
            refused += 1
    assert (accepted, refused) == (485, 324)


def test_recognizer_on_every_graph_with_at_most_six_vertices():
    # trivially perfect means no four vertices induce a P4 or a C4; within
    # four vertices those two are the degree sequences below
    def induces(g, quad):
        degrees = sorted(len(g.neighbors(v) & set(quad)) for v in quad)
        return {(1, 1, 2, 2): "P4", (2, 2, 2, 2): "C4"}.get(tuple(degrees))

    accepted = refused = 0
    for n in range(7):
        pairs = list(combinations(range(n), 2))
        quads = list(combinations(range(n), 4))
        for mask in range(1 << len(pairs)):
            g = Graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
            m = build_tree_model(g)
            if isinstance(m, RootedTreeModel):
                assert not any(induces(g, q) for q in quads)
                assert m.derived_graph() == g
                accepted += 1
            else:
                assert m.vertices == tuple(sorted(m.vertices))
                assert induces(g, m.vertices) == m.kind
                refused += 1
    assert (accepted, refused) == (4607, 29261)


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


def test_forest_dp_outputs_pinned():
    """Values and weights of the forest DP, recorded before the DP stored
    its per-help picks: ties and padding must land where they did."""
    k = 3
    two_branch = RootedTreeModel((-1, 0, 1, 1, 0, 4, 4, 4))
    L = KAssignment(
        k, ((0, 0), (0, 0), (0, 3), (0, 1), (0, 0), (0, 3), (0, 3), (0, 3))
    )
    val, wit = gamma_wkL(two_branch, L)
    assert (val, wit.weights) == (3, (3, 0, 0, 0, 0, 0, 0, 0))

    rng = random.Random(5)
    L = KAssignment(k, tuple((rng.randint(0, k), rng.randint(0, k)) for _ in range(30)))
    val, wit = gamma_wkL(random_tree_model(30, 5), L)
    assert (val, wit.weights) == (40, (
        2, 0, 1, 1, 2, 1, 0, 0, 3, 1, 1, 1, 1, 0, 1,
        1, 2, 1, 1, 3, 0, 3, 1, 0, 2, 2, 2, 2, 2, 3,
    ))

    three_roots = RootedTreeModel((-1, 0, 0, -1, 3, 4, -1, 6, 6, 7))
    L = KAssignment(k, ((0, 3), (0, 1), (0, 3), (0, 2), (0, 0),
                        (0, 3), (0, 3), (0, 2), (0, 1), (0, 3)))
    val, wit = gamma_wkL(three_roots, L)
    assert (val, wit.weights) == (6, (1, 0, 1, 0, 0, 2, 1, 0, 0, 1))

    val, wit = gamma_wkL(RootedTreeModel((-1, 0, 0, 0)), KAssignment.uniform(2, 4))
    assert (val, wit.weights) == (2, (2, 0, 0, 0))
    val, wit = gamma_wkL(RootedTreeModel((-1, 0, 1, 2, 3, 4)), KAssignment.uniform(4, 6))
    assert (val, wit.weights) == (4, (0, 0, 0, 1, 1, 2))


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


# shapes as parent arrays: a leaf, chains of two and three (equal tables at
# different sizes under the all-(0, k) floors) and a two-leaf star
_SHAPES = ((-1,), (-1, 0), (-1, 0, 1), (-1, 0, 0))


def _repeated_subtrees(rng, k, uniform):
    """A forest of at most 9 vertices made of copies of a few shapes, each
    copy with its shape's floors, so equal subtrees repeat under one parent
    and as separate trees; a copy hangs from vertex 0 or is a root.  With
    random floors, some copies redraw the pair of their top vertex: equal
    children under a different (a, b)."""
    def pair():
        return (0, k) if uniform else (rng.choice((0, 0, rng.randint(0, k))), rng.randint(0, k))

    floors = [[pair() for _ in shape] for shape in _SHAPES]
    parents = [-1]
    pairs = [pair()]
    while True:
        i = rng.randrange(len(_SHAPES))
        if len(parents) + len(_SHAPES[i]) > 9:
            break
        base = len(parents)
        top = 0 if rng.random() < 0.7 else -1
        parents += [top if p == -1 else base + p for p in _SHAPES[i]]
        pairs += [pair()] + floors[i][1:] if rng.random() < 0.3 else floors[i]
    return RootedTreeModel(parents), KAssignment(k, tuple(pairs))


def test_gamma_wkL_matches_oracle_on_repeated_subtrees():
    """The DP shares one table among equal subtrees; values and witnesses
    must stay those of a DP that computes each vertex alone."""
    for seed in range(200):
        rng = random.Random(seed)
        k = rng.randint(1, 3)
        m, L = _repeated_subtrees(rng, k, uniform=seed % 2 == 0)
        g = m.derived_graph()
        val, wit = gamma_wkL(m, L)
        assert val == exact_weight_variant(g, "weak_kL", k, assignment=L).value, (
            m.parents, L.pairs)
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
            assert gamma_rk_tp(m, k)[0] == exact_rainbow(g, k, cap=24).value


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
    val, wit = gamma_wkL(m, KAssignment.uniform(8, m.n))
    assert time.time() - t0 < 3.0
    assert val == 8 and weight_cost(wit) == val
    assert is_weak_k(m, wit)[0]


def _tree_sizes(m):
    """The number of vertices in each tree of the forest."""
    root = list(range(m.n))
    for v in m.order:  # top down: a parent's root is known first
        if m.parents[v] != -1:
            root[v] = root[m.parents[v]]
    return list(Counter(root).values())


def test_gamma_wk_closed_form_on_forests():
    """Each root is adjacent to its whole tree, so weak {k} and k-rainbow
    cost min(k, |T_r|) per tree: k on the root, or 1 on every vertex.  The
    closed forms must agree with the forest DP at uniform floors and with
    the cotree rainbow DP on the recognized cotree.  The forests run to
    10^4 vertices, and the shallow ones hold many equal stars, whose tables
    the DP shares."""
    rng = random.Random(11)
    forests = []
    for n in (1, 7, 60, 900, 10_000):
        forests.append(random_tree_model(n, n))
        forests.append(RootedTreeModel([rng.randrange(-1, v) for v in range(n)]))
    for leaves in (0, 1, 3, 9):  # stars of equal size, then a few odd ones
        parents = []
        for _ in range(10_000 // (leaves + 1)):
            r = len(parents)
            parents += [-1] + [r] * leaves
        for _ in range(20):
            parents.append(rng.randrange(-1, len(parents)))
        forests.append(RootedTreeModel(parents))
    for m in forests:
        sizes = _tree_sizes(m)
        cotree = recognize_cograph(m.derived_graph())
        for k in (1, 2, 3, 8):
            val, wit = gamma_wkL(m, KAssignment.uniform(k, m.n))
            assert val == sum(min(k, size) for size in sizes), (m.n, k)
            assert weight_cost(wit) == val and is_weak_k(m, wit)[0]
            assert rainbow_cograph(cotree, k)[0] == val, (m.n, k)
            for problem, solve in (("weak", gamma_wk_tp), ("rainbow", gamma_rk_tp)):
                value, f = solve(m, k)
                assert value == val and check_witness(problem, m, value, f) is None


def test_closed_forms_match_oracle_on_every_small_forest():
    for m, g in enumerate_rooted_forests(7):
        for k in (1, 2, 3):
            wv, w = gamma_wk_tp(m, k)
            rv, f = gamma_rk_tp(m, k)
            assert wv == exact_weight_variant(g, "weak_k", k).value, (m.parents, k)
            assert rv == exact_rainbow(g, k, cap=g.n * k).value, (m.parents, k)
            assert check_witness("weak", m, wv, w) is None
            assert check_witness("rainbow", m, rv, f) is None


@pytest.mark.parametrize("problem", ["weak", "rainbow"])
def test_closed_forms_at_huge_k_on_a_small_model(tmp_path, problem):
    """Nothing grows with k: a wrapper process solves the three-vertex star
    at k = 10^8 and reports its child's peak RSS.  The child's address-space
    limit makes a regression fail fast instead of filling the host's
    memory."""
    import rainbowdom

    (tmp_path / "star.tree").write_text("0 -1\n1 0\n2 0\n")
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(rainbowdom.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    argv = [sys.executable, "-m", "rainbowdom.cli", "solve", "--problem", problem,
            "--k", str(10**8), "--class", "trivially-perfect",
            "--model", str(tmp_path / "star.tree")]
    code = (
        "import json, resource, subprocess\n"
        "def limit():\n"
        "    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        f"out = subprocess.run({argv!r}, capture_output=True, text=True,\n"
        "                     preexec_fn=limit, timeout=60)\n"
        "peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024\n"
        "print(json.dumps([out.returncode, out.stdout, out.stderr, peak]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rc, out, err, peak_mb = json.loads(proc.stdout)
    assert rc == 0, err
    assert out == "3\n"
    assert peak_mb < 100
