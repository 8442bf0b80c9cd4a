import random
import time

import pytest

from rainbowdom.graph import Graph
from rainbowdom.semantics import (
    check_witness,
    is_k_dom,
    is_rainbow,
    is_weak_k,
    rainbow_cost,
    weight_cost,
)
from rainbowdom.oracle import exact_rainbow, exact_weight_variant
from rainbowdom.generators import generate
from rainbowdom.p4sparse import recognize_p4sparse
from rainbowdom.cograph import (
    _join,
    Cotree,
    CographRefusal,
    CotreeParseError,
    cotree_to_graph,
    find_induced_p4,
    kdom_cograph,
    parse_cotree,
    rainbow_cograph,
    random_cotree,
    recognize_cograph,
    weak_cograph,
)


def test_parse_simple():
    t = parse_cotree("(U 0 1)")
    assert t.n == 2 and t.kind[t.root] == "U"
    t = parse_cotree("(J 0 (J 1 2))")
    assert cotree_to_graph(t).m == 3  # K3


@pytest.mark.parametrize(
    "text",
    ["(U 0 0)", "(U 0 1 2)", "(U 0)", "(X 0 1)", "(U 0 2)", "(U 0 1", "0 1"],
)
def test_parse_errors(text):
    with pytest.raises(CotreeParseError):
        parse_cotree(text)


def test_to_text_roundtrip():
    t = parse_cotree("(J (U 0 1) 2)")
    assert parse_cotree(t.to_text()).to_text() == t.to_text()


def test_cotree_to_graph_basic():
    assert cotree_to_graph(parse_cotree("(J 0 1)")).m == 1
    assert cotree_to_graph(parse_cotree("(U 0 1)")).m == 0


def test_recognize_p3(p3):
    t = recognize_cograph(p3)
    assert isinstance(t, Cotree)
    assert cotree_to_graph(t) == p3


def test_recognize_p4_refusal(p4):
    ref = recognize_cograph(p4)
    assert isinstance(ref, CographRefusal)
    a, b, c, d = ref.p4
    assert p4.has_edge(a, b) and p4.has_edge(b, c) and p4.has_edge(c, d)
    assert not p4.has_edge(a, c) and not p4.has_edge(a, d) and not p4.has_edge(b, d)


def test_recognize_c6_refusal(c6):
    assert isinstance(recognize_cograph(c6), CographRefusal)
    assert find_induced_p4(c6) is not None


def test_gap_graph_values(gap12):
    t = recognize_cograph(gap12)
    assert cotree_to_graph(t) == gap12
    assert rainbow_cograph(t, 3)[0] == 6
    assert weak_cograph(t, 3)[0] == 4


def test_single_leaf_any_k():
    t = parse_cotree("0")
    for k in (1, 2, 5):
        assert rainbow_cograph(t, k)[0] == 1


def test_two_isolated_vertices():
    t = parse_cotree("(U 0 1)")
    assert rainbow_cograph(t, 2)[0] == 2
    assert weak_cograph(t, 2)[0] == 2
    assert kdom_cograph(t, 2)[0] == 4


def test_kdom_examples(k2):
    assert kdom_cograph(parse_cotree("0"), 3)[0] == 3  # lone vertex needs k
    t = parse_cotree("(J 0 1)")
    assert kdom_cograph(t, 2)[0] == exact_weight_variant(k2, "k_dom", 2).value


def test_join_minus_table_at_most_2k():
    # direct assertion on the tables via a random tree
    from rainbowdom.cograph import INF

    t = random_cotree(12, 3)
    k = 2
    rm = [INF] * len(t.kind)
    for v in range(len(t.kind)):
        if t.kind[v] == "L":
            continue
        a, b = t.left[v], t.right[v]
        if t.kind[v] == "U":
            rm[v] = min(rm[a] + t.size[b], rm[b] + t.size[a], rm[a] + rm[b])
        else:
            rm[v] = min(
                max(t.size[a], k), max(t.size[b], k), rm[a], rm[b], 2 * k
            )
            assert rm[v] <= 2 * k


def test_certified_against_oracle_small():
    for seed in range(120):
        rng = random.Random(seed)
        t = random_cotree(rng.randint(1, 7), seed)
        g = cotree_to_graph(t)
        for k in (1, 2, 3):
            rv, rw = rainbow_cograph(t, k)
            assert rv == exact_rainbow(g, k, cap=24).value
            ok, _ = is_rainbow(g, rw)
            assert ok and rainbow_cost(rw) == rv
            wv, ww = weak_cograph(t, k)
            assert wv == exact_weight_variant(g, "weak_k", k).value
            ok, _ = is_weak_k(g, ww)
            assert ok and weight_cost(ww) == wv
            kv, kw = kdom_cograph(t, k)
            assert kv == exact_weight_variant(g, "k_dom", k).value
            ok, _ = is_k_dom(g, kw)
            assert ok and weight_cost(kw) == kv
            assert wv <= rv


def test_weak_join_of_edgeless_sides():
    # both sides need their own weight for the other side's zero vertices
    t = parse_cotree("(J (U (U 0 1) (U 2 3)) (U (U 4 5) (U 6 7)))")
    g = cotree_to_graph(t)
    for k in (1, 2, 3):
        assert weak_cograph(t, k)[0] == exact_weight_variant(g, "weak_k", k).value


def _reference_join(ta, tb, k, size_a, size_b):
    """Every q's cheapest feasible (c1, c2), by trying every pair of totals
    up to 2k (weight k on one vertex of each side always works), with the
    first c2 that reaches the minimum."""
    table, picks = [], []
    for q in range(k + 1):
        best = None
        for c2 in range(min(2 * k, k * size_b) + 1):
            for c1 in range(min(2 * k, k * size_a) + 1):
                if (ta[min(k, q + c2)] <= c1 and tb[min(k, q + c1)] <= c2
                        and (best is None or c1 + c2 < best[0])):
                    best = (c1 + c2, c2)
        table.append(best[0])
        picks.append(best[1])
    return table, picks


def _random_table(rng, k, size):
    """A non-increasing table ending in 0, at most k per vertex."""
    return sorted((rng.randint(0, k * size) for _ in range(k)), reverse=True) + [0]


def test_join_matches_reference_on_random_tables():
    rng = random.Random(17)
    for _ in range(300):
        k, size_a, size_b = rng.randint(1, 12), rng.randint(1, 4), rng.randint(1, 4)
        ta, tb = _random_table(rng, k, size_a), _random_table(rng, k, size_b)
        assert _join(ta, tb, k, min(2 * k, k * size_b)) == _reference_join(
            ta, tb, k, size_a, size_b), (k, ta, tb)


@pytest.mark.parametrize("leaf", ["weak", "kdom"])
def test_join_matches_reference_on_random_cotrees(leaf):
    rng = random.Random(23)
    for _ in range(30):
        t, k = random_cotree(rng.randint(2, 16), rng.randrange(10**6)), rng.randint(1, 12)
        tables = [[1] * k + [0] if leaf == "weak" else list(range(k, -1, -1))] * len(t.kind)
        for v, kv in enumerate(t.kind):
            if kv == "L":
                continue
            a, b = t.left[v], t.right[v]
            if kv == "U":
                tables[v] = [x + y for x, y in zip(tables[a], tables[b])]
                continue
            want = _reference_join(tables[a], tables[b], k, t.size[a], t.size[b])
            assert _join(tables[a], tables[b], k, min(2 * k, k * t.size[b])) == want
            tables[v] = want[0]
        solver = weak_cograph if leaf == "weak" else kdom_cograph
        assert solver(t, k, want_witness=False)[0] == tables[t.root][0]


def test_large_tree_fast():
    t = random_cotree(100_000, 42)
    t0 = time.time()
    v, w = rainbow_cograph(t, 8)
    assert time.time() - t0 < 2.0
    assert isinstance(v, int) and len(w.labels) == 100_000


@pytest.mark.parametrize("solver", [weak_cograph, kdom_cograph])
def test_weight_dps_refuse_spider_nodes(solver):
    t = parse_cotree("(J (S thin (0 1) (2 3)) 4)")
    assert "S" in t.kind
    with pytest.raises(ValueError):
        solver(t, 2)
    with pytest.raises(ValueError):
        solver(t, 2, want_witness=False)



@pytest.mark.parametrize("arrays", [
    # (kind, left, right, leaf_vertex, root)
    (["U", "L", "L"], [1, -1, -1], [2, -1, -1], [-1, 0, 1], 2),  # child above parent
    (["L", "L", "U"], [-1, -1, 0], [-1, -1, 1], [0, 1, -1], 1),  # root not last
    (["L", "L", "L", "U"], [-1, -1, -1, 0], [-1, -1, -1, 1], [0, 1, 2, -1], 3),  # orphan
    (["L", "L", "U", "U"], [-1, -1, 0, 2], [-1, -1, 1, 1], [0, 1, -1, -1], 3),  # two parents
    ([], [], [], [], -1),
])
def test_constructor_enforces_bottom_up_ids(arrays):
    with pytest.raises(ValueError):
        Cotree(*arrays)


def test_array_built_deep_caterpillar():
    # 5,000 nesting levels, built straight from arrays: leaf, then its
    # parent, as perfbench/make_expected.py builds its deep cotrees
    rng = random.Random(5)
    depth = 5000
    labels = list(range(depth + 1))
    rng.shuffle(labels)
    join_at = set(rng.sample(range(depth), 4))
    kind, left, right, leaf = ["L"], [-1], [-1], [labels[0]]
    acc = 0
    for i, v in enumerate(labels[1:]):
        kind += ["L", "J" if i in join_at else "U"]
        left += [-1, acc]
        right += [-1, acc + 1]
        leaf += [v, -1]
        acc += 2
    t = Cotree(kind, left, right, leaf, acc)
    assert t.n == depth + 1
    g = cotree_to_graph(t)
    shallow = recognize_cograph(g)
    for problem, solver in (("rainbow", rainbow_cograph), ("weak", weak_cograph)):
        value, witness = solver(t, 2)
        assert check_witness(problem, g, value, witness) is None
        assert value == solver(shallow, 2, want_witness=False)[0]


def test_outputs_pinned(gap12, c6):
    # exact witnesses and trees, not only valid ones: a change to the
    # branch tie rule or to the split order shows here first
    def nonempty(t, k):
        value, witness = rainbow_cograph(t, k)
        return value, {v: sorted(lab) for v, lab in enumerate(witness.labels) if lab}

    gap_tree = generate("rainbow_gap")[1]
    assert nonempty(gap_tree, 3) == (6, {0: [2], 1: [1], 2: [3], 3: [2], 4: [1], 5: [3]})
    gap_rec = recognize_cograph(gap12)
    assert gap_rec.to_text() == (
        "(J (U (J (U 0 2) 1) (J (U 3 5) 4)) (U (J (U 6 8) 7) (J (U 9 11) 10)))")
    assert nonempty(gap_rec, 3) == (6, {0: [1], 1: [3], 2: [2], 3: [1], 4: [3], 5: [2]})
    thick = parse_cotree("(S thick (0 1 2) (3 4 5) (U 6 7))")
    assert nonempty(thick, 2) == (3, {0: [1], 3: [1, 2]})
    thin = parse_cotree("(S thin (0 1 2) (3 4 5) 6)")
    assert nonempty(thin, 3) == (5, {1: [1], 2: [1], 3: [1, 2, 3]})
    assert nonempty(random_cotree(40, 7), 3) == (3, {4: [1, 2, 3]})
    spider = recognize_p4sparse(generate("thick_spider", 4, 2)[0])
    assert spider.to_text() == "(S thick (0 1 2 3) (4 5 6 7) (U 8 9))"
    assert recognize_cograph(c6).p4 == (5, 0, 1, 2)
