import itertools
import random
import time

import pytest

from rainbowdom.graph import Graph
from rainbowdom.semantics import is_rainbow, rainbow_cost
from rainbowdom.oracle import exact_rainbow
from rainbowdom.cograph import (
    Cotree,
    CotreeParseError,
    cotree_to_graph,
    parse_cotree,
    rainbow_cograph,
    recognize_cograph,
)
from rainbowdom.p4sparse import (
    P4SparseRefusal,
    count_induced_p4s,
    recognize_p4sparse,
)
from rainbowdom.generators import generate
from rainbowdom.harness import enumerate_p4sparse_trees

from reference import check_spider, complement, is_p4_sparse_bruteforce


def test_parse_and_render():
    text = "(U (S thin (0 1) (2 3)) (J 4 5))"
    t = parse_cotree(text)
    assert t.to_text() == text
    assert t.n == 6


def test_parse_spider_with_head():
    t = parse_cotree("(S thick (0 1 2) (3 4 5) (U 6 7))")
    g = cotree_to_graph(t)
    assert g.n == 8
    sp = t.spider[t.root]
    assert sp.head == (6, 7)
    assert check_spider(g, sp)


@pytest.mark.parametrize(
    "text", ["(S thin (0) (1))", "(S wide (0 1) (2 3))", "(U 0)", "(S thin (0 1) (2 3) 3)"]
)
def test_parse_errors(text):
    with pytest.raises(CotreeParseError):
        parse_cotree(text)


def test_generated_spiders_pass_predicate():
    for kind in ("thin", "thick"):
        for s in (2, 3, 4):
            for head in (0, 2):
                g, model = generate(f"{kind}_spider", s, head)
                assert check_spider(g, model.spider[model.root])


def test_thick_is_complement_of_thin():
    # with an edgeless head the complement of a thin spider is a thick
    # spider whose head induces a clique; compare bodies only (head empty)
    for s in (3, 4):
        gthin, _ = generate("thin_spider", s, 0)
        gthick, _ = generate("thick_spider", s, 0)
        comp = complement(gthin)
        # complement swaps feet and body: relabel and compare
        mapping = list(range(s, 2 * s)) + list(range(0, s))
        edges = {
            (min(mapping[u], mapping[v]), max(mapping[u], mapping[v]))
            for u, v in comp.edges
        }
        assert edges == set(gthick.edges)


def test_recognize_cograph_has_no_spiders(p3):
    t = recognize_p4sparse(p3)
    assert isinstance(t, Cotree)
    assert "S" not in t.kind


def test_recognize_p4_is_thin_spider(p4):
    t = recognize_p4sparse(p4)
    assert t.kind[t.root] == "S"
    assert t.spider[t.root].kind == "thin"


def test_recognize_spider_with_head():
    g, _ = generate("thin_spider", 3, 1)
    t = recognize_p4sparse(g)
    assert t.kind[t.root] == "S"
    assert len(t.spider[t.root].head) == 1
    assert cotree_to_graph(t) == g


def test_c5_refusal():
    c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    ref = recognize_p4sparse(c5)
    assert isinstance(ref, P4SparseRefusal)
    assert count_induced_p4s(c5, ref.witness) >= 2


def test_recognizer_matches_bruteforce_on_small_graphs():
    checked = 0
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
            expected = is_p4_sparse_bruteforce(g)
            got = recognize_p4sparse(g)
            assert isinstance(got, Cotree) == expected
            if expected:
                assert cotree_to_graph(got) == g
            checked += 1
    assert checked == 1 + 2 + 8 + 64 + 1024


def test_recognizer_matches_bruteforce_seeded_6_7():
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.choice((6, 7))
        g = Graph(
            n,
            [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.5
            ],
        )
        assert isinstance(recognize_p4sparse(g), Cotree) == \
            is_p4_sparse_bruteforce(g)


def _spider_value(text: str, k: int) -> int:
    t = parse_cotree(text)
    v, w = rainbow_cograph(t, k)
    assert is_rainbow(cotree_to_graph(t), w)[0] and rainbow_cost(w) == v
    return v


def test_thin_formula_examples():
    # |S| - 1 + k, capped by the vertex count
    assert _spider_value("(S thin (0 1 2) (3 4 5))", 2) == 4
    assert _spider_value("(S thin (0 1) (2 3))", 1) == 2
    big_head = "(U 4 (U 5 (U 6 (U 7 (U 8 (U 9 (U 10 (U 11 (U 12 13)))))))))"
    assert _spider_value(f"(S thin (0 1) (2 3) {big_head})", 3) == 4


def test_thick_formula_examples():
    # k + 1, capped by the vertex count
    assert _spider_value("(S thick (0 1 2) (3 4 5))", 1) == 2
    assert _spider_value("(S thick (0 1 2) (3 4 5))", 2) == 3
    assert _spider_value("(S thick (0 1 2 3) (4 5 6 7) (U 8 9))", 3) == 4


def test_formulas_against_oracle_small_grid():
    for s in (2, 3):
        for head in (0, 1):
            for kind in ("thin", "thick"):
                if kind == "thick" and s < 3:
                    continue
                g, _ = generate(f"{kind}_spider", s, head)
                tree = recognize_p4sparse(g)
                assert "S" in tree.kind
                for k in (1, 2):
                    v, w = rainbow_cograph(tree, k)
                    assert v == exact_rainbow(g, k, cap=24).value
                    assert is_rainbow(g, w)[0] and rainbow_cost(w) == v


def test_tree_dp_against_oracle_small():
    for tree, g in enumerate_p4sparse_trees(6):
        for k in (1, 2):
            v, w = rainbow_cograph(tree, k)
            assert v == exact_rainbow(g, k, cap=24).value, tree.to_text()
            ok, _ = is_rainbow(g, w)
            assert ok and rainbow_cost(w) == v


def test_spider_witness_shape():
    t = parse_cotree("(S thin (0 1 2) (3 4 5))")
    v, w = rainbow_cograph(t, 2)
    assert v == 4
    g = cotree_to_graph(t)
    ok, _ = is_rainbow(g, w)
    assert ok
    # one body vertex carries both colors, the other feet carry singletons
    sizes = sorted(len(lab) for lab in w.labels)
    assert sizes == [0, 0, 0, 1, 1, 2]


def test_union_of_two_thin_spiders_additive():
    t = parse_cotree(
        "(U (S thin (0 1) (2 3)) (S thin (4 5) (6 7)))"
    )
    g = cotree_to_graph(t)
    v, w = rainbow_cograph(t, 1)
    assert v == 4 == exact_rainbow(g, 1, cap=24).value


def _genuine_refusal(g: Graph, ref) -> bool:
    return (isinstance(ref, P4SparseRefusal) and len(set(ref.witness)) == 5
            and count_induced_p4s(g, ref.witness) >= 2)


def test_single_edge_flips_of_spiders_match_bruteforce():
    # past the exhaustive sizes: every graph one edge away from a spider
    # (up to 10 vertices) is accepted exactly when it is P4-sparse
    rng = random.Random(25)
    grid = [("thin", s, h) for s in (2, 3, 4) for h in (0, 1, 2)]
    grid += [("thick", s, h) for s in (3, 4) for h in (0, 1, 2)]
    accepted = refused = 0
    for kind, s, head in grid:
        g, _ = generate(f"{kind}_spider", s, head)
        label = list(range(g.n))
        rng.shuffle(label)
        edges = {tuple(sorted((label[u], label[v]))) for u, v in g.edges}
        for pair in itertools.combinations(range(g.n), 2):
            flipped = Graph(g.n, edges ^ {pair})
            got = recognize_p4sparse(flipped)
            if is_p4_sparse_bruteforce(flipped):
                assert isinstance(got, Cotree) and cotree_to_graph(got) == flipped
                accepted += 1
            else:
                assert _genuine_refusal(flipped, got), (kind, s, head, pair)
                refused += 1
    assert accepted and refused


def clique_with_tail(n: int) -> Graph:
    """A clique on 0..a with the path a, a+1, .., a+4 hung from a (n = a + 5):
    connected, co-connected and no spider, so both recognizers refuse the
    whole vertex set."""
    a = n - 5
    path = [(a + i, a + i + 1) for i in range(4)]
    return Graph(n, list(itertools.combinations(range(a + 1), 2)) + path)


def test_refusals_on_a_large_prime_graph_are_quick():
    g = clique_with_tail(300)
    start = time.perf_counter()
    cograph_ref = recognize_cograph(g)
    p4sparse_ref = recognize_p4sparse(g)
    assert time.perf_counter() - start < 5
    a, b, c, d = cograph_ref.p4
    assert g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(c, d)
    assert not (g.has_edge(a, c) or g.has_edge(b, d) or g.has_edge(a, d))
    assert _genuine_refusal(g, p4sparse_ref)
