import pytest

from rainbowdom.graph import parse_graph, render_graph
from rainbowdom.cograph import cotree_to_graph
from rainbowdom.generators import generate
from rainbowdom.oracle import exact_rainbow, exact_weight_variant

from reference import check_spider, graph_join, graph_union


def test_cycle():
    g, _ = generate("cycle", 6)
    assert g.n == 6 and g.m == 6


def test_path_and_complete():
    assert generate("path", 5)[0].m == 4
    assert generate("complete", 4)[0].m == 6


def test_complete_bipartite():
    g, model = generate("complete_bipartite", 2, 3)
    assert g.m == 6
    assert len(model.side1) == 2 and len(model.side2) == 3


def test_thin_spider_matches_definition():
    g, model = generate("thin_spider", 3, 0)
    assert g.n == 6
    assert check_spider(g, model.spider[model.root])
    # perfect matching between feet and body, body a triangle
    assert sum(1 for u, v in g.edges if u < 3 and v >= 3) == 3


def test_thick_spider_matches_definition():
    g, model = generate("thick_spider", 4, 2)
    assert check_spider(g, model.spider[model.root])
    assert model.to_text() == "(S thick (0 1 2 3) (4 5 6 7) (U 8 9))"


def test_spider_parameter_validation():
    with pytest.raises(ValueError):
        generate("thin_spider", 1, 0)
    with pytest.raises(ValueError):
        generate("cycle", 2)
    with pytest.raises(ValueError):
        generate("complete_bipartite", 0, 2)
    for family, params in (("path", (2.5,)), ("random", (5, 1.7)), ("cycle", (3, 4)),
                           ("thin_spider", ()), ("union", (1, 2))):
        with pytest.raises(ValueError):
            generate(family, *params)


def test_random_deterministic():
    a, _ = generate("random", 8, 0.5, seed=11)
    b, _ = generate("random", 8, 0.5, seed=11)
    c, _ = generate("random", 8, 0.5, seed=12)
    assert a == b
    assert a != c or a.m == c.m  # different seeds usually differ


def test_random_splitgraph_partition_valid():
    g, part = generate("random_splitgraph", 3, 4, 0.5, seed=42)
    for u in part.C:
        for v in part.C:
            if u < v:
                assert g.has_edge(u, v)
    for u in part.I:
        for v in part.I:
            if u < v:
                assert not g.has_edge(u, v)


def test_rainbow_gap_values():
    g, tree = generate("rainbow_gap")
    assert g.n == 12
    assert cotree_to_graph(tree) == g
    assert exact_weight_variant(g, "weak_k", 3).value == 4
    assert exact_rainbow(g, 3, cap=40).value == 6


def test_union_join_programmatic():
    p3, _ = generate("path", 3)
    u, j = graph_union(p3, p3), graph_join(p3, p3)
    assert u.n == j.n == 6
    assert j.m == u.m + 9


def test_roundtrip_through_files():
    for family, params in (("cycle", (5,)), ("thin_spider", (3, 1))):
        g, _ = generate(family, *params)
        assert parse_graph(render_graph(g)) == g
