import itertools
import random

import pytest

from rainbowdom.graph import Graph
from rainbowdom.semantics import is_rainbow, is_weak_k, rainbow_cost, weight_cost
from rainbowdom.oracle import exact_rainbow, exact_weight_variant
from rainbowdom.permutation import (
    _closed_masks,
    diagram_to_graph,
    parse_permutation,
    rainbow2_permutation,
    render_permutation,
    weak2_permutation,
)
from rainbowdom.sweep import undominated


def test_parse_render_roundtrip():
    pi = parse_permutation("2 1 4 3")
    assert pi == (1, 0, 3, 2)
    assert render_permutation(pi).strip() == "2 1 4 3"


def test_closed_masks_are_the_closed_neighbourhoods():
    for seed in range(300):
        rng = random.Random(seed)
        pi = list(range(rng.randint(0, 30)))
        rng.shuffle(pi)
        g = diagram_to_graph(tuple(pi))
        assert _closed_masks(pi) == [
            sum(1 << u for u in g.neighbors(v) | {v}) for v in range(g.n)
        ]


def test_parse_rejects_non_bijection():
    with pytest.raises(ValueError):
        parse_permutation("1 1 3")


def test_diagram_identity_is_edgeless():
    assert diagram_to_graph((0, 1, 2)).m == 0


def test_diagram_reversal_is_complete():
    g = diagram_to_graph((3, 2, 1, 0))
    assert g.m == 6


def test_diagram_two_swaps():
    g = diagram_to_graph((1, 0, 3, 2))
    assert g.edges == frozenset({(0, 1), (2, 3)})


def test_examples():
    assert rainbow2_permutation((3, 2, 1, 0))[0] == 2  # complete graph
    assert rainbow2_permutation((0, 1, 2))[0] == 3  # three isolated vertices
    assert rainbow2_permutation((1, 0))[0] == 2


def test_exhaustive_small_against_oracle():
    for n in range(1, 6):
        for pi in itertools.permutations(range(n)):
            g = diagram_to_graph(pi)
            v, w = rainbow2_permutation(pi)
            assert v == exact_rainbow(g, 2, cap=24).value, pi
            ok, _ = is_rainbow(g, w)
            assert ok and rainbow_cost(w) == v
            wv, ww = weak2_permutation(pi)
            assert wv == exact_weight_variant(g, "weak_k", 2).value, pi
            ok, _ = is_weak_k(g, ww)
            assert ok and weight_cost(ww) == wv


def test_random_n6_n7_against_oracle():
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.choice((6, 7))
        pi = list(range(n))
        rng.shuffle(pi)
        pi = tuple(pi)
        g = diagram_to_graph(pi)
        assert rainbow2_permutation(pi)[0] == exact_rainbow(g, 2, cap=24).value
        assert (
            weak2_permutation(pi)[0]
            == exact_weight_variant(g, "weak_k", 2).value
        )


def test_reversal_invariance():
    for seed in range(30):
        rng = random.Random(seed)
        n = rng.randint(1, 7)
        pi = list(range(n))
        rng.shuffle(pi)
        v1 = rainbow2_permutation(tuple(pi))[0]
        mirrored = tuple(reversed([n - 1 - x for x in pi]))
        assert rainbow2_permutation(mirrored)[0] == v1


def test_weak_never_exceeds_rainbow():
    for seed in range(30):
        rng = random.Random(100 + seed)
        n = rng.randint(1, 7)
        pi = list(range(n))
        rng.shuffle(pi)
        assert weak2_permutation(tuple(pi))[0] <= rainbow2_permutation(tuple(pi))[0]


def test_weak_and_rainbow_can_differ_on_this_class():
    """Witness that the two parameters are not equal on permutation graphs:
    gap of one on six vertices, confirmed by both oracles."""
    pi = (3, 1, 5, 0, 4, 2)
    g = diagram_to_graph(pi)
    assert weak2_permutation(pi)[0] == 3
    assert rainbow2_permutation(pi)[0] == 4
    assert exact_weight_variant(g, "weak_k", 2).value == 3
    assert exact_rainbow(g, 2).value == 4


def _naive_pareto(layer):
    """The keys no other key beats: cost no higher and every reach as far."""
    def flat(key):
        return tuple(r for state in key for r in state)

    return {
        key for key, (cost, *_rest) in layer.items()
        if not any(other != key and layer[other][0] <= cost
                   and all(a >= b for a, b in zip(flat(other), flat(key)))
                   for other in layer)
    }


@pytest.mark.parametrize("n", [1, 5, 6, 9, 14, 30])
def test_undominated_matches_naive_pareto_filter(n):
    # n = 6, 14, 30: the reach n + 1 of no waiter fills its field
    absent = n + 1
    for seed in range(40):
        rng = random.Random(1000 * n + seed)
        # few distinct reaches and costs, so that dominance and cost ties are common
        reaches = sorted({0, absent, *rng.sample(range(absent + 1), min(3, absent + 1))})
        layer = {}
        for _ in range(rng.randint(1, 60)):
            key = tuple(tuple(rng.choice(reaches) for _ in range(5)) for _ in range(2))
            layer[key] = (rng.randint(0, 3), None, 0)
        kept = undominated(layer, absent)
        assert set(kept) == _naive_pareto(layer), (n, seed)
        assert all(kept[key] is layer[key] for key in kept)


def test_moderate_instance_quick():
    import time

    rng = random.Random(6)
    pi = list(range(30))
    rng.shuffle(pi)
    t0 = time.time()
    v, w = rainbow2_permutation(tuple(pi))
    assert time.time() - t0 < 120
    g = diagram_to_graph(tuple(pi))
    ok, _ = is_rainbow(g, w)
    assert ok and rainbow_cost(w) == v
