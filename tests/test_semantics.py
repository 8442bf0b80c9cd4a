import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from rainbowdom import semantics
from rainbowdom.graph import Graph
from rainbowdom.semantics import (
    KAssignment,
    RainbowFunction,
    WeightFunction,
    check_witness,
    is_jk_dom,
    is_k_dom,
    is_rainbow,
    is_weak_k,
    is_weak_kL,
    rainbow_cost,
    rainbow_to_weight,
    weight_cost,
)


def rf(k, *labels):
    return RainbowFunction(k, tuple(frozenset(s) for s in labels))


def test_rainbow_cost():
    assert rainbow_cost(rf(2, (), (), ())) == 0
    assert rainbow_cost(rf(2, (1, 2), (), ())) == 2
    assert rainbow_cost(rf(1, (1,), (1,), (1,))) == 3


def test_is_rainbow_c6(c6):
    f = rf(2, (1, 2), (), (), (1, 2), (), ())
    ok, viol = is_rainbow(c6, f)
    assert ok and viol is None


def test_is_rainbow_isolated(k1):
    ok, viol = is_rainbow(k1, rf(2, ()))
    assert not ok and viol == 0


def test_all_nonempty_is_rainbow(c6):
    f = rf(2, *([(1,)] * 6))
    assert is_rainbow(c6, f) == (True, None)


def test_weight_cost():
    assert weight_cost(WeightFunction(2, (0, 0))) == 0
    assert weight_cost(WeightFunction(3, (3,))) == 3
    assert weight_cost(WeightFunction(1, (1, 1, 1))) == 3


def test_is_weak_k_c6_alternating(c6):
    w = WeightFunction(2, (1, 0, 1, 0, 1, 0))
    assert is_weak_k(c6, w) == (True, None)


def test_is_weak_k_isolated(k1):
    assert is_weak_k(k1, WeightFunction(1, (0,))) == (False, 0)
    assert is_weak_k(k1, WeightFunction(1, (1,))) == (True, None)


def test_is_k_dom(k2, k1):
    assert is_k_dom(k2, WeightFunction(2, (2, 0))) == (True, None)
    assert is_k_dom(k1, WeightFunction(2, (1,))) == (False, 0)


def test_is_jk_dom(star4, k1):
    w = WeightFunction(2, (2, 0, 0, 0))
    assert is_jk_dom(star4, w, 2) == (True, None)
    assert is_jk_dom(k1, WeightFunction(2, (1,)), 1) == (False, 0)
    # weights above the cap are violations, not errors
    assert is_jk_dom(star4, WeightFunction(2, (2, 0, 0, 0)), 1) == (False, 0)


def test_is_weak_kL(k2):
    L = KAssignment(2, ((1, 0), (0, 2)))
    assert is_weak_kL(k2, WeightFunction(2, (1, 0)), L) == (False, 1)
    assert is_weak_kL(k2, WeightFunction(2, (2, 0)), L) == (True, None)
    all_zero_L = KAssignment(2, ((0, 0), (0, 0)))
    assert is_weak_kL(k2, WeightFunction(2, (0, 0)), all_zero_L) == (True, None)


@st.composite
def graph_and_rainbow(draw):
    n = draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    g = Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
    k = draw(st.integers(1, 3))
    labels = tuple(
        frozenset(
            c for c in range(1, k + 1) if draw(st.booleans())
        )
        for _ in range(n)
    )
    return g, RainbowFunction(k, labels)


@given(graph_and_rainbow())
def test_rainbow_projects_to_weak(gr):
    g, f = gr
    ok, _ = is_rainbow(g, f)
    if ok:
        w = rainbow_to_weight(f)
        assert is_weak_k(g, w) == (True, None)
    assert weight_cost(rainbow_to_weight(f)) == rainbow_cost(f)


@st.composite
def graph_and_weights(draw):
    n = draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    g = Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
    k = draw(st.integers(1, 3))
    ws = tuple(draw(st.integers(0, k)) for _ in range(n))
    return g, WeightFunction(k, ws)


@given(graph_and_weights())
def test_weak_kL_with_trivial_floors_matches_weak_k(gw):
    g, w = gw
    L = KAssignment(w.k, tuple((0, w.k) for _ in range(g.n)))
    assert is_weak_kL(g, w, L) == is_weak_k(g, w)


def test_k_zero_rejected():
    with pytest.raises(ValueError):
        RainbowFunction(0, ())
    with pytest.raises(ValueError):
        WeightFunction(0, ())
    with pytest.raises(ValueError):
        KAssignment(0, ())


def test_out_of_range_values_rejected():
    with pytest.raises(ValueError):
        RainbowFunction(2, (frozenset({3}),))
    with pytest.raises(ValueError):
        WeightFunction(2, (3,))
    with pytest.raises(ValueError):
        KAssignment(2, ((0, 3),))


def test_check_witness_valid(c6):
    f = rf(2, (1, 2), (), (), (1, 2), (), ())
    assert check_witness("rainbow", c6, 4, f) is None
    w = WeightFunction(2, (1, 1, 0, 1, 1, 0))
    assert check_witness("weak", c6, 4, w) is None
    L = KAssignment(2, ((1, 0),) + ((0, 2),) * 5)
    assert check_witness("weakL", c6, 4, w, L=L) is None


def test_check_witness_names_the_violating_vertex(c6):
    f = rf(2, (1, 2), (), (), (), (), ())
    assert check_witness("rainbow", c6, 2, f) == (
        "witness fails rainbow validation at vertex 2"
    )
    w = WeightFunction(2, (2, 0, 0, 0, 0, 0))
    assert check_witness("jkdom", c6, 2, w, j=1) == (
        "witness fails jkdom validation at vertex 0"
    )


def test_check_witness_wrong_cost(c6):
    f = rf(2, (1, 2), (), (), (1, 2), (), ())
    assert check_witness("rainbow", c6, 3, f) == "witness costs 4, value is 3"
    w = WeightFunction(2, (2,) * 6)
    assert check_witness("kdom", c6, 6, w) == "witness costs 12, value is 6"


def test_check_witness_missing(c6):
    assert check_witness("weak", c6, 3, None) == "no witness"


def first_violation(n, bad):
    """What a validator must return: (False, the first v with bad(v)), or
    (True, None) when there is none."""
    v = next((v for v in range(n) if bad(v)), None)
    return v is None, v


@st.composite
def functions_on_graphs(draw):
    """A random graph on up to 70 vertices and, for k up to 8, labels,
    weights, floors and a cap j, with a drawn share of vertices left at 0."""
    n = draw(st.integers(1, 70))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    p, used = draw(st.floats(0, 1)), draw(st.floats(0, 1))
    g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
    k = draw(st.integers(1, 8))
    labels = tuple(frozenset(c for c in range(1, k + 1) if rng.random() < 0.5)
                   if rng.random() < used else frozenset() for _ in range(n))
    weights = tuple(rng.randint(0, k) if rng.random() < used else 0 for _ in range(n))
    floors = tuple((rng.randint(0, k) if rng.random() < 0.2 else 0, rng.randint(0, k))
                   for _ in range(n))
    return g, k, labels, weights, floors, rng.randint(1, k)


@given(functions_on_graphs())
def test_validators_match_the_definitions(case):
    """The open-sum validators against the rules read off each vertex's
    neighbour set, first violating vertex included."""
    g, k, labels, weights, floors, j = case
    w = WeightFunction(k, weights)

    def colours_seen(v):
        return frozenset().union(*(labels[u] for u in g.neighbors(v)))

    def weight_seen(v):
        return sum(weights[u] for u in g.neighbors(v))

    assert is_rainbow(g, RainbowFunction(k, labels)) == first_violation(
        g.n, lambda v: not labels[v] and len(colours_seen(v)) < k)
    assert is_weak_k(g, w) == first_violation(
        g.n, lambda v: weights[v] == 0 and weight_seen(v) < k)
    kdom = first_violation(g.n, lambda v: weights[v] + weight_seen(v) < k)
    assert is_k_dom(g, w) == kdom
    capped = first_violation(g.n, lambda v: weights[v] > j)
    assert is_jk_dom(g, w, j) == (kdom if capped[0] else capped)
    assert is_weak_kL(g, w, KAssignment(k, floors)) == first_violation(
        g.n, lambda v: weights[v] < floors[v][0]
        or (weights[v] == 0 and weight_seen(v) < floors[v][1]))


@given(st.integers(8, 40), st.integers(250, 500), st.integers(0, 2**32 - 1))
def test_rainbow_at_large_k_matches_the_definition(n, k, seed):
    """k large enough that the colours take several packed open sums
    (``semantics._PACK_BITS`` bits each): the verdict and the first violator
    are the definition's, whichever chunk holds the missing colour."""
    assert k * (n.bit_length() + 1) > semantics._PACK_BITS
    rng = random.Random(seed)
    g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.5])
    full = frozenset(range(1, k + 1))
    labels = tuple(full - {rng.randint(1, k)} if rng.random() < 0.5 else frozenset()
                   for _ in range(n))
    seen = [frozenset().union(*(labels[u] for u in g.neighbors(v))) for v in range(n)]
    assert is_rainbow(g, RainbowFunction(k, labels)) == first_violation(
        n, lambda v: not labels[v] and seen[v] != full)
