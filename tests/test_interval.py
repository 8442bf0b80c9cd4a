import random

import pytest

from rainbowdom.semantics import is_rainbow, is_weak_k, rainbow_cost, weight_cost
from rainbowdom.oracle import exact_rainbow, exact_weight_variant
from rainbowdom.interval import (
    CliqueArrangement,
    IntervalModel,
    build_arrangement,
    interval_graph,
    parse_intervals,
    rainbow2_interval,
    render_intervals,
    weak2_interval,
)

from reference import cliques


def test_model_roundtrip():
    m = IntervalModel(((1, 3), (2, 2), (0, 5)))
    assert parse_intervals(render_intervals(m)) == m


def test_model_rejects_reversed():
    with pytest.raises(ValueError):
        IntervalModel(((3, 1),))


def test_arrangement_disjoint():
    m = IntervalModel(((0, 0), (2, 2), (4, 4)))
    arr = build_arrangement(m)
    assert len(cliques(arr)) == 3
    assert all(len(K) == 1 for K in cliques(arr))


def test_arrangement_nested_chain():
    m = IntervalModel(((0, 9), (2, 7), (4, 5)))
    arr = build_arrangement(m)
    assert len(cliques(arr)) == 1
    assert cliques(arr)[0] == frozenset({0, 1, 2})


def test_arrangement_path():
    m = IntervalModel(tuple((i, i + 1) for i in range(4)))
    arr = build_arrangement(m)
    assert [sorted(K) for K in cliques(arr)] == [[0, 1], [1, 2], [2, 3]]
    g = interval_graph(m)
    assert g.edges == frozenset({(0, 1), (1, 2), (2, 3)})


def test_vertex_ranges_consecutive():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 8)
        m = IntervalModel(
            tuple(
                tuple(sorted((rng.randint(1, 8), rng.randint(1, 8))))
                for _ in range(n)
            )
        )
        arr = build_arrangement(m)
        for v in range(n):
            assert arr.first[v] <= arr.last[v]


def test_single_clique_value(k4):
    m = IntervalModel(((0, 4), (1, 4), (2, 4), (3, 4)))
    arr = build_arrangement(m)
    assert weak2_interval(arr)[0] == 2


def test_single_vertex():
    arr = build_arrangement(IntervalModel(((0, 0),)))
    v, w = weak2_interval(arr)
    assert v == 1  # any nonzero weight frees the lone vertex of its demand
    rv, rw = rainbow2_interval(arr)
    assert rv == 1 and rw is not None


def test_p6_values():
    m = IntervalModel(tuple((i, i + 1) for i in range(6)))
    g = interval_graph(m)
    arr = build_arrangement(m)
    v, w = weak2_interval(arr)
    assert v == exact_weight_variant(g, "weak_k", 2).value
    ok, _ = is_weak_k(g, w)
    assert ok and weight_cost(w) == v
    rv, rw = rainbow2_interval(arr)
    assert rv == v == exact_rainbow(g, 2).value
    ok, _ = is_rainbow(g, rw)
    assert ok and rainbow_cost(rw) == rv


def test_matches_oracle_randomized():
    for seed in range(160):
        rng = random.Random(seed)
        n = rng.randint(1, 8)
        m = IntervalModel(
            tuple(
                tuple(sorted((rng.randint(1, 8), rng.randint(1, 8))))
                for _ in range(n)
            )
        )
        g = interval_graph(m)
        arr = build_arrangement(m)
        v, w = weak2_interval(arr)
        assert v == exact_weight_variant(g, "weak_k", 2).value, m.intervals
        ok, _ = is_weak_k(g, w)
        assert ok and weight_cost(w) == v
        rv, rw = rainbow2_interval(arr)
        assert rv == v == exact_rainbow(g, 2, cap=24).value
        assert rw is not None
        ok, _ = is_rainbow(g, rw)
        assert ok and rainbow_cost(rw) == rv


def test_state_caps_hold():
    # the transition enumerates at most two 2s and four 1s per clique by
    # construction; spot-check via a dense instance that exercises both caps
    rng = random.Random(1)
    m = IntervalModel(
        tuple(tuple(sorted((rng.randint(1, 4), rng.randint(1, 4)))) for _ in range(8))
    )
    arr = build_arrangement(m)
    v, w = weak2_interval(arr)
    for K in cliques(arr):
        assert sum(1 for x in K if w.weights[x] == 2) <= 2
        assert sum(1 for x in K if w.weights[x] == 1) <= 4


def test_moderate_instance_quick():
    import time

    rng = random.Random(11)
    m = IntervalModel(
        tuple(
            tuple(sorted((rng.randint(1, 25), rng.randint(1, 25))))
            for _ in range(25)
        )
    )
    arr = build_arrangement(m)
    t0 = time.time()
    weak2_interval(arr)
    assert time.time() - t0 < 60


def test_state_count_far_below_dense_bound():
    from rainbowdom.interval import LAST_SWEEP_STATS

    for seed in range(20):
        rng = random.Random(seed)
        n = rng.randint(4, 12)
        m = IntervalModel(
            tuple(
                tuple(sorted((rng.randint(1, n), rng.randint(1, n))))
                for _ in range(n)
            )
        )
        weak2_interval(build_arrangement(m))
        assert LAST_SWEEP_STATS["max_states"] <= n**8


def test_state_count_polynomial_in_cliques():
    # a weak state is four reaches and a rainbow state five, each one of at
    # most t + 1 values for t cliques
    from rainbowdom.interval import LAST_SWEEP_STATS

    for seed in range(20):
        rng = random.Random(seed)
        n = rng.randint(4, 150)
        width = rng.choice((2, 6, n))
        spans = []
        for _ in range(n):
            lo = rng.randint(0, n)
            spans.append((lo, lo + rng.randint(0, width)))
        arr = build_arrangement(IntervalModel(tuple(spans)))
        t = len(cliques(arr))
        weak2_interval(arr)
        assert LAST_SWEEP_STATS["max_states"] <= (t + 1) ** 4
        assert LAST_SWEEP_STATS["layers"] == t + 1
        rainbow2_interval(arr)
        assert LAST_SWEEP_STATS["max_states"] <= (t + 1) ** 5


@pytest.mark.parametrize("solve", [weak2_interval, rainbow2_interval])
def test_dense_arrangement_stays_small(solve):
    # long intervals overlap by the hundred; without dropping dominated
    # states a layer held thousands
    from rainbowdom.interval import LAST_SWEEP_STATS

    rng = random.Random(500)
    spans = []
    for _ in range(500):
        lo = rng.randrange(5000)
        spans.append((lo, lo + rng.randint(1, 2000)))
    assert solve(build_arrangement(IntervalModel(tuple(spans))))[0] == 6
    assert LAST_SWEEP_STATS["max_states"] <= 50
