import random

import pytest

from rainbowdom.graph import Graph
from rainbowdom.semantics import is_rainbow, is_weak_k, rainbow_cost, weight_cost
from rainbowdom.oracle import exact_domination, exact_rainbow, exact_weight_variant
from rainbowdom.gadgets import (
    SplitPartition,
    pendant_gadget,
    render_split_partition,
    split_partition,
    verify_gadget_identities,
)
from rainbowdom.generators import generate

from reference import (
    extract_dominating_set,
    normalize_gadget_rainbow,
    normalize_gadget_weights,
    parse_split_partition,
    pendant_of,
)


def test_split_complete(k4):
    p = split_partition(k4)
    assert p.C == frozenset(range(4)) and not p.I


def test_split_star(star4):
    p = split_partition(star4)
    assert len(p.C) == 2 and 0 in p.C  # center plus one leaf, grown maximal


def test_split_refusals(c4, c6):
    assert split_partition(c4) is None
    assert split_partition(c6) is None
    c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert split_partition(c5) is None


def test_split_random_generated():
    for seed in range(50):
        rng = random.Random(seed)
        c, i = rng.randint(1, 5), rng.randint(0, 5)
        g, declared = generate("random_splitgraph", c, i, 0.5, seed=seed)
        found = split_partition(g)
        assert found is not None
        # verify the found partition directly
        for u in found.C:
            for v in found.C:
                if u < v:
                    assert g.has_edge(u, v)
        for u in found.I:
            for v in found.I:
                if u < v:
                    assert not g.has_edge(u, v)


def test_partition_file_roundtrip():
    p = SplitPartition(frozenset({0, 2}), frozenset({1, 3}))
    assert parse_split_partition(render_split_partition(p)) == p


def test_pendant_counts(k2, star4):
    p = split_partition(k2)
    gp, info = pendant_gadget(k2, p, 3)
    assert gp.n == 2 + 2 * 2
    gp1, _ = pendant_gadget(k2, p, 1)
    assert gp1 == k2  # no pendants at k=1
    p = split_partition(star4)
    gp, info = pendant_gadget(star4, p, 2)
    assert gp.n == star4.n + len(p.C)


def test_gadget_remains_split(star4):
    p = split_partition(star4)
    gp, _ = pendant_gadget(star4, p, 3)
    assert split_partition(gp) is not None


def test_identities_examples(k2, star4):
    rep = verify_gadget_identities(k2, split_partition(k2), 2, cap=48)
    assert rep.domination == 1 and rep.expected == 3 and rep.ok
    rep = verify_gadget_identities(star4, split_partition(star4), 2, cap=48)
    assert rep.domination == 1 and rep.expected == 3 and rep.ok


def test_identities_random():
    done = 0
    seed = 0
    while done < 25:
        seed += 1
        rng = random.Random(seed)
        c, i = rng.randint(1, 4), rng.randint(0, 4)
        k = rng.randint(1, 2)
        g, _ = generate("random_splitgraph", c, i, 0.5, seed=seed)
        part = split_partition(g)
        gp, _info = pendant_gadget(g, part, k)
        if gp.n * k > 36:
            continue
        rep = verify_gadget_identities(g, part, k, cap=40)
        assert rep.ok, (seed, c, i, k)
        done += 1


def test_normalization_and_extraction():
    g, _ = generate("random_splitgraph", 3, 3, 0.6, seed=99)
    part = split_partition(g)
    gp, info = pendant_gadget(g, part, 2)
    res = exact_rainbow(gp, 2, cap=48)
    f = normalize_gadget_rainbow(res.witness, info)
    ok, _ = is_rainbow(gp, f)
    assert ok and rainbow_cost(f) == res.value
    for p in pendant_of(info):
        assert len(f.labels[p]) <= 1
    D = extract_dominating_set(f, g.n)
    for v in range(g.n):
        assert v in D or (g.neighbors(v) & D)

    wres = exact_weight_variant(gp, "weak_k", 2)
    w = normalize_gadget_weights(wres.witness, info)
    ok, _ = is_weak_k(gp, w)
    assert ok and weight_cost(w) == wres.value
    for p in pendant_of(info):
        assert w.weights[p] <= 1
