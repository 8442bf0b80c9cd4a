"""The searching oracles are themselves cross-checked here against plain
exhaustive enumeration (subsets for domination, full weight/label vectors
for the rest) on instances small enough to enumerate."""

import functools
import itertools
import random

import pytest

from rainbowdom.graph import Graph
from rainbowdom.semantics import (
    KAssignment,
    is_jk_dom,
    is_k_dom,
    is_rainbow,
    is_weak_k,
    is_weak_kL,
    rainbow_cost,
    weight_cost,
    WeightFunction,
)
from rainbowdom.oracle import (
    InfeasibleInstance,
    OracleBudgetExceeded,
    OracleCapExceeded,
    exact_domination,
    exact_rainbow,
    exact_rainbow_direct,
    exact_weight_variant,
)

from reference import cartesian_product_complete, dominating_set_of


def domination_by_subsets(g: Graph) -> int:
    """Reference oracle: try all vertex subsets by increasing size."""
    closed = [g.neighbors(v) | {v} for v in range(g.n)]
    for size in range(g.n + 1):
        for sub in itertools.combinations(range(g.n), size):
            covered = set()
            for v in sub:
                covered |= closed[v]
            if len(covered) == g.n:
                return size
    raise AssertionError


@functools.lru_cache(maxsize=None)
def vectors_by_cost(n, hi):
    return sorted(itertools.product(range(hi + 1), repeat=n), key=sum)


def weight_minimum_by_vectors(g, variant, k, j=None, L=None):
    """Reference oracle: scan every weight vector, cheapest first."""
    hi = j if variant == "jk_dom" else k
    for ws in vectors_by_cost(g.n, hi):
        w = WeightFunction(k, ws)
        if variant == "weak_k":
            ok, _ = is_weak_k(g, w)
        elif variant == "k_dom":
            ok, _ = is_k_dom(g, w)
        elif variant == "jk_dom":
            ok, _ = is_jk_dom(g, w, j)
        else:
            ok, _ = is_weak_kL(g, w, L)
        if ok:
            return sum(ws)
    return None


def random_graph(n, p, seed):
    rng = random.Random(seed)
    return Graph(
        n,
        [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ],
    )


def test_domination_examples(c6, k1):
    assert exact_domination(c6).value == 2
    assert exact_domination(k1).value == 1
    k33 = Graph(6, [(u, 3 + v) for u in range(3) for v in range(3)])
    assert domination_by_subsets(k33) == 2
    assert exact_domination(k33).value == 2


def test_domination_matches_subset_oracle():
    for seed in range(40):
        rng = random.Random(seed)
        g = random_graph(rng.randint(1, 7), rng.choice((0.2, 0.5, 0.8)), seed)
        res = exact_domination(g)
        assert res.value == domination_by_subsets(g)
        dom = dominating_set_of(res)
        assert len(dom) == res.value
        covered = set()
        for v in dom:
            covered |= g.neighbors(v) | {v}
        assert len(covered) == g.n


def test_domination_cap():
    with pytest.raises(OracleCapExceeded):
        exact_domination(Graph(30), cap=24)


def test_no_cap_without_a_cap_argument():
    # 30 isolated vertices: above the CLI's default cap of 24, and the
    # greedy bound meets the counting bound, so no search runs
    assert exact_domination(Graph(30)).value == 30
    assert exact_rainbow(Graph(30), 2).value == 30


def test_domination_budget():
    g = random_graph(14, 0.3, 3)
    with pytest.raises(OracleBudgetExceeded):
        exact_domination(g, node_budget=2)


def test_rainbow_examples(c6, k1, gap12):
    assert exact_rainbow(c6, 2).value == 4
    assert exact_rainbow(k1, 1).value == 1
    assert exact_rainbow(k1, 3).value == 1
    assert exact_rainbow(gap12, 3, cap=40).value == 6


def test_rainbow_witness_always_validates():
    for seed in range(30):
        rng = random.Random(100 + seed)
        g = random_graph(rng.randint(1, 7), 0.4, seed)
        for k in (1, 2, 3):
            res = exact_rainbow(g, k)
            ok, _ = is_rainbow(g, res.witness)
            assert ok and rainbow_cost(res.witness) == res.value


def test_rainbow_is_product_domination():
    for seed in range(20):
        g = random_graph(random.Random(seed).randint(1, 6), 0.5, seed)
        for k in (1, 2):
            assert (
                exact_rainbow(g, k).value
                == exact_domination(cartesian_product_complete(g, k)).value
            )


def test_rainbow_search_decodes_product_domination():
    """The rainbow oracle searches the product's closed masks without
    building it: value, witness and search size are those of dominating
    the product graph, decoded colour by colour."""
    for seed in range(60):
        rng = random.Random(seed)
        g = random_graph(rng.randint(0, 8), rng.choice((0.2, 0.5, 0.8)), seed)
        for k in (1, 2, 3):
            if g.n * k > 24:
                continue
            res = exact_rainbow(g, k)
            dom = exact_domination(cartesian_product_complete(g, k))
            labels = tuple(
                frozenset(c + 1 for c in range(k) if dom.witness.weights[v * k + c])
                for v in range(g.n)
            )
            assert (res.value, res.witness.labels, res.nodes_explored) == (
                dom.value, labels, dom.nodes_explored)


def test_cross_oracle_direct_labeling():
    for seed in range(25):
        rng = random.Random(seed)
        g = random_graph(rng.randint(1, 5), rng.choice((0.3, 0.6)), seed)
        for k in (1, 2):
            assert exact_rainbow(g, k).value == exact_rainbow_direct(g, k).value


def test_rainbow_invariant_bounds():
    for seed in range(25):
        rng = random.Random(seed)
        g = random_graph(rng.randint(1, 6), 0.5, 50 + seed)
        gamma = exact_domination(g).value
        prev = None
        for k in (1, 2, 3):
            rk = exact_rainbow(g, k).value
            assert min(k, g.n) <= rk <= g.n
            assert rk <= k * gamma
            assert prev is None or rk >= prev
            prev = rk
        if g.n <= 4:
            assert exact_rainbow(g, g.n).value == g.n


def test_weak_examples(c6, k2, gap12):
    assert exact_weight_variant(c6, "weak_k", 2).value == 3
    assert exact_weight_variant(gap12, "weak_k", 3).value == 4
    L = KAssignment(2, ((1, 0), (0, 2)))
    assert exact_weight_variant(k2, "weak_kL", 2, assignment=L).value == 2


def test_weak_kL_example_matches_vector_scan(k2):
    L = KAssignment(2, ((1, 0), (0, 2)))
    assert weight_minimum_by_vectors(k2, "weak_kL", 2, L=L) == 2


def test_weight_variants_match_vector_scan():
    for seed in range(25):
        rng = random.Random(seed)
        n = rng.randint(1, 5)
        g = random_graph(n, 0.5, 200 + seed)
        k = rng.randint(1, 3)
        res = exact_weight_variant(g, "weak_k", k)
        assert res.value == weight_minimum_by_vectors(g, "weak_k", k)
        ok, _ = is_weak_k(g, res.witness)
        assert ok and weight_cost(res.witness) == res.value

        res = exact_weight_variant(g, "k_dom", k)
        assert res.value == weight_minimum_by_vectors(g, "k_dom", k)

        j = rng.randint(1, k)
        try:
            res = exact_weight_variant(g, "jk_dom", k, j=j)
            got = res.value
        except InfeasibleInstance:
            got = None
        assert got == weight_minimum_by_vectors(g, "jk_dom", k, j=j)

        L = KAssignment(
            k, tuple((rng.randint(0, k), rng.randint(0, k)) for _ in range(n))
        )
        res = exact_weight_variant(g, "weak_kL", k, assignment=L)
        assert res.value == weight_minimum_by_vectors(g, "weak_kL", k, L=L)
        ok, _ = is_weak_kL(g, res.witness, L)
        assert ok


def small_graphs():
    """Every labelled graph on at most 4 vertices, then 200 seeded random
    graphs on 5 or 6 vertices."""
    for n in range(5):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            yield Graph(n, [p for i, p in enumerate(pairs) if bits >> i & 1])
    for seed in range(200):
        rng = random.Random(seed)
        yield random_graph(rng.randint(5, 6), rng.choice((0.3, 0.5, 0.7)), seed)


def weight_witness_ok(g, variant, w, j, L):
    if variant == "weak_k":
        return is_weak_k(g, w)[0]
    if variant == "k_dom":
        return is_k_dom(g, w)[0]
    if variant == "jk_dom":
        return is_jk_dom(g, w, j)[0]
    return is_weak_kL(g, w, L)[0]


def test_pruned_searches_match_exhaustive_scans():
    """The lower bounds of the weight search and the early neighbourhood
    checks of the direct label search cut no optimum."""
    for idx, g in enumerate(small_graphs()):
        rng = random.Random(idx)
        for k in (1, 2, 3):
            cases = [("weak_k", None, None), ("k_dom", None, None)]
            cases += [("jk_dom", j, None) for j in range(1, k + 1)]
            for _ in range(3):
                L = KAssignment(k, tuple(
                    (rng.randint(0, k), rng.randint(0, k)) for _ in range(g.n)
                ))
                cases.append(("weak_kL", None, L))
            for variant, j, L in cases:
                want = weight_minimum_by_vectors(g, variant, k, j=j, L=L)
                try:
                    res = exact_weight_variant(g, variant, k, j=j, assignment=L)
                except InfeasibleInstance:
                    assert want is None
                    continue
                assert res.value == want == weight_cost(res.witness)
                assert weight_witness_ok(g, variant, res.witness, j, L)
            direct = exact_rainbow_direct(g, k)
            product = exact_rainbow(g, k)
            assert direct.value == product.value
            for res in (direct, product):
                assert is_rainbow(g, res.witness)[0]
                assert rainbow_cost(res.witness) == res.value


def test_weak_below_rainbow():
    for seed in range(20):
        g = random_graph(random.Random(seed).randint(1, 6), 0.4, 300 + seed)
        for k in (1, 2, 3):
            assert (
                exact_weight_variant(g, "weak_k", k).value
                <= exact_rainbow(g, k).value
            )


def test_jk_infeasible(k1):
    with pytest.raises(InfeasibleInstance):
        exact_weight_variant(k1, "jk_dom", 2, j=1)


def test_variant_validation():
    with pytest.raises(ValueError):
        exact_weight_variant(Graph(1), "nope", 1)
    with pytest.raises(ValueError):
        exact_weight_variant(Graph(1), "weak_kL", 1)  # missing assignment
    with pytest.raises(ValueError):
        exact_weight_variant(Graph(1), "jk_dom", 2, j=5)
