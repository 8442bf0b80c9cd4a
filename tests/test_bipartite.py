import itertools
import random

import pytest

from rainbowdom.semantics import KAssignment, is_weak_kL, weight_cost
from rainbowdom.oracle import exact_weight_variant
from rainbowdom.bipartite import (
    BipartiteInstance,
    complete_bipartite_graph,
    instance_from_assignment,
    parse_bipartite_instance,
    render_bipartite_instance,
    weakL_complete_bipartite,
)


def test_all_zero_demands():
    inst = BipartiteInstance.from_labels(2, [0, 0], [0, 0, 0])
    assert weakL_complete_bipartite(inst)[0] == 0


def test_worked_example():
    inst = BipartiteInstance.from_labels(2, [2, 1], [1, 1])
    v, (x, y), w = weakL_complete_bipartite(inst)
    assert v == 2


def test_single_pair_max_demand():
    for k in (1, 2, 3):
        inst = BipartiteInstance.from_labels(k, [k], [k])
        v, _xy, w = weakL_complete_bipartite(inst)
        g = complete_bipartite_graph(1, 1)
        L = KAssignment(k, ((0, k), (0, k)))
        assert v == exact_weight_variant(g, "weak_kL", k, assignment=L).value


def test_concentration_beyond_side_size():
    # one vertex opposite a heavy demand must carry more than unit weight
    inst = BipartiteInstance.from_labels(3, [3], [0, 0, 0])
    v, (x, y), w = weakL_complete_bipartite(inst)
    g = complete_bipartite_graph(1, 3)
    L = KAssignment(3, ((0, 3), (0, 0), (0, 0), (0, 0)))
    assert v == exact_weight_variant(g, "weak_kL", 3, assignment=L).value
    ok, _ = is_weak_kL(g, w, L)
    assert ok and weight_cost(w) == v


def test_exhaustive_small():
    for n1, n2 in itertools.product((1, 2, 3), repeat=2):
        g = complete_bipartite_graph(n1, n2)
        for k in (1, 2):
            for bs in itertools.product(range(k + 1), repeat=n1 + n2):
                inst = BipartiteInstance.from_labels(k, bs[:n1], bs[n1:])
                v, _xy, w = weakL_complete_bipartite(inst)
                L = KAssignment(k, tuple((0, b) for b in bs))
                assert v == exact_weight_variant(
                    g, "weak_kL", k, assignment=L
                ).value, (n1, n2, k, bs)
                ok, _ = is_weak_kL(g, w, L)
                assert ok and weight_cost(w) == v


def test_random_k3():
    for seed in range(120):
        rng = random.Random(seed)
        n1, n2 = rng.randint(1, 4), rng.randint(1, 4)
        bs = tuple(rng.randint(0, 3) for _ in range(n1 + n2))
        inst = BipartiteInstance.from_labels(3, bs[:n1], bs[n1:])
        v, _xy, w = weakL_complete_bipartite(inst)
        g = complete_bipartite_graph(n1, n2)
        L = KAssignment(3, tuple((0, b) for b in bs))
        assert v == exact_weight_variant(g, "weak_kL", 3, assignment=L).value
        ok, _ = is_weak_kL(g, w, L)
        assert ok


def test_side_swap_symmetry():
    for seed in range(60):
        rng = random.Random(seed)
        n1, n2 = rng.randint(1, 4), rng.randint(1, 4)
        k = rng.randint(1, 3)
        b1 = [rng.randint(0, k) for _ in range(n1)]
        b2 = [rng.randint(0, k) for _ in range(n2)]
        v1 = weakL_complete_bipartite(BipartiteInstance.from_labels(k, b1, b2))[0]
        v2 = weakL_complete_bipartite(BipartiteInstance.from_labels(k, b2, b1))[0]
        assert v1 == v2


@pytest.mark.parametrize("sides", [([], [1, 1, 1]), ([1, 1], []), ([], [])])
def test_empty_side_rejected(sides):
    with pytest.raises(ValueError):
        BipartiteInstance.from_labels(1, *sides)


def test_nonzero_floor_rejected():
    L = KAssignment(2, ((1, 0), (0, 2)))
    with pytest.raises(ValueError):
        instance_from_assignment(1, 1, L)


def test_file_roundtrip():
    inst = BipartiteInstance.from_labels(2, [2, 0, 1], [1, 1])
    assert parse_bipartite_instance(render_bipartite_instance(inst)) == inst
    assert instance_from_assignment(3, 2, inst.assignment()) == inst


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_bipartite_instance("1 1 2\n0\n")
    with pytest.raises(ValueError):
        parse_bipartite_instance("2 1 2\n0\n0\n")
    with pytest.raises(ValueError):  # no assignment has k = 0
        parse_bipartite_instance("1 1 0\n0\n0\n")
