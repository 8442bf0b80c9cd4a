import pytest

from rainbowdom.graph import Graph

from reference import graph_join, graph_union


@pytest.fixture
def k1():
    return Graph(1)


@pytest.fixture
def k2():
    return Graph(2, [(0, 1)])


@pytest.fixture
def p3():
    return Graph(3, [(0, 1), (1, 2)])


@pytest.fixture
def p4():
    return Graph(4, [(0, 1), (1, 2), (2, 3)])


@pytest.fixture
def c4():
    return Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


@pytest.fixture
def c6():
    return Graph(6, [(i, (i + 1) % 6) for i in range(6)])


@pytest.fixture
def k4():
    return Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])


@pytest.fixture
def star4():
    return Graph(4, [(0, 1), (0, 2), (0, 3)])


@pytest.fixture
def gap12():
    """Join of two copies of (P3 + P3): separates weak {3} from 3-rainbow."""
    p3 = Graph(3, [(0, 1), (1, 2)])
    side = graph_union(p3, p3)
    return graph_join(side, side)
