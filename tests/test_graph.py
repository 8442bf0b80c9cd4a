import pytest
from hypothesis import given, strategies as st

from rainbowdom.graph import (
    Graph,
    GraphParseError,
    cartesian_product_complete,
    closed_neighborhood,
    complement,
    graph_join,
    graph_union,
    parse_graph,
    render_graph,
)


def test_parse_p3():
    g = parse_graph("3 2\n0 1\n1 2")
    assert g.n == 3 and g.edges == frozenset({(0, 1), (1, 2)})


def test_parse_k1():
    g = parse_graph("1 0")
    assert g.n == 1 and not g.edges


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("2 1\n0 0", "self-loop"),
        ("2 1\n0 5", "out of range"),
        ("2 2\n0 1\n1 0", "duplicate"),
        ("2 1\nnope", "malformed edge"),
        ("x y", "malformed header"),
        ("2 3\n0 1", "expected 3 edge lines"),
        ("", "empty"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(GraphParseError) as err:
        parse_graph(text)
    assert fragment in str(err.value)


_VERTEX_ROW_FILES = [
    ('model', '0 -1\n1 0\n2 0\n', ('ok', (-1, 0, 0))),
    ('model', '2 0\n0 -1\n1 2\n', ('ok', (-1, 2, 0))),
    ('model', '0 -1\n1\t0\t7\n', ('ValueError', "malformed model line: '1\\t0\\t7'")),
    ('model', '0 -1\n  1 0 7  \n2\n', ('ValueError', "malformed model line: '1 0 7'")),
    ('model', '0 -1\nx 0\n2 0 9\n', ('ValueError', "invalid literal for int() with base 10: 'x'")),
    ('model', '0 -1\n2 0 9\nx 0\n', ('ValueError', "malformed model line: '2 0 9'")),
    ('model', '0 -1\n1 0\n1 0\n', ('ValueError', 'model must list each vertex 0..n-1 exactly once')),
    ('model', '0 -1\n2 0\n', ('ValueError', 'model must list each vertex 0..n-1 exactly once')),
    ('model', '1 0\n2 0\n', ('ValueError', 'model must list each vertex 0..n-1 exactly once')),
    ('model', '\n  \n0 -1\n\n\t\n1 0\n \n', ('ok', (-1, 0))),
    ('model', '0 -1\r\n1 0\r\n2 1\r\n', ('ok', (-1, 0, 1))),
    ('model', '', ('ok', ())),
    ('model', '0 -1 \n1 x\n', ('ValueError', "invalid literal for int() with base 10: 'x'")),
    ('assignment', '0 0 2\n1 1 0\n', ('ok', ((0, 2), (1, 0)))),
    ('assignment', '1 1 0\n0 0 2\n', ('ok', ((0, 2), (1, 0)))),
    ('assignment', '0 0 2\n1 1\n', ('ValueError', "malformed assignment line: '1 1'")),
    ('assignment', '0 0\t2\t3\n', ('ValueError', "malformed assignment line: '0 0\\t2\\t3'")),
    ('assignment', '0 0 2\ny 1 0\n2 1\n', ('ValueError', "invalid literal for int() with base 10: 'y'")),
    ('assignment', '0 0 2\n2 1\ny 1 0\n', ('ValueError', "malformed assignment line: '2 1'")),
    ('assignment', '0 0 2\n0 1 1\n', ('ValueError', 'assignment must list each vertex 0..n-1 exactly once')),
    ('assignment', '0 0 2\n2 1 1\n', ('ValueError', 'assignment must list each vertex 0..n-1 exactly once')),
    ('assignment', '\n0 0 2\n   \n1 1 0\n\n', ('ok', ((0, 2), (1, 0)))),
    ('assignment', '0 0 2\r\n1 1 0\r\n', ('ok', ((0, 2), (1, 0)))),
    ('assignment', '0 0 2\n1 3 0\n', ('ValueError', 'assignment of vertex 1 outside 0..2')),
    ('interval', '0 1 3\n1 2 5\n', ('ok', ((1, 3), (2, 5)))),
    ('interval', '1 2 5\n0 1 3\n', ('ok', ((1, 3), (2, 5)))),
    ('interval', '0 1 3\n1 2\n', ('ValueError', "malformed interval line: '1 2'")),
    ('interval', '0\t1 3 4\n', ('ValueError', "malformed interval line: '0\\t1 3 4'")),
    ('interval', '0 1 3\nz 2 5\n1 2\n', ('ValueError', "invalid literal for int() with base 10: 'z'")),
    ('interval', '0 1 3\n1 2\nz 2 5\n', ('ValueError', "malformed interval line: '1 2'")),
    ('interval', '0 1 3\n0 2 5\n', ('ValueError', 'intervals must cover vertices 0..n-1 exactly once')),
    ('interval', '1 2 5\n', ('ValueError', 'intervals must cover vertices 0..n-1 exactly once')),
    ('interval', '\n\n0 1 3\n \n1 2 5\n', ('ok', ((1, 3), (2, 5)))),
    ('interval', '0 1 3\r\n1 2 5\r\n', ('ok', ((1, 3), (2, 5)))),
]


@pytest.mark.parametrize("kind,text,expected", _VERTEX_ROW_FILES)
def test_vertex_row_files_pinned(kind, text, expected):
    """Outcomes of the one-vertex-per-line reader behind the model,
    assignment and interval files, recorded before it split all lines at
    once: the first bad line in file order words the error, and a wrong
    field count quotes the line as written, tabs included."""
    from rainbowdom.interval import parse_intervals
    from rainbowdom.trivially_perfect import parse_assignment, parse_tree_model

    try:
        if kind == "model":
            got = ("ok", parse_tree_model(text).parents)
        elif kind == "assignment":
            got = ("ok", parse_assignment(text, 2).pairs)
        else:
            got = ("ok", parse_intervals(text).intervals)
    except ValueError as e:
        got = (type(e).__name__, str(e))
    assert got == expected


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


@given(graphs())
def test_render_parse_roundtrip(g):
    assert parse_graph(render_graph(g)) == g


def test_closed_neighborhood(c6, k1, k4):
    assert closed_neighborhood(c6, 0) == frozenset({5, 0, 1})
    assert closed_neighborhood(k1, 0) == frozenset({0})
    assert closed_neighborhood(k4, 2) == frozenset({0, 1, 2, 3})


def test_product_with_single_vertex_is_complete(k1):
    g = cartesian_product_complete(k1, 3)
    assert g.n == 3 and g.m == 3


def test_product_k1_identity(k2):
    assert cartesian_product_complete(k2, 1) == k2


def test_product_c6_prism(c6):
    g = cartesian_product_complete(c6, 2)
    assert g.n == 12
    assert g.m == 6 * 1 + 6 * 2  # n*k(k-1)/2 + m*k


@given(graphs(max_n=6), st.integers(1, 3))
def test_product_size_formula(g, k):
    prod = cartesian_product_complete(g, k)
    assert prod.n == g.n * k
    assert prod.m == g.n * k * (k - 1) // 2 + g.m * k


def test_product_rejects_zero(k2):
    with pytest.raises(ValueError):
        cartesian_product_complete(k2, 0)


def test_union_join_counts(p3):
    u = graph_union(p3, p3)
    assert u.n == 6 and u.m == 4
    j = graph_join(p3, p3)
    assert j.n == 6 and j.m == 4 + 9


def test_complement_involution(c6):
    assert complement(complement(c6)) == c6


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 3)])


def test_graph_immutable(k2):
    with pytest.raises(AttributeError):
        k2.n = 5


def test_components():
    g = Graph(5, [(0, 1), (3, 4)])
    assert g.components() == [[0, 1], [2], [3, 4]]
    assert not g.is_connected()
