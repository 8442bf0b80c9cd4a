import pytest
from hypothesis import given, strategies as st

from rainbowdom.graph import (
    Graph,
    GraphParseError,
    parse_graph,
    render_graph,
)
from rainbowdom.interval import IntervalModel
from rainbowdom.semantics import KAssignment
from rainbowdom.trivially_perfect import RootedTreeModel

from reference import (
    cartesian_product_complete,
    closed_neighborhood,
    complement,
    graph_join,
    graph_union,
    is_connected,
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



_GRAPH_FILES = [
    ('3 2\r\n0 1\r\n1 2\r\n', ('ok', 3, ((0, 1), (1, 2)))),
    ('3 2\r0 1\r1 2\r', ('ok', 3, ((0, 1), (1, 2)))),
    ('3 2\x0b0 1\x0c1 2\x1c', ('ok', 3, ((0, 1), (1, 2)))),
    ('3 2\n0 1 1 2\n', ('ok', 3, ((0, 1), (1, 2)))),
    ('3 1\n0 1\x0b\n', ('ok', 3, ((0, 1),))),
    ('3 1\n0\x0b1\n', ('GraphParseError', 'expected 1 edge lines, found 2')),
    ('3 1\n0\r1\n', ('GraphParseError', 'expected 1 edge lines, found 2')),
    ('3\t2\n0\t1\n\t1 2\t\n', ('ok', 3, ((0, 1), (1, 2)))),
    ('\n  \n3 2\n\n0 1\n \t \n1 2\n\n\n', ('ok', 3, ((0, 1), (1, 2)))),
    ('3 2\n0 1\n1 2', ('ok', 3, ((0, 1), (1, 2)))),
    ('3 1\n01 2\n', ('ok', 3, ((1, 2),))),
    ('3 1\n+1 2\n', ('ok', 3, ((1, 2),))),
    ('3 1\n-0 2\n', ('ok', 3, ((0, 2),))),
    ('3 1\n٣ 0\n', ('GraphParseError', 'vertex out of range in edge (3, 0)')),
    ('4 1\n٣ 0\n', ('ok', 4, ((0, 3),))),
    ('3 1\n1_0 2\n', ('GraphParseError', 'vertex out of range in edge (10, 2)')),
    ('3 1\n0;1\n', ('GraphParseError', "malformed edge line: '0;1'")),
    ('3 1\n0 | 1\n', ('GraphParseError', "malformed edge line: '0 | 1'")),
    ('3 1\n0 1 |\n', ('GraphParseError', "malformed edge line: '0 1 |'")),
    ('3 1\n0\x001\n', ('GraphParseError', "malformed edge line: '0\\x001'")),
    ('3 1\n0 1\x00\n', ('GraphParseError', "malformed edge line: '0 1\\x00'")),
    ('3 2\n0 1\n1 0\n', ('GraphParseError', 'duplicate edge (1, 0)')),
    ('3 3\n0 1\n1 0\n2 2\n', ('GraphParseError', 'duplicate edge (1, 0)')),
    ('3 2\n2 2\n0 1\n', ('GraphParseError', 'self-loop at vertex 2')),
    ('3 2\n0 5\nx y\n', ('GraphParseError', 'vertex out of range in edge (0, 5)')),
    ('3 2\n0 -1\n0 1\n', ('GraphParseError', 'vertex out of range in edge (0, -1)')),
    ('3 2\nx y\n0 5\n', ('GraphParseError', "malformed edge line: 'x y'")),
    ('3 2\n0 1 2\n0 5\n', ('GraphParseError', "malformed edge line: '0 1 2'")),
    ('3\n0 1\n', ('GraphParseError', "malformed header line: '3'")),
    ('3 1 0\n0 1\n', ('GraphParseError', "malformed header line: '3 1 0'")),
    ('3 x\n', ('GraphParseError', "malformed header line: '3 x'")),
    ('-1 0\n', ('GraphParseError', 'negative counts in header')),
    ('3 -1\n', ('GraphParseError', 'negative counts in header')),
    ('3 2\n0 1\n', ('GraphParseError', 'expected 2 edge lines, found 1')),
    ('3 1\n0 1\n1 2\n', ('GraphParseError', 'expected 1 edge lines, found 2')),
    ('3 0\n0 1\n', ('GraphParseError', 'expected 0 edge lines, found 1')),
    ('0 0\n', ('ok', 0, ())),
    ('1 0', ('ok', 1, ())),
    ('', ('GraphParseError', 'empty document')),
    (' \n\t\n', ('GraphParseError', 'empty document')),
    ('2 1\n0 99999999999999999999\n',
     ('GraphParseError', 'vertex out of range in edge (0, 99999999999999999999)')),
    # int() refuses a literal this long with a ValueError
    ('2 1\n0 ' + '1' * 5000 + '\n',
     ('GraphParseError', "malformed edge line: '0 " + '1' * 5000 + "'")),
    ('01 1\n0 1\n', ('GraphParseError', 'vertex out of range in edge (0, 1)')),
    ('+2 1\n0 1\n', ('ok', 2, ((0, 1),))),
]


def _outcome(parse, text):
    try:
        g = parse(text)
    except ValueError as e:
        return (type(e).__name__, str(e))
    return ("ok", g.n, tuple(sorted(g.edges)))


@pytest.mark.parametrize("text,expected", _GRAPH_FILES)
def test_graph_files_pinned(text, expected):
    """Outcomes of the edge-list reader, recorded on the line-by-line
    reader it replaced: line breaks are those of ``str.splitlines``,
    integers those of ``int()``, and the first bad line in file order
    words the error."""
    assert _outcome(parse_graph, text) == expected


def _line_walk_parse_graph(text: str) -> Graph:
    """The line-by-line edge-list reader that ``parse_graph`` replaced,
    kept as the reference it must agree with."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise GraphParseError("empty document")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphParseError(f"malformed header line: {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphParseError(f"malformed header line: {lines[0]!r}") from None
    if n < 0 or m < 0:
        raise GraphParseError("negative counts in header")
    if len(lines) - 1 != m:
        raise GraphParseError(
            f"expected {m} edge lines, found {len(lines) - 1}"
        )
    adj: list[set[int]] = [set() for _ in range(n)]
    for ln in lines[1:]:
        try:
            a, b = ln.split()
            u, v = int(a), int(b)
        except ValueError:
            raise GraphParseError(f"malformed edge line: {ln!r}") from None
        if u == v:
            raise GraphParseError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"vertex out of range in edge ({u}, {v})")
        nu = adj[u]
        if v in nu:
            raise GraphParseError(f"duplicate edge ({u}, {v})")
        nu.add(v)
        adj[v].add(u)
    return Graph(n, adj=adj)


_TOKENS = ["0", "1", "2", "3", "4", "5", "01", "+1", "-0", "-1", "٣",
           "1_0", "x", ";", "|", "0|1", "\x00"]
_GAPS = [" ", "  ", "\t", "\n", "\n", "\n", "\r\n", "\r", "\v", "\f",
         "\x1c", "\x85", " ", "\n \t\n"]


@st.composite
def edge_list_texts(draw):
    """Mostly well-formed edge lists over small vertex counts, with
    spellings, separators and faults drawn from the lists above."""
    n = draw(st.integers(0, 5))
    pairs = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=8))
    rows = [[str(n), str(len(pairs) + draw(st.integers(-1, 1)))]]
    rows += [[str(u), str(v)] for u, v in pairs]
    for row in rows:
        for i in range(len(row)):
            if draw(st.integers(0, 9)) == 0:
                row[i] = draw(st.sampled_from(_TOKENS))
        if draw(st.integers(0, 19)) == 0:
            row.append(draw(st.sampled_from(_TOKENS)))
    words = []
    for row in rows:
        for tok in row:
            words += [tok, draw(st.sampled_from([" ", " ", "\t"] + _GAPS))]
        words[-1] = draw(st.sampled_from(["\n"] * 8 + _GAPS))
    return draw(st.sampled_from(["", "\n", " "])) + "".join(words)


@given(edge_list_texts())
def test_parse_graph_matches_line_walk(text):
    assert _outcome(parse_graph, text) == _outcome(_line_walk_parse_graph, text)


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


def _parse_row_file(kind, text):
    from rainbowdom.interval import parse_intervals
    from rainbowdom.trivially_perfect import parse_assignment, parse_tree_model

    if kind == "model":
        return parse_tree_model(text).parents
    if kind == "assignment":
        return parse_assignment(text, 2).pairs
    return parse_intervals(text).intervals


def _row_outcome(parse, kind, text):
    try:
        return ("ok", parse(kind, text))
    except ValueError as e:
        return (type(e).__name__, str(e))


def _line_walk_parse_row_file(kind, text):
    """The vertex-row reader that ``_vertex_rows`` replaced, and each
    parser's conversion of its string rows, kept as the reference they
    must agree with."""
    fields, what, cover = {
        "model": (2, "model", "model must list each vertex"),
        "assignment": (3, "assignment", "assignment must list each vertex"),
        "interval": (3, "interval", "intervals must cover vertices"),
    }[kind]
    rows = [parts for parts in map(str.split, text.splitlines()) if parts]
    if not set(map(len, rows)) <= {fields}:
        for ln in map(str.strip, text.splitlines()):
            if ln:
                parts = ln.split()
                if len(parts) != fields:
                    raise ValueError(f"malformed {what} line: {ln!r}")
                int(parts[0])
    ids = [int(parts[0]) for parts in rows]
    n = len(rows)
    if ids != list(range(n)):
        if sorted(ids) != list(range(n)):
            raise ValueError(f"{cover} 0..n-1 exactly once")
        rows = [parts for _v, parts in sorted(zip(ids, rows))]
    if kind == "model":
        return RootedTreeModel([int(parent) for _v, parent in rows]).parents
    pairs = tuple([(int(a), int(b)) for _v, a, b in rows])
    if kind == "assignment":
        return KAssignment(2, pairs).pairs
    return IntervalModel(pairs).intervals


@st.composite
def vertex_row_texts(draw):
    """A kind of row file and a text for it: mostly one line per vertex,
    shuffled, with spellings, separators and faults drawn as for edge
    lists."""
    kind = draw(st.sampled_from(["model", "assignment", "interval"]))
    fields = 2 if kind == "model" else 3
    ids = draw(st.permutations(range(draw(st.integers(0, 5)))))
    words = [draw(st.sampled_from(["", "\n", " "]))]
    for v in ids:
        row = [str(v)] + [str(draw(st.integers(-1, 3))) for _ in range(fields - 1)]
        for i in range(len(row)):
            if draw(st.integers(0, 9)) == 0:
                row[i] = draw(st.sampled_from(_TOKENS))
        if draw(st.integers(0, 19)) == 0:
            row.append(draw(st.sampled_from(_TOKENS)))
        elif draw(st.integers(0, 19)) == 0:
            row.pop()
        for tok in row:
            words += [tok, draw(st.sampled_from([" ", " ", "\t"] + _GAPS))]
        words[-1] = draw(st.sampled_from(["\n"] * 8 + _GAPS))
    return kind, "".join(words)


@given(vertex_row_texts())
def test_vertex_rows_match_line_walk(case):
    kind, text = case
    assert (_row_outcome(_parse_row_file, kind, text)
            == _row_outcome(_line_walk_parse_row_file, kind, text))


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
    assert not is_connected(g)
