"""Decomposition trees and the linear-time dynamic programs on them.

A ``Cotree`` is the decomposition tree of Jamison and Olariu: leaves,
binary unions (U) and joins (J), and spider nodes (S).  Cographs are the
graphs whose tree has no spider node; P4-sparse graphs are the graphs
that have a tree at all.

``rainbow_cograph`` evaluates, per node, the cheapest rainbow function
with no empty label that uses all k colors (a closed form: max(subtree
size, k)) and the cheapest one with at least one empty label.  The head
of a spider never affects the second: one body vertex carries all k
colors and every head vertex sees it, so the head stays empty.  A thin
spider with |S| feet costs |S| - 1 + k (one foot empty, its partner
carries all colors); a thick one costs k + 1 (one body vertex carries
all colors, its excluded foot takes a single color).  Each node stores
the first branch that reaches its minimum, and the witness replays the
stored branches from the root down.
``weak_cograph`` and ``kdom_cograph`` take trees without spider nodes.
They tabulate T(q) for q in {0..k}: the cheapest weight on a subtree when
the outside already adds q to every neighborhood sum (help beyond k
counts as k).  T is non-increasing with T(k) = 0, and any total from T(q)
up to k per vertex is reached by padding.  A union adds its sides'
tables.  A join of sides A and B with totals c1 and c2 lends each side
the other's total, so it needs A(q + c2) <= c1 and B(q + c1) <= c2.
With need(c2) the least help at which B is at most c2, the cheapest c1
for a given c2 is max(A(q + c2), need(c2) - q), which never exceeds
k|A|, so

    T(q) = min over c2 in 0..min(2k, k|B|) of c2 + max(A(q + c2), need(c2) - q).

Weight k on one vertex of each side always works, so 2k bounds c2; and
the scan over c2 stops once c2 reaches the best total found, since no
later total is below its c2.  The first c2 that reaches the minimum is
stored per node and q, and the witness reads each split back from it.

A tree's node ids are its bottom-up order (children below their parent,
the root last), and the constructor stores every node's size and leaf
span; so each DP is a plain loop over the ids, and deep trees are safe
to solve.  ``parse_cotree`` is the exception: it recurses once per
nesting level, so a text nested deeper than the interpreter's recursion
limit is refused with ``CotreeParseError``.
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass
from itertools import accumulate

from .graph import Graph
from .semantics import RainbowFunction, WeightFunction

__all__ = [
    "Cotree",
    "CotreeBuilder",
    "CotreeParseError",
    "CographRefusal",
    "SpiderPartition",
    "parse_cotree",
    "decompose",
    "recognize_cograph",
    "cotree_to_graph",
    "rainbow_cograph",
    "weak_cograph",
    "kdom_cograph",
    "random_cotree",
    "find_induced_p4",
    "induced_p4s",
]

INF = float("inf")


class CotreeParseError(ValueError):
    pass


@dataclass(frozen=True)
class CographRefusal:
    """Witness that the input is not a cograph: an induced path on 4 vertices."""

    p4: tuple[int, int, int, int]


@dataclass(frozen=True)
class SpiderPartition:
    """Feet S, body K (positionally matched), optional head T.  A thin
    spider matches each foot to one body vertex; a thick spider matches
    each foot to all body vertices but one."""

    kind: str  # 'thin' | 'thick'
    feet: tuple[int, ...]
    body: tuple[int, ...]
    head: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in ("thin", "thick"):
            raise ValueError("spider kind must be 'thin' or 'thick'")
        if len(self.feet) != len(self.body) or len(self.feet) < 2:
            raise ValueError("need |S| = |K| >= 2")


class Cotree:
    """Rooted decomposition tree stored as parallel arrays indexed by node id.

    ``kind[v]`` is 'L' (a leaf carrying vertex ``leaf_vertex[v]``), 'U' or
    'J' (union or join of ``left[v]`` and ``right[v]``), or 'S' (spider
    ``spider[v]``, whose head subtree is ``left[v]``, or -1 without a
    head).  Leaves and spider feet and bodies carry the vertices 0..n-1,
    each once; ``n`` is their count.

    Node ids are a bottom-up order: every child id is below its parent's,
    every node but the root has one parent, and the root is the last id.
    So ``range(len(kind))`` visits children before parents, and its
    reverse visits parents first.  ``seq`` lists all vertices left to
    right and node v's vertices are ``seq[start[v]:start[v] + size[v]]``;
    a spider lists its feet, then its body, then its head's vertices.
    """

    __slots__ = ("kind", "left", "right", "leaf_vertex", "spider", "root", "size",
                 "n", "seq", "start")

    def __init__(self, kind, left, right, leaf_vertex, root, spider=None):
        nk = len(kind)
        if not nk or root != nk - 1:
            raise ValueError("the root must be the last node id")
        self.kind = kind
        self.left = left
        self.right = right
        self.leaf_vertex = leaf_vertex
        spider = self.spider = spider if spider is not None else [None] * nk
        self.root = root
        size = self.size = [1] * nk
        parents = [0] * nk
        for v in range(nk):
            kv = kind[v]
            if kv == "L":
                continue
            if kv == "S":
                size[v] = 2 * len(spider[v].feet)
                kids = (left[v],) if left[v] != -1 else ()
            else:
                size[v] = 0
                kids = (left[v], right[v])
            for c in kids:
                if not 0 <= c < v:
                    raise ValueError(f"child {c} of node {v} is not below its parent")
                parents[c] += 1
                size[v] += size[c]
        if parents.count(1) != nk - 1:
            raise ValueError("every node but the root needs exactly one parent")
        n = self.n = size[root]
        seq = self.seq = [-1] * n
        start = self.start = [0] * nk
        for v in reversed(range(nk)):
            kv, s = kind[v], start[v]
            if kv == "L":
                seq[s] = leaf_vertex[v]
            elif kv == "S":
                sp = spider[v]
                m = len(sp.feet)
                seq[s:s + m] = sp.feet
                seq[s + m:s + 2 * m] = sp.body
                if left[v] != -1:
                    start[left[v]] = s + 2 * m
            else:
                a = left[v]
                start[a] = s
                start[right[v]] = s + size[a]
        if set(seq) != set(range(n)):
            raise ValueError("vertices must be exactly 0..n-1 without repeats")
        if "S" in kind:
            for v, sp in enumerate(spider):
                if sp is not None:  # the head is what the head subtree holds
                    s = start[v]
                    head = tuple(seq[s + 2 * len(sp.feet):s + size[v]])
                    spider[v] = SpiderPartition(sp.kind, sp.feet, sp.body, head)

    def open_sums(self, x) -> list:
        """Per vertex, the sum of ``x`` over its neighbours, in O(n) and
        without an edge.  Top down, ``out[v]`` is what every vertex of
        node v sees from outside it: a join adds each side's total to the
        other side, a union adds nothing, and a spider applies its rules
        to its feet and body and adds the body to its head.  Node totals
        are differences of prefix sums over the leaf spans."""
        kind, left, right, seq, start, size = (
            self.kind, self.left, self.right, self.seq, self.start, self.size)
        pre = [0]
        pre += accumulate([x[v] for v in seq])

        def total(v: int) -> int:
            return pre[start[v] + size[v]] - pre[start[v]]

        out = [0] * len(kind)
        sums = [0] * self.n
        for v in reversed(range(len(kind))):
            kv, o = kind[v], out[v]
            if kv == "L":
                sums[self.leaf_vertex[v]] = o
            elif kv == "U":
                out[left[v]] = out[right[v]] = o
            elif kv == "J":
                a, b = left[v], right[v]
                out[a] = o + total(b)
                out[b] = o + total(a)
            else:
                sp = self.spider[v]
                m, s = len(sp.feet), start[v]
                feet = pre[s + m] - pre[s]
                body = pre[s + 2 * m] - pre[s + m]
                head = pre[s + size[v]] - pre[s + 2 * m]
                if left[v] != -1:
                    out[left[v]] = o + body
                # thin: foot i sees body i; thick: every body vertex but that one
                for f, y in zip(sp.feet, sp.body):
                    if sp.kind == "thin":
                        sums[f] = o + x[y]
                        sums[y] = o + body - x[y] + head + x[f]
                    else:
                        sums[f] = o + body - x[y]
                        sums[y] = o + body - x[y] + head + feet - x[f]
        return sums

    def to_text(self) -> str:
        parts: list[str] = [""] * len(self.kind)
        for v, kv in enumerate(self.kind):
            if kv == "L":
                parts[v] = str(self.leaf_vertex[v])
            elif kv == "S":
                sp = self.spider[v]
                feet = " ".join(map(str, sp.feet))
                body = " ".join(map(str, sp.body))
                head = f" {parts[self.left[v]]}" if self.left[v] != -1 else ""
                parts[v] = f"(S {sp.kind} ({feet}) ({body}){head})"
            else:
                parts[v] = f"({kv} {parts[self.left[v]]} {parts[self.right[v]]})"
        return parts[self.root]


class CotreeBuilder:
    """Appends nodes to the parallel arrays; each method returns the new
    node's id, and ``tree(root)`` checks and wraps the result."""

    def __init__(self):
        self.kind, self.left, self.right = [], [], []
        self.leaf_vertex, self.spider = [], []

    def _add(self, kind, left, right, leaf_vertex, spider) -> int:
        self.kind.append(kind)
        self.left.append(left)
        self.right.append(right)
        self.leaf_vertex.append(leaf_vertex)
        self.spider.append(spider)
        return len(self.kind) - 1

    def leaf(self, v: int) -> int:
        return self._add("L", -1, -1, v, None)

    def node(self, tag: str, a: int, b: int) -> int:
        return self._add(tag, a, b, -1, None)

    def spider_node(self, sp: SpiderPartition, head: int = -1) -> int:
        return self._add("S", head, -1, -1, sp)

    def tree(self, root: int) -> Cotree:
        return Cotree(self.kind, self.left, self.right, self.leaf_vertex, root,
                      self.spider)


def parse_cotree(text: str) -> Cotree:
    """Parse a parenthesized tree such as ``(J (U 0 1) 2)``: leaves are
    vertex ids, U and J nodes have two children, and a spider node is
    ``(S thin|thick (feet..) (body..) [head])``."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0
    b = CotreeBuilder()

    def take() -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise CotreeParseError("unexpected end of input")
        pos += 1
        return tokens[pos - 1]

    def expect(tok: str) -> None:
        if take() != tok:
            raise CotreeParseError(f"expected {tok!r} at token {pos - 1}")

    def vertex(tok: str) -> int:
        try:
            return int(tok)
        except ValueError:
            raise CotreeParseError(f"unexpected token {tok!r}") from None

    def int_list() -> tuple[int, ...]:
        expect("(")
        out = []
        while (tok := take()) != ")":
            out.append(vertex(tok))
        return tuple(out)

    def parse() -> int:
        tok = take()
        if tok != "(":
            return b.leaf(vertex(tok))
        tag = take()
        if tag in ("U", "J"):
            node = b.node(tag, parse(), parse())
        elif tag == "S":
            kind = take()
            if kind not in ("thin", "thick"):
                raise CotreeParseError(f"bad spider kind {kind!r}")
            feet, body = int_list(), int_list()
            try:
                sp = SpiderPartition(kind, feet, body, ())
            except ValueError as exc:
                raise CotreeParseError(str(exc)) from None
            head = parse() if pos < len(tokens) and tokens[pos] != ")" else -1
            node = b.spider_node(sp, head)
        else:
            raise CotreeParseError(f"unknown tag {tag!r}")
        expect(")")
        return node

    try:
        root = parse()
    except RecursionError:
        raise CotreeParseError("tree nested too deeply to parse") from None
    if pos != len(tokens):
        raise CotreeParseError("trailing input after tree")
    try:
        return b.tree(root)
    except ValueError as exc:
        raise CotreeParseError(str(exc)) from None


def induced_p4s(g: Graph, vertices=None):
    """Every induced 4-vertex path (a, b, c, d), with edges ab, bc and cd,
    in index order of b, then c, a and d.  Each candidate set is one set
    difference: a in N(b) - N[c], d in N(c) - N[b] - N(a)."""
    vs = sorted(vertices) if vertices is not None else range(g.n)
    vset = set(vs)
    nbs = {v: g.neighbors(v) & vset for v in vs}
    for b in vs:
        nbb = nbs[b]
        for c in sorted(nbb):
            nbc = nbs[c]
            starts = nbb - nbc - {c}
            if starts:
                ends = nbc - nbb - {b}
                for a in sorted(starts):
                    for d in sorted(ends - nbs[a]):
                        yield (a, b, c, d)


def find_induced_p4(g: Graph, vertices=None) -> tuple[int, int, int, int] | None:
    """First induced 4-vertex path (a-b-c-d) of ``induced_p4s``."""
    return next(induced_p4s(g, vertices), None)


def decompose(g: Graph, stuck):
    """Split g by unions and joins into a Cotree; multiway splits are
    binarized left to right.

    A vertex set of two or more that is neither disconnected nor
    co-disconnected goes to ``stuck(g, vs)``, with vs sorted.  It returns
    a ``SpiderPartition``, and the split goes on with its head, or any
    other value, which is returned as the refusal.

    Every node's vertex set is a module (Corneil, Perl & Stewart 1985):
    its vertices have the same number ``out`` of neighbours outside it.
    So each piece carries ``out`` (0 for the whole graph, unchanged for a
    union part, plus the other parts' size for a join part, plus the body
    for a spider's head) and reads its inner degrees off the graph's.  A
    piece with an isolated vertex is a union, one with a universal vertex
    a join; those vertices are single parts, and the rest is one more
    part when one of its vertices sees all of it (union) or none of it
    (join), so threshold graphs split with no search.  Other pieces are
    split by ``Graph.components`` or ``Graph.co_components``.  Either way
    the parts are ordered by smallest vertex, as those return them.

    The split runs top down on an explicit stack, depth first in part
    order, so the first stuck vertex set does not depend on the depth.
    It records each node as a vertex (a leaf), (tag, part count) or a
    spider partition; node ids follow the reversed list, which builds
    every subtree before its parent."""
    if g.n == 0:
        raise ValueError("empty graph has no decomposition tree")
    degree = list(map(g.degree, range(g.n)))
    records: list = []
    todo: list[tuple[list[int], int]] = [(list(range(g.n)), 0)]
    while todo:
        vs, out = todo.pop()
        size = len(vs)
        if size == 1:
            records.append(vs[0])
            continue
        ds = list(map(degree.__getitem__, vs))
        lo, hi = min(ds) - out, max(ds) - out
        if lo == 0 or hi == size - 1:
            tag, peel = ("U", out) if lo == 0 else ("J", out + size - 1)
            parts = [[v] for v, d in zip(vs, ds) if d == peel]
            rest = [v for v, d in zip(vs, ds) if d != peel]
            if rest and (hi == len(rest) - 1 if tag == "U" else lo == len(parts)):
                # a vertex of the rest sees all of it (union) or none of it
                # (join); lists compare by their differing first vertices
                insort(parts, rest)
            elif rest:
                parts = g.components(vs) if tag == "U" else g.co_components(vs)
        else:
            tag, parts = "U", g.components(vs)
            if len(parts) == 1:
                tag, parts = "J", g.co_components(vs)
        if len(parts) > 1:
            records.append((tag, len(parts)))
            todo += ((p, out if tag == "U" else out + size - len(p))
                     for p in reversed(parts))
            continue
        sp = stuck(g, vs)
        if not isinstance(sp, SpiderPartition):
            return sp
        records.append(sp)
        if sp.head:
            todo.append((list(sp.head), out + len(sp.body)))
    b = CotreeBuilder()
    done: list[int] = []  # finished subtree roots, the leftmost part on top
    for rec in reversed(records):
        if isinstance(rec, int):
            done.append(b.leaf(rec))
        elif isinstance(rec, SpiderPartition):
            done.append(b.spider_node(rec, done.pop() if rec.head else -1))
        else:
            tag, m = rec
            node = done.pop()
            for _ in range(m - 1):
                node = b.node(tag, node, done.pop())
            done.append(node)
    return b.tree(done[0])


def _p4_refusal(g: Graph, vs: list[int]) -> CographRefusal:
    p4 = find_induced_p4(g, vs)
    assert p4 is not None, "undecomposable subgraph must contain a P4"
    return CographRefusal(p4)


def recognize_cograph(g: Graph):
    """A Cotree without spider nodes, or a refusal carrying an induced P4."""
    return decompose(g, _p4_refusal)


def cotree_to_graph(t: Cotree) -> Graph:
    seq, start, size = t.seq, t.start, t.size
    adj: list[set[int]] = [set() for _ in range(t.n)]
    for v, kv in enumerate(t.kind):
        if kv == "J":
            a, b = t.left[v], t.right[v]
            left = seq[start[a]:start[a] + size[a]]
            right = seq[start[b]:start[b] + size[b]]
            for x in left:
                adj[x].update(right)
            for y in right:
                adj[y].update(left)
        elif kv == "S":
            sp = t.spider[v]
            body = set(sp.body)
            for x in sp.body:
                adj[x].update(body, sp.head)
                adj[x].discard(x)
            for h in sp.head:
                adj[h].update(body)
            # thin: foot i sees body i; thick: every body vertex but that one
            if sp.kind == "thin":
                for f, x in zip(sp.feet, sp.body):
                    adj[f].add(x)
                    adj[x].add(f)
            else:
                feet = set(sp.feet)
                for f, x in zip(sp.feet, sp.body):
                    adj[f].update(body)
                    adj[f].discard(x)
                    adj[x].update(feet)
                    adj[x].discard(f)
    return Graph(t.n, adj=adj)


# --- rainbow DP --------------------------------------------------------------

# Per node kind, the fills of the (left, right) sides for each branch of
# the cheapest function with an empty label, in the order that
# ``rainbow_cograph`` lists the branch costs.  "ones" gives every vertex
# color 1, "plus" is the cheapest all-nonempty cover of all k colors,
# "all" puts all k colors on the first vertex, "minus" recurses and None
# leaves the side empty.
_FILLS = {
    "U": (("minus", "ones"), ("ones", "minus"), ("minus", "minus")),
    "J": (("plus", None), (None, "plus"), ("minus", None), (None, "minus"),
          ("all", "all")),
}


def rainbow_cograph(t: Cotree, k: int, want_witness: bool = True):
    """Exact k-rainbow domination number of the graph the tree encodes,
    with a validating witness that replays each node's stored branch."""
    if k < 1:
        raise ValueError("k must be at least 1")
    size, kind, left, right = t.size, t.kind, t.left, t.right
    # cheapest all-nonempty cover of all k colors
    rp = [sz if sz > k else k for sz in size]
    # cheapest function with some empty label; a leaf has none, and every
    # finite rm[v] is at most size[v] + 2k, so n + 2k + 1 stands for none
    rm = [t.n + 2 * k + 1] * len(kind)
    pick = [0] * len(kind)  # the first branch of _FILLS[kind[v]] reaching rm[v]
    for v, kv in enumerate(kind):
        if kv == "L":
            continue
        if kv == "S":
            rm[v] = len(t.spider[v].feet) - 1 + k if t.spider[v].kind == "thin" else k + 1
            continue
        a, b = left[v], right[v]
        if kv == "U":
            costs = (rm[a] + size[b], rm[b] + size[a], rm[a] + rm[b])
        else:
            costs = (rp[a], rp[b], rm[a], rm[b], 2 * k)
        rm[v] = best = min(costs)
        pick[v] = costs.index(best)
    value = min(t.n, rm[t.root])
    if not want_witness:
        return value, None

    seq, start = t.seq, t.start
    one = frozenset({1})
    labels: list[frozenset[int]] = [frozenset()] * t.n
    todo = [(t.root, "ones" if t.n <= rm[t.root] else "minus")]
    while todo:
        v, fill = todo.pop()
        if fill == "ones":
            for x in seq[start[v]:start[v] + size[v]]:
                labels[x] = one
        elif fill == "plus":
            vs = seq[start[v]:start[v] + size[v]]
            if len(vs) >= k:
                for i, x in enumerate(vs):
                    labels[x] = frozenset({i % k + 1})
            else:
                labels[vs[0]] = frozenset({1, *range(len(vs) + 1, k + 1)})
                for i in range(1, len(vs)):
                    labels[vs[i]] = frozenset({i + 1})
        elif fill == "all":
            labels[seq[start[v]]] = frozenset(range(1, k + 1))
        elif kind[v] == "S":
            # a body vertex carries all colors; thin: every other foot
            # takes a single color; thick: only its excluded foot does
            sp = t.spider[v]
            labels[sp.body[0]] = frozenset(range(1, k + 1))
            for f in sp.feet[1:] if sp.kind == "thin" else sp.feet[:1]:
                labels[f] = one
        else:
            fa, fb = _FILLS[kind[v]][pick[v]]
            if fa:
                todo.append((left[v], fa))
            if fb:
                todo.append((right[v], fb))
    return value, RainbowFunction(k, tuple(labels))


# --- weight DPs ---------------------------------------------------------------


def _join(ta, tb, k, cap2):
    """A join's table, and the c2 it picks for each q, from its sides'
    tables ta and tb; cap2 bounds side b's total."""
    need = []  # need[c]: least help at which tb is at most c
    h = k
    for c in range(cap2 + 1):
        while h and tb[h - 1] <= c:
            h -= 1
        need.append(h)
    pad = ta + [0] * cap2  # help beyond k counts as k, and ta[k] = 0
    table, picks = [], []
    for q in range(k + 1):
        best, pick = INF, 0
        for c2 in range(cap2 + 1):
            if c2 >= best:
                break
            c1 = pad[q + c2]
            if need[c2] - q > c1:
                c1 = need[c2] - q
            if c1 + c2 < best:
                best, pick = c1 + c2, c2
        table.append(best)
        picks.append(pick)
    return table, picks


def _weight_dp(t: Cotree, k: int, leaf: list, want_witness: bool):
    """The weak {k} or {k} value and, if wanted, a witness.

    ``leaf[q]`` is the cheapest weight of a lone vertex whose
    neighborhood already receives q from outside.  ``picks[v][q]`` is
    the total that node v's right side takes; the left side takes the
    rest of ``tables[v][q]``.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    kind, left, right, size = t.kind, t.left, t.right, t.size
    tables: list = [leaf] * len(kind)
    picks: list = [None] * len(kind)
    for v, kv in enumerate(kind):
        if kv == "L":
            continue
        if kv == "S":
            raise ValueError("the weak {k} and {k} DPs take no spider nodes")
        ta, tb = tables[left[v]], tables[right[v]]
        if kv == "U":
            tables[v] = [x + y for x, y in zip(ta, tb)]
            picks[v] = tb
        else:
            tables[v], picks[v] = _join(ta, tb, k, min(2 * k, k * size[right[v]]))
    value = tables[t.root][0]
    if not want_witness:
        return value, None

    weights = [0] * t.n
    # realize(node, q, target): tables[node][q] <= target <= k * size
    stack = [(t.root, 0, value)]
    while stack:
        node, q, target = stack.pop()
        if kind[node] == "L":
            weights[t.leaf_vertex[node]] = target
            continue
        a, b = left[node], right[node]
        c2 = picks[node][q]
        c1 = tables[node][q] - c2
        qa, qb = (min(q + c2, k), min(q + c1, k)) if kind[node] == "J" else (q, q)
        extra = target - c1 - c2
        give1 = min(extra, k * size[a] - c1)
        stack.append((a, qa, c1 + give1))
        stack.append((b, qb, c2 + extra - give1))
    return value, WeightFunction(k, tuple(weights))


def weak_cograph(t: Cotree, k: int, want_witness: bool = True):
    """Weak {k}-domination number of the encoded cograph, with witness."""
    return _weight_dp(t, k, [1] * k + [0], want_witness)


def kdom_cograph(t: Cotree, k: int, want_witness: bool = True):
    """{k}-domination number: closed neighborhoods must reach k everywhere."""
    return _weight_dp(t, k, list(range(k, -1, -1)), want_witness)


def random_cotree(n_leaves: int, seed: int) -> Cotree:
    """Deterministic random binary cotree on n leaves."""
    if n_leaves < 1:
        raise ValueError("need at least one leaf")
    rng = random.Random(seed)
    b = CotreeBuilder()

    # iterative random parenthesization of the leaf range
    result: dict[tuple[int, int], int] = {}
    stack = [(0, n_leaves, False)]
    splits: dict[tuple[int, int], int] = {}
    while stack:
        lo, hi, expanded = stack.pop()
        if hi - lo == 1:
            result[(lo, hi)] = b.leaf(lo)
            continue
        if not expanded:
            mid = rng.randint(lo + 1, hi - 1)
            splits[(lo, hi)] = mid
            stack.append((lo, hi, True))
            stack.append((mid, hi, False))
            stack.append((lo, mid, False))
        else:
            mid = splits[(lo, hi)]
            tag = "U" if rng.random() < 0.5 else "J"
            result[(lo, hi)] = b.node(tag, result[(lo, mid)], result[(mid, hi)])
    return b.tree(result[(0, n_leaves)])
