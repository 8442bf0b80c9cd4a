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
all colors, its excluded foot takes a single color).
``weak_cograph`` and ``kdom_cograph`` tabulate, for q in {0..k}, the
cheapest weight vector valid when the outside already contributes q to
every neighborhood sum; they take trees without spider nodes.

A tree's node ids are its bottom-up order (children below their parent,
the root last), and the constructor stores every node's size and leaf
span; so each DP is a plain loop over the ids, and deep trees are safe
to solve.  ``parse_cotree`` is the exception: it recurses once per
nesting level, so a text nested deeper than the interpreter's recursion
limit raises RecursionError.
"""

from __future__ import annotations

import random
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

    root = parse()
    if pos != len(tokens):
        raise CotreeParseError("trailing input after tree")
    try:
        return b.tree(root)
    except ValueError as exc:
        raise CotreeParseError(str(exc)) from None


def find_induced_p4(g: Graph, vertices=None) -> tuple[int, int, int, int] | None:
    """First induced 4-vertex path (a-b-c-d), scanning in index order."""
    vs = sorted(vertices) if vertices is not None else list(range(g.n))
    vset = set(vs)
    for b in vs:
        for c in sorted(g.neighbors(b) & vset):
            for a in vs:
                if a in (b, c) or not g.has_edge(a, b) or g.has_edge(a, c):
                    continue
                for d in vs:
                    if d in (a, b, c):
                        continue
                    if g.has_edge(c, d) and not g.has_edge(b, d) and not g.has_edge(a, d):
                        return (a, b, c, d)
    return None


def decompose(g: Graph, stuck):
    """Split g by unions and joins into a Cotree; multiway splits are
    binarized left to right.

    A vertex set of two or more that is neither disconnected nor
    co-disconnected goes to ``stuck(g, vs)``.  It returns a pair (spider
    partition, head vertices), and the split goes on with the head, or
    any other value, which is returned as the refusal.

    The split runs on an explicit stack, depth first in part order, so the
    first stuck vertex set does not depend on the depth.  Node ids follow
    the order in which a recursive builder would create them: all parts of
    a split, then its left-to-right fold; a spider's head, then the
    spider."""
    if g.n == 0:
        raise ValueError("empty graph has no decomposition tree")
    b = CotreeBuilder()
    frames: list[list] = []  # [tag, parts, next part, part roots] | ["S", spider]
    vs: list[int] = list(range(g.n))
    while True:
        if len(vs) > 1:
            tag, parts = "U", g.components(vs)
            if len(parts) == 1:
                tag, parts = "J", g.co_components(vs)
            if len(parts) > 1:
                frames.append([tag, parts, 1, []])
                vs = parts[0]
                continue
            got = stuck(g, vs)
            if not isinstance(got, tuple):
                return got
            sp, head = got
            if head:
                frames.append(["S", sp])
                vs = head
                continue
            node = b.spider_node(sp)
        else:
            node = b.leaf(vs[0])
        while frames:
            frame = frames[-1]
            if frame[0] == "S":
                node = b.spider_node(frame[1], node)
                frames.pop()
                continue
            frame[3].append(node)
            if frame[2] < len(frame[1]):
                vs = frame[1][frame[2]]
                frame[2] += 1
                break
            frames.pop()
            roots = frame[3]
            node = roots[0]
            for r in roots[1:]:
                node = b.node(frame[0], node, r)
        else:
            return b.tree(node)


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


def rainbow_cograph(t: Cotree, k: int, want_witness: bool = True):
    """Exact k-rainbow domination number of the graph the tree encodes,
    with a validating witness reconstructed by backtracking."""
    if k < 1:
        raise ValueError("k must be at least 1")
    size, kind, left, right = t.size, t.kind, t.left, t.right
    # cheapest all-nonempty cover of all k colors
    rp = [sz if sz > k else k for sz in size]
    rm = [INF] * len(kind)  # cheapest function with some empty label
    for v, kv in enumerate(kind):
        if kv == "L":
            continue
        if kv == "S":
            rm[v] = len(t.spider[v].feet) - 1 + k if t.spider[v].kind == "thin" else k + 1
            continue
        a, b = left[v], right[v]
        if kv == "U":
            rm[v] = min(rm[a] + size[b], rm[b] + size[a], rm[a] + rm[b])
        else:
            rm[v] = min(rp[a], rp[b], rm[a], rm[b], 2 * k)
    value = min(t.n, rm[t.root])
    assert value != INF
    value = int(value)
    if not want_witness:
        return value, None

    seq, start = t.seq, t.start
    labels: list[frozenset[int]] = [frozenset()] * t.n

    def leaves(node: int) -> list[int]:
        return seq[start[node]:start[node] + size[node]]

    def fill_singletons(node: int) -> None:
        one = frozenset({1})
        for lv in leaves(node):
            labels[lv] = one

    def fill_plus_cover(node: int) -> None:
        # every leaf nonempty, all k colors used, cost max(size, k)
        ls = leaves(node)
        m = len(ls)
        if m >= k:
            for i, lv in enumerate(ls):
                labels[lv] = frozenset({(i % k) + 1})
        else:
            labels[ls[0]] = frozenset({1} | set(range(m + 1, k + 1)))
            for i in range(1, m):
                labels[ls[i]] = frozenset({i + 1})

    full = frozenset(range(1, k + 1))
    stack = [(t.root, "root")]
    while stack:
        node, mode = stack.pop()
        if mode == "root":
            if t.n <= rm[t.root]:
                fill_singletons(node)
            else:
                stack.append((node, "minus"))
        elif mode == "empty":
            pass  # labels default to empty
        elif mode == "singletons":
            fill_singletons(node)
        elif mode == "plus":
            fill_plus_cover(node)
        else:  # minus
            kindv = t.kind[node]
            assert kindv != "L", "a lone vertex admits no empty label"
            if kindv == "S":
                # a body vertex carries all colors; thin: every other foot
                # takes a single color; thick: only its excluded foot does
                sp = t.spider[node]
                labels[sp.body[0]] = full
                for f in sp.feet[1:] if sp.kind == "thin" else sp.feet[:1]:
                    labels[f] = frozenset({1})
                continue
            a, b = t.left[node], t.right[node]
            if kindv == "U":
                branches = (
                    (rm[a] + size[b], ("minus", "singletons")),
                    (rm[b] + size[a], ("singletons", "minus")),
                    (rm[a] + rm[b], ("minus", "minus")),
                )
                _, (ma, mb) = min(branches, key=lambda x: x[0])
                stack.append((a, ma))
                stack.append((b, mb))
            else:
                branches = (
                    (rp[a], ("plus", "empty")),
                    (rp[b], ("empty", "plus")),
                    (rm[a], ("minus", "empty")),
                    (rm[b], ("empty", "minus")),
                    (2 * k, ("kk", "kk")),
                )
                _, (ma, mb) = min(branches, key=lambda x: x[0])
                if ma == "kk":
                    labels[seq[start[a]]] = full
                    labels[seq[start[b]]] = full
                else:
                    stack.append((a, ma))
                    stack.append((b, mb))

    witness = RainbowFunction(k, tuple(labels))
    return value, witness


# --- weight DPs ---------------------------------------------------------------


def _join_best(w1, w2, q, k, cap1, cap2):
    """Cheapest feasible split (total, c1, c2) of a join node's cost given
    outside help q.

    A split is feasible when each side's table, consulted with the other
    side's total added to the help, asks for no more than that side's
    budget; budgets beyond a side's minimum are realizable by padding.
    The join optimum never exceeds 2k (one max-weight vertex per side), so
    budgets are scanned over the 2k-by-2k grid, capped by side capacity.
    """
    best = None
    for c2 in range(cap2 + 1):
        need1 = w1[q + c2 if q + c2 < k else k]
        if need1 > cap1:
            continue
        for c1 in range(need1, cap1 + 1):
            if best is not None and c1 + c2 >= best[0]:
                break
            if w2[q + c1 if q + c1 < k else k] <= c2:
                cand = (c1 + c2, c1, c2)
                if best is None or cand < best:
                    best = cand
                break  # larger c1 only costs more for this c2
    assert best is not None, "a join always admits a split of cost <= 2k"
    return best


def _weight_dp(t: Cotree, k: int, leaf_value, want_witness: bool):
    """Shared table machinery for the weak {k} and {k} variants.

    leaf_value(q) gives the cheapest weight of a lone vertex whose
    neighborhood already receives q from outside.
    """
    size = t.size
    tables: list[list[int]] = [None] * len(t.kind)  # type: ignore[list-item]
    for v, kv in enumerate(t.kind):
        if kv == "L":
            tables[v] = [leaf_value(q) for q in range(k + 1)]
        elif kv == "U":
            ta, tb = tables[t.left[v]], tables[t.right[v]]
            tables[v] = [ta[q] + tb[q] for q in range(k + 1)]
        elif kv == "S":
            raise ValueError("the weak {k} and {k} DPs take no spider nodes")
        else:
            a, b = t.left[v], t.right[v]
            cap1 = min(2 * k, k * size[a])
            cap2 = min(2 * k, k * size[b])
            tables[v] = [
                _join_best(tables[a], tables[b], q, k, cap1, cap2)[0]
                for q in range(k + 1)
            ]
    value = tables[t.root][0]
    if not want_witness:
        return value, None

    weights = [0] * t.n
    # realize(node, q, target): target >= table[q], target <= k * size
    stack = [(t.root, 0, value)]
    while stack:
        node, q, target = stack.pop()
        if t.kind[node] == "L":
            weights[t.leaf_vertex[node]] = target
            continue
        a, b = t.left[node], t.right[node]
        ta, tb = tables[a], tables[b]
        if t.kind[node] == "U":
            base1, base2 = ta[q], tb[q]
            extra = target - base1 - base2
            give1 = min(extra, k * t.size[a] - base1)
            stack.append((a, q, base1 + give1))
            stack.append((b, q, base2 + extra - give1))
        else:
            cap1 = min(2 * k, k * t.size[a])
            cap2 = min(2 * k, k * t.size[b])
            _, c1, c2 = _join_best(ta, tb, q, k, cap1, cap2)
            extra = target - c1 - c2
            give1 = min(extra, k * t.size[a] - c1)
            stack.append((a, min(q + c2, k), c1 + give1))
            stack.append((b, min(q + c1, k), c2 + extra - give1))
    return value, weights


def weak_cograph(t: Cotree, k: int, want_witness: bool = True):
    """Weak {k}-domination number of the encoded cograph, with witness."""
    if k < 1:
        raise ValueError("k must be at least 1")
    value, weights = _weight_dp(
        t, k, lambda q: 0 if q >= k else 1, want_witness
    )
    if weights is None:
        return value, None
    return value, WeightFunction(k, tuple(weights))


def kdom_cograph(t: Cotree, k: int, want_witness: bool = True):
    """{k}-domination number: closed neighborhoods must reach k everywhere."""
    if k < 1:
        raise ValueError("k must be at least 1")
    value, weights = _weight_dp(
        t, k, lambda q: max(0, k - q), want_witness
    )
    if weights is None:
        return value, None
    return value, WeightFunction(k, tuple(weights))


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
