"""Cotree construction and the linear-time dynamic programs on cographs.

``rainbow_cograph`` evaluates, per cotree node, the cheapest rainbow
function with no empty label that uses all k colors (a closed form:
max(subtree size, k)) and the cheapest one with at least one empty label.
``weak_cograph`` and ``kdom_cograph`` tabulate, for q in {0..k}, the
cheapest weight vector valid when the outside already contributes q to
every neighborhood sum.

All traversals are iterative so deep trees are safe.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graph import Graph
from .semantics import RainbowFunction, WeightFunction

__all__ = [
    "Cotree",
    "CotreeParseError",
    "CographRefusal",
    "parse_cotree",
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


class Cotree:
    """Rooted binary decomposition tree; internal nodes are unions or joins.

    Stored as parallel arrays indexed by node id; leaves carry distinct
    vertex indices 0..n-1.
    """

    __slots__ = ("kind", "left", "right", "leaf_vertex", "root", "size", "n_leaves")

    def __init__(self, kind, left, right, leaf_vertex, root):
        self.kind = kind          # 'L' | 'U' | 'J'
        self.left = left
        self.right = right
        self.leaf_vertex = leaf_vertex
        self.root = root
        self.size = [0] * len(kind)
        for v in self.post_order():
            if kind[v] == "L":
                self.size[v] = 1
            else:
                self.size[v] = self.size[left[v]] + self.size[right[v]]
        self.n_leaves = self.size[root]
        self._validate()

    def _validate(self):
        seen = set()
        for v in range(len(self.kind)):
            if self.kind[v] == "L":
                seen.add(self.leaf_vertex[v])
        if seen != set(range(self.n_leaves)):
            raise ValueError("leaves must carry exactly the vertices 0..n-1")

    def post_order(self) -> list[int]:
        order = []
        stack = [(self.root, False)]
        while stack:
            v, expanded = stack.pop()
            if expanded or self.kind[v] == "L":
                order.append(v)
            else:
                stack.append((v, True))
                stack.append((self.right[v], False))
                stack.append((self.left[v], False))
        return order

    def leaf_spans(self) -> tuple[list[int], list[int]]:
        """All leaf vertices left to right, and per node the index of its
        first one: node v's leaves are seq[start[v]:start[v] + size[v]]."""
        seq: list[int] = []
        start = [0] * len(self.kind)
        for v in self.post_order():
            if self.kind[v] == "L":
                start[v] = len(seq)
                seq.append(self.leaf_vertex[v])
            else:
                start[v] = start[self.left[v]]
        return seq, start

    @staticmethod
    def from_expr(expr) -> "Cotree":
        kind, left, right, leaf_vertex = [], [], [], []

        def add(e) -> int:
            if isinstance(e, int):
                kind.append("L")
                left.append(-1)
                right.append(-1)
                leaf_vertex.append(e)
                return len(kind) - 1
            tag, a, b = e
            ia, ib = add(a), add(b)
            kind.append(tag)
            left.append(ia)
            right.append(ib)
            leaf_vertex.append(-1)
            return len(kind) - 1

        root = add(expr)
        return Cotree(kind, left, right, leaf_vertex, root)

    def to_text(self) -> str:
        parts: dict[int, str] = {}
        for v in self.post_order():
            if self.kind[v] == "L":
                parts[v] = str(self.leaf_vertex[v])
            else:
                parts[v] = f"({self.kind[v]} {parts[self.left[v]]} {parts[self.right[v]]})"
        return parts[self.root]


def parse_cotree(text: str) -> Cotree:
    """Parse a parenthesized binary cotree such as ``(J (U 0 1) 2)``."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def parse():
        nonlocal pos
        if pos >= len(tokens):
            raise CotreeParseError("unexpected end of input")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            if pos >= len(tokens) or tokens[pos] not in ("U", "J"):
                raise CotreeParseError("expected tag U or J after '('")
            tag = tokens[pos]
            pos += 1
            children = []
            while pos < len(tokens) and tokens[pos] != ")":
                children.append(parse())
            if pos >= len(tokens):
                raise CotreeParseError("missing ')'")
            pos += 1
            if len(children) != 2:
                raise CotreeParseError(
                    f"node {tag} has {len(children)} children, expected 2"
                )
            return (tag, children[0], children[1])
        if tok == ")":
            raise CotreeParseError("unexpected ')'")
        try:
            return int(tok)
        except ValueError:
            raise CotreeParseError(f"unexpected token {tok!r}") from None

    expr = parse()
    if pos != len(tokens):
        raise CotreeParseError("trailing input after cotree")
    try:
        return Cotree.from_expr(expr)
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


def recognize_cograph(g: Graph):
    """Decompose by repeated union/join splits; multiway splits are
    binarized left to right.  Returns a Cotree or a refusal carrying an
    induced P4.

    The split runs on an explicit stack, depth first in part order, so the
    first stuck vertex set (and its P4) does not depend on the depth."""
    if g.n == 0:
        raise ValueError("empty graph has no cotree")
    kind: list[str] = []
    left: list[int] = []
    right: list[int] = []
    leaf_vertex: list[int] = []
    frames: list[list] = []  # [tag, parts, next part, folded node so far]
    vs: list[int] = list(range(g.n))
    while True:
        if len(vs) > 1:
            tag, parts = "U", g.components(vs)
            if len(parts) == 1:
                tag, parts = "J", g.co_components(vs)
                if len(parts) == 1:
                    p4 = find_induced_p4(g, vs)
                    assert p4 is not None, "undecomposable subgraph must contain a P4"
                    return CographRefusal(p4)
            frames.append([tag, parts, 1, -1])
            vs = parts[0]
            continue
        kind.append("L")
        left.append(-1)
        right.append(-1)
        leaf_vertex.append(vs[0])
        node = len(kind) - 1
        while frames:
            frame = frames[-1]
            if frame[3] != -1:
                kind.append(frame[0])
                left.append(frame[3])
                right.append(node)
                leaf_vertex.append(-1)
                node = len(kind) - 1
            frame[3] = node
            if frame[2] < len(frame[1]):
                vs = frame[1][frame[2]]
                frame[2] += 1
                break
            frames.pop()
        else:
            return Cotree(kind, left, right, leaf_vertex, node)


def cotree_to_graph(t: Cotree) -> Graph:
    seq, start = t.leaf_spans()
    size = t.size
    adj: list[set[int]] = [set() for _ in range(t.n_leaves)]
    for v in t.post_order():
        if t.kind[v] == "J":
            a, b = t.left[v], t.right[v]
            left = seq[start[a]:start[a] + size[a]]
            right = seq[start[b]:start[b] + size[b]]
            for x in left:
                adj[x].update(right)
            for y in right:
                adj[y].update(left)
    return Graph(t.n_leaves, adj=adj)


# --- rainbow DP --------------------------------------------------------------


def rainbow_cograph(t: Cotree, k: int, want_witness: bool = True):
    """Exact k-rainbow domination number of the cograph the cotree encodes,
    with a validating witness reconstructed by backtracking."""
    if k < 1:
        raise ValueError("k must be at least 1")
    size, kind, left, right = t.size, t.kind, t.left, t.right
    # cheapest all-nonempty cover of all k colors
    rp = [sz if sz > k else k for sz in size]
    rm = [INF] * len(kind)  # cheapest function with some empty label
    for v in t.post_order():
        kv = kind[v]
        if kv == "L":
            continue
        a, b = left[v], right[v]
        if kv == "U":
            rm[v] = min(rm[a] + size[b], rm[b] + size[a], rm[a] + rm[b])
        else:
            rm[v] = min(rp[a], rp[b], rm[a], rm[b], 2 * k)
    value = min(t.n_leaves, rm[t.root])
    assert value != INF
    value = int(value)
    if not want_witness:
        return value, None

    seq, start = t.leaf_spans()
    labels: list[frozenset[int]] = [frozenset()] * t.n_leaves

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
            if t.n_leaves <= rm[t.root]:
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
    order = t.post_order()
    size = t.size
    nk = len(t.kind)
    tables: list[list[int]] = [None] * nk  # type: ignore[list-item]
    for v in order:
        if t.kind[v] == "L":
            tables[v] = [leaf_value(q) for q in range(k + 1)]
        elif t.kind[v] == "U":
            ta, tb = tables[t.left[v]], tables[t.right[v]]
            tables[v] = [ta[q] + tb[q] for q in range(k + 1)]
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

    weights = [0] * t.n_leaves
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
    kind, left, right, leaf_vertex = [], [], [], []

    def leaf(v: int) -> int:
        kind.append("L")
        left.append(-1)
        right.append(-1)
        leaf_vertex.append(v)
        return len(kind) - 1

    def internal(tag: str, a: int, b: int) -> int:
        kind.append(tag)
        left.append(a)
        right.append(b)
        leaf_vertex.append(-1)
        return len(kind) - 1

    # iterative random parenthesization of the leaf range
    result: dict[tuple[int, int], int] = {}
    stack = [(0, n_leaves, False)]
    splits: dict[tuple[int, int], int] = {}
    while stack:
        lo, hi, expanded = stack.pop()
        if hi - lo == 1:
            result[(lo, hi)] = leaf(lo)
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
            result[(lo, hi)] = internal(tag, result[(lo, mid)], result[(mid, hi)])
    return Cotree(kind, left, right, leaf_vertex, result[(0, n_leaves)])
