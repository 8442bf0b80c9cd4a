"""Spider decomposition and the rainbow DP extension beyond cographs.

A graph in this class decomposes by unions, joins, and spider nodes.  A
thin spider matches each foot to one body vertex; a thick spider matches
each foot to all body vertices but one.  Head internals never affect the
spider's contribution: in the cheapest coloring with an empty label, one
body vertex carries all k colors and every head vertex sees it, so the
head can stay entirely empty.

Spider contributions to the union/join recursion:

* thin:  |S| - 1 + k   (one foot empty, its partner carries all colors)
* thick: k + 1         (one body vertex carries all colors, its excluded
                        foot takes a single color); for |S| = 2 the thin
                        and thick shapes coincide and so do the formulas.

The thick closed form is certified against the oracle over the test grid
rather than trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graph import Graph, complement
from .semantics import RainbowFunction

__all__ = [
    "SpiderPartition",
    "P4SparseTree",
    "P4SparseRefusal",
    "P4TreeParseError",
    "parse_p4sparse_tree",
    "render_p4sparse_tree",
    "recognize_p4sparse",
    "p4sparse_to_graph",
    "rainbow_thin_spider",
    "rainbow_thick_spider",
    "rainbow_p4sparse",
    "check_spider",
    "count_induced_p4s",
    "is_p4_sparse_bruteforce",
]


@dataclass(frozen=True)
class SpiderPartition:
    """Feet S, body K (positionally matched), optional head T."""

    kind: str  # 'thin' | 'thick'
    feet: tuple[int, ...]
    body: tuple[int, ...]
    head: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in ("thin", "thick"):
            raise ValueError("spider kind must be 'thin' or 'thick'")
        if len(self.feet) != len(self.body) or len(self.feet) < 2:
            raise ValueError("need |S| = |K| >= 2")


def check_spider(g: Graph, sp: SpiderPartition) -> bool:
    """Independent predicate for the spider invariants."""
    s, kset, t = set(sp.feet), set(sp.body), set(sp.head)
    if s | kset | t != set(range(g.n)) or len(s) + len(kset) + len(t) != g.n:
        return False
    for a, b in combinations(sp.feet, 2):
        if g.has_edge(a, b):
            return False
    for a, b in combinations(sp.body, 2):
        if not g.has_edge(a, b):
            return False
    for h in sp.head:
        for b in sp.body:
            if not g.has_edge(h, b):
                return False
        for f in sp.feet:
            if g.has_edge(h, f):
                return False
    for i, f in enumerate(sp.feet):
        for jdx, b in enumerate(sp.body):
            want = (i == jdx) if sp.kind == "thin" else (i != jdx)
            if g.has_edge(f, b) != want:
                return False
    return True


class P4TreeParseError(ValueError):
    pass


@dataclass(frozen=True)
class P4SparseRefusal:
    """Five vertices inducing at least two P4s."""

    witness: tuple[int, ...]


class P4SparseTree:
    """Decomposition tree: leaves, binary unions/joins, and spider nodes
    whose head (possibly absent) is itself a subtree."""

    __slots__ = ("kind", "left", "right", "leaf_vertex", "spider", "root", "size")

    def __init__(self, kind, left, right, leaf_vertex, spider, root):
        self.kind = kind      # 'L' | 'U' | 'J' | 'S'
        self.left = left      # child / head child (or -1)
        self.right = right
        self.leaf_vertex = leaf_vertex
        self.spider = spider  # SpiderPartition at 'S' nodes
        self.root = root
        self.size = [0] * len(kind)
        for v in self.post_order():
            if kind[v] == "L":
                self.size[v] = 1
            elif kind[v] == "S":
                sp = spider[v]
                head = self.size[left[v]] if left[v] != -1 else 0
                self.size[v] = 2 * len(sp.feet) + head
            else:
                self.size[v] = self.size[left[v]] + self.size[right[v]]

    def post_order(self) -> list[int]:
        order = []
        stack = [(self.root, False)]
        while stack:
            v, expanded = stack.pop()
            k = self.kind[v]
            if expanded or k == "L" or (k == "S" and self.left[v] == -1):
                order.append(v)
            elif k == "S":
                stack.append((v, True))
                stack.append((self.left[v], False))
            else:
                stack.append((v, True))
                stack.append((self.right[v], False))
                stack.append((self.left[v], False))
        return order

    def leaf_spans(self) -> tuple[list[int], list[int]]:
        """All vertices left to right, and per node the index of its first
        one: node v's vertices are seq[start[v]:start[v] + size[v]].  A
        spider lists its feet, then its body, then its head's vertices."""
        seq: list[int] = []
        start = [0] * len(self.kind)
        stack = [self.root]
        while stack:
            v = stack.pop()
            start[v] = len(seq)
            k = self.kind[v]
            if k == "L":
                seq.append(self.leaf_vertex[v])
            elif k == "S":
                sp = self.spider[v]
                seq.extend(sp.feet)
                seq.extend(sp.body)
                if self.left[v] != -1:
                    stack.append(self.left[v])
            else:
                stack.append(self.right[v])
                stack.append(self.left[v])
        return seq, start

    def n_vertices(self) -> int:
        return self.size[self.root]


class _TreeBuilder:
    def __init__(self):
        self.kind, self.left, self.right = [], [], []
        self.leaf_vertex, self.spider = [], []

    def leaf(self, v: int) -> int:
        return self._add("L", -1, -1, v, None)

    def node(self, tag: str, a: int, b: int) -> int:
        return self._add(tag, a, b, -1, None)

    def spider_node(self, sp: SpiderPartition, head: int) -> int:
        return self._add("S", head, -1, -1, sp)

    def _add(self, kind, left, right, leaf_vertex, spider) -> int:
        self.kind.append(kind)
        self.left.append(left)
        self.right.append(right)
        self.leaf_vertex.append(leaf_vertex)
        self.spider.append(spider)
        return len(self.kind) - 1

    def tree(self, root: int) -> P4SparseTree:
        return P4SparseTree(
            self.kind, self.left, self.right, self.leaf_vertex, self.spider, root
        )


def parse_p4sparse_tree(text: str) -> P4SparseTree:
    """Grammar: leaf | (U e e) | (J e e) | (S thin|thick (feet..) (body..) [head])."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0
    b = _TreeBuilder()

    def expect(tok: str):
        nonlocal pos
        if pos >= len(tokens) or tokens[pos] != tok:
            raise P4TreeParseError(f"expected {tok!r} at token {pos}")
        pos += 1

    def int_list() -> tuple[int, ...]:
        nonlocal pos
        expect("(")
        out = []
        while pos < len(tokens) and tokens[pos] != ")":
            try:
                out.append(int(tokens[pos]))
            except ValueError:
                raise P4TreeParseError(f"expected integer, got {tokens[pos]!r}") from None
            pos += 1
        expect(")")
        return tuple(out)

    def parse() -> int:
        nonlocal pos
        if pos >= len(tokens):
            raise P4TreeParseError("unexpected end of input")
        tok = tokens[pos]
        if tok != "(":
            pos += 1
            try:
                return b.leaf(int(tok))
            except ValueError:
                raise P4TreeParseError(f"unexpected token {tok!r}") from None
        pos += 1
        tag = tokens[pos] if pos < len(tokens) else None
        pos += 1
        if tag in ("U", "J"):
            a = parse()
            c = parse()
            expect(")")
            return b.node(tag, a, c)
        if tag == "S":
            kind = tokens[pos]
            pos += 1
            if kind not in ("thin", "thick"):
                raise P4TreeParseError(f"bad spider kind {kind!r}")
            feet = int_list()
            body = int_list()
            head = -1
            if pos < len(tokens) and tokens[pos] != ")":
                head = parse()
            expect(")")
            return b.spider_node(SpiderPartition(kind, feet, body, ()), head)
        raise P4TreeParseError(f"unknown tag {tag!r}")

    root = parse()
    if pos != len(tokens):
        raise P4TreeParseError("trailing input")
    tree = b.tree(root)
    _fill_spider_heads(tree)
    _check_leaf_cover(tree)
    return tree


def _fill_spider_heads(tree: P4SparseTree) -> None:
    seq, start = tree.leaf_spans()
    for v in range(len(tree.kind)):
        if tree.kind[v] == "S":
            sp = tree.spider[v]
            h = tree.left[v]
            head = tuple(seq[start[h]:start[h] + tree.size[h]]) if h != -1 else ()
            tree.spider[v] = SpiderPartition(sp.kind, sp.feet, sp.body, head)


def _check_leaf_cover(tree: P4SparseTree) -> None:
    vs, _start = tree.leaf_spans()
    if sorted(vs) != list(range(len(vs))):
        raise P4TreeParseError("vertices must be exactly 0..n-1 without repeats")


def render_p4sparse_tree(tree: P4SparseTree) -> str:
    parts: dict[int, str] = {}
    for v in tree.post_order():
        kindv = tree.kind[v]
        if kindv == "L":
            parts[v] = str(tree.leaf_vertex[v])
        elif kindv == "S":
            sp = tree.spider[v]
            feet = " ".join(map(str, sp.feet))
            body = " ".join(map(str, sp.body))
            head = f" {parts[tree.left[v]]}" if tree.left[v] != -1 else ""
            parts[v] = f"(S {sp.kind} ({feet}) ({body}){head})"
        else:
            parts[v] = f"({kindv} {parts[tree.left[v]]} {parts[tree.right[v]]})"
    return parts[tree.root]


def p4sparse_to_graph(tree: P4SparseTree) -> Graph:
    seq, start = tree.leaf_spans()
    size = tree.size
    adj: list[set[int]] = [set() for _ in range(tree.n_vertices())]
    for v in tree.post_order():
        kindv = tree.kind[v]
        if kindv == "J":
            a, c = tree.left[v], tree.right[v]
            left = seq[start[a]:start[a] + size[a]]
            right = seq[start[c]:start[c] + size[c]]
            for x in left:
                adj[x].update(right)
            for y in right:
                adj[y].update(left)
        elif kindv == "S":
            sp = tree.spider[v]
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
    return Graph(tree.n_vertices(), adj=adj)


def count_induced_p4s(g: Graph, vertices) -> int:
    """Number of vertex sets inducing a P4 within the given vertices."""
    count = 0
    for quad in combinations(sorted(vertices), 4):
        if _induces_p4(g, quad):
            count += 1
    return count


def _induces_p4(g: Graph, quad) -> bool:
    edges = [(a, b) for a, b in combinations(quad, 2) if g.has_edge(a, b)]
    if len(edges) != 3:
        return False
    deg = {v: 0 for v in quad}
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    return sorted(deg.values()) == [1, 1, 2, 2]


def is_p4_sparse_bruteforce(g: Graph) -> bool:
    """Definition-level predicate: every 5 vertices induce at most one P4."""
    for five in combinations(range(g.n), 5):
        if count_induced_p4s(g, five) > 1:
            return False
    return True


def _thin_parts(g: Graph):
    """Read g as a thin spider: feet are exactly the degree-1 vertices and
    their unique neighbors form the body.  Returns (feet, body, head) in
    g's own indices, or None."""
    feet = [v for v in range(g.n) if g.degree(v) == 1]
    if len(feet) < 2:
        return None
    body = []
    for f in feet:
        (nb,) = g.neighbors(f)
        body.append(nb)
    if len(set(body)) != len(feet):
        return None
    head = sorted(set(range(g.n)) - set(feet) - set(body))
    return tuple(feet), tuple(body), tuple(head)


def _extract_spider(g: Graph, vs: list[int]):
    """Spider partition (in g's original vertex ids) of the subgraph induced
    by vs, or None.  Thick spiders are found as thin spiders of the
    complement, which swaps the roles of feet and body."""
    sub, keep = g.induced(vs)
    kind = "thin"
    parts = _thin_parts(sub)
    if parts is None:
        got = _thin_parts(complement(sub))
        if got is None:
            return None
        kind = "thick"
        feet_c, body_c, head_c = got
        parts = (body_c, feet_c, head_c)
    feet_l, body_l, head_l = parts
    local = SpiderPartition(kind, feet_l, body_l, head_l)
    if not check_spider(sub, local):
        return None
    sp = SpiderPartition(
        kind,
        tuple(keep[x] for x in feet_l),
        tuple(keep[x] for x in body_l),
        tuple(keep[x] for x in head_l),
    )
    return sp, [keep[x] for x in head_l]


def _refusal(g: Graph, vs: list[int]) -> P4SparseRefusal:
    for five in combinations(sorted(vs), 5):
        if count_induced_p4s(g, five) > 1:
            return P4SparseRefusal(five)
    raise AssertionError("undecomposable subgraph must break the 5-vertex rule")


def recognize_p4sparse(g: Graph):
    """Decompose into unions, joins and spiders; on failure return five
    vertices inducing two or more P4s.

    Runs on an explicit stack, depth first in part order.  Node ids follow
    the order in which a recursive builder would create them: all parts of
    a split, then its left-to-right fold; a spider's head, then the
    spider."""
    if g.n == 0:
        raise ValueError("empty graph has no decomposition tree")
    b = _TreeBuilder()
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
            got = _extract_spider(g, vs)
            if got is None:
                return _refusal(g, vs)
            sp, head = got
            if head:
                frames.append(["S", sp])
                vs = head
                continue
            node = b.spider_node(sp, -1)
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


def rainbow_thin_spider(s_size: int, total: int, k: int) -> int:
    """Value for a thin spider with |S| feet and `total` vertices."""
    if s_size < 2:
        raise ValueError("a spider has at least two feet")
    return min(total, s_size - 1 + k)


def rainbow_thick_spider(s_size: int, total: int, k: int) -> int:
    """Conjectured closed form, certified against the oracle by the tests."""
    if s_size < 2:
        raise ValueError("a spider has at least two feet")
    return min(total, k + 1)


INF = float("inf")


def rainbow_p4sparse(tree: P4SparseTree, k: int, want_witness: bool = True):
    """Rainbow domination number via the union/join recursion extended with
    spider nodes, plus a witness realizing the minimizing branch."""
    if k < 1:
        raise ValueError("k must be at least 1")
    order = tree.post_order()
    size = tree.size
    nn = len(tree.kind)
    rm: list[float] = [INF] * nn
    for v in order:
        kindv = tree.kind[v]
        if kindv == "L":
            rm[v] = INF
        elif kindv == "U":
            a, c = tree.left[v], tree.right[v]
            rm[v] = min(rm[a] + size[c], rm[c] + size[a], rm[a] + rm[c])
        elif kindv == "J":
            a, c = tree.left[v], tree.right[v]
            rm[v] = min(max(size[a], k), max(size[c], k), rm[a], rm[c], 2 * k)
        else:
            sp = tree.spider[v]
            if sp.kind == "thin":
                rm[v] = len(sp.feet) - 1 + k
            else:
                rm[v] = k + 1
    n = tree.n_vertices()
    value = int(min(n, rm[tree.root]))
    if not want_witness:
        return value, None

    seq, start = tree.leaf_spans()
    labels: list[frozenset[int]] = [frozenset()] * n
    full = frozenset(range(1, k + 1))

    def leaves(node: int) -> list[int]:
        return seq[start[node]:start[node] + size[node]]

    def fill_singletons(node: int) -> None:
        for lv in leaves(node):
            labels[lv] = frozenset({1})

    def fill_plus_cover(node: int) -> None:
        ls = leaves(node)
        m = len(ls)
        if m >= k:
            for i, lv in enumerate(ls):
                labels[lv] = frozenset({(i % k) + 1})
        else:
            labels[ls[0]] = frozenset({1} | set(range(m + 1, k + 1)))
            for i in range(1, m):
                labels[ls[i]] = frozenset({i + 1})

    def fill_spider_minus(node: int) -> None:
        sp = tree.spider[node]
        if sp.kind == "thin":
            # empty foot's partner carries all colors; other feet singletons
            labels[sp.body[0]] = full
            for f in sp.feet[1:]:
                labels[f] = frozenset({1})
        else:
            # one body vertex carries all colors; only its excluded foot
            # cannot see it and takes a single color
            labels[sp.body[0]] = full
            labels[sp.feet[0]] = frozenset({1})

    stack = [(tree.root, "root")]
    while stack:
        node, mode = stack.pop()
        kindv = tree.kind[node]
        if mode == "root":
            if n <= rm[tree.root]:
                fill_singletons(node)
            else:
                stack.append((node, "minus"))
        elif mode == "empty":
            pass
        elif mode == "singletons":
            fill_singletons(node)
        elif mode == "plus":
            fill_plus_cover(node)
        else:  # minus
            assert kindv != "L"
            if kindv == "S":
                fill_spider_minus(node)
                continue
            a, c = tree.left[node], tree.right[node]
            if kindv == "U":
                branches = (
                    (rm[a] + size[c], ("minus", "singletons")),
                    (rm[c] + size[a], ("singletons", "minus")),
                    (rm[a] + rm[c], ("minus", "minus")),
                )
                _, (ma, mb) = min(branches, key=lambda x: x[0])
                stack.append((a, ma))
                stack.append((c, mb))
            else:
                branches = (
                    (max(size[a], k), ("plus", "empty")),
                    (max(size[c], k), ("empty", "plus")),
                    (rm[a], ("minus", "empty")),
                    (rm[c], ("empty", "minus")),
                    (2 * k, ("kk", "kk")),
                )
                _, (ma, mb) = min(branches, key=lambda x: x[0])
                if ma == "kk":
                    labels[seq[start[a]]] = full
                    labels[seq[start[c]]] = full
                else:
                    stack.append((a, ma))
                    stack.append((c, mb))

    return value, RainbowFunction(k, tuple(labels))
