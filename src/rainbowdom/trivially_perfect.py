"""Rooted tree models and linear-time weight-domination solvers for graphs
whose adjacency is the ancestor relation of a rooted forest.

Weak {k}-L-domination is one bottom-up dynamic program over the forest,
with each vertex's floor a and demand b read as given: for each subtree and
each amount of help h in {0..k} arriving from the vertices above it, the
table holds the cheapest internal weight.  A vertex takes weight zero only
when its floor is zero and its neighbours carry its demand, and otherwise a
weight of at least max(a, 1).  Feasible subtree totals form an interval up
to k times the subtree size, so any total between the minimum and that
capacity is realizable by padding, which is what a parent buys when its own
demand exceeds the children's combined minima.  Every vertex of a subtree is a
descendant of the whole path above it, so a subtree's help to each ancestor
equals its internal total and a single scalar per side suffices.  Weak
{k}-domination is the all-(0, k) assignment; values are certified against
the brute-force oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import add, sub

from .cograph import Cotree, CotreeBuilder
from .graph import Graph, _vertex_rows
from .semantics import KAssignment, WeightFunction
from .oracle import InfeasibleInstance

__all__ = [
    "RootedTreeModel",
    "TPRefusal",
    "parse_tree_model",
    "render_tree_model",
    "parse_assignment",
    "render_assignment",
    "build_tree_model",
    "gamma_wkL",
    "gamma_wk_tp",
    "jk_domination_tp",
    "random_tree_model",
]

@dataclass(frozen=True)
class TPRefusal:
    """Witness that the input has an induced P4 or C4."""

    kind: str  # 'P4' | 'C4'
    vertices: tuple[int, int, int, int]


class RootedTreeModel:
    """Rooted forest whose ancestor relation is the modeled adjacency."""

    __slots__ = ("parents", "roots", "children", "depth", "order")

    def __init__(self, parents):
        parents = tuple(parents)
        n = len(parents)
        children: list[list[int]] = [[] for _ in range(n)]
        roots = []
        for v, p in enumerate(parents):
            if p == -1:
                roots.append(v)
            elif 0 <= p < n:
                children[p].append(v)
            else:
                raise ValueError(f"parent of {v} out of range")
        if not roots and n:
            raise ValueError("a nonempty forest needs a root")
        depth = [-1] * n
        order = []  # top-down (BFS) order
        queue = list(roots)
        for r in roots:
            depth[r] = 1
        i = 0
        while i < len(queue):
            v = queue[i]
            i += 1
            order.append(v)
            for c in children[v]:
                depth[c] = depth[v] + 1
                queue.append(c)
        if len(order) != n:
            raise ValueError("parent pointers contain a cycle")
        self.parents = parents
        self.roots = tuple(roots)
        self.children = tuple(tuple(c) for c in children)
        self.depth = tuple(depth)
        self.order = tuple(order)

    @property
    def n(self) -> int:
        return len(self.parents)

    def ancestors(self, v: int) -> list[int]:
        out = []
        p = self.parents[v]
        while p != -1:
            out.append(p)
            p = self.parents[p]
        return out

    def derived_graph(self) -> Graph:
        """Adjacency = strict ancestor relation (quadratic; desk scale):
        each vertex sees its descendants and its ancestors."""
        n, parents = self.n, self.parents
        adj: list[set[int]] = [set() for _ in range(n)]
        for v in reversed(self.order):  # children first
            p = parents[v]
            if p != -1:
                adj[p].update(adj[v])
                adj[p].add(v)
        above: list[tuple[int, ...]] = [()] * n
        for v in self.order:
            p = parents[v]
            if p != -1:
                above[v] = above[p] + (p,)
                adj[v].update(above[v])
        return Graph(n, adj=adj)

    def to_cotree(self) -> Cotree:
        """The cotree of the modeled graph: each vertex joined with the
        union of its children's cotrees, and the roots under one union."""
        if not self.n:
            raise ValueError("empty forest has no cotree")
        b = CotreeBuilder()
        node = [-1] * self.n

        def union(vs) -> int:
            acc = node[vs[0]]
            for c in vs[1:]:
                acc = b.node("U", acc, node[c])
            return acc

        for v in reversed(self.order):  # children first
            ch = self.children[v]
            node[v] = b.node("J", b.leaf(v), union(ch)) if ch else b.leaf(v)
        return b.tree(union(self.roots))

    def subtree_sizes(self) -> list[int]:
        size = [1] * self.n
        for v in reversed(self.order):
            p = self.parents[v]
            if p != -1:
                size[p] += size[v]
        return size


def parse_tree_model(text: str) -> RootedTreeModel:
    """n lines ``v parent`` with -1 marking roots."""
    rows = _vertex_rows(text, 2, "model", "model must list each vertex")
    return RootedTreeModel([int(parent) for _v, parent in rows])


def render_tree_model(model: RootedTreeModel) -> str:
    return "\n".join(f"{v} {p}" for v, p in enumerate(model.parents)) + "\n"


def parse_assignment(text: str, k: int) -> KAssignment:
    """n lines ``v a b``."""
    rows = _vertex_rows(text, 3, "assignment", "assignment must list each vertex")
    return KAssignment(k, tuple((int(a), int(b)) for _v, a, b in rows))


def render_assignment(L: KAssignment) -> str:
    return "\n".join(f"{v} {a} {b}" for v, (a, b) in enumerate(L.pairs)) + "\n"


def _find_p4_or_c4(g: Graph, comp: set[int]) -> TPRefusal:
    """Induced P4 or C4 inside a connected vertex set with no universal
    vertex.  Take v of maximum degree, w in N(v) with a neighbor x outside
    N[v]; since deg(w) <= deg(v), some y in N(v) - N[w] exists, and
    y-v-w-x is an induced C4 when y ~ x and an induced P4 otherwise."""
    adj = g.neighbors
    v = max(sorted(comp), key=lambda u: len(adj(u) & comp))
    nv = adj(v) & comp
    closed_v = nv | {v}
    for w in sorted(nv):
        beyond = (adj(w) & comp) - closed_v
        if beyond:
            x = min(beyond)
            y = min(nv - adj(w) - {w})
            kind = "C4" if g.has_edge(y, x) else "P4"
            return TPRefusal(kind, tuple(sorted((y, v, w, x))))
    raise AssertionError("a connected set without universal vertex has distance 2")


def build_tree_model(g: Graph):
    """Model construction by repeatedly extracting a universal vertex of
    each connected piece; refusal exhibits an induced P4 or C4.

    A piece's outside neighbours are exactly the roots already extracted
    above it (each was universal in a piece containing it, and pieces are
    separated), so v is universal in the piece iff
    deg(v) == |piece| - 1 + depth: one length test per vertex."""
    degree = [g.degree(v) for v in range(g.n)]
    parents = [-1] * g.n
    stack: list[tuple[list[int], int, int]] = [
        (comp, -1, 0) for comp in reversed(g.components())
    ]
    while stack:
        comp, parent, depth = stack.pop()
        if len(comp) == 1:
            parents[comp[0]] = parent
            continue
        full = len(comp) - 1 + depth
        root = next((v for v in comp if degree[v] == full), None)
        if root is None:
            return _find_p4_or_c4(g, set(comp))
        parents[root] = parent
        rest = [v for v in comp if v != root]
        for c in reversed(g.components(rest)):
            stack.append((c, root, depth + 1))
    return RootedTreeModel(parents)


# --- the subtree-menu dynamic program ----------------------------------------


def _solve_tree_weakL(model: RootedTreeModel, pairs, k: int):
    """Exact minimum and witness for the weak {k}-L problem on a forest
    model with per-vertex floors (a, b).  O(k n)."""
    n = model.n
    if n == 0:
        return 0, []
    a = [p[0] for p in pairs]
    b = [p[1] for p in pairs]
    size = model.subtree_sizes()
    children = model.children

    # f[v][s]: cheapest subtree total when vertices above v contribute s
    k1 = k + 1
    zeros = [0] * k1
    f: list[list[int]] = [None] * n  # type: ignore[list-item]
    childsum: list[list[int]] = [None] * n  # type: ignore[list-item]
    leaf_cache: dict[tuple[int, int], list[int]] = {}
    hs = range(k1)
    for v in reversed(model.order):
        ch = children[v]
        av, bv = a[v], b[v]
        if not ch:
            fv = leaf_cache.get((av, bv))
            if fv is None:
                base = max(av, 1)
                fv = [0 if (av == 0 and s >= bv) else base for s in range(k1)]
                leaf_cache[(av, bv)] = fv
            f[v] = fv
            childsum[v] = zeros
            continue
        if len(ch) == 1:
            cs = f[ch[0]]
        else:
            cs = list(map(add, f[ch[0]], f[ch[1]]))
            for c in ch[2:]:
                cs = list(map(add, cs, f[c]))
        childsum[v] = cs
        # a positive weight w costs h + cs[h] - s with h = min(k, s + w), so
        # the cheapest w >= w_lo is a suffix minimum of h + cs[h] from s + w_lo;
        # once s + w_lo passes k, the clamped column costs w_lo + cs[k]
        w_lo = av if av > 1 else 1
        sfx = list(accumulate(reversed(list(map(add, hs, cs))), min))
        sfx.reverse()
        fv = list(map(sub, sfx[w_lo:], hs))
        fv.extend([w_lo + cs[k]] * w_lo)
        if av == 0:
            cap_below = k * (size[v] - 1)
            for s in range(max(0, bv - cap_below), k1):
                cand = cs[s]
                if bv - s > cand:
                    cand = bv - s
                if cand < fv[s]:
                    fv[s] = cand
        f[v] = fv

    value = sum(f[r][0] for r in model.roots)

    # realize the witness: per vertex pick the cheapest weight again and
    # hand each child its minimum plus a share of any padding
    weights = [0] * n
    stack = [(r, 0, f[r][0]) for r in model.roots]
    while stack:
        v, s, target = stack.pop()
        cs = childsum[v]
        cap_below = k * (size[v] - 1)
        # the smallest cheapest positive weight; past k - s every weight
        # lands on the clamped column, where the smallest is cheapest
        w_lo = max(1, a[v])
        if s + w_lo >= k:
            total, w = w_lo + cs[k], w_lo
        else:
            costs = [w + cs[s + w] for w in range(w_lo, k - s + 1)]
            total = min(costs)
            w = w_lo + costs.index(total)
        # weight zero wins ties
        if a[v] == 0:
            need0 = b[v] - s
            if need0 <= cap_below and max(cs[s], need0) <= total:
                total, w = max(cs[s], need0), 0
        assert total <= target <= k * size[v]
        h = min(k, s + w)
        need_below = max(cs[s], b[v] - s) if w == 0 else cs[h]
        # padding goes below first; the vertex's own weight absorbs the rest
        extra = target - total
        give_below = min(extra, cap_below - need_below)
        weights[v] = w + (extra - give_below)
        below_target = need_below + give_below
        spread = below_target - cs[h]
        if not spread:
            stack.extend([(c, h, f[c][h]) for c in children[v]])
            continue
        for c in children[v]:
            fc = f[c][h]
            give = min(spread, k * size[c] - fc)
            stack.append((c, h, fc + give))
            spread -= give
        assert spread == 0
    return value, weights


def gamma_wkL(model: RootedTreeModel, L: KAssignment):
    """Exact weak {k}-L-domination number of the modeled graph, with a
    validating witness, from the subtree DP."""
    if len(L.pairs) != model.n:
        raise ValueError("assignment does not match the model")
    value, weights = _solve_tree_weakL(model, L.pairs, L.k)
    return value, WeightFunction(L.k, tuple(weights))


def gamma_wk_tp(model: RootedTreeModel, k: int):
    """Weak {k}-domination via the all-(0,k) assignment."""
    return gamma_wkL(model, KAssignment.uniform(k, model.n))


def jk_domination_tp(model: RootedTreeModel, j: int, k: int):
    """Weights j on the first floor(k/j) depth levels of each tree and the
    remainder k mod j on the next level; raises when some leaf sits too
    close to its root for any function to exist."""
    if not (1 <= j <= k):
        raise ValueError("j must satisfy 1 <= j <= k")
    full_levels = k // j
    rem = k % j
    weights = []
    for v in range(model.n):
        d = model.depth[v]
        if d <= full_levels:
            weights.append(j)
        elif d == full_levels + 1:
            weights.append(rem)
        else:
            weights.append(0)
    # a leaf at depth d caps every function at j*d on its closed neighborhood
    for v in range(model.n):
        if not model.children[v] and j * model.depth[v] < k:
            raise InfeasibleInstance(
                f"leaf {v} at depth {model.depth[v]} cannot reach {k} with cap {j}"
            )
    return sum(weights), WeightFunction(k, tuple(weights))


def random_tree_model(n: int, seed: int) -> RootedTreeModel:
    """Random single-rooted model: each vertex attaches to a random earlier
    vertex."""
    import random as _random

    rng = _random.Random(seed)
    parents = [-1]
    for v in range(1, n):
        parents.append(rng.randrange(v))
    return RootedTreeModel(parents)
