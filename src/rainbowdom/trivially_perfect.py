"""Rooted tree models and linear-time weight-domination solvers for graphs
whose adjacency is the ancestor relation of a rooted forest (the trivially
perfect graphs), recognized in one pass by degree order.

Weak {k}-L-domination is one bottom-up dynamic program over the forest,
with each vertex's floor a and demand b read as given: for each subtree and
each amount of help h in {0..k} arriving from the vertices above it, the
table holds the cheapest internal weight, and each vertex stores the weight
it takes at each help level, which the witness replays top down.  A vertex
takes weight zero only when its floor is zero and its neighbours carry its
demand, and otherwise a weight of at least max(a, 1).  Feasible subtree
totals form an interval up to k times the subtree size, so any total
between the minimum and that capacity is realizable by padding, which is
what a parent buys when its own demand exceeds the children's combined
minima.  Every vertex of a subtree is a descendant of the whole path above
it, so a subtree's help to each ancestor equals its internal total and a
single scalar per side suffices.  Weak {k} and rainbow, equal on this
class, cost min(k, |T|) per tree T; values are certified by the oracle.

A vertex's table and picks are a function of its floor, its demand and its
children's tables, so one cache keyed on (floor, demand, child tables)
computes each distinct table once and every other vertex reuses it: equal
leaves, equal stars and any repeated subtree cost only their key after the
first.  A table costs O(k) per child of the vertex that computes it, and
any other vertex costs a sort of its children's table ids, so the O(k)
work falls on the distinct tables alone: on 3,000-vertex forests of depth
three, one vertex in 75 (all-(0, k) floors) or in 5 (random floors)
computes one.  The worst case stays O(kn), as on a chain, where no two
tables are equal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, _vertex_rows
from .semantics import KAssignment, RainbowFunction, WeightFunction
from .oracle import InfeasibleInstance

__all__ = [
    "RootedTreeModel",
    "TPRefusal",
    "parse_tree_model",
    "render_tree_model",
    "parse_assignment",
    "build_tree_model",
    "gamma_wkL",
    "gamma_wk_tp",
    "gamma_rk_tp",
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
        depth = [1] * n
        order = list(roots)  # top-down (BFS) order, extended while it is read
        for v in order:
            ch = children[v]
            if ch:
                d = depth[v] + 1
                for c in ch:
                    depth[c] = d
                order += ch
        if len(order) != n:
            raise ValueError("parent pointers contain a cycle")
        self.parents = parents
        self.roots = tuple(roots)
        self.children = tuple(map(tuple, children))
        self.depth = tuple(depth)
        self.order = tuple(order)

    @property
    def n(self) -> int:
        return len(self.parents)

    def open_sums(self, x) -> list:
        """Per vertex, the sum of ``x`` over its neighbours, its strict
        ancestors and descendants: sums along the path down from the root
        plus subtree sums, in O(n) and without an edge."""
        parents, order = self.parents, self.order
        above = [0] * self.n
        for v in order:
            p = parents[v]
            if p != -1:
                above[v] = above[p] + x[p]
        below = list(x)  # subtree sums, children first
        for v in reversed(order):
            p = parents[v]
            if p != -1:
                below[p] += below[v]
        return [a + b - xv for a, b, xv in zip(above, below, x)]

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


def parse_tree_model(text: str) -> RootedTreeModel:
    """n lines ``v parent`` with -1 marking roots."""
    parents, = _vertex_rows(text, 2, "model", "model must list each vertex")
    return RootedTreeModel(parents)


def render_tree_model(model: RootedTreeModel) -> str:
    return "\n".join(f"{v} {p}" for v, p in enumerate(model.parents)) + "\n"


def parse_assignment(text: str, k: int) -> KAssignment:
    """n lines ``v a b``."""
    a, b = _vertex_rows(text, 3, "assignment", "assignment must list each vertex")
    return KAssignment(k, tuple(zip(a, b)))


def build_tree_model(g: Graph):
    """The rooted forest whose ancestor relation is g's adjacency, or a
    TPRefusal naming an induced P4 or C4, in one pass over the vertices by
    non-increasing degree, ties by id (Yan, Chen & Chang 1996).  Each
    vertex's parent p is its last earlier neighbour, and g is accepted when
    N[v] lies inside N[p] for every such pair: adjacent vertices of a
    trivially perfect graph have nested closed neighbourhoods, and when the
    check holds throughout, induction along the order makes each vertex's
    earlier neighbours exactly its ancestors.  At the first failure, x in
    N(v) - N[p] and y in N(p) - N[v] (one exists, as deg(p) >= deg(v)) give
    the induced P4 x-v-p-y, or a C4 when x ~ y."""
    adj = g.neighbors
    order = sorted(range(g.n), key=g.degree, reverse=True)  # stable: ties by id
    pos = [0] * g.n
    parents = [-1] * g.n
    placed: set[int] = set()
    for i, v in enumerate(order):
        nv = adj(v)
        above = nv & placed
        if above:
            p = parents[v] = max(above, key=pos.__getitem__)
            beyond = nv - adj(p)  # holds p itself
            if len(beyond) > 1:
                x = min(beyond - {p})
                y = min(adj(p) - nv - {v})
                kind = "C4" if g.has_edge(x, y) else "P4"
                return TPRefusal(kind, tuple(sorted((x, v, p, y))))
        pos[v] = i
        placed.add(v)
    return RootedTreeModel(parents)


# --- the subtree-menu dynamic program ----------------------------------------


def _solve_tree_weakL(model: RootedTreeModel, pairs, k: int):
    """Exact minimum and witness for the weak {k}-L problem on a forest
    model with per-vertex floors (a, b).

    A vertex's table and picks depend only on its (a, b), the multiset of
    its children's tables and its subtree size (through the capacity
    below it), so the cache is keyed on (a, b, child tables by identity).
    Identity is a safe key because a table object is only ever shared
    through the cache: vertices holding the same table have equal keys,
    and so, by induction from the leaves, equal subtree sizes."""
    n = model.n
    children = model.children
    k1 = k + 1
    hs = range(k1)
    # f[v][s]: cheapest subtree total when the vertices above v add s;
    # pick[v][s]: the weight v takes there, zero winning ties
    f: list[list[int]] = [None] * n  # type: ignore[list-item]
    pick: list[list[int]] = [None] * n  # type: ignore[list-item]
    size = [1] * n
    cache: dict[tuple, tuple[list[int], list[int], int]] = {}
    for v in reversed(model.order):
        ch = children[v]
        av, bv = pairs[v]
        if not ch:
            key = (av, bv)
        elif len(ch) == 1:  # a chain vertex sorts nothing
            key = (av, bv, id(f[ch[0]]))
        else:
            tabs = sorted([f[c] for c in ch], key=id)
            key = (av, bv, *map(id, tabs))
        entry = cache.get(key)
        if entry is None:
            w_lo = av if av > 1 else 1
            if not ch:  # a leaf's total is its own weight
                fv = [0 if av == 0 and s >= bv else w_lo for s in hs]
                entry = cache[key] = (fv, fv, 1)
            else:
                # cs[h]: the children's least total at help h
                if len(ch) == 1:
                    cs = f[ch[0]]
                    sv = size[ch[0]] + 1
                else:
                    cs = list(map(sum, zip(*tabs)))
                    sv = 1 + sum([size[c] for c in ch])
                # a positive weight w costs h + cs[h] - s with h = min(k, s + w),
                # so the cheapest w >= w_lo ends at the first h >= s + w_lo
                # minimizing h + cs[h], found walking s down; past k the
                # smallest weight is cheapest.  Zero needs a zero floor and
                # help s that the subtree can lift to b.
                zero_from = k1 if av else bv - k * (sv - 1)
                fv = [0] * k1
                pv = [0] * k1
                j, best = k, k + cs[k]
                for s in range(k, -1, -1):
                    h = s + w_lo
                    if h <= k:
                        c = h + cs[h]
                        if c <= best:
                            j, best = h, c
                        w, cost = j - s, best - s
                    else:
                        w, cost = w_lo, w_lo + cs[k]
                    if s >= zero_from:
                        zero = cs[s] if cs[s] >= bv - s else bv - s
                        if zero <= cost:
                            w, cost = 0, zero
                    fv[s] = cost
                    pv[s] = w
                entry = cache[key] = (fv, pv, sv)
        f[v], pick[v], size[v] = entry

    value = sum(f[r][0] for r in model.roots)

    # replay the picks top down, handing each child its minimum plus a
    # share of any padding; a leaf takes its share as its weight in place
    weights = [0] * n
    stack = [(r, 0, f[r][0]) for r in model.roots]
    while stack:
        v, s, target = stack.pop()
        w, total = pick[v][s], f[v][s]
        assert total <= target <= k * size[v]
        below = total - w  # the children's least total
        # padding goes below first; the vertex's own weight absorbs the rest
        room = k * (size[v] - 1) - below
        give = target - total if target - total < room else room
        weights[v] = target - below - give
        h = s + w if s + w < k else k
        fs = [f[c][h] for c in children[v]]
        spread = below + give - sum(fs)
        for c, fc in zip(children[v], fs):
            room = k * size[c] - fc
            extra = spread if spread < room else room
            if children[c]:
                stack.append((c, h, fc + extra))
            else:
                weights[c] = fc + extra
            spread -= extra
        assert spread == 0
    return value, weights


def gamma_wkL(model: RootedTreeModel, L: KAssignment):
    """Exact weak {k}-L-domination number of the modeled graph, with a
    validating witness, from the subtree DP."""
    if len(L.pairs) != model.n:
        raise ValueError("assignment does not match the model")
    value, weights = _solve_tree_weakL(model, L.pairs, L.k)
    return value, WeightFunction(L.k, tuple(weights))


def _closed_form_weights(model: RootedTreeModel, k: int) -> list[int]:
    """Weight k on each root whose tree T has at least k vertices, else 1 on
    all of T: the root sees T, and a zero vertex needs k around it."""
    root, size = list(range(model.n)), [1] * model.n  # size: of a root's tree
    for v in model.order:  # top down: a parent's root is known first
        if model.parents[v] != -1:
            root[v] = root[model.parents[v]]
            size[root[v]] += 1
    return [1 if size[r] < k else k if v == r else 0 for v, r in enumerate(root)]


def gamma_wk_tp(model: RootedTreeModel, k: int):
    """Weak {k}-domination number and witness in O(n), for any k."""
    weights = _closed_form_weights(model, k)
    return sum(weights), WeightFunction(k, tuple(weights))


def gamma_rk_tp(model: RootedTreeModel, k: int):
    """k-rainbow domination in O(n): weight w becomes the colours 1..w."""
    weights = _closed_form_weights(model, k)
    labels = {w: frozenset(range(1, w + 1)) for w in set(weights)}
    return sum(weights), RainbowFunction(k, tuple([labels[w] for w in weights]))


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
