"""Exponential-time exact solvers used as ground truth.

``exact_domination`` is a bitmask branch-and-bound for minimum domination;
``exact_rainbow`` reduces rainbow domination to domination of the product
with a complete graph, runs the same search on the product's closed
neighbourhood masks and decodes the witness back to color labels.
``exact_rainbow_direct`` enumerates label vectors as an independent check
of that reduction.  ``exact_weight_variant`` is a branch-and-bound over
weight vectors shared by the weak {k}, {k}, (j,k) and weak {k}-L variants.

Bounds of each search (every one only cuts subtrees without a leaf better
than the incumbent, so the visit order and the returned witness do not
depend on them; only ``nodes_explored`` does):

* domination: the greedy cover is the first upper bound; iterative
  deepening starts at the counting bound ceil(n / largest closed
  neighbourhood); a depth fails once the largest residual coverage times
  the sets still allowed misses the undominated count.
* direct rainbow: the best cost so far bounds the label cost; a vertex is
  checked as soon as its whole closed neighbourhood is labelled.
* weight vectors: a neighbourhood that cannot reach its demand even at full
  weight fails at once; a branch stops when the weight still to place
  reaches the best total, by the floors still unassigned, by the largest
  unmet firm demand (an assigned zero vertex, or any vertex in the
  unconditional variants), or by the vertices still short of their need
  over the largest closed neighbourhood still unassigned.

``exact_domination`` and ``exact_rainbow`` refuse an instance above a
vertex cap (the product's size, for rainbow) only when given one; every
search is otherwise bounded by its node budget alone.  ``DEFAULT_VERTEX_CAP``
is the cap ``solve`` applies before it runs the oracle, unless
``RAINBOWDOM_ORACLE_CAP`` overrides it; the command line reads that
variable, and these searches never do.

Every call is pure and independent; results carry a validating witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import lt, sub
from typing import Union

from .graph import Graph
from .semantics import (
    KAssignment,
    RainbowFunction,
    WeightFunction,
)

__all__ = [
    "OracleResult",
    "OracleCapExceeded",
    "OracleBudgetExceeded",
    "InfeasibleInstance",
    "DEFAULT_VERTEX_CAP",
    "exact_domination",
    "exact_rainbow",
    "exact_rainbow_direct",
    "exact_weight_variant",
]

DEFAULT_VERTEX_CAP = 24
DEFAULT_NODE_BUDGET = 20_000_000
# label vectors ``exact_rainbow_direct`` may enumerate, (2^k)^n
DIRECT_WORK_CAP = 10_000_000


class OracleCapExceeded(RuntimeError):
    """Instance is larger than the vertex cap the caller passed."""


class OracleBudgetExceeded(RuntimeError):
    """Search exceeded the configured node budget."""


class InfeasibleInstance(RuntimeError):
    """No function of the requested kind exists on this instance."""


@dataclass(frozen=True)
class OracleResult:
    value: int
    witness: Union[RainbowFunction, WeightFunction]
    nodes_explored: int


def _greedy_dominating(nb: list[int], full: int) -> list[int]:
    dominated = 0
    chosen: list[int] = []
    while dominated != full:
        best_v = -1
        best_gain = -1
        for v, mask in enumerate(nb):
            gain = (mask & ~dominated).bit_count()
            if gain > best_gain:
                best_gain = gain
                best_v = v
        chosen.append(best_v)
        dominated |= nb[best_v]
    return chosen


def exact_domination(
    g: Graph, cap: int | None = None, node_budget: int | None = None
) -> OracleResult:
    """Minimum dominating set by cardinality-increasing depth-first search
    over the closed neighbourhoods (see ``_min_dominating``)."""
    if cap is not None and g.n > cap:
        raise OracleCapExceeded(f"n={g.n} exceeds oracle cap {cap}")
    nb = [sum(1 << u for u in g.neighbors(v)) | 1 << v for v in range(g.n)]
    chosen, nodes = _min_dominating(nb, node_budget)
    weights = [0] * g.n
    for v in chosen:
        weights[v] = 1
    return OracleResult(len(chosen), WeightFunction(1, tuple(weights)), nodes)


def _min_dominating(nb: list[int], node_budget: int | None) -> tuple[list[int], int]:
    """A minimum set of the vertices whose closed-neighbourhood masks ``nb``
    cover every vertex, and the number of search nodes visited.

    A greedy solution bounds the search from above and the counting bound
    from below; at each node the branch vertex is an undominated vertex
    with the fewest covering candidates, and candidates whose residual
    coverage is contained in another candidate's are pruned.
    """
    budget = node_budget if node_budget is not None else DEFAULT_NODE_BUDGET
    n = len(nb)
    if n == 0:
        return [], 0
    full = (1 << n) - 1

    greedy = _greedy_dominating(nb, full)
    ub = len(greedy)
    best_sets: dict[int, list[int]] = {ub: greedy}
    nodes = 0

    def depth_limited(dominated: int, chosen: list[int], left: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise OracleBudgetExceeded(f"domination search passed {budget} nodes")
        if dominated == full:
            best_sets[len(chosen)] = list(chosen)
            return True
        if left == 0:
            return False
        rem = full & ~dominated
        max_cov = max([(mask & rem).bit_count() for mask in nb])
        if max_cov * left < rem.bit_count():
            return False
        # branch on the undominated vertex with fewest covering candidates
        pick = -1
        pick_count = n + 2
        r = rem
        while r:
            v = (r & -r).bit_length() - 1
            r &= r - 1
            c = nb[v].bit_count()
            if c < pick_count:
                pick_count = c
                pick = v
        cands = []
        m = nb[pick]
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            cands.append((v, nb[v] & rem))
        # drop candidates dominated by another candidate's residual coverage
        keep = []
        for i, (v, cov) in enumerate(cands):
            dominated_choice = False
            for jdx, (w, cov2) in enumerate(cands):
                if i == jdx:
                    continue
                if cov | cov2 == cov2 and (cov != cov2 or w < v):
                    dominated_choice = True
                    break
            if not dominated_choice:
                keep.append((v, cov))
        keep.sort(key=lambda t: (-t[1].bit_count(), t[0]))
        for v, cov in keep:
            chosen.append(v)
            if depth_limited(dominated | nb[v], chosen, left - 1):
                chosen.pop()
                return True
            chosen.pop()
        return False

    # no depth below the counting bound passes the root's max_cov test
    target = -(-n // max(mask.bit_count() for mask in nb))
    while target < ub:
        if depth_limited(0, [], target):
            break
        target += 1

    return best_sets[min(best_sets)], nodes


def exact_rainbow(
    g: Graph, k: int, cap: int | None = None, node_budget: int | None = None
) -> OracleResult:
    """Exact k-rainbow domination number via the product construction.

    A minimum dominating set of the product of g with a complete graph on k
    vertices (built as a graph only by the tests' reference,
    ``tests/reference.py``) decodes to an optimal rainbow function: color c+1 joins the label of v exactly when product vertex
    v*k + c is selected.  The product's closed neighbourhoods are built as
    masks without the graph: (v, c) sees every colour of v, and colour c of
    each neighbour of v.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if cap is not None and g.n * k > cap:
        raise OracleCapExceeded(f"product size {g.n * k} exceeds oracle cap {cap}")
    colours = (1 << k) - 1
    nb = []
    for v in range(g.n):
        row = colours << v * k
        spread = sum(1 << u * k for u in g.neighbors(v))
        nb += [row | spread << c for c in range(k)]
    chosen, nodes = _min_dominating(nb, node_budget)
    labels: list[set[int]] = [set() for _ in range(g.n)]
    for idx in chosen:
        labels[idx // k].add(idx % k + 1)
    f = RainbowFunction(k, tuple(frozenset(s) for s in labels))
    return OracleResult(len(chosen), f, nodes)


def exact_rainbow_direct(g: Graph, k: int) -> OracleResult:
    """Independent rainbow oracle: branch and bound over label vectors.

    Exponential in n and k; intended as a cross-check of the product route
    on tiny instances.  Labels are assigned in vertex order, and a
    labelling is dropped once a vertex whose closed neighbourhood is all
    labelled has label 0 and misses a colour there.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n = g.n
    if (1 << k) ** n > DIRECT_WORK_CAP:
        raise OracleCapExceeded("label space exceeds the work cap")
    if n == 0:
        return OracleResult(0, RainbowFunction(k, ()), 0)

    all_colors = (1 << k) - 1
    size = [mask.bit_count() for mask in range(1 << k)]
    # vertex w is checked once v, the last of its closed neighbourhood in
    # labelling order, has a label
    completes: list[list[tuple[int, list[int]]]] = [[] for _ in range(n)]
    for w in range(n):
        nbrs = sorted(g.neighbors(w))
        completes[max(nbrs + [w])].append((w, nbrs))
    best_cost = n + 1  # all-singletons is always valid
    best_labels = [1] * n
    labels = [0] * n
    nodes = 0

    def rec(v: int, cost: int) -> None:
        nonlocal best_cost, best_labels, nodes
        nodes += 1
        if cost >= best_cost:
            return
        if v == n:
            best_cost = cost
            best_labels = labels.copy()
            return
        for mask in range(1 << k):
            labels[v] = mask
            for w, nbrs in completes[v]:
                if labels[w] == 0:
                    seen = 0
                    for u in nbrs:
                        seen |= labels[u]
                    if seen != all_colors:
                        break
            else:
                rec(v + 1, cost + size[mask])
        labels[v] = 0

    rec(0, 0)
    labs = tuple(
        frozenset(c + 1 for c in range(k) if best_labels[v] >> c & 1)
        for v in range(n)
    )
    return OracleResult(best_cost, RainbowFunction(k, labs), nodes)


_VARIANTS = ("weak_k", "k_dom", "jk_dom", "weak_kL")


def exact_weight_variant(
    g: Graph,
    variant: str,
    k: int,
    j: int | None = None,
    assignment: KAssignment | None = None,
    node_budget: int | None = None,
) -> OracleResult:
    """Exact minimum for a weight-vector domination variant.

    Branch and bound over weight vectors, assigning vertices in decreasing
    degree order, with neighborhood-potential propagation, a seeded upper
    bound and the lower bounds of the module docstring.  Raises
    ``InfeasibleInstance`` when no function exists (only possible for the
    (j,k) variant).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if variant not in _VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    budget = node_budget if node_budget is not None else DEFAULT_NODE_BUDGET
    n = g.n
    if n == 0:
        return OracleResult(0, WeightFunction(k, ()), 0)

    lo = [0] * n
    top = k  # largest weight of a vertex
    # demand on N[v]: of zero vertices only in the conditional variants
    conditional = variant in ("weak_k", "weak_kL")
    thr = [k] * n
    if variant == "weak_kL":
        if assignment is None:
            raise ValueError("weak_kL requires an assignment")
        if assignment.k != k or len(assignment.pairs) != n:
            raise ValueError("assignment does not match the instance")
        for v, (a, b) in enumerate(assignment.pairs):
            lo[v] = a
            thr[v] = b
    if variant == "jk_dom":
        if j is None or not (1 <= j <= k):
            raise ValueError("jk_dom requires 1 <= j <= k")
        top = j
        for v in range(n):
            if j * (g.degree(v) + 1) < k:
                raise InfeasibleInstance(
                    f"vertex {v} cannot reach closed weight {k} with cap {j}"
                )

    closed = [sorted(g.neighbors(v) | {v}) for v in range(n)]

    # seed the incumbent with cheap functions, each valid by construction:
    # the all-ones and all-max(a_v, 1) vectors leave no zero vertex, the
    # all-j vector reaches k on every closed neighbourhood by the (j,k)
    # test above, and weight k on a dominating set covers every one
    seeds = []
    if variant == "weak_k":
        seeds.append([1] * n)
    elif variant == "weak_kL":
        seeds.append([max(lo[v], 1) for v in range(n)])
    elif variant == "jk_dom":
        seeds.append([j] * n)
    if variant in ("weak_k", "k_dom"):
        dom = _greedy_dominating(
            [sum(1 << u for u in closed[v]) for v in range(n)], (1 << n) - 1
        )
        w = [0] * n
        for v in dom:
            w[v] = k
        seeds.append(w)
    best_weights = min(seeds, key=sum)
    best_cost = sum(best_weights)

    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    # the largest closed neighbourhood among order[i:] is order[i]'s
    width = [len(closed[v]) for v in order]
    csum = [0] * n  # weight already assigned in N[v]
    pot = [top * len(c) for c in closed]  # weight N[v] may still get
    # N[v] must reach need[v] unless v gets positive weight (then need[v]
    # drops to 0), and must reach firm[v] whatever the rest of the labels:
    # k for every vertex in the unconditional variants, thr[v] once v is
    # an assigned zero in the conditional ones
    need = list(thr)
    firm = [0] * n if conditional else list(thr)
    weights = [-1] * n
    rem_lo = sum(lo)
    nodes = 0

    def rec(i: int, cost: int) -> None:
        nonlocal best_cost, best_weights, nodes, rem_lo
        nodes += 1
        if nodes > budget:
            raise OracleBudgetExceeded(f"weight search passed {budget} nodes")
        if cost + rem_lo >= best_cost:
            return
        if i == n:
            best_cost = cost
            best_weights = weights.copy()
            return
        # a better leaf places at most `slack` more weight: enough for the
        # largest firm deficit, and a positive vertex of order[i:] in N[v]
        # of every vertex short of its need
        slack = best_cost - cost - 1
        if max(map(sub, firm, csum)) > slack:
            return
        if sum(map(lt, csum, need)) > slack * width[i]:
            return
        u = order[i]
        cu = closed[u]
        lu = lo[u]
        rem_lo -= lu
        for v in cu:
            csum[v] += lu
            pot[v] -= top
        for x in range(lu, top + 1):
            if x > lu:
                for v in cu:
                    csum[v] += 1
            weights[u] = x
            if conditional:
                need[u] = firm[u] = 0 if x else thr[u]
            for v in cu:
                if csum[v] + pot[v] < firm[v]:
                    break
            else:
                rec(i + 1, cost + x)
        for v in cu:
            csum[v] -= top
            pot[v] += top
        if conditional:
            need[u] = thr[u]
            firm[u] = 0
        weights[u] = -1
        rem_lo += lu

    rec(0, 0)
    return OracleResult(best_cost, WeightFunction(k, tuple(best_weights)), nodes)
