"""Linear-time weak {k}-L-domination on complete bipartite graphs.

With all weight floors zero, only the neighborhood demands matter, and a
solution is described by the two side totals (x, y): a zero vertex on one
side sees exactly the other side's total.  Sorting each side's demands in
non-increasing order, spreading a total of x as unit weights over the x
highest-demand vertices leaves the weakest possible demand among the zero
vertices, so feasibility is x >= b'(y+1) and y >= b(x+1) with sentinel
demands of 0 past the end.  Totals above a side's size concentrate extra
weight on the top vertices (everyone nonzero), which the saturated
indexing accounts for.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph
from .semantics import KAssignment, WeightFunction

__all__ = [
    "BipartiteInstance",
    "parse_bipartite_instance",
    "render_bipartite_instance",
    "complete_bipartite_graph",
    "instance_from_assignment",
    "weakL_complete_bipartite",
]


@dataclass(frozen=True)
class BipartiteInstance:
    """Demands of the two sides, sorted non-increasing, with the original
    vertex order remembered so witnesses map back."""

    n1: int
    n2: int
    k: int
    b_sorted: tuple[int, ...]
    b_prime_sorted: tuple[int, ...]
    order1: tuple[int, ...]  # sorted position -> original index within side
    order2: tuple[int, ...]

    @staticmethod
    def from_labels(k: int, b_side1, b_side2) -> "BipartiteInstance":
        if k < 1:
            raise ValueError("k must be a positive integer")
        b1 = list(b_side1)
        b2 = list(b_side2)
        if not b1 or not b2:
            raise ValueError("both sides need at least one vertex")
        for b in b1 + b2:
            if not (0 <= b <= k):
                raise ValueError("demand out of range 0..k")
        order1 = tuple(sorted(range(len(b1)), key=lambda i: (-b1[i], i)))
        order2 = tuple(sorted(range(len(b2)), key=lambda i: (-b2[i], i)))
        return BipartiteInstance(
            len(b1),
            len(b2),
            k,
            tuple(b1[i] for i in order1),
            tuple(b2[i] for i in order2),
            order1,
            order2,
        )

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    def open_sums(self, x) -> list:
        """Per vertex, the sum of ``x`` over its neighbours: the other
        side's total.  Side 1 is vertices 0..n1-1."""
        side1, side2 = sum(x[:self.n1]), sum(x[self.n1:])
        return [side2] * self.n1 + [side1] * self.n2

    def assignment(self) -> KAssignment:
        """The zero-floor assignment this instance encodes: demands in
        vertex order, side 1 first."""
        b = [0] * (self.n1 + self.n2)
        for pos, orig in enumerate(self.order1):
            b[orig] = self.b_sorted[pos]
        for pos, orig in enumerate(self.order2):
            b[self.n1 + orig] = self.b_prime_sorted[pos]
        return KAssignment(self.k, tuple((0, x) for x in b))


def parse_bipartite_instance(text: str) -> BipartiteInstance:
    """Line 1: ``n1 n2 k``; line 2: n1 demands; line 3: n2 demands."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if len(lines) != 3:
        raise ValueError("expected exactly three lines")
    n1, n2, k = (int(x) for x in lines[0].split())
    b1 = [int(x) for x in lines[1].split()]
    b2 = [int(x) for x in lines[2].split()]
    if len(b1) != n1 or len(b2) != n2:
        raise ValueError("demand counts disagree with the header")
    return BipartiteInstance.from_labels(k, b1, b2)


def render_bipartite_instance(inst: BipartiteInstance) -> str:
    b = [x for _a, x in inst.assignment().pairs]
    return (
        f"{inst.n1} {inst.n2} {inst.k}\n"
        + " ".join(map(str, b[:inst.n1]))
        + "\n"
        + " ".join(map(str, b[inst.n1:]))
        + "\n"
    )


def complete_bipartite_graph(n1: int, n2: int) -> Graph:
    side1, side2 = range(n1), range(n1, n1 + n2)
    return Graph(n1 + n2, adj=[frozenset(side2)] * n1 + [frozenset(side1)] * n2)


def instance_from_assignment(n1: int, n2: int, L: KAssignment) -> BipartiteInstance:
    """Build an instance from a full assignment on the complete bipartite
    graph; vertices 0..n1-1 form one side.  Nonzero floors are rejected."""
    if len(L.pairs) != n1 + n2:
        raise ValueError("assignment does not match the graph")
    for v, (a, _b) in enumerate(L.pairs):
        if a != 0:
            raise ValueError(f"vertex {v} has a nonzero weight floor")
    return BipartiteInstance.from_labels(
        L.k,
        [L.pairs[v][1] for v in range(n1)],
        [L.pairs[n1 + v][1] for v in range(n2)],
    )


def _demand_at(sorted_b: tuple[int, ...], count: int) -> int:
    """Largest demand among the vertices left at zero when `count` units
    are spread top-first; 0 past the end of the side."""
    idx = min(count, len(sorted_b))
    return sorted_b[idx] if idx < len(sorted_b) else 0


def weakL_complete_bipartite(inst: BipartiteInstance):
    """Minimum total weight, the optimal side totals, and a witness.

    Scans the first side's total x and takes the smallest feasible partner
    total m(x); the largest useful x is bounded by the size of the first
    side plus k (beyond that every vertex is already nonzero and demands
    are capped by k).
    """
    k = inst.k
    best = None
    hi = inst.n1 + k
    # the partner total forced by the second side's zero vertices shrinks
    # as x grows, so one descending pointer serves the whole scan
    y_opposite = 0
    while _demand_at(inst.b_prime_sorted, y_opposite) > hi:
        y_opposite += 1
    for x in range(hi, -1, -1):
        while _demand_at(inst.b_prime_sorted, y_opposite) > x:
            y_opposite += 1
        m = max(_demand_at(inst.b_sorted, x), y_opposite)
        if best is None or x + m <= best[0]:
            best = (x + m, x, m)
    value, x, y = best
    weights = [0] * (inst.n1 + inst.n2)
    _spread(weights, inst.b_sorted, inst.order1, 0, x, k)
    _spread(weights, inst.b_prime_sorted, inst.order2, inst.n1, y, k)
    return value, (x, y), WeightFunction(k, tuple(weights))


def _spread(weights, sorted_b, order, base, total, k):
    """Unit weights on the highest-demand vertices; totals beyond the side
    size pile the excess on the same vertices (capped at k each)."""
    n = len(order)
    for pos in range(min(total, n)):
        weights[base + order[pos]] = 1
    extra = total - n
    pos = 0
    while extra > 0:
        room = k - weights[base + order[pos]]
        add = min(room, extra)
        weights[base + order[pos]] += add
        extra -= add
        pos += 1