"""Linear-time weak {k}-L-domination on complete bipartite graphs.

An instance names the graph's two sides by vertex id and gives every
vertex's neighbourhood demand; the weight floors are all zero.  Only the
two side totals (x, y) matter: a zero vertex on one side sees exactly the
other side's total.  The solver sorts each side's vertices by demand, non-
increasing; spreading a total of x as unit weights over the x highest-
demand vertices leaves the weakest possible demand among the zero
vertices, so feasibility is x >= b'(y+1) and y >= b(x+1) with sentinel
demands of 0 past the end.  Totals above a side's size concentrate extra
weight on the top vertices (everyone nonzero), which the saturated
indexing accounts for.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, _header
from .semantics import KAssignment, WeightFunction

__all__ = [
    "BipartiteInstance",
    "parse_bipartite_instance",
    "complete_bipartite_graph",
    "instance_from_assignment",
    "weakL_complete_bipartite",
]


@dataclass(frozen=True)
class BipartiteInstance:
    """Vertex-id tuples ``side1`` and ``side2`` that split 0..n-1, and the
    demand ``b[v]`` of every vertex v, in vertex order."""

    k: int
    side1: tuple[int, ...]
    side2: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be a positive integer")
        if not self.side1 or not self.side2:
            raise ValueError("both sides need at least one vertex")
        if sorted(self.side1 + self.side2) != list(range(len(self.b))):
            raise ValueError("the sides do not split the vertices")
        if min(self.b) < 0 or max(self.b) > self.k:
            raise ValueError("demand out of range 0..k")

    @staticmethod
    def from_labels(k: int, b_side1, b_side2) -> "BipartiteInstance":
        """Side 1 is vertices 0..n1-1, with demands ``b_side1``."""
        b1, b2 = tuple(b_side1), tuple(b_side2)
        n1, n = len(b1), len(b1) + len(b2)
        return BipartiteInstance(k, tuple(range(n1)), tuple(range(n1, n)), b1 + b2)

    @property
    def n(self) -> int:
        return len(self.b)

    def open_sums(self, x) -> list:
        """Per vertex, the sum of ``x`` over its neighbours: the other
        side's total."""
        total1 = sum(map(x.__getitem__, self.side1))
        sums = [total1] * self.n
        total2 = sum(x) - total1
        for v in self.side1:
            sums[v] = total2
        return sums

    def assignment(self) -> KAssignment:
        """The zero-floor assignment this instance encodes."""
        return KAssignment(self.k, tuple((0, x) for x in self.b))


def parse_bipartite_instance(text: str) -> BipartiteInstance:
    """Line 1: ``n1 n2 k``; line 2: n1 demands; line 3: n2 demands."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if len(lines) != 3:
        raise ValueError("expected exactly three lines")
    n1, n2, k = _header(lines[0], 3)
    b1 = [int(x) for x in lines[1].split()]
    b2 = [int(x) for x in lines[2].split()]
    if len(b1) != n1 or len(b2) != n2:
        raise ValueError("demand counts disagree with the header")
    return BipartiteInstance.from_labels(k, b1, b2)


def complete_bipartite_graph(n1: int, n2: int) -> Graph:
    side1, side2 = range(n1), range(n1, n1 + n2)
    return Graph(n1 + n2, adj=[frozenset(side2)] * n1 + [frozenset(side1)] * n2)


def instance_from_assignment(side1, side2, L: KAssignment) -> BipartiteInstance:
    """The instance of assignment L on the complete bipartite graph with
    sides ``side1`` and ``side2``.  Nonzero floors are rejected."""
    for v, (a, _b) in enumerate(L.pairs):
        if a != 0:
            raise ValueError(f"vertex {v} has a nonzero weight floor")
    return BipartiteInstance(L.k, tuple(side1), tuple(side2), tuple(b for _a, b in L.pairs))


def _demand_at(sorted_b: list[int], count: int) -> int:
    """Largest demand among the vertices left at zero when `count` units
    are spread top-first; 0 past the end of the side."""
    return sorted_b[count] if count < len(sorted_b) else 0


def weakL_complete_bipartite(inst: BipartiteInstance):
    """Minimum total weight and a witness.

    Orders each side's vertices by demand, non-increasing, ties to the
    smaller vertex id.  Then scans the first side's total x downward and
    takes the smallest feasible partner total m(x), ties going to the
    smallest x.  Above n1 every first-side vertex is nonzero, so x + m(x)
    grows with x between two consecutive demands of the second side: the
    scan visits x = 0..n1 and those demands above n1, O(n1 + n2) values
    whatever k is.
    """
    k, b = inst.k, inst.b
    order1 = sorted(inst.side1, key=lambda v: (-b[v], v))
    order2 = sorted(inst.side2, key=lambda v: (-b[v], v))
    b1 = [b[v] for v in order1]
    b2 = [b[v] for v in order2]
    n1 = len(b1)
    best = None
    above = [d for d in b2 if d > n1]
    # the partner total forced by the second side's zero vertices shrinks
    # as x grows, so one descending pointer serves the whole scan
    y_opposite = 0
    for x in [*above, *range(n1, -1, -1)]:
        while _demand_at(b2, y_opposite) > x:
            y_opposite += 1
        m = max(_demand_at(b1, x), y_opposite)
        if best is None or x + m <= best[0]:
            best = (x + m, x, m)
    value, x, y = best
    weights = [0] * inst.n
    _spread(weights, order1, x, k)
    _spread(weights, order2, y, k)
    return value, WeightFunction(k, tuple(weights))


def _spread(weights, order, total, k):
    """Unit weights on the first ``total`` vertices of ``order``; totals
    beyond the side size pile the excess on the same vertices (capped at k
    each)."""
    for v in order[:total]:
        weights[v] = 1
    extra = total - len(order)
    pos = 0
    while extra > 0:
        v = order[pos]
        add = min(k - weights[v], extra)
        weights[v] += add
        extra -= add
        pos += 1
