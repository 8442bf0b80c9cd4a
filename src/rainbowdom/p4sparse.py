"""P4-sparse recognition.

A graph is P4-sparse when every five vertices induce at most one P4.
Such a graph decomposes by unions, joins and spider nodes into a
``Cotree`` (see ``rainbowdom.cograph``, whose ``rainbow_cograph`` solves
every such tree; its spider rule is certified against the oracle on a
grid of thin and thick spiders rather than trusted).

Recognition reads only the neighbour sets inside each node's vertex set
(n vertices).  A spider with s feet is proved by two degree counts
(``_extract_spider``): thin when the degree-1 vertices meet distinct body
vertices of degree n - s, thick when the degree-(n - 2) vertices miss
distinct feet of degree s - 1.  Any other such set is refused with the
first P4 of ``cograph.induced_p4s`` that a fifth vertex extends to two.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .cograph import SpiderPartition, decompose, induced_p4s
from .graph import Graph

__all__ = [
    "SpiderPartition",
    "P4SparseRefusal",
    "recognize_p4sparse",
    "count_induced_p4s",
]


@dataclass(frozen=True)
class P4SparseRefusal:
    """Five vertices inducing at least two P4s."""

    witness: tuple[int, ...]


def count_induced_p4s(g: Graph, vertices) -> int:
    """Number of vertex sets inducing a P4 within the given vertices."""
    count = 0
    for quad in combinations(sorted(vertices), 4):
        q = set(quad)
        # of the graphs on four vertices, only the P4 has degrees 1, 1, 2, 2
        count += sorted(len(g.neighbors(v) & q) for v in quad) == [1, 1, 2, 2]
    return count


def _extract_spider(g: Graph, vs: list[int]) -> SpiderPartition | None:
    """The spider partition of G[vs], or None, from degrees inside vs.

    Thin: the s feet are the degree-1 vertices, each matched to its one
    neighbour.  If the partners are distinct and not feet, a body vertex
    sees at most its foot, the other s - 1 body vertices and the head, so
    degree n - s on every body vertex means a clique body that sees the
    whole head.  Thick: the s body vertices are those of degree n - 2,
    each matched to its one non-neighbour.  If the partners are distinct
    and not body vertices, a foot already sees the other s - 1 body
    vertices, so degree s - 1 means it sees no foot and no head vertex.
    Thin goes first, so a P4 stays thin; the head is the rest of vs.
    """
    vset = set(vs)
    nbs = {v: g.neighbors(v) & vset for v in vs}
    n = len(vs)
    kind = "thin"
    feet = [v for v in vs if len(nbs[v]) == 1]
    body = [next(iter(nbs[f])) for f in feet]
    s = len(feet)
    if not (s >= 2 and len(set(body)) == s and set(body).isdisjoint(feet)
            and all(len(nbs[y]) == n - s for y in body)):
        kind = "thick"
        body = [v for v in vs if len(nbs[v]) == n - 2]
        feet = [next(iter(vset - nbs[y] - {y})) for y in body]
        s = len(body)
        if not (s >= 2 and len(set(feet)) == s and set(feet).isdisjoint(body)
                and all(len(nbs[f]) == s - 1 for f in feet)):
            return None
    used = set(feet).union(body)
    return SpiderPartition(kind, tuple(feet), tuple(body),
                           tuple(v for v in vs if v not in used))


def _refusal(g: Graph, vs: list[int]) -> P4SparseRefusal:
    """The first P4 of the scan that one more vertex of vs, taken in
    order, extends to five vertices inducing two P4s."""
    for p4 in induced_p4s(g, vs):
        for x in vs:
            if x not in p4:
                five = tuple(sorted((*p4, x)))
                if count_induced_p4s(g, five) > 1:
                    return P4SparseRefusal(five)
    raise AssertionError("undecomposable subgraph must break the 5-vertex rule")


def _spider_or_refusal(g: Graph, vs: list[int]):
    return _extract_spider(g, vs) or _refusal(g, vs)


def recognize_p4sparse(g: Graph):
    """Decompose into unions, joins and spiders; on failure return five
    vertices inducing two or more P4s."""
    return decompose(g, _spider_or_refusal)
