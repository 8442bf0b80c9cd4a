"""P4-sparse recognition.

A graph is P4-sparse when every five vertices induce at most one P4.
Such a graph decomposes by unions, joins and spider nodes into a
``Cotree`` (see ``rainbowdom.cograph``, whose ``rainbow_cograph`` solves
every such tree; its spider rule is certified against the oracle on a
grid of thin and thick spiders rather than trusted).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .cograph import SpiderPartition, decompose
from .graph import Graph, complement

__all__ = [
    "SpiderPartition",
    "P4SparseRefusal",
    "recognize_p4sparse",
    "check_spider",
    "count_induced_p4s",
    "is_p4_sparse_bruteforce",
]


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


@dataclass(frozen=True)
class P4SparseRefusal:
    """Five vertices inducing at least two P4s."""

    witness: tuple[int, ...]


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


def _spider_or_refusal(g: Graph, vs: list[int]):
    return _extract_spider(g, vs) or _refusal(g, vs)


def recognize_p4sparse(g: Graph):
    """Decompose into unions, joins and spiders; on failure return five
    vertices inducing two or more P4s."""
    return decompose(g, _spider_or_refusal)
