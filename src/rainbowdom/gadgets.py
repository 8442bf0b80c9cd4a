"""Pendant constructions on split graphs and their value identities.

Attaching k-1 pendant vertices to every clique vertex of a split graph
shifts both the k-rainbow and the weak {k} domination numbers by exactly
|C|*(k-1) over the plain domination number.  The construction is here,
and ``verify_gadget_identities`` checks both identities against the exact
oracle.  The witness normalizations used in the argument (pendants carry
at most one color / at most unit weight) and the extraction of a
dominating set from a normalized witness run in the tests, in
``tests/reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graph import Graph

__all__ = [
    "SplitPartition",
    "split_partition",
    "render_split_partition",
    "pendant_gadget",
    "GadgetInfo",
    "GadgetReport",
    "verify_gadget_identities",
]


@dataclass(frozen=True)
class SplitPartition:
    """Clique side C and independent side I; C maximal as a clique."""

    C: frozenset[int]
    I: frozenset[int]


def _is_clique(g: Graph, vs) -> bool:
    return all(g.has_edge(u, v) for u, v in combinations(sorted(vs), 2))


def _is_independent(g: Graph, vs) -> bool:
    return not any(g.has_edge(u, v) for u, v in combinations(sorted(vs), 2))


def split_partition(g: Graph):
    """A split partition with C grown to a maximal clique, or None.

    Candidate clique sizes come from the sorted degree sequence; each
    candidate is verified directly.
    """
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    degs = [g.degree(v) for v in order]
    # the largest m with deg >= m-1 for the top m vertices brackets the
    # clique size of any split partition
    m = 0
    for i, d in enumerate(degs):
        if d >= i:
            m = i + 1
    for size in (m, m - 1, m + 1):
        if not (0 <= size <= g.n):
            continue
        C = set(order[:size])
        I = set(order[size:])
        if _is_clique(g, C) and _is_independent(g, I):
            # grow C maximal: adopt independent vertices joined to all of C
            for v in sorted(I):
                if all(g.has_edge(v, c) for c in C):
                    C.add(v)
                    I.discard(v)
            return SplitPartition(frozenset(C), frozenset(I))
    return None


def render_split_partition(p: SplitPartition) -> str:
    return (
        " ".join(map(str, sorted(p.C)))
        + "\n"
        + " ".join(map(str, sorted(p.I)))
        + "\n"
    )


@dataclass(frozen=True)
class GadgetInfo:
    """Which pendant vertices were attached to which clique vertex."""

    k: int
    pendants: tuple[tuple[int, tuple[int, ...]], ...]


def pendant_gadget(g: Graph, part: SplitPartition, k: int):
    """Attach k-1 pendant vertices to every clique vertex; the result is
    again a split graph (pendants join the independent side)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if part.C | part.I != frozenset(range(g.n)):
        raise ValueError("partition does not cover the graph")
    edges = list(g.edges)
    pendants = []
    nxt = g.n
    for c in sorted(part.C):
        mine = []
        for _ in range(k - 1):
            edges.append((c, nxt))
            mine.append(nxt)
            nxt += 1
        pendants.append((c, tuple(mine)))
    return Graph(nxt, edges), GadgetInfo(k, tuple(pendants))


@dataclass(frozen=True)
class GadgetReport:
    n_original: int
    clique_size: int
    k: int
    domination: int
    rainbow_of_gadget: int
    weak_of_gadget: int
    expected: int
    rainbow_matches: bool
    weak_matches: bool

    @property
    def ok(self) -> bool:
        return self.rainbow_matches and self.weak_matches


def verify_gadget_identities(g: Graph, part: SplitPartition, k: int) -> GadgetReport:
    """Compute both sides of the two pendant identities by oracle."""
    from . import oracle as _oracle

    gp, info = pendant_gadget(g, part, k)
    dom = _oracle.exact_domination(g)
    rk = _oracle.exact_rainbow(gp, k)
    wk = _oracle.exact_weight_variant(gp, "weak_k", k)
    expected = dom.value + len(part.C) * (k - 1)
    return GadgetReport(
        n_original=g.n,
        clique_size=len(part.C),
        k=k,
        domination=dom.value,
        rainbow_of_gadget=rk.value,
        weak_of_gadget=wk.value,
        expected=expected,
        rainbow_matches=rk.value == expected,
        weak_matches=wk.value == expected,
    )
