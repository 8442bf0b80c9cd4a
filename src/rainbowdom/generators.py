"""Named graph families with their structure models, deterministic under
(params, seed)."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graph import Graph, graph_join, graph_union
from .cograph import SpiderPartition, parse_cotree
from .gadgets import SplitPartition

__all__ = ["BipartitePartition", "generate", "FAMILIES"]


@dataclass(frozen=True)
class BipartitePartition:
    side1: tuple[int, ...]
    side2: tuple[int, ...]


def _path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def _cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def _complete(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _complete_bipartite(n1: int, n2: int):
    if n1 < 1 or n2 < 1:
        raise ValueError("both sides need at least one vertex")
    g = Graph(n1 + n2, [(u, n1 + v) for u in range(n1) for v in range(n2)])
    return g, BipartitePartition(tuple(range(n1)), tuple(range(n1, n1 + n2)))


def _spider(kind: str, s: int, head: int):
    """Feet 0..s-1, body s..2s-1, edgeless head 2s..2s+head-1."""
    if s < 2:
        raise ValueError("a spider has at least two feet")
    if head < 0:
        raise ValueError("head size must be non-negative")
    edges = []
    for i in range(s):
        for j in range(s):
            matched = (i == j) if kind == "thin" else (i != j)
            if matched:
                edges.append((i, s + j))
    for i in range(s):
        for j in range(i + 1, s):
            edges.append((s + i, s + j))
    for h in range(head):
        for j in range(s):
            edges.append((2 * s + h, s + j))
    g = Graph(2 * s + head, edges)
    model = SpiderPartition(
        kind,
        tuple(range(s)),
        tuple(range(s, 2 * s)),
        tuple(range(2 * s, 2 * s + head)),
    )
    return g, model


def _random(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph(n, edges)


def _random_splitgraph(c: int, i: int, p: float, seed: int):
    if c < 1 or i < 0:
        raise ValueError("need a nonempty clique side")
    rng = random.Random(seed)
    edges = [(a, b) for a in range(c) for b in range(a + 1, c)]
    for a in range(c):
        for b in range(i):
            if rng.random() < p:
                edges.append((a, c + b))
    g = Graph(c + i, edges)
    return g, SplitPartition(frozenset(range(c)), frozenset(range(c, c + i)))


def _rainbow_gap():
    """12-vertex cograph separating the weak {3} and 3-rainbow numbers
    (4 versus 6): the join of two copies of a union of two paths on three
    vertices."""
    p3 = _path(3)
    side = graph_union(p3, p3)
    g = graph_join(side, side)
    path = lambda a: f"(J {a + 1} (U {a} {a + 2}))"
    return g, parse_cotree(f"(J (U {path(0)} {path(3)}) (U {path(6)} {path(9)}))")


FAMILIES = (
    "path",
    "cycle",
    "complete",
    "complete_bipartite",
    "thin_spider",
    "thick_spider",
    "random",
    "random_splitgraph",
    "union",
    "join",
    "rainbow_gap",
)


def generate(family: str, *params, seed: int = 0):
    """Build a named family member; returns (graph, model-or-None).

    Models: spiders yield their partition, random split graphs their split
    partition, complete bipartite graphs their sides, and the gap example
    its cotree.
    """
    if family == "path":
        return _path(int(params[0])), None
    if family == "cycle":
        return _cycle(int(params[0])), None
    if family == "complete":
        return _complete(int(params[0])), None
    if family == "complete_bipartite":
        return _complete_bipartite(int(params[0]), int(params[1]))
    if family == "thin_spider":
        return _spider("thin", int(params[0]), int(params[1]) if len(params) > 1 else 0)
    if family == "thick_spider":
        return _spider("thick", int(params[0]), int(params[1]) if len(params) > 1 else 0)
    if family == "random":
        return _random(int(params[0]), float(params[1]), seed), None
    if family == "random_splitgraph":
        return _random_splitgraph(
            int(params[0]), int(params[1]), float(params[2]), seed
        )
    if family == "union":
        a, b = params
        return graph_union(a, b), None
    if family == "join":
        a, b = params
        return graph_join(a, b), None
    if family == "rainbow_gap":
        return _rainbow_gap()
    raise ValueError(f"unknown family {family!r}")
