"""Named graph families with their structure models, deterministic under
(params, seed)."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .bipartite import complete_bipartite_graph
from .graph import Graph
from .cograph import CotreeBuilder, SpiderPartition, cotree_to_graph, parse_cotree
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
    sides = BipartitePartition(tuple(range(n1)), tuple(range(n1, n1 + n2)))
    return complete_bipartite_graph(n1, n2), sides


def _spider(kind: str, s: int, head: int = 0):
    """Feet 0..s-1, body s..2s-1, edgeless head 2s..2s+head-1; the model
    is the spider's tree, its head a union of leaves."""
    if s < 2:
        raise ValueError("a spider has at least two feet")
    if head < 0:
        raise ValueError("head size must be non-negative")
    b = CotreeBuilder()
    head_node = -1
    for v in range(2 * s, 2 * s + head):
        head_node = b.leaf(v) if head_node == -1 else b.node("U", head_node, b.leaf(v))
    sp = SpiderPartition(kind, tuple(range(s)), tuple(range(s, 2 * s)), ())
    tree = b.tree(b.spider_node(sp, head_node))
    return cotree_to_graph(tree), tree


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
    path = lambda a: f"(J {a + 1} (U {a} {a + 2}))"
    tree = parse_cotree(f"(J (U {path(0)} {path(3)}) (U {path(6)} {path(9)}))")
    return cotree_to_graph(tree), tree


# Each family's parameter kinds: "n" a whole number, "p" a probability in
# [0, 1].  A spider's head size may be left out.
FAMILIES = {
    "path": "n",
    "cycle": "n",
    "complete": "n",
    "complete_bipartite": "nn",
    "thin_spider": "nn",
    "thick_spider": "nn",
    "random": "np",
    "random_splitgraph": "nnp",
    "rainbow_gap": "",
}


def _params(family: str, params) -> list:
    kinds = FAMILIES[family]
    fewest = 1 if family.endswith("_spider") else len(kinds)
    if not fewest <= len(params) <= len(kinds):
        want = f"{fewest} or {len(kinds)}" if fewest < len(kinds) else len(kinds)
        raise ValueError(f"{family} takes {want} parameters, got {len(params)}")
    out = []
    for kind, x in zip(kinds, params):
        if kind == "n" and not float(x).is_integer():
            raise ValueError(f"size {x} is not a whole number")
        if kind == "p" and not 0 <= x <= 1:
            raise ValueError(f"probability {x} is not in [0, 1]")
        out.append(int(x) if kind == "n" else float(x))
    return out


def generate(family: str, *params, seed: int = 0):
    """Build a named family member; returns (graph, model-or-None).

    Models: spiders and the gap example yield their tree, random split
    graphs their split partition, and complete bipartite graphs their
    sides.  Sizes must be whole numbers and probabilities lie in [0, 1]
    (``ValueError`` otherwise).
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    p = _params(family, params)
    if family == "path":
        return _path(*p), None
    if family == "cycle":
        return _cycle(*p), None
    if family == "complete":
        return _complete(*p), None
    if family == "complete_bipartite":
        return _complete_bipartite(*p)
    if family in ("thin_spider", "thick_spider"):
        return _spider(family.split("_")[0], *p)
    if family == "random":
        return _random(*p, seed), None
    if family == "random_splitgraph":
        return _random_splitgraph(*p, seed)
    return _rainbow_gap()
