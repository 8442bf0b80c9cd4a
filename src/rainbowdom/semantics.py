"""Definitions, validators and cost functions for every domination variant.

A rainbow function assigns each vertex a subset of the colors {1..k}; a
vertex with an empty label must see all k colors in its open neighborhood.
The weight variants assign integers in {0..k}:

* weak {k}:       zero vertices need open-neighborhood weight >= k
* {k}:            every vertex needs closed-neighborhood weight >= k
* (j,k):          weights capped at j, closed-neighborhood weight >= k
* weak {k}-L:     per-vertex floors a_x on the weight and b_x on the
                  closed-neighborhood weight of zero vertices

Validators return ``(True, None)`` or ``(False, v)`` with v the first
violating vertex in index order, so failures are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph

__all__ = [
    "RainbowFunction",
    "WeightFunction",
    "KAssignment",
    "rainbow_cost",
    "weight_cost",
    "is_rainbow",
    "is_weak_k",
    "is_k_dom",
    "is_jk_dom",
    "is_weak_kL",
    "check_witness",
    "rainbow_to_weight",
]


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError("k must be a positive integer")


@dataclass(frozen=True)
class RainbowFunction:
    """Per-vertex color subsets of {1..k}."""

    k: int
    labels: tuple[frozenset[int], ...]

    def __post_init__(self):
        _check_k(self.k)
        for v, lab in enumerate(self.labels):
            if not lab <= frozenset(range(1, self.k + 1)):
                raise ValueError(f"label of vertex {v} not within 1..{self.k}")


@dataclass(frozen=True)
class WeightFunction:
    """Per-vertex integer weights in {0..k}."""

    k: int
    weights: tuple[int, ...]

    def __post_init__(self):
        _check_k(self.k)
        for v, w in enumerate(self.weights):
            if not (0 <= w <= self.k):
                raise ValueError(f"weight of vertex {v} outside 0..{self.k}")


@dataclass(frozen=True)
class KAssignment:
    """Per-vertex pairs (a, b) of floors from {0..k}."""

    k: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        _check_k(self.k)
        for v, (a, b) in enumerate(self.pairs):
            if not (0 <= a <= self.k and 0 <= b <= self.k):
                raise ValueError(f"assignment of vertex {v} outside 0..{self.k}")

    @staticmethod
    def uniform(k: int, n: int, a: int = 0, b: int | None = None) -> "KAssignment":
        """The assignment giving every vertex the same pair; b defaults to k."""
        if b is None:
            b = k
        return KAssignment(k, tuple((a, b) for _ in range(n)))


def rainbow_cost(f: RainbowFunction) -> int:
    return sum(len(lab) for lab in f.labels)


def weight_cost(w: WeightFunction) -> int:
    return sum(w.weights)


def _require_defined(g: Graph, size: int) -> None:
    if size != g.n:
        raise ValueError(f"function defined on {size} vertices, graph has {g.n}")


def is_rainbow(g: Graph, f: RainbowFunction) -> tuple[bool, int | None]:
    """True iff every empty-labeled vertex sees all k colors around it."""
    _require_defined(g, len(f.labels))
    full = frozenset(range(1, f.k + 1))
    for v in range(g.n):
        if f.labels[v]:
            continue
        seen: set[int] = set()
        for u in g.neighbors(v):
            seen |= f.labels[u]
        if not full <= seen:
            return False, v
    return True, None


def is_weak_k(g: Graph, w: WeightFunction) -> tuple[bool, int | None]:
    """Zero vertices need open-neighborhood weight at least k."""
    _require_defined(g, len(w.weights))
    for v in range(g.n):
        if w.weights[v] != 0:
            continue
        if sum(w.weights[u] for u in g.neighbors(v)) < w.k:
            return False, v
    return True, None


def is_k_dom(g: Graph, w: WeightFunction) -> tuple[bool, int | None]:
    """Every vertex needs closed-neighborhood weight at least k."""
    _require_defined(g, len(w.weights))
    for v in range(g.n):
        total = w.weights[v] + sum(w.weights[u] for u in g.neighbors(v))
        if total < w.k:
            return False, v
    return True, None


def is_jk_dom(g: Graph, w: WeightFunction, j: int) -> tuple[bool, int | None]:
    """Weights capped at j; closed-neighborhood weight at least k everywhere."""
    _require_defined(g, len(w.weights))
    if not (1 <= j <= w.k):
        raise ValueError("j must satisfy 1 <= j <= k")
    for v in range(g.n):
        if w.weights[v] > j:
            return False, v
    return is_k_dom(g, w)


def is_weak_kL(
    g: Graph, w: WeightFunction, L: KAssignment
) -> tuple[bool, int | None]:
    """w(x) >= a_x everywhere; zero vertices need closed weight >= b_x."""
    _require_defined(g, len(w.weights))
    _require_defined(g, len(L.pairs))
    if L.k != w.k:
        raise ValueError("assignment and weights disagree on k")
    for v in range(g.n):
        a, b = L.pairs[v]
        if w.weights[v] < a:
            return False, v
        if w.weights[v] == 0:
            total = sum(w.weights[u] for u in g.neighbors(v))
            if total < b:
                return False, v
    return True, None


def check_witness(
    problem: str, g: Graph, value: int, witness, j: int | None = None,
    L: KAssignment | None = None,
) -> str | None:
    """None when ``witness`` is a valid function of ``problem`` (rainbow,
    weak, kdom, jkdom or weakL) on g that costs exactly ``value``; else
    what is wrong with it."""
    if witness is None:
        return "no witness"
    if problem == "rainbow":
        ok, viol = is_rainbow(g, witness)
        cost = rainbow_cost(witness)
    else:
        if problem == "weak":
            ok, viol = is_weak_k(g, witness)
        elif problem == "kdom":
            ok, viol = is_k_dom(g, witness)
        elif problem == "jkdom":
            ok, viol = is_jk_dom(g, witness, j)
        else:
            ok, viol = is_weak_kL(g, witness, L)
        cost = weight_cost(witness)
    if not ok:
        return f"witness fails {problem} validation at vertex {viol}"
    if cost != value:
        return f"witness costs {cost}, value is {value}"
    return None


def rainbow_to_weight(f: RainbowFunction) -> WeightFunction:
    """Project labels to their sizes; preserves cost, and maps rainbow
    functions to weak {k}-dominating functions."""
    return WeightFunction(f.k, tuple(len(lab) for lab in f.labels))
