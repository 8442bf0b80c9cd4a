"""Definitions, validators and cost functions for every domination variant.

A rainbow function assigns each vertex a subset of the colors {1..k}; a
vertex with an empty label must see all k colors in its open neighborhood.
The weight variants assign integers in {0..k}:

* weak {k}:       zero vertices need open-neighborhood weight >= k
* {k}:            every vertex needs closed-neighborhood weight >= k
* (j,k):          weights capped at j, closed-neighborhood weight >= k
* weak {k}-L:     per-vertex floors a_x on the weight and b_x on the
                  closed-neighborhood weight of zero vertices

Every rule reads only what a vertex sees in its open neighbourhood N(x),
so the validators read their graph argument ``g`` only through ``g.n`` and
``g.open_sums(x)``: for every vertex, the sum of the integers ``x`` over
its neighbours.  A ``Graph`` sums its neighbour sets, and each model kind
(cotree, rooted forest, intervals, permutation, complete bipartite)
computes the sums from its own structure without building an edge, so a
witness checks on the model it was solved on.

Validators return ``(True, None)`` or ``(False, v)`` with v the first
violating vertex in index order, so failures are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

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
            if lab and not (min(lab) >= 1 and max(lab) <= self.k):
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
    def uniform(k: int, n: int) -> "KAssignment":
        """The assignment giving every vertex the pair (0, k)."""
        return KAssignment(k, ((0, k),) * n)


def rainbow_cost(f: RainbowFunction) -> int:
    return sum(len(lab) for lab in f.labels)


def weight_cost(w: WeightFunction) -> int:
    return sum(w.weights)


def _require_defined(g, size: int) -> None:
    if size != g.n:
        raise ValueError(f"function defined on {size} vertices, graph has {g.n}")


# A packed colour sum stays under about this many bits, so an open sum
# holds a bounded number of words per vertex whatever k is; a larger k
# takes more open sums.
_PACK_BITS = 1024


def is_rainbow(g, f: RainbowFunction) -> tuple[bool, int | None]:
    """True iff every empty-labeled vertex sees all k colors around it.

    Each colour of a chunk is a bit field of one integer, so one open sum
    counts the neighbours of every colour in the chunk.  A field is wide
    enough for n - 1 neighbours below its top bit, so adding 2^(width-1) - 1
    to each field sets its top bit exactly when its count is positive.
    Later chunks only look at the empty vertices before the first one that
    failed."""
    _require_defined(g, len(f.labels))
    empty = [v for v, lab in enumerate(f.labels) if not lab]
    first = None
    width = g.n.bit_length() + 1
    per = max(1, _PACK_BITS // width)
    distinct = set(f.labels)
    for lo in range(1, f.k + 1, per):
        if not empty:
            break
        hi = min(lo + per, f.k + 1)
        ones = sum([1 << (i * width) for i in range(hi - lo)])
        top = ones << (width - 1)
        fill = top - ones
        packed = {lab: sum([1 << ((c - lo) * width) for c in lab if lo <= c < hi])
                  for lab in distinct}
        sums = g.open_sums([packed[lab] for lab in f.labels])
        for i, v in enumerate(empty):
            if (sums[v] + fill) & top != top:
                first = v
                del empty[i:]
                break
    return (True, None) if first is None else (False, first)


def is_weak_k(g, w: WeightFunction) -> tuple[bool, int | None]:
    """Zero vertices need open-neighborhood weight at least k."""
    _require_defined(g, len(w.weights))
    sums = g.open_sums(w.weights)
    for v, x in enumerate(w.weights):
        if x == 0 and sums[v] < w.k:
            return False, v
    return True, None


def is_k_dom(g, w: WeightFunction) -> tuple[bool, int | None]:
    """Every vertex needs closed-neighborhood weight at least k."""
    _require_defined(g, len(w.weights))
    sums = g.open_sums(w.weights)
    for v, x in enumerate(w.weights):
        if x + sums[v] < w.k:
            return False, v
    return True, None


def is_jk_dom(g, w: WeightFunction, j: int) -> tuple[bool, int | None]:
    """Weights capped at j; closed-neighborhood weight at least k everywhere."""
    _require_defined(g, len(w.weights))
    if not (1 <= j <= w.k):
        raise ValueError("j must satisfy 1 <= j <= k")
    for v, x in enumerate(w.weights):
        if x > j:
            return False, v
    return is_k_dom(g, w)


def is_weak_kL(g, w: WeightFunction, L: KAssignment) -> tuple[bool, int | None]:
    """w(x) >= a_x everywhere; zero vertices need closed weight >= b_x."""
    _require_defined(g, len(w.weights))
    _require_defined(g, len(L.pairs))
    if L.k != w.k:
        raise ValueError("assignment and weights disagree on k")
    sums = g.open_sums(w.weights)
    for v, (x, (a, b)) in enumerate(zip(w.weights, L.pairs)):
        if x < a or (x == 0 and sums[v] < b):
            return False, v
    return True, None


def check_witness(
    problem: str, g, value: int, witness, j: int | None = None,
    L: KAssignment | None = None,
) -> str | None:
    """None when ``witness`` is a valid function of ``problem`` (rainbow,
    weak, kdom, jkdom or weakL) on g that costs exactly ``value``; else
    what is wrong with it.  g is a ``Graph`` or a model (see the module
    docstring)."""
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
