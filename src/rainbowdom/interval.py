"""Weak {2} / 2-rainbow domination on interval graphs by a sweep over the
consecutive clique arrangement.

The sweep state after clique i remembers: which vertices of C_i carry 2
(at most two) and which carry 1 (at most four) -- an optimal solution
within those caps always exists -- plus one representative per residual
demand class among the zero vertices still waiting for neighborhood
weight.  The kept representative is the waiting vertex whose interval ends
first: it sees a subset of the weight every other same-demand waiter sees
and dies first, so satisfying it satisfies them all.  A state dies when a
representative's interval ends with demand outstanding.

The 2-rainbow witness is obtained by coloring the weight witness (twos get
both colors, ones get one) with a greedy pass plus exhaustive and oracle
fallbacks; the value equality with the weak number on this class is
re-verified computationally by the certification suite.
"""

from __future__ import annotations

import logging
from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations

from .graph import Graph
from .semantics import RainbowFunction, WeightFunction, is_rainbow
from . import oracle as _oracle

__all__ = [
    "IntervalModel",
    "CliqueArrangement",
    "parse_intervals",
    "render_intervals",
    "interval_graph",
    "build_arrangement",
    "weak2_interval",
    "rainbow2_interval",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class IntervalModel:
    """Closed integer intervals, one per vertex."""

    intervals: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for v, (lo, hi) in enumerate(self.intervals):
            if lo > hi:
                raise ValueError(f"interval of vertex {v} has lo > hi")

    @property
    def n(self) -> int:
        return len(self.intervals)


def parse_intervals(text: str) -> IntervalModel:
    """n lines ``v left right``."""
    entries = {}
    for ln in (raw.strip() for raw in text.splitlines()):
        if not ln:
            continue
        parts = ln.split()
        if len(parts) != 3:
            raise ValueError(f"malformed interval line: {ln!r}")
        entries[int(parts[0])] = (int(parts[1]), int(parts[2]))
    if sorted(entries) != list(range(len(entries))):
        raise ValueError("intervals must cover vertices 0..n-1 exactly once")
    return IntervalModel(tuple(entries[v] for v in range(len(entries))))


def render_intervals(m: IntervalModel) -> str:
    return "\n".join(
        f"{v} {lo} {hi}" for v, (lo, hi) in enumerate(m.intervals)
    ) + "\n"


def interval_graph(m: IntervalModel) -> Graph:
    ivs = m.intervals
    order = sorted(range(m.n), key=ivs.__getitem__)
    lefts = [ivs[v][0] for v in order]
    adj: list[set[int]] = [set() for _ in range(m.n)]
    for i, u in enumerate(order):
        # the later starters that start by u's right end are u's overlaps
        later = order[i + 1:bisect_right(lefts, ivs[u][1])]
        adj[u].update(later)
        for v in later:
            adj[v].add(u)
    return Graph(m.n, adj=adj)


@dataclass(frozen=True)
class CliqueArrangement:
    """Maximal cliques in consecutive order; each vertex occupies the range
    first[v]..last[v] of clique indices."""

    n: int
    cliques: tuple[frozenset[int], ...]
    first: tuple[int, ...]
    last: tuple[int, ...]


def build_arrangement(m: IntervalModel) -> CliqueArrangement:
    """Sweep right endpoints left to right, keep the maximal active sets,
    then verify the consecutive-range property."""
    if m.n == 0:
        return CliqueArrangement(0, (), (), ())
    candidates = []
    for p in sorted({hi for (_, hi) in m.intervals}):
        active = frozenset(
            v for v, (lo, hi) in enumerate(m.intervals) if lo <= p <= hi
        )
        candidates.append(active)
    cliques = []
    for K in candidates:
        if any(K < K2 for K2 in candidates):
            continue
        if K not in cliques:
            cliques.append(K)
    first = [None] * m.n
    last = [None] * m.n
    for i, K in enumerate(cliques):
        for v in K:
            if first[v] is None:
                first[v] = i
            last[v] = i
    for v in range(m.n):
        assert first[v] is not None, f"vertex {v} missing from all cliques"
        span = set(range(first[v], last[v] + 1))
        member = {i for i, K in enumerate(cliques) if v in K}
        assert member == span, f"vertex {v} occupies a non-consecutive range"
    return CliqueArrangement(m.n, tuple(cliques), tuple(first), tuple(last))


def _merge_rep(reps: dict, demand: int, vertex: int, last):
    """Keep, per demand class, the waiter whose interval ends first."""
    cur = reps.get(demand)
    if cur is None or (last[vertex], vertex) < (last[cur], cur):
        reps[demand] = vertex


def _cheap_upper_bound(arr: CliqueArrangement) -> int:
    """Twice a greedy domination number bounds the weak {2} optimum."""
    g = _graph_from_arrangement(arr)
    undominated = set(range(g.n))
    picks = 0
    while undominated:
        best_v, best_gain = None, -1
        for v in range(g.n):
            gain = len((g.neighbors(v) | {v}) & undominated)
            if gain > best_gain:
                best_v, best_gain = v, gain
        undominated -= g.neighbors(best_v) | {best_v}
        picks += 1
    return 2 * picks


#: diagnostics from the most recent sweep: peak live states and layer count
LAST_SWEEP_STATS = {"max_states": 0, "layers": 0}


def weak2_interval(arr: CliqueArrangement):
    """Minimum weak {2}-dominating weight via the clique sweep."""
    if arr.n == 0:
        return 0, WeightFunction(2, ())
    t = len(arr.cliques)
    entrants = [sorted(v for v in arr.cliques[i] if arr.first[v] == i) for i in range(t)]
    last = arr.last
    ub = _cheap_upper_bound(arr)

    # state key: (twos, ones, rep_need1, rep_need2); value: (cost, prev, assign)
    start_key = (frozenset(), frozenset(), None, None)
    layers: list[dict] = [{start_key: (0, None, ())}]

    for i in range(t):
        cur = arr.cliques[i]
        new_layer: dict = {}
        for key, (cost, _prev, _assign) in layers[-1].items():
            twos, ones, rep1, rep2 = key
            # a waiter whose interval already ended cannot be helped anymore
            if rep1 is not None and last[rep1] < i:
                continue
            if rep2 is not None and last[rep2] < i:
                continue
            carry2 = twos & cur
            carry1 = ones & cur
            E = entrants[i]
            budget = ub - cost
            for n2 in range(0, min(2 - len(carry2), len(E), budget // 2) + 1):
                for set2 in combinations(E, n2):
                    rest = [v for v in E if v not in set2]
                    for n1 in range(0, min(4 - len(carry1), len(rest), budget - 2 * n2) + 1):
                        for set1 in combinations(rest, n1):
                            _weak2_push(
                                new_layer, arr, i, key, cost,
                                carry2, carry1, set2, set1,
                            )
        if not new_layer:
            raise AssertionError("sweep lost all states; arrangement invalid")
        layers.append(new_layer)

    LAST_SWEEP_STATS["max_states"] = max(len(layer) for layer in layers)
    LAST_SWEEP_STATS["layers"] = len(layers)

    best_key, best_cost = None, None
    for key, (cost, _p, _a) in layers[-1].items():
        _tw, _on, rep1, rep2 = key
        if rep1 is not None or rep2 is not None:
            continue
        if best_cost is None or cost < best_cost:
            best_key, best_cost = key, cost
    assert best_key is not None

    weights = [0] * arr.n
    key = best_key
    for i in range(t, 0, -1):
        cost, prev, assign = layers[i][key]
        for v, w in assign:
            weights[v] = w
        key = prev
    return best_cost, WeightFunction(2, tuple(weights))


def _weak2_push(new_layer, arr, i, key, cost, carry2, carry1, set2, set1):
    _twos_old, _ones_old, rep1, rep2 = key
    last = arr.last
    cur = arr.cliques[i]
    new_twos = carry2 | frozenset(set2)
    new_ones = carry1 | frozenset(set1)
    assert len(new_twos) <= 2 and len(new_ones) <= 4
    sigma = 2 * len(set2) + len(set1)
    total = 2 * len(new_twos) + len(new_ones)

    reps: dict[int, int] = {}
    for need, rep in ((1, rep1), (2, rep2)):
        if rep is None:
            continue
        if rep in cur:
            residual = need - sigma
            if residual > 0:
                _merge_rep(reps, residual, rep, last)
        else:
            # ended before this clique: handled by the caller's death check,
            # so reaching here means it was satisfied exactly at its end
            raise AssertionError("dead waiter leaked into transition")
    for v in arr.cliques[i]:
        if arr.first[v] != i or v in new_twos or v in new_ones:
            continue
        deficit = 2 - total
        if deficit > 0:
            _merge_rep(reps, deficit, v, last)
    # a two-needing waiter that outlives a one-needing waiter absorbs it
    if 1 in reps and 2 in reps and (last[reps[2]], reps[2]) <= (last[reps[1]], reps[1]):
        del reps[1]

    assign = tuple(
        [(v, 2) for v in set2] + [(v, 1) for v in set1]
    )
    new_key = (new_twos, new_ones, reps.get(1), reps.get(2))
    new_cost = cost + sigma
    old = new_layer.get(new_key)
    if old is None or new_cost < old[0]:
        new_layer[new_key] = (new_cost, key, assign)


def _color_greedy(g: Graph, weights, constrained):
    """Assign one color to each weight-1 vertex so every constrained zero
    vertex sees both colors; None when the greedy pass paints itself into a
    corner."""
    ones = [v for v in range(g.n) if weights[v] == 1]
    color: dict[int, int] = {}
    watchers = {v: [z for z in constrained if v in g.neighbors(z)] for v in ones}
    seen: dict[int, set[int]] = {z: set() for z in constrained}
    remaining = {z: sum(1 for u in g.neighbors(z) if weights[u] == 1) for z in constrained}
    for v in ones:
        forced = None
        for z in watchers[v]:
            missing = {1, 2} - seen[z]
            if len(missing) == 2 and remaining[z] == 2:
                continue  # either order still works
            if len(missing) == 2 and remaining[z] < 2:
                return None
            if len(missing) == 1 and remaining[z] == 1:
                (need,) = missing
                if forced is not None and forced != need:
                    return None
                forced = need
        if forced is not None:
            c = forced
        else:
            votes = {1: 0, 2: 0}
            for z in watchers[v]:
                for miss in {1, 2} - seen[z]:
                    votes[miss] += 1
            c = 1 if votes[1] >= votes[2] else 2
        color[v] = c
        for z in watchers[v]:
            seen[z].add(c)
            remaining[z] -= 1
    return color


def _color_exhaustive(g: Graph, weights, constrained, limit=22):
    ones = [v for v in range(g.n) if weights[v] == 1]
    if len(ones) > limit:
        return None
    need = {z: {1, 2} for z in constrained}
    remaining = {z: sum(1 for u in g.neighbors(z) if weights[u] == 1) for z in constrained}
    color: dict[int, int] = {}

    def rec(idx: int):
        if idx == len(ones):
            return all(not need[z] for z in constrained)
        v = ones[idx]
        for c in (1, 2):
            undo = []
            ok = True
            for z in constrained:
                if v in g.neighbors(z):
                    remaining[z] -= 1
                    undo.append(z)
                    if c in need[z]:
                        need[z].discard(c)
                        undo.append((z, c))
                    if len(need[z]) > remaining[z]:
                        ok = False
            if ok:
                color[v] = c
                if rec(idx + 1):
                    return True
                del color[v]
            for item in reversed(undo):
                if isinstance(item, tuple):
                    need[item[0]].add(item[1])
                else:
                    remaining[item] += 1
        return False

    return color if rec(0) else None


def rainbow2_interval(arr: CliqueArrangement, g: Graph | None = None):
    """2-rainbow domination number (equal to the weak {2} number on this
    class) and a validating rainbow witness built from the weight witness.

    Falls back to exhaustive coloring, then to the exact oracle, when the
    greedy color repair fails; returns ``(value, None)`` with a logged
    warning if no witness could be constructed within caps.
    """
    value, w = weak2_interval(arr)
    if g is None:
        g = _graph_from_arrangement(arr)
    weights = w.weights
    labels: list[frozenset[int]] = [frozenset()] * arr.n
    for v in range(arr.n):
        if weights[v] == 2:
            labels[v] = frozenset({1, 2})
    constrained = [
        z
        for z in range(arr.n)
        if weights[z] == 0
        and not any(weights[u] == 2 for u in g.neighbors(z))
    ]
    color = _color_greedy(g, weights, constrained)
    if color is None:
        color = _color_exhaustive(g, weights, constrained)
    if color is not None:
        for v, c in color.items():
            labels[v] = frozenset({c})
        witness = RainbowFunction(2, tuple(labels))
        ok, _ = is_rainbow(g, witness)
        if ok:
            return value, witness
        log.warning("colored weight witness failed validation; trying oracle")
    try:
        res = _oracle.exact_rainbow(g, 2)
    except _oracle.OracleCapExceeded:
        log.warning("no rainbow witness constructed within oracle cap")
        return value, None
    assert res.value == value, "weak/rainbow equality violated on intervals"
    return value, res.witness


def _graph_from_arrangement(arr: CliqueArrangement) -> Graph:
    adj: list[set[int]] = [set() for _ in range(arr.n)]
    for K in arr.cliques:
        for v in K:
            adj[v].update(K)
    for v, nb in enumerate(adj):
        nb.discard(v)
    return Graph(arr.n, adj=adj)
