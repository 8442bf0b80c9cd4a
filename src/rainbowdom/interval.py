"""Weak {2} and 2-rainbow domination on interval graphs by one sweep over
the consecutive clique arrangement.

Both problems label vertices with masks (see ``sweep``): colour sets for
the rainbow number, weights 1 and 2 as masks 1 and 3 for the weak number.
Each step decides the entrants of one clique, the vertices whose range
starts there.  A decided vertex v reaches exactly the cliques up to
last[v], so the state after clique i is a tuple of integers, each a reach
(the index one past the last clique reached):

- the carriers' reaches (r0, r1): how far carried colour 1 / colour 2
  (rainbow), or carried weight of at least 1 / 2 (weak), still reaches;
  a reach that ends by clique i is forgotten;
- one waiter reach per need: among the decided zero vertices still lacking
  that need, the one that ends first.  Every later entrant that reaches it
  reaches the other waiters of its need too, so satisfying it satisfies
  them all.  A waiter lacking everything absorbs the others when it ends no
  later.

A state dies when a waiter ends with its need outstanding.  That leaves
O(t^4) weak and O(t^5) rainbow states for t cliques.

The entrants of one clique all start there, so their closed neighbourhoods
are nested by where they end, and exchange arguments leave at most six
labellings worth trying per clique, listed once per clique:

- a full label (both colours, or weight 2) on the entrant ending last gives
  every entrant and waiter all it needs and carries furthest, so it beats
  any labelling of cost 2 or more;
- a cost-1 label goes on the entrant ending last, unless it is worth more
  on the one ending first, which then stops being the first zero entrant
  to end;
- or every entrant stays 0.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .graph import Graph
from .sweep import (
    FULL,
    RAINBOW,
    WEAK,
    Labels,
    advance,
    as_rainbow,
    as_weights,
    gain_at,
    upper_bound,
)

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


#: diagnostics from the most recent sweep: peak live states and layer count
LAST_SWEEP_STATS = {"max_states": 0, "layers": 0}


def _closed_masks(arr: CliqueArrangement) -> list[int]:
    nb = [0] * arr.n
    for K in arr.cliques:
        mask = sum(1 << v for v in K)
        for v in K:
            nb[v] |= mask
    return nb


def _entrant_options(ents: list[tuple[int, int]], labels: Labels, absent: int):
    """The labellings of one clique's entrants worth trying (see the module
    docstring), from its entrants as sorted (last, vertex) pairs.  Each is
    (assignment, cost, gain to the clique, carried (label, reach) or None,
    reach of the first zero entrant to end or `absent`)."""
    (lo_last, lo), (hi_last, hi) = ents[0], ents[-1]
    lone = len(ents) == 1
    opts = [((), 0, 0, None, lo_last + 1)]
    for lab in labels.nonzero:
        opts.append((((hi, lab),), lab.bit_count(), lab, (lab, hi_last + 1),
                     absent if lone else lo_last + 1))
        if lab != FULL and not lone:
            opts.append((((lo, lab),), 1, lab, (lab, lo_last + 1), ents[1][0] + 1))
    return opts


def _sweep(arr: CliqueArrangement, labels: Labels):
    """Minimum-cost labelling of the arrangement: (cost, label per vertex)."""
    t, last = len(arr.cliques), arr.last
    left, join = labels.left, labels.join
    ub = upper_bound(_closed_masks(arr))
    entrants: list[list[tuple[int, int]]] = [[] for _ in range(t)]
    for v in range(arr.n):
        entrants[arr.first[v]].append((last[v], v))
    # reaches run from 0 to t; t + 1 is the reach of no waiter
    absent = t + 1
    rounded = list(range(t + 2))

    # state key: (r0, r1, waiter reach per need 1, 2, 3); value: (cost, prev, assign)
    layers: list[dict] = [{(0, 0, absent, absent, absent): (0, None, ())}]
    for i, ents in enumerate(entrants):
        ents.sort()
        opts = _entrant_options(ents, labels, absent)
        rounded[i + 1] = 0  # a reach of at most i + 1 reaches no later clique
        layer: dict = {}
        for key, (base, _prev, _assign) in layers[-1].items():
            have = gain_at(key, i)
            for assign, c, gain, carried, zero_reach in opts:
                total = base + c
                if total > ub:
                    continue
                waiter = (left[FULL][join[have][gain]], zero_reach)
                new_key = advance(labels, key, i, gain, carried, waiter, rounded)
                if new_key is None:
                    continue
                old = layer.get(new_key)
                if old is None or total < old[0]:
                    layer[new_key] = (total, key, assign)
        if not layer:
            raise AssertionError("sweep lost all states; arrangement invalid")
        layers.append(layer)

    LAST_SWEEP_STATS["max_states"] = max(len(layer) for layer in layers)
    LAST_SWEEP_STATS["layers"] = len(layers)

    # every waiter has ended by now, so one state is left
    ((key, (best, _prev, _assign)),) = layers[-1].items()
    out = [0] * arr.n
    for layer in reversed(layers[1:]):
        _cost, key, assign = layer[key]
        for v, lab in assign:
            out[v] = lab
    return best, out


def weak2_interval(arr: CliqueArrangement):
    """Minimum weak {2}-dominating weight and a witness, by the clique sweep."""
    value, out = _sweep(arr, WEAK)
    return value, as_weights(out)


def rainbow2_interval(arr: CliqueArrangement):
    """2-rainbow domination number and a witness, by the clique sweep over
    colour sets."""
    value, out = _sweep(arr, RAINBOW)
    return value, as_rainbow(out)
