"""Weak {2} and 2-rainbow domination on interval graphs by one sweep over
the consecutive clique arrangement, which one pass over the sorted
endpoints builds in O(n log n).

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
O(t^4) weak and O(t^5) rainbow states for t cliques, of which ``sweep.run``
keeps only the undominated ones after each clique; no cost bound is needed.

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

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate

from .graph import Graph, _vertex_rows
from .sweep import (
    FULL, RAINBOW, WEAK, Labels, advance, as_rainbow, as_weights, gain_at, run,
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

    def open_sums(self, x) -> list:
        """Per vertex v, the sum of ``x`` over the intervals meeting v's:
        the intervals that start by v's end, less those that end before v
        starts and v itself.  Prefix sums, O(n log n), and no edge."""
        ivs = self.intervals
        by_hi = sorted(range(self.n), key=lambda v: ivs[v][1])
        by_lo = sorted(range(self.n), key=lambda v: ivs[v][0])
        his = [ivs[v][1] for v in by_hi]
        los = [ivs[v][0] for v in by_lo]
        ended = [0]
        ended += accumulate([x[v] for v in by_hi])
        started = [0]
        started += accumulate([x[v] for v in by_lo])
        return [started[bisect_right(los, hi)] - ended[bisect_left(his, lo)] - xv
                for (lo, hi), xv in zip(ivs, x)]


def parse_intervals(text: str) -> IntervalModel:
    """n lines ``v left right``."""
    lo, hi = _vertex_rows(text, 3, "interval", "intervals must cover vertices")
    return IntervalModel(tuple(zip(lo, hi)))


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
    """t maximal cliques in consecutive order; each vertex v occupies the
    range first[v]..last[v] of clique indices."""

    n: int
    t: int
    first: tuple[int, ...]
    last: tuple[int, ...]


def build_arrangement(m: IntervalModel) -> CliqueArrangement:
    """One pass over the sorted endpoints, starts before ends at equal
    coordinates: the active intervals form a maximal clique exactly at an
    end that follows a start, so a vertex's range runs from the first clique
    closed after its start to the last one closed by its end."""
    events = sorted(e for v, (lo, hi) in enumerate(m.intervals)
                    for e in ((lo, 0, v), (hi, 1, v)))
    first, last = [0] * m.n, [0] * m.n
    t, opened = 0, False  # opened: a start since the last clique closed
    for _x, end, v in events:
        if end:
            t += opened  # an end right after a start closes a clique
            opened = False
            last[v] = t - 1
        else:
            first[v], opened = t, True
    return CliqueArrangement(m.n, t, tuple(first), tuple(last))


#: diagnostics from the most recent sweep: peak live states and layer count
LAST_SWEEP_STATS = {"max_states": 0, "layers": 0}


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
    left, join = labels.left, labels.join
    entrants: list[list[tuple[int, int]]] = [[] for _ in range(arr.t)]
    for v in range(arr.n):
        entrants[arr.first[v]].append((arr.last[v], v))
    # reaches run from 0 to t; t + 1 is the reach of no waiter
    absent = arr.t + 1
    rounded = list(range(arr.t + 2))

    def steps():  # run() is done with one step before it asks for the next
        for i, ents in enumerate(entrants):
            ents.sort()
            opts = _entrant_options(ents, labels, absent)
            rounded[i + 1] = 0  # a reach of at most i + 1 reaches no later clique

            def step(key, _budget):
                have = gain_at(key[0], i)
                moves = []
                for assign, c, gain, carried, zero_reach in opts:
                    waiter = (left[FULL][join[have][gain]], zero_reach)
                    new = advance(labels, key[0], i, gain, carried, waiter, rounded)
                    if new is not None:
                        moves.append(((new,), c, assign))
                return moves

            yield step

    # a state key is the 1-tuple of (r0, r1, waiter reach per need 1, 2, 3)
    best, assigns, peak = run(((0, 0, absent, absent, absent),), steps(), absent)
    LAST_SWEEP_STATS["max_states"] = peak
    LAST_SWEEP_STATS["layers"] = arr.t + 1
    out = [0] * arr.n
    for assign in assigns:
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
