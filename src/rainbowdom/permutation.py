"""2-rainbow and weak {2} domination on permutation graphs by a scanline
sweep over the diagram.

Segment s runs from top position s to bottom position pi[s].  The sweep
decides segments in the order their first endpoint is passed, labelling
each with a mask as in ``sweep``.  A segment that started at the top (side
0) crosses a later starter u iff pi[u] < pi[s]; one that started at the
bottom (side 1) crosses u iff u < s.  So a decided segment matters to the
future only through its side and its pending position, its reach: side 0
reaches later coordinates pi[u] below pi[s], side 1 later coordinates u
below s.  The state is a tuple of integers:

- per side, the carriers' reaches (r0, r1), as in ``sweep``;
- per side and need, the reach of the waiter with that need that reaches
  least: every later segment crossing it crosses the side's other waiters
  of that need too.  A waiter lacking everything absorbs the others of its
  side that reach no less.

After each step every reach is rounded down to one past the largest
coordinate of a segment still to come below it, which changes nothing that
is still to come and merges states that differ only in the past.  A waiter
that rounds to 0 can no longer be helped, and its state dies.

One segment is decided per step, so every label is tried, unless it costs
more than a greedy dominating set with full labels.  After each step
``sweep.run`` drops every state that another state of the step dominates:
no higher cost, and each of its ten reaches at least as far
(``sweep.undominated`` gives the argument).
"""

from __future__ import annotations

from itertools import accumulate

from .graph import Graph
from .oracle import _greedy_dominating
from .sweep import (
    FULL, RAINBOW, WEAK, Labels, advance, as_rainbow, as_weights, gain_at, run,
)

__all__ = [
    "Permutation",
    "parse_permutation",
    "render_permutation",
    "diagram_to_graph",
    "rainbow2_permutation",
    "weak2_permutation",
]


class Permutation(tuple):
    """A diagram as the tuple pi of 0-indexed bottom positions: segment s
    runs from top position s to bottom position pi[s]."""

    __slots__ = ()

    @property
    def n(self) -> int:
        return len(self)

    def open_sums(self, x) -> list:
        """Per segment, the sum of ``x`` over the segments crossing it, in
        O(n log n) and without an edge.  Segment s crosses the earlier
        segments that end above it and the later ones that end below it.
        One pass left to right keeps a Fenwick tree over the bottom
        positions passed; with ``below`` the x of the earlier segments
        ending below s, the first group sums to passed - below and the
        second to lower[pi[s]] - below."""
        n = len(self)
        at = [0] * n
        for s, c in enumerate(self):
            at[c] = x[s]
        lower = [0]  # lower[c]: x over every segment ending below c
        lower += accumulate(at)
        tree = [0] * (n + 1)
        passed = 0
        sums = []
        for s, c in enumerate(self):
            below, i = 0, c
            while i:
                below += tree[i]
                i &= i - 1
            sums.append(passed + lower[c] - 2 * below)
            i = c + 1
            while i <= n:
                tree[i] += x[s]
                i += i & -i
            passed += x[s]
        return sums


def parse_permutation(text: str) -> Permutation:
    """One line: the images of 1..n.  Returned 0-indexed."""
    parts = text.split()
    pi = [int(x) - 1 for x in parts]
    if sorted(pi) != list(range(len(pi))):
        raise ValueError("not a permutation of 1..n")
    return Permutation(pi)


def render_permutation(pi: tuple[int, ...]) -> str:
    return " ".join(str(x + 1) for x in pi) + "\n"


def diagram_to_graph(pi) -> Graph:
    """Inversion graph: segments cross iff their endpoints are inverted."""
    n = len(pi)
    if sorted(pi) != list(range(n)):
        raise ValueError("not a permutation of 0..n-1")
    adj: list[set[int]] = [set() for _ in range(n)]
    for i in range(n):
        later = [j for j in range(i + 1, n) if pi[j] < pi[i]]
        adj[i].update(later)
        for j in later:
            adj[j].add(i)
    return Graph(n, adj=adj)


def _rounding(to_come: list[bool], absent: int) -> list[int]:
    """rounded[r]: one past the largest coordinate still to come below r, or 0;
    `absent` is kept as it is."""
    rounded = [0] * (len(to_come) + 2)
    for r in range(1, len(to_come) + 1):
        rounded[r] = r if to_come[r - 1] else rounded[r - 1]
    rounded[-1] = absent
    return rounded


def upper_bound(pi) -> int:
    """Label FULL on a greedy dominating set: a bound on either number."""
    n = len(pi)
    if sorted(pi) != list(range(n)):
        raise ValueError("not a permutation of 0..n-1")
    # u crosses v iff their ends are inverted; u == v passes too, giving N[v]
    closed = [sum(1 << u for u in range(n) if (u < v) == (pi[u] > pi[v]))
              for v in range(n)]
    return 2 * len(_greedy_dominating(closed, (1 << n) - 1))


def _sweep(pi, labels: Labels):
    """Minimum-cost labelling of the segments: (cost, label per segment)."""
    n = len(pi)
    ub = upper_bound(pi)  # raises ValueError on a non-permutation
    left, join = labels.left, labels.join
    absent = n + 1  # the reach of no waiter
    choices = [(lab, lab.bit_count()) for lab in (0,) + labels.nonzero]
    order = sorted(range(n), key=lambda s: min(2 * s, 2 * pi[s] + 1))
    to_come = ([True] * n, [True] * n)  # bottom positions, top positions

    def steps():  # run() is done with one step before it asks for the next
        for s in order:
            side = 0 if s <= pi[s] else 1
            x = (pi[s], s)  # where s is met by side 0 and side 1 reaches
            reach_s = x[side]
            to_come[0][pi[s]] = to_come[1][s] = False
            rounding = (_rounding(to_come[0], absent), _rounding(to_come[1], absent))
            own: dict = {}  # advance() on s's side, by (state, label, need)
            other: dict = {}  # advance() on the other side, by (state, label)

            def step(key, budget):
                have = join[gain_at(key[0], x[0])][gain_at(key[1], x[1])]
                mine_at, other_at = key[side], key[1 - side]
                moves = []
                for lab, c in choices:
                    if c > budget:
                        continue
                    need = 0 if lab else left[FULL][have]
                    k = (mine_at, lab, need)
                    if k not in own:
                        own[k] = advance(
                            labels, mine_at, x[side], lab,
                            (lab, reach_s) if lab else None,
                            None if lab else (need, reach_s),
                            rounding[side],
                        )
                    mine = own[k]
                    if mine is None:
                        continue
                    k = (other_at, lab)
                    if k not in other:
                        other[k] = advance(
                            labels, other_at, x[1 - side], lab, None, None,
                            rounding[1 - side],
                        )
                    theirs = other[k]
                    if theirs is None:
                        continue
                    moves.append(((mine, theirs) if side == 0 else (theirs, mine), c, lab))
                return moves

            yield step

    # a state key is one (r0, r1, waiter reach per need 1, 2, 3) per side
    empty = (0, 0, absent, absent, absent)
    best, labs, _peak = run((empty, empty), steps(), absent, ub)
    out = [0] * n
    for s, lab in zip(order, labs):
        out[s] = lab
    return best, out


def rainbow2_permutation(pi):
    """Exact 2-rainbow domination number of the inversion graph of pi,
    with a witness."""
    value, out = _sweep(tuple(pi), RAINBOW)
    return value, as_rainbow(out)


def weak2_permutation(pi):
    """Weak {2}-domination number by the same sweep over weights."""
    value, out = _sweep(tuple(pi), WEAK)
    return value, as_weights(out)
