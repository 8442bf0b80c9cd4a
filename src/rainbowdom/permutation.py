"""2-rainbow (and weak {2}) domination on permutation graphs by a scanline
sweep over the diagram.

Segments are decided when the scanline passes their first endpoint.  A
state remembers the labels of crossing segments that carry anything (at
most eight, at most four with both colors, by exchange arguments) and one
representative per (side, residual demand) among the crossing unlabeled
segments still waiting for colors.  Segments that started from the top are
comparable among themselves -- the one whose bottom endpoint comes first
both dies first and sees a subset of everyone else's future neighbors --
and symmetrically for bottom starters, so a waiter is dropped whenever an
equally-or-more demanding representative on its side ends no later.  A
state dies when a waiter ends with demand outstanding.

The sweep order, state shape and dominance rule are this module's own
design; correctness is enforced by exhaustive oracle comparison over all
small permutations in the certification suite.
"""

from __future__ import annotations

from itertools import combinations

from .graph import Graph
from .semantics import RainbowFunction, WeightFunction

__all__ = [
    "parse_permutation",
    "render_permutation",
    "diagram_to_graph",
    "rainbow2_permutation",
    "weak2_permutation",
]


def parse_permutation(text: str) -> tuple[int, ...]:
    """One line: the images of 1..n.  Returned 0-indexed."""
    parts = text.split()
    pi = [int(x) - 1 for x in parts]
    if sorted(pi) != list(range(len(pi))):
        raise ValueError("not a permutation of 1..n")
    return tuple(pi)


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


def _greedy_domination_ub(g: Graph) -> int:
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
    return picks


_SLOTS_RAINBOW = ((0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3))
_SLOTS_WEAK = ((0, 1), (0, 2), (1, 1), (1, 2))


class _Sweep:
    """Shared scanline machinery; mode 'rainbow' tracks color sets, mode
    'weak' tracks weights."""

    def __init__(self, pi, mode: str):
        self.pi = tuple(pi)
        self.n = len(pi)
        self.mode = mode
        n = self.n
        inv = [0] * n
        for i, p in enumerate(pi):
            inv[p] = i
        # alternating top/bottom endpoint events; segment s has its top at
        # event 2s and its bottom at event 2*pi[s]+1
        self.events = []
        for p in range(n):
            self.events.append(("T", p))
            self.events.append(("B", inv[p]))
        self.start_time = [min(2 * s, 2 * self.pi[s] + 1) for s in range(n)]
        self.end_time = [max(2 * s, 2 * self.pi[s] + 1) for s in range(n)]
        self.slots = _SLOTS_RAINBOW if mode == "rainbow" else _SLOTS_WEAK

    def adjacent(self, i: int, j: int) -> bool:
        return (i - j) * (self.pi[i] - self.pi[j]) < 0

    def side(self, s: int) -> int:
        """0 when the pending endpoint is the bottom (top starter)."""
        return 0 if self.start_time[s] == 2 * s else 1

    def pending_pos(self, s: int) -> int:
        return self.pi[s] if self.start_time[s] == 2 * s else s

    def run(self, ub: int):
        mode_rainbow = self.mode == "rainbow"
        n = self.n
        slots = self.slots
        empty_reps = tuple(None for _ in slots)
        slot_index = {sd: i for i, sd in enumerate(slots)}
        start_key = (frozenset(), empty_reps)
        layers = [{start_key: (0, None, None)}]

        # after event t, the leftmost still-unstarted endpoint on each line;
        # a crossing segment with nothing unstarted on its open side can be
        # forgotten (if labeled) or declared dead (if still waiting)
        n_events = len(self.events)
        self._min_top = [n] * n_events
        self._min_bot = [n] * n_events
        for t in range(n_events):
            starters = [s for s in range(n) if self.start_time[s] > t]
            self._min_top[t] = min(starters, default=n)
            self._min_bot[t] = min((self.pi[s] for s in starters), default=n)

        for time, (kind, seg) in enumerate(self.events):
            prev_layer = layers[-1]
            new_layer: dict = {}
            starting = self.start_time[seg] == time
            for key, (cost, _p, _a) in prev_layer.items():
                labeled, reps = key
                if not starting:
                    # the segment ends: waiters must be satisfied by now
                    if seg in reps:
                        continue
                    new_labeled = frozenset(
                        (s, lab) for s, lab in labeled
                        if s != seg and self._useful(s, time)
                    )
                    new_reps = self._filter_reps(reps, time)
                    if new_reps is None:
                        continue
                    new_key = (new_labeled, new_reps)
                    old = new_layer.get(new_key)
                    if old is None or cost < old[0]:
                        new_layer[new_key] = (cost, key, None)
                    continue
                for value in self._choices(labeled):
                    add = value.bit_count() if mode_rainbow else value
                    if cost + add > ub:
                        continue
                    pushed = self._push(labeled, reps, seg, value, slot_index)
                    if pushed is None:
                        continue
                    new_labeled, new_reps = pushed
                    new_labeled = frozenset(
                        (s, lab) for s, lab in new_labeled if self._useful(s, time)
                    )
                    new_reps = self._filter_reps(new_reps, time)
                    if new_reps is None:
                        continue
                    new_key = (new_labeled, new_reps)
                    new_cost = cost + add
                    old = new_layer.get(new_key)
                    if old is None or new_cost < old[0]:
                        new_layer[new_key] = (new_cost, key, (seg, value))
            if not new_layer:
                return None, None
            layers.append(new_layer)

        best_key, best = None, None
        for key, (cost, _p, _a) in layers[-1].items():
            if best is None or cost < best:
                best_key, best = key, cost
        if best_key is None:
            return None, None
        assign = [0] * n
        key = best_key
        for i in range(len(self.events), 0, -1):
            cost, prev, act = layers[i][key]
            if act is not None:
                assign[act[0]] = act[1]
            key = prev
        return best, assign

    def _choices(self, labeled):
        if self.mode == "rainbow":
            n_labeled = len(labeled)
            n_full = sum(1 for _s, lab in labeled if lab == 3)
            out = [0]
            if n_labeled < 8:
                out += [1, 2]
                if n_full < 4:
                    out.append(3)
            return out
        n_nonzero = len(labeled)
        n_two = sum(1 for _s, lab in labeled if lab == 2)
        out = [0]
        if n_nonzero < 8:
            out.append(1)
            if n_two < 4:
                out.append(2)
        return out

    def _push(self, labeled, reps, seg, value, slot_index):
        mode_rainbow = self.mode == "rainbow"
        side = self.side(seg)
        new_reps = list(reps)

        if value:
            # feed every adjacent waiter
            for idx, rep in enumerate(reps):
                if rep is None or not self.adjacent(rep, seg):
                    continue
                r_side, r_dem = self.slots_at(idx)
                if mode_rainbow:
                    residual = r_dem & ~value
                else:
                    residual = max(0, r_dem - value)
                if new_reps[idx] == rep:
                    new_reps[idx] = None
                if residual:
                    self._merge(new_reps, slot_index, (r_side, residual), rep)
            new_labeled = frozenset(labeled | {(seg, value)})
            self._prune(new_reps, slot_index)
            return (new_labeled, tuple(new_reps))

        # unlabeled: collect what the crossing carriers already provide
        if mode_rainbow:
            credit = 0
            for s, lab in labeled:
                if self.adjacent(s, seg):
                    credit |= lab
            demand = 3 & ~credit
        else:
            credit = 0
            for s, lab in labeled:
                if self.adjacent(s, seg):
                    credit += lab
            demand = max(0, 2 - credit)
        if demand:
            self._merge(new_reps, slot_index, (side, demand), seg)
            self._prune(new_reps, slot_index)
        return (frozenset(labeled), tuple(new_reps))

    def slots_at(self, idx: int):
        return self.slots[idx]

    def _useful(self, s: int, time: int) -> bool:
        """Whether any still-unstarted segment can cross s after `time`."""
        if self.start_time[s] == 2 * s:
            return self._min_bot[time] < self.pi[s]
        return self._min_top[time] < s

    def _filter_reps(self, reps, time):
        """A waiter with no future feeder makes the whole state infeasible."""
        for rep in reps:
            if rep is not None and not self._useful(rep, time):
                return None
        return reps if isinstance(reps, tuple) else tuple(reps)

    def _merge(self, new_reps, slot_index, slot, seg):
        idx = slot_index[slot]
        cur = new_reps[idx]
        p = self.pending_pos
        if cur is None or (p(seg), seg) < (p(cur), cur):
            new_reps[idx] = seg

    def _prune(self, new_reps, slot_index):
        """A waiter is implied by a same-side waiter that demands at least
        as much and ends no later."""
        p = self.pending_pos
        for side in (0, 1):
            if self.mode == "rainbow":
                big = new_reps[slot_index[(side, 3)]]
                if big is None:
                    continue
                for dem in (1, 2):
                    idx = slot_index[(side, dem)]
                    small = new_reps[idx]
                    if small is not None and p(big) <= p(small):
                        new_reps[idx] = None
            else:
                big = new_reps[slot_index[(side, 2)]]
                if big is None:
                    continue
                idx = slot_index[(side, 1)]
                small = new_reps[idx]
                if small is not None and p(big) <= p(small):
                    new_reps[idx] = None


def rainbow2_permutation(pi):
    """Exact 2-rainbow domination number of the inversion graph of pi,
    with a validating witness."""
    pi = tuple(pi)
    n = len(pi)
    if n == 0:
        return 0, RainbowFunction(2, ())
    g = diagram_to_graph(pi)
    ub = 2 * _greedy_domination_ub(g)
    value, assign = _Sweep(pi, "rainbow").run(ub)
    assert value is not None, "upper bound excluded every state"
    labels = tuple(
        frozenset(c + 1 for c in range(2) if assign[s] >> c & 1) for s in range(n)
    )
    return value, RainbowFunction(2, labels)


def weak2_permutation(pi):
    """Weak {2}-domination number by the same sweep over weights."""
    pi = tuple(pi)
    n = len(pi)
    if n == 0:
        return 0, WeightFunction(2, ())
    g = diagram_to_graph(pi)
    ub = 2 * _greedy_domination_ub(g)
    value, assign = _Sweep(pi, "weak").run(ub)
    assert value is not None, "upper bound excluded every state"
    return value, WeightFunction(2, tuple(assign))
