"""Label arithmetic and the layered loop shared by the interval and
permutation sweeps at k = 2.

Both sweeps decide vertices left to right and give each a label mask.  In
rainbow mode the mask is the colour set (bit 0 colour 1, bit 1 colour 2);
in weak mode mask 1 is weight 1 and mask 3 weight 2.  Either way a label
costs its bit count.  What a vertex has received (its gain) and what a
waiting zero vertex still lacks (its need) are masks of the same kind; in
weak mode 1 means one unit and 3 means two.

A decided vertex reaches a later one iff the later vertex's coordinate is
below the decided vertex's reach.  Everything the decided labelled vertices
("carriers") can still give is a pair of reaches (r0, r1), so the gain at
coordinate x is ``(x < r0) | (x < r1) << 1`` in both modes:

- rainbow: the furthest reach of colour 1 and of colour 2;
- weak: the furthest reach with weight at least 1 and with weight at
  least 2 (so r0 >= r1).
"""

from __future__ import annotations

from math import inf
from typing import NamedTuple

from .semantics import RainbowFunction, WeightFunction

FULL = 3  # the need of a zero vertex that has received nothing


def _units(count: int) -> int:
    return (0, 1, 3)[max(0, min(count, 2))]


class Labels(NamedTuple):
    nonzero: tuple[int, ...]  # the labels a vertex may take besides 0
    join: tuple  # join[g][h]: the gain of g and h together
    left: tuple  # left[need][gain]: what is still needed after gain
    stacks: bool  # weak: a weight-1 carrier adds to the one already carried

    def carry(self, r0: int, r1: int, label: int, reach: int) -> tuple[int, int]:
        """The carriers' reaches after adding one with `label` and `reach`."""
        if label == FULL:
            return max(r0, reach), max(r1, reach)
        if label == 1:
            if self.stacks:
                return max(r0, reach), max(r1, min(r0, reach))
            return max(r0, reach), r1
        return r0, max(r1, reach)


WEAK = Labels(
    (1, 3),
    tuple(tuple(_units(g.bit_count() + h.bit_count()) for h in range(4)) for g in range(4)),
    tuple(tuple(_units(n.bit_count() - g.bit_count()) for g in range(4)) for n in range(4)),
    True,
)
RAINBOW = Labels(
    (1, 2, 3),
    tuple(tuple(g | h for h in range(4)) for g in range(4)),
    tuple(tuple(n & ~g for g in range(4)) for n in range(4)),
    False,
)


def as_rainbow(out: list[int]) -> RainbowFunction:
    return RainbowFunction(
        2, tuple(frozenset(c + 1 for c in range(2) if lab >> c & 1) for lab in out)
    )


def as_weights(out: list[int]) -> WeightFunction:
    return WeightFunction(2, tuple(lab.bit_count() for lab in out))


def gain_at(state: tuple, x: int) -> int:
    """What the carriers of `state` give at coordinate x."""
    return (x < state[0]) | (x < state[1]) << 1


def advance(labels: Labels, state: tuple, x: int, gain: int, carried, waiter, rounded):
    """One step of a sweep on a state (r0, r1, waiter reach per need 1, 2, 3).

    The step's labelled vertices, met at coordinate x, give `gain` to each
    waiter that reaches x.  `carried` is the (label, reach) of a new carrier
    and `waiter` the (need, reach) of a new waiting vertex, or None.  Every
    reach r then becomes ``rounded[r]``, 0 when it reaches nothing still to
    come; the last entry of `rounded` marks "no waiter" and maps to itself.
    Returns None when a waiter can no longer be helped.
    """
    left = labels.left
    absent = len(rounded) - 1
    waits = [absent] * 4  # by need; waits[0] collects the satisfied
    for need in (1, 2, 3):
        w = state[1 + need]
        nd = left[need][gain] if x < w else need
        if w < waits[nd]:
            waits[nd] = w
    if waiter is not None and waiter[1] < waits[waiter[0]]:
        waits[waiter[0]] = waiter[1]
    w1, w2, w3 = rounded[waits[1]], rounded[waits[2]], rounded[waits[3]]
    if not (w1 and w2 and w3):
        return None
    if w3 <= w1:  # a waiter lacking everything absorbs those ending no earlier
        w1 = absent
    if w3 <= w2:
        w2 = absent
    r0, r1 = state[0], state[1]
    if carried is not None:
        r0, r1 = labels.carry(r0, r1, *carried)
    return rounded[r0], rounded[r1], w1, w2, w3


def undominated(layer: dict, absent: int) -> dict:
    """The states of `layer` that no other state of it dominates.

    Keys are tuples of states, each a tuple of reaches from 0 to `absent`;
    values start with the cost.  A state dominates another when its cost is
    no higher and every reach is at least as far.  Dropping the dominated
    one loses no optimum, because each reach only ever helps when it
    reaches further:

    - a further carrier reach gives at least as much at every later
      coordinate, so no later zero vertex needs more;
    - a further waiter reach is crossed by every later vertex that crosses
      the nearer one, so that waiter is satisfied whenever the nearer one
      would be;
    - the rounding maps further reaches no nearer, and a waiter absorbed
      into one lacking everything only drops a need that one implies.

    So every labelling of the vertices still to come that completes the
    dominated state completes the dominating one, at no more cost.

    Each key is packed into one int, a field per reach with a guard bit
    above it; with G the guard bits, ``a`` dominates ``b`` field by field
    exactly when ``((a | G) - b) & G == G``.  States are met by ascending
    cost, the larger packed key first among equal costs, so a dominating
    state is always met before the states it dominates, and comparing each
    with the kept ones suffices.
    """
    if len(layer) < 2:
        return layer
    width = absent.bit_length() + 1
    first = next(iter(layer))
    fields = len(first) * len(first[0])
    # the top bit of every field: a repunit in base 2**width, shifted
    guard = ((1 << width * fields) - 1) // ((1 << width) - 1) << (width - 1)
    ranked = []
    for key, value in layer.items():
        packed = 0
        for part in key:
            for r in part:
                packed = packed << width | r
        ranked.append((value[0], -packed, key))
    ranked.sort()
    kept: list[int] = []
    out = {}
    for _cost, neg, key in ranked:
        packed = -neg
        for k in kept:
            if (k - packed) & guard == guard:
                break
        else:
            kept.append(packed | guard)
            out[key] = layer[key]
    return out


def run(start: tuple, steps, absent: int, bound: float = inf):
    """Cheapest labelling by one layered sweep: (cost, label per step, peak
    live states).

    Each step is a callable ``step(key, budget)`` on a state of the last
    layer and the cost still allowed on top of it (`bound` less the state's
    cost); it returns the (new key, cost, label) moves worth trying.  Each
    new key keeps its cheapest way in, and each layer keeps only its
    undominated states.  The steps must leave one state after the last.
    """
    layers: list[dict] = [{start: (0, None, None)}]
    peak = 1
    for step in steps:
        layer: dict = {}
        for key, (base, _prev, _label) in layers[-1].items():
            for new_key, c, label in step(key, bound - base):
                total = base + c
                old = layer.get(new_key)
                if old is None or total < old[0]:
                    layer[new_key] = (total, key, label)
        layer = undominated(layer, absent)
        peak = max(peak, len(layer))
        layers.append(layer)
    ((key, (best, _prev, _label)),) = layers[-1].items()
    out = []
    for layer in reversed(layers[1:]):
        _cost, key, label = layer[key]
        out.append(label)
    return best, out[::-1], peak
