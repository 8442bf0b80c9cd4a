"""Workload definitions and the benchmark's own input generators.

Every workload is a list of strata.  A stratum owns a fixed pool of
instance specs (family parameters plus a generation seed); the expected
value and exit code of every pool spec are stored in ``expected.json``.
A run's ``--seed`` draws a fixed number of specs from each pool, so the
same seed gives the same batch and the same bytes on disk, while the mix
of instance kinds stays the same for every seed.

The generators here do not call into ``rainbowdom``: inputs must stay the
same when the program changes, or the stored expected values would drift.
"""

from __future__ import annotations

import os
import random
import zlib
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("solve_models", "solve_graphs", "sweeps", "certify")

# --- decomposition trees -------------------------------------------------------


class Tree:
    """Cotree / P4-sparse tree as a node list; iterative everywhere, because
    some trees are deeper than the interpreter recursion limit."""

    def __init__(self):
        # (tag, left, right, payload): tag 'L' payload=vertex; 'U'/'J' binary;
        # 'S' payload=(kind, feet, body) with the head subtree in left (or -1)
        self.nodes: list[tuple] = []

    def leaf(self, v: int) -> int:
        self.nodes.append(("L", -1, -1, v))
        return len(self.nodes) - 1

    def node(self, tag: str, a: int, b: int) -> int:
        self.nodes.append((tag, a, b, None))
        return len(self.nodes) - 1

    def spider(self, kind: str, feet, body, head: int = -1) -> int:
        self.nodes.append(("S", head, -1, (kind, tuple(feet), tuple(body))))
        return len(self.nodes) - 1

    def _children(self, v: int) -> list[int]:
        tag, a, b, _ = self.nodes[v]
        return [c for c in (a, b) if c != -1] if tag != "L" else []

    def post_order(self, root: int) -> list[int]:
        order, stack = [], [(root, False)]
        while stack:
            v, done = stack.pop()
            kids = self._children(v)
            if done or not kids:
                order.append(v)
            else:
                stack.append((v, True))
                stack.extend((c, False) for c in reversed(kids))
        return order

    def render(self, root: int) -> str:
        text: dict[int, str] = {}
        for v in self.post_order(root):
            tag, a, b, payload = self.nodes[v]
            if tag == "L":
                text[v] = str(payload)
            elif tag == "S":
                kind, feet, body = payload
                head = f" {text.pop(a)}" if a != -1 else ""
                text[v] = (f"(S {kind} ({' '.join(map(str, feet))}) "
                           f"({' '.join(map(str, body))}){head})")
            else:
                text[v] = f"({tag} {text.pop(a)} {text.pop(b)})"
        return text[root] + "\n"

    def edges(self, root: int) -> list[tuple[int, int]]:
        leaves: dict[int, list[int]] = {}
        out = []
        for v in self.post_order(root):
            tag, a, b, payload = self.nodes[v]
            if tag == "L":
                leaves[v] = [payload]
            elif tag == "S":
                kind, feet, body = payload
                head = leaves.pop(a) if a != -1 else []
                out += [(x, y) for i, x in enumerate(body) for y in body[i + 1:]]
                out += [(f, x) for i, f in enumerate(feet)
                        for jdx, x in enumerate(body)
                        if (i == jdx) == (kind == "thin")]
                out += [(h, x) for h in head for x in body]
                leaves[v] = list(feet) + list(body) + head
            else:
                la, lb = leaves.pop(a), leaves.pop(b)
                if tag == "J":
                    out += [(x, y) for x in la for y in lb]
                leaves[v] = la + lb
        return out


def random_binary(t: Tree, parts: list[int], rng, p_join: float,
                  top_join: int = 0) -> int:
    """Random binary tree over the given subtree roots.  The top ``top_join``
    levels are joins split near the middle, which keeps the edge count of
    dense cotrees within a narrow band; below that, splits are uniform and
    each node is a join with probability ``p_join``."""
    result: dict[tuple[int, int], int] = {}
    stack = [(0, len(parts), 0, None)]
    while stack:
        lo, hi, depth, mid = stack.pop()
        if hi - lo == 1:
            result[(lo, hi)] = parts[lo]
            continue
        if mid is None:
            if depth < top_join:
                third = max(1, (hi - lo) // 3)
                mid = rng.randint(lo + third, max(lo + third, hi - third))
            else:
                mid = rng.randint(lo + 1, hi - 1)
            stack.append((lo, hi, depth, mid))
            stack.append((mid, hi, depth + 1, None))
            stack.append((lo, mid, depth + 1, None))
            continue
        tag = "J" if depth < top_join or rng.random() < p_join else "U"
        result[(lo, hi)] = t.node(tag, result[(lo, mid)], result[(mid, hi)])
    return result[(0, len(parts))]


def shuffled(n: int, rng) -> list[int]:
    vs = list(range(n))
    rng.shuffle(vs)
    return vs


def dense_cotree(n: int, rng) -> tuple[Tree, int]:
    t = Tree()
    root = random_binary(t, [t.leaf(v) for v in shuffled(n, rng)], rng, 0.5, top_join=2)
    return t, root


def random_cotree(n: int, rng, p_join: float = 0.5) -> tuple[Tree, int]:
    t = Tree()
    return t, random_binary(t, [t.leaf(v) for v in shuffled(n, rng)], rng, p_join)


def threshold_cotree(n: int, rng) -> tuple[Tree, int]:
    """Threshold graph: vertices added one at a time, half of them isolated
    and half dominating; its cotree is a caterpillar of depth n - 1."""
    labels = shuffled(n, rng)
    tags = ["J"] * (n // 2) + ["U"] * (n - 1 - n // 2)
    rng.shuffle(tags)
    t = Tree()
    acc = t.leaf(labels[0])
    for v, tag in zip(labels[1:], tags):
        acc = t.node(tag, acc, t.leaf(v))
    return t, acc


def deep_cotree(depth: int, joins: int, rng) -> tuple[Tree, int]:
    """Caterpillar cotree nested ``depth`` levels deep, almost all unions, so
    the graph stays small while the nesting exceeds the recursion limit."""
    labels = shuffled(depth + 1, rng)
    join_at = set(rng.sample(range(depth), joins))
    t = Tree()
    acc = t.leaf(labels[0])
    for i, v in enumerate(labels[1:]):
        acc = t.node("J" if i in join_at else "U", acc, t.leaf(v))
    return t, acc


def p4sparse_tree(n_target: int, spiders: int, rng):
    """Random cotree whose parts include ``spiders`` thin/thick spiders, some
    with a small cotree head."""
    labels = iter(shuffled(n_target, rng))
    t = Tree()
    parts, used = [], 0
    for _ in range(spiders):
        s = rng.randint(3, 6)
        head_size = rng.choice((0, 0, 1, 2, 3))
        if used + 2 * s + head_size > n_target:
            break
        feet = [next(labels) for _ in range(s)]
        body = [next(labels) for _ in range(s)]
        head = -1
        if head_size:
            head = random_binary(t, [t.leaf(next(labels)) for _ in range(head_size)], rng, 0.5)
        parts.append(t.spider(rng.choice(("thin", "thick")), feet, body, head))
        used += 2 * s + head_size
    parts += [t.leaf(v) for v in labels]
    rng.shuffle(parts)
    return t, random_binary(t, parts, rng, 0.5)


# --- other models ------------------------------------------------------------


def shallow_forest(n: int, depth: int, fanout: int, rng):
    """Parent array of a forest with at most ``depth`` levels in which every
    root has a child, so every leaf sits at depth >= 2.  Labels are shuffled."""
    labels = shuffled(n, rng)
    parents = [-1] * n
    levels: list[list[int]] = [[] for _ in range(depth)]
    pos = 0
    n_roots = max(1, n // (fanout ** (depth - 1)))
    for _ in range(n_roots):
        levels[0].append(labels[pos])
        pos += 1
    for d in range(1, depth):
        for p in levels[d - 1]:
            if pos >= n:
                break
            parents[labels[pos]] = p
            levels[d].append(labels[pos])
            pos += 1
    while pos < n:
        d = rng.randint(1, depth - 1)
        parents[labels[pos]] = rng.choice(levels[d - 1])
        levels[d].append(labels[pos])
        pos += 1
    return parents


def forest_edges(parents) -> list[tuple[int, int]]:
    out = []
    for v in range(len(parents)):
        p = parents[v]
        while p != -1:
            out.append((v, p))
            p = parents[p]
    return out


def render_forest(parents) -> str:
    return "".join(f"{v} {p}\n" for v, p in enumerate(parents))


def render_assignment(pairs) -> str:
    return "".join(f"{v} {a} {b}\n" for v, (a, b) in enumerate(pairs))


def render_graph(n: int, edges) -> str:
    canon = sorted({(min(u, v), max(u, v)) for u, v in edges})
    return f"{n} {len(canon)}\n" + "".join(f"{u} {v}\n" for u, v in canon)


def random_intervals(n: int, span: int, max_len: int, rng):
    out = []
    for _ in range(n):
        lo = rng.randint(0, span)
        out.append((lo, lo + rng.randint(0, max_len)))
    return out


def interval_edges(ivs) -> list[tuple[int, int]]:
    return [(u, v) for u in range(len(ivs)) for v in range(u + 1, len(ivs))
            if max(ivs[u][0], ivs[v][0]) <= min(ivs[u][1], ivs[v][1])]


def permutation_edges(pi) -> list[tuple[int, int]]:
    return [(i, j) for i in range(len(pi)) for j in range(i + 1, len(pi)) if pi[i] > pi[j]]


def gnp_non_cograph(n: int, p: float, rng) -> list[tuple[int, int]]:
    """G(n, p) with an induced P4 planted on vertices 0..3, so it is never a
    cograph; at these densities it falls in no other structured class."""
    edges = {(0, 1), (1, 2), (2, 3)}
    for u in range(n):
        for v in range(u + 1, n):
            if u < 4 and v < 4:
                continue
            if rng.random() < p:
                edges.add((u, v))
    return sorted(edges)


# --- instances -----------------------------------------------------------------


@dataclass
class Instance:
    """One generated instance: its input files, CLI arguments and the data
    needed to validate a witness."""

    files: dict  # suffix -> text
    argv: list   # solve arguments; "{suffix}" stands for the file path
    n: int
    edges: Callable[[], list]
    problem: str
    k: int
    j: int | None = None
    floors: tuple | None = None  # weakL (a, b) pairs
    tree: tuple | None = None    # (Tree, root) for cotree models


def _solve_argv(problem, k, cls, j=None):
    argv = ["solve", "--problem", problem, "--k", str(k), "--class", cls]
    if j is not None:
        argv += ["--j", str(j)]
    return argv


def make_cotree_model(p, rng):
    if "depth" in p:
        n = p["depth"] + 1
        t, root = deep_cotree(p["depth"], p["joins"], rng)
    else:
        n = p["n"]
        t, root = dense_cotree(n, rng)
    problem, k = p["problem"], p["k"]
    return Instance({"cotree": t.render(root)},
                    _solve_argv(problem, k, "cograph") + ["--model", "{cotree}"],
                    n, lambda: t.edges(root), problem, k, tree=(t, root))


def make_p4_model(p, rng):
    t, root = p4sparse_tree(p["n"], p["spiders"], rng)
    return Instance({"p4tree": t.render(root)},
                    _solve_argv("rainbow", p["k"], "p4sparse") + ["--model", "{p4tree}"],
                    p["n"], lambda: t.edges(root), "rainbow", p["k"])


def _floors(n, k, mode, rng):
    if mode == "uniform":
        return tuple((0, k) for _ in range(n))
    # a few positive floors, demands spread over 0..k
    return tuple((rng.choice((0,) * 9 + (1, 2)), rng.randint(0, k)) for _ in range(n))


def make_tree_model(p, rng):
    n, k, problem = p["n"], p["k"], p["problem"]
    parents = shallow_forest(n, p["depth"], p["fanout"], rng)
    files = {"tree": render_forest(parents)}
    argv = _solve_argv(problem, k, "trivially-perfect", p.get("j")) + ["--model", "{tree}"]
    floors = None
    if problem == "weakL":
        floors = _floors(n, k, p["floors"], rng)
        files["assign"] = render_assignment(floors)
        argv += ["--assignment", "{assign}"]
    return Instance(files, argv, n, lambda: forest_edges(parents), problem, k,
                    p.get("j"), floors)


def make_bipartite_model(p, rng):
    n1, n2, k = p["n1"], p["n2"], p["k"]
    b1 = [rng.randint(0, k) for _ in range(n1)]
    b2 = [rng.randint(0, k) for _ in range(n2)]
    text = f"{n1} {n2} {k}\n{' '.join(map(str, b1))}\n{' '.join(map(str, b2))}\n"
    return Instance({"bip": text},
                    _solve_argv("weakL", k, "complete-bipartite") + ["--model", "{bip}"],
                    n1 + n2, lambda: [(u, n1 + v) for u in range(n1) for v in range(n2)],
                    "weakL", k, None, tuple((0, b) for b in b1 + b2))


def _graph_instance(n, edges, problem, k, j=None, floors=None):
    files = {"graph": render_graph(n, edges)}
    argv = _solve_argv(problem, k, "auto", j) + ["--graph", "{graph}"]
    if floors is not None:
        files["assign"] = render_assignment(floors)
        argv += ["--assignment", "{assign}"]
    return Instance(files, argv, n, lambda: edges, problem, k, j, floors)


def make_graph(p, rng):
    family, n, problem, k = p["family"], p["n"], p["problem"], p["k"]
    floors = None
    if family == "cograph":
        t, root = random_cotree(n, rng)
        edges = t.edges(root)
    elif family == "threshold":
        t, root = threshold_cotree(n, rng)
        edges = t.edges(root)
    elif family == "p4sparse":
        t, root = p4sparse_tree(n, p["spiders"], rng)
        edges = t.edges(root)
    elif family == "tp":
        parents = shallow_forest(n, p["depth"], p["fanout"], rng)
        edges = forest_edges(parents)
        if problem == "weakL":
            floors = _floors(n, k, "random", rng)
    elif family == "bipartite":
        n1 = p["n1"]
        edges = [(u, v) for u in range(n1) for v in range(n1, n)]
        floors = tuple((0, rng.randint(0, k)) for _ in range(n))
    else:  # non-member of every structured class
        edges = gnp_non_cograph(n, p["p"], rng)
    return _graph_instance(n, edges, problem, k, p.get("j"), floors)


def make_permutation(p, rng):
    n = p["n"]
    pi = shuffled(n, rng)
    return Instance({"perm": " ".join(str(x + 1) for x in pi) + "\n"},
                    _solve_argv(p["problem"], 2, "permutation") + ["--model", "{perm}"],
                    n, lambda: permutation_edges(pi), p["problem"], 2)


def make_intervals(p, rng):
    n = p["n"]
    ivs = random_intervals(n, p["span"], p["max_len"], rng)
    return Instance({"iv": "".join(f"{v} {lo} {hi}\n" for v, (lo, hi) in enumerate(ivs))},
                    _solve_argv(p["problem"], 2, "interval") + ["--model", "{iv}"],
                    n, lambda: interval_edges(ivs), p["problem"], 2)


# --- strata --------------------------------------------------------------------


@dataclass(frozen=True)
class Stratum:
    name: str
    workload: str
    pool: int          # specs in the pool, each with a stored expected value
    draw: int          # specs a run draws from the pool
    make: Callable
    params: tuple      # per-spec parameter dicts, cycled over the pool index
    known_defect: str | None = None  # why this stratum is expected to fail today
    fixed: tuple | None = None  # generation indices of a fixed panel (pool = draw)

    def spec_params(self, i: int) -> dict:
        return dict(self.params[i % len(self.params)])

    def spec_seed(self, i: int) -> int:
        index = self.fixed[i] if self.fixed else i
        return zlib.crc32(f"{self.name}:{index}".encode())


STRATA = (
    # solve_models: graph building dominates on dense cotrees; the TP DP on
    # shallow forests at large k; identity versus real reduction on floors.
    Stratum("cotree_dense", "solve_models", 24, 12, make_cotree_model, (
        dict(n=300, problem="rainbow", k=3),
        dict(n=300, problem="weak", k=2),
        dict(n=300, problem="kdom", k=2))),
    Stratum("tp_weak", "solve_models", 6, 3, make_tree_model, (
        dict(n=3000, depth=3, fanout=10, problem="weak", k=8),)),
    Stratum("tp_floors_uniform", "solve_models", 6, 3, make_tree_model, (
        dict(n=3000, depth=3, fanout=10, problem="weakL", k=8, floors="uniform"),)),
    Stratum("tp_floors_random", "solve_models", 6, 3, make_tree_model, (
        dict(n=3000, depth=3, fanout=10, problem="weakL", k=8, floors="random"),)),
    Stratum("tp_jk", "solve_models", 6, 3, make_tree_model, (
        dict(n=3000, depth=3, fanout=10, problem="jkdom", j=3, k=5),)),
    Stratum("p4tree", "solve_models", 12, 6, make_p4_model, (
        dict(n=300, spiders=10, k=2), dict(n=300, spiders=10, k=3))),
    Stratum("bipartite", "solve_models", 8, 4, make_bipartite_model, (
        dict(n1=100, n2=150, k=3),)),
    Stratum("cotree_deep", "solve_models", 4, 2, make_cotree_model, (
        dict(depth=3000, joins=4, problem="rainbow", k=2),
        dict(depth=3000, joins=4, problem="weak", k=2)),
        known_defect="parse_cotree recurses once per nesting level (RecursionError)"),
    # solve_graphs: recognition and graph parsing dominate.
    Stratum("g_cograph", "solve_graphs", 16, 8, make_graph, (
        dict(family="cograph", n=120, problem="rainbow", k=2),
        dict(family="cograph", n=120, problem="weak", k=3),
        dict(family="cograph", n=120, problem="kdom", k=2))),
    Stratum("g_threshold", "solve_graphs", 24, 12, make_graph, (
        dict(family="threshold", n=120, problem="rainbow", k=2),
        dict(family="threshold", n=120, problem="weak", k=2))),
    Stratum("g_p4sparse", "solve_graphs", 16, 8, make_graph, (
        dict(family="p4sparse", n=80, spiders=5, problem="rainbow", k=2),
        dict(family="p4sparse", n=80, spiders=5, problem="rainbow", k=3))),
    Stratum("g_tp", "solve_graphs", 16, 8, make_graph, (
        dict(family="tp", n=300, depth=3, fanout=6, problem="weakL", k=3),
        dict(family="tp", n=300, depth=3, fanout=6, problem="jkdom", j=2, k=3))),
    Stratum("g_bipartite", "solve_graphs", 8, 4, make_graph, (
        dict(family="bipartite", n=100, n1=45, problem="weakL", k=3),)),
    Stratum("g_oracle", "solve_graphs", 16, 8, make_graph, (
        dict(family="random", n=12, p=0.35, problem="rainbow", k=2),
        dict(family="random", n=12, p=0.35, problem="weak", k=2),
        dict(family="random", n=12, p=0.35, problem="kdom", k=2))),
    Stratum("g_overcap", "solve_graphs", 8, 4, make_graph, (
        dict(family="random", n=30, p=0.3, problem="rainbow", k=2),)),
    # sweeps: interval and permutation sweeps at k = 2.  Each family has a
    # seed-drawn typical part and a fixed panel of heavy-tail instances: the
    # five slowest of 300 generation indices at the commit that added this
    # benchmark.  The panel keeps the state-space tail, which is what
    # latency_tail_ms and peak_rss_mb are meant to show, in every batch.
    Stratum("perm_rainbow", "sweeps", 50, 25, make_permutation, (
        dict(n=9, problem="rainbow"),)),
    Stratum("perm_weak", "sweeps", 50, 25, make_permutation, (
        dict(n=12, problem="weak"),)),
    Stratum("int_weak", "sweeps", 50, 25, make_intervals, (
        dict(n=20, span=50, max_len=6, problem="weak"),)),
    Stratum("int_rainbow", "sweeps", 50, 25, make_intervals, (
        dict(n=20, span=50, max_len=6, problem="rainbow"),)),
    Stratum("perm_rainbow_hard", "sweeps", 5, 5, make_permutation, (
        dict(n=9, problem="rainbow"),), fixed=(87, 144, 208, 13, 33)),
    Stratum("perm_weak_hard", "sweeps", 5, 5, make_permutation, (
        dict(n=12, problem="weak"),), fixed=(250, 23, 114, 143, 219)),
    Stratum("int_weak_hard", "sweeps", 5, 5, make_intervals, (
        dict(n=20, span=50, max_len=6, problem="weak"),), fixed=(58, 188, 130, 275, 157)),
    Stratum("int_rainbow_hard", "sweeps", 5, 5, make_intervals, (
        dict(n=20, span=50, max_len=6, problem="rainbow"),), fixed=(66, 279, 291, 31, 212)),
)


def strata(workload: str) -> list[Stratum]:
    return [s for s in STRATA if s.workload == workload]


def make_instance(stratum: Stratum, i: int) -> Instance:
    return stratum.make(stratum.spec_params(i), random.Random(stratum.spec_seed(i)))


def draw(workload: str, seed: int) -> list[tuple[Stratum, int]]:
    """The run's batch: ``draw`` pool indices per stratum, in seeded order."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    batch = [(s, i) for s in strata(workload) for i in sorted(rng.sample(range(s.pool), s.draw))]
    rng.shuffle(batch)
    return batch


def write_batch(workload: str, seed: int, root: str) -> list[dict]:
    """Generate and write every input file of the batch under ``root``.
    Returns the manifest the worker runs: one entry per instance."""
    manifest = []
    for idx, (stratum, i) in enumerate(draw(workload, seed)):
        inst = make_instance(stratum, i)
        paths = {}
        for suffix, text in inst.files.items():
            paths[suffix] = os.path.join(root, f"{idx:04d}.{suffix}")
            with open(paths[suffix], "w") as fh:
                fh.write(text)
        witness = os.path.join(root, f"{idx:04d}.witness.json")
        argv = [a.format(**paths) if a.startswith("{") else a for a in inst.argv]
        manifest.append({"id": f"{stratum.name}/{i}", "witness": witness,
                         "argv": argv + ["--witness", witness]})
    return manifest
