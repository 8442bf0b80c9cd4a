"""Recognition on inputs whose decomposition tree is deeper than the
interpreter recursion limit: every recognizer must return a tree, and the
CLI must solve the graph file with exit 0."""

import os
import random
import subprocess
import sys

import pytest

import rainbowdom
from rainbowdom.cograph import Cotree, rainbow_cograph, recognize_cograph
from rainbowdom.graph import Graph, render_graph
from rainbowdom.p4sparse import recognize_p4sparse
from rainbowdom.semantics import is_rainbow
from rainbowdom.trivially_perfect import (
    RootedTreeModel,
    build_tree_model,
    gamma_wk_tp,
)

N = sys.getrecursionlimit() + 200


def alternating_threshold(n: int, seed: int = 0) -> Graph:
    """Vertices added one at a time, alternately isolated and dominating,
    under a fixed random relabelling; the cotree is a caterpillar whose
    depth is n - 1."""
    label = list(range(n))
    random.Random(seed).shuffle(label)
    edges = [(label[u], label[v]) for v in range(1, n, 2) for u in range(v)]
    return Graph(n, edges)


def cotree_depth(t: Cotree) -> int:
    depth = {t.root: 0}
    for v in reversed(t.post_order()):
        if t.kind[v] != "L":
            depth[t.left[v]] = depth[t.right[v]] = depth[v] + 1
    return max(depth.values())


@pytest.fixture(scope="module")
def deep_graph():
    return alternating_threshold(N)


def test_recognizers_return_trees(deep_graph):
    t = recognize_cograph(deep_graph)
    assert isinstance(t, Cotree)
    assert cotree_depth(t) > sys.getrecursionlimit()
    assert isinstance(recognize_p4sparse(deep_graph), Cotree)
    assert isinstance(build_tree_model(deep_graph), RootedTreeModel)


def test_cograph_and_tp_rainbow_agree(deep_graph):
    value, witness = rainbow_cograph(recognize_cograph(deep_graph), 2)
    assert value == gamma_wk_tp(build_tree_model(deep_graph), 2)[0]
    assert is_rainbow(deep_graph, witness)[0]
    assert sum(len(label) for label in witness.labels) == value


def test_solve_auto_exits_zero(deep_graph, tmp_path):
    path = tmp_path / "deep.graph"
    path.write_text(render_graph(deep_graph))
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(rainbowdom.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "rainbowdom.cli", "solve", "--problem", "rainbow",
         "--k", "2", "--class", "auto", "--graph", str(path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    value, _ = rainbow_cograph(recognize_cograph(deep_graph), 2, want_witness=False)
    assert proc.stdout.strip() == str(value)
