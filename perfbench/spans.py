"""Span tracing for the benchmark's traced runs.

``install()`` wraps the public functions of every ``rainbowdom`` module in
spans *before* ``rainbowdom.harness`` and ``rainbowdom.cli`` are imported:
both bind solver names at import time, and ``check_cograph_cert`` binds its
solvers as default arguments, so wrapping later would miss those calls.
Names that earlier-imported modules bound are rebound to the wrappers too.

A span records its name, wall-clock and thread-CPU start and end, its parent
span and the instance being run.  Self time is measured in thread CPU time:
the certification harness runs checks on worker threads that share the
interpreter lock, and wall-clock self times there would count the time a
thread waits for the lock.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time

LAYERS = ("cli", "graph", "cograph", "p4sparse", "trivially_perfect", "interval",
          "permutation", "bipartite", "oracle", "semantics", "gadgets", "harness")

# module -> {function: per-layer metric its self time feeds (None: layer only)}
WRAP = {
    "graph": {"parse_graph": "graph.parse_s", "render_graph": None},
    "semantics": {f: "semantics.validate_s" for f in
                  ("is_rainbow", "is_weak_k", "is_k_dom", "is_jk_dom", "is_weak_kL")},
    "oracle": {"exact_domination": "oracle.domination_s", "exact_rainbow": "oracle.rainbow_s",
               "exact_weight_variant": "oracle.weight_s",
               "exact_rainbow_direct": "oracle.direct_s"},
    "cograph": {"parse_cotree": "cograph.parse_s", "recognize_cograph": "cograph.recognize_s",
                "cotree_to_graph": "cograph.to_graph_s", "rainbow_cograph": "cograph.dp_s",
                "weak_cograph": "cograph.dp_s", "kdom_cograph": "cograph.dp_s",
                "random_cotree": None},
    "p4sparse": {"parse_p4sparse_tree": "p4sparse.parse_s",
                 "recognize_p4sparse": "p4sparse.recognize_s",
                 "p4sparse_to_graph": "p4sparse.to_graph_s",
                 "rainbow_p4sparse": "p4sparse.dp_s", "render_p4sparse_tree": None},
    "trivially_perfect": {
        "parse_tree_model": "trivially_perfect.parse_s",
        "parse_assignment": "trivially_perfect.parse_s",
        "build_tree_model": "trivially_perfect.recognize_s",
        "RootedTreeModel.derived_graph": "trivially_perfect.to_graph_s",
        "reduce_instance": "trivially_perfect.reduce_s",
        "gamma_wkL": "trivially_perfect.dp_s", "gamma_wk_tp": "trivially_perfect.dp_s",
        "gamma_rk_tp": "trivially_perfect.dp_s", "jk_domination_tp": "trivially_perfect.dp_s",
        "random_tree_model": None},
    "interval": {"parse_intervals": "interval.parse_s",
                 "build_arrangement": "interval.arrangement_s",
                 "interval_graph": "interval.to_graph_s", "weak2_interval": "interval.sweep_s",
                 "rainbow2_interval": "interval.color_s"},
    "permutation": {"parse_permutation": "permutation.parse_s",
                    "diagram_to_graph": "permutation.to_graph_s",
                    "rainbow2_permutation": "permutation.sweep_s",
                    "weak2_permutation": "permutation.sweep_s"},
    "bipartite": {"parse_bipartite_instance": None, "instance_from_assignment": None,
                  "complete_bipartite_graph": "bipartite.to_graph_s",
                  "weakL_complete_bipartite": "bipartite.solve_s"},
    "gadgets": {"verify_gadget_identities": "gadgets.verify_s", "split_partition": None,
                "pendant_gadget": None},
}
WRAP_HARNESS = {f: "harness.enumerate_s" for f in
                ("enumerate_cographs", "enumerate_p4sparse_trees",
                 "enumerate_rooted_forests", "enumerate_interval_models")}
WRAP_HARNESS.update({"run_plan": None, "sweep_global_invariants": None,
                     "graphs_isomorphic": None})

COUNTS = ("graph.edges_built", "cograph.refusals", "p4sparse.refusals",
          "trivially_perfect.refusals", "interval.max_states", "interval.witness_missing",
          "oracle.calls", "oracle.nodes", "semantics.validate_calls")

_names: list[str] = []       # span name by id
_metric_of: list = []        # per-layer metric by span name id
_threads: list = []          # per-thread state, registered on first use
_lock = threading.Lock()
_local = threading.local()
current_instance = [-1]
missing: list[str] = []      # wrap targets the program no longer has
_perf = time.perf_counter_ns
_cpu = time.thread_time_ns


class _ThreadState:
    def __init__(self, index):
        self.index = index
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.check_seconds: dict[str, float] = {}


def _state() -> _ThreadState:
    st = getattr(_local, "st", None)
    if st is None:
        with _lock:
            st = _ThreadState(len(_threads))
            _threads.append(st)
        _local.st = st
    return st


def _count(st, key, amount=1):
    st.counts[key] = st.counts.get(key, 0) + amount


def _span(fn, name: str, metric, after=None):
    name_id = len(_names)
    _names.append(name)
    _metric_of.append(metric)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        st = _state()
        stack = st.stack
        parent = stack[-1] if stack else -1
        rec = [name_id, 0, 0, 0, 0, parent, current_instance[0]]
        stack.append(len(st.spans))
        st.spans.append(rec)
        rec[1] = _perf()
        rec[3] = _cpu()
        try:
            out = fn(*args, **kwargs)
        finally:
            rec[4] = _cpu()
            rec[2] = _perf()
            stack.pop()
        if after is not None:
            after(st, parent, out)
        return out

    wrapper.__wrapped_by_perfbench__ = fn
    return wrapper


def _after_recognize(layer):
    def after(st, _parent, out):
        if type(out).__name__.endswith("Refusal"):
            _count(st, f"{layer}.refusals")
    return after


def _after_oracle(st, parent, out):
    if parent == -1 or not _names[st.spans[parent][0]].startswith("oracle."):
        _count(st, "oracle.calls")
        _count(st, "oracle.nodes", getattr(out, "nodes_explored", 0))


def _after_validate(st, parent, _out):
    if parent == -1 or not _names[st.spans[parent][0]].startswith("semantics."):
        _count(st, "semantics.validate_calls")


def _after_sweep(module):
    def after(st, _parent, _out):
        stats = getattr(module, "LAST_SWEEP_STATS", None)
        if isinstance(stats, dict) and "max_states" in stats:
            st.counts["interval.max_states"] = max(
                st.counts.get("interval.max_states", 0), stats["max_states"])
        else:
            st.counts["interval.max_states_absent"] = 1
    return after


def _after_color(st, _parent, out):
    if isinstance(out, tuple) and len(out) == 2 and out[1] is None:
        _count(st, "interval.witness_missing")


def _after_check(st, _parent, out):
    seconds = getattr(out, "seconds", None)
    if seconds is not None:
        st.check_seconds[out.name] = st.check_seconds.get(out.name, 0.0) + seconds


def _rebind(original, wrapper):
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("rainbowdom") and mod is not None:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


def _install_module(mod_name: str, table: dict) -> None:
    mod = importlib.import_module(f"rainbowdom.{mod_name}")
    for qual, metric in table.items():
        owner, attr = mod, qual
        if "." in qual:
            cls_name, attr = qual.split(".")
            owner = getattr(mod, cls_name, None)
        fn = getattr(owner, attr, None) if owner is not None else None
        if not callable(fn):
            missing.append(f"{mod_name}.{qual}")
            continue
        after = None
        if attr.startswith("recognize_") or attr == "build_tree_model":
            after = _after_recognize(mod_name)
        elif mod_name == "oracle":
            after = _after_oracle
        elif mod_name == "semantics":
            after = _after_validate
        elif qual == "weak2_interval":
            after = _after_sweep(mod)
        elif qual == "rainbow2_interval":
            after = _after_color
        wrapper = _span(fn, f"{mod_name}.{qual}", metric, after)
        if owner is mod:
            _rebind(fn, wrapper)
        else:
            setattr(owner, attr, wrapper)


def _count_graph_edges(graph_mod) -> None:
    cls = graph_mod.Graph
    original = cls.__init__

    @functools.wraps(original)
    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        _count(_state(), "graph.edges_built", len(self.edges))

    cls.__init__ = init


def install():
    """Wrap everything, then import and return ``rainbowdom.cli``."""
    if "rainbowdom.cli" in sys.modules or "rainbowdom.harness" in sys.modules:
        raise RuntimeError("install() must run before rainbowdom.cli/harness are imported")
    graph_mod = importlib.import_module("rainbowdom.graph")
    for mod_name, table in WRAP.items():
        _install_module(mod_name, table)
    _count_graph_edges(graph_mod)
    harness = importlib.import_module("rainbowdom.harness")
    _install_module("harness", WRAP_HARNESS)
    checks = getattr(harness, "CHECKS", None)
    if isinstance(checks, dict):
        for name, fn in list(checks.items()):
            wrapper = _span(fn, f"harness.check.{name}", None, _after_check)
            checks[name] = wrapper
            _rebind(fn, wrapper)
    else:
        missing.append("harness.CHECKS")
    cli = importlib.import_module("rainbowdom.cli")
    cli.main = _span(cli.main, "cli.main", None)
    return cli


def reset() -> None:
    for st in _threads:
        st.spans.clear()
        st.stack.clear()
        st.counts.clear()
        st.check_seconds.clear()


def summary(check_names=()) -> dict:
    """Per-layer self CPU seconds, per-metric self seconds and counts, over
    every span recorded since the last ``reset``."""
    layer_self = {layer: 0.0 for layer in LAYERS}
    metric_self: dict[str, float] = {}
    counts = {key: 0 for key in COUNTS}
    checks = {name: 0.0 for name in check_names}
    absent = False
    for st in _threads:
        spans = st.spans
        child_cpu = [0] * len(spans)
        for rec in spans:
            if rec[5] != -1:
                child_cpu[rec[5]] += rec[4] - rec[3]
        for i, rec in enumerate(spans):
            self_s = (rec[4] - rec[3] - child_cpu[i]) / 1e9
            layer = _names[rec[0]].split(".", 1)[0]
            layer_self[layer] += self_s
            metric = _metric_of[rec[0]]
            if metric is not None:
                metric_self[metric] = metric_self.get(metric, 0.0) + self_s
        for key, value in st.counts.items():
            if key == "interval.max_states":
                counts[key] = max(counts[key], value)
            elif key == "interval.max_states_absent":
                absent = True
            else:
                counts[key] += value
        for name, seconds in st.check_seconds.items():
            checks[name] = checks.get(name, 0.0) + seconds
    if absent and counts["interval.max_states"] == 0:
        counts["interval.max_states"] = None
    return {"layer_self_s": layer_self, "metric_self_s": metric_self,
            "counts": counts, "check_seconds": checks, "spans": sum(len(st.spans) for st in _threads)}


def dump(path: str) -> None:
    """Write every span as one JSON array per line: [name, wall_start_ns,
    wall_end_ns, cpu_start_ns, cpu_end_ns, parent line (-1 for a root),
    instance index, thread index].  CPU times are per thread."""
    with open(path, "w") as fh:
        offset = 0
        for st in _threads:
            for rec in st.spans:
                parent = rec[5] + offset if rec[5] != -1 else -1
                fh.write(json.dumps([_names[rec[0]], rec[1], rec[2], rec[3], rec[4],
                                     parent, rec[6], st.index]) + "\n")
            offset += len(st.spans)
