"""Self-tests of the benchmark.  Run with ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import filecmp
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_input_files(tmp_path, workload):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    run._write_inputs(workload, 7, str(a))
    run._write_inputs(workload, 7, str(b))
    run._write_inputs(workload, 8, str(c))
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b)) and names
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert not mismatch and not errors
    differs = sorted(os.listdir(c)) != names or filecmp.cmpfiles(a, c, names, shallow=False)[1]
    assert differs, "another seed should give other inputs"


def test_metric_names_are_valid_and_match_benchmark_json():
    doc = _benchmark_json()
    e2e = [(m["name"], m["unit"]) for m in doc["end_to_end"]]
    layers = [(m["name"], m["unit"]) for m in doc["per_layer"]]
    assert e2e == list(run.END_TO_END)
    assert layers == run.per_layer_metrics()
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    names = [n for n, _ in e2e + layers] + [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name


def test_expected_outputs_cover_every_pool_spec():
    with open(os.path.join(BENCH, "expected.json")) as fh:
        table = json.load(fh)["instances"]
    ids = {f"{s.name}/{i}" for s in workloads.STRATA for i in range(s.pool)}
    assert ids == set(table)


def _tiny_manifest(workload, root):
    """One instance per stratum of the seed-0 batch (for certify, a two-check
    plan), written under root."""
    manifest = run._write_inputs(workload, 0, root)
    if workload == "certify":
        plan_path = manifest[0]["argv"][2]
        with open(plan_path) as fh:
            plan = json.load(fh)
        plan["checks"] = [c for c in plan["checks"]
                          if c["name"] in ("reference_constants", "gadget_cert")]
        with open(plan_path, "w") as fh:
            json.dump(plan, fh)
        manifest[0]["checks"] = [c["name"] for c in plan["checks"]]
        return manifest
    seen, tiny = set(), []
    for entry in manifest:
        stratum = entry["id"].split("/")[0]
        if stratum not in seen:
            seen.add(stratum)
            tiny.append(entry)
    return tiny


def _tiny_pass(workload, tmp_path, spans_path=None):
    work = tmp_path / "work"
    manifest = _tiny_manifest(workload, str(work / "inputs"))
    path = work / "manifest.json"
    path.write_text(json.dumps(manifest))
    res = run.run_pass(str(path), str(work), "0", set(), spans_path)
    return manifest, res


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_fails_only_on_known_defects(tmp_path, workload):
    manifest, res = _tiny_pass(workload, tmp_path)
    assert "crash" not in res, res.get("crash")
    attempted, failed, unexpected = run.classify(workload, [res], manifest)
    defects = {s.name for s in workloads.strata(workload) if s.known_defect}
    expected_failures = sum(1 for e in manifest if e["id"].split("/")[0] in defects)
    assert unexpected == []
    assert (attempted, failed) == (len(res["instances"]), expected_failures)


@pytest.mark.parametrize("workload, nonzero", [
    ("solve_graphs", ("oracle.nodes", "cograph.refusals", "p4sparse.refusals",
                      "trivially_perfect.refusals", "graph.edges_built")),
    ("sweeps", ("interval.max_states", "graph.edges_built")),
    ("certify", ("oracle.nodes", "graph.edges_built")),
])
def test_counts_repeat_exactly_across_runs(tmp_path, workload, nonzero):
    counts = []
    for attempt in ("a", "b"):
        _manifest, res = _tiny_pass(workload, tmp_path / attempt, str(tmp_path / f"{attempt}.jsonl"))
        assert "crash" not in res, res.get("crash")
        counts.append(res["trace"]["counts"])
    assert counts[0] == counts[1]
    assert set(counts[0]) == set(spans.COUNTS)
    for key in nonzero:
        assert counts[0][key] > 0, key


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    cmd = _benchmark_json()["command"] + ["--workload", "sweeps", "--seed", "1",
                                          "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
