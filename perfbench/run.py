"""The rainbowdom benchmark: end-to-end metrics per workload, per-layer
metrics from a separate traced run.

    python3 perfbench/run.py --workload solve_models --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 0            # every workload, one after another

A run generates the workload's input files from ``--seed`` (untimed by the
passes, timed as ``setup_s``), then repeats passes over that fixed batch for
``--seconds``.  Each pass is a fresh ``worker.py`` process that calls
``rainbowdom.cli.main`` once per instance, closed loop, one caller.  With
``--trace 1`` the first half of the time runs untraced passes and the rest
traced ones, and the per-layer metrics are reported instead of the
end-to-end ones.  Every metric line names its unit; the last line of
standard output is one JSON object.

Workload definitions live in ``workloads.py``; the certification plan in
``certify_plan.json``; the expected outputs in ``expected.json`` (rebuilt by
``make_expected.py``).  The layer to end-to-end map is ``layers.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 3
TIME_LIMIT_S = 150  # stop starting passes after this, to finish well within 180 s

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("latency_p50_ms", "ms"),
              ("latency_tail_ms", "ms"), ("peak_rss_mb", "MB"))


def _plan_checks() -> list[str]:
    with open(os.path.join(HERE, "certify_plan.json")) as fh:
        return [c["name"] for c in json.load(fh)["checks"]]


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric, in report order, with its unit."""
    from spans import COUNTS, LAYERS
    out = [("trace.wall_s", "s"), ("trace.overhead_s", "s"), ("trace.remainder_s", "s")]
    for layer in LAYERS:
        out += [(f"{layer}.self_s", "s"), (f"{layer}.share", "ratio")]
    timed = ["graph.parse_s"]
    for mod in ("cograph", "p4sparse", "trivially_perfect"):
        timed += [f"{mod}.parse_s", f"{mod}.recognize_s", f"{mod}.to_graph_s", f"{mod}.dp_s"]
    timed += ["trivially_perfect.reduce_s", "interval.parse_s", "interval.arrangement_s",
              "interval.to_graph_s", "interval.sweep_s", "interval.color_s",
              "permutation.parse_s", "permutation.to_graph_s", "permutation.sweep_s",
              "bipartite.solve_s", "bipartite.to_graph_s", "oracle.domination_s",
              "oracle.rainbow_s", "oracle.weight_s", "oracle.direct_s",
              "semantics.validate_s", "gadgets.verify_s", "harness.enumerate_s"]
    timed += [f"harness.{name}_s" for name in _plan_checks()]
    out += [(m, "s") for m in timed]
    out += [(c, "count") for c in COUNTS]
    return out


# --- set-up --------------------------------------------------------------------


def _spawn(args, timeout):
    """Run a worker to completion; (exit code, stderr tail)."""
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")] + args,
                              cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return -1, f"worker killed after {timeout} s"
    return proc.returncode, proc.stderr.strip()[-500:]


def _write_inputs(workload: str, seed: int, root: str) -> list[dict]:
    os.makedirs(root)
    if workload != "certify":
        return workloads.write_batch(workload, seed, root)
    with open(os.path.join(HERE, "certify_plan.json")) as fh:
        plan = json.load(fh)
    plan["seed"] = seed
    plan_path = os.path.join(root, "plan.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh, indent=2, sort_keys=True)
    workers = str(min(2, os.cpu_count() or 1))
    report = os.path.join(root, "report.json")
    return [{"id": "certify", "kind": "verify", "report": report,
             "checks": [c["name"] for c in plan["checks"]],
             "argv": ["verify", "--plan", plan_path, "--workers", workers, "--out", report]}]


def setup(workload: str, seed: int, work: str):
    """Generate the inputs and import the program, SETUP_REPEATS times;
    returns (median seconds, manifest of the last repetition)."""
    times, manifest = [], None
    for r in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        manifest = _write_inputs(workload, seed, os.path.join(work, f"inputs{r}"))
        gen_s = time.perf_counter() - t0
        out = os.path.join(work, f"import{r}.json")
        code, err = _spawn(["--import-only", "--out", out], timeout=60)
        if code != 0:
            raise RuntimeError(f"cannot import the program: {err}")
        with open(out) as fh:
            times.append(gen_s + json.load(fh)["import_s"])
    return statistics.median(times), manifest


# --- passes --------------------------------------------------------------------


def run_pass(manifest_path, work, n, known, spans_path=None):
    out = os.path.join(work, f"pass{n}.json")
    hashes = os.path.join(work, "known.json")
    with open(hashes, "w") as fh:
        json.dump(sorted(known), fh)
    args = ["--manifest", manifest_path, "--out", out, "--known-hashes", hashes]
    if spans_path:
        args += ["--trace", spans_path]
    code, err = _spawn(args, timeout=170)
    if code != 0:
        return {"crash": f"worker exited {code}: {err}"}
    with open(out) as fh:
        res = json.load(fh)
    known.update(res["validated_hashes"])
    return res


def passes(manifest_path, work, budget_s, start, min_passes, known, spans_path=None):
    out = []
    t0 = time.perf_counter()
    while (len(out) < min_passes or time.perf_counter() - t0 < budget_s) \
            and time.perf_counter() - start < TIME_LIMIT_S:
        out.append(run_pass(manifest_path, work, f"{len(out)}{'t' if spans_path else ''}",
                            known, spans_path))
        if "crash" in out[-1]:
            break
    return out


# --- metrics -------------------------------------------------------------------


def tail(values):
    """(value, percentile label): the highest percentile with at least ten
    samples beyond it, or the maximum when there are ten samples or fewer."""
    xs = sorted(values)
    if len(xs) <= 10:
        return xs[-1], "max"
    return xs[len(xs) - 11], f"p{100.0 * (len(xs) - 10) / len(xs):.1f}"


def classify(workload, results, manifest):
    """(attempted, failed, unexpected failure reasons)."""
    known = {s.name: s.known_defect for s in workloads.strata(workload)}
    attempted = failed = 0
    unexpected = []
    per_pass = len(manifest[0]["checks"]) if workload == "certify" else len(manifest)
    for res in results:
        if "crash" in res:
            attempted += per_pass
            failed += per_pass
            unexpected.append(res["crash"])
            continue
        for inst in res["instances"]:
            attempted += 1
            reason = inst["reason"]
            if reason is None:
                continue
            failed += 1
            defect = known.get(inst["id"].split("/")[0])
            # a known defect may crash or exit wrongly, never print a wrong value
            if defect and not reason.startswith(("printed", "witness")):
                continue
            unexpected.append(f"{inst['id']}: {reason}")
    return attempted, failed, unexpected


def end_to_end(workload, setup_s, results):
    """Each instance's latency is its best of the run's passes, and wall_s
    the sum of those bests: a pass as it runs when nothing else slows the
    machine.  Other tenants of a shared machine only ever add time; on a
    shared 2-core host, whole passes ran up to a fifth slower for seconds at
    a time, so the best of several passes is the steadiest measurement."""
    good = [r for r in results if "crash" not in r]
    if not good:
        return None, None
    walls = [r["wall_s"] for r in good]
    if workload == "certify":
        latencies = walls  # one instance of certify is one whole verify run
    else:
        latencies = [min(xs) for xs in zip(*[[i["seconds"] for i in r["instances"]]
                                             for r in good])]
    tail_value, tail_label = tail(latencies)
    metrics = {
        "setup_s": setup_s,
        "wall_s": sum(latencies) if workload != "certify" else min(walls),
        "latency_p50_ms": 1000.0 * statistics.median(latencies),
        "latency_tail_ms": 1000.0 * tail_value,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
    }
    info = {"latency_tail_ms": f"{tail_label} of {len(latencies)} instances",
            "latency_p50_ms": f"median of {len(latencies)} instances",
            "wall_s": f"per-instance best of {len(walls)} passes, summed"
                      if workload != "certify" else f"best of {len(walls)} passes",
            "setup_s": f"median of {SETUP_REPEATS} set-ups",
            "peak_rss_mb": f"median of {len(walls)} pass processes"}
    return metrics, info


def per_layer(untraced, traced):
    """Per-pass means over the traced passes, plus overhead and remainder."""
    good = [r for r in traced if "crash" not in r]
    base = [r["wall_s"] for r in untraced if "crash" not in r]
    if not good or not base:
        return None, {}
    n = len(good)
    wall = sum(r["wall_s"] for r in good) / n
    values = {name: 0.0 for name, _unit in per_layer_metrics()}
    values.update({"trace.wall_s": wall, "trace.overhead_s": wall - statistics.median(base)})
    layer_total = 0.0
    for layer in good[0]["trace"]["layer_self_s"]:
        self_s = sum(r["trace"]["layer_self_s"][layer] for r in good) / n
        layer_total += self_s
        values[f"{layer}.self_s"] = self_s
        values[f"{layer}.share"] = self_s / wall
    values["trace.remainder_s"] = wall - layer_total
    for metric in {m for r in good for m in r["trace"]["metric_self_s"]}:
        values[metric] = sum(r["trace"]["metric_self_s"].get(metric, 0.0) for r in good) / n
    for name in good[0]["trace"]["check_seconds"]:
        values[f"harness.{name}_s"] = sum(r["trace"]["check_seconds"][name] for r in good) / n
    counts = good[0]["trace"]["counts"]
    notes = {}
    if any(r["trace"]["counts"] != counts for r in good[1:]):
        notes["counts"] = "counts differ between traced passes of this run"
    for key, value in counts.items():
        if value is None:
            values[key] = -1
            notes[key] = "absent: interval.LAST_SWEEP_STATS not found"
        else:
            values[key] = value
    if good[0]["trace"]["missing"]:
        notes["missing"] = "not wrapped: " + ", ".join(good[0]["trace"]["missing"])
    return values, notes


# --- driver --------------------------------------------------------------------


def run_workload(workload, seed, seconds, traced):
    start = time.perf_counter()
    work = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_s, manifest = setup(workload, seed, work)
        manifest_path = os.path.join(work, "manifest.json")
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        known: set[str] = set()
        if not traced:
            untraced = passes(manifest_path, work, seconds, start, 3, known)
            results, trace_results = untraced, []
        else:
            os.makedirs(OUT, exist_ok=True)
            spans_path = os.path.join(OUT, f"{workload}-seed{seed}.spans.jsonl")
            untraced = passes(manifest_path, work, seconds / 2, start, 1, known)
            trace_results = passes(manifest_path, work, seconds - (time.perf_counter() - start),
                                   start, 1, known, spans_path)
            results = untraced + trace_results
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted, failed, unexpected = classify(workload, results, manifest)
    report = {"workload": workload, "attempted": attempted, "failed": failed,
              "unexpected": unexpected}
    if traced:
        report["metrics"], report["notes"] = per_layer(untraced, trace_results)
        report["units"] = dict(per_layer_metrics())
    else:
        report["metrics"], report["notes"] = end_to_end(workload, setup_s, untraced)
        report["units"] = dict(END_TO_END)
    report["correct"] = not unexpected and report["metrics"] is not None
    return report


def print_report(rep):
    w = rep["workload"]
    rate = rep["failed"] / rep["attempted"] if rep["attempted"] else float("nan")
    for name, value in (rep["metrics"] or {}).items():
        note = rep["notes"].get(name)
        print(f"{w} {name} = {value:.6g} {rep['units'].get(name, '')}"
              + (f"  ({note})" if note else ""))
    for key in ("counts", "missing"):
        if key in rep["notes"]:
            print(f"{w} note: {rep['notes'][key]}")
    print(f"{w} error_rate = {rate:.6g} ({rep['failed']} failed / {rep['attempted']} attempted)")
    for reason in rep["unexpected"][:10]:
        print(f"{w} UNEXPECTED FAILURE {reason}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "rainbowdom")):
        print(f"error: no program source under {ROOT}/src", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    for name in names:
        rep = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_report(rep)
        reports.append(rep)
    if any(r["metrics"] is None for r in reports):
        print("error: no pass completed", file=sys.stderr)
        return 1
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
        units = reports[0]["units"]
        keyed = {m: {"value": metrics[m], "unit": units[m]} for m in units}
    else:
        keyed = {f"{r['workload']}.{m}": {"value": r["metrics"][m], "unit": r["units"][m]}
                 for r in reports for m in r["units"]}
    print(json.dumps({"correct": all(r["correct"] for r in reports),
                      "attempted": sum(r["attempted"] for r in reports),
                      "failed": sum(r["failed"] for r in reports),
                      "metrics": keyed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
