"""One pass over a workload's batch, in a fresh process.

Runs every manifest entry through the in-process entry point
``rainbowdom.cli.main(argv)`` with standard output and error captured,
one call after another (a closed loop with one caller), then checks every
output against ``expected.json`` and validates every new witness with
``rainbowdom.semantics``.  Checking happens after the timed loop.

    python3 perfbench/worker.py --manifest M.json --out R.json
        [--trace SPANS.jsonl] [--known-hashes H.json]
    python3 perfbench/worker.py --import-only --out R.json

With ``--trace`` the span wrappers are installed before ``rainbowdom.cli``
is imported, and the per-layer summary is added to the result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _import_program(traced: bool):
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "rainbowdom")):
        raise SystemExit(f"error: no program source at {src}/rainbowdom")
    sys.path.insert(0, src)
    if traced:
        import spans
        cli = spans.install()
    else:
        import rainbowdom.cli as cli
    if not os.path.abspath(cli.__file__).startswith(os.path.join(src, "")):
        raise SystemExit(f"error: rainbowdom imported from {cli.__file__}, not {src}")
    return cli


def _run(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    crash = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a traceback is a failed instance, not a benchmark crash
        rc, crash = None, f"{type(exc).__name__}: {str(exc)[:120]}"
    return time.perf_counter() - t0, rc, crash, out.getvalue(), err.getvalue()


def _validate_witness(entry, text, expected_value):
    """None when the witness is valid and costs the expected value, else why."""
    import workloads
    from rainbowdom import semantics
    from rainbowdom.graph import Graph

    stratum_name, idx = entry["id"].rsplit("/", 1)
    stratum = next(s for s in workloads.STRATA if s.name == stratum_name)
    inst = workloads.make_instance(stratum, int(idx))
    doc = json.loads(text)
    if doc.get("value") != expected_value:
        return f"witness file value {doc.get('value')} != expected {expected_value}"
    g = Graph(inst.n, inst.edges())
    k = inst.k
    if inst.problem == "rainbow":
        labels = doc["labels"]
        f = semantics.RainbowFunction(k, tuple(frozenset(labels[str(v)]) for v in range(inst.n)))
        ok, viol = semantics.is_rainbow(g, f)
        cost = semantics.rainbow_cost(f)
    else:
        weights = doc["weights"]
        f = semantics.WeightFunction(k, tuple(weights[str(v)] for v in range(inst.n)))
        if inst.problem == "weak":
            ok, viol = semantics.is_weak_k(g, f)
        elif inst.problem == "kdom":
            ok, viol = semantics.is_k_dom(g, f)
        elif inst.problem == "jkdom":
            ok, viol = semantics.is_jk_dom(g, f, inst.j)
        else:
            ok, viol = semantics.is_weak_kL(g, f, semantics.KAssignment(k, inst.floors))
        cost = semantics.weight_cost(f)
    if not ok:
        return f"witness fails {inst.problem} validation at vertex {viol}"
    if cost != expected_value:
        return f"witness costs {cost}, value is {expected_value}"
    return None


def _check_solve(entry, expected, rc, crash, stdout):
    exp = expected[entry["id"]]
    if crash is not None:
        return crash
    if rc != exp["exit"]:
        return f"exit {rc}, expected {exp['exit']}"
    if exp["exit"] == 0 and stdout.strip() != str(exp["value"]):
        return f"printed {stdout.strip()[:40]!r}, expected {exp['value']}"
    return None


def _check_verify(entry, rc, crash):
    """Per-check failure reasons of one verify pass (empty when all pass)."""
    names = entry["checks"]
    if crash is not None:
        return [crash] * len(names)
    try:
        with open(entry["report"]) as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"no report: {exc}"] * len(names)
    results = report.get("results", [])
    if [r.get("name") for r in results] != names:
        return ["report lists other checks than the plan"] * len(names)
    reasons = [None if r.get("passed") is True else f"check {r['name']} failed: {r.get('detail')}"
               for r in results]
    if rc != 0 and all(r is None for r in reasons):
        reasons = [f"exit {rc} with every check passed"] * len(names)
    return reasons


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--manifest")
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", help="traced pass: write spans here")
    ap.add_argument("--known-hashes", help="witness hashes already validated")
    ap.add_argument("--import-only", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    cli = _import_program(bool(args.trace))
    import_s = time.perf_counter() - t0
    if args.import_only:
        with open(args.out, "w") as fh:
            json.dump({"import_s": import_s}, fh)
        return 0

    with open(args.manifest) as fh:
        manifest = json.load(fh)
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)["instances"]
    known = set()
    if args.known_hashes:
        with open(args.known_hashes) as fh:
            known = set(json.load(fh))
    span_trace = sys.modules.get("spans") if args.trace else None

    runs = []
    wall0 = time.perf_counter()
    for idx, entry in enumerate(manifest):
        if span_trace is not None:
            span_trace.current_instance[0] = idx
        for stale in (entry.get("witness"), entry.get("report")):
            if stale and os.path.exists(stale):
                os.remove(stale)  # an earlier pass's output must not pass for this one's
        runs.append(_run(cli, entry["argv"]))
    wall_s = time.perf_counter() - wall0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"import_s": import_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb}
    if span_trace is not None:
        checks = manifest[0].get("checks", ()) if manifest else ()
        result["trace"] = span_trace.summary(checks)
        result["trace"]["missing"] = span_trace.missing
        span_trace.dump(args.trace)
        span_trace.reset()

    instances, hashes = [], []
    for entry, (seconds, rc, crash, stdout, stderr) in zip(manifest, runs):
        if entry.get("kind") == "verify":
            for reason in _check_verify(entry, rc, crash):
                instances.append({"id": entry["id"], "seconds": seconds, "reason": reason})
            continue
        reason = _check_solve(entry, expected, rc, crash, stdout)
        if reason is None and rc == 0:
            try:
                with open(entry["witness"]) as fh:
                    text = fh.read()
            except OSError as exc:
                text, reason = None, f"no witness file: {exc}"
            if text is not None:
                digest = hashlib.sha256(f"{entry['id']}\0{text}".encode()).hexdigest()
                if digest not in known:
                    reason = _validate_witness(entry, text, expected[entry["id"]]["value"])
                    if reason is None:
                        known.add(digest)
                        hashes.append(digest)
        if reason is not None and crash is None and stderr:
            reason += f" (stderr: {stderr.strip().splitlines()[-1][:120]})"
        instances.append({"id": entry["id"], "seconds": seconds, "reason": reason})
    result["instances"] = instances
    result["validated_hashes"] = hashes
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
