"""Run one ``rainbowdom.cli solve`` in a child process and check its result.

    python3 .github/solve_within.py --max-mb 300 [--expect TEXT] -- <solve args>

Run from the repository root (the child gets ``PYTHONPATH=src``).  Prints
one line with the child's exit code, stdout and peak RSS, passes its
stderr on, and exits 1 unless the solve exits 0, stays under ``--max-mb``
and prints ``TEXT`` as its only line (without ``--expect``: one line
holding a whole number).
"""

import argparse
import os
import resource
import subprocess
import sys

argv = sys.argv[1:]
if "--" not in argv:
    sys.exit("usage: solve_within.py --max-mb MB [--expect TEXT] -- <solve args>")
cut = argv.index("--")
parser = argparse.ArgumentParser()
parser.add_argument("--max-mb", type=float, required=True)
parser.add_argument("--expect")
opts = parser.parse_args(argv[:cut])

out = subprocess.run(
    [sys.executable, "-m", "rainbowdom.cli", "solve", *argv[cut + 1:]],
    capture_output=True, text=True, env=dict(os.environ, PYTHONPATH="src"))
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"exit {out.returncode}, stdout {out.stdout.strip()!r}, peak RSS {peak_mb:.0f} MB")
print(out.stderr, file=sys.stderr)
if opts.expect is None:
    printed = out.stdout.strip().isdecimal() and len(out.stdout.splitlines()) == 1
else:
    printed = out.stdout == opts.expect + "\n"
sys.exit(not (out.returncode == 0 and printed and peak_mb < opts.max_mb))
