"""Alternating A/B pairs of the benchmark: a committed base against the
working tree.

    python3 tools/ab_pairs.py --workload sweep-pair --pairs 10 \
        [--seconds 20] [--base HEAD] [--first-seed 100]

Run it from anywhere inside the repository.  The base side is
``git archive BASE`` unpacked into a temporary directory, which is
removed on exit; the change side is the working tree, uncommitted edits
included.  Pair k runs both sides with seed ``first-seed + k``, the base
first in even pairs and the change first in odd ones, so that neither
side always runs on a warmer host.  Each run is ``bench/run.py --trace
0`` in its own tree, waited for to the end (an interrupt kills it), so
no process outlives the script.

It prints every run's end-to-end metrics (those ``BENCHMARK.json``
lists), then per metric each side's median, the base's interquartile
range, and in how many pairs the change did strictly better.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def repo_root():
    out = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                         capture_output=True, text=True, check=True)
    return Path(out.stdout.strip())


def unpack(root, rev, into):
    """The files of commit `rev` written under `into`."""
    archive = subprocess.Popen(["git", "archive", rev], cwd=root,
                               stdout=subprocess.PIPE)
    try:
        subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout,
                       check=True)
    finally:
        archive.stdout.close()
        if archive.wait() != 0:
            raise RuntimeError(f"git archive {rev} failed")


def bench(tree, workload, seed, seconds):
    """The metrics dict of one `bench/run.py --trace 0` run in `tree`."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"bench in {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--base", default="HEAD")
    parser.add_argument("--first-seed", type=int, default=100)
    args = parser.parse_args(argv)

    root = repo_root()
    metrics = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
    runs = {"base": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="ab_base_") as tmp:
        unpack(root, args.base, tmp)
        trees = {"base": Path(tmp), "change": root}
        for k in range(args.pairs):
            seed = args.first_seed + k
            order = ("base", "change") if k % 2 == 0 else ("change", "base")
            for side in order:
                got = bench(trees[side], args.workload, seed, args.seconds)
                runs[side].append(got)
                print(f"pair {k} seed {seed} {side:6s} " + " ".join(
                    f"{m['name']} {got[m['name']]:.4g}" for m in metrics),
                    flush=True)

    print(f"\n{args.workload}, {args.pairs} pairs, base {args.base}")
    print(f"{'metric':14s} {'base median':>12s} {'change median':>14s} "
          f"{'base IQR':>10s} {'change wins':>12s}")
    for m in metrics:
        name = m["name"]
        base = [r[name] for r in runs["base"]]
        change = [r[name] for r in runs["change"]]
        sign = 1.0 if m["better"] == "lower" else -1.0
        wins = sum(sign * (c - b) < 0.0 for b, c in zip(base, change))
        print(f"{name:14s} {statistics.median(base):12.4g} "
              f"{statistics.median(change):14.4g} {iqr(base):10.4g} "
              f"{wins:>5d} of {args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
