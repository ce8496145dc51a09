"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from ``src``.
The workload runs in a fresh interpreter (``bench/worker.py``) with BLAS
and OpenMP pinned to one thread, so peak memory is that process's own.
Four more interpreters only set up (imports and inputs) and exit; with
``--trace 0`` the reported ``setup_s`` is the median of the five set-ups.
The last line of output is one JSON object; see NOTES.md for the
workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_ONLY_RUNS = 4
DEADLINE_S = 170.0
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env(root):
    env = dict(os.environ)
    env.update({var: "1" for var in PINNED})
    env["PYTHONHASHSEED"] = "0"
    paths = [str(root / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_worker(root, args, deadline):
    """Run worker.py to completion; returns (report lines, result dict).
    subprocess.run kills and reaps the child if it overruns."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the workload ran")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=root, env=child_env(root), capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker overran {timeout:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise BenchError("worker printed no result") from exc
    return lines[:-1], result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "microplan" / "__init__.py").is_file():
        print("bench: src/microplan not found; run from the repository root",
              file=sys.stderr)
        return 2
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_ONLY_RUNS):
                _, out = run_worker(root, common + ["--setup-only"], deadline)
                setups.append(out["setup_s"])
        lines, result = run_worker(root, common + ["--trace", str(args.trace)],
                                   deadline)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if not args.trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        lines.append("setup_s samples " + " ".join(f"{s:.4f}" for s in setups))
    lines += [f"{name} {m['value']!r} {m['unit']}"
              for name, m in result["metrics"].items()]
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
