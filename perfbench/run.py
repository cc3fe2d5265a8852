"""The isactwin benchmark: build_db, run_clean and run_degraded.

One workload, as BENCHMARK.json's command runs it:

    python3 perfbench/run.py --workload run_clean --seed 1 --seconds 10 --trace 0

Every workload, in interleaved rounds (the order rotates each round), with
each metric's median over the rounds:

    python3 perfbench/run.py --rounds 3

Each workload runs in a fresh process with OpenBLAS, OpenMP and MKL pinned
to one thread.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the exit code is nonzero when an
output check fails.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import harness

CHILD_TIMEOUT_S = 175
FIRST_RUN_TIMEOUT_S = 880   # the first run in a checkout also builds the database cache


def child_env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in harness.THREAD_PINS})
    env["PYTHONDONTWRITEBYTECODE"] = "1"   # leave no __pycache__ in the checkout's src/
    env["PYTHONHASHSEED"] = "0"            # the same dict layouts, and so speed, in every run
    return env


def run_workload(workload: str, seed: int, seconds: int, trace: int, capture: bool):
    """Run one workload in a fresh process; returns (exit code, stdout or None)."""
    cmd = [sys.executable, str(harness.HERE / "harness.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    timeout = CHILD_TIMEOUT_S if harness.db_cache_path().is_file() else FIRST_RUN_TIMEOUT_S
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=harness.ROOT, timeout=timeout,
                              stdout=subprocess.PIPE if capture else None, text=True)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} did not finish within {timeout} s", file=sys.stderr)
        return 3, None
    return proc.returncode, proc.stdout


def run_all(args) -> int:
    names = list(harness.WORKLOADS)
    runs = {w: [] for w in names}
    table = harness.PER_LAYER if args.trace else harness.END_TO_END
    correct, attempted, failed = True, 0, 0
    for r in range(args.rounds):
        for w in names[r % len(names):] + names[:r % len(names)]:
            code, out = run_workload(w, args.seed + r, args.seconds, args.trace, capture=True)
            lines = (out or "").strip().splitlines()
            for line in lines[:-1]:
                print(f"[{w} round {r}] {line}")
            try:
                res = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"perfbench: {w} round {r} printed no result (exit {code})", file=sys.stderr)
                correct = False
                continue
            problems = harness.result_problems(res, table)
            for p in problems:
                print(f"perfbench: {w} round {r}: {p}", file=sys.stderr)
            if problems:
                correct = False
                continue
            correct = correct and code == 0 and res["correct"]
            attempted += res["attempted"]
            failed += res["failed"]
            runs[w].append(res["metrics"])
    merged = {}
    print(f"medians over {args.rounds} round(s):")
    for w in names:
        for m, (unit, better) in table.items():
            values = [run[m]["value"] for run in runs[w]]
            if not values:
                continue
            merged[f"{w}.{m}"] = {"value": statistics.median(values), "unit": unit}
            print(f"  {w:13s} {m:44s} {statistics.median(values):>14.6g} {unit:6s} "
                  f"({better} is better; runs: {', '.join(f'{v:.6g}' for v in values)})")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=["all", *harness.WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rounds", type=int, default=2, help="rounds of every workload (all only)")
    args = ap.parse_args(argv)

    missing = [p for p in (harness.ROOT / "src" / "isactwin" / "__init__.py", harness.SCENARIO)
               if not p.is_file()]
    if missing:
        print(f"perfbench: no isactwin checkout here, missing {missing[0]}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    code, _ = run_workload(args.workload, args.seed, args.seconds, args.trace, capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
