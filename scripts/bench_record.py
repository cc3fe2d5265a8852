"""Record BENCH_<N>.json: this checkout's benchmark medians, per-layer numbers, CLI walls and Tier-1 wall.

    python3 scripts/bench_record.py --pr 47                       # writes BENCH_47.json at the repo root
    python3 scripts/bench_record.py --pr 47 --out /tmp/b.json --no-tier1

It runs the benchmark as it is, perfbench/run.py, twice: --rounds R --seconds S for the end-to-end
medians, then --rounds 1 --seconds S --trace 1 for the per-layer numbers. It times CLI_REPEATS fresh
`python -m isactwin build-db` and `run` processes on a temporary copy of the shipped scenario, with
the BLAS thread counts unset as a user gets them, and the Tier-1 command once. One file per change,
made on one machine class, gives the trajectory that a pair of parent and change runs cannot show;
each gated metric's ratio to the earliest BENCH_*.json at the repo root reads that trajectory off
(reported, not gated).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLI_REPEATS = 5
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def bench(*args: str) -> tuple:
    """(result, context) of one perfbench/run.py: its last stdout line and a workload's context line."""
    done = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    context = next((json.loads(line.split("] context ", 1)[1]) for line in lines if "] context " in line), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"bench_record: perfbench/run.py {' '.join(args)} printed no result (exit {done.returncode}):\n"
                 f"{done.stderr}")
    result["correct"] = result["correct"] and done.returncode == 0
    return result, context


def walls(command: list, env: dict, cwd: Path, repeats: int) -> dict:
    """The wall times of `repeats` fresh processes of command, and their median, in seconds."""
    runs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        done = subprocess.run(command, env=env, cwd=cwd, capture_output=True, text=True)
        runs.append(time.perf_counter() - t0)
        if done.returncode != 0:
            sys.exit(f"bench_record: {' '.join(map(str, command))} failed:\n{done.stderr}")
    return {"runs": runs, "median": statistics.median(runs)}


def cli_walls() -> dict:
    """build-db, then run on the database it wrote, each CLI_REPEATS times on a copy of the shipped scenario."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = str(ROOT / "src")
    with tempfile.TemporaryDirectory(prefix="bench_record-") as tmp:
        for name in ("desk_two_ap.json", "desk_box.scene.json"):
            shutil.copyfile(ROOT / "scenarios" / name, Path(tmp) / name)
        return {cmd: walls([sys.executable, "-m", "isactwin", cmd, "desk_two_ap.json"], env, Path(tmp), CLI_REPEATS)
                for cmd in ("build-db", "run")}


def ratios_to_earliest(end_to_end: dict, out: Path) -> dict | None:
    """{"file", "ratios"}: each gated metric's value over the earliest BENCH_<N>.json's at the repo root,
    the file being written left out, for the metrics both hold; None when there is no such file."""
    numbered = [(int(p.stem.removeprefix("BENCH_")), p) for p in ROOT.glob("BENCH_*.json")
                if p.stem.removeprefix("BENCH_").isdigit() and p.resolve() != out.resolve()]
    if not numbered:
        return None
    earliest = min(numbered)[1]
    base = json.loads(earliest.read_text())["end_to_end"]
    return {"file": earliest.name, "ratios": {name: metric["value"] / base[name]["value"]
                                              for name, metric in end_to_end.items() if name in base}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, required=True, help="the change's number N, for BENCH_<N>.json")
    ap.add_argument("--out", type=Path, help="where to write the file (default: BENCH_<N>.json at the repo root)")
    ap.add_argument("--no-tier1", action="store_true", help="do not time the Tier-1 suite")
    ap.add_argument("--rounds", type=int, default=3, help="benchmark rounds of every workload")
    ap.add_argument("--seconds", type=int, default=10, help="seconds per workload run")
    args = ap.parse_args(argv)

    end_to_end, context = bench("--rounds", str(args.rounds), "--seconds", str(args.seconds))
    per_layer, _ = bench("--rounds", "1", "--seconds", str(args.seconds), "--trace", "1")
    record = {
        "pr": args.pr,
        "context": context,
        "correct": end_to_end["correct"] and per_layer["correct"],
        "attempted": end_to_end["attempted"] + per_layer["attempted"],
        "failed": end_to_end["failed"] + per_layer["failed"],
        "rounds": args.rounds,
        "seconds": args.seconds,
        "end_to_end": end_to_end["metrics"],
        "per_layer": per_layer["metrics"],
        "cli_wall_s": cli_walls(),
        "tier1_wall_s": None,
    }
    if not args.no_tier1:
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, ("src", os.environ.get("PYTHONPATH"))))}
        record["tier1_wall_s"] = walls(TIER1, env, ROOT, 1)["median"]
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    record["ratio_to_earliest"] = ratios_to_earliest(record["end_to_end"], out)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"bench_record: wrote {out}, correct: {str(record['correct']).lower()}")
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
