"""Command-line front end: validate, build-db, run, eval.

Exit code 0 on success; on failure a single machine-parseable line
``error: <message>`` goes to stderr and the exit code is nonzero.

A command runs on one BLAS thread unless the environment sets a count
(_BLAS_THREADS): the loop's products are small, and two threads wait on each
other whenever another process holds a core. main sets the defaults before it
imports numpy; a caller that loaded numpy first keeps its own setting.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _build_parser() -> _Parser:
    parser = _Parser(prog="isactwin", description="Indoor ISAC digital-twin simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("scenario")

    p_db = sub.add_parser("build-db", help="build the fingerprint database of a scenario")
    p_db.add_argument("scenario")
    p_db.add_argument("--out", help="database output path override")

    p_run = sub.add_parser("run", help="run a scenario and record the trace")
    p_run.add_argument("scenario")
    p_run.add_argument("--seed", type=int, help="RNG seed override")
    p_run.add_argument("--max-steps", type=int, help="step-count override")
    p_run.add_argument("--out", help="trace CSV path override")

    p_eval = sub.add_parser("eval", help="summarize a recorded trace CSV")
    p_eval.add_argument("trace")
    p_eval.add_argument("--out", help="write the JSON summary to this path")

    return parser


def main(argv=None) -> int:
    if "numpy" not in sys.modules and not any(name in os.environ for name in _BLAS_THREADS):
        os.environ.update(dict.fromkeys(_BLAS_THREADS, "1"))
    from . import simcore
    from .localization import DatabaseError
    from .scene import SceneError

    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except (simcore.ConfigError, SceneError, DatabaseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    from . import metrics, simcore

    if args.command == "validate":
        config = simcore.ScenarioConfig.from_file(args.scenario)
        problems = simcore.validate_scenario(config)
        if problems:
            print("error: " + "; ".join(problems), file=sys.stderr)
            return 1
        print(f"ok: {args.scenario}")
        return 0

    if args.command == "build-db":
        config = simcore.ScenarioConfig.from_file(args.scenario)
        if args.out is not None:
            simcore.check_overrides({"db.path": args.out})
            config = dataclasses.replace(config, db=dataclasses.replace(config.db, path=Path(args.out)))
        db, path = simcore.build_db_for_scenario(config)
        where = path if path is not None else "(not persisted: no db path configured)"
        print(f"built fingerprint database: {len(db.positions)} points x {len(db.ap_ids)} APs -> {where}")
        if db.overflow:
            print(f"warning: {db.overflow} traced paths arrived after the {db.num_bins} x "
                  f"{db.bin_width * 1e9:g} ns = {db.num_bins * db.bin_width * 1e9:g} ns bin window "
                  "and were dropped; raise db.build num_bins or bin_width_s to keep them",
                  file=sys.stderr)
        return 0

    if args.command == "run":
        simcore.check_overrides({"sim.seed": args.seed, "sim.max_steps": args.max_steps,
                                 "output.trace_csv": args.out})
        overrides = {"seed": args.seed, "max_steps": args.max_steps,
                     "trace_csv": None if args.out is None else Path(args.out)}
        config = dataclasses.replace(simcore.ScenarioConfig.from_file(args.scenario),
                                     **{name: value for name, value in overrides.items() if value is not None})
        records = simcore.run_simulation(config)
        summary = metrics.summarize_run(records)
        print(f"ran {len(records)} steps -> {config.trace_csv}")
        print(summary.format_table())
        return 0

    if args.command == "eval":
        if args.out and simcore.file_identity(args.out) == simcore.file_identity(args.trace):
            raise ValueError(f"--out names the trace file itself, which eval would overwrite: {args.out}")
        records = simcore.read_trace_csv(args.trace)
        summary = metrics.summarize_run(records)
        print(summary.format_table())
        doc = json.dumps(dataclasses.asdict(summary), sort_keys=True)
        if args.out:
            Path(args.out).write_text(doc + "\n")
        else:
            print(doc)
        return 0

    raise ValueError(f"unknown command {args.command!r}")
