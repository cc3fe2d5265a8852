"""One workload of the isactwin benchmark, run in this process.

    python3 perfbench/harness.py --workload run_clean --seed 1 --seconds 10 --trace 0

`run.py` starts this file in a fresh process with BLAS/OpenMP pinned to one
thread; run it directly only with the same environment.  The workloads call
the public API the CLI calls (`simcore.build_db_for_scenario`,
`simcore.run_simulation`) on a copy of the shipped desk scenario in a
temporary directory, and check every output against references recorded from
the program (see record_references.py).  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCENARIO = ROOT / "scenarios" / "desk_two_ap.json"
REFERENCES = HERE / "references"

THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# run_degraded's fingerprint-noise stream is seeded with --seed modulo this
# count, so that each run's outputs can be checked against a reference trace
# recorded for its noise seed.
DEGRADED_NOISE_SEEDS = 8

# Repeats of the set-up per run; setup_s is their median.
SETUP_REPEATS = 15

# Output tolerances.  Database bins may drift in the last ulp when the tracer
# sums in another order; trace floats are written with full precision.  A
# perfect fingerprint match leaves a loc_score of ~1e-17 that is all rounding,
# hence the absolute floor.
DB_RTOL = 1e-12
TRACE_RTOL = 1e-9
TRACE_ATOL = 1e-12
TRACE_EXACT_COLUMNS = {"step", "time_s", "agent_id", "est_x", "est_y"}
CLEAN_POS_ERR_MAX_M = 0.071   # acceptance criterion 4a


@dataclass(frozen=True)
class Workload:
    name: str
    runs_loop: bool              # False: build the fingerprint database
    degraded: bool = False
    traces_per_step: int = 0     # trace_paths calls each sim_step implies

    @property
    def step_fn(self) -> tuple:
        """(module, function) called once per step: the StepClock's target.

        On build_db a step is one fingerprint; compute_mdp runs once per
        fingerprint, so the speed probe can follow it.
        """
        if self.runs_loop:
            return "isactwin.simcore", "sim_step"
        return "isactwin.localization", "compute_mdp"


# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w for w in [
        Workload("build_db", runs_loop=False),
        # two link traces per step, reused as the fingerprints
        Workload("run_clean", runs_loop=True, traces_per_step=2),
        # the map offset moves the fingerprint point off the link receiver,
        # which forces two more traces per step
        Workload("run_degraded", runs_loop=True, degraded=True, traces_per_step=4),
    ]
}

# name -> (unit, better).  With --trace 0 the run reports END_TO_END, with
# --trace 1 PER_LAYER; BENCHMARK.json lists the same names.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_s": ("s", "lower"),
    "step_ms_p50": ("ms", "lower"),
    "step_ms_p90": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Figures printed with --trace 0 that are not gated metrics.  The wall_ times
# are the gated times unscaled: they move with the machine's speed state (see
# speedprobe.py).  The others exist on some workloads only, and a gated
# metric must exist on every workload.
FACTS = {
    "wall_setup_s": ("s", "lower"),
    "wall_op_s": ("s", "lower"),
    "wall_step_ms_p50": ("ms", "lower"),
    "wall_step_ms_p90": ("ms", "lower"),
    "probe_ms_p50": ("ms", "lower"),
    "build_db_s": ("s", "lower"),
    "fingerprints": ("count", "higher"),
    "realtime_factor": ("sim_s/s", "higher"),
    "pos_err_max_m": ("m", "lower"),
    "rate_mean_bps_hz": ("bps/Hz", "higher"),
    "steps": ("count", "lower"),
}

PER_LAYER = {
    "raytrace.trace_paths.calls": ("count", "lower"),
    "raytrace.trace_paths.ms_p50": ("ms", "lower"),
    "raytrace.trace_paths.ms_p90": ("ms", "lower"),
    "raytrace.trace_paths.busy_s": ("s", "lower"),
    "raytrace.paths_per_trace": ("count", "higher"),
    "raytrace.candidates_per_trace_computed": ("count", "lower"),
    "raytrace.path_yield": ("ratio", "higher"),
    "channel.beamformed_gains.calls": ("count", "lower"),
    "channel.beamformed_gains.ms_p50": ("ms", "lower"),
    "channel.beamformed_gains.ms_p90": ("ms", "lower"),
    "channel.beamformed_gains.busy_s": ("s", "lower"),
    "channel.beamformed_gains.cmac_computed": ("count", "lower"),
    "channel.synthesize_channel.busy_s": ("s", "lower"),
    "channel.mrt_beamformer.busy_s": ("s", "lower"),
    "localization.build_fingerprint_db.s": ("s", "lower"),
    "localization.compute_mdp.busy_s": ("s", "lower"),
    "localization.save_db.s": ("s", "lower"),
    "localization.load_db.s": ("s", "lower"),
    "localization.localize.calls": ("count", "lower"),
    "localization.localize.ms_p50": ("ms", "lower"),
    "localization.add_fingerprint_noise.busy_s": ("s", "lower"),
    "localization.mdp_overflow": ("count", "lower"),
    "simcore.sim_step.self_ms_p50": ("ms", "lower"),
    "simcore.Bus.publish.calls": ("count", "lower"),
    "simcore.Bus.publish.busy_s": ("s", "lower"),
    "simcore.TraceWriter.write_record.busy_s": ("s", "lower"),
    "simcore.validate_scenario.s": ("s", "lower"),
    "simcore.init_world.s": ("s", "lower"),
    "agent.step_state.busy_s": ("s", "lower"),
    "agent.observe.busy_s": ("s", "lower"),
    "agent.waypoint_control.busy_s": ("s", "lower"),
    "scene.load_scene.s": ("s", "lower"),
    "scene.floor_grid.s": ("s", "lower"),
    "network.busy_s": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead_pct": ("%", "lower"),
}


# ---------------------------------------------------------------------------
# program, inputs and the database cache

def import_program():
    """Import isactwin from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import isactwin
    if Path(isactwin.__file__).resolve().parent != (src / "isactwin").resolve():
        raise ImportError(f"isactwin imported from {isactwin.__file__}, not from {src}")
    from isactwin import localization, metrics, scene, simcore
    return simcore, localization, scene, metrics


def build_dir() -> Path:
    """Scratch space inside the checkout, ignored by git."""
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def noise_seed(seed: int) -> int:
    return seed % DEGRADED_NOISE_SEEDS


def scenario_doc(workload: Workload, seed: int) -> dict:
    doc = json.loads(SCENARIO.read_text())
    if workload.degraded:
        # the settings of acceptance criterion 4b and run_case_study.py --degraded
        doc["noise"]["fingerprint_snr_db"] = 20.0
        doc["noise"]["map_offset_m"] = [0.0, -0.05]
        doc["sim"]["seed"] = noise_seed(seed)
    else:
        doc["sim"]["seed"] = seed
    return doc


def write_scenario(workdir: Path, doc: dict) -> Path:
    """Copy the scenario and its scene into `workdir`; returns the scenario path."""
    workdir.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(SCENARIO.parent / doc["scene"], workdir / doc["scene"])
    path = workdir / SCENARIO.name
    path.write_text(json.dumps(doc, indent=2))
    return path


def source_digest() -> str:
    """Hash of the program and the shipped scenario: the key of the database cache."""
    h = hashlib.sha256()
    doc = json.loads(SCENARIO.read_text())
    files = sorted((ROOT / "src" / "isactwin").rglob("*.py"))
    files += [SCENARIO, SCENARIO.parent / doc["scene"]]
    for f in files:
        h.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def db_cache_path() -> Path:
    return build_dir() / f"desk_two_ap-{source_digest()[:16]}.fpdb"


def cached_db(simcore, tmp_root: Path) -> Path:
    """The shipped database built by this checkout's program, built once per source digest."""
    path = db_cache_path()
    if not path.is_file():
        scen = write_scenario(tmp_root / "db_cache", scenario_doc(WORKLOADS["run_clean"], 0))
        config = simcore.ScenarioConfig.from_file(scen)
        _, built = simcore.build_db_for_scenario(config)
        part = path.with_suffix(".part")
        shutil.copyfile(built, part)
        os.replace(part, path)
    return path


def candidate_sequences(num_surfaces: int, max_order: int) -> int:
    """Surface sequences the image method tries: 1 + S + S(S-1) + ... (no repeats in a row)."""
    return 1 + sum(num_surfaces * (num_surfaces - 1) ** i for i in range(max_order))


# ---------------------------------------------------------------------------
# output checks

def check_db(db, saved_path: Path, localization) -> list:
    import numpy as np
    ref = _reference_db()
    problems = []
    if not saved_path.is_file():
        return [f"database file {saved_path} not written"]
    on_disk = localization.load_db(saved_path)
    for label, got in (("returned", db), ("saved", on_disk)):
        if list(got.ap_ids) != ref["ap_ids"]:
            problems.append(f"{label} database APs {got.ap_ids} != {ref['ap_ids']}")
            continue
        if got.bin_width != ref["bin_width"] or got.bins.shape != ref["bins"].shape:
            problems.append(f"{label} database bin layout {got.bins.shape} differs from the reference")
            continue
        if not (got.positions == ref["positions"]).all():
            problems.append(f"{label} database grid positions differ from the reference")
        if not ((got.bins > 0.0) == (ref["bins"] > 0.0)).all():
            problems.append(f"{label} database occupied bins differ from the reference")
        elif not np.allclose(got.bins, ref["bins"], rtol=DB_RTOL, atol=0.0):
            problems.append(f"{label} database bins differ from the reference beyond rtol {DB_RTOL}")
    return problems


def _reference_db() -> dict:
    import numpy as np
    with np.load(REFERENCES / "build_db.npz") as z:
        return {
            "positions": z["positions"], "bins": z["bins"],
            "ap_ids": [str(a) for a in z["ap_ids"]], "bin_width": float(z["bin_width"]),
        }


def reference_trace(workload: Workload, seed: int) -> Path:
    if workload.degraded:
        return REFERENCES / f"run_degraded_noise{noise_seed(seed)}.csv"
    return REFERENCES / "run_clean.csv"


def check_trace(path: Path, ref_path: Path) -> list:
    """Compare a trace CSV with its reference: estimates exact, other floats to tolerance."""
    got, ref = _read_rows(path), _read_rows(ref_path)
    if got[0] != ref[0]:
        return [f"trace columns {got[0]} != reference {ref[0]}"]
    if len(got) != len(ref):
        return [f"trace has {len(got) - 1} rows, reference {len(ref) - 1}"]
    problems = []
    for row, (g, r) in enumerate(zip(got[1:], ref[1:]), start=1):
        for col, a, b in zip(ref[0], g, r):
            same = a == b if col in TRACE_EXACT_COLUMNS else math.isclose(
                float(a), float(b), rel_tol=TRACE_RTOL, abs_tol=TRACE_ATOL)
            if not same:
                problems.append(f"trace row {row} column {col}: {a} != reference {b}")
    return problems[:10]


def _read_rows(path: Path) -> list:
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# set-up and ops

def timed_setups(workload: Workload, scenario_path: Path, simcore, scene_mod, probe) -> list:
    """(start, end) of SETUP_REPEATS set-ups, each between two speed probes."""
    spans = []
    for _ in range(SETUP_REPEATS):
        probe()
        t0 = time.perf_counter()
        setup_once(workload, scenario_path, simcore, scene_mod)
        spans.append((t0, time.perf_counter()))
    probe()
    return spans


def setup_once(workload: Workload, scenario_path: Path, simcore, scene_mod):
    """What a user waits for before the first trace: parse, validate, load."""
    config = simcore.ScenarioConfig.from_file(scenario_path)
    if workload.runs_loop:
        problems = simcore.validate_scenario(config)
        if problems:
            raise simcore.ConfigError("; ".join(problems))
        simcore.init_world(config)
    else:
        build = config.db.build
        scene = scene_mod.load_scene(config.scene_path)
        height = build.height if build.height is not None else config.agents[0].initial_pose.position[2]
        scene_mod.floor_grid(scene, build.spacing, height)


@dataclass
class OpResult:
    start: float                 # perf_counter at the call into the program
    end: float
    steps: int = 0               # sim steps; 0 for build_db
    fingerprints: int = 0        # (grid point, AP) pairs; 0 for runs
    pos_err_max_m: float = 0.0
    rate_mean_bps_hz: float = 0.0
    problems: list = field(default_factory=list)


def run_op(workload: Workload, scenario_path: Path, seed: int, prog, probe, instrument) -> OpResult:
    """One workload iteration: build the database, or run the scenario to the end.

    Only the call into the program runs inside `instrument`; the speed probe
    runs just before and after it, and the output checks after that.
    """
    simcore, localization, _, metrics = prog
    config = simcore.ScenarioConfig.from_file(scenario_path)
    probe()
    with instrument():
        t0 = time.perf_counter()
        if workload.runs_loop:
            records = simcore.run_simulation(config)
        else:
            db, saved = simcore.build_db_for_scenario(config)
        t1 = time.perf_counter()
    probe()
    if not workload.runs_loop:
        return OpResult(t0, t1, fingerprints=db.bins.shape[0] * db.bins.shape[1],
                        problems=check_db(db, saved, localization))
    summary = metrics.summarize_run(records)
    result = OpResult(
        t0, t1, steps=len(records), pos_err_max_m=summary.max_pos_err_m,
        rate_mean_bps_hz=statistics.fmean(summary.mean_rate_bps_hz.values()),
        problems=check_trace(config.trace_csv, reference_trace(workload, seed)),
    )
    if not workload.degraded and summary.max_pos_err_m > CLEAN_POS_ERR_MAX_M:
        result.problems.append(f"pos_err_max_m {summary.max_pos_err_m} > {CLEAN_POS_ERR_MAX_M}")
    return result


@contextlib.contextmanager
def traced_op(tracer, clock):
    """A traced op: spans around every layer, and the step clock with the
    speed probe installed over them, as in an untraced op."""
    with tracer.around_op(), clock:
        yield


def run_ops(workload: Workload, scenario_path: Path, seed: int, seconds: float, prog, probe,
            instruments: list) -> tuple:
    """Run ops until `seconds` have passed, at least one under each instrument.

    Op i calls the program inside ``instruments[i % len(instruments)]()``, so
    a traced run alternates untraced and traced ops under the same machine
    conditions.
    Returns (results of the completed ops, one list per instrument; ops
    attempted; ops failed).
    """
    results = [[] for _ in instruments]
    attempted, failed = 0, 0
    deadline = time.perf_counter() + seconds
    while attempted < len(instruments) or time.perf_counter() < deadline:
        k = attempted % len(instruments)
        attempted += 1
        try:
            res = run_op(workload, scenario_path, seed, prog, probe, instruments[k])
        except Exception:  # an op that raises is a failed op, not the end of the run
            traceback.print_exc(file=sys.stderr)
            failed += 1
            continue
        results[k].append(res)
        if res.problems:
            failed += 1
            for p in res.problems:
                print(f"check failed: {p}", file=sys.stderr)
    return results, attempted, failed


# ---------------------------------------------------------------------------
# metrics

def quantile(values, q: float) -> float:
    """Inclusive quantile q in (0, 1); the value itself for one sample."""
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def step_samples_ms(workload: Workload, results: list, clock, measure) -> list:
    """Per-step times in ms, each interval timed by `measure` (SpeedProbe.raw
    or .scaled): each sim_step, or on build_db each op's time per fingerprint."""
    if workload.runs_loop:
        return [measure(t0, t1) * 1e3 for t0, t1 in clock.calls]
    return [measure(r.start, r.end) * 1e3 / r.fingerprints for r in results]


def timings(workload, setups, results, clock, measure) -> dict:
    steps_ms = step_samples_ms(workload, results, clock, measure)
    return {
        "setup_s": statistics.median(measure(t0, t1) for t0, t1 in setups),
        "op_s": statistics.median(measure(r.start, r.end) for r in results),
        "step_ms_p50": statistics.median(steps_ms),
        "step_ms_p90": quantile(steps_ms, 0.9),
    }


def end_to_end(workload, setups, results, clock, probe) -> dict:
    """The gated metrics: times scaled to the reference speed, and memory."""
    values = timings(workload, setups, results, clock, probe.scaled)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return values


def run_facts(workload, setups, results, clock, probe, config) -> dict:
    """The figures printed beside the metrics (see FACTS)."""
    wall = timings(workload, setups, results, clock, probe.raw)
    facts = {f"wall_{name}": value for name, value in wall.items()}
    facts["probe_ms_p50"] = statistics.median(probe.durations()) * 1e3
    if not workload.runs_loop:
        facts["build_db_s"] = statistics.median(probe.scaled(r.start, r.end) for r in results)
        facts["fingerprints"] = results[0].fingerprints
        return facts
    step_s = sum(t1 - t0 for t0, t1 in clock.calls)
    facts.update({
        "realtime_factor": sum(r.steps for r in results) * config.dt / step_s,
        "pos_err_max_m": max(r.pos_err_max_m for r in results),
        "rate_mean_bps_hz": statistics.fmean(r.rate_mean_bps_hz for r in results),
        "steps": results[0].steps,
    })
    return facts


def per_layer(workload, tracer, results, overhead_pct, candidates) -> dict:
    ops = len(results)

    def calls(name):
        return tracer.calls(name) / ops

    def busy(*names):
        return sum(sum(tracer.durations(n)) for n in names) / ops

    def ms(name, q):
        d = tracer.durations(name)
        return quantile(d, q) * 1e3 if d else 0.0

    def per_call_s(name):
        d = tracer.durations(name)
        return statistics.median(d) if d else 0.0

    traces = tracer.calls("raytrace.trace_paths")
    gains_calls = tracer.calls("channel.beamformed_gains")
    paths_per_trace = tracer.counts["raytrace.paths"] / traces if traces else 0.0
    step_name = "simcore.sim_step" if workload.runs_loop else "op"
    step_total = sum(tracer.durations(step_name))
    step_self = sum(tracer.self_times(step_name))
    self_steps = tracer.self_times("simcore.sim_step")
    return {
        "raytrace.trace_paths.calls": calls("raytrace.trace_paths"),
        "raytrace.trace_paths.ms_p50": ms("raytrace.trace_paths", 0.5),
        "raytrace.trace_paths.ms_p90": ms("raytrace.trace_paths", 0.9),
        "raytrace.trace_paths.busy_s": busy("raytrace.trace_paths"),
        "raytrace.paths_per_trace": paths_per_trace,
        "raytrace.candidates_per_trace_computed": candidates,
        "raytrace.path_yield": paths_per_trace / candidates,
        "channel.beamformed_gains.calls": calls("channel.beamformed_gains"),
        "channel.beamformed_gains.ms_p50": ms("channel.beamformed_gains", 0.5),
        "channel.beamformed_gains.ms_p90": ms("channel.beamformed_gains", 0.9),
        "channel.beamformed_gains.busy_s": busy("channel.beamformed_gains"),
        "channel.beamformed_gains.cmac_computed":
            tracer.counts["channel.cmac"] / gains_calls if gains_calls else 0.0,
        "channel.synthesize_channel.busy_s": busy("channel.synthesize_channel"),
        "channel.mrt_beamformer.busy_s": busy("channel.mrt_beamformer"),
        "localization.build_fingerprint_db.s": per_call_s("localization.build_fingerprint_db"),
        "localization.compute_mdp.busy_s": busy("localization.compute_mdp"),
        "localization.save_db.s": per_call_s("localization.save_db"),
        "localization.load_db.s": per_call_s("localization.load_db"),
        "localization.localize.calls": calls("localization.localize"),
        "localization.localize.ms_p50": ms("localization.localize", 0.5),
        "localization.add_fingerprint_noise.busy_s": busy("localization.add_fingerprint_noise"),
        "localization.mdp_overflow": tracer.counts["localization.mdp_overflow"] / ops,
        "simcore.sim_step.self_ms_p50": statistics.median(self_steps) * 1e3 if self_steps else 0.0,
        "simcore.Bus.publish.calls": calls("simcore.Bus.publish"),
        "simcore.Bus.publish.busy_s": busy("simcore.Bus.publish"),
        "simcore.TraceWriter.write_record.busy_s": busy("simcore.TraceWriter.write_record"),
        "simcore.validate_scenario.s": per_call_s("simcore.validate_scenario"),
        "simcore.init_world.s": per_call_s("simcore.init_world"),
        "agent.step_state.busy_s": busy("agent.step_state"),
        "agent.observe.busy_s": busy("agent.observe"),
        "agent.waypoint_control.busy_s": busy("agent.waypoint_control"),
        "scene.load_scene.s": per_call_s("scene.load_scene"),
        "scene.floor_grid.s": per_call_s("scene.floor_grid"),
        "network.busy_s": busy("network.build_network", "network.allocate_resources"),
        "trace.coverage": 1.0 - step_self / step_total,
        "trace.overhead_pct": overhead_pct,
    }


def expected_calls(workload: Workload, results: list) -> Counter:
    """Call counts the workload implies; a mismatch means a span was lost or renamed."""
    want = Counter()
    for r in results:
        if workload.runs_loop:
            links = 2   # ap1 -> robot and ap2 -> robot, on disjoint subcarriers
            want.update({
                "simcore.sim_step": r.steps,
                "raytrace.trace_paths": workload.traces_per_step * r.steps,
                "channel.beamformed_gains": links * r.steps,
                "localization.localize": r.steps,
                "agent.waypoint_control": r.steps,
                "simcore.TraceWriter.write_record": r.steps,
                "simcore.init_world": 1,
                "localization.load_db": 1,
                "localization.build_fingerprint_db": 0,
            })
        else:
            want.update({
                "raytrace.trace_paths": r.fingerprints,
                "localization.compute_mdp": r.fingerprints,
                "localization.build_fingerprint_db": 1,
                "localization.save_db": 1,
                "channel.beamformed_gains": 0,
                "channel.synthesize_channel": 0,
                "channel.mrt_beamformer": 0,
                "simcore.sim_step": 0,
            })
    return want


def self_check(workload: Workload, tracer, results: list) -> list:
    problems = []
    for name, n in sorted(expected_calls(workload, results).items()):
        got = tracer.calls(name)
        if got != n:
            problems.append(f"self-check: {name} called {got} times, workload implies {n}")
    if not workload.runs_loop:
        want = _reference_db()["bins"].shape
        if any(r.fingerprints != want[0] * want[1] for r in results):
            problems.append(f"self-check: database fingerprints != {want[0] * want[1]}")
    return problems


# ---------------------------------------------------------------------------
# context and output

def context() -> dict:
    import numpy
    try:
        # the ceiling keeps git from finding a repository above a checkout that has none
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
    }


def result_line(correct: bool, attempted: int, failed: int, values: dict, table: dict) -> str:
    metrics = {k: {"value": values[k], "unit": table[k][0]} for k in table}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def result_problems(doc, table: dict) -> list:
    """How a parsed result line breaks the output schema; empty when it holds."""
    if not isinstance(doc, dict) or set(doc) != {"correct", "attempted", "failed", "metrics"}:
        return ["result keys must be exactly correct, attempted, failed, metrics"]
    problems = []
    if not isinstance(doc["correct"], bool):
        problems.append("correct must be a boolean")
    for key, least in (("attempted", 1), ("failed", 0)):
        if not isinstance(doc[key], int) or isinstance(doc[key], bool) or doc[key] < least:
            problems.append(f"{key} must be a whole number >= {least}")
    metrics = doc["metrics"] if isinstance(doc["metrics"], dict) else {}
    for name, (unit, _) in table.items():
        m = metrics.get(name)
        if not isinstance(m, dict) or set(m) != {"value", "unit"} or m["unit"] != unit \
                or not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"metric {name} missing or malformed: {m}")
    problems += [f"unexpected metric {name}" for name in metrics if name not in table]
    return problems


def print_table(values: dict, table: dict):
    for name, (unit, better) in table.items():
        print(f"  {name:44s} {values[name]:>14.6g} {unit:7s} ({better} is better)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    prog = import_program()
    simcore, _, scene_mod, _ = prog
    from speedprobe import SpeedProbe
    from spans import StepClock, Tracer

    out = build_dir()
    (out / "tmp").mkdir(parents=True, exist_ok=True)
    tmp_root = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=out / "tmp"))
    try:
        doc = scenario_doc(workload, args.seed)
        scenario_path = write_scenario(tmp_root / "scenario", doc)
        if workload.runs_loop:
            db_target = scenario_path.parent / doc["db"]["path"]
            db_target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(cached_db(simcore, tmp_root), db_target)
        config = simcore.ScenarioConfig.from_file(scenario_path)
        print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        print("context " + json.dumps(context(), sort_keys=True))

        probe = SpeedProbe()
        clock = StepClock(*workload.step_fn, after=probe.after_step)
        if not args.trace:
            setups = timed_setups(workload, scenario_path, simcore, scene_mod, probe)
            (results,), attempted, failed = run_ops(workload, scenario_path, args.seed,
                                                    args.seconds, prog, probe, [lambda: clock])
        else:
            tracer = Tracer(measure=probe.scaled)
            traced_clock = StepClock(*workload.step_fn, after=probe.after_step)
            (results, traced), attempted, failed = run_ops(
                workload, scenario_path, args.seed, args.seconds, prog, probe,
                [lambda: clock, lambda: traced_op(tracer, traced_clock)])
        problems = []
        if not results:
            print("no op completed", file=sys.stderr)
            values, table = {}, {}
        elif not args.trace:
            values, table = end_to_end(workload, setups, results, clock, probe), END_TO_END
            facts = run_facts(workload, setups, results, clock, probe, config)
            print("facts (not gated):")
            print_table(facts, {k: FACTS[k] for k in facts})
            print("facts " + json.dumps(facts))
        else:
            untraced = results
            results = untraced + traced
            problems = self_check(workload, tracer, traced) if traced else ["no traced op completed"]
            for p in problems:
                print(p, file=sys.stderr)
            surfaces = sum(1 for s in scene_mod.load_scene(config.scene_path).surfaces
                           if s.unit_normal is not None)
            candidates = candidate_sequences(surfaces, config.max_order)
            if traced:
                untraced_p50, traced_p50 = (
                    statistics.median(step_samples_ms(workload, res, c, probe.scaled))
                    for res, c in ((untraced, clock), (traced, traced_clock)))
                overhead_pct = (traced_p50 / untraced_p50 - 1.0) * 100.0
                values = per_layer(workload, tracer, traced, overhead_pct, candidates)
                table = PER_LAYER
                spans_csv = out / f"spans-{workload.name}-seed{args.seed}.csv"
                tracer.write_csv(spans_csv)
                print(f"spans: {len(tracer.spans)} written to {spans_csv}")
                print("wrappers installed at " + json.dumps(tracer.installed, sort_keys=True))
            else:
                values, table = {}, {}
        correct = bool(results) and failed == 0 and not problems and bool(table)
        if table:
            print("metrics:")
            print_table(values, table)
            print(result_line(correct, attempted, failed, values, table))
        return 0 if correct else 1
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
