"""Smoke tests for the experiment scripts in scripts/, run as a user runs them."""

import csv
import io
import json
import subprocess
import sys
from pathlib import Path

from conftest import TINY_SCENE, tiny_scenario_doc

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args, cwd=None):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args], capture_output=True,
                          text=True, timeout=300, cwd=cwd)


def test_rate_vs_distance_table():
    done = run_script("rate_vs_distance.py", "--points", "4")
    assert done.returncode == 0, done.stderr
    rows = list(csv.DictReader(io.StringIO(done.stdout)))
    assert list(rows[0]) == ["distance_m", "rate_1ant_bps_hz", "rate_32ant_bps_hz"]
    assert len(rows) == 4
    one = [float(r["rate_1ant_bps_hz"]) for r in rows]
    many = [float(r["rate_32ant_bps_hz"]) for r in rows]
    # the terminals close in from 8 m to 1 m
    assert all(a < b for a, b in zip(one, one[1:]))
    assert all(a < b for a, b in zip(many, many[1:]))
    assert all(m > o for m, o in zip(many, one))


def test_run_case_study_on_a_tiny_scenario(tmp_path):
    (tmp_path / "tiny.scene.json").write_text(json.dumps(TINY_SCENE))
    scenario = tmp_path / "tiny.json"
    scenario.write_text(json.dumps(tiny_scenario_doc()))
    done = run_script("run_case_study.py", "--scenario", str(scenario), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert "building fingerprint database" in done.stdout
    assert (tmp_path / "artifacts" / "tiny_trace.csv").is_file()


def test_bench_record_writes_a_bench_file(tmp_path):
    # the shortest recording: one round of each workload at one op, no Tier-1 wall (about 8 s, most of
    # it the benchmark's six processes and the ten timed CLI processes)
    out = tmp_path / "BENCH_0.json"
    done = run_script("bench_record.py", "--pr", "0", "--out", str(out), "--seconds", "0", "--rounds", "1",
                      "--no-tier1")
    assert done.returncode == 0, done.stderr
    bench = json.loads(out.read_text())
    assert set(bench) == {"pr", "context", "correct", "attempted", "failed", "rounds", "seconds", "end_to_end",
                          "per_layer", "cli_wall_s", "tier1_wall_s", "ratio_to_earliest"}
    assert bench["correct"] is True and bench["failed"] == 0 and bench["pr"] == 0
    assert {"git_sha", "source_sha256", "numpy", "thread_pins"} <= set(bench["context"])
    for workload in ("build_db", "run_clean", "run_degraded"):
        for metric in ("setup_s", "op_s", "step_ms_p50", "step_ms_p90", "peak_rss_mb"):
            assert bench["end_to_end"][f"{workload}.{metric}"]["value"] > 0
    assert bench["per_layer"]["build_db.raytrace.trace_paths.calls"]["value"] == 390
    for command in ("build-db", "run"):
        walls = bench["cli_wall_s"][command]
        assert len(walls["runs"]) == 5 and walls["median"] == sorted(walls["runs"])[2]
    assert bench["tier1_wall_s"] is None
    # each gated metric over the earliest BENCH file at the repo root, the trajectory's first point
    root = SCRIPTS.parent
    earliest = min(root.glob("BENCH_*.json"), key=lambda p: int(p.stem.removeprefix("BENCH_")))
    base = json.loads(earliest.read_text())["end_to_end"]
    ratio = bench["ratio_to_earliest"]
    assert ratio["file"] == earliest.name and set(ratio["ratios"]) == set(bench["end_to_end"]) == set(base)
    for name, value in ratio["ratios"].items():
        assert value == bench["end_to_end"][name]["value"] / base[name]["value"] > 0
