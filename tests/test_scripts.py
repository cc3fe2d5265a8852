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
