"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import re
import sys

import pytest

import harness
import spans
import speedprobe

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text())

prog = harness.import_program()
simcore = prog[0]


def test_metric_names_match_the_allowed_pattern():
    for table in (harness.END_TO_END, harness.PER_LAYER, harness.FACTS):
        for name, (unit, better) in table.items():
            assert NAME.fullmatch(name) and len(name) <= 64, name
            assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit
            assert better in ("lower", "higher")


def test_benchmark_json_lists_what_the_harness_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(harness.WORKLOADS)
    for key, table in (("end_to_end", harness.END_TO_END), ("per_layer", harness.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK[key]}
        assert listed == table
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("table", [harness.END_TO_END, harness.PER_LAYER])
def test_result_line_schema(table):
    values = {name: 1.5 for name in table}
    line = harness.result_line(True, 3, 0, values, table)
    doc = json.loads(line)
    assert harness.result_problems(doc, table) == []
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert set(doc["metrics"]) == set(table)


def test_result_problems_catch_a_malformed_result():
    table = harness.END_TO_END
    doc = json.loads(harness.result_line(True, 1, 0, {n: 1.0 for n in table}, table))
    del doc["metrics"]["setup_s"]
    doc["attempted"] = 0
    problems = harness.result_problems(doc, table)
    assert any("setup_s" in p for p in problems) and any("attempted" in p for p in problems)


def test_candidate_sequences_of_the_desk_box():
    assert harness.candidate_sequences(6, 3) == 1 + 6 + 30 + 150 == 187
    assert harness.candidate_sequences(6, 0) == 1


def _isactwin_attributes() -> dict:
    out = {}
    for mod in spans._package_modules("isactwin"):
        for name, value in vars(mod).items():
            out[(mod.__name__, name)] = value
    for cls in (simcore.Bus, simcore.TraceWriter):
        for name, value in vars(cls).items():
            out[(cls.__qualname__, name)] = value
    return out


def test_wrappers_are_installed_at_every_lookup_and_restored():
    before = _isactwin_attributes()
    original = simcore.trace_paths
    with spans.Tracer() as tracer:
        import isactwin.localization as loc
        import isactwin.raytrace as rt
        for holder in (simcore, loc, rt):
            assert holder.trace_paths is not original
        assert tracer.installed["raytrace.trace_paths"] == 3
        assert tracer.installed["channel.beamformed_gains"] >= 2
    for workload in harness.WORKLOADS.values():
        module, name = workload.step_fn
        with spans.StepClock(module, name):
            assert getattr(sys.modules[module], name) is not before[(module, name)]
    after = _isactwin_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 5.0, 6.0, 0], ["d", 2.0, 3.0, 1]]
    assert tracer.self_times("a") == [6.0]
    assert tracer.self_times("b") == [2.0]


def test_speed_probe_scales_by_the_median_of_nearby_probes():
    probe = speedprobe.SpeedProbe()
    # eight probes 10 s apart: 1 s each, but one disturbed probe of 9 s, and
    # from the sixth on the machine is twice as slow
    durations = [1.0, 1.0, 9.0, 1.0, 1.0, 2.0, 2.0, 2.0]
    probe.samples = [(10.0 * i, 10.0 * i + d) for i, d in enumerate(durations)]
    ref = speedprobe.REF_S
    assert probe.raw(1.0, 10.0) == pytest.approx(9.0)
    assert probe.scaled(1.0, 10.0) == pytest.approx(9.0 * ref / 1.0)    # probes 0-3
    assert probe.scaled(31.0, 40.0) == pytest.approx(9.0 * ref / 1.5)   # probes 1-6
    assert probe.scaled(62.0, 70.0) == pytest.approx(8.0 * ref / 2.0)   # probes 4-7
    assert probe.raw(21.0, 29.0) == 0.0   # inside a probe
    probe.samples = []
    probe()
    probe.after_step()   # too soon after the last probe: skipped
    assert len(probe.samples) == 1 and probe.durations()[0] > 0


def _small_scenario(tmp_path, workload):
    """The workload's scenario with a 9-point database and 4 steps, to keep the test short."""
    doc = harness.scenario_doc(workload, seed=5)
    doc["db"]["build"]["roi_m"] = [0.4, 0.4, 0.5, 0.5]
    doc["sim"]["max_steps"] = 4
    return harness.write_scenario(tmp_path, doc)


@pytest.mark.parametrize("name", ["run_clean", "run_degraded"])
def test_tracing_does_not_perturb_the_trace_csv(tmp_path, name):
    workload = harness.WORKLOADS[name]
    config = simcore.ScenarioConfig.from_file(_small_scenario(tmp_path, workload))
    records = simcore.run_simulation(config, trace_path=tmp_path / "untraced.csv")
    with spans.Tracer() as tracer:
        simcore.run_simulation(config, trace_path=tmp_path / "traced.csv")
    assert (tmp_path / "traced.csv").read_bytes() == (tmp_path / "untraced.csv").read_bytes()
    steps = len(records)
    assert len(tracer.durations("raytrace.trace_paths")) == workload.traces_per_step * steps
    assert len(tracer.durations("channel.beamformed_gains")) == 2 * steps
    assert sum(tracer.self_times("simcore.sim_step")) < sum(tracer.durations("simcore.sim_step"))


def test_trace_check_accepts_the_reference_and_catches_a_moved_estimate(tmp_path):
    ref = harness.REFERENCES / "run_clean.csv"
    assert harness.check_trace(ref, ref) == []
    lines = ref.read_text().splitlines(keepends=True)
    cols = lines[0].strip().split(",")
    row = lines[5].strip().split(",")
    row[cols.index("est_x")] = repr(float(row[cols.index("est_x")]) + 0.05)
    lines[5] = ",".join(row) + "\n"
    moved = tmp_path / "moved.csv"
    moved.write_text("".join(lines))
    assert any("est_x" in p for p in harness.check_trace(moved, ref))


def test_db_check_allows_last_ulp_drift_only(tmp_path):
    loc = prog[1]
    ref = harness._reference_db()
    db = loc.FingerprintDB(positions=ref["positions"], spacing=0.05, ap_ids=ref["ap_ids"],
                           bins=ref["bins"].copy(), bin_width=ref["bin_width"])
    i = tuple(int(x[0]) for x in (ref["bins"] > 0).nonzero())
    for scale, ok in ((1 + 4e-16, True), (1 + 1e-9, False)):
        db.bins[i] = ref["bins"][i] * scale
        saved = loc.save_db(db, tmp_path / "db.fpdb")
        assert (harness.check_db(db, saved, loc) == []) is ok
