import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import isactwin
from conftest import TINY_SCENE, repo_scenario_dir, rewrite_db_header, tiny_scenario_doc
from isactwin import localization, raytrace
from isactwin.cli import _BLAS_THREADS, main
from isactwin.localization import compute_mdp, load_db, save_db
from isactwin.raytrace import Pose, trace_paths
from isactwin.scene import load_scene
from isactwin.simcore import ScenarioConfig, build_db_for_scenario, read_trace_csv, run_simulation


@pytest.fixture
def scenario(tiny_scenario):
    return str(tiny_scenario)


class TestValidate:
    def test_ok(self, scenario, capsys):
        assert main(["validate", scenario]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_invalid_scenario(self, tmp_path, capsys):
        section_not_an_object = tiny_scenario_doc()
        section_not_an_object["noise"] = []
        for doc in ({"nope": 1}, section_not_an_object):
            p = tmp_path / "bad.json"
            p.write_text(json.dumps(doc))
            assert main(["validate", str(p)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:")
            assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("edit,message", [
        (lambda header: {**header, "n_points": 0}, "<db>: corrupt header: has 0 at .n_points, which must be >= 1"),
        (lambda header: {**header, "scene_hash": ""}, "database <db> was built for a different scene"),
        (lambda header: {**header, "network_hash": ""}, "database <db> was built for a different network setup"),
    ], ids=["zero-points", "scene-stamp", "network-stamp"])
    def test_path_only_database_that_run_refuses_is_one_error_line(self, scenario, tiny_scenario, capsys,
                                                                   edit, message):
        # a scenario without db.build runs on its file, so validate opens it as run's set-up would
        assert main(["build-db", scenario]) == 0
        doc = json.loads(tiny_scenario.read_text())
        del doc["db"]["build"]
        tiny_scenario.write_text(json.dumps(doc))
        db_path = tiny_scenario.parent / "artifacts" / "tiny.fpdb"
        rewrite_db_header(db_path, edit)
        capsys.readouterr()
        for command in ("validate", "run"):
            assert main([command, scenario]) == 1
            assert capsys.readouterr().err == f"error: {message.replace('<db>', str(db_path))}\n"

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "gone.json")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("name", ["scene", "scenario"])
    def test_document_that_is_not_utf8_is_one_error_line(self, tiny_scenario, capsys, name):
        # the bare codec message named neither the document nor its file
        target = tiny_scenario.parent / "tiny.scene.json" if name == "scene" else tiny_scenario
        target.write_bytes(b'{"bounds": "\xd3"}')
        assert main(["validate", str(tiny_scenario)]) == 1
        where = "scene invalid: " if name == "scene" else ""
        assert capsys.readouterr().err == (f"error: {where}{name} document is not valid UTF-8: "
                                           f"byte 0xd3 at offset 12 of {target}\n")

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["network"]["resources"]["users"][0].update(subcarriers={"from": 1, "to": 10**9}),
         "resources user 'ap1': subcarriers 1..1000000000 gives 1000000000 entries"),
        (lambda d: (d["network"]["resources"]["users"][1].pop("symbols"), d["ofdm"].update(n_symbols=10**12)),
         "resources user 'ap2': symbols left out, all of 1..1000000000000, gives 1000000000000 entries"),
        (lambda d: d["agents"][0]["path"]["circle"].update(waypoints=10**12),
         "agent 'robot': path.circle.waypoints gives 1000000000000 entries"),
        (lambda d: d["raytrace"].update(max_order=12),
         "raytrace.max_order 12 over the scene's 6 planar surfaces gives a candidate table of "
         "(6 + 1) ** 12 = 1.38e+10 entries"),
        (lambda d: d["network"]["nodes"][0]["array"].update(elements=2**31),
         "node 'ap1': array.elements gives 2147483648 entries"),
        (lambda d: d["db"]["build"].update(num_bins=2**31), "db.build.num_bins gives 2147483648 entries"),
    ], ids=["subcarrier-range", "left-out-symbols", "circle-waypoints", "max-order", "array-elements",
            "profile-bins"])
    def test_a_count_too_large_to_build_is_one_error_line(self, tmp_path, capsys, monkeypatch, edit, message):
        # each array is counted before it is built: on the shipped scenario these asked for up to
        # terabytes (the order-12 plan's index table alone 1.21 TiB) and ended in a MemoryError
        plans = []
        monkeypatch.setattr(raytrace, "_plan_for", lambda *args: plans.append(args))
        path = shipped_copy(tmp_path, edit)
        for command in ("validate", "build-db"):
            assert main([command, path]) == 1
            out, err = capsys.readouterr()
            assert out == "" and err == f"error: {message}; at most 1000000 are allowed\n"
        assert plans == []
        assert main(["validate", shipped_copy(tmp_path, lambda d: None)]) == 0
        assert plans == []   # validate builds no plan, of the shipped order 3 either


    @pytest.mark.parametrize("snr_db", [3090.0, -4000.0])
    def test_fingerprint_snr_that_run_cannot_use_is_one_error_line(self, tmp_path, capsys, snr_db):
        # validate used to print ok here; run then died in the observation phase, at 3090 dB with
        # an OverflowError traceback
        path = shipped_copy(tmp_path, lambda d: d["noise"].update(fingerprint_snr_db=snr_db))
        for command in ("validate", "run"):
            assert main([command, path]) == 1
            out, err = capsys.readouterr()
            assert out == "" and err == (f"error: noise.fingerprint_snr_db: an SNR of {snr_db} dB gives a "
                                         "linear power 10 ** (x / 10) out of float range\n")


def shipped_copy(tmp_path, edit) -> str:
    """The path of a copy of the shipped scenario and scene in tmp_path, the scenario edited in place
    by edit(doc)."""
    for name in ("desk_two_ap.json", "desk_box.scene.json"):
        shutil.copy(repo_scenario_dir() / name, tmp_path / name)
    path = tmp_path / "desk_two_ap.json"
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return str(path)


class TestBuildDb:
    def test_builds_database(self, scenario, tmp_path, capsys):
        out = tmp_path / "db.fpdb"
        assert main(["build-db", scenario, "--out", str(out)]) == 0
        assert out.is_file()
        assert "fingerprint database" in capsys.readouterr().out

    def test_default_path(self, scenario, tiny_scenario, capsys):
        assert main(["build-db", scenario]) == 0
        assert (tiny_scenario.parent / "artifacts" / "tiny.fpdb").is_file()
        assert "warning" not in capsys.readouterr().err

    def test_paths_past_the_bin_window_are_reported(self, tmp_path, capsys):
        doc = tiny_scenario_doc()
        doc["db"]["build"]["num_bins"] = 4       # a 4 ns window: ~1.2 m of path
        (tmp_path / "tiny.scene.json").write_text(json.dumps(TINY_SCENE))
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert main(["build-db", str(path)]) == 0
        err = capsys.readouterr().err
        match = re.search(r"warning: (\d+) traced paths .* 4 x 1 ns = 4 ns bin window", err)
        assert match, err

        config = ScenarioConfig.from_file(path)
        scene, db = load_scene(config.scene_path), load_db(config.db.path)
        aps = {n.id: n.pose for n in config.nodes if n.pose is not None}
        dropped = sum(
            compute_mdp(trace_paths(scene, aps[ap], Pose(position=point),
                                    max_order=config.max_order,
                                    carrier_freq=config.ofdm.carrier_freq),
                        db.bin_width, db.num_bins).overflow
            for point in db.positions for ap in db.ap_ids
        )
        assert dropped > 0
        assert int(match.group(1)) == dropped

    @pytest.mark.parametrize("command, key, edit", [
        ("build-db", "db.path", lambda doc: doc["db"].update(path="s.json")),
        ("run", "output.trace_csv", lambda doc: doc["output"].update(trace_csv="s.json")),
        ("build-db", "db.path", None),
        ("run", "output.trace_csv", None),
    ], ids=["db-path", "trace-csv", "build-db-out", "run-out"])
    def test_a_path_naming_the_scenario_file_is_one_error_line(self, tmp_path, capsys, command, key, edit):
        # build-db wrote the database over its own scenario and exited 0; the next validate could not decode it.
        # Without an edit the path is the command's --out, a link to the scenario file
        doc = tiny_scenario_doc()
        if edit is not None:
            edit(doc)
        (tmp_path / "tiny.scene.json").write_text(json.dumps(TINY_SCENE))
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        before = path.read_bytes()
        named = path
        if edit is None:
            named = tmp_path / "link.json"
            named.symlink_to(path)
        calls = ([["validate", str(path)], [command, str(path)]] if edit is not None
                 else [[command, str(path), "--out", str(named)]])
        for argv in calls:
            assert main(argv) == 1
            assert capsys.readouterr().err == (f"error: {key} names the scenario file itself, which build-db "
                                               f"or run would overwrite: {named}\n")
        assert path.read_bytes() == before
        assert not (tmp_path / "artifacts").exists()

    def test_scenario_without_build_instructions_is_one_error_line(self, scenario, tiny_scenario, capsys):
        # a path-only scenario runs on its database file, but build-db has nothing to build it from
        assert main(["build-db", scenario]) == 0
        doc = json.loads(tiny_scenario.read_text())
        del doc["db"]["build"]
        tiny_scenario.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["validate", scenario]) == 0
        assert main(["build-db", scenario]) == 1
        assert capsys.readouterr().err == "error: scenario has no db.build instructions\n"

    def test_carrier_without_a_finite_wavelength_is_one_error_line(self, tmp_path, capsys):
        # 299792458 / 1e-300 overflows to an infinite wavelength, which once gave NaN bins
        doc = tiny_scenario_doc()
        doc["ofdm"]["carrier_hz"] = 1e-300
        (tmp_path / "tiny.scene.json").write_text(json.dumps(TINY_SCENE))
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        for command in ("validate", "build-db"):
            assert main([command, str(path)]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert re.fullmatch(r"error: .*carrier_freq 1e-300 Hz gives a wavelength of inf m; "
                                r"it must be finite and > 0\n", err)
        assert not (tmp_path / "artifacts" / "tiny.fpdb").exists()

    def test_non_finite_bins_are_one_error_line(self, tiny_scenario, capsys, monkeypatch):
        # whatever makes a profile non-finite, the database is not written
        calls = []
        compute = localization.compute_mdp

        def poisoned(*args):
            calls.append(1)
            mdp = compute(*args)
            if len(calls) == 4:           # grid point 1 from the second AP
                mdp.bins[2] = float("nan")
            return mdp

        monkeypatch.setattr(localization, "compute_mdp", poisoned)
        assert main(["build-db", str(tiny_scenario)]) == 1
        out, err = capsys.readouterr()
        config = ScenarioConfig.from_file(tiny_scenario)
        point = build_db_for_scenario(dataclasses.replace(
            config, db=dataclasses.replace(config.db, path=None)))[0].positions[1]
        assert out == ""
        assert err == (f"error: {config.db.path}: not written: the bins of grid point "
                       f"{tuple(point.tolist())} from AP 'ap_b' are not finite\n")
        assert not config.db.path.exists()


class TestRun:
    def test_run_writes_trace_and_summary(self, scenario, tiny_scenario, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        assert main(["run", scenario, "--out", str(out)]) == 0
        assert out.is_file()
        text = capsys.readouterr().out
        assert "max pos error" in text

    def test_max_steps_override(self, scenario, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["run", scenario, "--max-steps", "3", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 4  # header + 3 rows

    def test_seed_override_changes_nothing_when_noiseless(self, scenario, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", scenario, "--seed", "1", "--max-steps", "5", "--out", str(a)]) == 0
        assert main(["run", scenario, "--seed", "2", "--max-steps", "5", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_negative_seed_override_is_one_error_line(self, scenario, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main(["run", scenario, "--seed", "-1", "--max-steps", "2", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: sim.seed must be a non-negative integer, got -1\n"
        assert not out.exists()

    def test_overrides_run_a_replaced_config(self, tmp_path):
        # noisy, so that the seed shows in the trace
        doc = tiny_scenario_doc()
        doc["noise"].update(state_var=1e-4, fingerprint_snr_db=25.0)
        (tmp_path / "tiny.scene.json").write_text(json.dumps(TINY_SCENE))
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "cli.csv"
        assert main(["run", str(path), "--seed", "7", "--max-steps", "3", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 4  # header + 3 rows
        config, api = ScenarioConfig.from_file(path), tmp_path / "api.csv"
        run_simulation(dataclasses.replace(config, seed=7, max_steps=3), trace_path=api)
        assert out.read_bytes() == api.read_bytes()
        run_simulation(dataclasses.replace(config, max_steps=3), trace_path=api)   # the file's seed, 3
        assert out.read_bytes() != api.read_bytes()

    @pytest.mark.parametrize("command,key", [
        (["build-db"], "db.path"),
        (["run", "--max-steps", "2"], "output.trace_csv"),
    ], ids=["build-db", "run"])
    def test_out_directory_is_refused_before_any_work(self, scenario, tiny_scenario, tmp_path, capsys,
                                                       command, key):
        # --out replaces the config's path, so validation's directory check refuses it before set-up
        outdir = tmp_path / "outdir"
        outdir.mkdir()
        assert main([command[0], scenario, *command[1:], "--out", str(outdir)]) == 1
        assert capsys.readouterr().err == f"error: {key} names a directory, not a file: {outdir}\n"
        assert not (tiny_scenario.parent / "artifacts").exists()
        assert not any(outdir.iterdir())

    def test_failing_step_is_one_error_line(self, tmp_path, capsys):
        # ap_b sits exactly where the robot starts, so step 0 cannot trace that
        # link; the ROI keeps the database grid clear of it
        doc = tiny_scenario_doc()
        doc["network"]["nodes"][1]["pose"]["position"] = [0.7, 0.5, 0.1]
        doc["db"]["build"]["roi_m"] = [0.3, 0.25, 0.6, 0.75]
        (tmp_path / "tiny.scene.json").write_text(json.dumps(TINY_SCENE))
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 0
        capsys.readouterr()
        assert main(["run", str(path), "--out", str(tmp_path / "t.csv")]) == 1
        err = capsys.readouterr().err
        assert err == "error: step 0 raytrace phase failed: coincident endpoints\n"

    def test_stale_database_is_refused_before_a_trace_is_written(self, scenario, tiny_scenario, capsys):
        # the stored grid is no longer the one db.build gives
        assert main(["build-db", scenario]) == 0
        doc = json.loads(tiny_scenario.read_text())
        doc["db"]["build"]["roi_m"][0] = 0.2
        tiny_scenario.write_text(json.dumps(doc))
        capsys.readouterr()
        trace = tiny_scenario.parent / "t.csv"
        assert main(["run", scenario, "--max-steps", "2", "--out", str(trace)]) == 1
        assert capsys.readouterr().err == (f"error: database {tiny_scenario.parent / 'artifacts' / 'tiny.fpdb'} "
                                           "was built with different db.build settings (spacing, bins, ROI "
                                           "or height); rebuild it\n")
        assert not trace.exists()

    def test_a_scene_with_an_occluder_builds_and_runs(self, tmp_path, capsys):
        # a free-standing panel is not a wall, so every trace runs the occlusion pass, which no
        # benchmark workload does; build-db writes the scenario's database and run loads it
        scene = json.loads(json.dumps(TINY_SCENE))
        scene["surfaces"].append({"vertices": [[1.0, 0.3, 0.05], [1.0, 0.5, 0.05], [1.0, 0.5, 0.45],
                                               [1.0, 0.3, 0.45]], "material": "metal"})
        assert load_scene(scene).walls.mask.tolist() == [True] * 6 + [False]
        (tmp_path / "tiny.scene.json").write_text(json.dumps(scene))
        path = tmp_path / "s.json"
        path.write_text(json.dumps(tiny_scenario_doc()))
        assert main(["validate", str(path)]) == 0
        assert main(["build-db", str(path)]) == 0
        trace = tmp_path / "t.csv"
        assert main(["run", str(path), "--max-steps", "5", "--out", str(trace)]) == 0
        assert [r.step for r in read_trace_csv(trace)] == list(range(5))
        panel_db = load_db(tmp_path / "artifacts" / "tiny.fpdb")
        (tmp_path / "tiny.scene.json").write_text(json.dumps(TINY_SCENE))
        config = ScenarioConfig.from_file(path)
        db, _ = build_db_for_scenario(dataclasses.replace(config, db=dataclasses.replace(config.db, path=None)))
        assert not np.array_equal(panel_db.bins, db.bins)   # the panel reflects and shadows

    def test_mistyped_database_header_is_one_error_line(self, scenario, tiny_scenario, capsys):
        assert main(["build-db", scenario]) == 0
        db_path = tiny_scenario.parent / "artifacts" / "tiny.fpdb"
        rewrite_db_header(db_path, lambda header: {**header, "network_hash": 5})
        capsys.readouterr()
        assert main(["run", scenario, "--max-steps", "2", "--out", str(db_path.parent / "t.csv")]) == 1
        assert capsys.readouterr().err == \
            f"error: {db_path}: corrupt header: has 5 at .network_hash, which must be a string\n"

    def test_unstamped_database_is_one_error_line(self, scenario, tiny_scenario, capsys):
        config = ScenarioConfig.from_file(tiny_scenario)
        db, path = build_db_for_scenario(config)
        save_db(dataclasses.replace(db, scene_hash="", network_hash=""), path)
        assert main(["run", scenario, "--max-steps", "3", "--out", str(path.parent / "t.csv")]) == 1
        assert capsys.readouterr().err == f"error: database {path} was built for a different scene\n"


class TestEval:
    def test_eval_prints_table_and_json(self, scenario, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        main(["run", scenario, "--max-steps", "5", "--out", str(trace)])
        capsys.readouterr()
        assert main(["eval", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "max pos error" in out
        doc = json.loads(out.strip().splitlines()[-1])
        assert "max_pos_err_m" in doc and "mean_rate_bps_hz" in doc

    def test_eval_json_to_file(self, scenario, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        main(["run", scenario, "--max-steps", "5", "--out", str(trace)])
        summary = tmp_path / "summary.json"
        assert main(["eval", str(trace), "--out", str(summary)]) == 0
        doc = json.loads(summary.read_text())
        assert doc["steps"] == 5

    def test_trace_cut_mid_row_is_one_error_line(self, scenario, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        main(["run", scenario, "--max-steps", "5", "--out", str(trace)])
        capsys.readouterr()
        lines = trace.read_bytes().splitlines(keepends=True)
        cut = tmp_path / "cut.csv"
        cut.write_bytes(b"".join(lines[:2]) + lines[2][:20])     # header, step 0, part of step 1
        assert main(["eval", str(cut)]) == 1
        assert capsys.readouterr().err == f"error: {cut}: line 3 is not a whole trace row\n"

    def test_trace_cut_between_rows_still_parses(self, scenario, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        main(["run", scenario, "--max-steps", "5", "--out", str(trace)])
        cut = tmp_path / "cut.csv"
        cut.write_bytes(b"".join(trace.read_bytes().splitlines(keepends=True)[:3]))   # steps 0 and 1
        capsys.readouterr()
        assert main(["eval", str(cut), "--out", str(tmp_path / "summary.json")]) == 0
        assert json.loads((tmp_path / "summary.json").read_text())["steps"] == 2

    def test_trace_with_foreign_columns_is_one_error_line(self, tmp_path, capsys):
        trace = tmp_path / "other.csv"
        trace.write_text("step,time_s,robot,x\n0,0.0,robot,1.0\n")
        assert main(["eval", str(trace)]) == 1
        assert capsys.readouterr().err == f"error: {trace}: unexpected trace columns\n"

    def test_eval_missing_trace(self, tmp_path, capsys):
        assert main(["eval", str(tmp_path / "none.csv")]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestUsage:
    def test_unknown_command_exit_2(self, capsys):
        assert main(["frobnicate"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_no_command_exit_2(self, capsys):
        assert main([]) == 2


def fresh_python(code, *args, **env):
    """Run code with args in a new interpreter that imports isactwin from this checkout, with no
    BLAS thread variable set but those in env; returns its stdout."""
    environ = {name: value for name, value in os.environ.items() if name not in _BLAS_THREADS}
    environ.update(env, PYTHONPATH=str(Path(isactwin.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-c", code, *args], env=environ, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


# validate the scenario argv[1] through the CLI, then print the BLAS thread variables argv[2:]
CLI_THREADS = """
import contextlib, io, json, os, sys
from isactwin.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["validate", sys.argv[1]]) == 0
assert "numpy" in sys.modules
print(json.dumps({name: os.environ.get(name) for name in sys.argv[2:]}))
"""


class TestBlasThreads:
    """The command line runs on one BLAS thread unless the environment names a thread count."""

    def test_importing_the_package_loads_no_numpy(self):
        assert fresh_python("import sys, isactwin; print('numpy' in sys.modules)") == "False\n"

    def test_star_import_gives_every_exported_name(self):
        names = ["Control", "OfdmParams", "TxSignal", "FingerprintDB", "Mdp", "ArrayConfig", "NetworkGraph",
                 "ResourceAllocation", "PathSet", "Pose", "PropagationPath", "Material", "Scene", "Surface",
                 "Bus", "ScenarioConfig", "TraceRecord", "run_simulation", "__version__"]
        namespace = {}
        exec("from isactwin import *", namespace)
        del namespace["__builtins__"]
        assert isactwin.__all__ == names and sorted(namespace) == sorted(names)
        assert namespace["Pose"] is isactwin.raytrace.Pose
        assert namespace["run_simulation"] is isactwin.simcore.run_simulation
        with pytest.raises(AttributeError, match="has no attribute 'Nope'"):
            isactwin.Nope

    def test_a_command_sets_one_thread(self, scenario):
        assert json.loads(fresh_python(CLI_THREADS, scenario, *_BLAS_THREADS)) == dict.fromkeys(_BLAS_THREADS, "1")

    def test_a_thread_count_the_user_set_is_kept(self, scenario):
        assert json.loads(fresh_python(CLI_THREADS, scenario, *_BLAS_THREADS, OMP_NUM_THREADS="3")) == {
            "OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": "3", "MKL_NUM_THREADS": None}

    def test_a_caller_that_loaded_numpy_keeps_its_setting(self, scenario, monkeypatch):
        for name in _BLAS_THREADS:
            monkeypatch.delenv(name, raising=False)
        assert main(["validate", scenario]) == 0
        assert not any(name in os.environ for name in _BLAS_THREADS)
