import copy
import dataclasses
import json
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from isactwin import channel, metrics, simcore
from isactwin.cli import main
from isactwin.channel import mrt_beamformer, synthesize_channel
from isactwin.network import ArrayConfig, allocate_resources
from isactwin.localization import DatabaseError, compute_mdp, load_db, localize, save_db
from isactwin.raytrace import Pose, trace_paths
from isactwin.scene import load_scene
from isactwin.simcore import (
    TRACE_BASE_COLUMNS,
    Bus,
    ConfigError,
    ScenarioConfig,
    build_db_for_scenario,
    init_world,
    read_trace_csv,
    run_simulation,
    sim_step,
    validate_scenario,
)
from conftest import repo_scenario_dir, rewrite_db_header, tiny_scenario_doc


class TestBus:
    def test_two_subscribers_both_receive(self):
        bus = Bus()
        s1, s2 = [], []
        bus.subscribe("agent/0/state", s1.append)
        bus.subscribe("agent/0/state", s2.append)
        bus.publish("agent/0/state", "payload", step=3)
        assert s1 == s2 == [simcore.Message("agent/0/state", 3, "payload")]

    def test_no_replay_for_late_subscriber(self):
        bus = Bus()
        bus.publish("t/x", 1, step=0)
        sink = []
        bus.subscribe("t/x", sink.append)
        bus.publish("t/x", 2, step=1)
        assert [m.payload for m in sink] == [2]

    def test_order_preserved(self):
        bus = Bus()
        sink = []
        bus.subscribe("t/*", sink.append)
        for i in range(10):
            bus.publish("t/x", i, step=i)
        assert [(m.step, m.payload) for m in sink] == [(i, i) for i in range(10)]

    def test_wildcard_patterns(self):
        bus = Bus()
        sink = []
        bus.subscribe("agent/*/state", sink.append)
        bus.publish("agent/7/state", "yes", step=0)
        bus.publish("agent/7/control", "no", step=0)
        assert [m.payload for m in sink] == ["yes"]

    @pytest.mark.parametrize("pattern", ["", "has space", "tab\there"], ids=["empty", "space", "tab"])
    def test_malformed_topic_rejected(self, pattern):
        # at subscribe only: sim_step's topics are built from node ids that validate_scenario checks
        with pytest.raises(ValueError, match="malformed topic pattern"):
            Bus().subscribe(pattern, [].append)


def _agent_is_the_only_transmitter(doc, scene):
    network = doc["network"]
    network["nodes"] = [{**network["nodes"][2], "role": "txrx"}]
    network["edges"], network["resources"]["users"] = [], []


class TestScenarioConfig:
    def test_parse_tiny_scenario(self, tiny_scenario):
        config = ScenarioConfig.from_file(tiny_scenario)
        assert config.ofdm.n_subcarriers == 32
        assert config.dt == 0.1
        assert len(config.agents) == 1
        assert config.agents[0].waypoints.shape == (2, 2)
        assert validate_scenario(config) == []

    def test_in_place_edits_are_refused(self, tiny_scenario):
        # a parsed scenario is a value, like a Scene: a changed one is built with dataclasses.replace
        config = ScenarioConfig.from_file(tiny_scenario)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.seed = 7
        with pytest.raises(TypeError):
            config.nodes[0] = config.nodes[1]
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.nodes[0].array = ArrayConfig(2, 0.0625)
        with pytest.raises(AttributeError):
            config.requests.append(config.requests[0])
        with pytest.raises(ValueError, match="read-only"):
            config.agents[0].waypoints[0, 0] = 0.9
        with pytest.raises(TypeError):
            config.agents[0].gains["v_max"] = 5.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.noise.state_var = 1e-4

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            ScenarioConfig.from_file(tmp_path / "nope.json")

    def test_malformed_document(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"scene": "x"}))
        with pytest.raises(ConfigError, match=r"^scenario document is missing \.network$"):
            ScenarioConfig.from_file(p)
        # a section that is not a JSON object is malformed too, not an AttributeError
        for section, value in [("noise", []), ("raytrace", 3), ("db", "x"), ("output", ["a"]),
                               ("controller", [1]), ("resources", [])]:
            doc = tiny_scenario_doc()
            owner = {"controller": doc["agents"][0], "resources": doc["network"]}.get(section, doc)
            owner[section] = value
            where = {"controller": ".agents[0].controller",
                     "resources": ".network.resources"}.get(section, f".{section}")
            with pytest.raises(ConfigError, match=f" at {re.escape(where)}, which must be an object$"):
                ScenarioConfig.from_dict(doc)

    def test_validation_catches_bad_settings(self, tmp_path):
        # the first value of one field that breaks its rule is refused when the document is read;
        # validate_scenario lists the rules of several fields
        doc = tiny_scenario_doc()
        doc["sim"]["max_steps"] = 0
        doc["sim"]["dt_s"] = -0.1
        doc["agents"][0]["id"] = "ghost"
        (tmp_path / "tiny.scene.json").write_text(json.dumps(_tiny_scene()))
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=r"^scenario document has -0\.1 at \.sim\.dt_s, which must be > 0$"):
            ScenarioConfig.from_file(p)
        doc["sim"].update(max_steps=1, dt_s=0.1)
        p.write_text(json.dumps(doc))
        problems = validate_scenario(ScenarioConfig.from_file(p))
        assert "agent 'ghost' has no matching network node" in problems

    def test_agent_id_with_underscore_rejected(self, tmp_path):
        # rate_<agent>_<tx> columns split at the first "_": robot_1 + ap_a would
        # read back as ("robot", "1_ap_a")
        doc = json.loads(json.dumps(tiny_scenario_doc()).replace('"robot"', '"robot_1"'))
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as refused:
            ScenarioConfig.from_file(p)
        assert str(refused.value) == ("scenario document has 'robot_1' at .agents[0].id, "
                                      "which must be a string without '_'")

    @pytest.mark.parametrize("old,new", [
        ("robot", "r b"),
        ("robot", "r\tb"),
        ("robot", "r?"),
        ("ap_a", "ap/a"),
        ("ap_a", "ap*"),
        ("ap_b", "ap[b]"),
    ], ids=["space", "tab", "question-mark", "slash", "star", "bracket"])
    def test_node_id_that_cannot_be_a_topic_segment_rejected(self, tmp_path, old, new):
        # node ids become bus topic segments: agent/<id>/state, sim/channel/<v>/<q>
        doc = json.loads(json.dumps(tiny_scenario_doc()).replace(json.dumps(old), json.dumps(new)))
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as refused:
            ScenarioConfig.from_file(p)
        node = [nd["id"] for nd in doc["network"]["nodes"]].index(new)
        assert str(refused.value) == (f"scenario document has {new!r} at .network.nodes[{node}].id, "
                                      "which must be a string without whitespace, '/', '*', '?' or '['")

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc["network"]["nodes"][0].update(role="TX"),
         "scenario document has 'TX' at .network.nodes[0].role, which must be 'tx', 'rx' or 'txrx'"),
        (lambda doc: doc["network"]["nodes"][2].pop("array"),
         "node 'robot' ends a communication link but has no array"),
        (lambda doc: doc["network"]["nodes"][1].pop("pose"),
         "transmitter 'ap_b' has no pose"),
        (lambda doc: doc["network"]["nodes"][1]["pose"].update(position=[1.5, 0.07, 0.6]),
         "transmitter 'ap_b' is outside the scene bounds"),
        (lambda doc: doc["ofdm"].update(carrier_hz=0.0),
         "scenario document has 0.0 at .ofdm.carrier_hz, which must be a frequency whose wavelength c / x is "
         "finite and > 0"),
        (lambda doc: doc["sim"].update(dt_s=float("nan")),
         "scenario document has a non-finite number at .sim.dt_s"),
        (lambda doc: doc["noise"].update(noise_power_w=float("nan")),
         "scenario document has a non-finite number at .noise.noise_power_w"),
        (lambda doc: doc["noise"].update(map_offset_m=[0.05]),
         "scenario document has [0.05] at .noise.map_offset_m, which must be a list of 2 numbers"),
        (lambda doc: doc["agents"][0]["initial_pose"].update(position=[0.7, 0.5]),
         "scenario document has [0.7, 0.5] at .agents[0].initial_pose.position, "
         "which must be a list of 3 numbers"),
        (lambda doc: doc["network"]["nodes"][1]["pose"].update(position=[0.7, 0.5, 0.1, 0.0]),
         "scenario document has [0.7, 0.5, 0.1, 0.0] at .network.nodes[1].pose.position, "
         "which must be a list of 3 numbers"),
        (lambda doc: doc["network"].update(edges=[["ap_a", ["robot"]]]),
         "scenario document has ['robot'] at .network.edges[0][1], which must be a string"),
        (lambda doc: doc["network"].update(edges=[["ap_a", "robot"], ["ap_b", "robot", "x"]]),
         "scenario document has ['ap_b', 'robot', 'x'] at .network.edges[1], "
         "which must be a list of 2 strings"),
        (lambda doc: doc["network"].update(edges=["ap_a"]),
         "scenario document has 'ap_a' at .network.edges[0], which must be a list of 2 strings"),
        (lambda doc: doc["agents"][0].update(path={"circle": {"center": [0.6], "radius": 0.1}}),
         "scenario document has [0.6] at .agents[0].path.circle.center, which must be a list of 2 numbers"),
        (lambda doc: doc["sim"].update(seed=-1), "scenario document has -1 at .sim.seed, which must be >= 0"),
        (lambda doc: doc["sim"].update(seed=1.5),
         "scenario document has 1.5 at .sim.seed, which must be an integer"),
        (lambda doc: doc["sim"].update(seed=True),
         "scenario document has True at .sim.seed, which must be an integer"),
        # validate printed ok for a NUL byte in a file name, which build-db and run refused on opening it
        (lambda doc: doc["db"].update(path="a\0b"),
         "scenario document has 'a\\x00b' at .db.path, which must be a string without a NUL byte"),
        (lambda doc: doc["output"].update(trace_csv="a\0b"),
         "scenario document has 'a\\x00b' at .output.trace_csv, which must be a string without a NUL byte"),
        (lambda doc: doc.update(scene="a\0b"),
         "scenario document has 'a\\x00b' at .scene, which must be a string without a NUL byte"),
        # "" resolves to the scenario's own directory
        (lambda doc: doc["db"].update(path=""), "db.path names a directory, not a file: <dir>"),
        (lambda doc: doc["output"].update(trace_csv=""),
         "output.trace_csv names a directory, not a file: <dir>"),
        # build-db would write the database over the scene, and run the trace over the database
        (lambda doc: doc["db"].update(path="tiny.scene.json"),
         "db.path names the scene file, which build-db or run would overwrite: <dir>/tiny.scene.json"),
        (lambda doc: doc["output"].update(trace_csv="artifacts/tiny.fpdb"),
         "output.trace_csv names the database file, which build-db or run would overwrite: "
         "<dir>/artifacts/tiny.fpdb"),
        # the loop builds links only into agents and reads only transmitters' resources
        (lambda doc: (doc["network"]["nodes"].append({"id": "probe", "role": "rx", "array": {"elements": 2},
                                                      "pose": {"position": [0.3, 0.3, 0.08]}}),
                      doc["network"]["edges"].append(["ap_a", "probe"])),
         "receiver 'probe' is driven by no agent: a run would ignore it"),
        (lambda doc: doc["network"]["resources"]["users"].append({"id": "robot", "power_w": 1.0}),
         "resources user 'robot' is not a transmitter: a run would ignore it"),
        (lambda doc: doc["network"]["resources"]["users"].append({"id": "ghost"}),
         "resources reference unknown node 'ghost'"),
        (lambda doc: doc["noise"].update(noise_power_w=0.0),
         "scenario document has 0.0 at .noise.noise_power_w, which must be > 0"),
        (lambda doc: doc["noise"].update(state_var=-1e-6),
         "scenario document has -1e-06 at .noise.state_var, which must be >= 0"),
        (lambda doc: doc["raytrace"].update(max_order=-1),
         "scenario document has -1 at .raytrace.max_order, which must be >= 0"),
        # 10 ** 309 overflows a float and 10 ** -400 is 0: fingerprint noise has no variance to draw at either
        (lambda doc: doc["noise"].update(fingerprint_snr_db=3090.0),
         "scenario document has 3090.0 at .noise.fingerprint_snr_db, which must be a dB value whose linear "
         "power 10 ** (x / 10) and its inverse are finite"),
        (lambda doc: doc["noise"].update(fingerprint_snr_db=-4000.0),
         "scenario document has -4000.0 at .noise.fingerprint_snr_db, which must be a dB value whose linear "
         "power 10 ** (x / 10) and its inverse are finite"),
        # run wrote inf into both rate columns and exited 0
        (lambda doc: (doc["network"]["resources"]["users"][0].update(power_w=1e300),
                      doc["noise"].update(noise_power_w=1e-300)),
         "transmitter 'ap_a': power_w 1e+300 can give receiver 'robot' an SNR past float range over "
         "noise.noise_power_w 1e-300 (bound: up to 49 paths, 4 transmit and 2 receive elements)"),
        # the spacing is finite, but 2 pi d / lambda is not: an invalid value in cos at the first step
        (lambda doc: doc["network"]["nodes"][0]["array"].update(spacing_wavelengths=1e308),
         "node 'ap_a': array spacing 1e+308 wavelengths gives a steering phase 2 pi d / lambda out of float range"),
        (lambda doc: doc["network"]["edges"].append(["ap_a", "ghost"]),
         "network invalid: edge references unknown node 'ghost'"),
        (lambda doc: (doc.update(agents=[]), doc["network"]["nodes"].pop(2), doc["network"].update(edges=[])),
         "scenario document has [] at .agents, which must be a non-empty list"),
        (lambda doc: doc["agents"][0].update(path=[]),
         "scenario document has [] at .agents[0].path, which must be a non-empty list"),
        # a negative gain or limit turns the command around, and a negative radius reaches no waypoint
        (lambda doc: doc["agents"][0]["controller"].update(k_ang=-2.0),
         "scenario document has -2.0 at .agents[0].controller.k_ang, which must be >= 0"),
        (lambda doc: doc["agents"][0]["controller"].update(v_max=-0.08),
         "scenario document has -0.08 at .agents[0].controller.v_max, which must be >= 0"),
        (lambda doc: doc["agents"][0]["controller"].update(w_max=-1.5),
         "scenario document has -1.5 at .agents[0].controller.w_max, which must be >= 0"),
        (lambda doc: doc["agents"][0]["controller"].update(waypoint_tol_m=-0.06),
         "scenario document has -0.06 at .agents[0].controller.waypoint_tol_m, which must be >= 0"),
        (lambda doc: doc.update(db={}), "db section needs a path or build instructions"),
        (lambda doc: doc["db"].pop("build"),
         "database file not found and no build instructions: <dir>/artifacts/tiny.fpdb"),
    ], ids=["role-case", "link-end-without-array", "transmitter-without-pose",
            "transmitter-outside-bounds", "zero-carrier",
            "nan-dt", "nan-noise-power", "one-number-map-offset", "two-number-position",
            "four-number-node-position", "list-as-edge-end", "three-node-edge", "id-as-edge",
            "one-number-circle-center", "negative-seed", "fractional-seed", "boolean-seed",
            "nul-in-db-path", "nul-in-trace-path", "nul-in-scene-path", "empty-db-path", "empty-trace-path",
            "database-over-the-scene", "trace-over-the-database",
            "receiver-without-agent", "resources-of-a-receiver",
            "resources-of-an-unknown-node", "zero-noise-power", "negative-state-var", "negative-max-order",
            "overflowing-fingerprint-snr", "underflowing-fingerprint-snr", "overflowing-rate-snr",
            "overflowing-steering-phase",
            "edge-to-an-unknown-node", "no-agents", "empty-path", "negative-k-ang", "negative-v-max",
            "negative-w-max", "negative-waypoint-tol", "db-without-path-or-build",
            "missing-database-without-build"])
    def test_scenario_that_would_fail_in_run_rejected(self, tmp_path, capsys, edit, message):
        # validate, build-db and run all set up through validate_scenario
        doc = tiny_scenario_doc()
        edit(doc)
        (tmp_path / "tiny.scene.json").write_text(json.dumps(_tiny_scene()))
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        for argv in (["validate", str(p)], ["build-db", str(p)], ["run", str(p)]):
            assert main(argv) == 1
            assert capsys.readouterr().err == f"error: {message.replace('<dir>', str(tmp_path))}\n"

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc["network"]["nodes"][1]["pose"].update(position=[1.3, 0.5, 0.4]),
         "transmitter 'ap_b' is behind a wall of the scene"),
        (lambda doc: doc["agents"][0]["initial_pose"].update(position=[0.5, -0.2, 0.1]),
         "agent 'robot' starts behind a wall of the scene"),
        # -0.5 + 17 x 0.1 lands 2e-16 m past the wall x = 1.2, and the test has zero tolerance
        (lambda doc: doc["db"]["build"].update(roi_m=[0.3, 0.25, 1.25, 0.75]),
         "db.build grid point (1.2000000000000002, 0.30000000000000004, 0.1) is behind a wall of the scene "
         "(5 of its 50 points are)"),
    ], ids=["transmitter", "agent-start", "db-grid-point"])
    def test_end_behind_a_wall_rejected(self, tmp_path, capsys, edit, message):
        # the scene's bounds reach 0.5 m past its walls, so the bounds check passes each of these;
        # trace_paths would refuse them, so validate, build-db and run do before any work
        scene = _tiny_scene()
        scene["bounds"] = {"min": [-0.5, -0.5, 0.0], "max": [1.7, 1.5, 0.8]}
        (tmp_path / "tiny.scene.json").write_text(json.dumps(scene))
        doc = tiny_scenario_doc()
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        assert validate_scenario(ScenarioConfig.from_file(p)) == []
        edit(doc)
        p.write_text(json.dumps(doc))
        for argv in (["validate", str(p)], ["build-db", str(p)], ["run", str(p)]):
            assert main(argv) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "artifacts").exists()

    def test_pose_on_an_agent_node_rejected(self, tmp_path, capsys):
        # the loop reads the agent's pose, never its node's, so a pose there would be ignored
        doc = tiny_scenario_doc()
        doc["network"]["nodes"][2]["pose"] = {"position": [0.2, 0.2, 0.08]}
        (tmp_path / "tiny.scene.json").write_text(json.dumps(_tiny_scene()))
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        for argv in (["validate", str(p)], ["build-db", str(p)], ["run", str(p)]):
            assert main(argv) == 1
            assert capsys.readouterr().err == \
                "error: node 'robot' is driven by its agent: pose is for static transmitters only\n"
        assert not (tmp_path / "artifacts").exists()

    def test_grid_on_the_walls_is_not_behind_them(self, tmp_path, capsys):
        # without an ROI the 0.1 m grid of the 1.2 m tiny room reaches its wall x = 1.2, where
        # 0.1 * 12 would put 11 points 2e-16 m behind it
        doc = tiny_scenario_doc()
        doc["db"]["build"]["roi_m"] = None
        (tmp_path / "tiny.scene.json").write_text(json.dumps(_tiny_scene()))
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        assert main(["validate", str(p)]) == 0

    @pytest.mark.parametrize("edit,where,value", [
        (lambda doc, v: doc["sim"].update(max_steps=v), ".sim.max_steps", 2.5),
        (lambda doc, v: doc["ofdm"].update(n_symbols=v), ".ofdm.n_symbols", 14.7),
        (lambda doc, v: doc["raytrace"].update(max_order=v), ".raytrace.max_order", True),
        (lambda doc, v: doc["db"]["build"].update(num_bins=v), ".db.build.num_bins", 64.9),
        (lambda doc, v: doc["network"]["nodes"][0]["array"].update(elements=v),
         ".network.nodes[0].array.elements", 32.5),
        (lambda doc, v: doc["agents"][0]["path"]["circle"].update(waypoints=v),
         ".agents[0].path.circle.waypoints", 12.5),
        (lambda doc, v: doc["network"]["resources"]["users"][0]["subcarriers"].update(to=v),
         ".network.resources.users[0].subcarriers.to", 512.5),
        (lambda doc, v: doc["db"]["build"].update(num_bins=v), ".db.build.num_bins", 64.0),
    ], ids=["max-steps", "n-symbols", "max-order", "num-bins", "elements", "waypoints",
            "subcarriers-to", "integral-float"])
    def test_integer_field_is_not_truncated(self, tmp_path, capsys, edit, where, value):
        # int() would read 2.5 as 2 and true as 1; each field is one the shipped scenario sets
        src = repo_scenario_dir()
        doc = json.loads((src / "desk_two_ap.json").read_text())
        edit(doc, value)
        (tmp_path / "desk_box.scene.json").write_text((src / "desk_box.scene.json").read_text())
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        assert main(["validate", str(p)]) == 1
        assert capsys.readouterr().err == \
            f"error: scenario document has {value!r} at {where}, which must be an integer\n"

    @pytest.mark.parametrize("edit,where", [
        (lambda doc: doc.update(nosie={}), ".nosie"),
        (lambda doc: doc["network"].update(node=[]), ".network.node"),
        (lambda doc: doc["network"]["nodes"][0]["array"].update(element=4), ".network.nodes[0].array.element"),
        (lambda doc: doc["network"]["nodes"][1]["pose"].update(yaw=225.0), ".network.nodes[1].pose.yaw"),
        (lambda doc: doc["network"]["nodes"][2].update(roll="rx"), ".network.nodes[2].roll"),
        (lambda doc: doc["network"]["resources"].update(user=[]), ".network.resources.user"),
        (lambda doc: doc["network"]["resources"]["users"][1].update(power=0.5),
         ".network.resources.users[1].power"),
        (lambda doc: doc["network"]["resources"]["users"][0]["symbols"].update(until=4),
         ".network.resources.users[0].symbols.until"),
        (lambda doc: doc["ofdm"].update(carrier=2.4e9), ".ofdm.carrier"),
        (lambda doc: doc["agents"][0].update(controler={}), ".agents[0].controler"),
        (lambda doc: doc["agents"][0]["initial_pose"].update(yaw=180.0), ".agents[0].initial_pose.yaw"),
        (lambda doc: doc["agents"][0].update(path={"circel": {}}), ".agents[0].path.circel"),
        (lambda doc: doc["agents"][0].update(path={"circle": {"center": [0.6, 0.5], "radius_m": 0.1}}),
         ".agents[0].path.circle.radius_m"),
        (lambda doc: doc["agents"][0]["controller"].update(vmax=5.0), ".agents[0].controller.vmax"),
        (lambda doc: doc["noise"].update(fingerprint_snr=20.0), ".noise.fingerprint_snr"),
        # the observation is the fingerprint measurement, whose noise is fingerprint_snr_db
        (lambda doc: doc["noise"].update(obs_var=0.0), ".noise.obs_var"),
        (lambda doc: doc["sim"].update(seeds=4), ".sim.seeds"),
        (lambda doc: doc["raytrace"].update(maxorder=3), ".raytrace.maxorder"),
        (lambda doc: doc["db"].update(file="x.fpdb"), ".db.file"),
        (lambda doc: doc["db"]["build"].update(spacing=0.2), ".db.build.spacing"),
        (lambda doc: doc["output"].update(trace="t.csv"), ".output.trace"),
    ], ids=["top-level", "network", "array", "node-pose", "node", "resources", "user", "index-set",
            "ofdm", "agent", "initial-pose", "path-form", "circle", "controller", "noise", "obs-var", "sim",
            "raytrace", "db", "db-build", "output"])
    def test_unknown_key_rejected(self, tmp_path, capsys, edit, where):
        # a misspelled key would otherwise run with the default it was meant to replace
        doc = tiny_scenario_doc()
        edit(doc)
        (tmp_path / "tiny.scene.json").write_text(json.dumps(_tiny_scene()))
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        assert main(["validate", str(p)]) == 1
        assert capsys.readouterr().err == f"error: scenario document has an unknown key {where}\n"

    @pytest.mark.parametrize("edit,where", [
        (lambda scene: scene["materials"][1].update(coeff=0.6), ".materials[1].coeff"),
        (lambda scene: scene["surfaces"][0].update(materal="metal"), ".surfaces[0].materal"),
        (lambda scene: scene["bounds"].update(mid=[0.6, 0.5, 0.4]), ".bounds.mid"),
        (lambda scene: scene.update(floor=0.0), ".floor"),
        (lambda scene: scene.update(floor_height=0.0), ".floor_height"),   # nothing read it
    ], ids=["material", "surface", "bounds", "top-level", "floor-height"])
    def test_unknown_key_in_the_scene_rejected(self, tmp_path, capsys, edit, where):
        scene = _tiny_scene()
        edit(scene)
        (tmp_path / "tiny.scene.json").write_text(json.dumps(scene))
        p = tmp_path / "s.json"
        p.write_text(json.dumps(tiny_scenario_doc()))
        assert main(["validate", str(p)]) == 1
        assert capsys.readouterr().err == f"error: scene invalid: scene document has an unknown key {where}\n"

    def test_non_finite_number_in_a_dict_rejected(self):
        # json.dumps writes NaN and Infinity, so the file cases above cover the
        # parser; a dict reaches from_dict without one
        doc = tiny_scenario_doc()
        doc["agents"][0]["path"][1][0] = float("-inf")
        with pytest.raises(ConfigError, match=r"at \.agents\[0\]\.path\[1\]\[0\]$"):
            ScenarioConfig.from_dict(doc)

    def test_non_finite_number_in_the_scene_file_is_one_error(self, tmp_path, capsys):
        scene = _tiny_scene()
        scene["bounds"]["max"][2] = float("inf")
        (tmp_path / "tiny.scene.json").write_text(json.dumps(scene))
        p = tmp_path / "s.json"
        p.write_text(json.dumps(tiny_scenario_doc()))
        assert main(["validate", str(p)]) == 1
        assert capsys.readouterr().err == \
            "error: scene invalid: scene document has a non-finite number at .bounds.max[2]\n"

    @pytest.mark.parametrize("settings,message", [
        ({"spacing_m": 0}, "scenario document has 0 at .db.build.spacing_m, which must be > 0"),
        # without an ROI the whole floor lattice is counted, with one the block that spans it
        ({"spacing_m": 1e-7, "roi_m": None}, "db.build.spacing_m 1e-07 gives a floor grid of 1.2e+14 points "
                                             "over the scene bounds; at most 1000000 are allowed"),
        ({"spacing_m": 1e-300, "roi_m": None}, "db.build.spacing_m 1e-300 gives a floor grid of inf points "
                                               "over the scene bounds; at most 1000000 are allowed"),
        ({"spacing_m": 1e-7}, "db.build.spacing_m 1e-07 gives a floor grid of 3.25e+13 points to span "
                              "db.build.roi_m [0.3, 0.25, 0.95, 0.75]; at most 1000000 are allowed"),
        ({"bin_width_s": 0.0}, "scenario document has 0.0 at .db.build.bin_width_s, which must be > 0"),
        ({"num_bins": 0}, "scenario document has 0 at .db.build.num_bins, which must be in 1..1000000"),
        # a bin window shorter than every path: build-db would write an all-zero database
        ({"bin_width_s": 5e-324}, "db.build bin window num_bins x bin_width_s = 48 x 4.94066e-324 s = 2.372e-322 s "
                                  "ends at or before the shortest line-of-sight delay 1.916e-09 s from a static "
                                  "transmitter to a db.build grid point: every fingerprint path would land past it"),
        ({"bin_width_s": 1e-15}, "db.build bin window num_bins x bin_width_s = 48 x 1e-15 s = 4.8e-14 s ends at or "
                                 "before the shortest line-of-sight delay 1.916e-09 s from a static transmitter to "
                                 "a db.build grid point: every fingerprint path would land past it"),
        ({"height_m": 5.0}, "db.build height 5.0 outside the scene's z bounds"),
        ({"roi_m": [5, 5, 6, 6]}, "db.build.roi_m [5.0, 5.0, 6.0, 6.0] holds no point of the floor grid"),
        ({"roi_m": [0.42, 0.42, 0.48, 0.48]},
         "db.build.roi_m [0.42, 0.42, 0.48, 0.48] holds no point of the floor grid"),
        ({"roi_m": [0.1, 0.1, 0.5]},
         "scenario document has [0.1, 0.1, 0.5] at .db.build.roi_m, which must be a list of 4 numbers"),
    ], ids=["zero-spacing", "spacing-1e-7", "spacing-1e-300", "spacing-1e-7-over-the-roi", "zero-bin-width",
            "zero-bins", "bin-window-5e-324", "bin-window-1e-15", "height-above-scene", "roi-off-the-grid", "roi-between-grid-points",
            "roi-of-three-numbers"])
    def test_db_build_settings_that_build_db_refuses_rejected(self, tmp_path, capsys, settings, message):
        doc = tiny_scenario_doc()
        doc["db"]["build"].update(settings)
        (tmp_path / "tiny.scene.json").write_text(json.dumps(_tiny_scene()))
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        for argv in (["validate", str(p)], ["build-db", str(p)],
                     ["run", str(p), "--out", str(tmp_path / "t.csv")]):
            assert main(argv) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "artifacts").exists() and not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("edit,message", [
        # the floor grid is counted before anything is allocated: it would take terabytes, or more
        # points than numpy can index
        (lambda doc, scene: (scene["bounds"]["max"].__setitem__(0, 1e300), doc["db"]["build"].pop("roi_m")),
         "db.build.spacing_m 0.1 gives a floor grid of 1.1e+302 points over the scene bounds; "
         "at most 1000000 are allowed"),
        (_agent_is_the_only_transmitter, "no static transmitter nodes to fingerprint"),
        # its Newell norm overflows, with no warning: the surface gets no plane, and the bounds check reports it
        (lambda doc, scene: scene["surfaces"][0]["vertices"][0].__setitem__(0, 1e300),
         "scene invalid: surface#0: vertices outside scene bounds"),
    ], ids=["bounds-out-to-1e300", "no-static-ap", "vertex-out-at-1e300"])
    def test_scenes_and_networks_that_build_db_refuses_rejected(self, tmp_path, capsys, edit, message):
        doc, scene = tiny_scenario_doc(), _tiny_scene()
        edit(doc, scene)
        (tmp_path / "tiny.scene.json").write_text(json.dumps(scene))
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        for argv in (["validate", str(p)], ["build-db", str(p)],
                     ["run", str(p), "--out", str(tmp_path / "t.csv")]):
            assert main(argv) == 1
            assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("edit,size", [
        # 2 401 x 2 001 lattice points at 0.5 mm, 21 x 21 in the ROI
        (lambda doc, scene: doc["db"]["build"].update(spacing_m=0.0005, roi_m=[0.5, 0.4, 0.51, 0.41]), (21, 21)),
        # about 1e301 lattice points, the 7 x 5 of the tiny ROI
        (lambda doc, scene: scene["bounds"]["max"].__setitem__(0, 1e300), (5, 7)),
    ], ids=["spacing-0.5mm", "bounds-out-to-1e300"])
    def test_a_lattice_past_the_bound_builds_the_roi(self, tmp_path, edit, size):
        # only the lattice's block that spans the ROI is counted and built
        doc, scene = tiny_scenario_doc(), _tiny_scene()
        edit(doc, scene)
        (tmp_path / "tiny.scene.json").write_text(json.dumps(scene))
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        config = ScenarioConfig.from_file(p)
        assert validate_scenario(config) == []
        db, _ = simcore.build_db_for_scenario(config)
        spacing, (xmin, ymin, _, _) = config.db.build.spacing, config.db.build.roi
        ys, xs = (np.ceil((lo - 1e-9) / spacing) + np.arange(n) for lo, n in zip((ymin, xmin), size))
        assert np.array_equal(db.positions[:, :2].reshape(*size, 2),
                              np.stack(np.meshgrid(xs * spacing, ys * spacing), axis=-1))
        assert np.isfinite(db.bins).all() and db.bins.sum(axis=-1).min() > 0

    def test_file_identity_is_the_file_not_the_name(self, tmp_path):
        f = tmp_path / "f.json"
        f.write_text("{}")
        (tmp_path / "link.json").symlink_to(f)
        (tmp_path / "hard.json").hardlink_to(f)
        (tmp_path / "dir_link").symlink_to(tmp_path)
        same = ["link.json", "hard.json", "gone/../f.json", "dir_link/f.json"]
        assert [simcore.file_identity(tmp_path / name) == simcore.file_identity(f) for name in same] == [True] * 4
        # a file not yet written is its realpath, which the writers' missing parents do not change
        unwritten = simcore.file_identity(tmp_path / "new.fpdb")
        assert simcore.file_identity(tmp_path / "dir_link" / "gone" / ".." / "new.fpdb") == unwritten
        assert simcore.file_identity(tmp_path / "other.fpdb") != unwritten
        # a NUL byte names no file: the scenario schema refuses it in a file name, and os.stat here
        with pytest.raises(ValueError, match="null byte"):
            simcore.file_identity(tmp_path / "a\0b")

    def test_missing_scene_file_flagged(self, tmp_path):
        doc = tiny_scenario_doc()
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        problems = validate_scenario(ScenarioConfig.from_file(p))
        assert any("scene file not found" in v for v in problems)

    def test_circle_path_parsing(self, tmp_path):
        doc = tiny_scenario_doc()
        doc["agents"][0]["path"] = {"circle": {"center": [0.6, 0.5], "radius": 0.1,
                                               "waypoints": 8}}
        (tmp_path / "tiny.scene.json").write_text(json.dumps(_tiny_scene()))
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        config = ScenarioConfig.from_file(p)
        assert config.agents[0].waypoints.shape == (8, 2)


def _tiny_scene():
    from conftest import TINY_SCENE
    return copy.deepcopy(TINY_SCENE)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("tiny_run")
    (tmp / "tiny.scene.json").write_text(json.dumps(_tiny_scene()))
    path = tmp / "tiny.json"
    path.write_text(json.dumps(tiny_scenario_doc()))
    config = ScenarioConfig.from_file(path)
    records = run_simulation(config)
    return config, records, tmp


class TestSimulationLoop:
    def test_kinematics_passthrough(self, tiny_run):
        # the pose at step t+1 is exactly the arc step under the control of step t
        from isactwin.agent import Control, diff_drive_step
        config, records, _ = tiny_run
        r0, r1 = records[0], records[1]
        a0, a1 = r0.agents["robot"], r1.agents["robot"]
        pred = diff_drive_step(Pose.at(a0.true_x, a0.true_y, 0.1, yaw=a0.true_yaw),
                               Control(a0.v_cmd, a0.w_cmd), config.dt)
        assert a1.true_x == pytest.approx(pred.position[0], abs=1e-12)
        assert a1.true_y == pytest.approx(pred.position[1], abs=1e-12)
        assert a1.true_yaw == pytest.approx(pred.yaw, abs=1e-12)

    def test_terminates_on_final_waypoint(self, tiny_run):
        config, records, _ = tiny_run
        assert len(records) < config.max_steps
        last = records[-1].agents["robot"]
        assert (last.v_cmd, last.w_cmd) == (0.0, 0.0)

    def test_step_indices_contiguous(self, tiny_run):
        _, records, _ = tiny_run
        assert [r.step for r in records] == list(range(len(records)))

    def test_estimates_are_db_points(self, tiny_run):
        config, records, _ = tiny_run
        db = load_db(config.db.path)
        pts = {(round(p[0], 9), round(p[1], 9)) for p in db.positions}
        for rec in records:
            ag = rec.agents["robot"]
            assert (round(ag.est_x, 9), round(ag.est_y, 9)) in pts

    def test_static_agent_fixed_point(self, tmp_path):
        doc = tiny_scenario_doc()
        # waypoint straight ahead but zero speed: the robot never moves
        doc["agents"][0]["path"] = [[0.2, 0.5]]
        doc["agents"][0]["initial_pose"]["yaw_deg"] = 180.0
        doc["agents"][0]["controller"]["v_max"] = 0.0
        doc["sim"]["max_steps"] = 3
        (tmp_path / "tiny.scene.json").write_text(json.dumps(_tiny_scene()))
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        records = run_simulation(ScenarioConfig.from_file(p))
        assert len(records) == 3
        first = records[0]
        for rec in records[1:]:
            a, b = first.agents["robot"], rec.agents["robot"]
            assert (a.true_x, a.true_y, a.est_x, a.est_y) == (b.true_x, b.true_y, b.est_x, b.est_y)
            assert first.rates == rec.rates

    @pytest.mark.parametrize("path,map_offset,phase", [
        ([[1.6, 0.5]], None, "raytrace phase failed"),
        ([[1.1, 0.5]], [0.45, 0.0], "observation phase failed for 'robot'"),
    ], ids=["agent", "map-offset-pose"])
    def test_crossing_a_wall_fails_the_step(self, tmp_path, capsys, path, map_offset, phase):
        # the robot drives toward +x in a room whose bounds reach past its wall x = 1.2: either the
        # robot or its offset pose crosses it, and the trace of that step refuses the end behind it
        scene = _tiny_scene()
        scene["bounds"] = {"min": [-0.5, -0.5, 0.0], "max": [1.7, 1.5, 0.8]}
        (tmp_path / "tiny.scene.json").write_text(json.dumps(scene))
        doc = tiny_scenario_doc()
        doc["agents"][0]["path"] = path
        doc["agents"][0]["initial_pose"]["yaw_deg"] = 0.0
        doc["agents"][0]["controller"]["v_max"] = 1.0
        doc["noise"]["map_offset_m"] = map_offset
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        out = tmp_path / "t.csv"
        assert main(["run", str(p), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        failed = re.fullmatch(rf"error: step (\d+) {re.escape(phase)}: rx at \((.+)\) is behind a wall "
                              r"of the scene\n", err)
        assert failed, err
        step, x = int(failed.group(1)), float(failed.group(2).split(",")[0])
        assert step > 0 and x > 1.2
        assert [r.step for r in read_trace_csv(out)] == list(range(step))

    @pytest.mark.parametrize("target,message", [
        ("isactwin.agent.step_state", "step 0 state phase failed for 'robot': boom"),
        ("isactwin.simcore.trace_paths", "step 0 raytrace phase failed: boom"),
        ("isactwin.simcore.beamformed_gains", "step 0 signal phase failed: boom"),
        ("isactwin.agent.observe", "step 0 observation phase failed for 'robot': boom"),
        ("isactwin.localization.localize", "step 0 estimation phase failed for 'robot': boom"),
    ], ids=["state", "raytrace", "signal", "observation", "estimation"])
    def test_a_failing_phase_names_its_step_and_phase(self, tiny_scenario, tmp_path, capsys, monkeypatch,
                                                      target, message):
        # any ValueError inside a phase, not only the error types its callees document, names the step
        def boom(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(target, boom)
        out = tmp_path / "t.csv"
        assert main(["run", str(tiny_scenario), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert read_trace_csv(out) == []

    def test_phase_ordering_on_bus(self, tmp_path):
        # a "*" subscriber sees each step's 9 messages in phase order, and observes without steering
        doc = tiny_scenario_doc()
        doc["sim"]["max_steps"] = 2
        doc["noise"]["fingerprint_snr_db"] = 20.0   # the loop's RNG is drawn from as well
        (tmp_path / "tiny.scene.json").write_text(json.dumps(_tiny_scene()))
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        config = ScenarioConfig.from_file(p)
        world = init_world(config)
        sink = []
        world.bus.subscribe("*", sink.append)
        stepped = [sim_step(world, t) for t in range(2)]
        topics = ["agent/robot/state", "sim/channel/robot/ap_a", "sim/channel/robot/ap_b",
                  "metrics/rate/robot/ap_a", "metrics/rate/robot/ap_b",
                  "agent/robot/obs", "agent/robot/estimate", "agent/robot/control", "sim/trace"]
        assert [(m.step, m.topic) for m in sink] == [(t, topic) for t in range(2) for topic in topics]
        assert [m.payload for m in sink if m.topic == "sim/trace"] == stepped
        assert [dataclasses.asdict(r) for r in stepped] == \
            [dataclasses.asdict(r) for r in run_simulation(config)]

    def test_estimate_localizes_the_observation(self, tmp_path):
        # phase 5 matches exactly the noisy MDPs that phase 4 publishes as the agent's observation
        doc = tiny_scenario_doc()
        doc["noise"]["fingerprint_snr_db"] = 15.0
        doc["sim"]["max_steps"] = 6
        (tmp_path / "tiny.scene.json").write_text(json.dumps(_tiny_scene()))
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        world = init_world(ScenarioConfig.from_file(p))
        obs, estimates = [], []
        world.bus.subscribe("agent/robot/obs", obs.append)
        world.bus.subscribe("agent/robot/estimate", estimates.append)
        for t in range(6):
            sim_step(world, t)
        assert len(obs) == len(estimates) == 6
        for o, e in zip(obs, estimates):
            assert list(o.payload) == world.db.ap_ids
            est, score = localize(o.payload, world.db)
            assert np.array_equal(est, e.payload[0]) and score == e.payload[1]
        pose = world.agents["robot"].pose
        clean = compute_mdp(trace_paths(world.scene, world.graph.nodes["ap_a"].pose, pose,
                                        max_order=2, carrier_freq=2.4e9), world.db.bin_width, world.db.num_bins)
        assert not np.array_equal(obs[-1].payload["ap_a"].bins, clean.bins)

    @pytest.mark.parametrize("noise", [{}, {"map_offset_m": [0.0, -0.05]}, {"fingerprint_snr_db": 20.0}],
                             ids=["clean", "map-offset", "fingerprint-noise"])
    def test_step_path_enters_no_python_level_numpy_wrapper(self, tmp_path, noise):
        # a step calls ufuncs, ufunc reductions and C-level methods, not numpy functions written in
        # Python; a denylist, as which others are written in Python depends on the numpy version
        denied = {"mean", "stack", "clip", "outer", "zeros_like", "take_along_axis", "argsort", "argmin", "where",
                  "flatnonzero"}
        denied_methods = {"_all", "_any", "_sum", "_amin", "_amax"}
        numpy_dir, package_dir = Path(np.__file__).parent, Path(simcore.__file__).parent
        doc = tiny_scenario_doc()
        doc["noise"].update(noise)
        (tmp_path / "tiny.scene.json").write_text(json.dumps(_tiny_scene()))
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        world = init_world(ScenarioConfig.from_file(p))
        sim_step(world, 0)   # fills the database's cached aligned table
        entered, stepped = [], set()

        def hook(frame, event, arg):
            if event != "call" or frame.f_back is None:
                return
            code, caller = frame.f_code, Path(frame.f_back.f_code.co_filename)
            if Path(code.co_filename).parent == package_dir:
                stepped.add(code.co_name)
            elif caller.parent == package_dir and numpy_dir in Path(code.co_filename).parents and (
                    code.co_name in denied
                    or (code.co_name in denied_methods and code.co_filename.endswith("_methods.py"))):
                entered.append(f"{code.co_name} from {caller.name}:{frame.f_back.f_lineno}")

        sys.setprofile(hook)
        try:
            for t in range(1, 4):
                sim_step(world, t)
        finally:
            sys.setprofile(None)
        assert {"trace_paths", "beamformed_gains", "mrt_beamformer", "localize"} <= stepped
        assert ("add_fingerprint_noise" in stepped) == ("fingerprint_snr_db" in noise)
        assert entered == []

    def test_state_noise_draws_three_normals_per_step(self, tmp_path):
        # the agent generator, seeded [seed, 11, agent index], feeds only the x, y and yaw noise
        doc = tiny_scenario_doc()
        doc["noise"]["state_var"] = 1e-6
        doc["noise"]["fingerprint_snr_db"] = 20.0
        (tmp_path / "tiny.scene.json").write_text(json.dumps(_tiny_scene()))
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        world = init_world(ScenarioConfig.from_file(p))
        for t in range(5):
            sim_step(world, t)
        ref = np.random.default_rng([3, 11, 0])
        for _ in range(5):
            ref.normal(0.0, 1e-3, size=3)
        assert world.agents["robot"].rng.bit_generator.state == ref.bit_generator.state

    def test_db_reuse_matches_on_the_fly_tracing(self, tiny_run):
        config, _, _ = tiny_run
        db = load_db(config.db.path)
        scene = load_scene(config.scene_path)
        ap_pose = {n.id: n.pose for n in config.nodes if n.pose is not None}
        for i in (0, len(db.positions) // 2, len(db.positions) - 1):
            point = db.positions[i]
            for ap in db.ap_ids:
                ps = trace_paths(scene, ap_pose[ap], Pose(position=point),
                                 max_order=config.max_order,
                                 carrier_freq=config.ofdm.carrier_freq)
                fresh = compute_mdp(ps, db.bin_width, db.num_bins)
                stored = db.entry(i, ap)
                assert np.max(np.abs(fresh.bins - stored.bins)) <= 1e-12 * max(1.0, stored.bins.max())

    def test_stale_database_guard(self, tmp_path):
        doc = tiny_scenario_doc()
        (tmp_path / "tiny.scene.json").write_text(json.dumps(_tiny_scene()))
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        config = ScenarioConfig.from_file(p)
        build_db_for_scenario(config)
        # moving an AP invalidates the stored network hash
        doc2 = copy.deepcopy(doc)
        doc2["network"]["nodes"][0]["pose"]["position"] = [0.3, 0.1, 0.7]
        p2 = tmp_path / "s2.json"
        p2.write_text(json.dumps(doc2))
        config2 = ScenarioConfig.from_file(p2)
        with pytest.raises((DatabaseError, ConfigError), match="different network"):
            run_simulation(config2)

    @pytest.mark.parametrize("key,value", [
        ("spacing_m", 0.05),
        ("bin_width_s", 2e-9),
        ("num_bins", 32),
        ("roi_m", [0.3, 0.25, 0.85, 0.75]),
        ("height_m", 0.2),
    ])
    def test_changed_build_settings_make_database_stale(self, tmp_path, key, value):
        doc = tiny_scenario_doc()
        (tmp_path / "tiny.scene.json").write_text(json.dumps(_tiny_scene()))
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        build_db_for_scenario(ScenarioConfig.from_file(p))
        init_world(ScenarioConfig.from_file(p))   # the same settings reuse the file
        doc2 = copy.deepcopy(doc)
        doc2["db"]["build"][key] = value
        p2 = tmp_path / "s2.json"
        p2.write_text(json.dumps(doc2))
        with pytest.raises(DatabaseError, match="different db.build settings"):
            init_world(ScenarioConfig.from_file(p2))

    def test_database_grid_checked_by_value(self, tmp_path):
        # a file whose stamps match but whose grid is not the one db.build gives is stale
        doc = tiny_scenario_doc()
        (tmp_path / "tiny.scene.json").write_text(json.dumps(_tiny_scene()))
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        db, path = build_db_for_scenario(ScenarioConfig.from_file(p))
        db.positions[0, 0] += 0.01
        save_db(db, path)
        with pytest.raises(DatabaseError, match="different db.build settings"):
            init_world(ScenarioConfig.from_file(p))

    def test_version_1_database_refused(self, tmp_path):
        # version 1 stamped "<network>:<grid settings>"; it is refused for its version, not its network
        doc = tiny_scenario_doc()
        (tmp_path / "tiny.scene.json").write_text(json.dumps(_tiny_scene()))
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        _, path = build_db_for_scenario(ScenarioConfig.from_file(p))
        rewrite_db_header(path, lambda header: {**header, "version": 1,
                                                "network_hash": header["network_hash"] + ":" + "0" * 64})
        with pytest.raises(DatabaseError, match=f"^{re.escape(str(path))}: unsupported version 1$"):
            init_world(ScenarioConfig.from_file(p))

    def test_shipped_database_with_a_nan_bin_is_not_loaded(self, case_study_dir, tmp_path):
        # save_db refuses to write such a file, and localize would score its point as an empty profile
        world = init_world(ScenarioConfig.from_file(case_study_dir / "desk_two_ap.json"))
        raw, bins = bytearray(world.config.db.path.read_bytes()), world.db.bins
        point, ap = 17, 1
        at = len(raw) - 8 * bins.size + 8 * int(np.ravel_multi_index((point, ap, 5), bins.shape))   # bins come last
        raw[at:at + 8] = np.array(np.nan, dtype="<f8").tobytes()
        copy = tmp_path / "nan.fpdb"
        copy.write_bytes(raw)
        where = re.escape(str(tuple(world.db.positions[point].tolist())))
        with pytest.raises(DatabaseError, match=f"^{re.escape(str(copy))}: not loaded: the bins of grid point "
                                                f"{where} from AP {world.db.ap_ids[ap]!r} are not finite$"):
            load_db(copy)

    def test_unstamped_database_is_stale(self, tmp_path):
        # build_fingerprint_db stamps nothing unless told to; such a file at
        # db.path must not stand in for a moved AP and repainted walls
        doc = tiny_scenario_doc()
        scene_doc = _tiny_scene()
        (tmp_path / "tiny.scene.json").write_text(json.dumps(scene_doc))
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        db, path = build_db_for_scenario(ScenarioConfig.from_file(p))
        save_db(dataclasses.replace(db, scene_hash="", network_hash=""), path)
        doc["network"]["nodes"][0]["pose"]["position"] = [0.3, 0.1, 0.7]
        p.write_text(json.dumps(doc))
        for material in scene_doc["materials"]:
            material["reflection_coeff"] = 0.1
        (tmp_path / "tiny.scene.json").write_text(json.dumps(scene_doc))
        with pytest.raises(DatabaseError, match="different scene"):
            init_world(ScenarioConfig.from_file(p))

    def test_scenario_without_build_reuses_a_database_of_its_network(self, tmp_path):
        doc = tiny_scenario_doc()
        (tmp_path / "tiny.scene.json").write_text(json.dumps(_tiny_scene()))
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        db, _ = build_db_for_scenario(ScenarioConfig.from_file(p))
        del doc["db"]["build"]
        p.write_text(json.dumps(doc))
        world = init_world(ScenarioConfig.from_file(p))
        assert np.array_equal(world.db.bins, db.bins)
        doc["network"]["nodes"][0]["pose"]["position"] = [0.3, 0.1, 0.7]
        p.write_text(json.dumps(doc))
        # the file is the run's only database, so validation opens it and refuses it
        with pytest.raises(ConfigError, match="^database .* was built for a different network setup$"):
            init_world(ScenarioConfig.from_file(p))

    def test_invalid_config_rejected_at_run(self, tmp_path):
        doc = tiny_scenario_doc()
        doc["sim"]["max_steps"] = 0
        (tmp_path / "tiny.scene.json").write_text(json.dumps(_tiny_scene()))
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="max_steps"):
            run_simulation(ScenarioConfig.from_file(p))


class TestSetUpOnce:
    """validate_scenario hands the scene, graph, allocation and db.build grid it
    built from a valid config to the next init_world of it, unless the scene
    file's bytes changed; init_world then validates again. A path-only config's
    database is checked by validation and not handed over: init_world loads the
    file it runs on. A changed config is a new object, built with
    dataclasses.replace, and has nothing handed over."""

    @pytest.fixture
    def config(self, tiny_scenario, monkeypatch):
        loads = []
        load = simcore.load_scene
        monkeypatch.setattr(simcore, "load_scene", lambda path: loads.append(path) or load(path))
        config = ScenarioConfig.from_file(tiny_scenario)
        build_db_for_scenario(config)
        loads.clear()
        return config, loads

    def test_init_world_takes_what_validation_built(self, config):
        config, loads = config
        assert validate_scenario(config) == []
        world = init_world(config)
        assert len(loads) == 1
        second = init_world(config)       # the hand-over is used once
        assert len(loads) == 2
        assert second.scene is not world.scene

    def test_changed_config_is_built_afresh(self, config):
        config, loads = config
        assert validate_scenario(config) == []
        handed_over = config.nodes[0]
        config = dataclasses.replace(
            config, requests=tuple(r for r in config.requests if r.user != "ap_b"),
            nodes=(dataclasses.replace(handed_over, array=ArrayConfig(2, handed_over.array.spacing)),
                   *config.nodes[1:]))
        world = init_world(config)
        assert len(loads) == 2
        assert world.rate_plan[("robot", "ap_b")] is None and world.rate_plan[("robot", "ap_a")] is not None
        # the graph validation built holds handed_over; only a rebuilt one holds its replacement
        assert world.graph.nodes["ap_a"] is config.nodes[0]

    def test_rewritten_scene_file_is_loaded_again(self, config):
        config, loads = config
        assert validate_scenario(config) == []
        doc = json.loads(config.scene_path.read_text())
        config.scene_path.write_text(json.dumps(doc, indent=2))
        init_world(config)
        assert len(loads) == 2

    def test_same_size_rewrite_under_the_old_mtime_is_loaded_again(self, config):
        # a size-and-mtime key would hand over the stale scene and skip the DB's scene guard
        config, loads = config
        assert validate_scenario(config) == []
        before = config.scene_path.stat()
        text = config.scene_path.read_text()
        config.scene_path.write_text(text.replace('"reflection_coeff": 0.9', '"reflection_coeff": 0.8'))
        os.utime(config.scene_path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = config.scene_path.stat()
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        with pytest.raises(DatabaseError, match="different scene"):
            init_world(config)
        assert len(loads) == 2

    @pytest.fixture
    def path_only(self, config, monkeypatch):
        """The config without db.build, on the database the config fixture built, and its db loads."""
        config, _ = config
        loads = []
        load = simcore.loc_mod.load_db
        monkeypatch.setattr(simcore.loc_mod, "load_db", lambda path: loads.append(path) or load(path))
        return dataclasses.replace(config, db=dataclasses.replace(config.db, build=None)), loads

    def test_same_size_database_rewrite_under_the_old_mtime_is_loaded(self, path_only, tmp_path):
        # a stat key (inode, size, mtime) would hand over the bins validation loaded
        config, loads = path_only
        assert validate_scenario(config) == []
        db = load_db(config.db.path)
        before = config.db.path.stat()
        save_db(dataclasses.replace(db, bins=db.bins / 2), tmp_path / "halved.fpdb")
        config.db.path.write_bytes((tmp_path / "halved.fpdb").read_bytes())   # in place: the same inode
        os.utime(config.db.path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = config.db.path.stat()
        assert (after.st_ino, after.st_size, after.st_mtime_ns) == (before.st_ino, before.st_size, before.st_mtime_ns)
        world = init_world(config)
        assert len(loads) == 2
        assert np.array_equal(world.db.bins, db.bins / 2)

    def test_rewritten_database_file_is_loaded_again(self, path_only):
        config, loads = path_only
        assert validate_scenario(config) == []
        rewrite_db_header(config.db.path, lambda header: {**header, "n_points": 0})
        with pytest.raises(DatabaseError, match=r"corrupt header: has 0 at \.n_points"):
            init_world(config)
        assert len(loads) == 2

    def test_run_that_builds_its_database_loads_the_scene_once(self, tmp_path, monkeypatch):
        loads = []
        load = simcore.load_scene
        monkeypatch.setattr(simcore, "load_scene", lambda path: loads.append(path) or load(path))
        (tmp_path / "tiny.scene.json").write_text(json.dumps(_tiny_scene()))
        p = tmp_path / "s.json"
        p.write_text(json.dumps(tiny_scenario_doc()))
        config = ScenarioConfig.from_file(p)
        assert not config.db.path.exists()
        run_simulation(dataclasses.replace(config, max_steps=1))
        assert len(loads) == 1
        # the database built on demand is the one build-db writes
        _, again = build_db_for_scenario(
            dataclasses.replace(config, db=dataclasses.replace(config.db, path=tmp_path / "again.fpdb")))
        assert config.db.path.read_bytes() == again.read_bytes()

    def test_a_build_makes_the_grid_once(self, tmp_path, monkeypatch):
        # validate_scenario builds the db.build grid for its wall check and the build takes it over
        grids = []
        grid = simcore._db_grid
        monkeypatch.setattr(simcore, "_db_grid", lambda *args: grids.append(1) or grid(*args))
        (tmp_path / "tiny.scene.json").write_text(json.dumps(_tiny_scene()))
        p = tmp_path / "s.json"
        p.write_text(json.dumps(tiny_scenario_doc()))
        config = ScenarioConfig.from_file(p)
        db, path = build_db_for_scenario(config)
        assert len(grids) == 1 and len(db.positions) == 35
        built = path.read_bytes()
        path.unlink()
        grids.clear()
        init_world(config)                # builds the missing database
        assert len(grids) == 1
        assert path.read_bytes() == built

    def test_invalid_allocation_still_fails_in_init_world(self, config):
        config, _ = config
        assert validate_scenario(config) == []
        config = dataclasses.replace(config, requests=(
            dataclasses.replace(config.requests[0], subcarriers=frozenset({99})), *config.requests[1:]))
        assert any("resource allocation" in p for p in validate_scenario(config))
        with pytest.raises(ConfigError, match="outside"):
            init_world(config)


class TestDeterminism:
    def test_same_seed_byte_identical_traces(self, tmp_path):
        doc = tiny_scenario_doc()
        doc["noise"]["state_var"] = 1e-6
        doc["noise"]["fingerprint_snr_db"] = 25.0
        doc["sim"]["max_steps"] = 8
        (tmp_path / "tiny.scene.json").write_text(json.dumps(_tiny_scene()))
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        config = ScenarioConfig.from_file(p)
        run_simulation(config, trace_path=tmp_path / "a.csv")
        run_simulation(config, trace_path=tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_different_seed_differs(self, tmp_path):
        doc = tiny_scenario_doc()
        doc["noise"]["state_var"] = 1e-4
        doc["sim"]["max_steps"] = 8
        (tmp_path / "tiny.scene.json").write_text(json.dumps(_tiny_scene()))
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        config = ScenarioConfig.from_file(p)
        run_simulation(config, trace_path=tmp_path / "a.csv")
        run_simulation(dataclasses.replace(config, seed=99), trace_path=tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "b.csv").read_bytes()


class TestTraceCsv:
    def test_header_schema(self, tiny_run):
        config, _, _ = tiny_run
        header = config.trace_csv.read_text().splitlines()[0].split(",")
        assert header == TRACE_BASE_COLUMNS + ["rate_robot_ap_a", "rate_robot_ap_b"]
        assert TRACE_BASE_COLUMNS == [
            "step", "time_s", "agent_id", "true_x", "true_y", "true_yaw",
            "est_x", "est_y", "loc_score", "v_cmd", "w_cmd",
        ]

    def test_row_count(self, tiny_run):
        config, records, _ = tiny_run
        lines = config.trace_csv.read_text().splitlines()
        assert len(lines) == len(records) + 1

    def test_round_trip_metrics_identical(self, tiny_run):
        config, records, _ = tiny_run
        from_csv = read_trace_csv(config.trace_csv)
        assert len(from_csv) == len(records)
        s_mem = metrics.summarize_run(records)
        s_csv = metrics.summarize_run(from_csv)
        assert dataclasses.asdict(s_mem) == dataclasses.asdict(s_csv)

    def test_record_trace_round_trip(self, tiny_run):
        # the CSV that TraceWriter streamed during the run reads back field for field
        config, records, _ = tiny_run
        back = read_trace_csv(config.trace_csv)
        assert len(back) == len(records)
        for rec, again in zip(records, back):
            assert (again.step, again.time_s, again.rates) == (rec.step, rec.time_s, rec.rates)
            assert again.agents.keys() == rec.agents.keys()
            for aid, ag in rec.agents.items():
                assert dataclasses.asdict(again.agents[aid]) == dataclasses.asdict(ag)

    def test_crash_safe_prefix(self, tiny_run):
        config, _, _ = tiny_run
        text = config.trace_csv.read_text().splitlines()
        # any prefix of the file parses as CSV with the same header
        import csv as _csv
        import io
        prefix = "\n".join(text[:3]) + "\n"
        rows = list(_csv.DictReader(io.StringIO(prefix)))
        assert len(rows) == 2
        assert float(rows[0]["true_x"]) == pytest.approx(0.7)


class TestRunReport:
    def test_run_and_eval_print_identical_tables(self, tmp_path, capsys):
        # the report reads only the trace, so a map offset leaves no in-memory extra
        doc = tiny_scenario_doc()
        doc["noise"]["map_offset_m"] = [0.04, 0.03]
        doc["sim"]["max_steps"] = 3
        (tmp_path / "tiny.scene.json").write_text(json.dumps(_tiny_scene()))
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        trace = tmp_path / "t.csv"
        assert main(["run", str(p), "--out", str(trace)]) == 0
        ran = capsys.readouterr().out.splitlines()
        assert main(["eval", str(trace)]) == 0
        evaluated = capsys.readouterr().out.splitlines()
        assert ran[0] == f"ran 3 steps -> {trace}"
        assert ran[1:] == evaluated[:-1]     # eval's last line is the JSON summary


class TestInterference:
    """Rates of links whose allocations overlap: the per-grid interference sum of
    sim_step against achievable_rate evaluated one resource element at a time."""

    STEPS = 3

    def _run(self, tmp_path, name, ap_b_subcarriers, symbols=None, drop=None):
        """symbols: (ap_a's, ap_b's) symbol sets; drop: a user whose resource entry is removed."""
        doc = tiny_scenario_doc()
        users = doc["network"]["resources"]["users"]
        users[1]["subcarriers"] = ap_b_subcarriers
        if symbols is not None:
            users[0]["symbols"], users[1]["symbols"] = symbols
        users[:] = [u for u in users if u["id"] != drop]
        doc["sim"]["max_steps"] = self.STEPS
        root = tmp_path / name
        root.mkdir()
        (root / "tiny.scene.json").write_text(json.dumps(_tiny_scene()))
        (root / "s.json").write_text(json.dumps(doc))
        world = init_world(ScenarioConfig.from_file(root / "s.json"))
        channels = []
        world.bus.subscribe("sim/channel/*", channels.append)
        runs = []
        for t in range(self.STEPS):
            record = sim_step(world, t)
            paths = {tuple(m.topic.split("/")[2:]): m.payload for m in channels}
            channels.clear()
            runs.append((record, paths))
        return world, runs

    @staticmethod
    def _oracle_rates(world, paths):
        cfg = world.config
        rx = world.graph.nodes["robot"].array
        arrays = {q: world.graph.nodes[q].array for _, q in paths}
        allocs = allocate_resources(cfg.requests, cfg.ofdm.n_subcarriers, cfg.ofdm.n_symbols).users
        beams = {}
        for (_, q), ps in paths.items():
            subs, syms = sorted(allocs[q].subcarriers), sorted(allocs[q].symbols)
            h = synthesize_channel(ps, arrays[q], rx, subs[len(subs) // 2], syms[0], cfg.ofdm)
            beams[q] = mrt_beamformer(h)
        rates = {}
        for (v, q), ps in paths.items():
            per_element = []
            for n in sorted(allocs[q].subcarriers):
                for k in sorted(allocs[q].symbols):
                    interference = 0.0
                    for (_, qq), other in paths.items():
                        if qq != q and n in allocs[qq].subcarriers and k in allocs[qq].symbols:
                            h_other = synthesize_channel(other, arrays[qq], rx, n, k, cfg.ofdm)
                            interference += (allocs[qq].uniform_power
                                             * np.linalg.norm(h_other @ beams[qq]) ** 2)
                    h = synthesize_channel(ps, arrays[q], rx, n, k, cfg.ofdm)
                    per_element.append(metrics.achievable_rate(
                        h, beams[q], allocs[q].uniform_power, cfg.noise.noise_power_w,
                        interference_power=interference))
            rates[(v, q)] = float(np.mean(per_element))
        return rates

    def test_overlapping_allocations_match_per_element_oracle(self, tmp_path):
        # ap_a keeps sub-carriers 1-16; ap_b moves from 17-32 to 9-24, half on top of ap_a
        world, overlap = self._run(tmp_path, "overlap", {"from": 9, "to": 24})
        _, disjoint = self._run(tmp_path, "disjoint", {"from": 17, "to": 32})
        for (record, paths), (alone, _) in zip(overlap, disjoint):
            assert set(paths) == {("robot", "ap_a"), ("robot", "ap_b")}
            expected = self._oracle_rates(world, paths)
            for link, rate in expected.items():
                assert record.rates[link] == pytest.approx(rate, rel=1e-12)
            assert record.rates[("robot", "ap_a")] < alone.rates[("robot", "ap_a")]

    def test_disjoint_symbols_add_no_interference(self, tmp_path):
        # ap_b sends on sub-carriers 9-16 of ap_a too, but on the other symbols
        symbols = ({"from": 1, "to": 2}, {"from": 3, "to": 4})
        world, overlap = self._run(tmp_path, "overlap", {"from": 9, "to": 24}, symbols)
        _, disjoint = self._run(tmp_path, "disjoint", {"from": 17, "to": 32}, symbols)
        _, ap_b_alone = self._run(tmp_path, "alone", {"from": 9, "to": 24}, symbols, drop="ap_a")
        assert all(not plan.interferers for plan in world.rate_plan.values())
        for (record, paths), (other_b, _), (alone, _) in zip(overlap, disjoint, ap_b_alone):
            assert set(paths) == {("robot", "ap_a"), ("robot", "ap_b")}
            assert record.rates[("robot", "ap_a")] == other_b.rates[("robot", "ap_a")]
            assert record.rates[("robot", "ap_b")] == alone.rates[("robot", "ap_b")]

    def test_transmitter_without_resources_has_zero_rate_and_no_interference(self, tmp_path):
        world, runs = self._run(tmp_path, "no-entry", {"from": 17, "to": 32}, drop="ap_b")
        _, with_b = self._run(tmp_path, "with-entry", {"from": 17, "to": 32})
        assert world.rate_plan[("robot", "ap_b")] is None
        for (record, paths), (reference, _) in zip(runs, with_b):
            assert ("robot", "ap_b") in paths          # the link is still traced
            assert record.rates[("robot", "ap_b")] == 0.0
            assert record.rates[("robot", "ap_a")] == reference.rates[("robot", "ap_a")]


def test_phase_three_steers_each_array_once_per_kernel_call(case_study_dir, monkeypatch):
    # nothing keeps a steering pair: the MRT channel and beamformed_gains each steer the link's
    # paths, and a one-element transmitter's link synthesizes no channel
    world = init_world(ScenarioConfig.from_file(case_study_dir / "desk_two_ap.json"))
    steer, steered = channel._steering, []
    monkeypatch.setattr(channel, "_steering",
                        lambda array, *args: steered.append(array) or steer(array, *args))
    for t in range(2):
        steered.clear()
        sim_step(world, t)
        links = [link for link, plan in world.rate_plan.items() if plan is not None]
        assert len(links) == 2
        nodes = world.graph.nodes
        assert steered == [nodes[end].array for v, q in links
                           for _ in range(1 + (nodes[q].array.num_elements > 1)) for end in (v, q)]
