"""The scene and scenario schemas: every typed value refuses a value of another JSON type, and
every Rule a value just outside it.

The cases are generated from scene._SCENE_KEYS and simcore._SCENARIO_KEYS. Every value that the
shipped scene, the shipped scenario or the tiny test scenario sets gets a value of the wrong type
(lists at their first item), and `isactwin validate` must then print exactly one error line, naming
that value's jq path. Every Rule gets the values just outside it (conftest.rule_boundaries), which
validate, build-db and run each refuse with exactly that line, and the values just inside it, which
the schema accepts.
"""

import copy
import dataclasses
import json
from types import MappingProxyType

import numpy as np
import pytest

from conftest import TINY_SCENE, repo_scenario_dir, rule_boundaries, tiny_scenario_doc
from isactwin.agent import circle_waypoints
from isactwin.cli import main
from isactwin.localization import _DB_HEADER
from isactwin.raytrace import SPEED_OF_LIGHT
from isactwin.scene import _SCENE_KEYS, Either, Optional, Rule, _conform
from isactwin.simcore import _SCENARIO_KEYS, ScenarioConfig


def _shipped(name):
    return json.loads((repo_scenario_dir() / name).read_text())


# (scenario document, its scene document, the scene's file name)
SHIPPED = (_shipped("desk_two_ap.json"), _shipped("desk_box.scene.json"), "desk_box.scene.json")
TINY = (tiny_scenario_doc(), TINY_SCENE, "tiny.scene.json")


def _typed_values(doc, shape, path=()):
    """(path, shape) of every typed value that doc sets; a list is followed into its first item."""
    if type(shape) is Optional:
        shape = shape.shape
    if type(shape) is not dict:
        yield path, shape
    if type(shape) is Either:   # the form doc takes; its own value is not then one of another kind
        shape = shape.fields if isinstance(doc, dict) else shape.items
    if type(shape) is Rule:
        shape = shape.shape
    if type(shape) is dict:
        for key, sub in shape.items():
            if doc.get(key) is not None:
                yield from _typed_values(doc[key], sub, (*path, key))
    elif type(shape) is tuple:
        for i, sub in enumerate(shape):
            yield from _typed_values(doc[i], sub, (*path, i))
    elif type(shape) is list and doc:
        yield from _typed_values(doc[0], shape[0], (*path, 0))


def _wrong_values(shape, value):
    """A string or true for a number, 2.5 or true for an integer, a number for a string, an n-list
    one item short, an object for a list of any length and a number for a list-or-object."""
    if type(shape) is Rule:
        shape = shape.shape
    if type(shape) is tuple:
        return [value[:-1]]
    if type(shape) is list:
        return [{}]
    if type(shape) is Either:
        return [1.0]
    return {float: ["0.5", True], int: [2.5, True], str: [1.0]}[shape]


def _jq(path):
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)


def _cases():
    cases = {}
    for document, base in (("scenario", SHIPPED), ("scenario", TINY), ("scene", SHIPPED)):
        doc, shape = (base[0], _SCENARIO_KEYS) if document == "scenario" else (base[1], _SCENE_KEYS)
        for path, sub in _typed_values(doc, shape):
            value = doc
            for key in path:
                value = value[key]
            for i, wrong in enumerate(_wrong_values(sub, value)):   # the shipped documents' values first
                cases.setdefault((document, _jq(path), i), (document, base, path, wrong))
    return [pytest.param(*case, id=f"{document}{path}={case[3]!r}")
            for (document, path, _), case in cases.items()]


def _validate(tmp_path, scenario, scene, scene_name):
    (tmp_path / scene_name).write_text(json.dumps(scene))
    p = tmp_path / "s.json"
    p.write_text(json.dumps(scenario))
    return main(["validate", str(p)])


def _edited(document, base, path, value):
    scenario, scene, scene_name = copy.deepcopy(base)
    owner = scenario if document == "scenario" else scene
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = value
    return scenario, scene, scene_name


@pytest.mark.parametrize("document,base,path,wrong", _cases())
def test_wrong_type_is_one_error_naming_its_path(tmp_path, capsys, document, base, path, wrong):
    scenario, scene, scene_name = _edited(document, base, path, wrong)
    assert _validate(tmp_path, scenario, scene, scene_name) == 1
    err = capsys.readouterr().err
    prefix = "error: scene invalid: scene" if document == "scene" else "error: scenario"
    assert err.startswith(f"{prefix} document has {wrong!r} at {_jq(path)}, which must be ")
    assert err.count("\n") == 1 and ";" not in err


def test_cases_cover_every_leaf_of_the_scene():
    paths = {case.values[2] for case in _cases() if case.values[0] == "scene"}
    assert {tuple(k for k in p if not isinstance(k, int)) for p in paths} == {
        ("materials",), ("materials", "name"), ("materials", "reflection_coeff"), ("surfaces",),
        ("surfaces", "vertices"), ("surfaces", "material"), ("bounds", "min"), ("bounds", "max")}


@pytest.mark.parametrize("document,edit,message", [
    ("scenario", lambda d: d["ofdm"].update(carrier_hz=True),
     "scenario document has True at .ofdm.carrier_hz, which must be a number"),
    ("scenario", lambda d: d["sim"].update(dt_s="0.1"),
     "scenario document has '0.1' at .sim.dt_s, which must be a number"),
    ("scenario", lambda d: d["noise"].update(noise_power_w="1e-12"),
     "scenario document has '1e-12' at .noise.noise_power_w, which must be a number"),
    ("scenario", lambda d: d["agents"][0]["controller"].update(v_max="0.08"),
     "scenario document has '0.08' at .agents[0].controller.v_max, which must be a number"),
    ("scenario", lambda d: d["network"]["nodes"][0]["pose"].update(position=["0.07", "0.07", "0.6"]),
     "scenario document has '0.07' at .network.nodes[0].pose.position[0], which must be a number"),
    ("scenario", lambda d: d["network"]["nodes"][0]["pose"].update(yaw_deg=True),
     "scenario document has True at .network.nodes[0].pose.yaw_deg, which must be a number"),
    ("scenario", lambda d: d["network"]["resources"]["users"][0].update(power_w=True),
     "scenario document has True at .network.resources.users[0].power_w, which must be a number"),
    ("scenario", lambda d: d["agents"][0].update(path=[[0.2, 0.3, 0.1], [0.5, 0.5, 0.1]]),
     "scenario document has [0.2, 0.3, 0.1] at .agents[0].path[0], which must be a list of 2 numbers"),
    ("scene", lambda d: d["materials"][0].update(reflection_coeff="0.95"),
     "scene invalid: scene document has '0.95' at .materials[0].reflection_coeff, which must be a number"),
    ("scene", lambda d: d["materials"][0].update(reflection_coeff=True),
     "scene invalid: scene document has True at .materials[0].reflection_coeff, which must be a number"),
    ("scene", lambda d: d["surfaces"][0].update(vertices=[["0", "0", "0"], ["1", "0", "0"], ["1", "1", "0"]]),
     "scene invalid: scene document has '0' at .surfaces[0].vertices[0][0], which must be a number"),
    ("scene", lambda d: d["bounds"].update(min=[[0, 0, 0]]),
     "scene invalid: scene document has [[0, 0, 0]] at .bounds.min, which must be a list of 3 numbers"),
    ("scenario", lambda d: d["sim"].pop("dt_s"), "scenario document is missing .sim.dt_s"),
    ("scenario", lambda d: d["network"]["nodes"][0].pop("id"),
     "scenario document is missing .network.nodes[0].id"),
    ("scene", lambda d: d.pop("bounds"), "scene invalid: scene document is missing .bounds"),
], ids=["boolean-carrier", "string-dt", "string-noise-power", "string-v-max", "string-position",
        "boolean-yaw", "boolean-power", "3d-waypoints", "string-reflection-coeff", "boolean-reflection-coeff",
        "string-vertices", "nested-bounds", "missing-dt", "missing-node-id",
        "missing-bounds"])
def test_value_that_a_cast_let_through_is_refused(tmp_path, capsys, document, edit, message):
    # float() read true as 1.0 and "0.1" as 0.1; reshape(-1, 2) read 3-D waypoints as other 2-D ones
    scenario, scene, scene_name = copy.deepcopy(SHIPPED)
    edit(scenario if document == "scenario" else scene)
    assert _validate(tmp_path, scenario, scene, scene_name) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_optional_key_may_be_null(tmp_path, capsys):
    scenario, scene, scene_name = copy.deepcopy(TINY)
    scenario["noise"].update(map_offset_m=None, fingerprint_snr_db=None, state_var=None)
    scenario["sim"]["seed"] = None
    scenario["network"]["nodes"][2]["pose"] = None
    scenario["agents"][0]["controller"]["v_max"] = None
    assert _validate(tmp_path, scenario, scene, scene_name) == 0


def _rules(doc, shape, path=()):
    """(path, rule, value) of every Rule in shape where doc sets a value, or where an object doc sets
    leaves out an Optional key (value None); a list is followed into its first item."""
    if type(shape) is Optional:
        shape = shape.shape
    if type(shape) is Either:
        shape = shape.fields if isinstance(doc, dict) else shape.items
    if type(shape) is Rule:
        yield path, shape, doc
        shape = shape.shape
    if type(shape) is dict and doc is not None:
        for key, sub in shape.items():
            yield from _rules(doc.get(key), sub, (*path, key))
    elif type(shape) is list and doc:
        yield from _rules(doc[0], shape[0], (*path, 0))


def _schema_rules(shape, path=()):
    """The path, without list indices, of every Rule in shape."""
    if type(shape) is Optional:
        shape = shape.shape
    if type(shape) is Rule:
        yield path
        shape = shape.shape
    if type(shape) is Either:
        for sub in (shape.items, shape.fields):
            yield from _schema_rules(sub, path)
    elif type(shape) is dict:
        for key, sub in shape.items():
            yield from _schema_rules(sub, (*path, key))
    elif type(shape) is list:
        yield from _schema_rules(shape[0], path)


def _boundary_cases(side):
    """One case per value just outside (side 0) or just inside (side 1) each Rule of the schemas, at its
    first place in the shipped scenario, the tiny scenario or the shipped scene."""
    cases = {}
    for document, base in (("scenario", SHIPPED), ("scenario", TINY), ("scene", SHIPPED)):
        doc, shape = (base[0], _SCENARIO_KEYS) if document == "scenario" else (base[1], _SCENE_KEYS)
        for path, rule, value in _rules(doc, shape):
            for i, edge in enumerate(rule_boundaries(rule, value)[side]):
                cases.setdefault((document, _jq(path), i), (document, base, path, rule, edge))
    return [pytest.param(*case, id=f"{document}{path}={case[4]!r}") for (document, path, _), case in cases.items()]


@pytest.mark.parametrize("document,base,path,rule,outside", _boundary_cases(0))
def test_value_just_outside_a_rule_is_one_error_naming_its_path(tmp_path, capsys, document, base, path, rule,
                                                                outside):
    scenario, scene, scene_name = _edited(document, base, path, outside)
    assert _validate(tmp_path, scenario, scene, scene_name) == 1
    prefix = "scene invalid: scene" if document == "scene" else "scenario"
    message = f"error: {prefix} document has {outside!r} at {_jq(path)}, which must be {rule.text}\n"
    assert capsys.readouterr().err == message
    for argv in (["build-db", str(tmp_path / "s.json")], ["run", str(tmp_path / "s.json")]):
        assert main(argv) == 1
        assert capsys.readouterr().err == message
    assert not (tmp_path / "artifacts").exists()


@pytest.mark.parametrize("document,base,path,rule,inside", _boundary_cases(1))
def test_value_just_inside_a_rule_is_accepted(tmp_path, capsys, document, base, path, rule, inside):
    scenario, scene, scene_name = _edited(document, base, path, inside)
    assert _conform(scene if document == "scene" else scenario,
                    _SCENE_KEYS if document == "scene" else _SCENARIO_KEYS)[1] is None
    # validate may refuse the edited document for a rule of several fields or files, never for this value
    _validate(tmp_path, scenario, scene, scene_name)
    assert "document has" not in capsys.readouterr().err


def test_boundary_cases_cover_every_rule():
    for side in (0, 1):
        covered = {(case.values[0], tuple(k for k in case.values[2] if not isinstance(k, int)))
                   for case in _boundary_cases(side)}
        assert covered == {*(("scenario", path) for path in _schema_rules(_SCENARIO_KEYS)),
                           *(("scene", path) for path in _schema_rules(_SCENE_KEYS))}
    # every single-field rule, so that none is lost from a schema unseen
    assert {".".join(path) for path in _schema_rules(_SCENARIO_KEYS)} == {
        "scene", "network.nodes.id", "network.nodes.role", "network.nodes.array.elements",
        "network.nodes.array.spacing_wavelengths", "network.resources.users.power_w", "ofdm.n_subcarriers",
        "ofdm.delta_f_hz", "ofdm.n_symbols", "ofdm.carrier_hz", "agents", "agents.id", "agents.path",
        "agents.path.circle.waypoints",
        *(f"agents.controller.{key}" for key in ("k_ang", "v_max", "w_max", "waypoint_tol_m")),
        "noise.state_var", "noise.noise_power_w", "noise.fingerprint_snr_db", "sim.dt_s", "sim.max_steps",
        "sim.seed", "raytrace.max_order", "db.path", "db.build.spacing_m", "db.build.bin_width_s",
        "db.build.num_bins", "output.trace_csv"}
    assert set(_schema_rules(_SCENE_KEYS)) == {("materials", "name"), ("materials", "reflection_coeff"),
                                               ("surfaces",), ("surfaces", "vertices")}
    assert set(_schema_rules(_DB_HEADER)) == {("spacing_m",), ("bin_width_s",), ("num_bins",), ("ap_ids",),
                                              ("n_points",)}


# an integer of 401 digits: json reads it as an int, and float() of it raises OverflowError
_PAST_FLOAT = 10**400


@pytest.mark.parametrize("document,path,value,message", [
    ("scenario", ("sim", "dt_s"), _PAST_FLOAT, "scenario document has an integer out of float range at .sim.dt_s"),
    ("scenario", ("noise", "noise_power_w"), _PAST_FLOAT,
     "scenario document has an integer out of float range at .noise.noise_power_w"),
    ("scenario", ("network", "nodes", 0, "pose", "position", 0), -_PAST_FLOAT,
     "scenario document has an integer out of float range at .network.nodes[0].pose.position[0]"),
    ("scene", ("surfaces", 0, "vertices", 1, 0), _PAST_FLOAT,
     "scene invalid: scene document has an integer out of float range at .surfaces[0].vertices[1][0]"),
    ("scene", ("materials", 0, "reflection_coeff"), _PAST_FLOAT,
     "scene invalid: scene document has an integer out of float range at .materials[0].reflection_coeff"),
], ids=["dt", "noise-power", "negative-position", "vertex", "reflection-coeff"])
def test_an_integer_past_the_float_range_is_one_error_naming_its_path(tmp_path, capsys, document, path, value,
                                                                      message):
    # it fit the number shape, and float() raised OverflowError: a traceback instead of an error line
    scenario, scene, scene_name = _edited(document, SHIPPED, path, value)
    assert _validate(tmp_path, scenario, scene, scene_name) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    for argv in (["build-db", str(tmp_path / "s.json")], ["run", str(tmp_path / "s.json")]):
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "artifacts").exists()


@pytest.mark.parametrize("document", ["scenario", "scene"])
def test_an_integer_past_the_digit_limit_is_not_valid_json(tmp_path, capsys, document):
    # json.loads raises a plain ValueError for an integer of more than 4 300 digits, not a JSONDecodeError
    scenario, scene, scene_name = copy.deepcopy(SHIPPED)
    texts = {"scenario": json.dumps(scenario), "scene": json.dumps(scene)}
    number = {"scenario": '"dt_s": 0.1', "scene": '"reflection_coeff": 0.95'}[document]
    texts[document] = texts[document].replace(number, number.split()[0] + " 1" + "0" * 5000, 1)
    (tmp_path / scene_name).write_text(texts["scene"])
    (tmp_path / "s.json").write_text(texts["scenario"])
    prefix = "scene invalid: scene" if document == "scene" else "scenario"
    for command in ("validate", "build-db", "run"):
        assert main([command, str(tmp_path / "s.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {prefix} document is not valid JSON: Exceeds the limit (4300 digits)")
        assert err.count("\n") == 1
    assert not (tmp_path / "artifacts").exists()


# a scenario document with only its required keys; its numbers are JSON integers where the schema asks for floats
_BARE = {"scene": "tiny.scene.json",
         "network": {"nodes": [{"id": "ap", "role": "tx", "array": {"elements": 2},
                                "pose": {"position": [1, 1, 2]}},
                               {"id": "robot", "role": "rx"}],
                     "edges": [["ap", "robot"]]},
         "ofdm": {"n_subcarriers": 8, "delta_f_hz": 312500, "n_symbols": 2, "carrier_hz": 2400000000},
         "agents": [{"id": "robot", "initial_pose": {"position": [1, 2, 0]},
                     "path": {"circle": {"center": [1, 1], "radius": 1}}}],
         "sim": {"dt_s": 1, "max_steps": 1}}


def _sections(doc):
    """doc with each optional section present and empty, and one user that sets only its id."""
    doc = copy.deepcopy(doc)
    doc["network"]["resources"] = {"users": [{"id": "ap"}]}
    doc["agents"][0]["controller"] = {}
    doc.update(noise={}, raytrace={}, db={"build": {}}, output={})
    return doc


def _nulls(doc, shape):
    """doc with every Optional key it leaves out, in every object it sets, set to null."""
    if type(shape) is Optional:
        shape = shape.shape
    if type(shape) is Either:
        shape = shape.fields if isinstance(doc, dict) else shape.items
    if type(shape) is Rule:
        shape = shape.shape
    if type(shape) is dict:
        for key, sub in shape.items():
            if key in doc:
                _nulls(doc[key], sub)
            elif type(sub) is Optional:
                doc[key] = None
    elif type(shape) is list:
        for item in doc:
            _nulls(item, shape[0])
    return doc


@pytest.mark.parametrize("doc", [_BARE, _sections(_BARE), _nulls(copy.deepcopy(_BARE), _SCENARIO_KEYS),
                                 _nulls(_sections(_BARE), _SCENARIO_KEYS)],
                         ids=["left-out", "empty-sections", "null", "null-in-sections"])
def test_a_left_out_or_null_key_takes_its_default(tmp_path, doc):
    config = ScenarioConfig.from_dict(doc, tmp_path)
    ap, robot = config.nodes
    assert (ap.array.num_elements, ap.array.spacing, ap.array.boresight) == (2, 0.5 * SPEED_OF_LIGHT / 2.4e9, 0.0)
    assert ap.pose.position.tolist() == [1.0, 1.0, 2.0] and ap.pose.yaw == 0.0
    assert robot.array is None and robot.pose is None
    agent, = config.agents
    assert agent.initial_pose.yaw == 0.0 and dict(agent.gains) == {}
    assert np.array_equal(agent.waypoints, circle_waypoints((1.0, 1.0), 1.0, count=16, start_angle=0.0))
    if "resources" in doc["network"] and doc["network"]["resources"] is not None:
        user, = config.requests
        assert (user.user, user.power_budget) == ("ap", 1.0)
        assert user.subcarriers.tolist() == list(range(1, 9)) and user.symbols.tolist() == [1, 2]
    else:
        assert config.requests == ()
    noise = config.noise
    assert (noise.state_var, noise.noise_power_w, noise.fingerprint_snr_db, noise.map_offset) == (0.0, 1e-12, None,
                                                                                               (0.0, 0.0))
    assert (config.dt, config.max_steps, config.seed, config.max_order) == (1.0, 1, 0, 2)
    assert config.db.path is None and config.trace_csv == tmp_path / "trace.csv"
    build = config.db.build
    if doc.get("db") is not None:
        assert (build.spacing, build.bin_width, build.num_bins, build.roi, build.height) == (0.05, 12.5e-9, 64,
                                                                                            None, None)
    else:
        assert build is None
    floats = [ap.array.spacing, ap.array.boresight, ap.pose.yaw, agent.initial_pose.yaw, noise.state_var,
              noise.noise_power_w, *noise.map_offset, config.dt, config.ofdm.delta_f, config.ofdm.carrier_freq,
              *(r.power_budget for r in config.requests), *((build.spacing, build.bin_width) if build else ())]
    assert all(type(x) is float for x in floats)
    assert all(type(x) is int for x in (config.seed, config.max_order, config.max_steps))


def _defaults(shape, path=()):
    """(path, Optional) of every Optional in shape that states a default other than None."""
    if type(shape) is Optional:
        if shape.default is not None:
            yield path, shape
        shape = shape.shape
    if type(shape) is Rule:
        shape = shape.shape
    if type(shape) is Either:
        for sub in (shape.items, shape.fields):
            yield from _defaults(sub, path)
    elif type(shape) is dict:
        for key, sub in shape.items():
            yield from _defaults(sub, (*path, key))
    elif type(shape) is list:
        yield from _defaults(shape[0], path)


def test_every_default_fits_its_own_shape():
    defaults = list(_defaults(_SCENARIO_KEYS))
    assert {".".join(path) for path, _ in defaults} == {
        "network.nodes.pose.yaw_deg", "network.nodes.array.spacing_wavelengths", "network.nodes.array.boresight_deg",
        "network.resources", "network.resources.users", "network.resources.users.power_w",
        "agents.initial_pose.yaw_deg", "agents.path.circle.waypoints", "agents.path.circle.start_angle_deg",
        "agents.controller", "noise", "noise.state_var", "noise.noise_power_w", "noise.map_offset_m", "sim.seed",
        "raytrace", "raytrace.max_order", "db", "db.build.spacing_m", "db.build.bin_width_s", "db.build.num_bins",
        "output", "output.trace_csv"}
    for path, optional in defaults:
        assert _conform(optional.default, optional.shape)[1] is None, path
    assert not list(_defaults(_SCENE_KEYS)) and not list(_defaults(_DB_HEADER))


def _containers(value, found):
    """found, with the id of every list, dict and array reachable from value through dataclass fields,
    tuples, lists, dicts and read-only mappings."""
    if isinstance(value, (list, dict, np.ndarray)):
        found.add(id(value))
    if dataclasses.is_dataclass(value):
        items = [getattr(value, f.name) for f in dataclasses.fields(value)]
    elif isinstance(value, (list, tuple)):
        items = value
    elif isinstance(value, (dict, MappingProxyType)):
        items = value.values()
    else:
        items = ()
    for item in items:
        _containers(item, found)
    return found


@pytest.mark.parametrize("doc", [_BARE, _sections(_BARE)], ids=["left-out", "empty-sections"])
def test_a_parse_neither_edits_the_document_nor_shares_a_default(tmp_path, doc):
    before = copy.deepcopy(doc)
    first, second = ScenarioConfig.from_dict(doc, tmp_path), ScenarioConfig.from_dict(doc, tmp_path)
    assert doc == before
    assert not _containers(first, set()) & _containers(second, set())
