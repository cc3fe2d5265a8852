"""The scene and scenario schemas: every typed value refuses a value of another JSON type.

The wrong-type cases are generated from scene._SCENE_KEYS and simcore._SCENARIO_KEYS. Every
value that the shipped scene, the shipped scenario or the tiny test scenario sets gets a value of
the wrong type (lists at their first item), and `isactwin validate` must then print exactly one
error line, naming that value's jq path.
"""

import copy
import json

import pytest

from conftest import TINY_SCENE, repo_scenario_dir, tiny_scenario_doc
from isactwin.cli import main
from isactwin.scene import _SCENE_KEYS, Either, Optional
from isactwin.simcore import _SCENARIO_KEYS


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


@pytest.mark.parametrize("document,base,path,wrong", _cases())
def test_wrong_type_is_one_error_naming_its_path(tmp_path, capsys, document, base, path, wrong):
    scenario, scene, scene_name = copy.deepcopy(base)
    owner = scenario if document == "scenario" else scene
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = wrong
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
