"""Mutations of the tiny scenario and its scene, drawn from their schemas: what validate_scenario
accepts builds and runs, and every refusal is one error line.

A mutation edits the document at one place that simcore._SCENARIO_KEYS or scene._SCENE_KEYS
types: a number or string gets another value of its JSON type, extremes included (+-1e300,
+-1e-300, 0, +-10**18); an Optional key gets null; a list is emptied or gets a copy of its first
item. Optional keys that the document leaves out are set too, where their value is a number, a
string or a list of numbers (noise.fingerprint_snr_db, noise.map_offset_m).

The test is derandomized, so every run, the weekly seed sweep's included, draws the same examples.
"""

import contextlib
import copy
import dataclasses
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import TINY_SCENE, tiny_scenario_doc
from isactwin.cli import main
from isactwin.scene import _SCENE_KEYS, Either, Optional
from isactwin.simcore import _SCENARIO_KEYS, ConfigError, ScenarioConfig, build_db_for_scenario, run_simulation, \
    validate_scenario

SHAPES = {"scenario": _SCENARIO_KEYS, "scene": _SCENE_KEYS}
_SCALARS = (float, int, str)


def _documents():
    return {"scenario": tiny_scenario_doc(), "scene": copy.deepcopy(TINY_SCENE)}


def _slots(doc, shape, path=()):
    """(path, shape) of every place in doc a mutation may set: shape is the value's schema, None
    for the null of an Optional key and list for a list as a whole. Lists are followed into every item."""
    optional = type(shape) is Optional
    if optional:
        shape = shape.shape
    if type(shape) is Either:
        shape = shape.fields if isinstance(doc, dict) else shape.items
    if doc is None:   # an Optional key left out
        if shape in _SCALARS or (type(shape) is tuple and all(s in _SCALARS for s in shape)):
            yield path, shape
        return
    if optional:
        yield path, None
    if type(shape) is dict:
        for key, sub in shape.items():
            yield from _slots(doc.get(key), sub, (*path, key))
    elif type(shape) is tuple:
        for i, sub in enumerate(shape):
            yield from _slots(doc[i], sub, (*path, i))
    elif type(shape) is list:
        yield path, list
        for i, item in enumerate(doc):
            yield from _slots(item, shape[0], (*path, i))
    else:
        yield path, shape


def _at(doc, path):
    for key in path:
        doc = doc.get(key) if isinstance(doc, dict) else doc[key]
        if doc is None:
            return None
    return doc


def _apply(doc, path, value):
    owner = doc
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = value


def _values(shape, original):
    """Values of a slot's JSON type: extremes, small values, and the original scaled or stepped."""
    if shape is None:
        return st.none()
    if shape is list:
        return st.sampled_from([[], original + original[:1]])
    if type(shape) is tuple:
        return st.tuples(*(_values(s, None) for s in shape)).map(list)
    if shape is float:
        near = [] if original is None else [original * f for f in (-1.0, 0.5, 2.0, 10.0)]
        return st.sampled_from([0.0, 1e300, -1e300, 1e-300, -1e-300, *near]) | st.floats(-4.0, 4.0)
    if shape is int:
        near = [] if original is None else [original + 1, 2 * original]
        return st.sampled_from([0, -1, 2**31, -2**31, 10**18, -10**18, *near]) | st.integers(-2, 4)
    # ids, roles, material names and file names; none holds "." or starts with "/", so every
    # file a run writes stays in its scenario's directory
    return st.sampled_from(["", "ap_a", "ap_b", "robot", "tx", "rx", "txrx", "metal", "board", "a/b",
                            "tiny.scene.json"]) | st.text("ab_ *?[", max_size=3)


@st.composite
def _mutations(draw):
    """1 or 2 (document, path, value) edits, each drawn from the documents the edits before it left."""
    docs, edits = _documents(), []
    for _ in range(draw(st.integers(1, 2))):
        name = draw(st.sampled_from(sorted(docs)))
        path, shape = draw(st.sampled_from(list(_slots(docs[name], SHAPES[name]))))
        value = draw(_values(shape, _at(docs[name], path)))
        _apply(docs[name], path, value)
        edits.append((name, path, value))
    return edits


def _cli_error(*argv) -> str:
    """The stderr of a cli.main call that must refuse, checked to be one error line."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv)) == 1
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err.getvalue()
    return err.getvalue()


_SNR = ("noise", "fingerprint_snr_db")


@given(edits=_mutations())
@example(edits=[("scenario", _SNR, 3090.0)])
@example(edits=[("scenario", _SNR, -4000.0)])
@example(edits=[("scenario", _SNR, 20.0), ("scenario", ("noise", "map_offset_m"), [0.0, -0.05])])
# a steering table of 2**31 rows asked for 768 GiB: a MemoryError traceback
@example(edits=[("scenario", ("network", "nodes", 0, "array", "elements"), 2**31)])
@example(edits=[("scenario", ("db", "build", "num_bins"), 2**31)])
# 1e300 wavelengths of 3e11 m made an infinite spacing, and its steering phase NaN
@example(edits=[("scenario", ("network", "nodes", 0, "array", "spacing_wavelengths"), 1e300),
                ("scenario", ("ofdm", "carrier_hz"), 1e-3)])
# 10 ** -320 is a positive float, but the noise's deviation divided by it overflowed
@example(edits=[("scenario", _SNR, -3200.0)])
# build-db wrote the database over the scene, which the run then could not read
@example(edits=[("scenario", ("db", "path"), "tiny.scene.json")])
# a received power of 1e300 W over 1e-300 W of noise made an infinite SNR, and the rates inf
@example(edits=[("scenario", ("network", "resources", "users", 0, "power_w"), 1e300),
                ("scenario", ("noise", "noise_power_w"), 1e-300)])
# 2 pi x 1e308 wavelengths overflowed the steering phase, and its cos was NaN
@example(edits=[("scenario", ("network", "nodes", 0, "array", "spacing_wavelengths"), 1e308)])
@settings(max_examples=150, derandomize=True, deadline=None)
def test_what_validate_accepts_builds_and_runs(edits):
    docs = _documents()
    for name, path, value in edits:
        _apply(docs[name], path, value)
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "tiny.scene.json").write_text(json.dumps(docs["scene"]))
        scenario = Path(tmp) / "tiny.json"
        scenario.write_text(json.dumps(docs["scenario"]))
        try:
            config = ScenarioConfig.from_file(scenario)
        except ConfigError:
            _cli_error("validate", str(scenario))
            return
        problems = validate_scenario(config)
        assert isinstance(problems, list)
        if problems:
            _cli_error("validate", str(scenario))
            return

        db, _ = build_db_for_scenario(config)
        assert np.isfinite(db.bins).all()
        steps = min(config.max_steps, 3)
        try:
            records = run_simulation(dataclasses.replace(config, max_steps=steps))
        except ValueError as exc:
            assert re.match(r"step \d+ \w+ phase failed", str(exc)), exc
            assert _cli_error("run", str(scenario), "--max-steps", str(steps)) == f"error: {exc}\n"
            return
        assert records
        for record in records:
            assert all(np.isfinite(rate) for rate in record.rates.values())
            for trace in record.agents.values():
                assert np.isfinite([trace.est_x, trace.est_y, trace.loc_score]).all()
