"""The benchmark's span list and call counts must hold.

``perfbench --trace 1`` wraps every entry of ``perfbench/spans.py``'s
``TARGETS`` and stops with "span list is stale" when one is missing, so a
change that deletes or renames a listed function breaks the traced benchmark.
Its self-check then fails the run unless the call counts match what the
workload implies: one ``trace_paths`` and one ``compute_mdp`` call per
(grid point, AP) while building the database, and per step two traces (four
with a map offset) and two ``beamformed_gains`` calls. Its multiply-
accumulate count reads ``beamformed_gains``' arguments by position, and its
set-up time assumes the world is set up once per run and per database build.
Two traces share each receiver's cached products: a grid point's from both
APs, and per step the agent's pose (and its map-offset copy). Only link traces
build their paths' gains or directions or take their paths' unfolded lines;
fingerprint traces bin powers and do none of these. The channel steers from
the directions, so no trace of a run turns them into angles. The
tiny scene is a closed box, all walls, so no trace's occlusion pass meets a plane.
These tests find all of these in the unit suite, on the tiny scenario. They
read ``spans.py`` by path and compile it in memory, so nothing under
``perfbench/`` is imported as a package or written.
"""

import dataclasses
import functools
import json
import types
from pathlib import Path

import pytest

from isactwin import raytrace, simcore

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans() -> types.ModuleType:
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_span_target_resolves():
    spans = load_spans()
    assert spans.TARGETS
    missing = []
    for name, module_name, attr_path in spans.TARGETS:
        try:
            spans._resolve(module_name, attr_path)
        except (AttributeError, ImportError) as exc:
            missing.append(f"{name}: {exc}")
    assert not missing, "\n".join(missing)


def traced(fn, *args, **kwargs):
    """Call fn under the benchmark's span wrappers; returns (result, tracer)."""
    tracer = load_spans().Tracer()
    with tracer:
        result = fn(*args, **kwargs)
    return result, tracer


@pytest.fixture
def chain_builds(monkeypatch):
    """The number of transmitter image chains the tracer builds (it caches one per tx Pose)."""
    builds = []
    build = raytrace._image_chain

    def counting(*args):
        builds.append(1)
        return build(*args)

    monkeypatch.setattr(raytrace, "_image_chain", counting)
    return builds


@pytest.fixture
def receiver_builds(monkeypatch):
    """The number of receiver entries the tracer builds (it caches one per rx Pose)."""
    builds = []
    build = raytrace._receiver

    def counting(*args):
        builds.append(1)
        return build(*args)

    monkeypatch.setattr(raytrace, "_receiver", counting)
    return builds


@pytest.fixture
def plane_passes(monkeypatch):
    """The number of occlusion passes that meet at least one surface's plane: none while
    both ends of every trace are in front of every wall, as in a closed room with no panel."""
    passes = []
    occluded = raytrace._occluded

    def counting(surfaces, *args):
        if len(surfaces.offsets):
            passes.append(1)
        return occluded(surfaces, *args)

    monkeypatch.setattr(raytrace, "_occluded", counting)
    return passes


def test_build_db_traces_and_bins_once_per_point_and_ap(tiny_scenario, chain_builds, receiver_builds,
                                                         plane_passes):
    config = simcore.ScenarioConfig.from_file(tiny_scenario)
    (db, _), tracer = traced(simcore.build_db_for_scenario, config)
    fingerprints = len(db.positions) * len(db.ap_ids)
    assert fingerprints == 70          # 35 grid points x 2 APs
    assert tracer.calls("localization.build_fingerprint_db") == 1
    assert tracer.calls("raytrace.trace_paths") == fingerprints
    assert tracer.calls("localization.compute_mdp") == fingerprints
    assert tracer.calls("channel.beamformed_gains") == 0
    assert len(chain_builds) == 2       # one per AP: the static APs' chains are reused
    assert len(receiver_builds) == 35   # one per grid point, reused by its second AP
    assert len(plane_passes) == 0       # the tiny scene is a closed box: six walls, no occluder


@pytest.mark.parametrize("map_offset,ap_b_subcarriers,traces_per_step", [
    (None, None, 2),
    ([0.0, -0.05], None, 4),
    (None, {"from": 9, "to": 24}, 2),    # ap_b half on top of ap_a's 1-16: gains are still once per link
], ids=["clean", "map-offset", "overlap"])
def test_run_call_counts_per_step(tiny_scenario, chain_builds, receiver_builds, plane_passes, map_offset,
                                  ap_b_subcarriers, traces_per_step):
    doc = json.loads(tiny_scenario.read_text())
    doc["noise"]["map_offset_m"] = map_offset
    if ap_b_subcarriers is not None:
        doc["network"]["resources"]["users"][1]["subcarriers"] = ap_b_subcarriers
    tiny_scenario.write_text(json.dumps(doc))
    config = simcore.ScenarioConfig.from_file(tiny_scenario)
    simcore.build_db_for_scenario(config)
    chain_builds.clear()
    receiver_builds.clear()
    records, tracer = traced(simcore.run_simulation, dataclasses.replace(config, max_steps=6))
    steps = len(records)
    assert steps == 6
    assert len(chain_builds) == 2       # one per AP over every link and fingerprint trace
    # the agent's pose ends both link traces, and its map-offset copy both fingerprint traces
    assert len(receiver_builds) == traces_per_step // 2 * steps
    assert len(plane_passes) == 0
    assert tracer.calls("simcore.sim_step") == steps
    assert tracer.calls("raytrace.trace_paths") == traces_per_step * steps
    assert tracer.calls("channel.beamformed_gains") == 2 * steps
    # ap_b has one element, whose MRT beamformer is [1]: only ap_a's link synthesizes a channel and takes its SVD
    assert tracer.calls("channel.synthesize_channel") == steps
    assert tracer.calls("channel.mrt_beamformer") == steps
    assert tracer.calls("localization.localize") == steps
    assert tracer.calls("localization.build_fingerprint_db") == 0
    # L * N * K * N_R per link and step over the link's own grid, with L from an
    # untraced run of the same config
    world, paths_per_step = link_path_counts(config, steps)
    cmac = 0
    for paths in paths_per_step:
        for (v, q), n_paths in paths.items():
            plan = world.rate_plan[(v, q)]
            cmac += (n_paths * len(plan.layout) * len(plan.symbols)
                     * world.graph.nodes[v].array.num_elements)
    assert cmac > 0
    assert tracer.counts["channel.cmac"] == cmac


@pytest.fixture
def line_takes(monkeypatch):
    """The groups traced PathSets build, each from its own take of its paths' lines: "_link" on
    the first read of a gain, a Doppler shift, a direction or an angle, "_geometry" on the first
    read of an order or a bounce point, and none on a read of powers and delays."""
    takes = []
    for name in ("_link", "_geometry"):
        build = raytrace.PathSet.__dict__[name].func

        def counting(paths, name=name, build=build):
            takes.append(name)
            return build(paths)

        prop = functools.cached_property(counting)
        prop.__set_name__(raytrace.PathSet, name)
        monkeypatch.setattr(raytrace.PathSet, name, prop)
    return takes


@pytest.fixture
def angle_calls(monkeypatch):
    """Calls of raytrace._direction_angles: a traced PathSet makes one on its first read of aoa
    and one of aod, and none if only its gains, delays and directions are read."""
    calls = []
    angles = raytrace._direction_angles

    def counting(*args):
        calls.append(1)
        return angles(*args)

    monkeypatch.setattr(raytrace, "_direction_angles", counting)
    return calls


@pytest.fixture
def gain_builds(monkeypatch):
    """Calls of raytrace._gain: a traced PathSet makes one when it builds its link group, and none
    if only its powers and delays are read."""
    calls = []
    gain = raytrace._gain

    def counting(*args):
        calls.append(1)
        return gain(*args)

    monkeypatch.setattr(raytrace, "_gain", counting)
    return calls


def test_fingerprint_traces_build_no_path_geometry(tiny_scenario, angle_calls, line_takes, gain_builds):
    config = simcore.ScenarioConfig.from_file(tiny_scenario)
    db, _ = simcore.build_db_for_scenario(config)
    assert len(db.positions) * len(db.ap_ids) == 70
    assert len(angle_calls) == 0
    assert line_takes == []         # no group is built
    assert len(gain_builds) == 0    # the MDPs bin powers: no phase is evaluated


@pytest.mark.parametrize("map_offset", [None, [0.0, -0.05]], ids=["clean", "map-offset"])
def test_only_link_traces_build_path_geometry(tiny_scenario, angle_calls, line_takes, gain_builds,
                                              map_offset):
    doc = json.loads(tiny_scenario.read_text())
    doc["noise"]["map_offset_m"] = map_offset
    tiny_scenario.write_text(json.dumps(doc))
    config = simcore.ScenarioConfig.from_file(tiny_scenario)
    simcore.build_db_for_scenario(config)
    angle_calls.clear()
    records = simcore.run_simulation(dataclasses.replace(config, max_steps=6))
    assert len(records) == 6
    # the channel steers from the link traces' directions; fingerprint traces read none
    assert len(angle_calls) == 0
    # the link group once per link trace, and no geometry: no layer of the loop reads a bounce
    assert line_takes == ["_link"] * 2 * len(records)
    assert len(gain_builds) == 2 * len(records)  # once per link trace; none per fingerprint trace


def link_path_counts(config, steps):
    """(world, [{link: paths traced} per step]) of an untraced run of config."""
    world = simcore.init_world(config)
    channels = []
    world.bus.subscribe("sim/channel/*", channels.append)
    counts = []
    for t in range(steps):
        simcore.sim_step(world, t)
        counts.append({tuple(m.topic.split("/")[2:]): len(m.payload) for m in channels})
        channels.clear()
    return world, counts


def test_run_loads_the_scene_once(tiny_scenario):
    config = simcore.ScenarioConfig.from_file(tiny_scenario)
    simcore.build_db_for_scenario(config)
    _, tracer = traced(simcore.run_simulation, dataclasses.replace(config, max_steps=2))
    assert tracer.calls("simcore.validate_scenario") == 1
    assert tracer.calls("simcore.init_world") == 1
    assert tracer.calls("scene.load_scene") == 1
    assert tracer.calls("network.build_network") == 1
    assert tracer.calls("network.allocate_resources") == 1


def test_build_db_sets_up_once(tiny_scenario):
    config = simcore.ScenarioConfig.from_file(tiny_scenario)
    _, tracer = traced(simcore.build_db_for_scenario, config)
    assert tracer.calls("simcore.validate_scenario") == 1
    assert tracer.calls("scene.load_scene") == 1
    assert tracer.calls("network.build_network") == 1
