"""Deterministic simulation loop over an in-process topic bus.

Each timestep runs six phases under a barrier, in a fixed total order:

    state update -> ray tracing -> signal generation -> observation
                 -> state estimation -> control

so no observation at step t can see a stale pose, and identical
(config, seed) pairs produce byte-identical trace files. Estimation localizes
exactly the observation, agent.observe's noisy MDPs. The phases publish
their results on the world's Bus, where a subscriber is a callable given each
matching Message(topic, step, payload): it observes the run, never steers it.

A phase that fails raises one ValueError that names its step and phase (_Phase).

README.md describes the scenario file ("Scenario file format"; _SCENARIO_KEYS is its schema as
read_document checks it) and the trace CSV ("Trace CSV"; AGENT_COLUMNS). A parsed scenario is a
value, like a Scene: it and its parts are frozen; a changed one is built with dataclasses.replace.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field, fields
from fnmatch import fnmatchcase
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import agent as agent_mod
from . import localization as loc_mod
from .channel import (OfdmParams, _GridLayout, _grid_layout, beamformed_gains, carrier_wavelength, mrt_beamformer,
                      synthesize_channel)
from .network import (
    ArrayConfig,
    NetworkError,
    Node,
    ResourceRequest,
    allocate_resources,
    build_network,
    incoming_edges,
)
from .raytrace import SPEED_OF_LIGHT as C, Pose, candidate_count, trace_paths, wrap_angle
from .scene import (_AT_LEAST_ONE, _POSITIVE, Either, Optional, Rule, SceneError, _conform, _lattice,
                    _set_read_only, json_digest, lattice_span, load_scene, read_document, scene_hash)


class ConfigError(ValueError):
    """Scenario document failed validation."""


# ---------------------------------------------------------------------------
# topic bus

class Message(NamedTuple):
    topic: str
    step: int
    payload: object


class Bus:
    """Each publish calls, in subscription order, every subscriber whose fnmatch
    pattern matches the topic; nothing is queued, so a late subscriber sees no
    earlier message. A subscriber that wants a queue passes list.append.
    publish checks no topic: the loop builds them from node ids, which
    the scenario schema checks (agent/<id>/state, sim/channel/<v>/<q>)."""

    def __init__(self):
        self._subs: list = []   # (fnmatch pattern, deliver callable)

    def subscribe(self, pattern: str, deliver):
        if not pattern or any(c.isspace() for c in pattern):
            raise ValueError(f"malformed topic pattern {pattern!r}")
        self._subs.append((pattern, deliver))

    def publish(self, topic: str, payload: object, step: int):
        for pattern, deliver in self._subs:
            if fnmatchcase(topic, pattern):
                deliver(Message(topic, step, payload))


# ---------------------------------------------------------------------------
# trace records

@dataclass(eq=False)
class AgentTrace:
    """One agent's part of a step; its fields are the trace CSV's agent columns, in order."""

    true_x: float
    true_y: float
    true_yaw: float
    est_x: float
    est_y: float
    loc_score: float
    v_cmd: float
    w_cmd: float


@dataclass(eq=False)
class TraceRecord:
    step: int
    time_s: float
    agents: dict          # agent id -> AgentTrace
    rates: dict           # (receiver id, transmitter id) -> bits/s/Hz


AGENT_COLUMNS = [f.name for f in fields(AgentTrace)]
TRACE_BASE_COLUMNS = ["step", "time_s", "agent_id", *AGENT_COLUMNS]


# ---------------------------------------------------------------------------
# scenario configuration

# a scenario "controller" key -> the agent.waypoint_control keyword argument it sets
_CONTROLLER_KEYS = {"k_ang": "k_ang", "v_max": "v_max", "w_max": "w_max", "waypoint_tol_m": "tol"}

# the most entries a document may ask of an array, bounded before it is built: a db.build grid, a user's
# index range or whole axis, a circle's waypoints, an antenna array, a profile's bins, the tracer's candidate
# table (candidate_count). About 5 000 times the shipped grid's 195 points; at 0.2 ms per fingerprint, minutes per AP
MAX_GRID_POINTS = 10**6

# the scenario document's schema, in the shapes read_document checks, with each key's default. A negative k_ang,
# v_max or w_max turns waypoint_control's command around, and no waypoint lies within a negative waypoint_tol_m;
# trace columns are rate_<agent>_<transmitter>, split at the first "_"; node ids are bus topic segments; numpy
# refuses a negative seed. A default of None is worked out from other fields: a left-out index set is the whole
# axis, height_m the first agent's z, and a left-out controller gain waypoint_control's own default
_NON_NEGATIVE = Rule(float, lambda x: x >= 0, ">= 0")
_NON_NEGATIVE_INT = Rule(int, lambda n: n >= 0, ">= 0")
_COUNT = Rule(int, lambda n: 1 <= n <= MAX_GRID_POINTS, f"in 1..{MAX_GRID_POINTS}")
_FILE_NAME = Rule(str, lambda name: "\0" not in name, "a string without a NUL byte")
_POSE = {"position": (float, float, float), "yaw_deg": Optional(float, 0.0)}
_ARRAY = {"elements": _COUNT, "spacing_wavelengths": Optional(_POSITIVE, 0.5), "boresight_deg": Optional(float, 0.0)}
_INDEX_SET = Optional(Either([int], {"from": int, "to": int}))
_USER = {"id": str, "subcarriers": _INDEX_SET, "symbols": _INDEX_SET, "power_w": Optional(_NON_NEGATIVE, 1.0)}
_CIRCLE = {"center": (float, float), "radius": float, "waypoints": Optional(_COUNT, 16),
           "start_angle_deg": Optional(float, 0.0)}
_SCENARIO_KEYS = {
    "scene": _FILE_NAME,
    "network": {"nodes": [{"id": Rule(str, lambda i: not any(c.isspace() or c in "/*?[" for c in i),
                                      "a string without whitespace, '/', '*', '?' or '['"),
                           "role": Rule(str, ("tx", "rx", "txrx").__contains__, "'tx', 'rx' or 'txrx'"),
                           "pose": Optional(_POSE), "array": Optional(_ARRAY)}],
                "edges": [(str, str)], "resources": Optional({"users": Optional([_USER], [])}, {})},
    "ofdm": {"n_subcarriers": _COUNT, "delta_f_hz": _POSITIVE, "n_symbols": _COUNT,
             "carrier_hz": Rule(float, carrier_wavelength, "a frequency whose wavelength c / x is finite and > 0")},
    "agents": Rule([{"id": Rule(str, lambda i: "_" not in i, "a string without '_'"), "initial_pose": _POSE,
                     "path": Either(Rule([(float, float)], bool, "a non-empty list"), {"circle": _CIRCLE}),
                     "controller": Optional(dict.fromkeys(_CONTROLLER_KEYS, Optional(_NON_NEGATIVE)), {})}],
                   bool, "a non-empty list"),
    "noise": Optional({"state_var": Optional(_NON_NEGATIVE, 0.0), "noise_power_w": Optional(_POSITIVE, 1e-12),
                       "fingerprint_snr_db": Optional(Rule(float, loc_mod.snr_power, "a dB value whose linear "
                                                           "power 10 ** (x / 10) and its inverse are finite")),
                       "map_offset_m": Optional((float, float), [0.0, 0.0])}, {}),
    "sim": {"dt_s": _POSITIVE, "max_steps": _AT_LEAST_ONE, "seed": Optional(_NON_NEGATIVE_INT, 0)},
    "raytrace": Optional({"max_order": Optional(_NON_NEGATIVE_INT, 2)}, {}),
    "db": Optional({"path": Optional(_FILE_NAME), "build": Optional({
        "spacing_m": Optional(_POSITIVE, 0.05), "bin_width_s": Optional(_POSITIVE, 12.5e-9),
        "height_m": Optional(float), "num_bins": Optional(_COUNT, 64),
        "roi_m": Optional((float,) * 4)})}, {}),
    "output": Optional({"trace_csv": Optional(_FILE_NAME, "trace.csv")}, {}),
}


@dataclass(frozen=True, eq=False)
class AgentSpec:
    id: str
    initial_pose: Pose
    waypoints: np.ndarray         # (n, 2), read-only
    gains: MappingProxyType       # the agent.waypoint_control keyword arguments the document sets

    def __post_init__(self):
        _set_read_only(self, waypoints=np.array(self.waypoints, dtype=float),
                       gains=MappingProxyType(dict(self.gains)))


@dataclass(frozen=True, eq=False)
class NoiseSpec:
    state_var: float
    noise_power_w: float
    fingerprint_snr_db: float | None
    map_offset: tuple


@dataclass(frozen=True, eq=False)
class DbBuildSpec:
    spacing: float
    bin_width: float
    num_bins: int
    roi: tuple | None       # (xmin, ymin, xmax, ymax)
    height: float | None    # None: the first agent's z


@dataclass(frozen=True, eq=False)
class DbSpec:
    path: Path | None
    build: DbBuildSpec | None


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    scene_path: Path
    nodes: tuple          # network.Node, in document order
    edges: tuple
    requests: tuple
    ofdm: OfdmParams
    agents: tuple
    noise: NoiseSpec
    dt: float
    max_steps: int
    seed: int
    max_order: int
    db: DbSpec
    trace_csv: Path
    scenario_path: Path | None = None   # the file the document was read from; None for from_dict
    # (scene file bytes, scene, graph, allocation, db.build grid) of a problem-free validate_scenario,
    # for _world_parts
    _validated_parts: tuple | None = field(default=None, init=False, repr=False)

    @classmethod
    def from_file(cls, path) -> "ScenarioConfig":
        return cls._parse(path := Path(path), path.parent)

    @classmethod
    def from_dict(cls, doc: dict, base_dir=Path(".")) -> "ScenarioConfig":
        return cls._parse(doc, Path(base_dir))

    @classmethod
    def _parse(cls, source, base_dir: Path) -> "ScenarioConfig":
        """The config of a scenario document, a file path or parsed, from the new document read_document returns
        for _SCENARIO_KEYS: every value fits its shape, every float is a float, a left-out key holds its default."""
        doc = read_document(source, ConfigError, "scenario", _SCENARIO_KEYS)
        ofdm_doc = doc["ofdm"]
        ofdm = OfdmParams(n_subcarriers=ofdm_doc["n_subcarriers"], n_symbols=ofdm_doc["n_symbols"],
                          delta_f=ofdm_doc["delta_f_hz"], carrier_freq=ofdm_doc["carrier_hz"])

        net = doc["network"]
        nodes = []
        for nd in net["nodes"]:
            array = arr = nd["array"]
            if arr is not None:
                try:
                    array = ArrayConfig(num_elements=arr["elements"],
                                        spacing=arr["spacing_wavelengths"] * ofdm.wavelength,
                                        boresight=math.radians(arr["boresight_deg"]))
                except NetworkError as exc:   # spacing_wavelengths x the wavelength past float range, or 0
                    raise ConfigError(f"malformed scenario document: {exc}") from exc
            nodes.append(Node(id=nd["id"], is_tx=nd["role"] != "rx", array=array, pose=_parse_pose(nd["pose"])))

        requests = tuple(
            ResourceRequest(user=user["id"], power_budget=user["power_w"],
                            subcarriers=_parse_index_set(user, "subcarriers", ofdm.n_subcarriers),
                            symbols=_parse_index_set(user, "symbols", ofdm.n_symbols))
            for user in net["resources"]["users"])

        agents = tuple(
            AgentSpec(id=ag["id"], initial_pose=_parse_pose(ag["initial_pose"]),
                      waypoints=_parse_path(ag["path"]),
                      gains={_CONTROLLER_KEYS[key]: value for key, value in ag["controller"].items()
                             if value is not None})
            for ag in doc["agents"])

        noise = doc["noise"]
        sim, db_doc, build = doc["sim"], doc["db"], doc["db"]["build"]
        if build is not None:
            build = DbBuildSpec(spacing=build["spacing_m"], bin_width=build["bin_width_s"], num_bins=build["num_bins"],
                                roi=build["roi_m"], height=build["height_m"])

        return cls(
            scene_path=base_dir / doc["scene"],
            nodes=tuple(nodes),
            edges=tuple(net["edges"]),
            requests=requests,
            ofdm=ofdm,
            agents=agents,
            noise=NoiseSpec(state_var=noise["state_var"], noise_power_w=noise["noise_power_w"],
                            fingerprint_snr_db=noise["fingerprint_snr_db"], map_offset=noise["map_offset_m"]),
            dt=sim["dt_s"],
            max_steps=sim["max_steps"],
            seed=sim["seed"],
            max_order=doc["raytrace"]["max_order"],
            db=DbSpec(path=None if db_doc["path"] is None else base_dir / db_doc["path"], build=build),
            trace_csv=base_dir / doc["output"]["trace_csv"],
            scenario_path=source if isinstance(source, Path) else None,
        )


def _parse_pose(doc: dict | None) -> Pose | None:
    return None if doc is None else Pose.at(*doc["position"], yaw=math.radians(doc["yaw_deg"]))


def _parse_index_set(user: dict, key: str, upper: int) -> range | list:
    """A user's indices under key, as ResourceRequest takes them (network.index_array): a list, a
    {from, to} range, counted before it is built, or all of 1..upper where the key is left out."""
    spec = user[key]
    if spec is None:
        return range(1, upper + 1)
    if not isinstance(spec, dict):
        return spec
    first, last = spec["from"], spec["to"]
    if last - first + 1 > MAX_GRID_POINTS:
        raise ConfigError(f"resources user {user['id']!r}: {key} {first}..{last} gives {last - first + 1} "
                          f"entries; at most {MAX_GRID_POINTS} are allowed")
    return range(first, last + 1)


def _parse_path(spec) -> np.ndarray:
    if isinstance(spec, dict):
        c = spec["circle"]
        return agent_mod.circle_waypoints(center=c["center"], radius=c["radius"], count=c["waypoints"],
                                          start_angle=math.radians(c["start_angle_deg"]))
    return np.asarray(spec, dtype=float).reshape(-1, 2)


def check_overrides(values: dict) -> None:
    """Refuse, with a ConfigError, the first command-line value for a scenario document key ("sim.seed": -1)
    that the document's own value would be refused for (_SCENARIO_KEYS); None is a value not given."""
    for key, value in values.items():
        shape = _SCENARIO_KEYS
        for part in key.split("."):
            shape = shape[part].shape if type(shape[part]) is Optional else shape[part]
        bad = None if value is None else _conform(value, shape)[1]
        if bad is not None:
            raise ConfigError(f"command line {bad[0]} .{key}{bad[2]}")


def file_identity(path):
    """One file by any path, link or hard link to it: os.stat's (inode, device) once it exists,
    else its os.path.realpath, which a write would create (the writers make missing parents)."""
    try:
        return os.stat(path)[1:3]   # (st_ino, st_dev)
    except OSError:   # `..` past a parent the writers would make can still reach a file
        real = os.path.realpath(path)
    try:
        return os.stat(real)[1:3]
    except OSError:
        return real


def validate_scenario(config: ScenarioConfig) -> list:
    """Total validation pass over the rules that read several fields or files (_SCENARIO_KEYS holds
    one field's, checked when the document is read); returns human-readable violation strings.

    When it finds no problem, the scene, network graph, resource allocation and
    db.build grid (None without db.build) it built on the way are kept on the
    config for the next init_world or build_db_for_scenario of it. A path-only
    scenario's database is checked, not kept: init_world loads its file again.
    With db.build the database file is not opened (build-db validates through
    here and overwrites a stale one), so run refuses a stale one at set-up.
    """
    problems = []
    scene = graph = allocation = scene_bytes = grid = paths = None
    if not config.scene_path.is_file():
        problems.append(f"scene file not found: {config.scene_path}")
    else:
        scene_bytes = config.scene_path.read_bytes()   # before the load: a rewrite makes init_world reload
        try:
            scene = load_scene(config.scene_path)
        except SceneError as exc:
            problems.append(f"scene invalid: {exc}")
    if scene is not None:
        surfaces = int(scene.stack.usable.sum())
        if (count := candidate_count(surfaces, config.max_order)) > MAX_GRID_POINTS:
            problems.append(f"raytrace.max_order {config.max_order} over the scene's {surfaces} planar surfaces "
                            f"gives a candidate table of ({surfaces} + 1) ** {config.max_order} = {count:.3g} "
                            f"entries; at most {MAX_GRID_POINTS} are allowed")
        else:
            paths = count   # a trace returns at most one path per candidate

    nodes = {n.id: n for n in config.nodes}
    agent_ids = {a.id for a in config.agents}
    wavelength = config.ofdm.wavelength
    # why each trace end, all in one pass, cannot end a trace: it lies more than 1e-9 m outside the scene's
    # bounds, or strictly behind a wall (the test trace_paths makes); a node without a pose ends none
    ends = np.array([n.pose.position if n.pose else np.zeros(3) for n in config.nodes]
                    + [a.initial_pose.position for a in config.agents]).reshape(-1, 3)
    misplaced = [""] * len(ends) if scene is None else np.where(
        ((ends < scene.bounds_min - 1e-9) | (ends > scene.bounds_max + 1e-9)).any(axis=1), "outside the scene bounds",
        np.where(scene.walls.behind(ends), "behind a wall of the scene", "")).tolist()
    for node, at in zip(config.nodes, misplaced):
        # channel._steering's phase step, which overflows before the spacing does
        if node.array is not None and not math.isfinite(2.0 * math.pi * (ratio := node.array.spacing / wavelength)):
            problems.append(f"node {node.id!r}: array spacing {ratio:.3g} wavelengths gives a steering phase "
                            "2 pi d / lambda out of float range")
        if node.id in agent_ids:
            if node.pose is not None:   # its agent's pose is the one that is read
                problems.append(f"node {node.id!r} is driven by its agent: pose is for static transmitters only")
        elif not node.is_tx:   # the loop builds links only into agents
            problems.append(f"receiver {node.id!r} is driven by no agent: a run would ignore it")
        elif node.pose is None:
            problems.append(f"transmitter {node.id!r} has no pose")
        elif at:
            problems.append(f"transmitter {node.id!r} is {at}")
    try:
        graph = build_network(config.nodes, config.edges)
    except NetworkError as exc:
        problems.append(f"network invalid: {exc}")
    else:
        # every communication link runs from a transmitter into an agent
        ends = {e for v in agent_ids & nodes.keys() for q in incoming_edges(graph, v) for e in (v, q)}
        for end in sorted(e for e in ends if graph.nodes[e].array is None):
            problems.append(f"node {end!r} ends a communication link but has no array")

    for req in config.requests:
        if req.user not in nodes:
            problems.append(f"resources reference unknown node {req.user!r}")
        elif not nodes[req.user].is_tx:   # a link's resources are its transmitter's
            problems.append(f"resources user {req.user!r} is not a transmitter: a run would ignore it")
    try:
        allocation = allocate_resources(config.requests, config.ofdm.n_subcarriers, config.ofdm.n_symbols)
    except NetworkError as exc:
        problems.append(f"resource allocation invalid: {exc}")
    if None not in (graph, allocation, paths):
        problems += _snr_overflows(config, graph, allocation, paths)

    for spec, at in zip(config.agents, misplaced[len(config.nodes):]):
        if spec.id not in nodes:
            problems.append(f"agent {spec.id!r} has no matching network node")
        if at:
            problems.append(f"agent {spec.id!r} starts {at}")

    # build-db and run write the two outputs, so neither may be the scenario, the scene or the other output
    seen = {file_identity(p): role for role, p in (("the scene file", config.scene_path),
                                                   ("the scenario file itself", config.scenario_path)) if p}
    for key, role, path in (("db.path", "the database file", config.db.path),
                            ("output.trace_csv", "the trace file", config.trace_csv)):
        if path is not None and path.is_dir():   # "" resolves to the scenario's own directory
            problems.append(f"{key} names a directory, not a file: {path}")
        elif path is not None and (named := seen.setdefault(file_identity(path), role)) != role:
            problems.append(f"{key} names {named}, which build-db or run would overwrite: {path}")
    if config.db.path is None and config.db.build is None:
        problems.append("db section needs a path or build instructions")
    if config.db.path is not None and not config.db.path.exists() and config.db.build is None:
        problems.append(f"database file not found and no build instructions: {config.db.path}")
    build = config.db.build
    if (build is None and config.db.path is not None and config.db.path.is_file() and scene is not None
            and graph is not None):
        # a path-only scenario runs on its file, so what ensure_db would refuse at set-up is refused here
        try:
            ensure_db(config, scene, graph, None)
        except loc_mod.DatabaseError as exc:
            problems.append(str(exc))
    if build is not None:
        if graph is not None and not _static_aps(config, graph):
            problems.append("no static transmitter nodes to fingerprint")
        if scene is not None:
            try:
                grid = _db_grid(config, scene)
            except ConfigError as exc:
                problems.append(str(exc))
            else:
                behind = scene.walls.behind(grid)
                if behind.any():
                    problems.append(f"db.build grid point {tuple(grid[behind.argmax()].tolist())} is behind "
                                    f"a wall of the scene ({behind.sum()} of its {len(grid)} points are)")
                # no path is shorter than the straight line from a placed static transmitter (inf past any window)
                aps = [n.pose.position for n, at in zip(config.nodes, misplaced)
                       if n.is_tx and n.id not in agent_ids and n.pose and not at]
                shortest = 0.0
                if aps:   # the root of the least square, np.linalg.norm's least bit for bit
                    with np.errstate(over="ignore"):
                        shortest = np.sqrt(np.square(grid[:, None] - np.array(aps)).sum(axis=-1).min()) / C
                if (window := build.num_bins * build.bin_width) <= shortest:
                    problems.append(f"db.build bin window num_bins x bin_width_s = {build.num_bins} x "
                                    f"{build.bin_width:g} s = {window:.4g} s ends at or before the shortest line-"
                                    f"of-sight delay {shortest:.4g} s from a static transmitter to a db.build grid "
                                    "point: every fingerprint path would land past it")

    if not problems:
        object.__setattr__(config, "_validated_parts", (scene_bytes, scene, graph, allocation, grid))
    return problems


def _snr_overflows(config: ScenarioConfig, graph, allocation, paths: float) -> list:
    """One problem per receiver agent whose rates could overflow, naming its largest transmitter.
    A traced amplitude is at most 1 and |a_T^T w| <= sqrt(N_T), so a link of at most `paths` paths
    receives at most (power per cell) N_T N_R paths ** 2 on a cell. Summed over the receiver's
    links, that bounds each link's received power and its co-channel interference, so a finite
    (sum + noise) / noise keeps sim_step's SNRs and rates finite."""
    problems, noise = [], config.noise.noise_power_w
    for v in sorted({a.id for a in config.agents} & graph.nodes.keys()):
        ends = {q: graph.nodes[q].array for q in sorted(incoming_edges(graph, v)) if q in allocation.users}
        rx = graph.nodes[v].array
        if rx is None or None in ends.values():   # refused as a link end without an array
            continue
        terms = {q: allocation.users[q].uniform_power * tx.num_elements * rx.num_elements * paths * paths
                 for q, tx in ends.items()}
        if not math.isfinite((sum(terms.values()) + noise) / noise):
            q = max(terms, key=terms.get)
            problems.append(f"transmitter {q!r}: power_w {allocation.users[q].power_budget:g} can give receiver "
                            f"{v!r} an SNR past float range over noise.noise_power_w {noise:g} (bound: up to "
                            f"{paths:g} paths, {ends[q].num_elements} transmit and {rx.num_elements} receive elements)")
    return problems


def _world_parts(config: ScenarioConfig) -> tuple:
    """(scene, graph, allocation, grid) of a valid config: the parts validate_scenario
    handed over if the scene file's bytes are unchanged since, else those of a new
    validate_scenario, whose problems are raised as one ConfigError."""
    handed = config._validated_parts
    if handed is None or handed[0] != config.scene_path.read_bytes():
        problems = validate_scenario(config)
        if problems:
            raise ConfigError("; ".join(problems))
        handed = config._validated_parts
    object.__setattr__(config, "_validated_parts", None)   # the hand-over is used once
    return handed[1:]


# ---------------------------------------------------------------------------
# fingerprint database plumbing

def _static_aps(config: ScenarioConfig, graph) -> list:
    agent_ids = {a.id for a in config.agents}
    aps = []
    for node_id in sorted(graph.nodes):
        node = graph.nodes[node_id]
        if node.is_tx and node_id not in agent_ids:
            aps.append((node_id, node.pose))
    return aps


def db_signature(config: ScenarioConfig, graph) -> str:
    """Digest of the network that shapes the fingerprint database: the static
    APs (id, position, yaw), the carrier and the reflection order. The scene
    has its own stamp, and ensure_db checks the grid by value."""
    aps = [{"id": ap_id, "position": pose.position.tolist(), "yaw": pose.yaw}
           for ap_id, pose in _static_aps(config, graph)]
    return json_digest({"aps": aps, "carrier_hz": config.ofdm.carrier_freq, "max_order": config.max_order})


def _db_grid(config: ScenarioConfig, scene) -> np.ndarray:
    """The fingerprint grid of db.build: the floor lattice at db.build.height_m, else the
    first agent's z, cut to the ROI. The lattice, or with an ROI its block that spans the ROI
    (lattice_span), is counted before it is built. Raises ConfigError for settings that give
    no grid or more than MAX_GRID_POINTS."""
    build = config.db.build
    height = build.height if build.height is not None else float(config.agents[0].initial_pose.position[2])
    if not scene.bounds_min[2] - 1e-9 <= height <= scene.bounds_max[2] + 1e-9:
        raise ConfigError(f"db.build height {height} outside the scene's z bounds")
    span = lattice_span(scene, build.spacing, build.roi)   # counted here, built from it
    (x0, y0), (x1, y1) = (end.tolist() for end in span)
    points = (x1 - x0) * (y1 - y0) if x1 > x0 and y1 > y0 else 0.0   # inf past the float range
    if not points <= MAX_GRID_POINTS:
        where = ("over the scene bounds" if build.roi is None
                 else f"to span db.build.roi_m {list(build.roi)}")
        raise ConfigError(f"db.build.spacing_m {build.spacing} gives a floor grid of {points:.3g} points "
                          f"{where}; at most {MAX_GRID_POINTS} are allowed")
    grid = _lattice(scene, build.spacing, height, build.roi, *span) if points else np.empty((0, 3))
    if len(grid) == 0:
        raise ConfigError(f"db.build.roi_m {list(build.roi)} holds no point of the floor grid")
    return grid


def build_db_for_scenario(config: ScenarioConfig):
    """Build the fingerprint database of a valid scenario, saved to db.path if set; returns (db, db.path)."""
    scene, graph, _, grid = _world_parts(config)
    return _build_db(config, scene, graph, grid), config.db.path


def _build_db(config: ScenarioConfig, scene, graph, grid) -> loc_mod.FingerprintDB:
    """Fingerprint grid, db.build's _db_grid as validate_scenario built it, from every static AP
    (validate_scenario refuses a db.build without one); saved to db.path unless it is None."""
    build = config.db.build
    if build is None:
        raise ConfigError("scenario has no db.build instructions")
    db = loc_mod.build_fingerprint_db(
        scene, _static_aps(config, graph), grid, bin_width=build.bin_width, num_bins=build.num_bins,
        spacing=build.spacing, max_order=config.max_order, carrier_freq=config.ofdm.carrier_freq,
        scene_hash=scene_hash(scene), network_hash=db_signature(config, graph),
    )
    if config.db.path is not None:
        loc_mod.save_db(db, config.db.path)
    return db


def ensure_db(config: ScenarioConfig, scene, graph, grid) -> loc_mod.FingerprintDB:
    """Load the scenario database, or build it if absent. A file is stale when its scene or
    network stamp differs from the scenario's (an empty one matches none) or, with db.build,
    when its bin width, bin count or positions differ from db.build's; with db.build each
    refusal ends "; rebuild it", which build-db does. grid is db.build's _db_grid, as
    validate_scenario built it; None without db.build. validate_scenario runs it on a
    path-only scenario's file to refuse what init_world would, and keeps nothing of it."""
    path = config.db.path
    if path is None or not path.is_file():
        return _build_db(config, scene, graph, grid)
    db = loc_mod.load_db(path)
    build = config.db.build
    rebuild = "" if build is None else "; rebuild it"
    if db.scene_hash != scene_hash(scene):
        raise loc_mod.DatabaseError(f"database {path} was built for a different scene{rebuild}")
    if db.network_hash != db_signature(config, graph):
        raise loc_mod.DatabaseError(f"database {path} was built for a different network setup{rebuild}")
    if build is not None and not (db.bin_width == build.bin_width and db.num_bins == build.num_bins
                                  and np.array_equal(db.positions, grid)):
        raise loc_mod.DatabaseError(
            f"database {path} was built with different db.build settings "
            "(spacing, bins, ROI or height); rebuild it"
        )
    return db


# ---------------------------------------------------------------------------
# world state and the step loop

@dataclass(eq=False)
class _AgentRuntime:
    spec: AgentSpec
    pose: Pose
    heading: float              # the odometry yaw: the commands integrated without noise
    control: agent_mod.Control
    rng: np.random.Generator    # the state noise's generator
    index: int = 0              # the active waypoint's; len(spec.waypoints) once the path is done


@dataclass(eq=False)
class World:
    config: ScenarioConfig
    scene: object
    graph: object
    db: loc_mod.FingerprintDB
    bus: Bus
    agents: dict
    fp_rng: np.random.Generator
    rate_plan: dict       # (receiver agent, transmitter) link, sorted -> _LinkPlan, or None without resources


@dataclass(eq=False)
class _LinkPlan:
    """What phase 3 needs of one link that does not change after init_world."""

    layout: _GridLayout       # the grid layout of the transmitter's sub-carriers, sorted
    symbols: np.ndarray       # its symbols, sorted
    rep: tuple                # (n, k) at which the MRT beamformer is computed
    power: float              # the transmitter's uniform_power
    interferers: list         # (other transmitter into the same receiver, np.ix_ of the shared
                              #  cells in this link's grid, np.ix_ of them in the other's grid)


def _rate_plan(links: list, allocation) -> dict:
    """One _LinkPlan per communication link, None for a transmitter without resources.

    Interferers keep the order of `links`; a pair that shares no cell is left out.
    The allocation's sorted index sets are taken as they are.
    """
    plan = {}
    for v, q in links:
        alloc = allocation.users.get(q)
        if alloc is None:
            plan[(v, q)] = None
            continue
        interferers = []
        for vv, qq in links:
            if vv != v or qq == q or (other := allocation.users.get(qq)) is None:
                continue
            if (cells := _shared_cells(alloc, other)) is not None:
                interferers.append((qq, *cells))
        subs, syms = alloc.subcarriers, alloc.symbols
        plan[(v, q)] = _LinkPlan(
            layout=_grid_layout(subs), symbols=syms,
            rep=(subs[len(subs) // 2], syms[0]), power=alloc.uniform_power,
            interferers=interferers,
        )
    return plan


def _shared_cells(alloc, other) -> tuple | None:
    """(np.ix_ of the cells in alloc's grid that other's holds too, np.ix_ of them in other's grid),
    or None if they share none. The index sets are sorted, so two whose sub-carrier spans do not
    overlap share none, and the symbols are intersected only where a sub-carrier is shared."""
    ours, theirs = alloc.subcarriers, other.subcarriers
    if ours[-1] < theirs[0] or theirs[-1] < ours[0]:   # users on separate sub-bands, the usual plan
        return None
    _, here_n, there_n = np.intersect1d(ours, theirs, assume_unique=True, return_indices=True)
    if not len(here_n):
        return None
    _, here_k, there_k = np.intersect1d(alloc.symbols, other.symbols, assume_unique=True, return_indices=True)
    return (np.ix_(here_n, here_k), np.ix_(there_n, there_k)) if len(here_k) else None


def init_world(config: ScenarioConfig) -> World:
    scene, graph, allocation, grid = _world_parts(config)
    agents = {}
    for idx, spec in enumerate(sorted(config.agents, key=lambda a: a.id)):
        agents[spec.id] = _AgentRuntime(
            spec=spec,
            pose=spec.initial_pose,
            heading=spec.initial_pose.yaw,
            control=agent_mod.Control(0.0, 0.0),
            rng=np.random.default_rng([config.seed, 11, idx]),
        )
    links = [(v, q) for v in sorted(agents) for q in sorted(incoming_edges(graph, v))]
    return World(
        config=config,
        scene=scene,
        graph=graph,
        db=ensure_db(config, scene, graph, grid),
        bus=Bus(),
        agents=agents,
        fp_rng=np.random.default_rng([config.seed, 13]),
        rate_plan=_rate_plan(links, allocation),
    )


# the MRT beamformer of every one-element transmitter, read-only
_SINGLE_ANTENNA_MRT = np.ones(1, dtype=complex)
_SINGLE_ANTENNA_MRT.flags.writeable = False


class _Phase:
    """with _Phase(t, phase[, agent]): a ValueError raised inside is raised again as
    "step <t> <phase> phase failed[ for '<agent>']: <message>". A class, not a generator
    context manager, which costs about three times as much per use."""

    __slots__ = ("t", "phase", "agent")

    def __init__(self, t: int, phase: str, agent: str | None = None):
        self.t, self.phase, self.agent = t, phase, agent

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if kind is not None and issubclass(kind, ValueError):
            who = "" if self.agent is None else f" for {self.agent!r}"
            raise ValueError(f"step {self.t} {self.phase} phase failed{who}: {exc}") from exc


def sim_step(world: World, t: int) -> TraceRecord:
    """Advance all agents one timestep and emit the step's trace record."""
    cfg = world.config
    bus = world.bus

    # phase 1: state update with the past control command
    for aid in sorted(world.agents):
        rt = world.agents[aid]
        with _Phase(t, "state", aid):
            rt.pose = agent_mod.step_state(rt.pose, rt.control, cfg.noise.state_var, rt.rng, cfg.dt)
        rt.heading = wrap_angle(rt.heading + rt.control.omega * cfg.dt)
        bus.publish(f"agent/{aid}/state", rt.pose, step=t)

    # phase 2: refresh propagation parameters for all links
    pathsets = {}
    with _Phase(t, "raytrace"):
        for v, q in world.rate_plan:
            tx_pose = world.agents[q].pose if q in world.agents else world.graph.nodes[q].pose
            rx_pose = world.agents[v].pose
            pathsets[(v, q)] = trace_paths(
                world.scene, tx_pose, rx_pose,
                max_order=cfg.max_order, carrier_freq=cfg.ofdm.carrier_freq,
            )
            bus.publish(f"sim/channel/{v}/{q}", pathsets[(v, q)], step=t)

    # phase 3: signal generation: each link's MRT beamformer and received power
    # on its own cells, then its rate with the other links' received power on
    # the cells they share with it as interference; the plan holds those cells
    # and the grid's layout. A one-element transmitter's MRT beamformer is [1]
    # (mrt_beamformer), so its link synthesizes no channel and takes no SVD.
    received = {}
    rates = {}
    with _Phase(t, "signal"):
        for (v, q), plan in world.rate_plan.items():
            paths = pathsets[(v, q)]
            if plan is None or len(paths) == 0:
                continue
            tx_array, rx_array = world.graph.nodes[q].array, world.graph.nodes[v].array
            w = _SINGLE_ANTENNA_MRT if tx_array.num_elements == 1 else mrt_beamformer(
                synthesize_channel(paths, tx_array, rx_array, *plan.rep, cfg.ofdm))
            received[(v, q)] = gains = beamformed_gains(
                paths, tx_array, rx_array, w, cfg.ofdm, plan.layout, plan.symbols)
            gains *= plan.power
        for (v, q), plan in world.rate_plan.items():
            rates[(v, q)] = 0.0
            if (v, q) in received:
                # one buffer, in place: the interference, noise + it, the SNR, 1 + the SNR, its log2
                buf = np.zeros(received[(v, q)].shape)
                for qq, here, there in plan.interferers:
                    if (v, qq) in received:
                        buf[here] += received[(v, qq)][there]
                buf += cfg.noise.noise_power_w
                np.log2(np.add(np.divide(received[(v, q)], buf, out=buf), 1.0, out=buf), out=buf)
                rates[(v, q)] = float(np.add.reduce(buf, axis=None) / buf.size)
            bus.publish(f"metrics/rate/{v}/{q}", rates[(v, q)], step=t)

    # phases 4-6 per agent: observation, estimation, control
    agent_traces = {}
    dx, dy = cfg.noise.map_offset
    has_offset = dx != 0.0 or dy != 0.0
    for aid in sorted(world.agents):
        rt = world.agents[aid]
        pose = rt.pose

        # phase 4: observation: the MDP of every AP at the fingerprint pose, the agent's own or its
        # map-offset copy; a link trace ends at the agent's own pose, so it is reused without offset
        fp_pose = Pose(position=pose.position + (dx, dy, 0.0)) if has_offset else pose
        with _Phase(t, "observation", aid):
            mdps = {}
            for ap_id in world.db.ap_ids:
                paths = None if has_offset else pathsets.get((aid, ap_id))
                if paths is None:
                    paths = trace_paths(world.scene, world.graph.nodes[ap_id].pose, fp_pose,
                                        max_order=cfg.max_order, carrier_freq=cfg.ofdm.carrier_freq)
                mdps[ap_id] = loc_mod.compute_mdp(paths, world.db.bin_width, world.db.num_bins)
            obs = agent_mod.observe(mdps, cfg.noise.fingerprint_snr_db, world.fp_rng)
            bus.publish(f"agent/{aid}/obs", obs, step=t)

        # phase 5: state estimation by fingerprint matching
        with _Phase(t, "estimation", aid):
            est, score = loc_mod.localize(obs, world.db)
        bus.publish(f"agent/{aid}/estimate", (est, score), step=t)

        # phase 6: next control command toward the active waypoint
        rt.control, rt.index = agent_mod.waypoint_control(
            est, rt.heading, rt.spec.waypoints, rt.index, **rt.spec.gains)
        bus.publish(f"agent/{aid}/control", rt.control, step=t)

        agent_traces[aid] = AgentTrace(
            true_x=float(pose.position[0]),
            true_y=float(pose.position[1]),
            true_yaw=pose.yaw,
            est_x=float(est[0]),
            est_y=float(est[1]),
            loc_score=score,
            v_cmd=rt.control.v,
            w_cmd=rt.control.omega,
        )

    record = TraceRecord(step=t, time_s=t * cfg.dt, agents=agent_traces, rates=rates)
    bus.publish("sim/trace", record, step=t)
    return record


def run_simulation(config: ScenarioConfig, trace_path=None) -> list:
    """Run until every agent reaches its terminal waypoint or max steps elapse.

    The trace is streamed to CSV as it is produced (the file is valid after
    every step) and returned as a list of TraceRecords. Bit-reproducible for
    a fixed (config, seed).
    """
    world = init_world(config)
    out_path = Path(trace_path) if trace_path is not None else config.trace_csv
    records = []
    with TraceWriter(out_path, world.rate_plan) as writer:
        for t in range(config.max_steps):
            record = sim_step(world, t)
            writer.write_record(record)
            records.append(record)
            if all(rt.index == len(rt.spec.waypoints) for rt in world.agents.values()):
                break
    return records


# ---------------------------------------------------------------------------
# trace persistence

class TraceWriter:
    """Streaming CSV writer; flushes after every record so a crash leaves valid CSV."""

    def __init__(self, path, links):
        self.path = Path(path)
        self.links = list(links)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("w", newline="")
        self._writer = csv.writer(self._fh)
        self._writer.writerow(TRACE_BASE_COLUMNS + [f"rate_{v}_{q}" for v, q in self.links])
        self._fh.flush()

    def write_record(self, record: TraceRecord):
        for aid in sorted(record.agents):
            ag = record.agents[aid]
            row = [record.step, repr(float(record.time_s)), aid]
            row += [repr(float(getattr(ag, c))) for c in AGENT_COLUMNS]
            row += [repr(float(record.rates.get(link, 0.0))) for link in self.links]
            self._writer.writerow(row)
        self._fh.flush()

    def close(self):
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def read_trace_csv(path) -> list:
    """Parse a trace CSV back into TraceRecords (rates keyed from the header).

    TraceWriter ends every row with a line break, so a row without one, or
    with another column count than the header, was cut short: ValueError
    naming the file and the line.
    """
    path = Path(path)
    records: dict = {}
    with path.open(newline="") as fh:
        lines = fh.read().splitlines(keepends=True)
    reader = csv.DictReader(lines)
    if reader.fieldnames is None or reader.fieldnames[: len(TRACE_BASE_COLUMNS)] != TRACE_BASE_COLUMNS:
        raise ValueError(f"{path}: unexpected trace columns")
    rate_cols = [c for c in reader.fieldnames if c.startswith("rate_")]
    for row in reader:
        if None in row or None in row.values() or not lines[reader.line_num - 1].endswith("\n"):
            raise ValueError(f"{path}: line {reader.line_num} is not a whole trace row")
        step = int(row["step"])
        rec = records.get(step)
        if rec is None:
            rates = {}
            for col in rate_cols:
                v, q = col[len("rate_"):].split("_", 1)
                rates[(v, q)] = float(row[col])
            rec = TraceRecord(step=step, time_s=float(row["time_s"]), agents={}, rates=rates)
            records[step] = rec
        rec.agents[row["agent_id"]] = AgentTrace(*(float(row[c]) for c in AGENT_COLUMNS))
    return [records[s] for s in sorted(records)]
