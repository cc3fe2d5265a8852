"""Indoor environment model: convex planar surfaces with scalar reflection materials.

The scene is a flat list of convex polygons, each tagged with a material whose
single amplitude reflection coefficient conditions the multipath solver.
A surface's plane is its Newell plane (unit_normal . x = plane_offset): the
tracer reflects in it and validation measures planarity from it.
The geometry is one (S, V, 3) vertex stack (Stack), each polygon padded to the largest
vertex count V with copies of its first vertex; one array pass (_planes) derives every
plane and edge table from it, and validation, the walls and the tracer's plan read them.
Scenes are loaded from a JSON document, whose schema is README.md's "Scene
documents" (_SCENE_KEYS, as read_document checks it). A loaded
scene is a value, like a Pose: it, its surfaces, materials and arrays are
read-only. A changed scene is built with dataclasses.replace.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

# Max distance of any vertex from its surface's Newell plane, the plane the tracer reflects in.
PLANARITY_TOL = 1e-9

# A point whose distance outside a polygon edge, times that edge's length
# (the length of n x edge), is at most this still counts as inside, so a
# reflection on the edge shared by two surfaces is kept.
CONTAINS_TOL = 1e-9


class Optional(NamedTuple):
    """A key that an object may leave out or set to null; either way it takes default (None stays None)."""
    shape: object
    default: object = None


class Either(NamedTuple):
    """A list of items or an object of fields, chosen by the value's JSON kind."""
    items: list
    fields: dict


class Rule(NamedTuple):
    """A value of shape that must also pass test: a predicate, or a function that raises ValueError
    for a value it refuses. text states the rule, as in "has 0.0 at .sim.dt_s, which must be > 0"."""
    shape: object
    test: object
    text: str


# rules that more than one document's schema states
_POSITIVE = Rule(float, lambda x: x > 0, "> 0")
_AT_LEAST_ONE = Rule(int, lambda n: n >= 1, ">= 1")

# the scene document's schema, in the shapes read_document checks
_XYZ = (float, float, float)
_SCENE_KEYS = {"materials": [{"name": Rule(str, bool, "a non-empty string"),
                              "reflection_coeff": Rule(float, lambda x: 0 <= x <= 1, "in [0, 1]")}],
               "surfaces": Rule([{"vertices": Rule([_XYZ], bool, "a non-empty list"), "material": str}], bool,
                                "a non-empty list"),
               "bounds": {"min": _XYZ, "max": _XYZ}}


class Walls(NamedTuple):
    """The planar surfaces whose plane has every vertex of the scene on one closed side, the scene
    side, and not all on it. No segment between two points on that side crosses a wall inside its
    ends (beam tracing's convex cells, Funkhouser et al., SIGGRAPH 1998)."""

    normals: np.ndarray   # (W, 3) the walls' planes, turned so the scene side is n . x >= offset
    offsets: np.ndarray   # (W,)
    mask: np.ndarray      # (S,) which planar surfaces, in scene order, are walls

    def behind(self, points: np.ndarray) -> np.ndarray:
        """(P,) mask of the points (P, 3) strictly behind a wall; one on a wall's plane is not."""
        return (points @ self.normals.T < self.offsets).any(axis=1)


class SceneError(ValueError):
    """Malformed scene document or invariant violation at load time."""


@dataclass(frozen=True)
class Material:
    name: str
    reflection_coeff: float


class Stack(NamedTuple):
    """Every surface's tables, row s for surface s, read-only (a row not usable has no plane). A polygon
    of n < V vertices is padded with copies of its first vertex: edge i runs from vertex i to i + 1, the
    closing edge is row n - 1, and a padding edge has zero length: zero Newell term, normal and offset."""

    vertices: np.ndarray      # (S, V, 3) the padded polygons
    counts: np.ndarray        # (S,) vertex counts
    usable: np.ndarray        # (S,) which have a plane: >= 3 vertices, a finite nonzero Newell normal
    normals: np.ndarray       # (S, 3) Newell unit normals n; the plane is n . x = offset
    offsets: np.ndarray       # (S,)
    edge_normals: np.ndarray  # (S, V, 3) n x edge; x is inside edge i if edge_normals[i] . x >= edge_offsets[i]
    edge_offsets: np.ndarray  # (S, V)


@dataclass(frozen=True, eq=False)
class Surface:
    """Convex planar polygon with an attached material.

    Vertices are ordered (either winding); consecutive vertices must not be
    collinear so the normal is well defined. Derived plane quantities are
    computed defensively: a degenerate vertex list leaves them None instead
    of raising, so validation can still describe the defect.
    """

    vertices: np.ndarray
    material: Material
    name: str = ""
    unit_normal: np.ndarray | None = field(init=False, default=None, repr=False)
    plane_offset: float = field(init=False, default=0.0, repr=False)
    edge_normals: np.ndarray | None = field(init=False, default=None, repr=False)  # (V, 3), as Stack's
    edge_offsets: np.ndarray | None = field(init=False, default=None, repr=False)  # (V,)

    def __post_init__(self):
        v = np.array(np.atleast_2d(self.vertices), dtype=float)
        if v.ndim != 2 or v.shape[1] != 3 or not len(v):
            raise SceneError(f"surface {self.name!r}: vertices must be an (n, 3) array")
        _take_row(self, _planes([v.tolist()]), 0)


def _take_row(surface: Surface, stack: Stack, i: int, **fields) -> Surface:
    """surface with fields, and its vertices and plane fields as views of row i of stack (None without a plane)."""
    n, planar = int(stack.counts[i]), bool(stack.usable[i])
    fields.update(vertices=stack.vertices[i, :n], unit_normal=stack.normals[i] if planar else None,
                  plane_offset=float(stack.offsets[i]) if planar else 0.0,
                  edge_normals=stack.edge_normals[i, :n] if planar else None,
                  edge_offsets=stack.edge_offsets[i, :n] if planar else None)
    for name, value in fields.items():
        object.__setattr__(surface, name, value)
    return surface


@dataclass(frozen=True, eq=False)
class Scene:
    """Surfaces, materials and bounds. Its stack (Stack) is its surfaces' padded vertices and tables: a
    loaded scene's is its document's, and one built in code derives its own with the same formula."""

    surfaces: tuple[Surface, ...]
    materials: MappingProxyType   # material name -> Material
    bounds_min: np.ndarray
    bounds_max: np.ndarray

    def __post_init__(self):
        _set_read_only(self, surfaces=tuple(self.surfaces), materials=MappingProxyType(dict(self.materials)),
                       bounds_min=np.array(self.bounds_min, dtype=float),
                       bounds_max=np.array(self.bounds_max, dtype=float))

    @cached_property
    def stack(self) -> Stack:
        """The surfaces' plane and edge tables (see Stack), read-only."""
        return _planes([s.vertices.tolist() for s in self.surfaces])

    @cached_property
    def walls(self) -> Walls:
        """The walls, found once with zero tolerance on the computed vertex heights, read-only. A plane
        that holds every vertex makes no wall: a flat scene has no side."""
        t = self.stack
        normals, offsets = t.normals[t.usable], t.offsets[t.usable]
        vertices = t.vertices[t.usable[:, None] & (np.arange(t.vertices.shape[1]) < t.counts[:, None])]
        heights = normals @ vertices.T - offsets[:, None]   # (S, all vertices)
        ahead = (heights >= 0.0).all(axis=1)
        mask = ahead != (heights <= 0.0).all(axis=1)
        facing = np.where(ahead, 1.0, -1.0)[mask]
        return Walls(*_read_only(normals[mask] * facing[:, None], offsets[mask] * facing, mask))


def _planes(polygons: list) -> Stack:
    """The Stack of polygons given as lists of [x, y, z], in one array pass: the one formula for every
    surface's tables. numpy sums a Newell row of fewer than 8 terms in order, so while V < 8 padding's
    zero terms leave it the polygon's own sum; 8 or more it sums pairwise, in blocks set by V."""
    counts = np.array([len(p) for p in polygons], dtype=np.intp)
    width = max(counts, default=1)
    vertices = np.array([p + p[:1] * (width - len(p)) for p in polygons] or np.empty((0, 1, 3)), dtype=float)
    ahead = np.concatenate((vertices[:, 1:], vertices[:, :1]), axis=1)   # vertex i + 1
    with np.errstate(over="ignore", invalid="ignore"):   # past the float limit: validate_scene's bounds check
        # (y - y')(z + z'), (z - z')(x + x') and (x - x')(y + y'), each summed over a contiguous row
        d, s = vertices - ahead, vertices + ahead
        newell = (d[..., [1, 2, 0]] * s[..., [2, 0, 1]]).transpose(0, 2, 1).copy().sum(axis=2)
        norm = np.sqrt(np.vecdot(newell, newell))
        usable = (counts >= 3) & (norm >= 1e-15) & (norm < math.inf)   # not zero area, nor overflowed
        normals = newell / norm[:, None]
        n, e = normals[:, None], ahead - vertices   # n x edge, with np.cross's products in its order
        edge_normals = n[..., [1, 2, 0]] * e[..., [2, 0, 1]] - n[..., [2, 0, 1]] * e[..., [1, 2, 0]]
        return Stack(*_read_only(vertices, counts, usable, normals, np.vecdot(normals, vertices[:, 0]),
                                 edge_normals, np.vecdot(edge_normals, vertices)))


def _read_only(*arrays) -> tuple:
    """The arrays, each locked against writes: whoever keeps one, a cache or a reader of a shared
    table, can rely on its values."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _set_read_only(obj, **values) -> None:
    """Set a frozen dataclass's fields; each array is the object's own copy and is locked first."""
    for name, value in values.items():
        if isinstance(value, np.ndarray):
            _read_only(value)
        object.__setattr__(obj, name, value)


def load_scene(source) -> Scene:
    """Load and validate a scene from a JSON file path (str or Path) or a parsed dict.

    Raises SceneError on a missing file, parse failure, a value that does not
    fit _SCENE_KEYS (an out-of-range coefficient, an empty material name or
    no surface included), unknown material references, or any type-invariant
    violation (non-planar surfaces, surfaces outside bounds).
    """
    doc = read_document(source, SceneError, "scene", _SCENE_KEYS)
    materials: dict[str, Material] = {}
    for entry in doc["materials"]:
        mat = Material(name=entry["name"], reflection_coeff=entry["reflection_coeff"])
        if mat.name in materials:
            raise SceneError(f"duplicate material name {mat.name!r}")
        materials[mat.name] = mat
    stack = _planes([entry["vertices"] for entry in doc["surfaces"]])   # one pass over every polygon
    surfaces = []
    for i, entry in enumerate(doc["surfaces"]):   # each surface is its row of the stack, not derived again
        if (material := materials.get(entry["material"])) is None:
            raise SceneError(f"surface #{i} references unknown material {entry['material']!r}")
        surfaces.append(_take_row(object.__new__(Surface), stack, i, material=material, name=f"surface#{i}"))
    scene = Scene(surfaces=surfaces, materials=materials, bounds_min=doc["bounds"]["min"],
                  bounds_max=doc["bounds"]["max"])
    object.__setattr__(scene, "stack", stack)   # fills the cached property
    violations = validate_scene(scene)
    if violations:
        raise SceneError("; ".join(violations))
    return scene


def read_document(source, error: type, name: str, shape: dict) -> dict:
    """The JSON object of a document, "scene" or "scenario" by name, given as a file path (str or Path) or parsed,
    as the new document _conform returns for shape. What makes it no such document raises error, naming it."""
    doc = source
    if isinstance(source, (str, Path)):
        try:
            doc = json.loads(Path(source).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise error(f"{name} file not found: {source}") from None
        except UnicodeDecodeError as exc:
            raise error(f"{name} document is not valid UTF-8: byte {exc.object[exc.start]:#04x} at offset "
                        f"{exc.start} of {source}") from exc
        except ValueError as exc:   # a JSONDecodeError, or an integer past Python's digit limit for int()
            raise error(f"{name} document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{name} document must be a JSON object")
    doc, bad = _conform(doc, shape)
    if bad is not None:
        raise error(f"{name} document {bad[0]} {bad[1]}{bad[2]}")
    return doc


# what a value of each kind of shape must be
_KINDS = {int: "an integer", float: "a number", str: "a string", list: "a list", tuple: "a list",
          dict: "an object", Either: "a list or an object"}


def _conform(doc, shape) -> tuple:
    """(value, None) for a parsed JSON document that fits shape, or (None, (fault, jq-style path, rest)) for its
    first value that does not. value is a new document: each float is a float, a tuple shape's value a tuple,
    and an object holds every key of its shape. A shape is int (an integer: not a bool, nor an integral float
    such as 64.0), float (a finite number, not a bool, nor an integer past the float range), str, a tuple of
    shapes (a list of exactly those), [shape] (a list of any length), {key: shape} (an object: its keys are
    required unless Optional, and a left-out or null one takes its default), an Either or a Rule. Python's
    json reads NaN, Infinity and 1e999 as floats, past every range check, and an integer of any size as an int."""
    kind = type(shape)
    if kind is type:   # a leaf, the most common shape
        if shape is float and isinstance(doc, float):
            return (doc, None) if math.isfinite(doc) else (None, ("has a non-finite number at", "", ""))
        if shape is float and type(doc) is int:   # float() of an int past the float range raises
            if abs(doc) <= sys.float_info.max:
                return float(doc), None
            return None, ("has an integer out of float range at", "", "")
        if type(doc) is shape:
            return doc, None
    if kind is Either and isinstance(doc, (dict, list, tuple)):
        shape = shape.fields if type(doc) is dict else shape.items
        kind = type(shape)
    if kind is Rule:
        value, found = _conform(doc, shape.shape)
        try:
            passed = found is not None or shape.test(value)
        except ValueError:
            passed = False
        return (value, found) if passed else (None, (f"has {doc!r} at", "", f", which must be {shape.text}"))
    if kind is dict and type(doc) is dict:
        if not doc.keys() <= shape.keys():
            return None, ("has an unknown key", "." + next(key for key in doc if key not in shape), "")
        fields = {}
        for key, sub in shape.items():
            value = doc.get(key)
            if type(sub) is Optional:
                value = sub.default if value is None else value
                if value is None:
                    fields[key] = None
                    continue
                sub = sub.shape
            elif key not in doc:
                return None, ("is missing", f".{key}", "")
            fields[key], found = _conform(value, sub)
            if found is not None:   # the path is built only on the way back from a hit
                return None, (found[0], f".{key}{found[1]}", found[2])
        return fields, None
    elif kind in (list, tuple) and isinstance(doc, (list, tuple)) and (kind is list or len(doc) == len(shape)):
        items = []
        for i, item in enumerate(doc):
            value, found = _conform(item, shape[i] if kind is tuple else shape[0])
            if found is not None:
                return None, (found[0], f"[{i}]{found[1]}", found[2])
            items.append(value)
        return (items if kind is list else tuple(items)), None
    what = _KINDS[shape if kind is type else kind]   # doc is of another JSON kind, or length
    if kind is tuple:   # a tuple's items are leaves
        what += f" of {len(shape)} {_KINDS[shape[0]].split()[1]}s"
    return None, (f"has {doc!r} at", "", f", which must be {what}")


def validate_scene(scene: Scene) -> list[str]:
    """Violations of the scene's invariants (empty list = valid); a rule of one field is _SCENE_KEYS'.
    Each check is one mask over the scene's stack, and only a flagged surface gets messages, in order:
    a foreign material, then fewer than 3 vertices, vertices outside the bounds (a vertex near the float
    limit leaves no plane to check) or zero area, else non-coplanar and collinear or non-convex."""
    t = scene.stack
    violations = ["bounds max < min"] if np.any(scene.bounds_max < scene.bounds_min) else []
    edges = np.arange(t.vertices.shape[1])
    few = t.counts < 3
    outside = ~few & ((t.vertices < scene.bounds_min - 1e-9) | (t.vertices > scene.bounds_max + 1e-9)).any(axis=(1, 2))
    planar = t.usable & ~outside
    with np.errstate(over="ignore", invalid="ignore"):   # the rows of surfaces with no plane
        off_plane = np.abs(np.vecdot(t.vertices, t.normals[:, None]) - t.offsets[:, None]).max(axis=1)
        # inside[s, j, i]: how far vertex j is inside edge i, times its length; at j = i + 2, the turn at i + 1
        inside = t.vertices @ t.edge_normals.transpose(0, 2, 1) - t.edge_offsets[:, None]
        turns = inside[np.arange(len(inside))[:, None], (edges + 2) % t.counts[:, None], edges]
        collinear = planar & ((np.abs(turns) <= 1e-12) & (edges < t.counts[:, None])).any(axis=1)
        # a turn-sign test alone passes a pentagram, whose tips lie outside other edges
        convex = (inside >= -CONTAINS_TOL).all(axis=(1, 2))
    foreign = [scene.materials.get(s.material.name) != s.material for s in scene.surfaces]   # by value
    flags = np.array((foreign, few, outside, ~few & ~outside & ~t.usable, planar & (off_plane > PLANARITY_TOL),
                      collinear, planar & ~collinear & ~convex))
    for i, j in zip(*np.nonzero(flags.T)):   # surface by surface
        s = scene.surfaces[i]
        violations.append(f"{s.name or 'surface'}: " + (
            f"{s.material} not in scene materials", "fewer than 3 vertices", "vertices outside scene bounds",
            "polygon has zero area", f"vertices not coplanar within {PLANARITY_TOL} m",
            "consecutive vertices collinear", "polygon not convex")[j])
    return violations


# lattice_span's slack on the roi's (min, max) rows, and the index it adds each side
_ROI_SLACK, _ROI_MARGIN = np.array([[-1e-9], [1e-9]]), np.array([[-1.0], [2.0]])


def lattice_span(scene: Scene, spacing: float, roi=None) -> tuple:
    """(first, last), the (2,) x and y index blocks [first, last) of the floor lattice that
    floor_grid builds, as floats so that a lattice too large to build is counted (inf past the
    float range): every index of an axis, floor(extent / spacing + 1e-9) + 1 of them, or, with an
    roi (xmin, ymin, xmax, ymax), those of its values within 1e-9 of the roi and one more each side."""
    start, stop = scene.bounds_min[:2], scene.bounds_max[:2]
    with np.errstate(over="ignore"):
        count = np.floor((stop - start) / spacing + 1e-9) + 1
        if roi is None:
            return np.zeros(2), count
        ends = np.floor((np.array(roi).reshape(2, 2) + _ROI_SLACK - start) / spacing) + _ROI_MARGIN
    first, last = np.minimum(np.maximum(ends, 0.0), count)   # np.clip's values, at a third of its cost
    return first, last


def floor_grid(scene: Scene, spacing: float, height: float, roi=None) -> np.ndarray:
    """Row-major lattice over the floor footprint of the scene bounds, or its points within 1e-9
    of roi (xmin, ymin, xmax, ymax), of which it builds only the block that spans roi.

    Points are ordered with x varying fastest; per axis the count is
    floor(extent / spacing) + 1 (a small slack absorbs float division dust),
    and no point passes the bounds, where a wall may stand (0.1 * 12 is 1.2 + 2e-16):
    index i of an axis is min(start + spacing i, bound).
    """
    if spacing <= 0.0:
        raise ValueError(f"spacing must be > 0, got {spacing}")
    if not (scene.bounds_min[2] - 1e-9 <= height <= scene.bounds_max[2] + 1e-9):
        raise ValueError(f"height {height} outside scene bounds")
    return _lattice(scene, spacing, height, roi, *lattice_span(scene, spacing, roi))


def _lattice(scene: Scene, spacing: float, height: float, roi, first, last) -> np.ndarray:
    """floor_grid's points over the index block [first, last) of each axis that lattice_span gave for
    roi, written into one (y, x, 3) buffer, whose rows are the y values and whose columns the x values."""
    xs, ys = (np.minimum(start + spacing * np.arange(int(a), int(b)), stop)
              for start, stop, a, b in zip(scene.bounds_min[:2], scene.bounds_max[:2], first, last))
    if roi is not None:
        xmin, ymin, xmax, ymax = roi
        xs = xs[(xs >= xmin - 1e-9) & (xs <= xmax + 1e-9)]
        ys = ys[(ys >= ymin - 1e-9) & (ys <= ymax + 1e-9)]
    grid = np.empty((len(ys), len(xs), 3))
    grid[..., 0], grid[..., 1], grid[..., 2] = xs, ys[:, None], height
    return grid.reshape(-1, 3)


def serialize_scene(scene: Scene) -> dict:
    """Inverse of load_scene: emit the scene document mapping."""
    return {
        "materials": [
            {"name": m.name, "reflection_coeff": m.reflection_coeff}
            for m in scene.materials.values()
        ],
        "surfaces": [
            {"vertices": s.vertices.tolist(), "material": s.material.name}
            for s in scene.surfaces
        ],
        "bounds": {"min": scene.bounds_min.tolist(), "max": scene.bounds_max.tolist()},
    }


def scene_hash(scene: Scene) -> str:
    """Deterministic content hash, used as a stale-database guard."""
    return json_digest(serialize_scene(scene))


def json_digest(payload) -> str:
    """sha256 of canonical JSON (sorted keys, no spaces): the rule for every database stamp."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
