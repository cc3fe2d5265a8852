"""Indoor environment model: convex planar surfaces with scalar reflection materials.

The scene is a flat list of convex polygons, each tagged with a material whose
single amplitude reflection coefficient conditions the multipath solver.
A surface's plane is its Newell plane (unit_normal . x = plane_offset): the
tracer reflects in it and validation measures planarity from it.
Scenes are loaded from a JSON document, whose schema is README.md's "Scene
documents" (_SCENE_KEYS, as read_document checks it). A loaded
scene is a value, like a Pose: it, its surfaces, materials and arrays are
read-only. A changed scene is built with dataclasses.replace.
"""

from __future__ import annotations

import hashlib
import json
import math
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
    """A key that an object may leave out or set to null; either way it takes its default."""
    shape: object


class Either(NamedTuple):
    """A list of items or an object of fields, chosen by the value's JSON kind."""
    items: list
    fields: dict


# the scene document's schema, in the shapes read_document checks
_XYZ = (float, float, float)
_SCENE_KEYS = {"materials": [{"name": str, "reflection_coeff": float}],
               "surfaces": [{"vertices": [_XYZ], "material": str}], "bounds": {"min": _XYZ, "max": _XYZ}}


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
    # edge i runs from vertex i to i + 1; x is inside it if edge_normals[i] . x >= edge_offsets[i]
    edge_normals: np.ndarray | None = field(init=False, default=None, repr=False)  # (V, 3), n x edge
    edge_offsets: np.ndarray | None = field(init=False, default=None, repr=False)  # (V,)

    def __post_init__(self):
        v = np.atleast_2d(np.array(self.vertices, dtype=float))
        if v.ndim != 2 or v.shape[1] != 3:
            raise SceneError(f"surface {self.name!r}: vertices must be an (n, 3) array")
        _set_read_only(self, vertices=v)
        # a vertex near the float limit overflows the plane's products; validate_scene's
        # bounds check, not a RuntimeWarning, reports it
        with np.errstate(over="ignore", invalid="ignore"):
            n = _newell_normal(v)
            if n is not None:
                x, y, z = (np.concatenate((v[1:], v[:1])) - v).T
                n0, n1, n2 = n.tolist()   # n x edge, with np.cross's products in its order
                edges = np.column_stack((n1 * z - n2 * y, n2 * x - n0 * z, n0 * y - n1 * x))
                _set_read_only(self, unit_normal=n, plane_offset=float(n @ v[0]), edge_normals=edges,
                               edge_offsets=np.vecdot(edges, v))


@dataclass(frozen=True, eq=False)
class Scene:
    surfaces: tuple[Surface, ...]
    materials: MappingProxyType   # material name -> Material
    bounds_min: np.ndarray
    bounds_max: np.ndarray

    def __post_init__(self):
        _set_read_only(self, surfaces=tuple(self.surfaces), materials=MappingProxyType(dict(self.materials)),
                       bounds_min=np.array(self.bounds_min, dtype=float),
                       bounds_max=np.array(self.bounds_max, dtype=float))

    @cached_property
    def walls(self) -> Walls:
        """The walls, found once with zero tolerance on the computed vertex heights, read-only. A plane
        that holds every vertex makes no wall: a flat scene has no side."""
        usable = [s for s in self.surfaces if s.unit_normal is not None]
        normals = np.array([s.unit_normal for s in usable]).reshape(-1, 3)
        offsets = np.array([s.plane_offset for s in usable])
        vertices = np.concatenate([np.empty((0, 3)), *(s.vertices for s in usable)])
        heights = normals @ vertices.T - offsets[:, None]   # (S, all vertices)
        ahead = (heights >= 0.0).all(axis=1)
        mask = ahead != (heights <= 0.0).all(axis=1)
        facing = np.where(ahead, 1.0, -1.0)[mask]
        return Walls(*_read_only(normals[mask] * facing[:, None], offsets[mask] * facing, mask))


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
    fit _SCENE_KEYS, unknown material references, or any type-invariant violation
    (non-planar surfaces, out-of-range coefficients, surfaces outside bounds,
    empty scenes).
    """
    doc = read_document(source, SceneError, "scene", _SCENE_KEYS)
    scene = _scene_from_document(doc)
    violations = validate_scene(scene)
    if violations:
        raise SceneError("; ".join(violations))
    return scene


def read_document(source, error: type, name: str, shape: dict) -> dict:
    """The JSON object of a scene or scenario document, given as a file path (str or Path) or parsed.
    Whatever makes it no such document raises error, naming the document: "scene" or "scenario"."""
    doc = source
    if isinstance(source, (str, Path)):
        try:
            doc = json.loads(Path(source).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise error(f"{name} file not found: {source}") from None
        except UnicodeDecodeError as exc:
            raise error(f"{name} document is not valid UTF-8: byte {exc.object[exc.start]:#04x} at offset "
                        f"{exc.start} of {source}") from exc
        except json.JSONDecodeError as exc:
            raise error(f"{name} document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{name} document must be a JSON object")
    bad = _bad_field(doc, shape)
    if bad is not None:
        raise error(f"{name} document {bad[0]} {bad[1]}{bad[2]}")
    return doc


# what a value of each kind of shape must be
_KINDS = {int: "an integer", float: "a number", str: "a string", list: "a list", tuple: "a list",
          dict: "an object", Either: "a list or an object"}


def _bad_field(doc, shape) -> tuple | None:
    """(fault, jq-style path, rest) of the first value of a parsed JSON document that does not fit
    shape, or None. A shape is int (an integer: not a bool, nor an integral float such as 64.0),
    float (a finite number, not a bool), str, a tuple of shapes (a list of exactly those), [shape]
    (a list of any length), {key: shape} (an object: its keys are required unless Optional) or an
    Either. Python's json reads NaN, Infinity and 1e999 as floats, past every range check."""
    kind = type(shape)
    if kind is Either and isinstance(doc, (dict, list, tuple)):
        shape = shape.fields if type(doc) is dict else shape.items
        kind = type(shape)
    if kind is type:
        if shape is float and isinstance(doc, float):
            return None if math.isfinite(doc) else ("has a non-finite number at", "", "")
        if type(doc) is shape or shape is float and type(doc) is int:
            return None
    elif kind is dict:
        if type(doc) is dict:
            if not doc.keys() <= shape.keys():
                return "has an unknown key", "." + next(key for key in doc if key not in shape), ""
            for key, sub in shape.items():
                value = doc.get(key)
                if type(sub) is Optional:
                    if value is None:
                        continue
                    sub = sub.shape
                elif key not in doc:
                    return "is missing", f".{key}", ""
                found = _bad_field(value, sub)
                if found is not None:   # the path is built only on the way back from a hit
                    return found[0], f".{key}{found[1]}", found[2]
            return None
    elif isinstance(doc, (list, tuple)) and (kind is list or len(doc) == len(shape)):
        for i, item in enumerate(doc):
            found = _bad_field(item, shape[i] if kind is tuple else shape[0])
            if found is not None:
                return found[0], f"[{i}]{found[1]}", found[2]
        return None
    what = _KINDS[shape if kind is type else kind]   # doc is of another JSON kind, or length
    if kind is tuple:   # a tuple's items are leaves
        what += f" of {len(shape)} {_KINDS[shape[0]].split()[1]}s"
    return f"has {doc!r} at", "", f", which must be {what}"


def _scene_from_document(doc: dict) -> Scene:
    materials: dict[str, Material] = {}
    for entry in doc["materials"]:
        mat = Material(name=entry["name"], reflection_coeff=float(entry["reflection_coeff"]))
        if mat.name in materials:
            raise SceneError(f"duplicate material name {mat.name!r}")
        materials[mat.name] = mat

    surfaces = []
    for i, entry in enumerate(doc["surfaces"]):
        if entry["material"] not in materials:
            raise SceneError(f"surface #{i} references unknown material {entry['material']!r}")
        surfaces.append(Surface(vertices=entry["vertices"], material=materials[entry["material"]],
                                name=f"surface#{i}"))
    return Scene(surfaces=surfaces, materials=materials, bounds_min=doc["bounds"]["min"],
                 bounds_max=doc["bounds"]["max"])


def validate_scene(scene: Scene) -> list[str]:
    """Return violation descriptors for every broken invariant (empty list = valid)."""
    violations: list[str] = []

    for mat in scene.materials.values():
        if not mat.name:
            violations.append("material with empty name")
        if not (0.0 <= mat.reflection_coeff <= 1.0):
            violations.append(
                f"material {mat.name!r}: reflection_coeff {mat.reflection_coeff} outside [0, 1]"
            )

    if not scene.surfaces:
        violations.append("scene has no surfaces")

    if np.any(scene.bounds_max < scene.bounds_min):
        violations.append("bounds max < min")

    lo = scene.bounds_min - 1e-9
    hi = scene.bounds_max + 1e-9
    for surf in scene.surfaces:
        label = surf.name or "surface"
        if scene.materials.get(surf.material.name) != surf.material:   # by value: name and coefficient
            violations.append(f"{label}: {surf.material} not in scene materials")
        if len(surf.vertices) < 3:
            violations.append(f"{label}: fewer than 3 vertices")
            continue
        if np.any(surf.vertices < lo) or np.any(surf.vertices > hi):
            # its one report: a vertex near the float limit leaves it no plane to check
            violations.append(f"{label}: vertices outside scene bounds")
            continue
        if surf.unit_normal is None:
            violations.append(f"{label}: polygon has zero area")
        else:
            if np.max(np.abs(surf.vertices @ surf.unit_normal - surf.plane_offset)) > PLANARITY_TOL:
                violations.append(f"{label}: vertices not coplanar within {PLANARITY_TOL} m")
            # inside[j, i]: how far vertex j lies inside edge i, times the edge's
            # length; at vertex i + 2 that is the turn at vertex i + 1
            inside = surf.vertices @ surf.edge_normals.T - surf.edge_offsets
            if np.any(np.abs(np.diagonal(np.concatenate((inside[2:], inside[:2])))) <= 1e-12):
                violations.append(f"{label}: consecutive vertices collinear")
            elif np.any(inside < -CONTAINS_TOL):
                # a turn-sign test alone passes a pentagram, whose tips lie outside other edges
                violations.append(f"{label}: polygon not convex")

    return violations


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
        first = np.floor((np.array(roi[:2]) - 1e-9 - start) / spacing) - 1
        last = np.floor((np.array(roi[2:]) + 1e-9 - start) / spacing) + 2
    return np.clip(first, 0.0, count), np.clip(last, 0.0, count)


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
    xs, ys = (np.minimum(start + spacing * np.arange(int(first), int(last)), stop)
              for start, stop, first, last in zip(scene.bounds_min[:2], scene.bounds_max[:2],
                                                  *lattice_span(scene, spacing, roi)))
    if roi is not None:
        xmin, ymin, xmax, ymax = roi
        xs = xs[(xs >= xmin - 1e-9) & (xs <= xmax + 1e-9)]
        ys = ys[(ys >= ymin - 1e-9) & (ys <= ymax + 1e-9)]
    gx, gy = np.meshgrid(xs, ys)  # rows indexed by y, x fastest within a row
    return np.column_stack([gx.ravel(), gy.ravel(), np.full(gx.size, float(height))])


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


def _newell_normal(vertices: np.ndarray) -> np.ndarray | None:
    if len(vertices) < 3:
        return None
    v = vertices
    rolled = np.concatenate((v[1:], v[:1]))
    n = np.array([
        np.sum((v[:, 1] - rolled[:, 1]) * (v[:, 2] + rolled[:, 2])),
        np.sum((v[:, 2] - rolled[:, 2]) * (v[:, 0] + rolled[:, 0])),
        np.sum((v[:, 0] - rolled[:, 0]) * (v[:, 1] + rolled[:, 1])),
    ])
    norm = np.linalg.norm(n)
    if not 1e-15 <= norm < math.inf:   # zero area, or a vertex near the float limit overflowed it
        return None
    return n / norm
