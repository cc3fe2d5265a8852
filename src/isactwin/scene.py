"""Indoor environment model: convex planar surfaces with scalar reflection materials.

The scene is a flat list of convex polygons, each tagged with a material whose
single amplitude reflection coefficient conditions the multipath solver.
A surface's plane is its Newell plane (unit_normal . x = plane_offset): the
tracer reflects in it and validation measures planarity from it.
Scenes are loaded from a structured JSON document (schema below). A loaded
scene is a value, like a Pose: it, its surfaces, materials and arrays are
read-only. A changed scene is built with dataclasses.replace.

Scene document schema (field names are part of the contract; any other key is an error)::

    {
      "materials":    [{"name": str, "reflection_coeff": float}, ...],
      "surfaces":     [{"vertices": [[x, y, z], ...], "material": str}, ...],
      "bounds":       {"min": [x, y, z], "max": [x, y, z]},
      "floor_height": float
    }

All coordinates are in meters.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType

import numpy as np

# Max distance of any vertex from its surface's Newell plane, the plane the tracer reflects in.
PLANARITY_TOL = 1e-9

# A point whose distance outside a polygon edge, times that edge's length
# (the length of n x edge), is at most this still counts as inside, so a
# reflection on the edge shared by two surfaces is kept.
CONTAINS_TOL = 1e-9

# the keys a scene document accepts, as read_document takes them
_SCENE_KEYS = {"materials": dict.fromkeys(("name", "reflection_coeff")), "floor_height": None,
               "surfaces": dict.fromkeys(("vertices", "material")), "bounds": dict.fromkeys(("min", "max"))}


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
        n = _newell_normal(v)
        if n is not None:
            edges = np.cross(n, np.roll(v, -1, axis=0) - v)
            _set_read_only(self, unit_normal=n, plane_offset=float(n @ v[0]), edge_normals=edges,
                           edge_offsets=np.vecdot(edges, v))


@dataclass(frozen=True, eq=False)
class Scene:
    surfaces: tuple[Surface, ...]
    materials: MappingProxyType   # material name -> Material
    bounds_min: np.ndarray
    bounds_max: np.ndarray
    floor_height: float = 0.0

    def __post_init__(self):
        _set_read_only(self, surfaces=tuple(self.surfaces), materials=MappingProxyType(dict(self.materials)),
                       bounds_min=np.array(self.bounds_min, dtype=float),
                       bounds_max=np.array(self.bounds_max, dtype=float))


def _set_read_only(obj, **values) -> None:
    """Set a frozen dataclass's fields; each array is the object's own copy and is locked first."""
    for name, value in values.items():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        object.__setattr__(obj, name, value)


def load_scene(source) -> Scene:
    """Load and validate a scene from a JSON file path (str or Path) or a parsed dict.

    Raises SceneError on a missing file, parse failure, a NaN or infinite
    number, an unknown key, unknown material references, or any type-invariant violation
    (non-planar surfaces, out-of-range coefficients, surfaces outside bounds,
    empty scenes).
    """
    doc = read_document(source, SceneError, "scene", _SCENE_KEYS)
    scene = _scene_from_document(doc)
    violations = validate_scene(scene)
    if violations:
        raise SceneError("; ".join(violations))
    return scene


def read_document(source, error: type, name: str, keys: dict) -> dict:
    """The JSON object of a scene or scenario document, given as a file path (str or Path) or parsed.
    Whatever makes it no such document raises error, naming the document: "scene" or "scenario"."""
    doc = source
    if isinstance(source, (str, Path)):
        try:
            doc = json.loads(Path(source).read_text())
        except FileNotFoundError:
            raise error(f"{name} file not found: {source}") from None
        except json.JSONDecodeError as exc:
            raise error(f"{name} document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{name} document must be a JSON object")
    bad = _bad_field(doc, keys)
    if bad is not None:
        raise error(f"{name} document has {bad[0]} {bad[1]}")
    return doc


def _bad_field(doc, keys: dict | None) -> tuple | None:
    """(what, jq-style path) of the first NaN or infinite number or unknown key in a parsed JSON
    document, or None. Python's json reads NaN, Infinity and 1e999 as floats, past every range check.
    keys maps each accepted key to the keys of its value (None: unchecked); list items take the list's."""
    if isinstance(doc, float):
        return None if math.isfinite(doc) else ("a non-finite number at", "")
    if isinstance(doc, dict):
        for key, value in doc.items():
            if keys is not None and key not in keys:
                return "an unknown key", f".{key}"
            found = _bad_field(value, None if keys is None else keys[key])
            if found is not None:   # the path is built only on the way back from a hit
                return found[0], f".{key}{found[1]}"
    elif isinstance(doc, (list, tuple)):
        for i, item in enumerate(doc):
            found = _bad_field(item, keys)
            if found is not None:
                return found[0], f"[{i}]{found[1]}"
    return None


def _scene_from_document(doc: dict) -> Scene:
    for key in _SCENE_KEYS:
        if key not in doc:
            raise SceneError(f"scene document missing key {key!r}")

    materials: dict[str, Material] = {}
    for entry in doc["materials"]:
        try:
            mat = Material(name=str(entry["name"]), reflection_coeff=float(entry["reflection_coeff"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise SceneError(f"malformed material entry {entry!r}") from exc
        if mat.name in materials:
            raise SceneError(f"duplicate material name {mat.name!r}")
        materials[mat.name] = mat

    surfaces = []
    for i, entry in enumerate(doc["surfaces"]):
        try:
            mat_name = entry["material"]
            vertices = np.asarray(entry["vertices"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise SceneError(f"malformed surface entry #{i}") from exc
        if mat_name not in materials:
            raise SceneError(f"surface #{i} references unknown material {mat_name!r}")
        surfaces.append(Surface(vertices=vertices, material=materials[mat_name], name=f"surface#{i}"))

    bounds = doc["bounds"]
    try:
        bmin = np.asarray(bounds["min"], dtype=float).reshape(3)
        bmax = np.asarray(bounds["max"], dtype=float).reshape(3)
    except (KeyError, TypeError, ValueError) as exc:
        raise SceneError("malformed bounds") from exc

    return Scene(
        surfaces=surfaces,
        materials=materials,
        bounds_min=bmin,
        bounds_max=bmax,
        floor_height=float(doc["floor_height"]),
    )


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

    for surf in scene.surfaces:
        label = surf.name or "surface"
        if len(surf.vertices) < 3:
            violations.append(f"{label}: fewer than 3 vertices")
            continue
        if surf.unit_normal is None:
            violations.append(f"{label}: polygon has zero area")
        else:
            if np.max(np.abs(surf.vertices @ surf.unit_normal - surf.plane_offset)) > PLANARITY_TOL:
                violations.append(f"{label}: vertices not coplanar within {PLANARITY_TOL} m")
            # inside[j, i]: how far vertex j lies inside edge i, times the edge's
            # length; at vertex i + 2 that is the turn at vertex i + 1
            inside = surf.vertices @ surf.edge_normals.T - surf.edge_offsets
            if np.any(np.abs(np.diagonal(np.roll(inside, -2, axis=0))) <= 1e-12):
                violations.append(f"{label}: consecutive vertices collinear")
            elif np.any(inside < -CONTAINS_TOL):
                # a turn-sign test alone passes a pentagram, whose tips lie outside other edges
                violations.append(f"{label}: polygon not convex")
        if scene.materials.get(surf.material.name) != surf.material:   # by value: name and coefficient
            violations.append(f"{label}: {surf.material} not in scene materials")
        lo = scene.bounds_min - 1e-9
        hi = scene.bounds_max + 1e-9
        if np.any(surf.vertices < lo) or np.any(surf.vertices > hi):
            violations.append(f"{label}: vertices outside scene bounds")

    if not (scene.bounds_min[2] - 1e-9 <= scene.floor_height <= scene.bounds_max[2] + 1e-9):
        violations.append("floor_height outside bounds")

    return violations


def floor_grid(scene: Scene, spacing: float, height: float) -> np.ndarray:
    """Row-major lattice over the floor footprint of the scene bounds.

    Points are ordered with x varying fastest; per axis the count is
    floor(extent / spacing) + 1 (a small slack absorbs float division dust).
    """
    if spacing <= 0.0:
        raise ValueError(f"spacing must be > 0, got {spacing}")
    if not (scene.bounds_min[2] - 1e-9 <= height <= scene.bounds_max[2] + 1e-9):
        raise ValueError(f"height {height} outside scene bounds")
    x0, y0 = scene.bounds_min[:2]
    lx = scene.bounds_max[0] - x0
    ly = scene.bounds_max[1] - y0
    nx = int(np.floor(lx / spacing + 1e-9)) + 1
    ny = int(np.floor(ly / spacing + 1e-9)) + 1
    xs = x0 + spacing * np.arange(nx)
    ys = y0 + spacing * np.arange(ny)
    gx, gy = np.meshgrid(xs, ys)  # rows indexed by y, x fastest within a row
    points = np.column_stack([gx.ravel(), gy.ravel(), np.full(nx * ny, float(height))])
    return points


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
        "floor_height": scene.floor_height,
    }


def scene_hash(scene: Scene) -> str:
    """Deterministic content hash, used as a stale-database guard."""
    canon = json.dumps(serialize_scene(scene), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _newell_normal(vertices: np.ndarray) -> np.ndarray | None:
    if len(vertices) < 3:
        return None
    v = vertices
    rolled = np.roll(v, -1, axis=0)
    n = np.array([
        np.sum((v[:, 1] - rolled[:, 1]) * (v[:, 2] + rolled[:, 2])),
        np.sum((v[:, 2] - rolled[:, 2]) * (v[:, 0] + rolled[:, 0])),
        np.sum((v[:, 0] - rolled[:, 0]) * (v[:, 1] + rolled[:, 1])),
    ])
    norm = np.linalg.norm(n)
    if norm < 1e-15:
        return None
    return n / norm
