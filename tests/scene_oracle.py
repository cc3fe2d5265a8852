"""Per-surface reference for ``scene``'s stacked tables and ``validate_scene``.

These are the formulas the package used before a scene became one padded
vertex stack: each surface's Newell normal, plane offset and edge planes from
its own vertex list, and a loop over the surfaces for validation. Tests hold
``scene.Stack`` and ``validate_scene`` to them; nothing in ``src/`` imports it.
"""

from __future__ import annotations

import math

import numpy as np

from isactwin.scene import CONTAINS_TOL, PLANARITY_TOL


def newell_normal(vertices: np.ndarray) -> np.ndarray | None:
    """The unit Newell normal of an (n, 3) polygon, or None for fewer than 3 vertices, zero area
    or a norm past float range."""
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
    if not 1e-15 <= norm < math.inf:
        return None
    return n / norm


def surface_planes(vertices) -> tuple:
    """(unit_normal, plane_offset, edge_normals, edge_offsets) of one polygon, each None (the
    offset 0.0) without a plane; edge i runs from vertex i to i + 1 and its normal is n x edge."""
    v = np.atleast_2d(np.array(vertices, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        n = newell_normal(v)
        if n is None:
            return None, 0.0, None, None
        x, y, z = (np.concatenate((v[1:], v[:1])) - v).T
        n0, n1, n2 = n.tolist()   # n x edge, with np.cross's products in its order
        edges = np.column_stack((n1 * z - n2 * y, n2 * x - n0 * z, n0 * y - n1 * x))
        return n, float(n @ v[0]), edges, np.vecdot(edges, v)


def validate_scene(scene) -> list:
    """validate_scene's messages, one surface at a time, from surface_planes."""
    violations = []
    if np.any(scene.bounds_max < scene.bounds_min):
        violations.append("bounds max < min")
    lo = scene.bounds_min - 1e-9
    hi = scene.bounds_max + 1e-9
    for surf in scene.surfaces:
        label = surf.name or "surface"
        v = np.asarray(surf.vertices)
        if scene.materials.get(surf.material.name) != surf.material:
            violations.append(f"{label}: {surf.material} not in scene materials")
        if len(v) < 3:
            violations.append(f"{label}: fewer than 3 vertices")
            continue
        if np.any(v < lo) or np.any(v > hi):
            violations.append(f"{label}: vertices outside scene bounds")
            continue
        n, offset, edge_normals, edge_offsets = surface_planes(v)
        if n is None:
            violations.append(f"{label}: polygon has zero area")
            continue
        if np.max(np.abs(v @ n - offset)) > PLANARITY_TOL:
            violations.append(f"{label}: vertices not coplanar within {PLANARITY_TOL} m")
        # inside[j, i]: how far vertex j lies inside edge i, times the edge's length; at vertex
        # i + 2 that is the turn at vertex i + 1
        inside = v @ edge_normals.T - edge_offsets
        if np.any(np.abs(np.diagonal(np.concatenate((inside[2:], inside[:2])))) <= 1e-12):
            violations.append(f"{label}: consecutive vertices collinear")
        elif np.any(inside < -CONTAINS_TOL):
            violations.append(f"{label}: polygon not convex")
    return violations
