"""Scalar reference image-method tracer: the oracle for ``raytrace.trace_paths``.

This is the tracer the package shipped before ``trace_paths`` became array
passes over the surface-sequence table. It walks one candidate surface
sequence at a time with numpy calls on single 3-vectors, so it is slow but
easy to check by eye. A path's directions come from the images of its ends:
it leaves tx toward rx mirrored through the sequence in reverse, and reaches
rx from the last image of tx. Tests compare the array tracer against it;
nothing in ``src/`` imports it.
"""

from __future__ import annotations

import math

import numpy as np

from isactwin.raytrace import (
    GAIN_PRUNE_THRESHOLD,
    SPEED_OF_LIGHT,
    PathSet,
    Pose,
    PropagationPath,
)

_ENDPOINT_GUARD = 1e-9
_CONTAINS_TOL = 1e-9


def trace_paths_scalar(scene, tx: Pose, rx: Pose, max_order: int = 2, carrier_freq: float = 2.4e9,
                       prune_gain: float = GAIN_PRUNE_THRESHOLD) -> PathSet:
    """Same contract as ``raytrace.trace_paths``, one surface sequence at a time."""
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    if np.linalg.norm(rx.position - tx.position) < 1e-12:
        raise ValueError("coincident endpoints")
    usable = [s for s in scene.surfaces if s.unit_normal is not None]
    paths = []
    for seq in surface_sequences(scene.surfaces, max_order):
        pts = unfold(seq, tx.position, rx.position)
        if pts is None or blocked(usable, pts, seq):
            continue
        seg_lengths = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        if np.any(seg_lengths < 1e-9):
            continue
        total = float(seg_lengths.sum())
        gain = _path_gain(total, [s.material.reflection_coeff for s in seq], carrier_freq)
        amp = abs(gain)
        if amp < prune_gain:
            continue
        if amp > 1.0:
            gain /= amp
        # the path leaves tx toward rx's last image and reaches rx from tx's last image: a
        # difference of two path points would cancel to a few digits on a 1e-9 m leg
        u_dep = _unit(mirror_chain(rx.position, seq[::-1]) - tx.position)
        u_arr = _unit(rx.position - mirror_chain(tx.position, seq))
        paths.append(
            PropagationPath(
                gain=gain,
                delay=total / SPEED_OF_LIGHT,
                doppler=carrier_freq / SPEED_OF_LIGHT * float(tx.velocity @ u_dep - rx.velocity @ u_arr),
                aoa=_direction_angles(rx, -u_arr),
                aod=_direction_angles(tx, u_dep),
                reflection_points=pts[1:-1],
                order=len(seq),
            )
        )
    return PathSet(paths=paths, tx_pose=tx, rx_pose=rx, carrier_freq=carrier_freq)


def surface_sequences(surfaces, max_order):
    """Ordered reflection-surface sequences, LoS first, no consecutive repeats."""
    yield ()
    frontier = [()]
    for _ in range(max_order):
        new_frontier = []
        for seq in frontier:
            for s in surfaces:
                if s.unit_normal is None or (seq and s is seq[-1]):
                    continue
                ext = seq + (s,)
                new_frontier.append(ext)
                yield ext
        frontier = new_frontier


def contains(surface, point, tol: float = _CONTAINS_TOL) -> bool:
    """True if a point on the surface plane lies inside the polygon (edges included)."""
    n = surface.unit_normal
    if n is None:
        return False
    v = surface.vertices
    # edge i runs from v[i] to v[i + 1]: the same value per edge as one cross product each
    return not np.any(np.cross(np.roll(v, -1, axis=0) - v, point - v) @ n < -tol)


def mirror_chain(point, seq):
    """A point mirrored through each surface of seq in turn."""
    image = np.asarray(point, dtype=float)
    for s in seq:
        image = image - 2.0 * ((image @ s.unit_normal) - s.plane_offset) * s.unit_normal
    return image


def unfold(seq, tx_point, rx_point):
    """Back-trace a surface sequence into concrete path points (tx..rx) or None."""
    if not seq:
        return np.vstack([tx_point, rx_point])
    images = [np.asarray(tx_point, dtype=float)]
    for s in seq:
        images.append(mirror_chain(images[-1], (s,)))
    pts = [np.asarray(rx_point, dtype=float)]
    cur = pts[0]
    for i in range(len(seq), 0, -1):
        s = seq[i - 1]
        hit = _plane_segment_hit(cur, images[i], s)
        if hit is None or not contains(s, hit):
            return None
        pts.append(hit)
        cur = hit
    pts.append(np.asarray(tx_point, dtype=float))
    return np.array(pts[::-1])


def _plane_segment_hit(a, b, surface):
    n = surface.unit_normal
    denom = (b - a) @ n
    if abs(denom) < 1e-15:
        return None
    t = (surface.plane_offset - a @ n) / denom
    if not (1e-12 < t < 1.0 - 1e-12):
        return None
    return a + t * (b - a)


def blocked(surfaces, pts: np.ndarray, seq) -> bool:
    """True if any segment of the path is occluded by a surface it does not reflect on."""
    normals = np.array([s.unit_normal for s in surfaces]).reshape(-1, 3)
    offsets = np.array([s.plane_offset for s in surfaces])
    for i in range(len(pts) - 1):
        p0, p1 = pts[i], pts[i + 1]
        start_surf = seq[i - 1] if i >= 1 else None
        end_surf = seq[i] if i < len(seq) else None
        d = p1 - p0
        denom = normals @ d
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (offsets - normals @ p0) / denom
        candidates = np.nonzero((np.abs(denom) > 1e-15) & (t > 0.0) & (t < 1.0))[0]
        seg_len = np.linalg.norm(d)
        for idx in candidates:
            surf = surfaces[idx]
            if surf is start_surf or surf is end_surf:
                continue
            ti = t[idx]
            # hits within the endpoint guard are the path's own touch points
            if ti * seg_len < _ENDPOINT_GUARD or (1.0 - ti) * seg_len < _ENDPOINT_GUARD:
                continue
            if contains(surf, p0 + ti * d):
                return True
    return False


def _path_gain(path_length: float, reflection_coeffs, carrier_freq: float) -> complex:
    lam = SPEED_OF_LIGHT / carrier_freq
    amp = lam / (4.0 * math.pi * path_length)
    for c in reflection_coeffs:
        amp *= c
    phase = -2.0 * math.pi * path_length / lam
    return amp * complex(math.cos(phase), math.sin(phase))


def _direction_angles(pose: Pose, direction) -> tuple:
    d = pose.rotation.T @ _unit(direction)
    return (math.atan2(d[1], d[0]), math.asin(min(1.0, max(-1.0, float(d[2])))))


def _unit(v):
    return v / np.linalg.norm(v)


def receiver_entry(plan, walls, point) -> tuple:
    """The entry ``trace_paths`` caches for a receiver at point, from two stacked products of its own:
    whether Walls.behind puts it behind a wall, q = n' . rx (K, M) with the plan's mirrored planes,
    o' - q, and its heights (K, V, M) over the mirrored edge planes."""
    k, v, m = plan.edge_offsets.shape
    stacked = np.asarray(point, dtype=float).reshape(1, 1, 3)
    q = (stacked @ plan.normals.reshape(k * m, 3).T).reshape(k, m)
    heights = (stacked @ plan.edge_normals.reshape(k * v * m, 3).T).reshape(k, v, m) - plan.edge_offsets
    return bool(walls.behind(stacked[0])[0]), q, plan.offsets - q, heights
