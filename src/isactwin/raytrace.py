"""Image-method multipath solver.

Specular reflections only: candidate paths are the ordered surface sequences
up to a maximum reflection order K with no surface repeated back to back (the
image method of Allen & Berkley, JASA 1979). Each scene caches its planes,
reflection coefficients, per-surface edge planes and, per K, one (M, K) table
of every sequence of order 0..K, order by order, right-aligned behind -1s.

A trace makes one array pass over all M candidates (as Sionna RT does, arXiv
2303.11103): the source is mirrored into an (M, 3) image chain, back-traced
from the receiver to the reflection points, checked for polygon containment,
and each of the K + 1 segments is tested for occlusion against all S planes
as (M, S) masks. A -1 mirrors nothing, its point is the source and its
coefficient 1, so padding adds only zero-length legs. The survivors' gains,
delays, Doppler shifts, local angles and bounce points become the columns of
the PathSet; the bounces keep the padding, as rows equal to the tx position.

Conventions:
  * angles are (azimuth, elevation) of the unit direction pointing from the
    terminal toward the first/last bounce (or the far terminal for LoS);
  * Euler orientation is Z-Y-X (yaw about z, then pitch about y, roll about x);
  * Doppler is (f_c / c) (u_dep . v_tx - u_arr . v_rx), u_dep leaving tx and u_arr reaching rx;
  * the per-path amplitude is (lambda / (4 pi d)) * prod(reflection coeffs)
    with phase -2 pi d / lambda, clamped to unit magnitude at sub-wavelength
    ranges.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .scene import CONTAINS_TOL, Scene

SPEED_OF_LIGHT = 299_792_458.0

# Paths weaker than this amplitude are dropped; bounds the path count without
# measurable effect on delay profiles or channels at indoor ranges.
GAIN_PRUNE_THRESHOLD = 1e-9

# Occlusion hits closer than this to a segment endpoint are numerical
# artifacts of the reflection points lying on their own surfaces.
_ENDPOINT_GUARD = 1e-9


def wrap_angle(angle: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    w = math.fmod(angle + math.pi, 2.0 * math.pi)
    if w <= 0.0:
        w += 2.0 * math.pi
    return w - math.pi


@dataclass(frozen=True, eq=False)
class Pose:
    """Position, Z-Y-X Euler orientation, and velocity of a terminal."""

    position: np.ndarray
    orientation: np.ndarray = None
    velocity: np.ndarray = None

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float).reshape(3))
        ori = np.zeros(3) if self.orientation is None else np.asarray(self.orientation, dtype=float).reshape(3)
        object.__setattr__(self, "orientation", np.array([wrap_angle(a) for a in ori]))
        self.orientation.flags.writeable = False  # the cached rotation is built from it
        vel = np.zeros(3) if self.velocity is None else np.asarray(self.velocity, dtype=float).reshape(3)
        object.__setattr__(self, "velocity", vel)

    @classmethod
    def at(cls, x, y, z=0.0, yaw=0.0, pitch=0.0, roll=0.0, velocity=(0.0, 0.0, 0.0)) -> "Pose":
        return cls(position=(x, y, z), orientation=(yaw, pitch, roll), velocity=velocity)

    @property
    def yaw(self) -> float:
        return float(self.orientation[0])

    @cached_property
    def rotation(self) -> np.ndarray:
        """Local-to-global rotation matrix Rz(yaw) @ Ry(pitch) @ Rx(roll), built once, read-only."""
        a, b, g = self.orientation
        ca, sa = math.cos(a), math.sin(a)
        cb, sb = math.cos(b), math.sin(b)
        cg, sg = math.cos(g), math.sin(g)
        rz = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
        ry = np.array([[cb, 0.0, sb], [0.0, 1.0, 0.0], [-sb, 0.0, cb]])
        rx = np.array([[1.0, 0.0, 0.0], [0.0, cg, -sg], [0.0, sg, cg]])
        rotation = rz @ ry @ rx
        rotation.flags.writeable = False
        return rotation


@dataclass(eq=False)
class PropagationPath:
    gain: complex
    delay: float
    doppler: float
    aoa: tuple  # (azimuth, elevation) at the receiver, local frame
    aod: tuple  # (azimuth, elevation) at the transmitter, local frame
    reflection_points: np.ndarray
    order: int

    def __post_init__(self):
        self.reflection_points = np.asarray(self.reflection_points, dtype=float).reshape(-1, 3)
        if self.order != len(self.reflection_points):
            raise ValueError("order must equal the number of reflection points")
        if self.delay <= 0.0:
            raise ValueError("delay must be positive")


class PathSet:
    """All resolvable paths of one link as columns, stably sorted by delay.

    gain (L,) complex; delay, doppler and order (L,); aoa and aod (L, 2), the
    local (azimuth, elevation) at the receiver and the transmitter; and
    bounces (L, K, 3), each path's reflection points right-aligned behind
    K - order rows equal to the tx position (a list of paths pads K to its
    largest order). Iteration and ``paths`` give the paths back as PropagationPaths.
    """

    def __init__(self, paths, tx_pose: Pose, rx_pose: Pose, carrier_freq: float):
        paths = list(paths)
        k = max((p.order for p in paths), default=0)
        self._set_sorted(tx_pose, rx_pose, carrier_freq,
                         np.array([p.gain for p in paths], dtype=complex),
                         np.array([p.delay for p in paths], dtype=float),
                         np.array([p.doppler for p in paths], dtype=float),
                         np.array([p.aoa for p in paths], dtype=float).reshape(-1, 2),
                         np.array([p.aod for p in paths], dtype=float).reshape(-1, 2),
                         np.array([p.order for p in paths], dtype=int),
                         np.array([np.vstack([tx_pose.position] * (k - p.order) + [p.reflection_points])
                                   for p in paths]).reshape(len(paths), k, 3))

    @classmethod
    def _from_columns(cls, *args) -> "PathSet":
        """trace_paths' route in, with _set_sorted's arguments: no PropagationPath is built."""
        ps = cls.__new__(cls)
        ps._set_sorted(*args)
        return ps

    def _set_sorted(self, tx_pose, rx_pose, carrier_freq, gain, delay, doppler, aoa, aod, order, bounces):
        idx = np.argsort(delay, kind="stable")
        self.tx_pose, self.rx_pose, self.carrier_freq = tx_pose, rx_pose, carrier_freq
        self.gain, self.delay, self.doppler = gain[idx], delay[idx], doppler[idx]
        self.aoa, self.aod, self.order = aoa[idx], aod[idx], order[idx]
        self.bounces = bounces[idx]

    @property
    def paths(self) -> list:
        rows = zip(self.gain.tolist(), self.delay.tolist(), self.doppler.tolist(), self.aoa.tolist(),
                   self.aod.tolist(), self.bounces, self.order.tolist())
        return [PropagationPath(g, d, nu, tuple(aoa), tuple(aod), b[len(b) - n:], n)
                for g, d, nu, aoa, aod, b, n in rows]

    def __len__(self) -> int:
        return len(self.delay)

    def __iter__(self):
        return iter(self.paths)


def path_gain(path_length, reflection_coeffs, carrier_freq: float):
    """Free-space amplitude with reflection losses and propagation phase.

    b = (lambda / (4 pi d)) * prod(coeffs) * exp(-j 2 pi d / lambda)

    Takes one path (a length and a list of coefficients) or M paths at once
    (lengths of shape (M,) and coefficients of shape (M, k)); the
    coefficients multiply in sequence order.
    """
    d = np.asarray(path_length, dtype=float)
    if np.any(d <= 0.0):
        raise ValueError(f"path_length must be > 0, got {path_length}")
    coeffs = np.asarray(reflection_coeffs, dtype=float)
    lam = SPEED_OF_LIGHT / carrier_freq
    amp = lam / (4.0 * math.pi * d)
    for j in range(coeffs.shape[-1]):
        amp = amp * coeffs[..., j]
    phase = -2.0 * math.pi * d / lam
    return amp * (np.cos(phase) + 1j * np.sin(phase))


def trace_paths(scene: Scene, tx: Pose, rx: Pose, max_order: int = 2,
                carrier_freq: float = 2.4e9) -> PathSet:
    """All unoccluded specular paths of reflection order <= max_order.

    LoS is order 0. Delays are total polyline length over c; angles are
    rotated into each terminal's local frame; gains follow path_gain with the
    per-bounce material coefficients and are clamped to unit magnitude.
    Paths weaker than GAIN_PRUNE_THRESHOLD in amplitude are dropped.
    Every candidate of every order is traced in one pass over the scene's
    padded candidate table, whose rows run order by order, so the PathSet's
    stable delay sort orders equal delays the same way on every call.
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    if np.linalg.norm(rx.position - tx.position) < 1e-12:
        raise ValueError("coincident endpoints")

    accel = _accel_for(scene)
    pts, seqs = _unfold(accel, accel.candidates(max_order), tx.position, rx.position)
    seg_lengths = np.linalg.norm(np.diff(pts, axis=1), axis=2)
    short = seg_lengths < 1e-9  # a zero-length leg drops the path, unless it is padding
    short[:, :-1] &= seqs >= 0
    keep = ~_occluded(accel, pts, seqs) & ~short.any(axis=1)
    pts, seqs, total = pts[keep], seqs[keep], seg_lengths[keep].sum(axis=1)
    gain = path_gain(total, np.where(seqs < 0, 1.0, accel.coeffs[seqs]), carrier_freq)
    amp = np.abs(gain)
    gain[amp > 1.0] /= amp[amp > 1.0]
    keep = amp >= GAIN_PRUNE_THRESHOLD
    pts, seqs, total, gain = pts[keep], seqs[keep], total[keep], gain[keep]
    order = np.count_nonzero(seqs >= 0, axis=1)
    first = pts[np.arange(len(pts)), -1 - order]  # the first bounce, or rx for LoS
    u_dep = _unit(first - pts[:, 0])              # leaves tx
    u_arr = _unit(pts[:, -1] - pts[:, -2])        # arrives at rx
    doppler = carrier_freq / SPEED_OF_LIGHT * (np.vecdot(u_dep, tx.velocity) - np.vecdot(u_arr, rx.velocity))
    aoa = _direction_angles(rx.rotation, -u_arr)
    aod = _direction_angles(tx.rotation, u_dep)
    return PathSet._from_columns(tx, rx, carrier_freq, gain, total / SPEED_OF_LIGHT, doppler,
                                 aoa, aod, order, pts[:, 1:-1])


# ---------------------------------------------------------------------------
# internals

@dataclass(eq=False)
class _Accel:
    """Per-scene tables of the usable (planar) surfaces, S of them."""

    key: tuple                # the scene's (surface, material) pairs these tables were built from
    normals: np.ndarray       # (S, 3)
    offsets: np.ndarray       # (S,), n . x = offset
    coeffs: np.ndarray        # (S,) reflection coefficients
    edge_normals: np.ndarray  # (S, V, 3) in-plane edge normals n x edge, zero-padded to V
    edge_offsets: np.ndarray  # (S, V), inside is edge_normal . x >= edge_offset
    tables: dict              # max_order K -> its (M, K) candidate table

    def candidates(self, max_order: int) -> np.ndarray:
        """(M, K) surface indices of every sequence of order 0..K, no surface twice in a row.

        An order-k row is right-aligned behind K - k padding columns of -1.
        Rows are in lexicographic order, which puts the orders in turn.
        """
        table = self.tables.get(max_order)
        if table is None:
            side = len(self.offsets) + 1   # indices -1..S-1, rows in lexicographic order
            table = np.indices((side,) * max_order).reshape(max_order, side ** max_order).T - 1
            prev, cur = table[:, :-1], table[:, 1:]
            table = table[np.all((prev < 0) | ((cur >= 0) & (cur != prev)), axis=1)]
            # orders no sequence reaches (fewer than two surfaces) leave all-padding columns
            self.tables[max_order] = table = table[:, np.any(table >= 0, axis=0)]
        return table


_ACCEL_CACHE: "weakref.WeakKeyDictionary[Scene, _Accel]" = weakref.WeakKeyDictionary()


def _accel_for(scene: Scene) -> _Accel:
    accel = _ACCEL_CACHE.get(scene)
    key = tuple((s, s.material) for s in scene.surfaces)
    # rebuilt when a surface (compared by identity) or its frozen material (by value) changes
    if accel is None or accel.key != key:
        usable = [s for s in scene.surfaces if s.unit_normal is not None]
        num_edges = max((len(s.vertices) for s in usable), default=0)
        edge_normals = np.zeros((len(usable), num_edges, 3))
        edge_offsets = np.zeros((len(usable), num_edges))
        for i, s in enumerate(usable):
            edge_normals[i, : len(s.vertices)] = s.edge_normals
            edge_offsets[i, : len(s.vertices)] = s.edge_offsets
        accel = _Accel(
            key=key,
            normals=np.array([s.unit_normal for s in usable]).reshape(-1, 3),
            offsets=np.array([s.plane_offset for s in usable]),
            coeffs=np.array([s.material.reflection_coeff for s in usable]),
            edge_normals=edge_normals,
            edge_offsets=edge_offsets,
            tables={},
        )
        _ACCEL_CACHE[scene] = accel
    return accel


def _inside(edge_normals, edge_offsets, points):
    """Polygon containment of points on their surfaces' planes (edges included).

    edge_normals (..., V, 3) and edge_offsets (..., V) describe one surface
    per point of points (..., 3); zero padding is always inside.
    """
    dist = np.vecdot(edge_normals, points[..., None, :]) - edge_offsets
    return ~np.any(dist < -CONTAINS_TOL, axis=-1)


@np.errstate(divide="ignore", invalid="ignore")
def _unfold(accel: _Accel, seqs: np.ndarray, tx_point, rx_point):
    """Back-trace (M, K) padded surface sequences into (M', K + 2, 3) path points (tx..rx).

    Returns the points and the M' sequences whose every real bounce lands inside its
    polygon, strictly between the previous point and the image. A padding column
    (they lead, so no bounce is traced back from one) mirrors nothing, has no
    guards, and its point is tx.
    """
    m, k = seqs.shape
    normals, offsets = accel.normals[seqs], accel.offsets[seqs]   # (M, K, 3), (M, K)
    images = [np.broadcast_to(np.asarray(tx_point, dtype=float), (m, 3))]
    for j in range(k):
        p, n = images[-1], normals[:, j]
        mirrored = p - (2.0 * (np.vecdot(p, n) - offsets[:, j]))[:, None] * n
        images.append(np.where(seqs[:, j, None] >= 0, mirrored, p))
    cur = np.broadcast_to(np.asarray(rx_point, dtype=float), (m, 3))
    pts = [cur]
    ok = np.ones(m, dtype=bool)
    for i in range(k, 0, -1):
        n, s = normals[:, i - 1], seqs[:, i - 1]
        ab = images[i] - cur
        denom = np.vecdot(ab, n)
        t = (offsets[:, i - 1] - np.vecdot(cur, n)) / denom
        cur = cur + t[:, None] * ab
        ok &= (s < 0) | ((np.abs(denom) >= 1e-15) & (t > 1e-12) & (t < 1.0 - 1e-12)
                         & _inside(accel.edge_normals[s], accel.edge_offsets[s], cur))
        pts.append(np.where(s[:, None] < 0, images[0], cur))
    pts.append(images[0])
    return np.stack(pts[::-1], axis=1)[ok], seqs[ok]


@np.errstate(divide="ignore", invalid="ignore")
def _occluded(accel: _Accel, pts: np.ndarray, seqs: np.ndarray) -> np.ndarray:
    """(M,) mask: some segment crosses a surface it does not reflect on.

    Each of the K + 1 segments is intersected with all S planes at once; a
    segment's own start and end surfaces, and hits within the endpoint
    guard of either end, do not occlude; zero-length padding legs hit nothing.
    """
    m, k = seqs.shape
    surface_ids = np.arange(len(accel.offsets))
    blocked = np.zeros(m, dtype=bool)
    for i in range(k + 1):
        p0 = pts[:, i]
        d = pts[:, i + 1] - p0
        denom = d @ accel.normals.T                                  # (M, S)
        t = (accel.offsets - p0 @ accel.normals.T) / denom
        seg_len = np.sqrt(np.vecdot(d, d))[:, None]
        hits = (np.abs(denom) > 1e-15) & (t > 0.0) & (t < 1.0)
        # hits within the endpoint guard are the path's own touch points
        hits &= (t * seg_len >= _ENDPOINT_GUARD) & ((1.0 - t) * seg_len >= _ENDPOINT_GUARD)
        if i >= 1:
            hits &= surface_ids != seqs[:, i - 1, None]
        if i < k:
            hits &= surface_ids != seqs[:, i, None]
        if not hits.any():
            continue
        points = p0[:, None, :] + t[..., None] * d[:, None, :]     # (M, S, 3)
        blocked |= np.any(hits & _inside(accel.edge_normals, accel.edge_offsets, points), axis=1)
    return blocked


def _direction_angles(rotation: np.ndarray, units: np.ndarray) -> np.ndarray:
    """(M, 2) local (azimuth, elevation) of global unit vectors (M, 3) under a local-to-global rotation."""
    d = units @ rotation
    return np.column_stack([np.arctan2(d[:, 1], d[:, 0]), np.arcsin(np.clip(d[:, 2], -1.0, 1.0))])


def _unit(v: np.ndarray) -> np.ndarray:
    """Unit vectors along the last axis."""
    norm = np.sqrt(np.vecdot(v, v))
    if np.any(norm == 0.0):
        raise ValueError("zero-length direction")
    return v / norm[..., None]
