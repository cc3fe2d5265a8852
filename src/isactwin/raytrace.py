"""Image-method multipath solver.

Specular reflections only: candidate paths are the ordered surface sequences
up to a maximum reflection order with no surface repeated back to back (the
image method of Allen & Berkley, JASA 1979). Each scene caches, once, its
planes, reflection coefficients, per-surface edge planes, and the (M_k, k)
table of surface indices of every order k.

A trace makes one array pass per reflection order over all M_k sequences of
that order (Sionna RT evaluates candidates the same way, arXiv 2303.11103):
the source is mirrored through the k planes into an (M_k, 3) image chain,
back-traced from the receiver to the reflection points, checked for polygon
containment against the edge planes, and every one of the k + 1 segments is
tested for occlusion against all S planes as (M_k, S) masks. Each surviving
path carries a complex gain, a delay, a Doppler shift, and departure/arrival
angles expressed in the local frame of its terminal, all computed on the same
arrays with one rotation matrix per terminal.

Conventions:
  * angles are (azimuth, elevation) of the unit direction pointing from the
    terminal toward the first/last bounce (or the far terminal for LoS);
  * Euler orientation is Z-Y-X (yaw about z, then pitch about y, roll about x);
  * the per-path amplitude is (lambda / (4 pi d)) * prod(reflection coeffs)
    with phase -2 pi d / lambda, clamped to unit magnitude at sub-wavelength
    ranges.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .scene import Scene, Surface

SPEED_OF_LIGHT = 299_792_458.0

# Paths weaker than this amplitude are dropped; bounds the path count without
# measurable effect on delay profiles or channels at indoor ranges.
GAIN_PRUNE_THRESHOLD = 1e-9

# Occlusion hits closer than this to a segment endpoint are numerical
# artifacts of the reflection points lying on their own surfaces.
_ENDPOINT_GUARD = 1e-9

# A point this far outside a polygon edge still counts as inside, so a
# reflection on the edge shared by two surfaces is kept.
_CONTAINS_TOL = 1e-9


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
        vel = np.zeros(3) if self.velocity is None else np.asarray(self.velocity, dtype=float).reshape(3)
        object.__setattr__(self, "velocity", vel)

    @classmethod
    def at(cls, x, y, z=0.0, yaw=0.0, pitch=0.0, roll=0.0, velocity=(0.0, 0.0, 0.0)) -> "Pose":
        return cls(position=(x, y, z), orientation=(yaw, pitch, roll), velocity=velocity)

    @property
    def yaw(self) -> float:
        return float(self.orientation[0])

    def rotation(self) -> np.ndarray:
        """Local-to-global rotation matrix Rz(yaw) @ Ry(pitch) @ Rx(roll)."""
        a, b, g = self.orientation
        ca, sa = math.cos(a), math.sin(a)
        cb, sb = math.cos(b), math.sin(b)
        cg, sg = math.cos(g), math.sin(g)
        rz = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
        ry = np.array([[cb, 0.0, sb], [0.0, 1.0, 0.0], [-sb, 0.0, cb]])
        rx = np.array([[1.0, 0.0, 0.0], [0.0, cg, -sg], [0.0, sg, cg]])
        return rz @ ry @ rx


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


@dataclass(eq=False)
class PathSet:
    """All resolvable paths of one link, sorted ascending by delay."""

    paths: list
    tx_pose: Pose
    rx_pose: Pose
    carrier_freq: float

    def __post_init__(self):
        self.paths = sorted(self.paths, key=lambda p: p.delay)

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self):
        return iter(self.paths)


def mirror_across_surface(point: np.ndarray, surface: Surface) -> np.ndarray:
    """Reflect a point across the surface's plane (an involution)."""
    if surface.unit_normal is None:
        raise ValueError("surface has no well-defined plane")
    p = np.asarray(point, dtype=float)
    n = surface.unit_normal
    return p - 2.0 * ((p - surface.vertices[0]) @ n) * n


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


def doppler_shift(path_points, tx_velocity, rx_velocity, carrier_freq: float):
    """Doppler from the first/last segment directions of a path polyline (tx..rx).

    nu = (f_c / c) * (v_tx . u_dep + v_rx . (-u_arr)), where u_dep leaves the
    transmitter along the first segment and u_arr arrives at the receiver
    along the last segment. Takes one polyline (n, 3) or M of them (M, n, 3).
    """
    pts = np.asarray(path_points, dtype=float)
    u_dep = _unit(pts[..., 1, :] - pts[..., 0, :])
    u_arr = _unit(pts[..., -1, :] - pts[..., -2, :])
    v_tx = np.asarray(tx_velocity, dtype=float)
    v_rx = np.asarray(rx_velocity, dtype=float)
    return carrier_freq / SPEED_OF_LIGHT * (np.vecdot(u_dep, v_tx) - np.vecdot(u_arr, v_rx))


def trace_paths(
    scene: Scene,
    tx: Pose,
    rx: Pose,
    max_order: int = 2,
    carrier_freq: float = 2.4e9,
    prune_gain: float = GAIN_PRUNE_THRESHOLD,
) -> PathSet:
    """All unoccluded specular paths of reflection order <= max_order.

    LoS is order 0. Delays are total polyline length over c; angles are
    rotated into each terminal's local frame; gains follow path_gain with the
    per-bounce material coefficients and are clamped to unit magnitude.
    Paths are built order by order, each order in sequence-table order, so
    the PathSet's stable delay sort orders equal delays the same way on
    every call.
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    sep = np.linalg.norm(rx.position - tx.position)
    if sep < 1e-12:
        raise ValueError("coincident endpoints")

    accel = _accel_for(scene)
    rot_tx, rot_rx = tx.rotation(), rx.rotation()
    paths = []
    for order in range(max_order + 1):
        seqs = accel.sequences(order)
        pts, seqs = _unfold(accel, seqs, tx.position, rx.position)
        seg_lengths = np.linalg.norm(np.diff(pts, axis=1), axis=2)
        keep = ~_occluded(accel, pts, seqs) & np.all(seg_lengths >= 1e-9, axis=1)
        pts, seqs, total = pts[keep], seqs[keep], seg_lengths[keep].sum(axis=1)
        gain = path_gain(total, accel.coeffs[seqs], carrier_freq)
        amp = np.abs(gain)
        keep = amp >= prune_gain
        clamp = amp > 1.0
        gain[clamp] /= amp[clamp]
        pts, total, gain = pts[keep], total[keep], gain[keep]
        doppler = doppler_shift(pts, tx.velocity, rx.velocity, carrier_freq)
        aoa = _direction_angles(rot_rx, pts[:, -2] - pts[:, -1])
        aod = _direction_angles(rot_tx, pts[:, 1] - pts[:, 0])
        for g, delay, nu, a_in, a_out, refl in zip(
            gain.tolist(), (total / SPEED_OF_LIGHT).tolist(), doppler.tolist(),
            aoa.tolist(), aod.tolist(), pts[:, 1:-1],
        ):
            paths.append(PropagationPath(gain=g, delay=delay, doppler=nu, aoa=tuple(a_in),
                                         aod=tuple(a_out), reflection_points=refl, order=order))
    return PathSet(paths=paths, tx_pose=tx, rx_pose=rx, carrier_freq=carrier_freq)


def relay_paths(inbound: PathSet, outbound: PathSet, reflection_coeff: float,
                prune_gain: float = GAIN_PRUNE_THRESHOLD) -> PathSet:
    """Compose paths through a regenerative scatterer with zero processing delay.

    The scatterer re-emits whatever impinges on it, scaled by its reflection
    coefficient: delays and Dopplers add, gains multiply. Used for the
    monostatic-sensing workaround where a dummy transmitter echoes at an
    object position.
    """
    if abs(inbound.carrier_freq - outbound.carrier_freq) > 1e-6:
        raise ValueError("carrier frequency mismatch between path legs")
    joint = inbound.rx_pose.position
    if np.linalg.norm(joint - outbound.tx_pose.position) > 1e-9:
        raise ValueError("inbound rx and outbound tx must coincide at the scatterer")
    composed = []
    for a in inbound.paths:
        for b in outbound.paths:
            gain = a.gain * b.gain * reflection_coeff
            amp = abs(gain)
            if amp < prune_gain:
                continue
            if amp > 1.0:
                gain /= amp
            pts = np.vstack([a.reflection_points, joint[None, :], b.reflection_points])
            composed.append(
                PropagationPath(
                    gain=gain,
                    delay=a.delay + b.delay,
                    doppler=a.doppler + b.doppler,
                    aoa=b.aoa,
                    aod=a.aod,
                    reflection_points=pts,
                    order=a.order + b.order + 1,
                )
            )
    return PathSet(paths=composed, tx_pose=inbound.tx_pose, rx_pose=outbound.rx_pose,
                   carrier_freq=inbound.carrier_freq)


def pathset_to_record(ps: PathSet) -> dict:
    """JSON-able record of a path set: the per-path parameter vectors plus endpoints.

    Arrays are ordered by ascending delay; complex gains are split into
    re/im. The fingerprint database stores binned delay profiles instead (see
    the localization module), but this record format keeps the raw solver
    output exportable per grid point.
    """
    return {
        "carrier_hz": ps.carrier_freq,
        "tx_position": ps.tx_pose.position.tolist(),
        "rx_position": ps.rx_pose.position.tolist(),
        "gain_re": [p.gain.real for p in ps.paths],
        "gain_im": [p.gain.imag for p in ps.paths],
        "delay_s": [p.delay for p in ps.paths],
        "doppler_hz": [p.doppler for p in ps.paths],
        "aoa_rad": [list(p.aoa) for p in ps.paths],
        "aod_rad": [list(p.aod) for p in ps.paths],
        "order": [p.order for p in ps.paths],
        "reflection_points": [p.reflection_points.tolist() for p in ps.paths],
    }


def pathset_from_record(rec: dict) -> PathSet:
    paths = [
        PropagationPath(
            gain=complex(re, im),
            delay=d,
            doppler=nu,
            aoa=tuple(aoa),
            aod=tuple(aod),
            reflection_points=np.asarray(pts, dtype=float).reshape(-1, 3),
            order=order,
        )
        for re, im, d, nu, aoa, aod, order, pts in zip(
            rec["gain_re"], rec["gain_im"], rec["delay_s"], rec["doppler_hz"],
            rec["aoa_rad"], rec["aod_rad"], rec["order"], rec["reflection_points"],
        )
    ]
    return PathSet(
        paths=paths,
        tx_pose=Pose(position=rec["tx_position"]),
        rx_pose=Pose(position=rec["rx_position"]),
        carrier_freq=rec["carrier_hz"],
    )


# ---------------------------------------------------------------------------
# internals

@dataclass(eq=False)
class _Accel:
    """Per-scene tables of the usable (planar) surfaces, S of them."""

    normals: np.ndarray       # (S, 3)
    offsets: np.ndarray       # (S,), n . x = offset
    coeffs: np.ndarray        # (S,) reflection coefficients
    edge_normals: np.ndarray  # (S, V, 3) in-plane edge normals n x edge, zero-padded to V
    edge_offsets: np.ndarray  # (S, V), inside is edge_normal . x >= edge_offset
    tables: list              # tables[k]: (M_k, k) surface indices of every order-k sequence

    def sequences(self, order: int) -> np.ndarray:
        """Surface sequences of one order, no surface twice in a row, lexicographic.

        Row order is the enumeration order of a breadth-first walk: each
        order-(k-1) sequence in turn, extended by every surface in scene order.
        """
        num = len(self.offsets)
        while len(self.tables) <= order:
            prev = self.tables[-1]
            last = np.tile(np.arange(num), len(prev))
            table = np.column_stack([np.repeat(prev, num, axis=0), last])
            if prev.shape[1]:
                table = table[table[:, -2] != last]
            self.tables.append(table)
        return self.tables[order]


_ACCEL_CACHE: "weakref.WeakKeyDictionary[Scene, _Accel]" = weakref.WeakKeyDictionary()


def _accel_for(scene: Scene) -> _Accel:
    accel = _ACCEL_CACHE.get(scene)
    if accel is None:
        usable = [s for s in scene.surfaces if s.unit_normal is not None]
        num_edges = max((len(s.vertices) for s in usable), default=0)
        edge_normals = np.zeros((len(usable), num_edges, 3))
        edge_offsets = np.zeros((len(usable), num_edges))
        for i, s in enumerate(usable):
            v = s.vertices
            m = np.cross(s.unit_normal, np.roll(v, -1, axis=0) - v)
            edge_normals[i, : len(v)] = m
            edge_offsets[i, : len(v)] = np.vecdot(m, v)
        accel = _Accel(
            normals=np.array([s.unit_normal for s in usable]).reshape(-1, 3),
            offsets=np.array([s.plane_offset for s in usable]),
            coeffs=np.array([s.material.reflection_coeff for s in usable]),
            edge_normals=edge_normals,
            edge_offsets=edge_offsets,
            tables=[np.zeros((1, 0), dtype=np.intp)],
        )
        _ACCEL_CACHE[scene] = accel
    return accel


def _inside(edge_normals, edge_offsets, points):
    """Polygon containment of points on their surfaces' planes (edges included).

    edge_normals (..., V, 3) and edge_offsets (..., V) describe one surface
    per point of points (..., 3); zero padding is always inside.
    """
    dist = np.vecdot(edge_normals, points[..., None, :]) - edge_offsets
    return ~np.any(dist < -_CONTAINS_TOL, axis=-1)


@np.errstate(divide="ignore", invalid="ignore")
def _unfold(accel: _Accel, seqs: np.ndarray, tx_point, rx_point):
    """Back-trace (M, k) surface sequences into (M', k + 2, 3) path points (tx..rx).

    Returns the points and the M' sequences whose every bounce lands inside
    its polygon, strictly between the previous point and the image.
    """
    m, k = seqs.shape
    normals, offsets = accel.normals[seqs], accel.offsets[seqs]   # (M, k, 3), (M, k)
    images = [np.broadcast_to(np.asarray(tx_point, dtype=float), (m, 3))]
    for j in range(k):
        p, n = images[-1], normals[:, j]
        images.append(p - (2.0 * (np.vecdot(p, n) - offsets[:, j]))[:, None] * n)
    cur = np.broadcast_to(np.asarray(rx_point, dtype=float), (m, 3))
    pts = [cur]
    ok = np.ones(m, dtype=bool)
    for i in range(k, 0, -1):
        n, s = normals[:, i - 1], seqs[:, i - 1]
        ab = images[i] - cur
        denom = np.vecdot(ab, n)
        t = (offsets[:, i - 1] - np.vecdot(cur, n)) / denom
        cur = cur + t[:, None] * ab
        ok &= (np.abs(denom) >= 1e-15) & (t > 1e-12) & (t < 1.0 - 1e-12)
        ok &= _inside(accel.edge_normals[s], accel.edge_offsets[s], cur)
        pts.append(cur)
    pts.append(images[0])
    return np.stack(pts[::-1], axis=1)[ok], seqs[ok]


@np.errstate(divide="ignore", invalid="ignore")
def _occluded(accel: _Accel, pts: np.ndarray, seqs: np.ndarray) -> np.ndarray:
    """(M,) mask: some segment crosses a surface it does not reflect on.

    Each of the k + 1 segments is intersected with all S planes at once; a
    segment's own start and end surfaces, and hits within the endpoint
    guard of either end, do not occlude.
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


def _direction_angles(rotation: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """(M, 2) local (azimuth, elevation) of global directions (M, 3) under a local-to-global rotation."""
    d = _unit(directions) @ rotation
    return np.column_stack([np.arctan2(d[:, 1], d[:, 0]), np.arcsin(np.clip(d[:, 2], -1.0, 1.0))])


def _unit(v: np.ndarray) -> np.ndarray:
    """Unit vectors along the last axis."""
    norm = np.sqrt(np.vecdot(v, v))
    if np.any(norm == 0.0):
        raise ValueError("zero-length direction")
    return v / norm[..., None]
