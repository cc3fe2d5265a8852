"""Image-method multipath solver.

Specular reflections only: candidate paths are the ordered surface sequences
up to a maximum reflection order K with no surface repeated back to back (the
image method of Allen & Berkley, JASA 1979). Unfolded through its bounces, a
path is the straight line from rx to the last image I of tx, and it meets each
bounce's plane mirrored through the row's later bounces (Borish, JASA 1984),
which depend on neither end. One plan per read-only scene and K holds the
occluders' planes and, for every sequence of order 0..K, its mirrored planes
and edge planes, its coefficient product and its maps back to the real frame
(_Plan); each read-only tx Pose has its images and their products with those
planes. A trace is one array pass over all M candidates (as Sionna RT does,
arXiv 2303.11103): one (K M, 3) @ rx product and one division place each
bounce on its line, one leg rule drops the rows whose bounces are out of order
or land on an end (_unfold), containment runs on the survivors only, and
|I - rx| and the coefficient product give the gain.

Real bounce points are mapped back only where something reads them: the
occlusion pass and a link's deferred columns. A wall (Scene.walls) has every
vertex of the scene on one closed side of its plane, so a segment between two
points on that side cannot cross it (as in beam tracing's convex cells,
Funkhouser et al., SIGGRAPH 1998). A trace refuses an end strictly behind a
wall, so the occluders are the other surfaces, and a closed room of walls
alone, like the desk box, skips the pass. The PathSet gets the survivors'
gains and delays at trace time and keeps their unfolded lines; the first read
of a Doppler shift, local angle, order or bounce point builds all five of
those columns at once (_trace_tail). A fingerprint, which reads gains and
delays only, never builds them.

Conventions:
  * angles are (azimuth, elevation) of the unit direction pointing from the
    terminal toward the first/last bounce (or the far terminal for LoS);
  * a terminal's local frame is the global frame turned by yaw about z;
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
from typing import NamedTuple

import numpy as np

from .scene import CONTAINS_TOL, Scene, _set_read_only

SPEED_OF_LIGHT = 299_792_458.0

# Paths weaker than this amplitude are dropped; bounds the path count without
# measurable effect on delay profiles or channels at indoor ranges.
GAIN_PRUNE_THRESHOLD = 1e-9

# Occlusion hits closer than this to a segment endpoint are the segment touching
# a surface it starts or ends on; this guard is the only filter for such touches.
# It is sound because no trace has an end behind a wall: a leg from there could
# meet a wall's plane only at its far end, on a seam, and pass the guard.
_ENDPOINT_GUARD = 1e-9


def wrap_angle(angle: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    w = math.fmod(angle + math.pi, 2.0 * math.pi)
    if w <= 0.0:
        w += 2.0 * math.pi
    return w - math.pi


@dataclass(frozen=True, eq=False)
class Pose:
    """Position, yaw and velocity of a terminal; its local frame is the global frame turned by yaw about z.

    Position and velocity are the pose's own read-only copies and yaw is
    wrapped to (-pi, pi]: the cached rotation and the tracer's image chains
    are built from them.
    """

    position: np.ndarray
    yaw: float = 0.0
    velocity: np.ndarray = (0.0, 0.0, 0.0)

    def __post_init__(self):
        _set_read_only(self, position=np.array(self.position, dtype=float).reshape(3),
                       yaw=wrap_angle(self.yaw), velocity=np.array(self.velocity, dtype=float).reshape(3))

    @classmethod
    def at(cls, x, y, z=0.0, yaw=0.0, velocity=(0.0, 0.0, 0.0)) -> "Pose":
        return cls(position=(x, y, z), yaw=yaw, velocity=velocity)

    @cached_property
    def rotation(self) -> np.ndarray:
        """Local-to-global rotation matrix Rz(yaw), built once, read-only."""
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        rotation = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
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

    gain (L,) complex and delay (L,) exist from the start. doppler and order
    (L,); aoa and aod (L, 2), the local (azimuth, elevation) at the receiver
    and the transmitter; and bounces (L, K, 3), each path's reflection points
    right-aligned behind K - order rows equal to the tx position (a list of
    paths pads K to its largest order): a traced PathSet builds these five at
    once on the first read of any of them, from the unsorted unfolded lines
    it keeps until then, and a list of paths sets them directly. Every column is
    read-only. Iteration and ``paths`` give the paths back as PropagationPaths.
    """

    def __init__(self, paths, tx_pose: Pose, rx_pose: Pose, carrier_freq: float):
        paths = list(paths)
        k = max((p.order for p in paths), default=0)
        self._set_head(tx_pose, rx_pose, carrier_freq,
                       np.array([p.gain for p in paths], dtype=complex),
                       np.array([p.delay for p in paths], dtype=float))
        self._set_tail(np.array([p.doppler for p in paths], dtype=float),
                       np.array([p.aoa for p in paths], dtype=float).reshape(-1, 2),
                       np.array([p.aod for p in paths], dtype=float).reshape(-1, 2),
                       np.array([p.order for p in paths], dtype=int),
                       np.array([np.vstack([tx_pose.position] * (k - p.order) + [p.reflection_points])
                                 for p in paths]).reshape(len(paths), k, 3))

    @classmethod
    def _traced(cls, tx_pose, rx_pose, carrier_freq, gain, delay, *unfolded) -> "PathSet":
        """trace_paths' route in: the survivors' unsorted unfolded lines wait for the first read of the tail."""
        ps = cls.__new__(cls)
        ps._set_head(tx_pose, rx_pose, carrier_freq, gain, delay)
        ps._unfolded = unfolded
        return ps

    def _set_head(self, tx_pose, rx_pose, carrier_freq, gain, delay):
        self._sort = idx = np.argsort(delay, kind="stable")
        self.tx_pose, self.rx_pose, self.carrier_freq = tx_pose, rx_pose, carrier_freq
        self.gain, self.delay = gain[idx], delay[idx]
        self.gain.flags.writeable = self.delay.flags.writeable = False
        self._tail = None

    def _set_tail(self, *columns):
        """Sort the unsorted (doppler, aoa, aod, order, bounces) like the head and freeze them."""
        # read-only like Pose's arrays: the channel layer keeps steering computed from them
        self._tail = tuple(column[self._sort] for column in columns)
        for column in self._tail:
            column.flags.writeable = False
        self._sort = self._unfolded = None

    def _read_tail(self) -> tuple:
        if self._tail is None:
            self._set_tail(*_trace_tail(self.tx_pose, self.rx_pose, self.carrier_freq, *self._unfolded))
        return self._tail

    doppler = property(lambda self: self._read_tail()[0])
    aoa = property(lambda self: self._read_tail()[1])
    aod = property(lambda self: self._read_tail()[2])
    order = property(lambda self: self._read_tail()[3])
    bounces = property(lambda self: self._read_tail()[4])

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
    if (d <= 0.0).any():
        raise ValueError(f"path_length must be > 0, got {path_length}")
    coeffs = np.asarray(reflection_coeffs, dtype=float)
    lam = SPEED_OF_LIGHT / carrier_freq
    amp = lam / (4.0 * math.pi * d)
    for j in range(coeffs.shape[-1]):
        amp = amp * coeffs[..., j]
    phase = -2.0 * math.pi * d / lam
    gain = np.empty(d.shape, dtype=complex)
    np.cos(phase, out=gain.real)
    np.sin(phase, out=gain.imag)
    gain *= amp   # (amp cos, amp sin) for a real amp
    return gain[()]


def trace_paths(scene: Scene, tx: Pose, rx: Pose, max_order: int = 2,
                carrier_freq: float = 2.4e9) -> PathSet:
    """All unoccluded specular paths of reflection order <= max_order.

    LoS is order 0. Delays are total polyline length over c; angles are
    rotated into each terminal's local frame; gains follow path_gain with the
    per-bounce material coefficients and are clamped to unit magnitude.
    Paths weaker than GAIN_PRUNE_THRESHOLD in amplitude are dropped.
    An end strictly behind a wall of the scene (Scene.walls) raises ValueError.
    Every candidate of every order is traced in one pass over the scene's
    padded candidate table, whose rows run order by order, so the PathSet's
    stable delay sort orders equal delays the same way on every call.
    The returned PathSet holds gains and delays; its Doppler shifts, angles,
    orders and bounces are built by _trace_tail on their first read.
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    if math.dist(rx.position, tx.position) < 1e-12:
        raise ValueError("coincident endpoints")
    behind = scene.walls.behind(np.array((tx.position, rx.position)))
    if behind.any():
        end, pose = ("tx", tx) if behind[0] else ("rx", rx)
        raise ValueError(f"{end} at {tuple(pose.position.tolist())} is behind a wall of the scene")

    plan = _plan_for(scene, max_order)
    rows, s, d, dist = _unfold(plan, tx, rx.position)
    gain = path_gain(dist, plan.coeffs.take(rows)[:, None], carrier_freq)
    amp = abs(gain)
    np.divide(gain, amp, out=gain, where=amp > 1.0)
    keep = amp >= GAIN_PRUNE_THRESHOLD
    if len(plan.occluders.offsets):
        keep &= ~_occluded(plan.occluders, _polylines(plan, tx.position, rx.position, rows, s, d))
    keep = keep.nonzero()[0]
    return PathSet._traced(tx, rx, carrier_freq, gain[keep], dist[keep] / SPEED_OF_LIGHT,
                           plan, rows[keep], s[:, keep], d[keep], dist[keep])


def _trace_tail(tx: Pose, rx: Pose, carrier_freq: float, plan, rows, s, d, dist) -> tuple:
    """A trace's unsorted (doppler, aoa, aod, order, bounces) from its rows' unfolded lines: each
    path reaches rx along u_arr = -D / |D| and leaves tx along the row's composed mirror of it."""
    u_arr = d / -dist[:, None]
    u_dep = np.vecdot(plan.linear[0].take(rows, axis=0), u_arr[:, None, :])
    doppler = carrier_freq / SPEED_OF_LIGHT * (np.vecdot(u_dep, tx.velocity) - np.vecdot(u_arr, rx.velocity))
    aoa = _direction_angles(rx.rotation, -u_arr)
    aod = _direction_angles(tx.rotation, u_dep)
    bounces = _polylines(plan, tx.position, rx.position, rows, s, d)[1:-1]
    return doppler, aoa, aod, plan.order.take(rows), bounces.transpose(1, 0, 2)


# ---------------------------------------------------------------------------
# internals

class _Surfaces(NamedTuple):
    """The occlusion tables of a scene's occluders: its planar surfaces that are not walls."""

    normals: np.ndarray       # (S, 3)
    offsets: np.ndarray       # (S,), n . x = offset
    edge_normals: np.ndarray  # (S, V, 3) in-plane edge normals n x edge, zero-padded to V
    edge_offsets: np.ndarray  # (S, V), inside is edge_normal . x >= edge_offset


@dataclass(eq=False)
class _Plan:
    """What a trace over M candidates of order 0..K needs and no end changes, one per (scene, K).

    Occlusion reads the occluders alone: both ends of a trace are on the scene side of every
    wall, where no segment crosses one. Level i's plane and edge planes are mirrored into the
    row's unfolded frame, which x -> linear[i + 1] x + shift[i + 1] maps back to the real one
    (linear[0], shift[0] undo every bounce). Padding levels come first in a row and mirror
    nothing: a zero normal with offset 1, zero edge planes. Every array is read-only.
    """

    occluders: _Surfaces      # the usable surfaces that are not walls
    order: np.ndarray         # (M,) each row's reflection order, non-decreasing
    padding: np.ndarray       # (K, M) which levels mirror nothing
    normals: np.ndarray       # (K, M, 3) each bounce's mirrored plane n' . x = o'
    offsets: np.ndarray       # (K, M)
    edge_normals: np.ndarray  # (K, V, M, 3) each bounce's mirrored polygon, edge-major
    edge_offsets: np.ndarray  # (K, V, M)
    coeffs: np.ndarray        # (M,) each row's product of reflection coefficients, 1.0 for LoS
    linear: np.ndarray        # (K + 1, M, 3, 3) the maps back to the real frame
    shift: np.ndarray         # (K + 1, M, 3)
    images: weakref.WeakKeyDictionary  # tx Pose -> _image_chain's arrays, dying with the pose

    def __post_init__(self):
        _set_read_only(self, **vars(self))
        for table in self.occluders:
            table.flags.writeable = False


_PLANS: "weakref.WeakKeyDictionary[Scene, dict]" = weakref.WeakKeyDictionary()  # scene -> {K: _Plan}


def _plan_for(scene: Scene, max_order: int) -> _Plan:
    """The scene's plan for order K, built once per (scene, K); it dies with the scene.

    Its rows are every sequence of order 0..K with no surface twice in a row, right-aligned
    behind padding levels of -1, in lexicographic order, which puts the orders in turn. Level
    i's map back mirrors through the row's bounces K - 1 down to i + 1. The occluders are the
    usable surfaces that Scene.walls does not name.
    """
    plans = _PLANS.setdefault(scene, {})
    plan = plans.get(max_order)
    if plan is None:
        usable = [s for s in scene.surfaces if s.unit_normal is not None]
        num_edges = max((len(s.vertices) for s in usable), default=0)
        normals, offsets = np.zeros((len(usable) + 1, 3)), np.zeros(len(usable) + 1)
        edge_normals, edge_offsets = np.zeros((len(usable) + 1, num_edges, 3)), np.zeros((len(usable) + 1, num_edges))
        for i, s in enumerate(usable):
            normals[i], offsets[i] = s.unit_normal, s.plane_offset
            edge_normals[i, : len(s.vertices)] = s.edge_normals
            edge_offsets[i, : len(s.vertices)] = s.edge_offsets
        occluders = ~scene.walls.mask
        coeffs = np.array([s.material.reflection_coeff for s in usable] + [1.0])
        side = len(usable) + 1   # indices -1..S-1, columns in lexicographic order
        seqs = np.indices((side,) * max_order).reshape(max_order, side ** max_order) - 1
        prev, cur = seqs[:-1], seqs[1:]
        seqs = seqs[:, ((prev < 0) | ((cur >= 0) & (cur != prev))).all(axis=0)]
        # orders no sequence reaches (fewer than two surfaces) leave all-padding levels
        seqs = seqs[(seqs >= 0).any(axis=1)]
        k, m = seqs.shape
        n, o = normals[seqs], offsets[seqs]
        linear, shift = np.empty((k + 1, m, 3, 3)), np.empty((k + 1, m, 3))
        linear[k], shift[k] = np.eye(3), 0.0
        for i in range(k - 1, -1, -1):   # mirror x -> x - 2 (n . x - o) n after the map of level i
            a, b = linear[i + 1], shift[i + 1]
            linear[i] = a - 2.0 * n[i, :, :, None] * (n[i, :, None, :] @ a)
            shift[i] = b - 2.0 * (np.vecdot(n[i], b) - o[i])[:, None] * n[i]
        # a plane n . x = o seen through x -> A x + b is (A^T n) . x = o - n . b
        e = edge_normals[seqs]
        mirrored = o - np.vecdot(n, shift[1:])
        mirrored[seqs < 0] = 1.0
        edge_major = lambda a: np.ascontiguousarray(np.moveaxis(a, 2, 1))   # (K, M, V, ...) -> (K, V, M, ...)
        plans[max_order] = plan = _Plan(
            _Surfaces(normals[:-1][occluders], offsets[:-1][occluders], edge_normals[:-1][occluders],
                      edge_offsets[:-1][occluders]), (seqs >= 0).sum(axis=0), seqs < 0,
            (n[..., None, :] @ linear[1:])[..., 0, :], mirrored, edge_major(e @ linear[1:]),
            edge_major(edge_offsets[seqs] - np.vecdot(e, shift[1:, :, None, :])), coeffs[seqs].prod(axis=0),
            linear, shift, weakref.WeakKeyDictionary())
    return plan


def _inside(heights):
    """Polygon containment (edges included) of N points from their (E, N) heights over the edge
    planes of their polygons, edge_normal . x - edge_offset; zero padding is always inside."""
    return (heights >= -CONTAINS_TOL).all(axis=0)


def _image_chain(plan: _Plan, tx_point: np.ndarray) -> tuple:
    """One tx's read-only images I (M, 3), tx mirrored through each row's bounces, with their
    products n' . I (K, M) with the mirrored planes (1 at padding, which puts it at s = 1) and
    their heights h(I) (K, V, M) over the mirrored edge planes."""
    image = ((tx_point - plan.shift[0])[:, None, :] @ plan.linear[0])[:, 0]
    n_dot_image = np.vecdot(plan.normals, image)
    n_dot_image[plan.padding] = 1.0
    heights = np.vecdot(plan.edge_normals, image) - plan.edge_offsets
    for a in (image, n_dot_image, heights):
        a.flags.writeable = False
    return image, n_dot_image, heights


@np.errstate(divide="ignore", invalid="ignore")
def _unfold(plan: _Plan, tx: Pose, rx_point: np.ndarray):
    """The M' rows with a path, their (K, M') line parameters s, (M', 3) D = I - rx and (M',) |D|.

    A row's path is rx + s D, and bounce i is at s = (o' - q) / (n' . I - q), q = n' . rx. A row
    survives when each real leg (s[i - 1] - s[i]) |D|, image to rx, is >= 1e-9 m and each real
    denominator >= 1e-15 in magnitude; padding, at s = 1, has zero-length legs that are no legs.
    A height over an edge plane is linear along the line: (1 - s) h(rx) + s h(I) at rx + s D.
    """
    entry = plan.images.get(tx) or plan.images.setdefault(tx, _image_chain(plan, tx.position))
    image, n_dot_image, image_heights = entry
    k, v, m = image_heights.shape
    d = image - rx_point
    dist = np.sqrt(np.vecdot(d, d))
    q = (plan.normals.reshape(k * m, 3) @ rx_point).reshape(k, m)
    denom = n_dot_image - q
    s = np.empty((k + 2, m))
    s[0], s[-1] = 1.0, 0.0   # the image and rx
    np.divide(plan.offsets - q, denom, out=s[1:-1])
    legs = (s[:-1] - s[1:]) * dist >= 1e-9
    legs[:-1] |= plan.padding
    legs[:-1] &= abs(denom) >= 1e-15
    rows = legs.all(axis=0).nonzero()[0]
    s = s[1:-1].take(rows, axis=1)   # take: 2-3x faster than fancy indexing on axis 1
    rx_heights = ((plan.edge_normals.reshape(k * v * m, 3) @ rx_point).reshape(k, v, m)
                  - plan.edge_offsets).take(rows, axis=2)
    heights = rx_heights + s[:, None] * (image_heights.take(rows, axis=2) - rx_heights)
    keep = _inside(heights.reshape(k * v, len(rows)))
    rows = rows[keep]
    return rows, s.compress(keep, axis=1), d.take(rows, axis=0), dist.take(rows)


def _polylines(plan: _Plan, tx_point, rx_point, rows, s, d) -> np.ndarray:
    """The rows' real (K + 2, M', 3) polylines: tx, each bounce rx + s D mapped back (tx at padding), rx."""
    pts = np.empty((len(s) + 2, len(rows), 3))
    pts[0], pts[-1] = tx_point, rx_point
    unfolded = rx_point + s[..., None] * d
    np.add(np.vecdot(plan.linear[1:].take(rows, axis=1), unfolded[..., None, :]),
           plan.shift[1:].take(rows, axis=1), out=pts[1:-1])
    np.copyto(pts[1:-1], tx_point, where=plan.padding.take(rows, axis=1)[..., None])
    return pts


@np.errstate(divide="ignore", invalid="ignore")
def _occluded(surfaces: _Surfaces, pts) -> np.ndarray:
    """(M,) mask: a segment of the (K + 2, M, 3) polylines crosses one of the surfaces between its ends.

    The endpoint guard, t L and (1 - t) L >= 1e-9, is the only filter for the surfaces a segment
    starts or ends on, whose planes it meets only there; zero-length padding legs hit nothing.
    """
    occluded = np.zeros(pts.shape[1], dtype=bool)
    normals, offsets, edge_normals, edge_offsets = surfaces
    starts, segs = pts[:-1], pts[1:] - pts[:-1]
    shape = segs.shape[:2] + (len(offsets),)   # (K + 1, M, S)
    denom = (segs.reshape(-1, 3) @ normals.T).reshape(shape)
    t = (offsets - (starts.reshape(-1, 3) @ normals.T).reshape(shape)) / denom
    length = np.sqrt(np.vecdot(segs, segs))[..., None]
    hits = (abs(denom) > 1e-15) & (t * length >= _ENDPOINT_GUARD) & ((1.0 - t) * length >= _ENDPOINT_GUARD)
    if not hits.any():
        return occluded
    leg, row, surface = hits.nonzero()
    points = starts[leg, row] + t[leg, row, surface, None] * segs[leg, row]
    inside = _inside((np.vecdot(edge_normals[surface], points[:, None, :]) - edge_offsets[surface]).T)
    occluded[row[inside]] = True
    return occluded


def _direction_angles(rotation: np.ndarray, units: np.ndarray) -> np.ndarray:
    """(M, 2) local (azimuth, elevation) of global unit vectors (M, 3) under a local-to-global rotation."""
    d = units @ rotation
    angles = np.empty((len(d), 2))
    np.arctan2(d[:, 1], d[:, 0], out=angles[:, 0])
    np.arcsin(np.clip(d[:, 2], -1.0, 1.0, out=angles[:, 1]), out=angles[:, 1])
    return angles

