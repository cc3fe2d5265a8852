"""Image-method multipath solver.

Specular reflections only: candidate paths are the ordered surface sequences
up to a maximum reflection order K with no surface repeated back to back (the
image method of Allen & Berkley, JASA 1979). There is one plan per read-only
scene and K: the planes and edge planes of the scene's occluders, and
level-major (K, M) tables of the planes, edge planes and coefficients of
every sequence of order 0..K, order by order, right-aligned behind -1s, so
level i is real exactly from row first[i] on. Each read-only tx Pose has one
(K + 1, M, 3) image chain and one (K + 2, M, 3) point template filled with tx.

A trace makes one array pass over all M candidates (as Sionna RT does, arXiv
2303.11103): the receiver is back-traced through the image chain, on each
level's real rows only, into a copy of the template; the plane guards run in
one pass over the (K, M) bounces and polygon containment only on the rows
that pass them, which padding passes by construction; and the survivors'
(K + 1, M') segments meet the occluders' planes in one occlusion pass, with
the endpoint guard as the only filter for the surfaces a segment starts or
ends on. A wall (Scene.walls) has every vertex of the scene on one closed
side of its plane, so a segment between two points on that side cannot cross
it (as in beam tracing's convex cells, Funkhouser et al., SIGGRAPH 1998). A
trace refuses an end strictly behind a wall, so the occluders are the other
surfaces, and a closed room of walls alone, like the desk box, skips the
pass. A -1 mirrors nothing, its point is the source and its coefficient 1,
so padding adds only zero-length legs. The survivors' gains and delays
become the PathSet's columns at trace time; it keeps their polylines, and
the first read of a Doppler shift, local angle, order or bounce point builds
all five of those columns from them at once. A fingerprint, which reads
gains and delays only, never builds them. The bounces keep the padding, as
rows equal to tx.

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
    once on the first read of any of them, from the unsorted polylines it
    keeps until then, and a list of paths sets them directly. Every column is
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
    def _traced(cls, tx_pose, rx_pose, carrier_freq, gain, delay, order, pts) -> "PathSet":
        """trace_paths' route in: the survivors' unsorted order (M',) and polylines (K + 2, M', 3)
        wait for the first read of the tail; no PropagationPath is built."""
        ps = cls.__new__(cls)
        ps._set_head(tx_pose, rx_pose, carrier_freq, gain, delay)
        ps._polylines = (order, pts)
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
        self._sort = self._polylines = None

    def _read_tail(self) -> tuple:
        if self._tail is None:
            self._set_tail(*_trace_tail(self.tx_pose, self.rx_pose, self.carrier_freq, *self._polylines))
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
    rows, pts = _unfold(plan, tx, rx.position)
    segs = pts[1:] - pts[:-1]
    seg_lengths = np.sqrt(np.add.reduce(segs * segs, axis=2))   # np.linalg.norm(segs, axis=2)
    short = seg_lengths < 1e-9  # a zero-length leg drops the path, unless it is padding
    short[:-1] &= np.less_equal.outer(plan.first, rows)
    total = seg_lengths.sum(axis=0)
    gain = path_gain(total, plan.coeffs.take(rows, axis=1).T, carrier_freq)
    amp = abs(gain)
    np.divide(gain, amp, out=gain, where=amp > 1.0)
    keep = (~_occluded(plan.occluders, pts[:-1], segs, seg_lengths)
            & ~short.any(axis=0)
            & (amp >= GAIN_PRUNE_THRESHOLD)).nonzero()[0]
    return PathSet._traced(tx, rx, carrier_freq, gain[keep], total[keep] / SPEED_OF_LIGHT,
                           plan.order[rows[keep]], pts.take(keep, axis=1))


def _trace_tail(tx: Pose, rx: Pose, carrier_freq: float, order, pts) -> tuple:
    """A trace's (doppler, aoa, aod, order, bounces), unsorted, from its (K + 2, M', 3) polylines.

    Each direction is normalised once. Legs under 1e-9 m are dropped at trace
    time, so _unit's zero-length raise cannot fire on a traced PathSet.
    """
    first = pts[-1 - order, np.arange(pts.shape[1])]  # the first bounce, or rx for LoS
    u_dep = _unit(first - pts[0])                     # leaves tx
    u_arr = _unit(pts[-1] - pts[-2])                  # arrives at rx
    doppler = carrier_freq / SPEED_OF_LIGHT * (np.vecdot(u_dep, tx.velocity) - np.vecdot(u_arr, rx.velocity))
    aoa = _direction_angles(rx.rotation, -u_arr)
    aod = _direction_angles(tx.rotation, u_dep)
    return doppler, aoa, aod, order, pts[1:-1].transpose(1, 0, 2)


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
    """What a trace over M candidates of order 0..K needs and no receiver changes, one per (scene, K).

    Both ends of a trace are on the scene side of every wall, where no segment crosses a wall
    inside its ends, so occlusion reads the occluders' tables alone. The bounce tables are
    level-major, and level i is a real bounce exactly on rows first[i]:. Every array is read-only.
    """

    occluders: _Surfaces      # the usable surfaces that are not walls
    order: np.ndarray         # (M,) each row's reflection order, non-decreasing
    first: np.ndarray         # (K,) each level's first real row
    normals: np.ndarray       # (K, M, 3) each bounce's plane (any plane at padding)
    offsets: np.ndarray       # (K, M)
    edge_normals: np.ndarray  # (K, M, V, 3) each bounce's polygon, zero (so always inside) at padding
    edge_offsets: np.ndarray  # (K, M, V)
    coeffs: np.ndarray        # (K, M) reflection coefficients, exactly 1.0 at padding
    guards: np.ndarray        # (2, K, M) denominator 1 and line parameter 0.5, which pass the plane guards
    images: weakref.WeakKeyDictionary  # tx Pose -> its image chain and point template, dying with the pose

    def __post_init__(self):
        _set_read_only(self, **vars(self))
        for table in self.occluders:
            table.flags.writeable = False


_PLANS: "weakref.WeakKeyDictionary[Scene, dict]" = weakref.WeakKeyDictionary()  # scene -> {K: _Plan}


def _plan_for(scene: Scene, max_order: int) -> _Plan:
    """The scene's plan for order K, built once per (scene, K); it dies with the scene.

    Its rows are every sequence of order 0..K with no surface twice in a row,
    an order-k row right-aligned behind K - k padding levels of -1, which
    gather a zero row of edge planes and a coefficient of 1.0. Rows are in
    lexicographic order, which puts the orders in turn. The occluders are the
    usable surfaces that Scene.walls does not name.
    """
    plans = _PLANS.setdefault(scene, {})
    plan = plans.get(max_order)
    if plan is None:
        usable = [s for s in scene.surfaces if s.unit_normal is not None]
        num_edges = max((len(s.vertices) for s in usable), default=0)
        edge_normals = np.zeros((len(usable) + 1, num_edges, 3))
        edge_offsets = np.zeros((len(usable) + 1, num_edges))
        for i, s in enumerate(usable):
            edge_normals[i, : len(s.vertices)] = s.edge_normals
            edge_offsets[i, : len(s.vertices)] = s.edge_offsets
        normals = np.array([s.unit_normal for s in usable]).reshape(-1, 3)
        offsets = np.array([s.plane_offset for s in usable])
        occluders = ~scene.walls.mask
        coeffs = np.array([s.material.reflection_coeff for s in usable] + [1.0])
        side = len(usable) + 1   # indices -1..S-1, columns in lexicographic order
        seqs = np.indices((side,) * max_order).reshape(max_order, side ** max_order) - 1
        prev, cur = seqs[:-1], seqs[1:]
        seqs = seqs[:, ((prev < 0) | ((cur >= 0) & (cur != prev))).all(axis=0)]
        # orders no sequence reaches (fewer than two surfaces) leave all-padding levels
        seqs = seqs[(seqs >= 0).any(axis=1)]
        real = seqs >= 0
        plans[max_order] = plan = _Plan(
            _Surfaces(normals[occluders], offsets[occluders], edge_normals[:-1][occluders],
                      edge_offsets[:-1][occluders]), real.sum(axis=0), (~real).sum(axis=1),
            normals[seqs], offsets[seqs], edge_normals[seqs], edge_offsets[seqs], coeffs[seqs],
            np.stack((np.ones(seqs.shape), np.full(seqs.shape, 0.5))), weakref.WeakKeyDictionary())
    return plan


def _inside(edge_normals, edge_offsets, points):
    """Polygon containment of points on their surfaces' planes (edges included).

    edge_normals (..., V, 3) and edge_offsets (..., V) describe one surface
    per point of points (..., 3); zero padding is always inside.
    """
    dist = np.vecdot(edge_normals, points[..., None, :]) - edge_offsets
    return ~(dist < -CONTAINS_TOL).any(axis=-1)


def _image_chain(plan: _Plan, tx_point: np.ndarray) -> tuple:
    """One tx's read-only (K + 1, M, 3) image chain and its (K + 2, M, 3) point template, all tx.

    Level j of the chain is tx mirrored through the row's first j planes, so
    only the rows first[j]: of level j + 1 mirror; padding mirrors nothing.
    """
    k, m = plan.offsets.shape
    images, template = np.full((k + 1, m, 3), tx_point), np.full((k + 2, m, 3), tx_point)
    for j, f in enumerate(plan.first):
        p, n = images[j, f:], plan.normals[j, f:]
        images[j + 1, f:] = p - (2.0 * (np.vecdot(p, n) - plan.offsets[j, f:]))[:, None] * n
    images.flags.writeable = template.flags.writeable = False
    return images, template


@np.errstate(divide="ignore", invalid="ignore")
def _unfold(plan: _Plan, tx: Pose, rx_point: np.ndarray):
    """Back-trace the plan's rows from rx; returns M' row indices and their (K + 2, M', 3) points (tx..rx).

    Level i is traced on its real rows first[i]: only, into a copy of the tx's point template
    and of the plan's guard template, whose padding entries (tx, and a denominator and line
    parameter that pass) are never written. The guards (each real bounce strictly between the
    previous point and the image) then run in one pass over the (K, M) denominators and line
    parameters, and containment on the rows that pass. Images are per tx pose.
    """
    entry = plan.images.get(tx)
    if entry is None:
        entry = plan.images[tx] = _image_chain(plan, tx.position)
    images, pts = entry[0], entry[1].copy()
    pts[-1] = rx_point
    denom, t = plan.guards.copy()
    for i in range(len(plan.first) - 1, -1, -1):
        f = plan.first[i]
        cur, n, d = pts[i + 2, f:], plan.normals[i, f:], denom[i, f:]
        ab = images[i + 1, f:] - cur
        np.vecdot(ab, n, out=d)
        np.divide(plan.offsets[i, f:] - np.vecdot(cur, n), d, out=t[i, f:])
        np.add(cur, t[i, f:, None] * ab, out=pts[i + 1, f:])
    rows = ((abs(denom) >= 1e-15) & (t > 1e-12) & (t < 1.0 - 1e-12)).all(axis=0).nonzero()[0]
    pts = pts.take(rows, axis=1)   # take: 2-3x faster than fancy indexing on axis 1
    keep = _inside(plan.edge_normals.take(rows, axis=1), plan.edge_offsets.take(rows, axis=1),
                   pts[1:-1]).all(axis=0)
    return rows[keep], pts.compress(keep, axis=1)


@np.errstate(divide="ignore", invalid="ignore")
def _occluded(surfaces: _Surfaces, starts, segs, seg_lengths) -> np.ndarray:
    """(M,) mask: some segment crosses one of the given surfaces between its ends.

    All (K + 1, M) segments starts + t segs meet the surfaces' planes at once. The endpoint
    guard, t L and (1 - t) L >= 1e-9 (so 0 < t < 1), is the only filter for the surfaces a
    segment starts or ends on, whose planes it meets only there; zero-length padding legs hit
    nothing. Only hits are tested for containment. With no surface (a trace of a convex room,
    whose surfaces are all walls) or no hit the pass stops.
    """
    occluded = np.zeros(segs.shape[1], dtype=bool)
    normals, offsets, edge_normals, edge_offsets = surfaces
    if not len(offsets):
        return occluded
    shape = segs.shape[:2] + (len(offsets),)   # (K + 1, M, S)
    denom = (segs.reshape(-1, 3) @ normals.T).reshape(shape)
    t = (offsets - (starts.reshape(-1, 3) @ normals.T).reshape(shape)) / denom
    length = seg_lengths[..., None]
    hits = (abs(denom) > 1e-15) & (t * length >= _ENDPOINT_GUARD) & ((1.0 - t) * length >= _ENDPOINT_GUARD)
    if not hits.any():
        return occluded
    leg, row, surface = hits.nonzero()
    points = starts[leg, row] + t[leg, row, surface, None] * segs[leg, row]
    inside = _inside(edge_normals[surface], edge_offsets[surface], points)
    occluded[row[inside]] = True
    return occluded


def _direction_angles(rotation: np.ndarray, units: np.ndarray) -> np.ndarray:
    """(M, 2) local (azimuth, elevation) of global unit vectors (M, 3) under a local-to-global rotation."""
    d = units @ rotation
    angles = np.empty((len(d), 2))
    np.arctan2(d[:, 1], d[:, 0], out=angles[:, 0])
    np.arcsin(np.clip(d[:, 2], -1.0, 1.0, out=angles[:, 1]), out=angles[:, 1])
    return angles


def _unit(v: np.ndarray) -> np.ndarray:
    """Unit vectors along the last axis."""
    norm = np.sqrt(np.vecdot(v, v))
    if (norm == 0.0).any():
        raise ValueError("zero-length direction")
    return v / norm[..., None]
