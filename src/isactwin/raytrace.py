"""Image-method multipath solver.

Specular reflections only: candidate paths are the ordered surface sequences
up to a maximum reflection order K with no surface repeated back to back (the
image method of Allen & Berkley, JASA 1979). Each read-only scene caches its
planes, reflection coefficients, per-surface edge planes and, per K, one plan:
the (M, K) table of every sequence of order 0..K, order by order, right-aligned
behind -1s, its planes, edge planes and coefficients gathered once, and one
(M, K + 1, 3) image chain per read-only tx Pose.

A trace makes one array pass over all M candidates (as Sionna RT does, arXiv
2303.11103): the receiver is back-traced through the image chain to the
reflection points, all bounces are checked for polygon containment at once,
and all (M, K + 1) segments are tested for occlusion against all S planes in
one pass, with the endpoint guard as the only filter for the surfaces a
segment starts or ends on. A -1 mirrors nothing, its point is the source and
its coefficient 1, so padding adds only zero-length legs. The survivors'
gains and delays become the PathSet's columns at trace time; it keeps their
polylines, and the first read of a Doppler shift, local angle, order or
bounce point builds all five of those columns from them at once. A
fingerprint, which reads gains and delays only, never builds them. The
bounces keep the padding, as rows equal to tx.

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

# Occlusion hits closer than this to a segment endpoint are the segment touching
# a surface it starts or ends on; this guard is the only filter for such touches.
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
        ori = np.zeros(3) if self.orientation is None else np.asarray(self.orientation, dtype=float).reshape(3)
        # own read-only copies: the cached rotation and the tracer's image chains are built from them
        for name, value in (("position", self.position), ("orientation", [wrap_angle(a) for a in ori]),
                            ("velocity", np.zeros(3) if self.velocity is None else self.velocity)):
            object.__setattr__(self, name, np.array(value, dtype=float).reshape(3))
            getattr(self, name).flags.writeable = False

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
        """trace_paths' route in: the survivors' unsorted order (M',) and polylines (M', K + 2, 3)
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
    The returned PathSet holds gains and delays; its Doppler shifts, angles,
    orders and bounces are built by _trace_tail on their first read.
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    if np.linalg.norm(rx.position - tx.position) < 1e-12:
        raise ValueError("coincident endpoints")

    accel = _accel_for(scene)
    plan = accel.plan(max_order)
    rows, pts = _unfold(plan, tx, rx.position)
    segs = np.diff(pts, axis=1)
    seg_lengths = np.linalg.norm(segs, axis=2)
    short = seg_lengths < 1e-9  # a zero-length leg drops the path, unless it is padding
    short[:, :-1] &= plan.real[rows]
    keep = ~_occluded(accel, pts[:, :-1], segs, seg_lengths) & ~short.any(axis=1)
    rows, pts, total = rows[keep], pts[keep], seg_lengths[keep].sum(axis=1)
    gain = path_gain(total, plan.coeffs[rows], carrier_freq)
    amp = np.abs(gain)
    gain[amp > 1.0] /= amp[amp > 1.0]
    keep = amp >= GAIN_PRUNE_THRESHOLD
    rows, pts, total, gain = rows[keep], pts[keep], total[keep], gain[keep]
    order = np.count_nonzero(plan.real[rows], axis=1)
    return PathSet._traced(tx, rx, carrier_freq, gain, total / SPEED_OF_LIGHT, order, pts)


def _trace_tail(tx: Pose, rx: Pose, carrier_freq: float, order, pts) -> tuple:
    """A trace's (doppler, aoa, aod, order, bounces), unsorted, from its (M', K + 2, 3) polylines.

    Each direction is normalised once. Legs under 1e-9 m are dropped at trace
    time, so _unit's zero-length raise cannot fire on a traced PathSet.
    """
    first = pts[np.arange(len(pts)), -1 - order]  # the first bounce, or rx for LoS
    u_dep = _unit(first - pts[:, 0])              # leaves tx
    u_arr = _unit(pts[:, -1] - pts[:, -2])        # arrives at rx
    doppler = carrier_freq / SPEED_OF_LIGHT * (np.vecdot(u_dep, tx.velocity) - np.vecdot(u_arr, rx.velocity))
    aoa = _direction_angles(rx.rotation, -u_arr)
    aod = _direction_angles(tx.rotation, u_dep)
    return doppler, aoa, aod, order, pts[:, 1:-1]


# ---------------------------------------------------------------------------
# internals

@dataclass(eq=False)
class _Plan:
    """What a trace over M candidates of order 0..K needs and no receiver changes (_Accel's, gathered)."""

    real: np.ndarray          # (M, K) bounce is a surface; an order-k row leads with K - k padding columns
    normals: np.ndarray       # (M, K, 3) each bounce's plane (any plane at padding)
    offsets: np.ndarray       # (M, K)
    edge_normals: np.ndarray  # (M, K, V, 3) each bounce's polygon
    edge_offsets: np.ndarray  # (M, K, V)
    coeffs: np.ndarray        # (M, K) reflection coefficients, exactly 1.0 at padding
    images: weakref.WeakKeyDictionary  # tx Pose -> its (M, K + 1, 3) image chain, dying with the pose


@dataclass(eq=False)
class _Accel:
    """Per-scene tables of the usable (planar) surfaces, S of them."""

    normals: np.ndarray       # (S, 3)
    offsets: np.ndarray       # (S,), n . x = offset
    coeffs: np.ndarray        # (S,) reflection coefficients
    edge_normals: np.ndarray  # (S, V, 3) in-plane edge normals n x edge, zero-padded to V
    edge_offsets: np.ndarray  # (S, V), inside is edge_normal . x >= edge_offset
    plans: dict               # max_order K -> its _Plan

    def plan(self, max_order: int) -> _Plan:
        """The plan of every sequence of order 0..K with no surface twice in a row, built once per K.

        An order-k row is right-aligned behind K - k padding columns of -1.
        Rows are in lexicographic order, which puts the orders in turn.
        """
        plan = self.plans.get(max_order)
        if plan is None:
            side = len(self.offsets) + 1   # indices -1..S-1, rows in lexicographic order
            seqs = np.indices((side,) * max_order).reshape(max_order, side ** max_order).T - 1
            prev, cur = seqs[:, :-1], seqs[:, 1:]
            seqs = seqs[np.all((prev < 0) | ((cur >= 0) & (cur != prev)), axis=1)]
            # orders no sequence reaches (fewer than two surfaces) leave all-padding columns
            seqs = seqs[:, np.any(seqs >= 0, axis=0)]
            self.plans[max_order] = plan = _Plan(
                seqs >= 0, self.normals[seqs], self.offsets[seqs], self.edge_normals[seqs],
                self.edge_offsets[seqs], np.where(seqs < 0, 1.0, self.coeffs[seqs]),
                weakref.WeakKeyDictionary())
        return plan


_ACCEL_CACHE: "weakref.WeakKeyDictionary[Scene, _Accel]" = weakref.WeakKeyDictionary()


def _accel_for(scene: Scene) -> _Accel:
    accel = _ACCEL_CACHE.get(scene)
    if accel is None:
        usable = [s for s in scene.surfaces if s.unit_normal is not None]
        num_edges = max((len(s.vertices) for s in usable), default=0)
        edge_normals = np.zeros((len(usable), num_edges, 3))
        edge_offsets = np.zeros((len(usable), num_edges))
        for i, s in enumerate(usable):
            edge_normals[i, : len(s.vertices)] = s.edge_normals
            edge_offsets[i, : len(s.vertices)] = s.edge_offsets
        _ACCEL_CACHE[scene] = accel = _Accel(
            normals=np.array([s.unit_normal for s in usable]).reshape(-1, 3),
            offsets=np.array([s.plane_offset for s in usable]),
            coeffs=np.array([s.material.reflection_coeff for s in usable]),
            edge_normals=edge_normals, edge_offsets=edge_offsets, plans={},
        )
    return accel


def _inside(edge_normals, edge_offsets, points):
    """Polygon containment of points on their surfaces' planes (edges included).

    edge_normals (..., V, 3) and edge_offsets (..., V) describe one surface
    per point of points (..., 3); zero padding is always inside.
    """
    dist = np.vecdot(edge_normals, points[..., None, :]) - edge_offsets
    return ~np.any(dist < -CONTAINS_TOL, axis=-1)


def _image_chain(plan: _Plan, tx_point: np.ndarray) -> np.ndarray:
    """(M, K + 1, 3): column j is tx mirrored through the row's first j planes (padding mirrors nothing)."""
    m, k = plan.real.shape
    images = np.empty((m, k + 1, 3))
    images[:, 0] = tx_point
    for j in range(k):
        p, n = images[:, j], plan.normals[:, j]
        mirrored = p - (2.0 * (np.vecdot(p, n) - plan.offsets[:, j]))[:, None] * n
        images[:, j + 1] = np.where(plan.real[:, j, None], mirrored, p)
    return images


@np.errstate(divide="ignore", invalid="ignore")
def _unfold(plan: _Plan, tx: Pose, rx_point: np.ndarray):
    """Back-trace the plan's rows from rx; returns M' row indices and their (M', K + 2, 3) points (tx..rx).

    It keeps the M' rows whose every real bounce lands inside its polygon, strictly
    between the previous point and the image, and tests containment once, after the
    loop. A padding column (they lead, so no bounce is traced back from one) has no
    guards, and its point is tx. The image chain is built once per tx pose.
    """
    images = plan.images.get(tx)
    if images is None:
        images = plan.images[tx] = _image_chain(plan, tx.position)
    m, k = plan.real.shape
    pts = np.empty((m, k + 2, 3))
    pts[:, 0], pts[:, -1] = tx.position, rx_point
    cur = pts[:, -1]
    ok = np.ones(m, dtype=bool)
    for i in range(k, 0, -1):
        n = plan.normals[:, i - 1]
        ab = images[:, i] - cur
        denom = np.vecdot(ab, n)
        t = (plan.offsets[:, i - 1] - np.vecdot(cur, n)) / denom
        cur = pts[:, i] = cur + t[:, None] * ab
        ok &= ~plan.real[:, i - 1] | ((np.abs(denom) >= 1e-15) & (t > 1e-12) & (t < 1.0 - 1e-12))
    bounces = pts[:, 1:-1]
    ok &= np.all(~plan.real | _inside(plan.edge_normals, plan.edge_offsets, bounces), axis=1)
    bounces[~plan.real] = tx.position
    return np.flatnonzero(ok), pts[ok]


@np.errstate(divide="ignore", invalid="ignore")
def _occluded(accel: _Accel, starts, segs, seg_lengths) -> np.ndarray:
    """(M,) mask: some segment crosses a surface between its ends.

    All (M, K + 1) segments starts + t segs, 0 < t < 1, meet all S planes at once.
    The endpoint guard is the only filter for the surfaces a segment starts or ends
    on, whose planes it meets only there; zero-length padding legs hit nothing.
    Only hits are tested for containment.
    """
    shape = segs.shape[:2] + (len(accel.offsets),)   # (M, K + 1, S)
    denom = (segs.reshape(-1, 3) @ accel.normals.T).reshape(shape)
    t = (accel.offsets - (starts.reshape(-1, 3) @ accel.normals.T).reshape(shape)) / denom
    length = seg_lengths[..., None]
    # hits within the endpoint guard are the path's own touch points
    hits = (np.abs(denom) > 1e-15) & (t > 0.0) & (t < 1.0)
    hits &= (t * length >= _ENDPOINT_GUARD) & ((1.0 - t) * length >= _ENDPOINT_GUARD)
    row, leg, surface = np.nonzero(hits)
    points = starts[row, leg] + t[row, leg, surface, None] * segs[row, leg]
    inside = _inside(accel.edge_normals[surface], accel.edge_offsets[surface], points)
    return np.bincount(row[inside], minlength=len(segs)) > 0


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
    if np.any(norm == 0.0):
        raise ValueError("zero-length direction")
    return v / norm[..., None]
