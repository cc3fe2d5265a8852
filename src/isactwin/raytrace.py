"""Image-method multipath solver.

Specular reflections only: candidate paths are the ordered surface sequences
up to a maximum reflection order K with no surface repeated back to back (the
image method of Allen & Berkley, JASA 1979). Unfolded through its bounces, a
path is the straight line from rx to the last image I of tx, and it meets each
bounce's plane mirrored through the row's later bounces (Borish, JASA 1984),
which depend on neither end. One plan per read-only scene and K holds the
occluders' planes and, for every sequence of order 0..K, its mirrored planes
and edge planes, its coefficient product and its maps back to the real frame
(_Plan). As beam tracing reuses a source's work across receivers (Funkhouser
et al., SIGGRAPH 1998), the plan keeps one entry per read-only end Pose: a tx
has its images and their products with those planes, an rx its products
n' . rx and its heights over the edge planes, and each its wall check. One
builder makes the entries of R receivers with one stacked product each
(_receivers): a trace builds its rx's on a cache miss, and receiver_poses
builds a batch of grid points' before the fingerprint database traces them. A
trace is one array pass over all M candidates (as Sionna RT does, arXiv
2303.11103): one division places each bounce on its line, and the leg rule,
containment and the real-amplitude floor run over the whole table and give
one mask of the rows that hold a path (_unfold); occlusion then tests those
rows only.

Real bounce points are mapped back only where something reads them: the
occlusion pass and a link's deferred columns. A wall (Scene.walls) has every
vertex of the scene on one closed side of its plane, so a segment between two
points on that side cannot cross it (as in beam tracing's convex cells). A
trace refuses an end strictly behind a wall, so the occluders are the other
surfaces, and a closed room of walls alone, like the desk box, skips the pass.
The survivors are sorted by delay once, and the PathSet builds each column
but powers and delays on that column's first read (PathSet): a fingerprint
evaluates no phase, and a link, whose channel reads gains and directions,
never maps its bounces back or turns a direction into angles.

Conventions:
  * a terminal's direction of a path is the local unit vector pointing from it
    toward the first/last bounce (or the far terminal for LoS), and its angles
    are that vector's (azimuth, elevation);
  * a terminal's local frame is the global frame turned by yaw about z;
  * Doppler is (f_c / c) (u_dep . v_tx - u_arr . v_rx), u_dep leaving tx and u_arr reaching rx;
  * the per-path amplitude is (lambda / (4 pi d)) * prod(reflection coeffs)
    with phase -2 pi d / lambda, clamped to unit magnitude at sub-wavelength
    ranges; a path's power is its clamped amplitude squared.
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

    power (L,), |gain|^2, and delay (L,) exist from the start. gain (L,) complex
    stands alone; doppler (L,) and aoa_dir and aod_dir (L, 3), the local unit
    directions at the receiver and the transmitter, are one group (_motion), and
    aoa and aod (L, 2), their (azimuth, elevation), are built from them on first
    read; order (L,) and bounces (L, K, 3), each path's reflection points
    right-aligned behind K - order rows equal to the tx position (a list of paths
    pads K to its largest order), are the other group (_geometry). A traced
    PathSet keeps its trace's unfolded lines of every candidate row and its
    paths' row indices in delay order; the first read of the gain or of any
    column of a group takes its paths' lines (_unfolded) and builds it, so
    powers and delays alone take nothing and evaluate no phase. A
    list of paths is sorted once and sets every column directly, its powers from
    its gains and its directions from its angles. Every column is read-only.
    Iteration and ``paths`` give the paths back as PropagationPaths.
    """

    def __init__(self, paths, tx_pose: Pose, rx_pose: Pose, carrier_freq: float):
        paths = list(paths)
        paths = [paths[i] for i in np.argsort([p.delay for p in paths], kind="stable")]
        k = max((p.order for p in paths), default=0)
        self.tx_pose, self.rx_pose, self.carrier_freq = tx_pose, rx_pose, carrier_freq
        gain = np.array([p.gain for p in paths], dtype=complex)
        # hypot, then libm pow, round exactly as abs(complex) ** 2 does per path
        self.gain, self.power, self.delay = _read_only(gain, np.float_power(np.hypot(gain.real, gain.imag), 2.0),
                                                       np.array([p.delay for p in paths], dtype=float))
        self.aoa, self.aod = _read_only(np.array([p.aoa for p in paths], dtype=float).reshape(-1, 2),
                                        np.array([p.aod for p in paths], dtype=float).reshape(-1, 2))
        self._motion = _read_only(np.array([p.doppler for p in paths], dtype=float),
                                  _unit_directions(self.aoa), _unit_directions(self.aod))
        self._geometry = _read_only(
            np.array([p.order for p in paths], dtype=int),
            np.array([np.vstack([tx_pose.position] * (k - p.order) + [p.reflection_points])
                      for p in paths]).reshape(len(paths), k, 3))

    @classmethod
    def _traced(cls, tx_pose, rx_pose, carrier_freq, power, delay, *untaken) -> "PathSet":
        """trace_paths' route in: the paths' powers and delays in delay order, and (plan, rows, s, D,
        |D|), the paths' plan rows in delay order and the unfolded lines of every plan row. The paths'
        own lines are taken from them on the first read of a gain or a group."""
        ps = cls.__new__(cls)
        ps.tx_pose, ps.rx_pose, ps.carrier_freq = tx_pose, rx_pose, carrier_freq
        ps.power, ps.delay = _read_only(power, delay)
        ps._untaken = untaken
        return ps

    @cached_property
    def _unfolded(self) -> tuple:
        """(plan, rows, s, D, |D|) of a trace's paths, in delay order."""
        plan, rows, s, d, dist = self._untaken
        return plan, rows, s.take(rows, axis=1), d.take(rows, axis=0), dist.take(rows)

    @cached_property
    def gain(self) -> np.ndarray:
        """A trace's complex gains (_gain), clamped to unit modulus."""
        plan, rows, _, _, dist = self._unfolded
        gain = _gain(dist, plan.coeffs.take(rows), self.carrier_freq)
        amp = abs(gain)
        np.divide(gain, amp, out=gain, where=amp > 1.0)
        return _read_only(gain)[0]

    @cached_property
    def _motion(self) -> tuple:
        """(doppler, aoa_dir, aod_dir) of a trace: each path reaches rx along u_arr = -D / |D| and leaves
        tx along u_dep, the row's composed mirror of it; its directions are -u_arr and u_dep in local frames."""
        plan, rows, _, d, dist = self._unfolded
        tx, rx = self.tx_pose, self.rx_pose
        u_arr = d / -dist[:, None]
        u_dep = np.vecdot(plan.linear[0].take(rows, axis=0), u_arr[:, None, :])
        doppler = self.carrier_freq / SPEED_OF_LIGHT * (np.vecdot(u_dep, tx.velocity) - np.vecdot(u_arr, rx.velocity))
        return _read_only(doppler, -u_arr @ rx.rotation, u_dep @ tx.rotation)

    @cached_property
    def _geometry(self) -> tuple:
        """(order, bounces) of a trace."""
        plan, rows, s, d, _ = self._unfolded
        bounces = _polylines(plan, self.tx_pose.position, self.rx_pose.position, rows, s, d)[1:-1]
        return _read_only(plan.order.take(rows), bounces.transpose(1, 0, 2))

    doppler = property(lambda self: self._motion[0])
    aoa_dir = property(lambda self: self._motion[1])
    aod_dir = property(lambda self: self._motion[2])
    aoa = cached_property(lambda self: _direction_angles(self.aoa_dir))
    aod = cached_property(lambda self: _direction_angles(self.aod_dir))
    order = property(lambda self: self._geometry[0])
    bounces = property(lambda self: self._geometry[1])

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


def _read_only(*arrays) -> tuple:
    """The arrays, made read-only: the channel layer keeps steering computed from a PathSet's
    directions, and a plan's entries are shared by every trace of their Pose."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _amplitude(d: np.ndarray, coeff: np.ndarray, carrier_freq: float) -> np.ndarray:
    """Free-space amplitude with reflection losses of positive lengths d and coefficient products
    coeff: (lambda / (4 pi d)) coeff."""
    return SPEED_OF_LIGHT / carrier_freq / (4.0 * math.pi * d) * coeff


def _gain(d: np.ndarray, coeff: np.ndarray, carrier_freq: float) -> np.ndarray:
    """_amplitude with propagation phase: (lambda / (4 pi d)) coeff exp(-j 2 pi d / lambda)."""
    amp = _amplitude(d, coeff, carrier_freq)
    phase = -2.0 * math.pi * d / (SPEED_OF_LIGHT / carrier_freq)
    gain = np.empty(d.shape, dtype=complex)
    np.cos(phase, out=gain.real)
    np.sin(phase, out=gain.imag)
    gain *= amp   # (amp cos, amp sin) for a real amp
    return gain


def trace_paths(scene: Scene, tx: Pose, rx: Pose, max_order: int = 2,
                carrier_freq: float = 2.4e9) -> PathSet:
    """All unoccluded specular paths of reflection order <= max_order.

    LoS is order 0. Delays are total polyline length over c; directions are
    rotated into each terminal's local frame; gains follow _gain with the
    product of the bounces' material coefficients and are clamped to unit
    magnitude. Paths whose real amplitude (_amplitude) is below
    GAIN_PRUNE_THRESHOLD are dropped; a path's power is its amplitude, clamped
    to 1, squared.
    An end strictly behind a wall of the scene (Scene.walls) raises ValueError,
    tx first.
    Every candidate of every order is traced in one pass over the scene's
    padded candidate table, whose rows run order by order, and the survivors
    are stably sorted by delay once, so equal delays come in the same order on
    every call. The returned PathSet holds powers and delays; its complex
    gains, its Doppler shifts and directions, and its orders and bounces are
    built on their first read, so a fingerprint, which bins powers by delay,
    evaluates no phase.
    """
    plan = _plan_for(scene, max_order)
    if math.dist(rx.position, tx.position) < 1e-12:
        raise ValueError("coincident endpoints")
    tx_entry = plan.images.get(tx) or plan.images.setdefault(tx, _image_chain(plan, scene.walls, tx.position))
    rx_entry = plan.receivers.get(rx) or _receivers(plan, scene.walls, [rx])[0]
    if tx_entry[0] or rx_entry[0]:
        end, pose = ("tx", tx) if tx_entry[0] else ("rx", rx)
        raise ValueError(f"{end} at {tuple(pose.position.tolist())} is behind a wall of the scene")

    s, d, dist, amp, keep = _unfold(plan, tx_entry, rx_entry, rx.position, carrier_freq)
    rows = keep.nonzero()[0]
    if len(plan.occluders.offsets):
        rows = rows[~_occluded(plan.occluders, _polylines(plan, tx.position, rx.position, rows,
                                                          s.take(rows, axis=1), d.take(rows, axis=0)))]
    delay = dist.take(rows) / SPEED_OF_LIGHT
    by_delay = np.argsort(delay, kind="stable")
    rows = rows.take(by_delay)
    power = np.minimum(amp.take(rows), 1.0) ** 2
    return PathSet._traced(tx, rx, carrier_freq, power, delay.take(by_delay), plan, rows, s, d, dist)


def receiver_poses(scene: Scene, points, max_order: int = 2) -> list:
    """Still Poses at points (R, 3), each with its receiver entry for trace_paths at max_order
    built: one batch (_receivers) instead of R cache misses, at identical bits."""
    poses = [Pose(position=point) for point in points]
    _receivers(_plan_for(scene, max_order), scene.walls, poses)
    return poses


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

    An end's entry is cached under its Pose. _receivers builds the entries of R rx Poses at once:
    trace_paths one on a cache miss, receiver_poses a batch of grid points.
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
    images: weakref.WeakKeyDictionary     # tx Pose -> _image_chain's entry, dying with the pose
    receivers: weakref.WeakKeyDictionary  # rx Pose -> _receivers' entry, dying with the pose

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
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    plans = _PLANS.get(scene) or _PLANS.setdefault(scene, {})   # a weak-key setdefault makes a weakref per call
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
            linear, shift, weakref.WeakKeyDictionary(), weakref.WeakKeyDictionary())
    return plan


def _inside(heights):
    """Polygon containment (edges included) of N points from their (E, N) heights over the edge
    planes of their polygons, edge_normal . x - edge_offset; zero padding is always inside."""
    return (heights >= -CONTAINS_TOL).all(axis=0)


def _image_chain(plan: _Plan, walls, tx_point: np.ndarray) -> tuple:
    """One tx's entry: whether it is behind a wall, and its read-only images I (M, 3), tx mirrored
    through each row's bounces, with their products n' . I (K, M) with the mirrored planes (1 at
    padding, which puts it at s = 1) and their heights h(I) (K, V, M) over the mirrored edge planes."""
    image = ((tx_point - plan.shift[0])[:, None, :] @ plan.linear[0])[:, 0]
    n_dot_image = np.vecdot(plan.normals, image)
    n_dot_image[plan.padding] = 1.0
    heights = np.vecdot(plan.edge_normals, image) - plan.edge_offsets
    return bool(walls.behind(tx_point[None])[0]), *_read_only(image, n_dot_image, heights)


def _receivers(plan: _Plan, walls, poses) -> list:
    """The entries of R rx Poses, each stored under its Pose in plan.receivers and returned in order:
    whether it is behind a wall, and its read-only products q = n' . rx (K, M) with the mirrored
    planes, the numerators o' - q of its line parameters and its heights h(rx) (K, V, M) over the
    mirrored edge planes. One stacked (R, 1, 3) x (3, K M) product gives every q, one (R, 1, 3) x
    (3, K V M) product every height, and one Scene.walls.behind every wall check. A stacked
    product is one BLAS call per pose, so a pose gets the same bits in any batch; one (R, 3)
    product does not. An entry's arrays are views of the batch's: they live while one of its
    Poses does."""
    k, v, m = plan.edge_offsets.shape
    points = np.array([pose.position for pose in poses])[:, None, :]
    q = (points @ plan.normals.reshape(k * m, 3).T).reshape(len(poses), k, m)
    numerator = plan.offsets - q
    heights = (points @ plan.edge_normals.reshape(k * v * m, 3).T).reshape(len(poses), k, v, m)
    heights -= plan.edge_offsets
    _read_only(q, numerator, heights)
    entries = list(zip(walls.behind(points[:, 0]).tolist(), q, numerator, heights))
    plan.receivers.update(zip(poses, entries))
    return entries


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _unfold(plan: _Plan, tx_entry: tuple, rx_entry: tuple, rx_point: np.ndarray, carrier_freq: float):
    """Every row's (K, M) line parameters s, (M, 3) D = I - rx, (M,) |D| and (M,) real amplitude
    (_amplitude), and the (M,) mask of the rows that hold a path unless occluded, from the entries
    of tx (_image_chain) and rx (_receivers).

    A row's path is rx + s D, and bounce i is at s = (o' - q) / (n' . I - q), q = n' . rx. A row
    is kept when it passes three tests, each over the whole table. The leg rule: each real leg
    (s[i - 1] - s[i]) |D|, image to rx, is >= 1e-9 m and each real denominator >= 1e-15 in
    magnitude; padding, at s = 1, has zero-length legs that are no legs. Containment: each bounce
    lies in its mirrored polygon, a height over an edge plane being linear along the line,
    (1 - s) h(rx) + s h(I) at rx + s D. The floor: the amplitude is >= GAIN_PRUNE_THRESHOLD. A row
    the leg rule drops may hold NaN or infinite heights or amplitudes, which fail the other tests.
    """
    _, image, n_dot_image, image_heights = tx_entry
    _, q, numerator, rx_heights = rx_entry
    k, v, m = image_heights.shape
    d = image - rx_point
    dist = np.sqrt(np.vecdot(d, d))
    denom = n_dot_image - q
    s = np.empty((k + 2, m))
    s[0], s[-1] = 1.0, 0.0   # the image and rx
    np.divide(numerator, denom, out=s[1:-1])
    legs = (s[:-1] - s[1:]) * dist >= 1e-9
    legs[:-1] |= plan.padding
    legs[:-1] &= abs(denom) >= 1e-15
    s = s[1:-1]
    heights = rx_heights + s[:, None] * (image_heights - rx_heights)
    amp = _amplitude(dist, plan.coeffs, carrier_freq)
    keep = legs.all(axis=0) & _inside(heights.reshape(k * v, m)) & (amp >= GAIN_PRUNE_THRESHOLD)
    return s, d, dist, amp, keep


def _polylines(plan: _Plan, tx_point, rx_point, rows, s, d) -> np.ndarray:
    """The rows' real (K + 2, M', 3) polylines: tx, each bounce rx + s D mapped back (tx at padding), rx."""
    pts = np.empty((len(s) + 2, len(rows), 3))
    pts[0], pts[-1] = tx_point, rx_point
    unfolded = rx_point + s[..., None] * d
    np.add(np.vecdot(plan.linear[1:].take(rows, axis=1), unfolded[..., None, :]),
           plan.shift[1:].take(rows, axis=1), out=pts[1:-1])
    np.copyto(pts[1:-1], tx_point, where=plan.padding.take(rows, axis=1)[..., None])
    return pts


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
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


def _direction_angles(d: np.ndarray) -> np.ndarray:
    """Read-only (M, 2) (azimuth, elevation) of unit vectors d (M, 3)."""
    angles = np.empty((len(d), 2))
    np.arctan2(d[:, 1], d[:, 0], out=angles[:, 0])
    # atan2 keeps a near-vertical elevation that asin(z) loses once z rounds to 1
    np.arctan2(d[:, 2], np.hypot(d[:, 0], d[:, 1]), out=angles[:, 1])
    return _read_only(angles)[0]


def _unit_directions(angles: np.ndarray) -> np.ndarray:
    """(M, 3) unit vectors of (M, 2) (azimuth, elevation), the inverse of _direction_angles."""
    az, el = angles.T
    return np.stack([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)], axis=1)

