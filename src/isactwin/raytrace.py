"""Image-method multipath solver: the specular paths of reflection order <= K between two Poses.

trace_paths traces one link over its scene's plan for K (_plan_for), in one array pass over
the plan's candidate table (_unfold), and returns the paths as a PathSet.

Conventions:
  * a terminal's direction of a path is the local unit vector pointing from it
    toward the first/last bounce (or the far terminal for LoS), and its angles
    are that vector's (azimuth, elevation);
  * Doppler is (f_c / c) (u_dep . v_tx - u_arr . v_rx), u_dep leaving tx and u_arr reaching rx;
  * a path of length d has the amplitude (lambda / (4 pi d)) * prod(reflection coeffs), clamped
    to 1 at sub-wavelength ranges; its power is that amplitude squared, and its gain that
    amplitude times exp(-j 2 pi d / lambda).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import NamedTuple

import numpy as np

from .scene import CONTAINS_TOL, Scene, Stack, _read_only, _set_read_only

SPEED_OF_LIGHT = 299_792_458.0

# Paths weaker than this amplitude are dropped; bounds the path count without
# measurable effect on delay profiles or channels at indoor ranges.
GAIN_PRUNE_THRESHOLD = 1e-9

# _occluded's endpoint guard, in metres
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
        return _read_only(np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]))[0]


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

    power (L,), |gain|^2, and delay (L,) exist from the start. The other columns are two groups,
    each one cached tuple built on the first read of any of its columns: the link group (_link),
    gain (L,) complex, doppler (L,), and aoa_dir and aod_dir (L, 3), the local unit directions at
    the receiver and the transmitter, which a channel reads together; and the geometry group
    (_geometry), order (L,) and bounces (L, K, 3), each path's reflection points right-aligned
    behind K - order rows equal to the tx position (a list of paths pads K to its largest order).
    aoa and aod (L, 2), the directions' (azimuth, elevation), are built from them on first read.
    A traced PathSet keeps its trace's unfolded lines of every candidate row, its paths' rows and
    clamped amplitudes in delay order, and each group takes its paths' lines itself, so powers
    and delays alone take nothing and evaluate no phase. A list of paths is sorted once and sets
    every column directly, its powers from its gains and its directions from its angles. Every
    column is read-only. Iteration and ``paths`` give the paths back as PropagationPaths.
    """

    def __init__(self, paths, tx_pose: Pose, rx_pose: Pose, carrier_freq: float):
        paths = list(paths)
        paths = [paths[i] for i in np.argsort([p.delay for p in paths], kind="stable")]
        k = max((p.order for p in paths), default=0)
        self.tx_pose, self.rx_pose, self.carrier_freq = tx_pose, rx_pose, carrier_freq
        gain = np.array([p.gain for p in paths], dtype=complex)
        # hypot, then libm pow, round exactly as abs(complex) ** 2 does per path
        self.power, self.delay = _read_only(np.float_power(np.hypot(gain.real, gain.imag), 2.0),
                                            np.array([p.delay for p in paths], dtype=float))
        self.aoa, self.aod = _read_only(np.array([p.aoa for p in paths], dtype=float).reshape(-1, 2),
                                        np.array([p.aod for p in paths], dtype=float).reshape(-1, 2))
        self._link = _read_only(gain, np.array([p.doppler for p in paths], dtype=float),
                                _unit_directions(self.aoa), _unit_directions(self.aod))
        self._geometry = _read_only(
            np.array([p.order for p in paths], dtype=int),
            np.array([np.vstack([tx_pose.position] * (k - p.order) + [p.reflection_points])
                      for p in paths]).reshape(len(paths), k, 3))

    @classmethod
    def _traced(cls, tx_pose, rx_pose, carrier_freq, amp, delay, *lines) -> "PathSet":
        """trace_paths' route in: the paths' clamped amplitudes and delays in delay order, and (plan,
        rows, s, D, |D|), the paths' plan rows in delay order and the unfolded lines of every plan row."""
        ps = cls.__new__(cls)
        ps.tx_pose, ps.rx_pose, ps.carrier_freq = tx_pose, rx_pose, carrier_freq
        ps.power, ps.delay = _read_only(amp ** 2, delay)
        ps._amp, ps._lines = amp, lines
        return ps

    @cached_property
    def _link(self) -> tuple:
        """(gain, doppler, aoa_dir, aod_dir) of a trace: each path reaches rx along u_arr = -D / |D| and
        leaves tx along u_dep, the row's composed mirror of it; its directions are -u_arr and u_dep in
        local frames."""
        plan, rows, _, d, dist = self._lines
        tx, rx = self.tx_pose, self.rx_pose
        dist = dist.take(rows)
        u_arr = d.take(rows, axis=0) / -dist[:, None]
        u_dep = np.vecdot(plan.linear[0].take(rows, axis=0), u_arr[:, None, :])
        doppler = self.carrier_freq / SPEED_OF_LIGHT * (np.vecdot(u_dep, tx.velocity) - np.vecdot(u_arr, rx.velocity))
        return _read_only(_gain(dist, self._amp, self.carrier_freq), doppler, -u_arr @ rx.rotation,
                          u_dep @ tx.rotation)

    @cached_property
    def _geometry(self) -> tuple:
        """(order, bounces) of a trace."""
        plan, rows, s, d, _ = self._lines
        bounces = _polylines(plan, self.tx_pose.position, self.rx_pose.position, rows, s, d)[1:-1]
        return _read_only(plan.order.take(rows), bounces.transpose(1, 0, 2))

    gain = property(lambda self: self._link[0])
    doppler = property(lambda self: self._link[1])
    aoa_dir = property(lambda self: self._link[2])
    aod_dir = property(lambda self: self._link[3])
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


def _cis(x) -> np.ndarray:
    """exp(j x) of real x from one cos and one sin: half the time of numpy's complex exp."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape, dtype=complex)
    np.cos(x, out=out.real)
    np.sin(x, out=out.imag)
    return out


def _gain(d: np.ndarray, amp: np.ndarray, carrier_freq: float) -> np.ndarray:
    """The complex gains amp exp(-j 2 pi d / lambda) of paths of lengths d and real amplitudes amp."""
    gain = _cis(-2.0 * math.pi * d / (SPEED_OF_LIGHT / carrier_freq))
    gain *= amp   # (amp cos, amp sin) for a real amp
    return gain


def trace_paths(scene: Scene, tx: Pose, rx: Pose, max_order: int = 2,
                carrier_freq: float = 2.4e9) -> PathSet:
    """All unoccluded specular paths of reflection order <= max_order, LoS being order 0.

    Every candidate of every order is traced in one pass (_unfold), and the survivors are stably
    sorted by delay, their total length over c, once, so equal delays come in the same order on
    every call. An end strictly behind a wall of the scene (Scene.walls) raises ValueError, tx
    first.
    """
    plan = _plan_for(scene, max_order)
    if math.dist(rx.position, tx.position) < 1e-12:
        raise ValueError("coincident endpoints")
    tx_entry = plan.images.get(tx) or plan.images.setdefault(tx, _image_chain(plan, scene.walls, tx.position))
    rx_entry = plan.receivers.get(rx) or plan.receivers.setdefault(rx, _receiver(plan, scene.walls, rx.position))
    if tx_entry[0] or rx_entry[0]:
        end, pose = ("tx", tx) if tx_entry[0] else ("rx", rx)
        raise ValueError(f"{end} at {tuple(pose.position.tolist())} is behind a wall of the scene")

    s, d, dist, amp, keep = _unfold(plan, tx_entry, rx_entry, rx.position, carrier_freq)
    rows = keep.nonzero()[0]
    if len(plan.occluders.offsets):
        rows = rows[~_occluded(plan.occluders, _polylines(plan, tx.position, rx.position, rows, s, d))]
    delay = dist.take(rows) / SPEED_OF_LIGHT
    by_delay = delay.argsort(kind="stable")
    rows = rows.take(by_delay)
    amp = np.minimum(amp.take(rows), 1.0)
    return PathSet._traced(tx, rx, carrier_freq, amp, delay.take(by_delay), plan, rows, s, d, dist)


# ---------------------------------------------------------------------------
# internals

@dataclass(eq=False)
class _Plan:
    """What a trace over M candidates of order 0..K needs and no end changes, one per (scene, K).

    Unfolded through its bounces, a row's path is the straight line from rx to the last image of
    tx, and it meets level i's plane and edge planes mirrored through the row's later bounces
    (Borish, JASA 1984), which depend on neither end; x -> linear[i + 1] x + shift[i + 1] maps
    that unfolded frame back to the real one (linear[0], shift[0] undo every bounce). Padding
    levels come first in a row and mirror nothing: a zero normal with offset 1, zero edge planes.
    Occlusion reads the occluders alone: both ends of a trace are on the scene side of every wall,
    where no segment crosses one (as in beam tracing's convex cells), so a closed room of walls
    alone, like the desk box, has no occlusion pass. Every array is read-only.

    As beam tracing reuses a source's work across receivers (Funkhouser et al., SIGGRAPH 1998),
    an end's entry is cached under its read-only Pose: a tx's images (_image_chain), an rx's
    products and heights (_receiver), and each its wall check. An rx entry is one product with
    planes, every mirrored plane's, mirrored edge plane's and wall's normal as a column.
    """

    occluders: Stack          # the rows of the usable surfaces that Scene.walls does not name
    order: np.ndarray         # (M,) each row's reflection order, non-decreasing
    padding: np.ndarray       # (K, M) which levels mirror nothing
    normals: np.ndarray       # (K, M, 3) each bounce's mirrored plane n' . x = o'
    offsets: np.ndarray       # (K, M)
    edge_normals: np.ndarray  # (K, V, M, 3) each bounce's mirrored polygon, edge-major
    edge_offsets: np.ndarray  # (K, V, M)
    coeffs: np.ndarray        # (M,) each row's product of reflection coefficients, 1.0 for LoS
    linear: np.ndarray        # (K + 1, M, 3, 3) the maps back to the real frame
    shift: np.ndarray         # (K + 1, M, 3)
    planes: np.ndarray        # (3, K M + K V M + W) normals, edge_normals and Scene.walls' normals
    images: weakref.WeakKeyDictionary     # tx Pose -> _image_chain's entry, dying with the pose
    receivers: weakref.WeakKeyDictionary  # rx Pose -> _receiver's entry, dying with the pose

    def __post_init__(self):
        _set_read_only(self, **vars(self))
        _read_only(*self.occluders)


_PLANS: "weakref.WeakKeyDictionary[Scene, dict]" = weakref.WeakKeyDictionary()  # scene -> {K: _Plan}


def candidate_count(surfaces: int, max_order: int) -> float:
    """The entries of _plan_for's first array, the (S + 1) ** K index table over S usable surfaces
    at order K, as a float that is inf past its range, so that it can be refused unbuilt."""
    try:
        return (surfaces + 1.0) ** max_order
    except OverflowError:
        return math.inf


def _plan_for(scene: Scene, max_order: int) -> _Plan:
    """The scene's plan for order K, built once per (scene, K); it dies with the scene.

    Its rows are every sequence of order 0..K with no surface twice in a row (the image method of
    Allen & Berkley, JASA 1979), right-aligned behind padding levels of -1, in lexicographic
    order, which puts the orders in turn; they are cut from an index table of
    candidate_count(S, K) entries over the S usable surfaces. Level i's map back mirrors through
    the row's bounces K - 1 down to i + 1.
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    plans = _PLANS.get(scene) or _PLANS.setdefault(scene, {})   # a weak-key setdefault makes a weakref per call
    plan = plans.get(max_order)
    if plan is None:
        t = scene.stack   # its usable rows, cut to their largest vertex count, and a zero row for index -1
        num_edges = int(t.counts[t.usable].max(initial=0))
        normals, offsets, edge_normals, edge_offsets = (np.concatenate((a, np.zeros((1, *a.shape[1:])))) for a in (
            t.normals[t.usable], t.offsets[t.usable], t.edge_normals[t.usable, :num_edges],
            t.edge_offsets[t.usable, :num_edges]))
        coeffs = np.array([s.material.reflection_coeff for s in compress(scene.surfaces, t.usable)] + [1.0])
        side = len(coeffs)   # indices -1..S-1, columns in lexicographic order
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
        n_mirrored, e_mirrored = (n[..., None, :] @ linear[1:])[..., 0, :], edge_major(e @ linear[1:])
        plans[max_order] = plan = _Plan(
            Stack(*(a[np.flatnonzero(t.usable)[~scene.walls.mask]] for a in t)), (seqs >= 0).sum(axis=0), seqs < 0,
            n_mirrored, mirrored, e_mirrored, edge_major(edge_offsets[seqs] - np.vecdot(e, shift[1:, :, None, :])),
            coeffs[seqs].prod(axis=0), linear, shift,
            np.concatenate([a.reshape(-1, 3) for a in (n_mirrored, e_mirrored, scene.walls.normals)]).T,
            weakref.WeakKeyDictionary(), weakref.WeakKeyDictionary())
    return plan


def _inside(heights):
    """Polygon containment (edges included) of N points from their (E, N) heights over the edge
    planes of their polygons, edge_normal . x - edge_offset; zero padding is always inside."""
    return np.logical_and.reduce(heights >= -CONTAINS_TOL, axis=0)


def _image_chain(plan: _Plan, walls, tx_point: np.ndarray) -> tuple:
    """One tx's entry: whether it is behind a wall, and its read-only images I (M, 3), tx mirrored
    through each row's bounces, with their products n' . I (K, M) with the mirrored planes (1 at
    padding, which puts it at s = 1) and their heights h(I) (K, V, M) over the mirrored edge planes."""
    image = ((tx_point - plan.shift[0])[:, None, :] @ plan.linear[0])[:, 0]
    n_dot_image = np.vecdot(plan.normals, image)
    n_dot_image[plan.padding] = 1.0
    heights = np.vecdot(plan.edge_normals, image) - plan.edge_offsets
    return bool(walls.behind(tx_point[None])[0]), *_read_only(image, n_dot_image, heights)


def _receiver(plan: _Plan, walls, rx_point: np.ndarray) -> tuple:
    """One rx's entry: whether it is behind a wall, and its read-only products q = n' . rx (K, M)
    with the mirrored planes, the numerators o' - q of its line parameters and its heights h(rx)
    (K, V, M) over the mirrored edge planes, all from one product rx . plan.planes. It is one
    matrix-vector call, which rounds each column as one point's product with that table alone
    would; a matrix product of many points does not."""
    k, v, m = plan.edge_offsets.shape
    row = rx_point @ plan.planes
    q, heights = row[:k * m].reshape(k, m), row[k * m:k * m + k * v * m].reshape(k, v, m)
    heights -= plan.edge_offsets
    behind = np.logical_or.reduce(row[k * m + k * v * m:] < walls.offsets)
    return bool(behind), *_read_only(q, plan.offsets - q, heights)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _unfold(plan: _Plan, tx_entry: tuple, rx_entry: tuple, rx_point: np.ndarray, carrier_freq: float):
    """Every row's (K, M) line parameters s, (M, 3) D = I - rx, (M,) |D| and (M,) unclamped
    amplitude, and the (M,) mask of the rows that hold a path unless occluded, from the entries of
    tx (_image_chain) and rx (_receiver).

    A row's path is rx + s D, and bounce i is at s = (o' - q) / (n' . I - q), q = n' . rx. A row
    is kept when it passes three tests, each over the whole table, as Sionna RT treats every
    candidate as one tensor (arXiv 2303.11103). The leg rule: each real leg
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
    amp = SPEED_OF_LIGHT / carrier_freq / (4.0 * math.pi * dist) * plan.coeffs
    keep = np.logical_and.reduce(legs, axis=0) & _inside(heights.reshape(k * v, m)) & (amp >= GAIN_PRUNE_THRESHOLD)
    return s, d, dist, amp, keep


def _polylines(plan: _Plan, tx_point, rx_point, rows, s, d) -> np.ndarray:
    """The real (K + 2, M', 3) polylines of M' rows of the (K, M) s and (M, 3) D: tx, each bounce
    rx + s D mapped back (tx at padding), rx."""
    pts = np.empty((len(s) + 2, len(rows), 3))
    pts[0], pts[-1] = tx_point, rx_point
    unfolded = rx_point + s.take(rows, axis=1)[..., None] * d.take(rows, axis=0)
    np.add(np.vecdot(plan.linear[1:].take(rows, axis=1), unfolded[..., None, :]),
           plan.shift[1:].take(rows, axis=1), out=pts[1:-1])
    np.copyto(pts[1:-1], tx_point, where=plan.padding.take(rows, axis=1)[..., None])
    return pts


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _occluded(surfaces: Stack, pts) -> np.ndarray:
    """(M,) mask: a segment of the (K + 2, M, 3) polylines crosses one of the surfaces between its ends.

    The endpoint guard, t L and (1 - t) L >= 1e-9, is the only filter for the surfaces a segment
    starts or ends on, whose planes it meets only there; zero-length padding legs hit nothing. It
    is sound because no trace has an end behind a wall: a leg from there could meet a wall's plane
    only at its far end, on a seam, and pass the guard.
    """
    occluded = np.zeros(pts.shape[1], dtype=bool)
    normals, offsets, edge_normals, edge_offsets = surfaces[3:]   # the plane tables
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

