"""The array tracer against two oracles, and invariants any tracer must keep.

The scalar oracle shares the tracer's algorithm. Its scenes are random
shoeboxes (the conftest room) with a free-standing panel, turned about z,
inside them: the panel casts shadows, so the occlusion masks fire, and its
normal is not axis-aligned. The second oracle is independent of the
algorithm: the closed-form image lattice of an empty box (Allen & Berkley,
JASA 1979).
"""

import functools
import gc
import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from isactwin import raytrace
from isactwin.raytrace import SPEED_OF_LIGHT as C, Pose, trace_paths
from isactwin.scene import load_scene
from conftest import box_scene_doc, repo_scenario_dir
from raytrace_oracle import contains, trace_paths_scalar

FC = 2.4e9


@st.composite
def rooms(draw):
    lx, ly = draw(st.floats(1.0, 6.0)), draw(st.floats(1.0, 6.0))
    lz = draw(st.floats(1.0, 3.0))
    doc = box_scene_doc(lx, ly, lz, coeff=draw(st.floats(0.3, 0.95)))
    cx, cy = lx * draw(st.floats(0.3, 0.7)), ly * draw(st.floats(0.3, 0.7))
    half = min(lx, ly) * draw(st.floats(0.05, 0.25))
    theta = draw(st.floats(-math.pi, math.pi))
    z0, z1 = lz * draw(st.floats(0.0, 0.3)), lz * draw(st.floats(0.5, 1.0))
    ux, uy = half * math.cos(theta), half * math.sin(theta)
    doc["materials"].append({"name": "panel", "reflection_coeff": draw(st.floats(0.2, 0.9))})
    doc["surfaces"].append({
        "vertices": [[cx - ux, cy - uy, z0], [cx + ux, cy + uy, z0],
                     [cx + ux, cy + uy, z1], [cx - ux, cy - uy, z1]],
        "material": "panel",
    })
    return load_scene(doc)


@st.composite
def poses(draw, scene):
    lo, hi = scene.bounds_min, scene.bounds_max
    frac = [draw(st.floats(0.05, 0.95)) for _ in range(3)]
    position = lo + (hi - lo) * np.array(frac)
    angle = st.floats(-math.pi, math.pi)
    velocity = [draw(st.floats(-2.0, 2.0)) for _ in range(3)]
    return Pose.at(*position, yaw=draw(angle), velocity=velocity)


@st.composite
def links(draw):
    scene = draw(rooms())
    tx, rx = draw(poses(scene)), draw(poses(scene))
    assume(np.linalg.norm(tx.position - rx.position) > 1e-3)
    return scene, tx, rx


def desk_box():
    return load_scene(json.loads((repo_scenario_dir() / "desk_box.scene.json").read_text()))


@st.composite
def near_wall_links(draw):
    """Desk-box links with one end 1e-12 to 1e-5 m inside a wall: the tracer's endpoint
    guard, not a mask of the surfaces a segment starts or ends on, drops the touch there."""
    scene = desk_box()
    near, far = draw(poses(scene)), draw(poses(scene))
    wall = scene.surfaces[draw(st.integers(0, len(scene.surfaces) - 1))]
    gap = 10.0 ** -draw(st.floats(5.0, 12.0))
    height = wall.unit_normal @ near.position - wall.plane_offset
    near = Pose(near.position - (height - math.copysign(gap, height)) * wall.unit_normal,
                near.yaw, near.velocity)
    return (scene, near, far) if draw(st.booleans()) else (scene, far, near)


def angles_close(a, b, atol):
    """(azimuth, elevation) pairs equal; azimuth modulo 2 pi, weighted by cos(elevation)."""
    d_az = abs(math.remainder(a[0] - b[0], 2.0 * math.pi)) * math.cos(b[1])
    return d_az <= atol and abs(a[1] - b[1]) <= atol


@st.composite
def shoebox_links(draw):
    """An empty box with its own reflection coefficient per wall, tx and rx inside it."""
    size = np.array([draw(st.floats(1.0, 5.0)), draw(st.floats(1.0, 5.0)), draw(st.floats(1.0, 3.0))])
    coeffs = [draw(st.floats(0.2, 0.95)) for _ in range(6)]
    doc = box_scene_doc(*size)
    doc["materials"] = [{"name": f"wall{i}", "reflection_coeff": c} for i, c in enumerate(coeffs)]
    for i, surface in enumerate(doc["surfaces"]):
        surface["material"] = f"wall{i}"
    tx, rx = (size * np.array([draw(st.floats(0.05, 0.95)) for _ in range(3)]) for _ in range(2))
    assume(np.linalg.norm(tx - rx) > 0.05)
    return load_scene(doc), size, coeffs, tx, rx


def shoebox_images(size, coeffs, tx, max_order):
    """The Allen & Berkley image lattice of an empty box: (order, image, gain factor) per image.

    Per axis the images of a source at x in [0, L] sit at 2 m L + x (q = 0) and
    2 m L - x (q = 1) for integer m; such an image has |m - q| hits on the wall at
    0 and |m| on the wall at L. coeffs are in box_scene_doc's surface order: floor,
    ceiling, y = 0, y = L_y, x = 0, x = L_x.
    """
    low_high = [(coeffs[4], coeffs[5]), (coeffs[2], coeffs[3]), (coeffs[0], coeffs[1])]
    per_axis = []
    for ax in range(3):
        c_low, c_high = low_high[ax]
        per_axis.append([(abs(m - q) + abs(m), 2 * m * size[ax] + (1 - 2 * q) * tx[ax],
                          c_low ** abs(m - q) * c_high ** abs(m))
                         for m in range(-max_order, max_order + 1) for q in (0, 1)
                         if abs(m - q) + abs(m) <= max_order])
    return [(hx + hy + hz, np.array([x, y, z]), gx * gy * gz)
            for hx, x, gx in per_axis[0] for hy, y, gy in per_axis[1] for hz, z, gz in per_axis[2]
            if hx + hy + hz <= max_order]


def wall_crossings(size, rx, image):
    """Fractions of the way from rx to an image at which the straight line crosses a wall plane."""
    ts = []
    for a, b, length in zip(rx, image, size):
        lo, hi = sorted((a, b))
        ts += [(k * length - a) / (b - a)
               for k in range(math.floor(lo / length) + 1, math.ceil(hi / length))]
    return sorted(ts)


class TestShoeboxLattice:
    @given(shoebox_links(), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_paths_are_the_image_lattice(self, link, max_order):
        scene, size, coeffs, tx, rx = link
        got = trace_paths(scene, Pose(tx), Pose(rx), max_order, FC)
        images = shoebox_images(size, coeffs, tx, max_order)
        lam = C / FC
        for order in range(max_order + 1):
            ref = sorted(((np.linalg.norm(img - rx), img, g) for k, img, g in images if k == order),
                         key=lambda r: r[0])
            # general position: no path through an edge or corner, no two equal delays
            assume(all(np.all(np.diff(wall_crossings(size, rx, img)) > 1e-6) for _, img, _ in ref))
            assume(np.all(np.diff([r[0] for r in ref]) > 1e-9))
            paths = sorted((p for p in got if p.order == order), key=lambda p: p.delay)
            assert len(ref) == len(paths) == (4 * order * order + 2 if order else 1)
            for p, (dist, img, factor) in zip(paths, ref):
                assert p.delay == pytest.approx(dist / C, rel=1e-12, abs=0.0)
                gain = lam / (4 * math.pi * dist) * factor * np.exp(-2j * math.pi * dist / lam)
                assert abs(p.gain - gain) <= 1e-12 * abs(gain)
                direction = (img - rx) / np.linalg.norm(img - rx)
                aoa = (math.atan2(direction[1], direction[0]), math.asin(direction[2]))
                assert angles_close(p.aoa, aoa, 1e-12)


def panel_room(lz):
    """4 m x 3 m room with a panel in the plane x = 2, y in [1, 2], z in [0.5, 2]."""
    doc = box_scene_doc(4.0, 3.0, lz)
    doc["surfaces"].append({"vertices": [[2, 1, 0.5], [2, 2, 0.5], [2, 2, 2], [2, 1, 2]],
                            "material": "wall"})
    return load_scene(doc)


def assert_same_paths(got, ref):
    assert [p.order for p in got] == [p.order for p in ref]
    for p, q in zip(got, ref):
        assert p.delay == pytest.approx(q.delay, rel=1e-12, abs=0.0)
        assert abs(p.gain - q.gain) <= 1e-12 * abs(q.gain)
        assert p.doppler == pytest.approx(q.doppler, rel=0.0, abs=1e-12)
        assert angles_close(p.aoa, q.aoa, 1e-12)
        assert angles_close(p.aod, q.aod, 1e-12)
        assert np.allclose(p.reflection_points, q.reflection_points, rtol=0.0, atol=1e-12)


class TestAgainstScalarOracle:
    @given(st.one_of(links(), near_wall_links()), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_same_paths_as_scalar_tracer(self, link, max_order):
        scene, tx, rx = link
        assert_same_paths(trace_paths(scene, tx, rx, max_order, FC),
                          trace_paths_scalar(scene, tx, rx, max_order, FC))

    def test_same_paths_behind_a_panel(self):
        # the panel stands across the line of sight
        scene = panel_room(2.5)
        tx, rx = Pose.at(1.0, 1.5, 1.2, yaw=0.3), Pose.at(3.0, 1.4, 1.3, velocity=(0.5, 0, 0))
        got = trace_paths(scene, tx, rx, 3, FC)
        assert_same_paths(got, trace_paths_scalar(scene, tx, rx, 3, FC))
        assert min(p.order for p in got) == 1

    @pytest.mark.parametrize("overshoot,reflects", [(-1e-4, True), (1e-4, False)])
    def test_grazing_the_panel_edge(self, overshoot, reflects):
        # tx and rx mirror each other 1 m in front of the panel (x = 2), so the
        # specular point sits midway, just inside or just above its top edge z = 2;
        # the line of sight runs at the same height past the edge
        scene = panel_room(3.0)
        z = 2.0 + overshoot
        tx, rx = Pose.at(1.0, 1.2, z), Pose.at(1.0, 1.8, z)
        behind = Pose.at(3.0, 1.5, z)
        for a, b in ((tx, rx), (tx, behind)):
            got = trace_paths(scene, a, b, 1, FC)
            assert_same_paths(got, trace_paths_scalar(scene, a, b, 1, FC))
        on_panel = [p for p in trace_paths(scene, tx, rx, 1, FC)
                    if p.order == 1 and abs(p.reflection_points[0, 0] - 2.0) < 1e-12]
        assert len(on_panel) == int(reflects)
        assert len(trace_paths(scene, tx, behind, 0, FC)) == int(not reflects)


class TestPaddedCandidates:
    """Cases at the edges of the padded candidate table, against the scalar oracle."""

    @pytest.mark.parametrize("max_order", range(4))
    @pytest.mark.parametrize("off_wall", [0.0, 1e-10])
    def test_tx_on_a_wall_plane(self, max_order, off_wall):
        # a first bounce on the wall x = 0 lands on tx, which the back-trace
        # guard rejects, or within 1e-10 of it: a real zero-length leg, which
        # drops the path, where a padding leg tx -> tx does not
        scene = panel_room(2.5)
        tx, rx = Pose.at(off_wall, 1.3, 1.2, yaw=0.2), Pose.at(1.7, 2.4, 0.9, velocity=(0, 0.4, 0))
        got = trace_paths(scene, tx, rx, max_order, FC)
        assert_same_paths(got, trace_paths_scalar(scene, tx, rx, max_order, FC))
        assert len(got) > 0
        assert not any(np.any(p.reflection_points[:1, 0] < 1e-9) for p in got)

    def test_rx_on_the_floor_plane(self):
        scene = panel_room(2.5)
        tx, rx = Pose.at(1.0, 1.5, 1.2), Pose.at(3.1, 0.8, 0.0, yaw=-0.5, velocity=(0.3, 0, 0))
        got = trace_paths(scene, tx, rx, 3, FC)
        assert_same_paths(got, trace_paths_scalar(scene, tx, rx, 3, FC))
        assert len(got) > 0

    def test_fourth_order(self):
        # 1 + 6 + 30 + 150 + 750 = 937 candidates; the box has 4 n^2 + 2 = 66 at order 4
        scene = load_scene(box_scene_doc())
        tx = Pose.at(1.23, 0.74, 1.31, yaw=0.4)
        rx = Pose.at(2.86, 2.11, 0.97, velocity=(0.2, -0.1, 0))
        got = trace_paths(scene, tx, rx, 4, FC)
        assert_same_paths(got, trace_paths_scalar(scene, tx, rx, 4, FC))
        assert np.count_nonzero(got.order == 4) == 66


class TestReusedTransmitter:
    """One tx Pose traced to many receivers: later traces reuse its cached image chain."""

    @pytest.mark.parametrize("make_scene,tx", [
        (desk_box, Pose.at(0.1, 0.1, 0.5, yaw=0.7, velocity=(0.1, 0, 0))),
        (lambda: panel_room(2.5), Pose.at(1.0, 1.5, 1.2, yaw=0.3)),
    ], ids=["desk-box", "panel"])
    def test_cache_hits_match_the_scalar_oracle(self, make_scene, tx):
        scene = make_scene()
        rng = np.random.default_rng(3)
        lo, hi = scene.bounds_min, scene.bounds_max
        for max_order in (3, 1, 3, 0, 2, 1, 0, 2, 3, 3, 1, 2):
            rx = Pose.at(*(lo + (hi - lo) * rng.uniform(0.05, 0.95, 3)), yaw=rng.uniform(-3, 3),
                         velocity=rng.uniform(-1, 1, 3))
            assert_same_paths(trace_paths(scene, tx, rx, max_order, FC),
                              trace_paths_scalar(scene, tx, rx, max_order, FC))
        plans = raytrace._PLANS[scene]
        assert sorted(plans) == [0, 1, 2, 3]
        assert all(list(plan.images) == [tx] for plan in plans.values())

    def test_cached_arrays_are_read_only(self):
        # a trace that wrote into the plan, the image chain or the point template in place
        # would corrupt every later trace of the scene or of that transmitter; it raises instead
        scene, tx = desk_box(), Pose.at(0.1, 0.1, 0.5)
        trace_paths(scene, tx, Pose.at(0.8, 0.6, 0.1), 3, FC)
        plan = raytrace._PLANS[scene][3]
        cached = [a for a in vars(plan).values() if isinstance(a, np.ndarray)] + list(plan.images[tx])
        assert len(cached) == 14
        for a in cached:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0

    def test_cache_hits_give_a_fresh_poses_bits(self):
        scene = desk_box()
        ap = Pose.at(0.07, 0.07, 0.6, yaw=0.8, velocity=(0.1, 0.0, 0.0))
        rng = np.random.default_rng(11)
        for point in rng.uniform([0.02, 0.02, 0.02], [0.98, 0.78, 0.68], size=(20, 3)):
            rx = Pose(point, rng.uniform(-3.0, 3.0), rng.uniform(-1.0, 1.0, 3))
            hit = trace_paths(scene, ap, rx, 3, FC)
            miss = trace_paths(scene, Pose(ap.position, ap.yaw, ap.velocity), rx, 3, FC)
            for name in ("gain", "delay", "doppler", "aoa", "aod", "order", "bounces"):
                assert np.array_equal(getattr(hit, name), getattr(miss, name))
        assert ap in raytrace._PLANS[scene][3].images

    def test_image_chain_dies_with_its_pose(self):
        scene = desk_box()
        tx, rx = Pose.at(0.1, 0.1, 0.5), Pose.at(0.8, 0.6, 0.1)
        assert len(trace_paths(scene, tx, rx, 3, FC)) > 0    # the PathSet, which holds tx, is dropped
        plan = raytrace._PLANS[scene][3]
        assert list(plan.images) == [tx]
        ref = weakref.ref(tx)
        del tx
        gc.collect()
        assert ref() is None
        assert len(plan.images) == 0

    def test_plans_die_with_their_scene(self):
        gc.collect()
        scene = desk_box()
        paths = trace_paths(scene, Pose.at(0.1, 0.1, 0.5), Pose.at(0.8, 0.6, 0.1), 2, FC)
        assert list(raytrace._PLANS[scene]) == [2]
        cached, ref = len(raytrace._PLANS), weakref.ref(scene)
        del scene, paths
        gc.collect()
        assert ref() is None
        assert len(raytrace._PLANS) == cached - 1


def assert_level_major(plan, num_surfaces, max_order):
    """Rows run order by order, level i is real exactly from row first[i] on, and padding is inert."""
    k, m = plan.offsets.shape
    assert k == max_order == len(plan.first)
    assert m == 1 + sum(num_surfaces * (num_surfaces - 1) ** (j - 1) for j in range(1, k + 1))
    assert plan.order[0] == 0 and (np.diff(plan.order) >= 0).all()
    for i, first in enumerate(plan.first):
        real = np.arange(m) >= first
        assert np.array_equal(real, plan.order >= k - i)   # bounces are right-aligned
        assert plan.edge_normals[i, real].any(axis=(1, 2)).all()
        assert not plan.edge_normals[i, ~real].any() and not plan.edge_offsets[i, ~real].any()
        assert (plan.coeffs[i, ~real] == 1.0).all()
    assert plan.guards.shape == (2, k, m)
    assert (plan.guards[0] == 1.0).all() and (plan.guards[1] == 0.5).all()


class TestPlanLayout:
    @given(rooms(), st.integers(0, 4))
    @settings(max_examples=15, deadline=None)
    def test_panel_rooms(self, scene, max_order):
        assert_level_major(raytrace._plan_for(scene, max_order), len(scene.surfaces), max_order)

    @pytest.mark.parametrize("max_order", range(5))
    def test_desk_box(self, max_order):
        assert_level_major(raytrace._plan_for(desk_box(), max_order), 6, max_order)


@functools.cache
def fixed_rooms():
    return desk_box(), panel_room(2.5)


@st.composite
def fixed_room_links(draw):
    """Links in the desk box or the panel room, with random velocities and yaws."""
    scene = draw(st.sampled_from(fixed_rooms()))
    tx, rx = draw(poses(scene)), draw(poses(scene))
    assume(np.linalg.norm(tx.position - rx.position) > 1e-3)
    return scene, tx, rx


class TestDeferredGeometry:
    """A traced PathSet builds doppler, aoa, aod, order and bounces on the first read of any of them."""

    @given(fixed_room_links(), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_first_read_does_not_change_a_column(self, link, max_order):
        scene, tx, rx = link
        by_bounces = trace_paths(scene, tx, rx, max_order, FC)
        by_aoa = trace_paths(scene, tx, rx, max_order, FC)
        by_bounces.bounces
        by_aoa.aoa
        for name in ("gain", "delay", "doppler", "aoa", "aod", "order", "bounces"):
            got, want = getattr(by_aoa, name), getattr(by_bounces, name)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert not got.flags.writeable and not want.flags.writeable


class TestInvariants:
    @given(links(), st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_reciprocity(self, link, max_order):
        scene, tx, rx = link
        fwd = trace_paths(scene, tx, rx, max_order, FC)
        rev = list(trace_paths(scene, rx, tx, max_order, FC))
        assert len(fwd) == len(rev)
        for p in fwd:
            flipped = p.reflection_points[::-1]
            j = next(i for i, q in enumerate(rev) if q.order == p.order
                     and np.max(np.abs(q.reflection_points - flipped), initial=0.0) <= 1e-9)
            q = rev.pop(j)
            assert q.delay == pytest.approx(p.delay, rel=1e-12, abs=0.0)
            assert abs(q.gain - p.gain) <= 1e-12 * abs(p.gain)
            assert q.doppler == pytest.approx(p.doppler, rel=0.0, abs=1e-9)
            assert angles_close(q.aoa, p.aod, 1e-9)
            assert angles_close(q.aod, p.aoa, 1e-9)

    @given(links())
    @settings(max_examples=20, deadline=None)
    def test_raising_max_order_only_adds_paths(self, link):
        scene, tx, rx = link
        lower = None
        for order in range(4):
            ps = trace_paths(scene, tx, rx, order, FC)
            if lower is not None:
                assert len(ps) >= len(lower)
                kept = [(p.order, p.delay, p.gain) for p in ps if p.order < order]
                assert kept == [(p.order, p.delay, p.gain) for p in lower]
            lower = ps

    @given(links(), st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_reflection_points_lie_on_a_surface(self, link, max_order):
        scene, tx, rx = link
        for p in trace_paths(scene, tx, rx, max_order, FC):
            for point in p.reflection_points:
                assert any(abs(s.unit_normal @ point - s.plane_offset) <= 1e-9 and contains(s, point)
                           for s in scene.surfaces)

    @given(links(), st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_no_delay_below_line_of_sight(self, link, max_order):
        scene, tx, rx = link
        los = np.linalg.norm(rx.position - tx.position) / C
        for p in trace_paths(scene, tx, rx, max_order, FC):
            assert p.delay >= los * (1.0 - 1e-12)
