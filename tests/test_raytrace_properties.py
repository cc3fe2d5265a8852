"""The array tracer against two oracles, and invariants any tracer must keep.

The scalar oracle shares the tracer's algorithm. Its scenes are random
shoeboxes (the conftest room) with a free-standing panel, turned about z,
inside them: the panel casts shadows, so the occlusion masks fire, and its
normal is not axis-aligned. The second oracle is independent of the
algorithm: the closed-form image lattice of an empty box (Allen & Berkley,
JASA 1979).
"""

import dataclasses
import functools
import gc
import itertools
import json
import math
import re
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from isactwin import raytrace, simcore
from isactwin.localization import compute_mdp
from isactwin.raytrace import SPEED_OF_LIGHT as C, Pose, trace_paths, wrap_angle
from isactwin.scene import Stack, load_scene
from isactwin.simcore import ScenarioConfig
from conftest import box_scene_doc, repo_scenario_dir
from raytrace_oracle import contains, receiver_entry, trace_paths_scalar

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


@functools.cache
def panel_box(ly):
    """The smallest room rooms() draws: 1 m x ly x 1 m, every coefficient 0.5, with a 0.5 m wide
    panel across its middle at y = ly / 2."""
    doc = box_scene_doc(1.0, ly, 1.0, coeff=0.5)
    doc["materials"].append({"name": "panel", "reflection_coeff": 0.5})
    y = ly / 2
    doc["surfaces"].append({"vertices": [[0.25, y, 0], [0.75, y, 0], [0.75, y, 1], [0.25, y, 1]],
                            "material": "panel"})
    return load_scene(doc)


# Ends a subnormal distance from a plane, where a leg-rule or occlusion quotient overflows on rows
# whose tiny denominators those rules drop: each raised an overflow warning, an error under -W error
_FLOAT_MIN = 2.2250738585072014e-308


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


@st.composite
def near_edge_links(draw):
    """Desk-box links with one end 1e-12 to 1e-5 m inside two adjacent walls at once, near the
    edge where they meet, so that legs from it to either wall can be shorter than 1e-9 m."""
    scene = desk_box()
    near, far = draw(poses(scene)), draw(poses(scene))
    first = scene.surfaces[draw(st.integers(0, len(scene.surfaces) - 1))]
    second = draw(st.sampled_from([s for s in scene.surfaces if s.unit_normal @ first.unit_normal == 0.0]))
    position = near.position
    for wall in (first, second):   # perpendicular walls: moving to one keeps the gap to the other
        gap = 10.0 ** -draw(st.floats(5.0, 12.0))
        height = wall.unit_normal @ position - wall.plane_offset
        position = position - (height - math.copysign(gap, height)) * wall.unit_normal
    near = Pose(position, near.yaw, near.velocity)
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
    """The same paths in the same delay order. Paths whose delays tie within 1e-12 may come in
    either order: the tracer's path length |I - rx| and the oracle's sum of legs round apart in
    the last bits, which decides a stable sort between mathematically equal delays."""
    got, ref = list(got), list(ref)
    assert len(got) == len(ref)
    unmatched = list(range(len(ref)))
    for i, p in enumerate(got):
        j = next(j for j in unmatched if ref[j].order == p.order and np.allclose(
            p.reflection_points, ref[j].reflection_points, rtol=0.0, atol=1e-12))
        unmatched.remove(j)
        q = ref[j]
        assert q.delay == pytest.approx(ref[i].delay, rel=1e-12, abs=0.0)   # i and j tie
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

    @given(near_edge_links(), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_same_paths_near_an_edge(self, link, max_order):
        # the leg rule alone drops each candidate whose bounce lands within 1e-9 m of the end
        scene, tx, rx = link
        assert_same_paths(trace_paths(scene, tx, rx, max_order, FC),
                          trace_paths_scalar(scene, tx, rx, max_order, FC))

    def test_shipped_grid_fingerprints(self):
        # every 5th of the 195 desk grid points from both APs; symmetric paths tie in delay
        # there, so the fingerprints' bins are compared, not the order of paths within a bin
        config = ScenarioConfig.from_file(repo_scenario_dir() / "desk_two_ap.json")
        config = dataclasses.replace(config, db=dataclasses.replace(config.db, path=None))
        db, _ = simcore.build_db_for_scenario(config)
        scene, graph = simcore._world_parts(config)[:2]
        aps = simcore._static_aps(config, graph)
        build = config.db.build
        assert len(db.positions) == 195 and [ap_id for ap_id, _ in aps] == list(db.ap_ids)
        for i in range(0, len(db.positions), 5):
            for j, (_, ap) in enumerate(aps):
                paths = trace_paths_scalar(scene, ap, Pose(db.positions[i]), config.max_order,
                                           config.ofdm.carrier_freq)
                want = compute_mdp(paths, build.bin_width, build.num_bins).bins
                assert np.array_equal(db.bins[i, j] != 0.0, want != 0.0)
                assert np.allclose(db.bins[i, j], want, rtol=1e-12, atol=0.0)

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


class TestExactDirections:
    """Near a wall a leg can be 1e-9 m long, and a direction taken as the difference of its two
    points keeps few digits. In the desk box, whose walls are axis-aligned, mirroring is exact in
    rational arithmetic: the path leaves tx toward rx's last image and reaches rx from tx's."""

    @given(st.one_of(near_wall_links(), near_edge_links()), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_angles_from_exact_images(self, link, max_order):
        scene, tx, rx = link
        axes = [int(np.flatnonzero(s.unit_normal)[0]) for s in scene.surfaces]
        walls = [(axis, Fraction(float(s.vertices[0][axis]))) for axis, s in zip(axes, scene.surfaces)]

        def image(point, seq):
            point = [Fraction(float(x)) for x in point]
            for axis, at in (walls[w] for w in seq):
                point[axis] = 2 * at - point[axis]
            return point

        def angles(v, yaw):
            norm = math.sqrt(sum(x * x for x in v))
            return wrap_angle(math.atan2(v[1], v[0]) - yaw), math.asin(v[2] / norm)

        for p in trace_paths(scene, tx, rx, max_order, FC):
            # the walls each bounce lies on; on a seam, the sequence whose length is the path's
            on = [[w for w, (axis, at) in enumerate(walls) if abs(b[axis] - at) <= 1e-9] for b in p.reflection_points]
            lengths = {seq: sum((a - b) ** 2 for a, b in zip(image(tx.position, seq), rx.position))
                       for seq in itertools.product(*on)}
            seq = min(lengths, key=lambda seq: abs(float(lengths[seq]) - (p.delay * C) ** 2))
            dep = [float(a - b) for a, b in zip(image(rx.position, seq[::-1]), image(tx.position, ()))]
            arr = [float(a - b) for a, b in zip(image(tx.position, seq), image(rx.position, ()))]
            assert angles_close(p.aod, angles(dep, tx.yaw), 1e-12)
            assert angles_close(p.aoa, angles(arr, rx.yaw), 1e-12)


class TestPaddedCandidates:
    """Cases at the edges of the padded candidate table, against the scalar oracle."""

    @pytest.mark.parametrize("max_order", range(4))
    @pytest.mark.parametrize("off_wall", [0.0, 1e-10])
    def test_tx_on_a_wall_plane(self, max_order, off_wall):
        # a first bounce on the wall x = 0 lands on tx, or within 1e-10 of it: a
        # real leg under 1e-9 m, which the leg rule drops, where the zero-length
        # legs of padding are no legs
        scene = panel_room(2.5)
        tx, rx = Pose.at(off_wall, 1.3, 1.2, yaw=0.2), Pose.at(1.7, 2.4, 0.9, velocity=(0, 0.4, 0))
        got = trace_paths(scene, tx, rx, max_order, FC)
        assert_same_paths(got, trace_paths_scalar(scene, tx, rx, max_order, FC))
        assert len(got) > 0
        assert not any(np.any(p.reflection_points[:1, 0] < 1e-9) for p in got)

    @pytest.mark.parametrize("max_order", range(4))
    @pytest.mark.parametrize("off_walls", [0.0, 1e-10])
    def test_tx_on_two_wall_planes(self, max_order, off_walls):
        # tx on the desk box's edge x = 0, y = 0, or 1e-10 m inside both walls: a first
        # bounce on either wall lands within 1e-9 m of tx, which the leg rule drops
        scene = desk_box()
        tx, rx = Pose.at(off_walls, off_walls, 0.3, yaw=0.2), Pose.at(0.6, 0.45, 0.1, velocity=(0, 0.3, 0))
        got = trace_paths(scene, tx, rx, max_order, FC)
        assert_same_paths(got, trace_paths_scalar(scene, tx, rx, max_order, FC))
        assert len(got) > 0
        assert not any(np.any(p.reflection_points[:1, :2] < 1e-9) for p in got)

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


def all_surfaces(scene):
    """The occlusion tables of every planar surface of the scene, walls included, laid out as the
    plan lays out its occluders': the usable rows of the scene's stack."""
    return Stack(*(a[scene.stack.usable] for a in scene.stack))


def occlusion_masks(scene, tx, rx, max_order):
    """_occluded's masks for the candidates one trace keeps before occlusion, over the plan's occluders
    and over all S surfaces, on the real polylines mapped back from the candidates' unfolded lines."""
    plan = raytrace._plan_for(scene, max_order)
    tx_entry = raytrace._image_chain(plan, scene.walls, tx.position)
    rx_entry = raytrace._receiver(plan, scene.walls, rx.position)
    s, d, _, _, keep = raytrace._unfold(plan, tx_entry, rx_entry, rx.position, FC)
    rows = keep.nonzero()[0]
    pts = raytrace._polylines(plan, tx.position, rx.position, rows, s, d)
    return tuple(raytrace._occluded(surfaces, pts) for surfaces in (plan.occluders, all_surfaces(scene)))


@st.composite
def ends_across_a_wall(draw):
    """A box room of random size, one point in front of every wall and one 1e-9 to 1 m behind exactly one."""
    size = np.array([draw(st.floats(1.0, 6.0)), draw(st.floats(1.0, 6.0)), draw(st.floats(1.0, 3.0))])
    scene = load_scene(box_scene_doc(*size))
    inside, other = (size * np.array([draw(st.floats(0.05, 0.95)) for _ in range(3)]) for _ in range(2))
    wall = scene.surfaces[draw(st.integers(0, len(scene.surfaces) - 1))]
    gap = 10.0 ** -draw(st.floats(0.0, 9.0))
    height = wall.unit_normal @ other - wall.plane_offset   # its sign is the room's side
    behind = other - (height + math.copysign(gap, height)) * wall.unit_normal
    assert np.count_nonzero((behind < 0.0) | (behind > size)) == 1
    return scene, inside, behind


class TestWalls:
    """A wall has the whole scene on one side of its plane, so it cannot occlude a segment
    between two points in front of it. A trace refuses an end behind a wall, so occlusion
    reads only the other surfaces."""

    @given(st.one_of(links(), near_wall_links()), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_occluders_alone_give_every_mask(self, link, max_order):
        scene, tx, rx = link
        assert not scene.walls.behind(np.array((tx.position, rx.position))).any()   # both ends in the room
        fast, full = occlusion_masks(scene, tx, rx, max_order)
        assert np.array_equal(fast, full)

    @pytest.mark.parametrize("position", [
        (0.5, 0.5, 1.3), (-0.2, 0.3, 0.4), (0.3, -0.1, 0.3), (1.5, 0.07, 0.6),
    ], ids=["above-the-ceiling", "behind-x0", "behind-y0", "behind-x1"])
    def test_transmitters_outside_the_desk_box_are_refused_at_every_grid_point(self, position):
        # paths from these once leaked in through wall seams, at 39, 9, 12 and 1 of the points
        config = ScenarioConfig.from_file(repo_scenario_dir() / "desk_two_ap.json")
        scene = desk_box()
        grid = simcore._db_grid(config, scene)
        assert len(grid) == 195
        tx = Pose.at(*position)
        for point in grid:
            with pytest.raises(ValueError, match=r"^tx at .* is behind a wall of the scene$"):
                trace_paths(scene, tx, Pose(point), config.max_order, FC)

    @given(ends_across_a_wall(), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_a_trace_across_a_wall_raises(self, ends, max_order):
        scene, inside, behind = ends
        for tx, rx in ((inside, behind), (behind, inside)):
            with pytest.raises(ValueError, match="is behind a wall of the scene$"):
                trace_paths(scene, Pose(tx), Pose(rx), max_order, FC)

    @pytest.mark.parametrize("max_order", range(4))
    @pytest.mark.parametrize("make_scene,inside,behind", [
        (desk_box, Pose.at(0.3, 0.4, 0.2, yaw=0.5), Pose.at(1.05, 0.5, 0.3, velocity=(0.2, 0, 0))),
        (lambda: panel_room(2.5), Pose.at(3.0, 2.6, 1.3, yaw=-0.4), Pose.at(-0.05, 1.3, 1.2)),
    ], ids=["behind-desk-wall", "behind-panel-room-wall"])
    def test_an_end_behind_a_wall_is_refused(self, make_scene, inside, behind, max_order):
        # every path crosses the wall the end stands behind, and occlusion reads no wall
        scene = make_scene()
        where = re.escape(str(tuple(behind.position.tolist())))
        with pytest.raises(ValueError, match=f"^tx at {where} is behind a wall of the scene$"):
            trace_paths(scene, behind, inside, max_order, FC)
        with pytest.raises(ValueError, match=f"^rx at {where} is behind a wall of the scene$"):
            trace_paths(scene, inside, behind, max_order, FC)


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
        # a trace that wrote into the plan or an end's cached products in place would corrupt
        # every later trace of the scene or of that end; it raises instead
        scene, tx, rx = desk_box(), Pose.at(0.1, 0.1, 0.5), Pose.at(0.8, 0.6, 0.1)
        trace_paths(scene, tx, rx, 3, FC)
        plan = raytrace._PLANS[scene][3]
        cached = [a for a in [*vars(plan).values(), *plan.occluders, *plan.images[tx], *plan.receivers[rx],
                              *scene.walls] if isinstance(a, np.ndarray)]
        assert len(cached) == 26   # the occluders are a Stack of 7 arrays
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


def same_columns(got, want):
    """Every column of two PathSets holds the same bytes."""
    for name in ("gain", "delay", "doppler", "aoa_dir", "aod_dir", "aoa", "aod", "order", "bounces"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


@st.composite
def shared_end_links(draw):
    """Three distinct poses in the desk box or the panel room, which tests trace between in turn."""
    scene = draw(st.sampled_from(fixed_rooms()))
    ends = [draw(poses(scene)) for _ in range(3)]
    assume(min(np.linalg.norm(a.position - b.position) for a, b in itertools.combinations(ends, 2)) > 1e-3)
    return scene, ends


class TestReusedReceiver:
    """One rx Pose traced from many transmitters, and a Pose that is tx in one trace and rx in
    another: later traces reuse the receiver's cached products and each end's wall check."""

    @given(shared_end_links(), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_shared_ends_give_a_fresh_poses_bits(self, link, max_order):
        scene, (a, b, c) = link
        fresh = lambda pose: Pose(pose.position, pose.yaw, pose.velocity)
        # c is rx twice, then tx; a is tx, then rx
        for tx, rx in ((a, c), (b, c), (c, a), (b, a), (c, b)):
            got = trace_paths(scene, tx, rx, max_order, FC)
            same_columns(got, trace_paths(scene, fresh(tx), fresh(rx), max_order, FC))
            assert_same_paths(got, trace_paths_scalar(scene, tx, rx, max_order, FC))
        plan = raytrace._PLANS[scene][max_order]
        assert {a, b, c} <= set(plan.receivers) and {a, b, c} <= set(plan.images)

    def test_an_end_behind_a_wall_is_refused_on_every_call(self):
        scene = desk_box()
        inside, behind = Pose.at(0.3, 0.4, 0.2), Pose.at(1.05, 0.5, 0.3)
        also_behind = Pose.at(0.5, -0.1, 0.3)
        where = lambda pose: re.escape(str(tuple(pose.position.tolist())))
        for _ in range(3):   # the first call caches each end's wall check, the later ones read it
            for tx, rx, end in ((inside, behind, "rx"), (behind, inside, "tx"),
                                (behind, also_behind, "tx"), (also_behind, behind, "tx")):
                pose = tx if end == "tx" else rx
                with pytest.raises(ValueError, match=f"^{end} at {where(pose)} is behind a wall of the scene$"):
                    trace_paths(scene, tx, rx, 2, FC)
        assert len(trace_paths(scene, inside, Pose.at(0.8, 0.6, 0.1), 2, FC)) > 0

    def test_receiver_entry_dies_with_its_pose(self):
        scene = desk_box()
        tx, rx = Pose.at(0.1, 0.1, 0.5), Pose.at(0.8, 0.6, 0.1)
        assert len(trace_paths(scene, tx, rx, 3, FC)) > 0    # the PathSet, which holds rx, is dropped
        plan = raytrace._PLANS[scene][3]
        assert list(plan.receivers) == [rx]
        ref = weakref.ref(rx)
        del rx
        gc.collect()
        assert ref() is None
        assert len(plan.receivers) == 0


@st.composite
def receiver_batches(draw):
    """A tx and 1 to 24 receiver points in the desk box or a turned panel room, each end drawn from a
    box 15 % larger than the scene's bounds on every side, so that some stand behind a wall."""
    scene = draw(st.one_of(st.just(desk_box()), rooms()))
    lo, hi = scene.bounds_min, scene.bounds_max

    def point():
        return lo + (hi - lo) * np.array([draw(st.floats(-0.15, 1.15)) for _ in range(3)])

    tx = Pose(point(), draw(st.floats(-math.pi, math.pi)), [draw(st.floats(-2.0, 2.0)) for _ in range(3)])
    points = [point() for _ in range(draw(st.integers(1, 24)))]
    assume(all(np.linalg.norm(tx.position - p) > 1e-3 for p in points))
    return scene, tx, points


class TestReceiverEntries:
    """trace_paths builds an rx Pose's entry (_receiver) from one product with the plan's planes
    table. Its arrays equal, byte for byte, the two stacked products of the oracle's entry, and
    its wall flag the oracle's Walls.behind, for every drawn point and for each one moved onto a
    wall's plane, to within rounding. A trace from either entry gives the same paths, bit for bit,
    and an end behind a wall the same refusal, tx first."""

    @given(receiver_batches(), st.integers(0, 3))
    @example((panel_box(1.0), Pose.at(0.0, 0.0, 1.0), [np.array([0.0, 5e-324, 0.0])]), 0)   # occlusion
    @example((desk_box(), Pose.at(0.0, 0.0, 0.0), [np.array([0.0, 0.8, 5e-324])]), 3)      # leg rule
    @settings(max_examples=60, deadline=None)
    def test_entries_match_the_two_product_oracle(self, batch, max_order):
        scene, tx, points = batch
        plan, walls = raytrace._plan_for(scene, max_order), scene.walls
        tx_behind = walls.behind(tx.position[None])[0]
        n, o = walls.normals, walls.offsets
        on_walls = [p - (n[i % len(o)] @ p - o[i % len(o)]) * n[i % len(o)] for i, p in enumerate(points)]
        for point in points + on_walls:
            want = receiver_entry(plan, walls, point)
            behind, *arrays = raytrace._receiver(plan, walls, point)
            assert type(behind) is bool and behind == want[0]
            for a, b in zip(arrays, want[1:]):
                assert a.shape == b.shape and a.tobytes() == b.tobytes() and not a.flags.writeable
            rx, seeded = Pose(point), Pose(point)
            plan.receivers[seeded] = want
            got, ref = (traced_or_refused(scene, tx, end, max_order) for end in (rx, seeded))
            if math.dist(point, tx.position) < 1e-12:   # a point moved onto tx's wall plane
                assert got == ref == "coincident endpoints"
            elif tx_behind or behind:
                end, pose = ("tx", tx) if tx_behind else ("rx", rx)
                assert got == ref == f"{end} at {tuple(pose.position.tolist())} is behind a wall of the scene"
            else:
                same_columns(got, ref)


class TestTracedPowers:
    """A trace hands each path's amplitude min(amp, 1) to the PathSet, whose powers are its squares
    and whose complex gains it forms from it only on their first read; a fingerprint bins the
    powers. The two agree with |gain|^2 to the last bits, and an MDP occupies the same bins and
    overflows by the same count either way."""

    @given(receiver_batches(), st.integers(0, 3), st.sampled_from([(5e-10, 64), (1e-9, 8), (2e-10, 3)]))
    @example((panel_box(1.0), Pose.at(0.5, _FLOAT_MIN, 0.0), [np.zeros(3)]), 3, (5e-10, 64))   # occlusion
    @example((panel_box(3.0), Pose.at(0.0, 0.0, 0.0), [np.array([0.0, 1.5, _FLOAT_MIN])]), 3,
             (5e-10, 64))                                                                    # leg rule
    @settings(max_examples=60, deadline=None)
    def test_powers_are_the_gains_squared(self, batch, max_order, bin_layout):
        scene, tx, points = batch
        for point in points:
            paths = traced_or_refused(scene, tx, Pose(point), max_order)
            if isinstance(paths, str):
                continue
            modulus_squared = np.float_power(np.hypot(paths.gain.real, paths.gain.imag), 2.0)
            np.testing.assert_allclose(paths.power, modulus_squared, rtol=1e-15, atol=0.0)
            got = compute_mdp(paths, *bin_layout)
            want = compute_mdp(raytrace.PathSet(paths.paths, paths.tx_pose, paths.rx_pose, FC), *bin_layout)
            assert np.array_equal(got.bins > 0.0, want.bins > 0.0)
            assert got.overflow == want.overflow


def traced_or_refused(scene, tx, rx, max_order):
    try:
        return trace_paths(scene, tx, rx, max_order, FC)
    except ValueError as exc:
        return str(exc)


def plan_sequences(num_surfaces, max_order):
    """The plan's rows as a (K, M) table: every surface sequence of order 0..K with no surface twice
    in a row, right-aligned behind -1s, in lexicographic order."""
    rows = [seq for seq in itertools.product(range(-1, num_surfaces), repeat=max_order)
            if all(a < 0 or (b >= 0 and b != a) for a, b in zip(seq, seq[1:]))]
    return np.array(rows, dtype=int).reshape(len(rows), max_order).T


def assert_plan_layout(plan, scene, max_order):
    """Rows run order by order with padding first. Mirroring each bounce's mirrored plane and edge
    planes back through its level's map gives its surface's own; padding is zero planes (offset 1)
    and mirrors nothing; each row's coefficient product is its bounces', 1 for LoS."""
    usable = [s for s in scene.surfaces if s.unit_normal is not None]
    seqs = plan_sequences(len(usable), max_order)
    k, m = plan.offsets.shape
    assert (k, m) == seqs.shape and k == max_order
    assert m == 1 + sum(len(usable) * (len(usable) - 1) ** (j - 1) for j in range(1, k + 1))
    real = seqs >= 0
    assert np.array_equal(plan.padding, ~real)
    assert np.array_equal(plan.order, real.sum(axis=0))
    assert plan.order[0] == 0 and (np.diff(plan.order) >= 0).all()
    linear, shift = plan.linear[1:], plan.shift[1:]
    normals = np.vecdot(linear, plan.normals[..., None, :])
    offsets = plan.offsets + np.vecdot(normals, shift)
    edge_normals = np.vecdot(linear[:, :, None], np.moveaxis(plan.edge_normals, 1, 2)[..., None, :])
    edge_offsets = np.moveaxis(plan.edge_offsets, 1, 2) + np.vecdot(edge_normals, shift[:, :, None])
    every, own = all_surfaces(scene), seqs[real]
    for got, want in zip((normals, offsets, edge_normals, edge_offsets), every[3:]):   # its plane tables
        assert np.allclose(got[real], want[own], rtol=0.0, atol=1e-12)
    assert not plan.normals[~real].any() and (plan.offsets[~real] == 1.0).all()
    padding = plan.padding[:, None, :].repeat(plan.edge_offsets.shape[1], axis=1)
    assert not plan.edge_normals[padding].any() and not plan.edge_offsets[padding].any()
    coeffs = np.array([s.material.reflection_coeff for s in usable])
    assert np.allclose(plan.coeffs, np.where(real, coeffs[seqs], 1.0).prod(axis=0), rtol=1e-15, atol=0.0)
    assert (plan.coeffs[plan.order == 0] == 1.0).all()
    # every map back is an isometry; a padding level mirrors nothing, so its map is the next level's
    assert np.allclose(plan.linear @ plan.linear.swapaxes(-1, -2), np.eye(3), rtol=0.0, atol=1e-12)
    assert np.array_equal(plan.linear[:-1][~real], plan.linear[1:][~real])
    assert np.array_equal(plan.shift[:-1][~real], plan.shift[1:][~real])
    assert np.array_equal(plan.linear[-1], np.broadcast_to(np.eye(3), (m, 3, 3)))
    assert not plan.shift[-1].any()


def assert_walls(plan, scene, num_walls):
    """The first num_walls surfaces are walls, facing the scene; the rest are the plan's occluders."""
    vertices = np.concatenate([s.vertices for s in scene.surfaces])
    walls, every = scene.walls, all_surfaces(scene)
    assert walls.mask.tolist() == [True] * num_walls + [False] * (len(scene.surfaces) - num_walls)
    assert (vertices @ walls.normals.T >= walls.offsets).all()
    assert np.array_equal(abs(walls.normals), abs(every.normals[:num_walls]))
    for occluder, table in zip(plan.occluders, every):
        assert np.array_equal(occluder, table[num_walls:])


class TestPlanLayout:
    @given(rooms(), st.integers(0, 4))
    @settings(max_examples=15, deadline=None)
    def test_panel_rooms(self, scene, max_order):
        plan = raytrace._plan_for(scene, max_order)
        assert_plan_layout(plan, scene, max_order)
        assert_walls(plan, scene, 6)   # the box faces; the panel is the one occluder

    @pytest.mark.parametrize("max_order", range(5))
    def test_desk_box(self, max_order):
        scene = desk_box()
        plan = raytrace._plan_for(scene, max_order)
        assert_plan_layout(plan, scene, max_order)
        assert_walls(plan, scene, 6)   # and no occluder

    def test_panel_room(self):
        scene = panel_room(2.5)
        assert_walls(raytrace._plan_for(scene, 3), scene, 6)

    def test_a_flat_scene_has_no_wall(self):
        # a lone panel's plane holds the whole scene, which is then on both of its sides
        doc = box_scene_doc(4.0, 3.0, 2.5)
        doc["surfaces"] = [{"vertices": [[2, 1, 0.5], [2, 2, 0.5], [2, 2, 2], [2, 1, 2]], "material": "wall"}]
        scene = load_scene(doc)
        assert_walls(raytrace._plan_for(scene, 2), scene, 0)
        assert len(trace_paths(scene, Pose.at(1.0, 1.5, 1.2), Pose.at(3.0, 1.5, 1.2), 2, FC)) == 0


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
