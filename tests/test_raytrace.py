import itertools
import json
import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isactwin.raytrace as raytrace
from isactwin.raytrace import (
    SPEED_OF_LIGHT as C,
    PathSet,
    Pose,
    PropagationPath,
    trace_paths,
    wrap_angle,
)
from isactwin.scene import Material, Scene, Surface, load_scene
from conftest import box_scene_doc, repo_scenario_dir


# the PathSet columns a trace builds on first read: each group on the first read of any of its
# columns, the link group's angles from its directions
LINK = ("gain", "doppler", "aoa_dir", "aod_dir", "aoa", "aod")
DEFERRED = LINK + ("order", "bounces")


def empty_scene():
    return Scene(surfaces=[], materials={}, bounds_min=np.array([-50.0, -50.0, -50.0]),
                 bounds_max=np.array([50.0, 50.0, 50.0]))


def make_surface(vertices, coeff=0.7, name="s"):
    return Surface(vertices=np.asarray(vertices, float), material=Material(name, coeff), name=name)


class TestWrapAngle:
    @pytest.mark.parametrize("angle,expected", [
        (0.0, 0.0),
        (math.pi, math.pi),
        (-math.pi, math.pi),
        (3 * math.pi, math.pi),
        (-math.pi / 2, -math.pi / 2),
        (2 * math.pi, 0.0),
    ])
    def test_known_values(self, angle, expected):
        assert wrap_angle(angle) == pytest.approx(expected, abs=1e-12)

    @given(st.floats(min_value=-50.0, max_value=50.0))
    @settings(max_examples=100, deadline=None)
    def test_range_and_equivalence(self, a):
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi
        assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-9)
        assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-9)


class TestGain:
    """The amplitude (lambda / (4 pi d)) coeff and phase -2 pi d / lambda of a path of length d."""

    @staticmethod
    def los_gain(distance, fc=2.4e9):
        ps = trace_paths(empty_scene(), Pose.at(0, 0, 0), Pose.at(distance, 0, 0), 0, fc)
        assert len(ps) == 1
        return complex(ps.gain[0])

    def test_unit_amplitude_at_quarter_wavelength_over_pi(self):
        fc = 2.4e9
        b = self.los_gain(C / fc / (4 * math.pi), fc)
        assert abs(b) == pytest.approx(1.0, rel=1e-12)
        assert math.atan2(b.imag, b.real) == pytest.approx(-0.5, rel=1e-12)

    def test_inverse_distance_law(self):
        assert abs(self.los_gain(2.0)) == pytest.approx(2 * abs(self.los_gain(4.0)), rel=1e-12)

    def test_gain_is_the_given_amplitude_times_the_phase(self):
        # _gain takes the amplitude the trace already clamped and pruned
        gain = raytrace._gain(np.array([1.0, 1.0]), np.array([0.0, 0.5]), 2.4e9)
        assert gain[0] == 0 and gain[1] == 0.5 * raytrace._gain(np.array([1.0]), 1.0, 2.4e9)[0]


class TestDoppler:
    @staticmethod
    def los_doppler(rx_velocity):
        ps = trace_paths(empty_scene(), Pose.at(0, 0, 0), Pose.at(3, 0, 0, velocity=rx_velocity), 0, 2.4e9)
        assert len(ps) == 1
        return ps.doppler[0]

    def test_static_is_zero(self):
        assert self.los_doppler((0, 0, 0)) == 0.0

    def test_head_on_approach(self):
        nu = self.los_doppler((-1.0, 0, 0))
        assert nu == pytest.approx(2.4e9 / C, rel=1e-12)  # ~8.005 Hz

    def test_perpendicular_motion(self):
        assert self.los_doppler((0, 1.0, 0)) == pytest.approx(0.0, abs=1e-15)


@pytest.fixture
def inside_rows(monkeypatch):
    """The number of candidate rows each raytrace._inside call tests for containment."""
    rows = []
    inside = raytrace._inside

    def counting(heights):
        rows.append(heights.shape[-1])   # (K V, M) bounces, or (V, N) occlusion hits
        return inside(heights)

    monkeypatch.setattr(raytrace, "_inside", counting)
    return rows


class TestTracePaths:
    def test_containment_runs_once_over_the_whole_table(self, box_scene, inside_rows):
        # containment tests every candidate row in one call, beside the leg rule; in a shoebox
        # the 63 rows that pass both are the paths, and no leg meets a plane between its ends,
        # so occlusion has no hit to test for containment
        tx = Pose.at(1.23, 0.74, 1.31)
        for rx in np.random.default_rng(5).uniform(0.1, [3.9, 2.9, 2.4], size=(5, 3)):
            inside_rows.clear()
            ps = trace_paths(box_scene, tx, Pose(rx), 3, 2.4e9)
            assert len(ps) == 63
            assert inside_rows == [187]
        assert len(raytrace._PLANS[box_scene][3].order) == 187

    def test_candidate_count_is_the_size_of_the_plans_index_table(self, monkeypatch):
        # validate_scenario counts the table with candidate_count and refuses one too large to build
        sizes, indices = [], np.indices
        monkeypatch.setattr(np, "indices", lambda shape: sizes.append(math.prod(shape)) or indices(shape))
        scene = load_scene(box_scene_doc())
        for max_order in (1, 2, 3):
            raytrace._plan_for(scene, max_order)
        assert sizes == [raytrace.candidate_count(6, k) for k in (1, 2, 3)] == [7, 49, 343]
        assert raytrace.candidate_count(6, 10**12) == raytrace.candidate_count(6, 10**400) == math.inf

    def test_los_delay_three_meters(self):
        ps = trace_paths(empty_scene(), Pose.at(0, 0, 1), Pose.at(3, 0, 1), 0, 2.4e9)
        assert len(ps) == 1
        assert ps.paths[0].delay == pytest.approx(3.0 / C, rel=1e-12)
        assert ps.paths[0].order == 0

    def test_single_wall_reflection_length(self):
        # tx (1,1), rx (3,1) against wall y=0: image (1,-1), length sqrt(8)
        wall = make_surface([[0, 0, 0], [4, 0, 0], [4, 0, 2], [0, 0, 2]])
        scene = Scene(surfaces=[wall], materials={"s": wall.material},
                      bounds_min=np.zeros(3), bounds_max=np.array([4.0, 3.0, 2.0]))
        ps = trace_paths(scene, Pose.at(1, 1, 1), Pose.at(3, 1, 1), 1, 2.4e9)
        delays = sorted(p.delay for p in ps)
        assert len(delays) == 2
        assert delays[0] == pytest.approx(2.0 / C, rel=1e-12)
        assert delays[1] == pytest.approx(math.sqrt(8.0) / C, rel=1e-12)

    def test_blocked_los_gives_empty_set(self):
        blocker = make_surface([[1.5, -1, 0], [1.5, 1, 0], [1.5, 1, 2], [1.5, -1, 2]])
        scene = Scene(surfaces=[blocker], materials={"s": blocker.material},
                      bounds_min=np.array([0.0, -1.0, 0.0]), bounds_max=np.array([3.0, 1.0, 2.0]))
        ps = trace_paths(scene, Pose.at(0, 0, 1), Pose.at(3, 0, 1), 0, 2.4e9)
        assert len(ps) == 0

    def test_coincident_endpoints_rejected(self, box_scene):
        with pytest.raises(ValueError, match="coincident"):
            trace_paths(box_scene, Pose.at(1, 1, 1), Pose.at(1, 1, 1), 1, 2.4e9)

    def test_delays_match_segment_sums(self, box_scene):
        tx, rx = Pose.at(1.23, 0.74, 1.31), Pose.at(2.86, 2.11, 0.97)
        for p in trace_paths(box_scene, tx, rx, 2, 2.4e9):
            pts = np.vstack([tx.position, p.reflection_points, rx.position])
            total = np.linalg.norm(np.diff(pts, axis=0), axis=1).sum()
            assert p.delay == pytest.approx(total / C, rel=1e-12)

    def test_max_order_monotone(self, box_scene):
        tx, rx = Pose.at(1.0, 1.0, 1.0), Pose.at(3.0, 2.0, 1.5)
        seen = []
        for order in (0, 1, 2):
            delays = sorted(p.delay for p in trace_paths(box_scene, tx, rx, order, 2.4e9))
            assert delays[: len(seen)] == pytest.approx(seen)
            assert len(delays) >= len(seen)
            seen = delays

    def test_gain_clamped_to_unity_at_close_range(self):
        # one clamp rule for power and gain: the amplitude 1 / (0.04 pi) is cut to 1 before either
        ps = trace_paths(empty_scene(), Pose.at(0, 0, 0), Pose.at(0.001, 0, 0), 0, 2.4e9)
        assert ps.power.tolist() == [1.0]
        assert ps.gain[0] == raytrace._gain(np.array([0.001]), 1.0, 2.4e9)[0]
        assert abs(ps.paths[0].gain) == pytest.approx(1.0, rel=1e-12)

    def test_absorbing_walls_prune_everything_but_los(self):
        scene = load_scene(box_scene_doc(coeff=0.0))
        ps = trace_paths(scene, Pose.at(1, 1, 1), Pose.at(3, 2, 1), 2, 2.4e9)
        assert [p.order for p in ps.paths] == [0]

    def test_reciprocity(self, box_scene):
        tx, rx = Pose.at(1.23, 0.74, 1.31, yaw=0.4), Pose.at(2.86, 2.11, 0.97, yaw=-1.1)
        ab = trace_paths(box_scene, tx, rx, 2, 2.4e9)
        ba = trace_paths(box_scene, rx, tx, 2, 2.4e9)
        assert len(ab) == len(ba)
        fwd = sorted((p.delay, abs(p.gain), p.aoa, p.aod) for p in ab)
        rev = sorted((p.delay, abs(p.gain), p.aod, p.aoa) for p in ba)
        for f, r in zip(fwd, rev):
            assert f[0] == pytest.approx(r[0], abs=1e-12)
            assert f[1] == pytest.approx(r[1], abs=1e-12)
            assert np.allclose(f[2], r[2], atol=1e-9)
            assert np.allclose(f[3], r[3], atol=1e-9)

    def test_matches_analytic_box_enumeration(self, box_scene):
        tx, rx = Pose.at(1.23, 0.74, 1.31), Pose.at(2.86, 2.11, 0.97)
        impl = sorted(p.delay * C for p in trace_paths(box_scene, tx, rx, 2, 2.4e9))
        oracle = sorted(box_image_lengths(4.0, 3.0, 2.5, tx.position, rx.position, 2))
        assert len(impl) == len(oracle)
        assert np.max(np.abs(np.array(impl) - np.array(oracle))) < 1e-9

    def test_angles_rotate_into_local_frame(self):
        # LoS due +x: the wave arrives at the rx from global azimuth pi; a rx
        # yawed +pi/2 sees it at local azimuth pi - pi/2 = +pi/2
        ps = trace_paths(empty_scene(), Pose.at(0, 0, 0), Pose.at(3, 0, 0, yaw=math.pi / 2), 0, 2.4e9)
        aoa_az, aoa_el = ps.paths[0].aoa
        assert aoa_az == pytest.approx(math.pi / 2, abs=1e-12)
        assert aoa_el == pytest.approx(0.0, abs=1e-12)
        aod_az, aod_el = ps.paths[0].aod
        assert aod_az == pytest.approx(0.0, abs=1e-12)


class TestReadOnlyScene:
    """The tracer caches per-scene tables keyed by the Scene alone; a scene cannot change under them."""

    def test_in_place_edits_are_refused(self):
        scene = load_scene(json.loads((repo_scenario_dir() / "desk_box.scene.json").read_text()))
        with pytest.raises(AttributeError):
            scene.surfaces.pop()
        with pytest.raises(FrozenInstanceError):
            scene.surfaces[0].material = Material("absorber", 0.0)
        with pytest.raises(TypeError):
            scene.materials["absorber"] = Material("absorber", 0.0)
        with pytest.raises(ValueError, match="read-only"):
            scene.surfaces[0].vertices[0, 2] = 0.05
        with pytest.raises(ValueError, match="read-only"):
            scene.surfaces[0].vertices[:, 2] += 0.05
        with pytest.raises(ValueError, match="read-only"):
            scene.bounds_max[1] = 5.0
        arrays = [scene.bounds_min, scene.bounds_max]
        for s in scene.surfaces:
            arrays += [s.vertices, s.unit_normal, s.edge_normals, s.edge_offsets]
        assert not any(a.flags.writeable for a in arrays)

    @pytest.mark.parametrize("edit", ["drop-last-surface", "absorber-on-surface-0"])
    def test_replaced_scene_traces_like_a_fresh_load(self, edit):
        doc = json.loads((repo_scenario_dir() / "desk_box.scene.json").read_text())
        scene = load_scene(doc)
        tx, rx = Pose.at(0.1, 0.1, 0.5), Pose.at(0.8, 0.6, 0.1)
        assert len(trace_paths(scene, tx, rx, 2, 2.4e9)) == 25   # caches the original scene's tables
        if edit == "drop-last-surface":
            changed = replace(scene, surfaces=scene.surfaces[:-1])
            doc["surfaces"].pop()
        else:
            absorber = Material("absorber", 0.0)
            surfaces = (replace(scene.surfaces[0], material=absorber), *scene.surfaces[1:])
            changed = replace(scene, surfaces=surfaces, materials={**scene.materials, "absorber": absorber})
            doc["materials"].append({"name": "absorber", "reflection_coeff": 0.0})
            doc["surfaces"][0]["material"] = "absorber"
        got, want = trace_paths(changed, tx, rx, 2, 2.4e9), trace_paths(load_scene(doc), tx, rx, 2, 2.4e9)
        assert len(want) == 18
        for a, b in zip(columns_of(got) + (got.bounces,), columns_of(want) + (want.bounces,)):
            assert np.array_equal(a, b)


class TestPropagationPathInvariants:
    def test_order_must_match_reflection_points(self):
        with pytest.raises(ValueError, match="order"):
            PropagationPath(gain=0.1, delay=1e-9, doppler=0.0, aoa=(0, 0), aod=(0, 0),
                            reflection_points=np.zeros((2, 3)), order=1)

    def test_pathset_sorts_by_delay(self):
        mk = lambda d: PropagationPath(gain=0.1, delay=d, doppler=0.0, aoa=(0, 0), aod=(0, 0),
                                       reflection_points=np.zeros((0, 3)), order=0)
        ps = PathSet(paths=[mk(3e-9), mk(1e-9), mk(2e-9)],
                     tx_pose=Pose.at(0, 0, 0), rx_pose=Pose.at(1, 0, 0), carrier_freq=2.4e9)
        assert [p.delay for p in ps] == [1e-9, 2e-9, 3e-9]


class TestBounces:
    """PathSet.bounces: (L, K, 3), real bounces right-aligned behind padding rows equal to tx."""

    TX = Pose.at(1.23, 0.74, 1.31, yaw=0.4, velocity=(0.3, -0.2, 0.0))
    RX = Pose.at(2.86, 2.11, 0.97, yaw=-1.1, velocity=(-0.1, 0.5, 0.0))

    @pytest.mark.parametrize("max_order", [0, 1, 3])
    def test_traced_layout_and_polyline_length(self, box_scene, max_order):
        ps = trace_paths(box_scene, self.TX, self.RX, max_order, 2.4e9)
        assert ps.bounces.shape == (len(ps), max_order, 3)
        for b, k, delay in zip(ps.bounces, ps.order.tolist(), ps.delay.tolist()):
            assert np.array_equal(b[: max_order - k], np.tile(self.TX.position, (max_order - k, 1)))
            polyline = np.vstack([self.TX.position, b, self.RX.position])
            length = np.linalg.norm(np.diff(polyline, axis=0), axis=1).sum()
            assert length == pytest.approx(delay * C, rel=1e-12)

    def test_paths_slice_the_real_bounces(self, box_scene):
        ps = trace_paths(box_scene, self.TX, self.RX, 3, 2.4e9)
        for p, b in zip(ps.paths, ps.bounces):
            assert np.array_equal(p.reflection_points, b[3 - p.order:])

    def test_list_route_pads_to_the_largest_order(self):
        tx = Pose.at(0.5, -1.0, 2.0)
        mk = lambda d, order: PropagationPath(gain=0.1, delay=d, doppler=0.0, aoa=(0, 0), aod=(0, 0),
                                              reflection_points=np.full((order, 3), float(order)),
                                              order=order)
        ps = PathSet(paths=[mk(3e-9, 2), mk(1e-9, 0), mk(2e-9, 1)], tx_pose=tx,
                     rx_pose=Pose.at(1, 0, 0), carrier_freq=2.4e9)
        want = np.array([[tx.position, tx.position], [tx.position, [1.0] * 3], [[2.0] * 3] * 2])
        assert np.array_equal(ps.bounces, want)

    def test_directions_are_built_once_on_first_read(self, box_scene, monkeypatch):
        # not by the trace: the gains and directions on the first read of a gain, a Doppler
        # shift, a direction or an angle, and never again; each angle column from its direction
        # on its own first read (the channel steers from the directions and reads none); an order
        # or a bounce point needs neither. u_arr is D / |D| and u_dep its composed mirror, so
        # both directions are unit vectors with no second norm
        calls, polylines = [], []
        angles, lines = raytrace._direction_angles, raytrace._polylines

        def counting_angles(units):
            calls.append(units.shape)
            assert np.allclose(np.linalg.norm(units, axis=1), 1.0, rtol=0.0, atol=1e-15)
            return angles(units)

        def counting_lines(*args):
            polylines.append(1)
            return lines(*args)

        monkeypatch.setattr(raytrace, "_direction_angles", counting_angles)
        monkeypatch.setattr(raytrace, "_polylines", counting_lines)
        for max_order, first_read in itertools.product((0, 2, 3), DEFERRED):
            calls.clear()
            polylines.clear()
            ps = trace_paths(box_scene, self.TX, self.RX, max_order, 2.4e9)
            assert len(ps) > 0 and ps.power.shape == ps.delay.shape == (len(ps),)
            assert calls == [] and polylines == []   # all a fingerprint reads
            getattr(ps, first_read)
            assert ("_link" in vars(ps)) == (first_read in LINK)
            assert ("_geometry" in vars(ps)) == (first_read not in LINK)
            assert calls == [(len(ps), 3)] * (first_read in ("aoa", "aod"))
            assert polylines == [1] * (first_read not in LINK)
            for name in DEFERRED + ("paths",):
                getattr(ps, name)
            assert calls == [(len(ps), 3)] * 2 and polylines == [1]


class TestPoseRotation:
    def test_built_once_and_read_only(self):
        pose = Pose.at(0, 0, 0, yaw=0.3)
        assert pose.rotation is pose.rotation
        c, s = math.cos(pose.yaw), math.sin(pose.yaw)
        np.testing.assert_array_equal(pose.rotation, [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ValueError):
            pose.rotation[0, 0] = 2.0
        with pytest.raises(FrozenInstanceError):
            pose.yaw = 1.0

    def test_yaw_is_wrapped(self):
        assert Pose.at(0, 0, 0, yaw=3.0 * math.pi / 2.0).yaw == pytest.approx(-math.pi / 2.0, abs=1e-15)
        assert Pose.at(0, 0, 0, yaw=-math.pi).yaw == pytest.approx(math.pi, abs=1e-15)

    def test_position_and_velocity_are_read_only_copies(self):
        # the tracer caches image chains per tx pose, so a pose must not follow its caller's array
        grid, speed = np.array([[0.2, 0.3, 0.08]]), np.array([0.5, 0.0, 0.0])
        pose = Pose(position=grid[0], velocity=speed)
        grid[0, 0], speed[1] = 0.9, 1.0
        assert pose.position.tolist() == [0.2, 0.3, 0.08]
        assert pose.velocity.tolist() == [0.5, 0.0, 0.0]
        for column in (pose.position, pose.velocity):
            with pytest.raises(ValueError):
                column[0] = 1.0


def columns_of(ps):
    return (ps.gain, ps.delay, ps.doppler, ps.aoa, ps.aod, ps.order)


class TestPathSetColumns:
    """PathSet stores columns; PropagationPaths go in and come back out unchanged."""

    TX = Pose.at(1.23, 0.74, 1.31, yaw=0.4, velocity=(0.3, -0.2, 0.0))
    RX = Pose.at(2.86, 2.11, 0.97, yaw=-1.1, velocity=(-0.1, 0.5, 0.0))

    def test_column_shapes_and_types(self, box_scene):
        ps = trace_paths(box_scene, self.TX, self.RX, 2, 2.4e9)
        n = len(ps)
        assert n > 20
        assert ps.gain.shape == ps.delay.shape == ps.doppler.shape == ps.order.shape == (n,)
        assert ps.aoa.shape == ps.aod.shape == (n, 2)
        assert ps.gain.dtype == complex and ps.delay.dtype == float
        assert np.all(np.diff(ps.delay) >= 0.0)
        assert [len(p.reflection_points) for p in ps.paths] == ps.order.tolist()

    def test_shuffled_paths_rebuild_the_traced_columns(self, box_scene):
        traced = trace_paths(box_scene, self.TX, self.RX, 2, 2.4e9)
        assert len(np.unique(traced.delay)) == len(traced)   # no ties, so the order is forced
        paths = traced.paths
        np.random.default_rng(5).shuffle(paths)
        rebuilt = PathSet(paths=paths, tx_pose=self.TX, rx_pose=self.RX, carrier_freq=2.4e9)
        for got, want in zip(columns_of(rebuilt), columns_of(traced)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        for got, want in zip(rebuilt.paths, traced.paths):
            assert np.array_equal(got.reflection_points, want.reflection_points)

    def test_paths_view_gives_back_every_field(self):
        rng = np.random.default_rng(11)
        given_paths = []
        for k in range(12):
            order = int(rng.integers(0, 4))
            given_paths.append(PropagationPath(
                gain=complex(rng.normal(), rng.normal()), delay=float(rng.uniform(1e-9, 1e-7)),
                doppler=float(rng.normal()), aoa=tuple(rng.uniform(-1.5, 1.5, 2).tolist()),
                aod=tuple(rng.uniform(-1.5, 1.5, 2).tolist()),
                reflection_points=rng.normal(size=(order, 3)), order=order))
        ps = PathSet(paths=given_paths, tx_pose=self.TX, rx_pose=self.RX, carrier_freq=2.4e9)
        back = ps.paths
        assert [p.delay for p in back] == sorted(p.delay for p in given_paths)
        for p in back:
            q = next(q for q in given_paths if q.delay == p.delay)
            assert (p.gain, p.delay, p.doppler, p.aoa, p.aod, p.order) == \
                (q.gain, q.delay, q.doppler, q.aoa, q.aod, q.order)
            assert type(p.gain) is complex and type(p.delay) is float and type(p.order) is int
            assert type(p.aoa) is tuple and type(p.aod) is tuple
            assert np.array_equal(p.reflection_points, q.reflection_points)
        assert [p.delay for p in ps] == [p.delay for p in back]

    def test_traced_paths_view_matches_columns(self, box_scene):
        ps = trace_paths(box_scene, self.TX, self.RX, 2, 2.4e9)
        back = ps.paths
        assert [p.gain for p in back] == ps.gain.tolist()
        assert [p.delay for p in back] == ps.delay.tolist()
        assert [p.doppler for p in back] == ps.doppler.tolist()
        assert [list(p.aoa) for p in back] == ps.aoa.tolist()
        assert [list(p.aod) for p in back] == ps.aod.tolist()
        assert [p.order for p in back] == ps.order.tolist()

    def test_equal_delays_keep_input_order(self):
        def mk(delay, tag):
            return PropagationPath(gain=0.1, delay=delay, doppler=tag, aoa=(0, 0), aod=(0, 0),
                                   reflection_points=np.zeros((0, 3)), order=0)
        ps = PathSet(paths=[mk(2e-9, 1.0), mk(3e-9, 2.0), mk(2e-9, 3.0), mk(1e-9, 4.0), mk(2e-9, 5.0)],
                     tx_pose=Pose.at(0, 0, 0), rx_pose=Pose.at(1, 0, 0), carrier_freq=2.4e9)
        assert ps.doppler.tolist() == [4.0, 1.0, 3.0, 5.0, 2.0]

    def test_columns_are_read_only(self, box_scene):
        # the channel layer keeps steering computed from a path set's directions
        traced = trace_paths(box_scene, self.TX, self.RX, 2, 2.4e9)
        built = PathSet(paths=traced.paths, tx_pose=self.TX, rx_pose=self.RX, carrier_freq=2.4e9)
        for ps in (traced, built):
            for column in columns_of(ps) + (ps.aoa_dir, ps.aod_dir, ps.bounces):
                with pytest.raises(ValueError):
                    column[0] = column[1]

    def test_traced_delays_are_sorted_and_groups_built_once(self, box_scene):
        # the trace sorts its paths once: delay is in order before any deferred column is read,
        # and each group is one cached tuple of arrays
        for max_order in (0, 2, 3):
            ps = trace_paths(box_scene, self.TX, self.RX, max_order, 2.4e9)
            assert "_link" not in vars(ps) and "_geometry" not in vars(ps)
            assert np.all(np.diff(ps.delay) >= 0.0)
            for names in (LINK, ("order", "bounces")):
                first = [getattr(ps, name) for name in names]
                assert all(a is b for a, b in zip(first, [getattr(ps, name) for name in names]))

    def test_empty_path_set(self):
        ps = PathSet(paths=[], tx_pose=Pose.at(0, 0, 0), rx_pose=Pose.at(1, 0, 0), carrier_freq=2.4e9)
        assert len(ps) == 0 and ps.paths == [] and list(ps) == []
        assert ps.aoa.shape == ps.aod.shape == (0, 2)
        assert ps.gain.dtype == complex

    def test_near_vertical_direction_keeps_its_angles(self):
        # z rounds to 1 here, so asin(z) would give the elevation pi / 2 and lose the
        # direction's 1.25e-8 horizontal part; atan2(z, hypot(x, y)) keeps it
        d = np.array([[0.0, 1.25e-8, 1.0]])
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        back = raytrace._unit_directions(raytrace._direction_angles(d))
        np.testing.assert_allclose(back, d, rtol=0.0, atol=1e-15)


def box_image_lengths(lx, ly, lz, t, r, max_order):
    """Independent axis-aligned mirrored-source enumeration for an empty box."""
    planes = [(0, 0.0), (0, lx), (1, 0.0), (1, ly), (2, 0.0), (2, lz)]
    lims = [lx, ly, lz]
    lengths = [float(np.linalg.norm(np.asarray(r) - np.asarray(t)))]

    def mirror(p, ax, c):
        q = np.array(p, dtype=float)
        q[ax] = 2 * c - q[ax]
        return q

    def sequences(order):
        if order == 0:
            return [()]
        shorter = sequences(order - 1)
        return [s + (p,) for s in shorter for p in planes if not s or p != s[-1]]

    for order in range(1, max_order + 1):
        for seq in sequences(order):
            if len(seq) < order:
                continue
            imgs = [np.asarray(t, dtype=float)]
            for ax, c in seq:
                imgs.append(mirror(imgs[-1], ax, c))
            pts = [np.asarray(r, dtype=float)]
            cur = pts[0]
            ok = True
            for i in range(len(seq), 0, -1):
                ax, c = seq[i - 1]
                a, b = cur, imgs[i]
                if abs(b[ax] - a[ax]) < 1e-15:
                    ok = False
                    break
                tt = (c - a[ax]) / (b[ax] - a[ax])
                if not (1e-12 < tt < 1 - 1e-12):
                    ok = False
                    break
                hit = a + tt * (b - a)
                for other in range(3):
                    if other != ax and not (-1e-9 <= hit[other] <= lims[other] + 1e-9):
                        ok = False
                        break
                if not ok:
                    break
                pts.append(hit)
                cur = hit
            if ok:
                pts.append(np.asarray(t, dtype=float))
                seg = np.diff(np.array(pts[::-1]), axis=0)
                lengths.append(float(np.linalg.norm(seg, axis=1).sum()))
    return lengths
