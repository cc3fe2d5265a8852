import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isactwin.agent import (
    Control,
    circle_waypoints,
    diff_drive_step,
    observe,
    step_state,
    waypoint_control,
)
from isactwin.localization import Mdp, add_fingerprint_noise
from isactwin.raytrace import Pose


class TestDiffDriveStep:
    def test_straight_line(self):
        p = diff_drive_step(Pose.at(0, 0, 0, yaw=0), Control(0.1, 0.0), 1.0)
        assert np.allclose(p.position, [0.1, 0, 0], atol=1e-15)
        assert p.yaw == 0.0

    def test_pivot_in_place(self):
        p = diff_drive_step(Pose.at(2, 3, 0, yaw=0), Control(0.0, math.pi / 2), 1.0)
        assert np.allclose(p.position, [2, 3, 0], atol=1e-15)
        assert p.yaw == pytest.approx(math.pi / 2, rel=1e-12)

    def test_half_circle(self):
        # v=1, omega=1 for pi seconds: radius-1 arc ending at (0, 2), heading pi
        p = diff_drive_step(Pose.at(0, 0, 0, yaw=0), Control(1.0, 1.0), math.pi)
        assert np.allclose(p.position, [0, 2, 0], atol=1e-12)
        assert p.yaw == pytest.approx(math.pi, abs=1e-12)

    def test_arc_converges_to_straight_line(self):
        a = diff_drive_step(Pose.at(0, 0, 0, yaw=0.3), Control(0.5, 0.0), 0.1)
        b = diff_drive_step(Pose.at(0, 0, 0, yaw=0.3), Control(0.5, 1e-12), 0.1)
        assert np.linalg.norm(a.position - b.position) < 1e-9

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ValueError, match="dt"):
            diff_drive_step(Pose.at(0, 0, 0), Control(0.1, 0.0), 0.0)

    @given(yaw=st.floats(-10, 10), v=st.floats(-0.5, 0.5), om=st.floats(-3, 3),
           dt=st.floats(0.01, 2.0))
    @settings(max_examples=80, deadline=None)
    def test_heading_always_wrapped(self, yaw, v, om, dt):
        p = diff_drive_step(Pose.at(0, 0, 0, yaw=yaw), Control(v, om), dt)
        assert -math.pi < p.yaw <= math.pi


class TestStepState:
    def test_zero_noise_equals_kinematics(self):
        p0 = Pose.at(1, 1, 0.1, yaw=0.4)
        u = Control(0.2, 0.3)
        p1 = step_state(p0, u, 0.0, np.random.default_rng(0), 0.1)
        ref = diff_drive_step(p0, u, 0.1)
        assert np.array_equal(p1.position, ref.position)
        assert p1.yaw == ref.yaw

    def test_seeded_runs_identical(self):
        def run(seed):
            pose = Pose.at(0, 0, 0)
            rng = np.random.default_rng(seed)
            out = []
            for _ in range(20):
                pose = step_state(pose, Control(0.1, 0.2), 1e-4, rng, 0.1)
                out.append(pose.position.copy())
            return np.array(out)

        assert np.array_equal(run(7), run(7))
        assert not np.array_equal(run(7), run(8))

    def test_one_step_variance_matches_configured(self):
        var = 0.01
        rng = np.random.default_rng(123)
        p0 = Pose.at(0, 0, 0)
        xs = np.array([
            step_state(p0, Control(0.0, 0.0), var, rng, 1.0).position[0]
            for _ in range(100_000)
        ])
        assert np.var(xs) == pytest.approx(var, rel=0.05)

    def test_draws_three_normals_per_step(self):
        # x, y and yaw noise: the agent generator moves by exactly one size-3 draw, variance 0 included
        for var in (0.0, 1e-6):
            p0, u = Pose.at(0.5, 0.5, 0.0), Control(0.1, 0.0)
            rng = np.random.default_rng(4)
            p1 = step_state(p0, u, var, rng, 0.1)
            ref = np.random.default_rng(4)
            eps = ref.normal(0.0, math.sqrt(var), size=3)
            assert rng.bit_generator.state == ref.bit_generator.state
            assert np.array_equal(p1.position, diff_drive_step(p0, u, 0.1).position + [eps[0], eps[1], 0.0])

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            step_state(Pose.at(0, 0, 0), Control(0.0, 0.0), -1.0, np.random.default_rng(0), 1.0)


def _mdps():
    return {"ap_a": Mdp(bins=np.array([0.0, 2.0, 0.5, 0.0]), bin_width=1e-9),
            "ap_b": Mdp(bins=np.array([1.0, 0.0, 0.0, 3.0]), bin_width=1e-9)}


class TestObserve:
    def test_unset_snr_returns_the_profiles(self):
        mdps = _mdps()
        rng = np.random.default_rng(0)
        assert observe(mdps, None, rng) is mdps
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    def test_fingerprint_noise_in_ap_order(self):
        # the world's fingerprint generator is drawn AP by AP, as add_fingerprint_noise draws it
        mdps = _mdps()
        rng = np.random.default_rng(21)
        obs = observe(mdps, 20.0, rng)
        ref = np.random.default_rng(21)
        expected = {ap_id: add_fingerprint_noise(mdp, 20.0, ref) for ap_id, mdp in mdps.items()}
        assert list(obs) == list(expected)
        for ap_id in expected:
            assert np.array_equal(obs[ap_id].bins, expected[ap_id].bins)
            assert obs[ap_id].bin_width == expected[ap_id].bin_width
            assert obs[ap_id].overflow == expected[ap_id].overflow
        assert rng.bit_generator.state == ref.bit_generator.state
        assert not np.array_equal(obs["ap_a"].bins, mdps["ap_a"].bins)


class TestWaypointControl:
    def test_at_goal_zero_control(self):
        ctrl, prog = waypoint_control([1.0, 1.0], 0.0, [[1.0, 1.02]], tol=0.05)
        assert (ctrl.v, ctrl.omega) == (0.0, 0.0)
        assert prog.done

    def test_goal_straight_ahead(self):
        ctrl, prog = waypoint_control([0.0, 0.0], 0.0, [[1.0, 0.0]], v_max=0.2)
        assert ctrl.omega == pytest.approx(0.0, abs=1e-12)
        assert ctrl.v == 0.2
        assert not prog.done

    def test_goal_directly_behind(self):
        ctrl, _ = waypoint_control([0.0, 0.0], 0.0, [[-1.0, 0.0]], k_ang=2.0, v_max=0.2, w_max=1.5)
        # heading error pi: K_ang * pi = 6.28 clamps to w_max; v collapses
        assert abs(ctrl.omega) == pytest.approx(1.5, rel=1e-12)
        assert ctrl.v < 0.2
        assert ctrl.v == pytest.approx(0.0, abs=1e-12)

    def test_reached_waypoints_are_skipped(self):
        wps = [[0.0, 0.01], [0.5, 0.0], [1.0, 0.0]]
        ctrl, prog = waypoint_control([0.0, 0.0], 0.0, wps, index=0, tol=0.05)
        assert prog.index == 1
        assert not prog.done

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            waypoint_control([0, 0], 0.0, np.zeros((0, 2)))

    @given(px=st.floats(-2, 2), py=st.floats(-2, 2), heading=st.floats(-3.1, 3.1),
           wx=st.floats(-2, 2), wy=st.floats(-2, 2))
    @settings(max_examples=100, deadline=None)
    def test_limits_never_exceeded(self, px, py, heading, wx, wy):
        ctrl, _ = waypoint_control([px, py], heading, [[wx, wy]],
                                   k_ang=2.0, v_max=0.2, w_max=1.5, tol=0.05)
        assert abs(ctrl.v) <= 0.2 + 1e-15
        assert abs(ctrl.omega) <= 1.5 + 1e-15


class TestOdometryTrack:
    """Noiseless integration of a command history, the loop's odometry."""

    @staticmethod
    def track_xy(pose, controls, dt):
        xy = [pose.position[:2]]
        for u in controls:
            pose = diff_drive_step(pose, u, dt)
            xy.append(pose.position[:2])
        return np.array(xy)

    def test_zero_controls_constant(self):
        xy = self.track_xy(Pose.at(1, 2, 0, yaw=0.5), [Control(0, 0)] * 5, 0.1)
        assert np.allclose(xy, xy[0], atol=1e-15)

    def test_straight_history_collinear(self):
        xy = self.track_xy(Pose.at(0, 0, 0, yaw=0.7), [Control(0.1, 0)] * 10, 0.5)
        d = xy[1:] - xy[:-1]
        cross = d[:-1, 0] * d[1:, 1] - d[:-1, 1] * d[1:, 0]
        assert np.max(np.abs(cross)) < 1e-12

    def test_circle_radius(self):
        v, om = 0.2, 0.4
        xy = self.track_xy(Pose.at(0, 0, 0, yaw=0), [Control(v, om)] * 100, 0.1)
        center = np.array([0.0, v / om])  # start at origin heading +x
        radii = np.linalg.norm(xy - center, axis=1)
        assert np.max(np.abs(radii - v / om)) < 1e-9


class TestCircleWaypoints:
    def test_count_and_closure(self):
        wps = circle_waypoints([1.0, 2.0], 0.5, 8, start_angle=0.3)
        assert wps.shape == (8, 2)
        assert np.allclose(wps[-1], [1.0 + 0.5 * math.cos(0.3), 2.0 + 0.5 * math.sin(0.3)])
        radii = np.linalg.norm(wps - np.array([1.0, 2.0]), axis=1)
        assert np.allclose(radii, 0.5, rtol=1e-12)
