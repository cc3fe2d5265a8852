import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isactwin.agent import (
    AgentState,
    Control,
    ProcessNoise,
    circle_waypoints,
    diff_drive_step,
    observe,
    step_state,
    waypoint_control,
)
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
        s0 = AgentState(pose=Pose.at(1, 1, 0.1, yaw=0.4))
        u = Control(0.2, 0.3)
        s1 = step_state(s0, u, ProcessNoise.seeded(0), 0.1)
        ref = diff_drive_step(s0.pose, u, 0.1)
        assert np.array_equal(s1.pose.position, ref.position)
        assert s1.pose.yaw == ref.yaw
        assert s1.t == 1

    def test_seeded_runs_identical(self):
        def run(seed):
            s = AgentState(pose=Pose.at(0, 0, 0))
            noise = ProcessNoise.seeded(seed, state_var=1e-4)
            out = []
            for _ in range(20):
                s = step_state(s, Control(0.1, 0.2), noise, 0.1)
                out.append(s.pose.position.copy())
            return np.array(out)

        assert np.array_equal(run(7), run(7))
        assert not np.array_equal(run(7), run(8))

    def test_one_step_variance_matches_configured(self):
        var = 0.01
        noise = ProcessNoise.seeded(123, state_var=[var, 0.0, 0.0])
        s0 = AgentState(pose=Pose.at(0, 0, 0))
        xs = np.array([
            step_state(s0, Control(0.0, 0.0), noise, 1.0).pose.position[0]
            for _ in range(100_000)
        ])
        assert np.var(xs) == pytest.approx(var, rel=0.05)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            ProcessNoise.seeded(0, state_var=-1.0)


class TestObserve:
    def test_identity_passthrough(self):
        s = AgentState(pose=Pose.at(0, 0, 0))
        m = np.array([1.0, 2.0, 3.0])
        obs = observe(s, m, ProcessNoise.seeded(0))
        assert np.array_equal(obs.o, m)

    def test_seeded_reproducibility(self):
        s = AgentState(pose=Pose.at(0, 0, 0))
        m = np.arange(4.0)
        a = observe(s, m, ProcessNoise.seeded(5, obs_var=0.1))
        b = observe(s, m, ProcessNoise.seeded(5, obs_var=0.1))
        assert np.array_equal(a.o, b.o)

    def test_length_mismatch_rejected(self):
        s = AgentState(pose=Pose.at(0, 0, 0))
        with pytest.raises(ValueError, match="length"):
            observe(s, np.ones(3), ProcessNoise.seeded(0), expected_len=5)

    def test_custom_g_consistent_with_mdp_binning(self):
        # g reproducing the delay-power binning must agree with compute_mdp
        from isactwin.localization import compute_mdp
        from isactwin.raytrace import trace_paths
        from isactwin.scene import Scene as SceneT

        scene = SceneT(surfaces=[], materials={}, bounds_min=np.full(3, -10.0),
                       bounds_max=np.full(3, 10.0))
        ps = trace_paths(scene, Pose.at(0, 0, 1), Pose.at(3, 1, 1), 0, 2.4e9)
        bw, nb = 1e-9, 32
        ref = compute_mdp(ps, bw, nb).bins

        def g(state, m):
            gains, delays = m[: len(m) // 2], np.real(m[len(m) // 2:])
            bins = np.zeros(nb)
            for gg, d in zip(gains, delays):
                i = int(np.floor(d / bw))
                if i < nb:
                    bins[i] += abs(gg) ** 2
            return bins

        m = np.concatenate([[p.gain for p in ps], [p.delay for p in ps]])
        obs = observe(AgentState(pose=Pose.at(0, 0, 1)), m, ProcessNoise.seeded(0), g=g)
        assert np.allclose(obs.o, ref, rtol=1e-12)


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
