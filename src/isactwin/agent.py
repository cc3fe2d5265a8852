"""Differential-drive agent dynamics, observation model, and waypoint control.

State evolution is the unicycle model with exact arc integration (no Euler
drift), plus optional additive Gaussian noise on the planar pose. Integrating
the same commands without noise gives the odometry heading that the waypoint
controller steers with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .raytrace import Pose, wrap_angle


@dataclass(eq=False)
class AgentState:
    pose: Pose
    t: int = 0


@dataclass(frozen=True)
class Control:
    """Unicycle command: linear and angular velocity."""

    v: float = 0.0
    omega: float = 0.0


@dataclass(eq=False)
class Observation:
    o: np.ndarray
    m: np.ndarray

    def __post_init__(self):
        self.o = np.atleast_1d(np.asarray(self.o, dtype=float))
        self.m = np.atleast_1d(np.asarray(self.m))


@dataclass(eq=False)
class ProcessNoise:
    """Zero-mean Gaussian state/observation noise with a seeded generator.

    state_var holds per-component variances for (x, y, yaw); obs_var is a
    scalar variance applied per observation component.
    """

    state_var: np.ndarray
    obs_var: float
    rng: np.random.Generator

    def __post_init__(self):
        self.state_var = np.broadcast_to(np.asarray(self.state_var, dtype=float), (3,)).copy()
        if np.any(self.state_var < 0.0) or self.obs_var < 0.0:
            raise ValueError("noise variances must be nonnegative")

    @classmethod
    def seeded(cls, seed, state_var=0.0, obs_var=0.0) -> "ProcessNoise":
        return cls(state_var=state_var, obs_var=obs_var, rng=np.random.default_rng(seed))


def diff_drive_step(pose: Pose, u: Control, dt: float) -> Pose:
    """Advance a planar pose one step under (v, omega) with exact arc geometry."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    x, y, z = pose.position
    yaw = pose.yaw
    v, om = u.v, u.omega
    if abs(om) < 1e-9:
        x += v * dt * math.cos(yaw)
        y += v * dt * math.sin(yaw)
    else:
        x += (v / om) * (math.sin(yaw + om * dt) - math.sin(yaw))
        y -= (v / om) * (math.cos(yaw + om * dt) - math.cos(yaw))
    new_yaw = wrap_angle(yaw + om * dt)
    return Pose(
        position=(x, y, z),
        orientation=(new_yaw, pose.orientation[1], pose.orientation[2]),
        velocity=(v * math.cos(new_yaw), v * math.sin(new_yaw), 0.0),
    )


def step_state(s_prev: AgentState, u_prev: Control, noise: ProcessNoise, dt: float) -> AgentState:
    """One state-transition step: exact kinematics plus additive pose noise."""
    pose = diff_drive_step(s_prev.pose, u_prev, dt)
    eps = noise.rng.normal(0.0, np.sqrt(noise.state_var))
    x, y, z = pose.position
    noisy = Pose(
        position=(x + eps[0], y + eps[1], z),
        orientation=(wrap_angle(pose.yaw + eps[2]), pose.orientation[1], pose.orientation[2]),
        velocity=pose.velocity,
    )
    return AgentState(pose=noisy, t=s_prev.t + 1)


def observe(s: AgentState, m, noise: ProcessNoise, g=None, expected_len=None) -> Observation:
    """o = g(s, m) + eps. The default g passes the measurement through as reals."""
    m = np.atleast_1d(np.asarray(m))
    if expected_len is not None and len(m) != expected_len:
        raise ValueError(f"measurement length {len(m)} != declared {expected_len}")
    if g is None:
        raw = np.real(m).astype(float)
    else:
        raw = np.atleast_1d(np.asarray(g(s, m), dtype=float))
    eps = noise.rng.normal(0.0, math.sqrt(noise.obs_var), size=raw.shape)
    return Observation(o=raw + eps, m=m)


@dataclass(frozen=True)
class PathProgress:
    index: int
    done: bool


def waypoint_control(
    position,
    heading: float,
    waypoints,
    index: int = 0,
    k_ang: float = 2.0,
    v_max: float = 0.2,
    w_max: float = 1.5,
    tol: float = 0.05,
) -> tuple:
    """Proportional steering toward the active waypoint.

    Waypoints within the tolerance radius are marked reached and skipped;
    past the terminal waypoint the command is zero. Linear speed is cut back
    when the heading error exceeds pi/4 (scaled by cos of the error, floored
    at zero) so the robot pivots before driving.
    """
    wp = np.asarray(waypoints, dtype=float).reshape(-1, 2)
    if len(wp) == 0:
        raise ValueError("empty waypoint path")
    pos = np.asarray(position, dtype=float)[:2]
    i = int(index)
    while i < len(wp) and float(np.hypot(*(wp[i] - pos))) <= tol:
        i += 1
    if i >= len(wp):
        return Control(0.0, 0.0), PathProgress(index=len(wp), done=True)
    target = wp[i]
    err = wrap_angle(math.atan2(target[1] - pos[1], target[0] - pos[0]) - heading)
    omega = min(w_max, max(-w_max, k_ang * err))
    if abs(err) <= math.pi / 4.0:
        v = v_max
    else:
        v = v_max * max(0.0, math.cos(err))
    return Control(v, omega), PathProgress(index=i, done=False)


def circle_waypoints(center, radius: float, count: int, start_angle: float = 0.0) -> np.ndarray:
    """Closed circular path: `count` waypoints ending back at the start angle."""
    if count < 1:
        raise ValueError("count must be >= 1")
    cx, cy = float(center[0]), float(center[1])
    angles = start_angle + 2.0 * math.pi * np.arange(1, count + 1) / count
    return np.column_stack([cx + radius * np.cos(angles), cy + radius * np.sin(angles)])
