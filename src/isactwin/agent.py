"""Differential-drive agent dynamics, measurement model, and waypoint control.

State evolution is the unicycle model with exact arc integration (no Euler
drift), plus optional additive Gaussian noise on the planar pose. Integrating
the same commands without noise gives the odometry heading that the waypoint
controller steers with. The agent measures each AP's multipath delay profile
(MDP) with fingerprint noise; localization matches that measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .localization import add_fingerprint_noise
from .raytrace import Pose, wrap_angle


@dataclass(frozen=True)
class Control:
    """Unicycle command: linear and angular velocity."""

    v: float = 0.0
    omega: float = 0.0


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
    return Pose(position=(x, y, z), yaw=new_yaw, velocity=(v * math.cos(new_yaw), v * math.sin(new_yaw), 0.0))


def step_state(pose: Pose, u: Control, state_var: float, rng: np.random.Generator, dt: float) -> Pose:
    """One state step: exact kinematics plus N(0, state_var) noise on x, y and yaw, three normals."""
    if state_var < 0.0:
        raise ValueError("state variance must be nonnegative")
    pose = diff_drive_step(pose, u, dt)
    eps = rng.normal(0.0, math.sqrt(state_var), size=3)
    x, y, z = pose.position
    return Pose(position=(x + eps[0], y + eps[1], z), yaw=wrap_angle(pose.yaw + eps[2]), velocity=pose.velocity)


def observe(mdps: dict, snr_db: float | None, rng: np.random.Generator) -> dict:
    """The measured MDPs: each AP's profile with fingerprint noise at snr_db, drawn from rng in
    the dict's order; the profiles unchanged when snr_db is None."""
    if snr_db is None:
        return mdps
    return {ap_id: add_fingerprint_noise(mdp, snr_db, rng) for ap_id, mdp in mdps.items()}


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
    """(Control, index): proportional steering toward the active waypoint, and its index.

    Waypoints within the tolerance radius are reached and skipped; past the
    terminal waypoint the index is len(waypoints) and the command is zero.
    Linear speed is cut back when the heading error exceeds pi/4 (scaled by
    cos of the error, floored at zero) so the robot pivots before driving.
    """
    wp = np.asarray(waypoints, dtype=float).reshape(-1, 2)
    if len(wp) == 0:
        raise ValueError("empty waypoint path")
    pos = np.asarray(position, dtype=float)[:2]
    i = int(index)
    while i < len(wp) and float(np.hypot(*(wp[i] - pos))) <= tol:
        i += 1
    if i >= len(wp):
        return Control(0.0, 0.0), len(wp)
    target = wp[i]
    err = wrap_angle(math.atan2(target[1] - pos[1], target[0] - pos[0]) - heading)
    omega = min(w_max, max(-w_max, k_ang * err))
    if abs(err) <= math.pi / 4.0:
        v = v_max
    else:
        v = v_max * max(0.0, math.cos(err))
    return Control(v, omega), i


def circle_waypoints(center, radius: float, count: int, start_angle: float = 0.0) -> np.ndarray:
    """Closed circular path: `count` waypoints ending back at the start angle."""
    if count < 1:
        raise ValueError("count must be >= 1")
    cx, cy = float(center[0]), float(center[1])
    angles = start_angle + 2.0 * math.pi * np.arange(1, count + 1) / count
    return np.column_stack([cx + radius * np.cos(angles), cy + radius * np.sin(angles)])
