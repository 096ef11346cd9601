"""Virtual differential-drive swarm robot: dynamics and low-level controllers.

The same robot model serves every role: position-controlled robots pursue
(x, y) setpoints with a proportional go-to-point controller, actuator
robots (spools, lead screw) spin in place with a rotation controller and
track accumulated rotation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

ACTUATOR_ROLES = frozenset({
    "extruder_spool_1", "extruder_spool_2", "extruder_spool_3", "leadscrew",
})


@dataclass(frozen=True)
class RobotParams:
    wheel_track: float = 26.0  # mm, toio-class default
    max_wheel_speed: float = 115.0  # mm/s
    body_radius: float = 16.0  # mm

    # controller gains, tuned for overdamped convergence at the speed cap
    # and low corner swing-out while the heading realigns
    k_heading: float = 8.0  # 1/s
    k_distance: float = 2.0  # 1/s
    arrival_tol: float = 0.5  # mm
    angular_tol: float = 0.002  # rad

    def __post_init__(self):
        if self.wheel_track <= 0 or self.max_wheel_speed <= 0 or self.body_radius <= 0:
            raise ValueError("wheel_track, max_wheel_speed, body_radius must be positive")


@dataclass(frozen=True)
class RobotState:
    id: str
    pose: tuple[float, float, float] = (0.0, 0.0, 0.0)  # x mm, y mm, heading rad
    wheel_speeds: tuple[float, float] = (0.0, 0.0)  # left, right mm/s
    accumulated_rotation: float = 0.0  # rad, actuator roles only
    role: str = "idle"
    params: RobotParams = field(default_factory=RobotParams)


def wrap_angle(theta: float) -> float:
    """Normalize to (-pi, pi]."""
    wrapped = math.atan2(math.sin(theta), math.cos(theta))
    if wrapped == -math.pi:
        wrapped = math.pi
    return wrapped


def step_dynamics(state: RobotState, dt: float) -> RobotState:
    """Advance the pose by dt using exact constant-twist arc integration.

    The model is deterministic; the simulator adds the position noise.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    vl, vr = state.wheel_speeds
    v = 0.5 * (vl + vr)
    omega = (vr - vl) / state.params.wheel_track
    x, y, theta = state.pose
    if abs(omega) < 1e-9:
        x += v * math.cos(theta) * dt
        y += v * math.sin(theta) * dt
        new_theta = theta
    else:
        x += (v / omega) * (math.sin(theta + omega * dt) - math.sin(theta))
        y -= (v / omega) * (math.cos(theta + omega * dt) - math.cos(theta))
        new_theta = wrap_angle(theta + omega * dt)
    rotation = state.accumulated_rotation
    if state.role in ACTUATOR_ROLES:
        rotation += omega * dt
    return replace(state, pose=(x, y, new_theta), accumulated_rotation=rotation)


def _clamp_wheels(vl: float, vr: float, cap: float) -> tuple[float, float]:
    peak = max(abs(vl), abs(vr))
    if peak > cap:
        scale = cap / peak  # uniform scaling preserves curvature
        vl *= scale
        vr *= scale
    return (vl, vr)


def goto_controller(state: RobotState, target: tuple[float, float]) -> tuple[float, float]:
    """Proportional go-to-point controller; (0, 0) inside arrival tolerance."""
    p = state.params
    x, y, theta = state.pose
    dx, dy = target[0] - x, target[1] - y
    distance = math.hypot(dx, dy)
    if distance < p.arrival_tol:
        return (0.0, 0.0)
    bearing = math.atan2(dy, dx)
    err = wrap_angle(bearing - theta)
    omega = p.k_heading * err
    v = min(p.k_distance * distance, p.max_wheel_speed) * max(0.0, math.cos(err))
    half = 0.5 * p.wheel_track
    return _clamp_wheels(v - omega * half, v + omega * half, p.max_wheel_speed)


def rotate_controller(state: RobotState, remaining: float) -> tuple[float, float]:
    """Spin-in-place controller toward a remaining rotation angle."""
    p = state.params
    if abs(remaining) < p.angular_tol:
        return (0.0, 0.0)
    omega = p.k_heading * remaining
    s = omega * 0.5 * p.wheel_track
    s = max(-p.max_wheel_speed, min(p.max_wheel_speed, s))
    return (-s, s)
