import math
from dataclasses import replace

import numpy as np
import pytest

from swarmfab.robot import (
    RobotParams,
    RobotState,
    goto_controller,
    rotate_controller,
    step_dynamics,
    wrap_angle,
)


def make_state(pose=(0.0, 0.0, 0.0), wheels=(0.0, 0.0), role="idle", **kw):
    return RobotState(id="r1", pose=pose, wheel_speeds=wheels, role=role,
                      params=RobotParams(**kw))


def test_wrap_angle_maps_minus_pi_to_pi():
    # the range is (-pi, pi]: -pi itself is the same angle as pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(math.pi) == math.pi


class TestStepDynamics:
    def test_straight_line(self):
        state = make_state(wheels=(50.0, 50.0))
        out = step_dynamics(state, 1.0)
        assert out.pose[0] == pytest.approx(50.0)
        assert out.pose[1] == pytest.approx(0.0)
        assert out.pose[2] == 0.0

    def test_pure_rotation(self):
        state = make_state(wheels=(-10.0, 10.0), wheel_track=20.0)
        out = step_dynamics(state, 0.5)
        assert out.pose[0] == pytest.approx(0.0, abs=1e-12)
        assert out.pose[1] == pytest.approx(0.0, abs=1e-12)
        assert out.pose[2] == pytest.approx(20.0 / 20.0 * 0.5)

    def test_half_circle_arc(self):
        # v=10, omega=1 -> radius 10; after dt=pi the robot is at (0, 20)
        state = make_state(wheels=(0.0, 20.0), wheel_track=20.0)
        out = step_dynamics(state, math.pi)
        assert out.pose[0] == pytest.approx(0.0, abs=1e-9)
        assert out.pose[1] == pytest.approx(20.0, abs=1e-9)
        assert abs(wrap_angle(out.pose[2] - math.pi)) < 1e-9

    def test_full_circle_no_drift(self):
        # constant wheel speeds stepped many times return exactly to start
        state = make_state(wheels=(10.0, 20.0), wheel_track=20.0)
        omega = (20.0 - 10.0) / 20.0
        period = 2 * math.pi / omega
        n = 1000
        for _ in range(n):
            state = step_dynamics(state, period / n)
        assert math.hypot(state.pose[0], state.pose[1]) < 1e-6

    def test_straight_equals_euler(self):
        state = make_state(pose=(1.0, 2.0, 0.7), wheels=(30.0, 30.0))
        out = step_dynamics(state, 0.1)
        assert out.pose[0] == 1.0 + 30.0 * math.cos(0.7) * 0.1
        assert out.pose[1] == 2.0 + 30.0 * math.sin(0.7) * 0.1

    def test_actuator_accumulates_rotation(self):
        state = make_state(wheels=(-10.0, 10.0), wheel_track=20.0,
                           role="extruder_spool_1")
        out = step_dynamics(state, 2.0)
        assert out.accumulated_rotation == pytest.approx(2.0)
        passive = step_dynamics(make_state(wheels=(-10.0, 10.0),
                                           wheel_track=20.0), 2.0)
        assert passive.accumulated_rotation == 0.0

    def test_heading_normalized(self):
        state = make_state(pose=(0.0, 0.0, 3.0), wheels=(-50.0, 50.0))
        out = step_dynamics(state, 1.0)
        assert -math.pi < out.pose[2] <= math.pi

    def test_determinism(self):
        a = make_state(wheels=(17.0, 23.0))
        b = make_state(wheels=(17.0, 23.0))
        for _ in range(100):
            a = step_dynamics(a, 0.01)
            b = step_dynamics(b, 0.01)
        assert a.pose == b.pose


class TestGotoController:
    def test_dead_ahead_full_speed(self):
        state = make_state()
        vl, vr = goto_controller(state, (100.0, 0.0))
        assert vl == vr == state.params.max_wheel_speed

    def test_target_behind_pure_rotation(self):
        state = make_state()
        vl, vr = goto_controller(state, (-100.0, 1e-9))
        assert vl == pytest.approx(-vr)
        assert abs(vr) > 0

    def test_inside_arrival_tolerance(self):
        state = make_state(pose=(10.0, 10.0, 0.0))
        assert goto_controller(state, (10.1, 10.1)) == (0.0, 0.0)

    def test_speed_cap(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            state = make_state(pose=(rng.uniform(-50, 50),
                                     rng.uniform(-50, 50),
                                     rng.uniform(-math.pi, math.pi)))
            vl, vr = goto_controller(state, (rng.uniform(-500, 500),
                                             rng.uniform(-500, 500)))
            cap = state.params.max_wheel_speed
            assert abs(vl) <= cap + 1e-12
            assert abs(vr) <= cap + 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_closed_loop_convergence(self, seed):
        rng = np.random.default_rng(seed)
        start = (rng.uniform(-300, 300), rng.uniform(-300, 300),
                 rng.uniform(-math.pi, math.pi))
        target = (rng.uniform(-300, 300), rng.uniform(-300, 300))
        state = make_state(pose=start)
        p = state.params
        d0 = math.dist(start[:2], target)
        budget = 5.0 * max(d0, 1.0) / p.max_wheel_speed
        dt = 0.01
        t = 0.0
        while t < budget:
            wheels = goto_controller(state, target)
            state = step_dynamics(replace(state, wheel_speeds=wheels), dt)
            t += dt
            if math.dist(state.pose[:2], target) < p.arrival_tol:
                break
        assert math.dist(state.pose[:2], target) < p.arrival_tol
        # stays put afterwards: no limit cycling
        for _ in range(200):
            wheels = goto_controller(state, target)
            state = step_dynamics(replace(state, wheel_speeds=wheels), dt)
        assert math.dist(state.pose[:2], target) < p.arrival_tol


class TestRotateController:
    def test_zero_remaining(self):
        state = make_state(role="extruder_spool_1")
        assert rotate_controller(state, 0.0) == (0.0, 0.0)

    def test_sign_convention(self):
        state = make_state(role="extruder_spool_1")
        vl, vr = rotate_controller(state, 1.0)
        assert vl < 0 < vr

    def test_closed_loop_accuracy(self):
        state = make_state(role="extruder_spool_1")
        target = 7.3
        dt = 0.01
        for _ in range(5000):
            wheels = rotate_controller(state, target - state.accumulated_rotation)
            if wheels == (0.0, 0.0):
                break
            state = step_dynamics(replace(state, wheel_speeds=wheels), dt)
        assert abs(target - state.accumulated_rotation) < 0.002
