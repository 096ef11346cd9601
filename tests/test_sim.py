import dataclasses
import math
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest

from swarmfab import config, coordinator, gcode, machines, sim
from swarmfab import kinematics as kin
from swarmfab.coordinator import Plan, PlanTick, Setpoint
from swarmfab.errors import (
    KinematicsError,
    KinematicsFault,
    NoIntersection,
    SimError,
    StallTimeout,
    SwarmFabError,
)
from swarmfab.gcode import MotionSegment
from swarmfab.robot import (
    ACTUATOR_ROLES,
    RobotState,
    goto_controller,
    rotate_controller,
    step_dynamics,
    wrap_angle,
)

from test_acceptance import CORPUS, HOME, three_layer_program
from test_kinematics import wire2d_fk_oracle, wire3d_fk_oracle


def seg(start, end, feed=30.0, e=0.0, line=1):
    kind = "print" if e > 0 else "travel"
    return MotionSegment(start=tuple(map(float, start)),
                         end=tuple(map(float, end)),
                         feed=feed, extrusion_delta=e, kind=kind,
                         source_line=line)


# --- oracle: the simulator loop before the columnar trace.  It steps frozen
# RobotStates through swarmfab.robot's controllers and dynamics, adds the
# position noise of each step after the robot's dynamics, and runs
# the FK of every sample inside the loop, through the array FK oracles of
# test_kinematics.  sim.run must give the same columns bit for bit, or
# raise the same error. ---

class OracleRun(NamedTuple):
    samples: list
    barrier_wait_total: float
    extruded_length: float


def tool_tip_oracle(cfg, states, ids, zero):
    """The machine's FK of one sample, as the per-sample scalar code."""
    if cfg.morphology in ("bridge_xy", "printer_bridge"):
        geom, screw = cfg.bridge_geometry, cfg.lead_screw
        b1, b2 = states[ids[0]].pose, states[ids[1]].pose
        skew = abs(b1[1] - b2[1])
        if skew > cfg.sync_tol:
            raise kin.BridgeSkewed(f"bridge skew {skew:.4f} mm exceeds "
                                   f"{cfg.sync_tol} mm")
        x = b1[0] + (states[ids[2]].pose[0] - geom.rail1_x)
        y = 0.5 * (b1[1] + b2[1])
        if cfg.morphology == "bridge_xy":
            return (x, y, geom.bridge_height)
        theta = states[ids[3]].accumulated_rotation
        return (x, y, zero + screw.direction * theta * screw.pitch
                / (2 * math.pi))
    planar = cfg.morphology == "wire2d_wall"
    geom = cfg.wire2d_geometry if planar else cfg.wire3d_geometry
    lengths = [length0 + geom.spool_radius * states[rid].accumulated_rotation
               for rid, length0 in zip(ids, zero)]
    if planar:
        return (*wire2d_fk_oracle(*lengths, geom), 0.0)
    return wire3d_fk_oracle(*lengths, geom)


def run_oracle(plan, cfg, dt_sim=None, seed=0):
    if dt_sim is None:
        dt_sim = cfg.dt_sim
    if dt_sim > cfg.dt_plan:
        raise ValueError("dt_sim must not exceed dt_plan")
    if not dt_sim > 0:
        raise ValueError("dt must be positive")
    ticks = plan.ticks
    roles = coordinator.assign_roles(cfg)
    params = {entry.id: entry.params for entry in cfg.roster}
    states = {}
    if ticks:
        # only a rotate robot keeps its actuator role, and so accumulates
        # its rotation in step_dynamics: a transition plan moves robots
        # whose role in cfg is a spool's, and they wind nothing
        for rid, sp in ticks[0].setpoints.items():
            role = roles[rid] if sp.kind == "rotate" else "idle"
            states[rid] = RobotState(id=rid, pose=(sp.x, sp.y, 0.0),
                                     role=role, params=params[rid])
    ids = coordinator.active_robots(cfg)
    rng = np.random.default_rng(seed) if cfg.noise_std > 0 else None
    samples = []
    wait = extruded = 0.0
    if not ticks:
        return OracleRun(samples, wait, extruded)
    sigma = cfg.noise_std * math.sqrt(dt_sim)
    zero = cfg.machine.zero(ticks[0].tool_target)
    order = sorted(states)
    barriers = set(plan.barriers)

    def record(t, tick, extrusion_total):
        try:
            tool = tool_tip_oracle(cfg, states, ids, zero)
        except KinematicsError as exc:
            exc.line_no = tick.source_line
            if isinstance(exc, kin.BridgeSkewed):
                raise KinematicsFault(str(exc), line_no=exc.line_no) from exc
            raise
        samples.append(sim.TraceSample(
            t=round(t, 9),
            poses={rid: states[rid].pose for rid in order},
            rotations={rid: states[rid].accumulated_rotation for rid in order},
            tool_tip=tool, tool_target=tick.tool_target,
            extruding=tick.extruding, extrusion_total=extrusion_total))

    def error(state, sp):
        if sp.kind == "rotate":
            return abs(sp.theta - state.accumulated_rotation)
        return math.hypot(sp.x - state.pose[0], sp.y - state.pose[1])

    def arrived(state, sp):
        tol = (state.params.angular_tol if sp.kind == "rotate"
               else state.params.arrival_tol)
        return error(state, sp) < tol

    t = 0.0
    extrusion_prev = ticks[0].extrusion_total
    record(t, ticks[0], extrusion_prev)
    tick_idx = 0
    tick_entry_time = 0.0
    last_best = None
    stall_clock = 0.0
    aim = {}  # each move robot's last heading error
    while tick_idx < len(ticks):
        tick = ticks[tick_idx]
        is_barrier = tick_idx in barriers
        turning = False
        for rid in order:
            sp = tick.setpoints.get(rid)
            if sp is None:
                continue
            st = states[rid]
            if sp.kind == "rotate":
                wheels = rotate_controller(
                    st, sp.theta - st.accumulated_rotation)
            else:
                x, y, heading = st.pose
                if math.hypot(sp.x - x, sp.y - y) >= st.params.arrival_tol:
                    turn = abs(wrap_angle(math.atan2(sp.y - y, sp.x - x)
                                          - heading))
                    if turn < aim.get(rid, math.inf) - sim.PROGRESS_EPS:
                        turning = True
                    aim[rid] = turn
                wheels = goto_controller(st, (sp.x, sp.y))
            st = step_dynamics(dataclasses.replace(st, wheel_speeds=wheels),
                               dt_sim)
            if rng is not None:
                x, y, heading = st.pose
                x += rng.normal(0.0, sigma)
                y += rng.normal(0.0, sigma)
                st = dataclasses.replace(st, pose=(x, y, heading))
            states[rid] = st
        t += dt_sim
        record(t, tick, extrusion_prev)

        all_arrived = all(arrived(states[rid], sp)
                          for rid, sp in tick.setpoints.items()
                          if rid in states)
        best = sum(error(states[rid], sp)
                   for rid, sp in tick.setpoints.items() if rid in states)
        if all_arrived:
            stall_clock = 0.0
        elif (last_best is not None and last_best - best < sim.PROGRESS_EPS
              and not turning):
            stall_clock += dt_sim
        else:
            stall_clock = 0.0
        last_best = best
        if stall_clock > cfg.stall_timeout:
            raise StallTimeout(
                f"no progress for {cfg.stall_timeout} s at plan tick "
                f"{tick_idx} (t={t:.2f} s)", line_no=tick.source_line)

        t_prev = ticks[tick_idx - 1].t if tick_idx > 0 else 0.0
        budget = max(tick.t - t_prev, 0.0)
        deadline_met = t - tick_entry_time >= budget - 1e-12
        if is_barrier:
            if deadline_met and not all_arrived:
                wait += dt_sim
            advance = deadline_met and all_arrived
        else:
            advance = deadline_met
        if advance:
            if tick.extruding:
                gained = tick.extrusion_total - extrusion_prev
                if gained > 0:
                    extruded += gained
            extrusion_prev = tick.extrusion_total
            tick_idx += 1
            tick_entry_time = t
            last_best = None
            stall_clock = 0.0
    return OracleRun(samples, wait, extruded)


def columns_of(samples):
    """The Trace columns that hold `samples`, robot ids sorted."""
    ids = sorted(samples[0].poses) if samples else []
    n = len(samples)
    return {
        "t": np.array([s.t for s in samples], dtype=float),
        "poses": np.array([[s.poses[r] for r in ids] for s in samples],
                          dtype=float).reshape(n, len(ids), 3),
        "rotations": np.array([[s.rotations[r] for r in ids]
                               for s in samples],
                              dtype=float).reshape(n, len(ids)),
        "tool_tip": np.array([s.tool_tip for s in samples],
                             dtype=float).reshape(n, 3),
        "tool_target": np.array([s.tool_target for s in samples],
                                dtype=float).reshape(n, 3),
        "extruding": np.array([s.extruding for s in samples], dtype=bool),
        "extrusion_total": np.array([s.extrusion_total for s in samples],
                                    dtype=float),
    }, tuple(ids)


def trace_of(samples, cfg=None):
    """A Trace that holds `samples`."""
    columns, ids = columns_of(samples)
    return sim.Trace(config=cfg, robot_ids=ids, **columns)


def assert_same_columns(trace, samples):
    """Every column equal to that of `samples`, bit for bit."""
    columns, ids = columns_of(samples)
    assert trace.robot_ids == ids
    for name, expected in columns.items():
        got = getattr(trace, name)
        assert (got.dtype, got.shape) == (expected.dtype, expected.shape), name
        assert got.tobytes() == expected.tobytes(), name


def outcome(fn, *args, **kwargs):
    """A run's result, or the type, message and g-code line of its error."""
    try:
        return fn(*args, **kwargs)
    except SwarmFabError as exc:
        return (type(exc), str(exc), getattr(exc, "line_no", None))


def same_run(plan, cfg, **kwargs):
    """sim.run and the oracle agree; returns the oracle's outcome."""
    got = outcome(sim.run, plan, cfg, **kwargs)
    expected = outcome(run_oracle, plan, cfg, **kwargs)
    if isinstance(expected, OracleRun):
        assert isinstance(got, sim.Trace), got
        assert_same_columns(got, expected.samples)
        assert got.barrier_wait_total == expected.barrier_wait_total
        assert got.extruded_length == expected.extruded_length
        assert got.samples == expected.samples
    else:
        assert got == expected
    return expected


def plan_of(program, cfg, shift=(0.0, 0.0)):
    segments = gcode.interpret(gcode.parse_program(program),
                               home=HOME).segments
    dx, dy = shift
    segments = [s._replace(
        start=(s.start[0] + dx, s.start[1] + dy, s.start[2]),
        end=(s.end[0] + dx, s.end[1] + dy, s.end[2])) for s in segments]
    return coordinator.plan_program(segments, cfg)


# the corpus lies above the wall plotter's anchors; moved below them, it
# runs on all four machines
CORPUS_SHIFT = {"wire2d_wall": (300.0, -500.0)}


def noisy_config(morphology, noise):
    doc = config.default_config_doc(morphology)
    doc["sim"]["noise_std"] = noise
    return config.parse_config(doc)


def home_setpoints(cfg):
    """Every robot's setpoint for the home tool point, relative to home."""
    home = cfg.home
    return coordinator.plan_program([seg(home, home)], cfg).ticks[0].setpoints


def stall_plan(cfg, spool_theta):
    """A wire3d plan whose last tick is a barrier that never completes: the
    table robot, too slow to make progress, is sent 50 mm away, while spool
    1 turns to `spool_theta`."""
    ids = coordinator.active_robots(cfg)
    home = cfg.home
    first = home_setpoints(cfg)
    second = dict(first)
    second[ids[0]] = dataclasses.replace(first[ids[0]], theta=spool_theta)
    table = first[ids[3]]
    second[ids[3]] = Setpoint("move", table.x + 50.0, table.y)
    return Plan.from_ticks([PlanTick(0.0, first, home, False, 0.0, 1),
                            PlanTick(0.1, second, home, False, 0.0, 2)],
                           [1], cfg.morphology)


def dwell_plan(cfg, seconds):
    """One plan tick that holds every robot at its home setpoint."""
    home = cfg.home
    return Plan.from_ticks(
        [PlanTick(seconds, home_setpoints(cfg), home, False, 0.0, 1)], [],
        cfg.morphology)


def slow_table_config():
    doc = config.default_config_doc("wire3d_printer")
    doc["roster"][3]["max_wheel_speed"] = 1e-6
    doc["planning"] = {"stall_timeout": 2.0}
    return config.parse_config(doc)


def after_a_run(plan, cfg, ticks=6, seconds=0.1):
    """`plan` with `ticks` plain ticks of `seconds` each after its first
    one, in which spool 1 winds out 0.01 rad further every tick: the
    simulator steps them as one run before the plan's second tick.  A
    last tick 0.1 s after the plan's holds its setpoints, so that the
    tick after the run is not the last."""
    first, *rest = plan.ticks
    spool = coordinator.active_robots(cfg)[0]
    wound = first.setpoints[spool]
    runway = [dataclasses.replace(first, t=k * seconds, setpoints={
        **first.setpoints,
        spool: dataclasses.replace(wound, theta=wound.theta - 0.01 * k)})
        for k in range(1, ticks + 1)]
    later = [dataclasses.replace(tick, t=tick.t + ticks * seconds)
             for tick in rest]
    later.append(dataclasses.replace(later[-1], t=later[-1].t + 0.1))
    return Plan.from_ticks([first, *runway, *later],
                           [b + ticks for b in plan.barriers], cfg.morphology)


class TestRunOracle:
    @pytest.mark.parametrize("morphology", coordinator.MORPHOLOGIES)
    @pytest.mark.parametrize("name,program", [c[:2] for c in CORPUS],
                             ids=[c[0] for c in CORPUS])
    def test_acceptance_corpus(self, morphology, name, program):
        cfg = config.default_config(morphology)
        plan = plan_of(program, cfg, CORPUS_SHIFT.get(morphology, (0, 0)))
        result = same_run(plan, cfg)
        assert isinstance(result, OracleRun) and result.samples

    @pytest.mark.parametrize("morphology", coordinator.MORPHOLOGIES)
    def test_half_step(self, morphology):
        cfg = config.default_config(morphology)
        program = CORPUS[2][1] if morphology != "wire3d_printer" \
            else three_layer_program()
        plan = plan_of(program, cfg, CORPUS_SHIFT.get(morphology, (0, 0)))
        same_run(plan, cfg, dt_sim=0.005)

    @pytest.mark.parametrize("morphology", coordinator.MORPHOLOGIES)
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_seeded_noise(self, morphology, seed):
        cfg = noisy_config(morphology, 0.1)  # 0.01 mm per 0.01 s step
        plan = plan_of(CORPUS[2][1], cfg, CORPUS_SHIFT.get(morphology, (0, 0)))
        result = same_run(plan, cfg, seed=seed)
        assert isinstance(result, OracleRun)
        again = sim.run(plan, cfg, seed=seed)
        assert_same_columns(again, result.samples)

    def test_bearing_exactly_behind(self):
        # the carriage, at heading 0.0, is sent 50 mm back along y = -0.0:
        # its bearing atan2(-0.0, -50.0) is -pi, which the controller takes
        # as pi, as wrap_angle does, so it turns left
        cfg = config.default_config("bridge_xy")
        first = {rid: dataclasses.replace(sp, y=0.0)
                 for rid, sp in home_setpoints(cfg).items()}
        second = dict(first, r3=Setpoint("move", 150.0, -0.0))
        plan = Plan.from_ticks(
            [PlanTick(0.0, first, (200.0, 0.0, 0.0), False, 0.0, 1),
             PlanTick(1.0, second, (150.0, -0.0, 0.0), False, 0.0, 2)],
            [], cfg.morphology)
        result = same_run(plan, cfg)
        assert len(result.samples) == 102

    def test_bridge_skew_fault(self):
        cfg = noisy_config("bridge_xy", 0.3)
        plan = plan_of(CORPUS[2][1], cfg)
        result = same_run(plan, cfg, dt_sim=0.005, seed=3)
        assert result == (KinematicsFault,
                          "bridge skew 1.0162 mm exceeds 1.0 mm", 5)

    def test_wire_fk_fault_before_stall(self):
        cfg = slow_table_config()
        result = same_run(stall_plan(cfg, -20.0), cfg)
        assert result == (NoIntersection, "spheres do not intersect", 2)

    def test_wire_fk_fault_in_a_later_block(self):
        # the rows past the FK's first block of rows cite their own lines:
        # spool 1 winds in after a 50 s dwell, 5000 samples
        cfg = config.default_config("wire3d_printer")
        dwell = stall_plan(cfg, -20.0).ticks
        ticks = [dwell[0], dataclasses.replace(dwell[0], t=50.0, source_line=2),
                 dataclasses.replace(dwell[1], t=60.0, source_line=3)]
        plan = Plan.from_ticks(ticks, [], cfg.morphology)
        assert 50.0 / cfg.dt_sim > machines.FK_BLOCK_ROWS
        result = same_run(plan, cfg)
        assert result == (NoIntersection, "spheres do not intersect", 3)

    def test_stall(self):
        cfg = slow_table_config()
        result = same_run(stall_plan(cfg, 0.0), cfg)
        assert result == (StallTimeout,
                          "no progress for 2.0 s at plan tick 1 (t=2.02 s)", 2)

    @pytest.mark.parametrize("key,index", [("anchors", 0), ("anchors", 1),
                                           ("table_position", 0)])
    def test_negative_zero_coordinate(self, key, index):
        # a spool robot, or the settled table robot, at x or y = -0.0: its
        # step adds +-0.0, which makes the coordinate +0.0 or keeps it
        doc = config.default_config_doc("wire3d_printer")
        point, rid = doc["geometry"][key], "r4"
        if key == "anchors":
            point, rid = point[0], "r1"
        point[index] = -0.0
        cfg = config.parse_config(doc)
        result = same_run(plan_of(three_layer_program(), cfg), cfg)
        assert math.copysign(1.0, result.samples[0].poses[rid][index]) < 0

    @pytest.mark.parametrize("noise", [0.0, 0.1])
    def test_plan_order_differs_from_id_order(self, noise):
        # the errors are summed in plan order, the steps and the noise
        # draws go in id order
        doc = config.default_config_doc("wire3d_printer")
        for entry, rid in zip(doc["roster"], ("s3", "s1", "s2", "t")):
            entry["id"] = rid
        doc["sim"]["noise_std"] = noise
        cfg = config.parse_config(doc)
        plan = plan_of(three_layer_program(), cfg)
        assert plan.ids == ("s3", "s1", "s2", "t")
        assert isinstance(same_run(plan, cfg, seed=2), OracleRun)

    def test_errors_summed_in_plan_order(self):
        # s3, first in plan order, is 1e10 rad from its target, where
        # floats are ~1.9e-6 apart, just above PROGRESS_EPS; s1 turns ~2e-8
        # rad a step and s2 rests 0.001 rad off its target.  The sum falls
        # by one float step only every few dozen steps, at steps that depend
        # on the order of the sum: summed in id order, the run stalls at
        # t=1.67 s.
        doc = config.default_config_doc("wire3d_printer")
        for entry, rid in zip(doc["roster"], ("s3", "s1", "s2", "t")):
            entry["id"] = rid
        doc["roster"][0]["max_wheel_speed"] = 1e-9
        doc["roster"][1]["max_wheel_speed"] = 2.6e-5
        doc["planning"] = {"stall_timeout": 0.9}
        cfg = config.parse_config(doc)
        first = home_setpoints(cfg)
        second = {rid: dataclasses.replace(sp, theta=theta) for (rid, sp),
                  theta in zip(first.items(), (1e10, 1.0, 0.001, 0.0))}
        ticks = [PlanTick(0.0, first, cfg.home, False, 0.0, 1),
                 PlanTick(0.1, second, cfg.home, False, 0.0, 2)]
        plan = Plan.from_ticks(ticks, [1], cfg.morphology)
        assert plan.ids == ("s3", "s1", "s2", "t")
        result = same_run(plan, cfg)
        assert result == (StallTimeout,
                          "no progress for 0.9 s at plan tick 1 (t=1.39 s)", 2)

    def test_screw_among_move_robots(self):
        cfg = config.default_config("printer_bridge")
        plan = plan_of(three_layer_program(), cfg)
        assert "rotate" in plan.kinds and "move" in plan.kinds
        result = same_run(plan, cfg)
        assert isinstance(result, OracleRun)
        # the screw turned to each of the three layers
        assert len({s.tool_tip[2] for s in result.samples}) > 3

    def test_stall_after_a_robot_settles(self):
        # spool 1 turns for ~0.7 s and settles; the table robot then
        # stalls alone
        cfg = slow_table_config()
        result = same_run(stall_plan(cfg, -0.5), cfg)
        assert result == (StallTimeout,
                          "no progress for 2.0 s at plan tick 1 (t=2.68 s)", 2)

    def test_stall_far_from_the_target(self):
        # spool 1 is sent 1e16 rad away, where floats are 2 apart, at a
        # 1e-6 mm/s wheel cap: the errors' sum never falls, and the barrier
        # times out however far the target is
        doc = config.default_config_doc("wire3d_printer")
        for k in (0, 3):
            doc["roster"][k]["max_wheel_speed"] = 1e-6
        doc["planning"] = {"stall_timeout": 2.0}
        cfg = config.parse_config(doc)
        result = same_run(stall_plan(cfg, 1e16), cfg)
        assert result == (StallTimeout,
                          "no progress for 2.0 s at plan tick 1 (t=2.02 s)", 2)

    def test_noisy_transition(self):
        # the robots of a transition plan move to their spots; none winds a
        # spool, so the tool stays at home
        cfg = noisy_config("wire3d_printer", 0.5)
        plan = coordinator.reconfigure(config.default_config("printer_bridge"),
                                       cfg)
        result = same_run(plan, cfg)
        assert isinstance(result, OracleRun)
        assert {s.tool_tip for s in result.samples} == {
            result.samples[0].tool_tip}

    @pytest.mark.parametrize("timeout,t", [(0.03, 0.06), (0.085, 0.11)])
    def test_stall_inside_a_tick(self, timeout, t):
        # a stall timeout shorter than the 0.1 s plan tick, which is no
        # barrier: the table robot stalls within it, or at its last step
        doc = config.default_config_doc("wire3d_printer")
        doc["roster"][3]["max_wheel_speed"] = 1e-6
        doc["planning"] = {"stall_timeout": timeout}
        cfg = config.parse_config(doc)
        plan = Plan.from_ticks(stall_plan(cfg, 0.0).ticks, [], cfg.morphology)
        result = same_run(plan, cfg)
        assert result == (StallTimeout, f"no progress for {timeout} s at "
                                        f"plan tick 1 (t={t:.2f} s)", 2)

    def test_barrier_wait_longer_than_the_stall_timeout(self):
        # the table robot drives 50 mm to the barrier for ~2.2 s, making
        # progress at every step, past a 0.5 s stall timeout
        doc = config.default_config_doc("wire3d_printer")
        doc["planning"] = {"stall_timeout": 0.5}
        cfg = config.parse_config(doc)
        result = same_run(stall_plan(cfg, 0.0), cfg)
        assert isinstance(result, OracleRun)
        assert result.barrier_wait_total > 2.0

    def test_noisy_arrival_at_a_barrier(self):
        # spool 1 turns for ~0.7 s while the table robot moves 1 mm and
        # hovers at its tolerance: the table robot arrives before spool 1
        # or after it, and may arrive and leave its tolerance again
        cfg = noisy_config("wire3d_printer", 0.5)
        ids = coordinator.active_robots(cfg)
        first = home_setpoints(cfg)
        second = dict(first)
        second[ids[0]] = dataclasses.replace(first[ids[0]], theta=-0.5)
        second[ids[1]] = dataclasses.replace(first[ids[1]], theta=0.2)
        table = first[ids[3]]
        second[ids[3]] = Setpoint("move", table.x + 1.0, table.y)
        plan = Plan.from_ticks([PlanTick(0.0, first, cfg.home, False, 0.0, 1),
                                PlanTick(0.1, second, cfg.home, False, 0.0, 2)],
                               [1], cfg.morphology)
        flips = []
        for seed in (0, 2, 4):
            result = same_run(plan, cfg, seed=seed)
            inside = [math.dist(s.poses[ids[3]][:2], (table.x + 1.0, table.y))
                      < cfg.roster[3].params.arrival_tol
                      for s in result.samples]
            flips.append(sum(a != b for a, b in zip(inside, inside[1:])))
        assert flips[0] == 1 and max(flips) > 2

    @pytest.mark.parametrize("seconds", [0.5, 0.11])
    def test_bridge_skew_inside_a_tick(self, seconds):
        # rail robot r2 is slower than r1: sent 30 mm along the rails, the
        # bridge skews past sync_tol at the 11th step of the tick, which
        # takes 50 steps, or 11 before the next tick
        doc = config.default_config_doc("bridge_xy")
        doc["roster"][1]["max_wheel_speed"] = 20.0
        cfg = config.parse_config(doc)
        first = home_setpoints(cfg)
        second = {rid: dataclasses.replace(sp, y=sp.y + 30.0)
                  for rid, sp in first.items()}
        plan = Plan.from_ticks(
            [PlanTick(0.0, first, cfg.home, False, 0.0, 1),
             PlanTick(seconds, second, cfg.home, False, 0.0, 2),
             PlanTick(1.0, second, cfg.home, False, 0.0, 3)],
            [], cfg.morphology)
        result = same_run(plan, cfg)
        assert result == (KinematicsFault,
                          "bridge skew 1.0660 mm exceeds 1.0 mm", 2)

    def test_bridge_skewed_at_the_start(self):
        # the rails start 2 mm apart: the run ends at its first sample
        cfg = config.default_config("bridge_xy")
        first = home_setpoints(cfg)
        first["r2"] = dataclasses.replace(first["r2"], y=first["r2"].y + 2.0)
        plan = Plan.from_ticks([PlanTick(0.5, first, cfg.home, False, 0.0, 4)],
                               [], cfg.morphology)
        result = same_run(plan, cfg)
        assert result == (KinematicsFault,
                          "bridge skew 2.0000 mm exceeds 1.0 mm", 4)

    def test_turn_in_place_is_progress(self):
        # the carriage turns in place to reverse at the barrier of line 2
        # for longer than the stall timeout
        doc = config.default_config_doc("bridge_xy")
        doc["planning"]["stall_timeout"] = 0.05
        cfg = config.parse_config(doc)
        plan = plan_of("G1 X230 Y100 F600\nG1 X200 Y100\n", cfg)
        assert plan.barriers
        assert isinstance(same_run(plan, cfg), OracleRun)

    # --- the edges of a run of plain ticks ---

    @pytest.mark.parametrize("morphology", coordinator.MORPHOLOGIES)
    def test_one_step_ticks(self, morphology):
        # dt_sim = dt_plan: every plain tick of a run is one step
        cfg = config.default_config(morphology)
        program = CORPUS[2][1] if morphology != "wire3d_printer" \
            else three_layer_program()
        plan = plan_of(program, cfg, CORPUS_SHIFT.get(morphology, (0, 0)))
        result = same_run(plan, cfg, dt_sim=cfg.dt_plan)
        assert isinstance(result, OracleRun)
        assert len(result.samples) < 2 * len(plan.t)

    @pytest.mark.parametrize("morphology", coordinator.MORPHOLOGIES)
    @pytest.mark.parametrize("noise", [0.0, 0.1])
    def test_run_cut_by_the_step_limit(self, morphology, noise,
                                       monkeypatch):
        # ticks of two steps, a run cut after every second tick: the noise
        # of each run is a draw of its own
        monkeypatch.setattr(sim, "RUN_STEPS", 3)
        cfg = noisy_config(morphology, noise)
        plan = plan_of(CORPUS[2][1], cfg, CORPUS_SHIFT.get(morphology, (0, 0)))
        result = same_run(plan, cfg, dt_sim=0.05, seed=4)
        assert isinstance(result, OracleRun)

    def test_barrier_wait_step_by_step_after_a_run(self):
        # the run ends at the barrier, whose wait outlasts the 0.5 s stall
        # timeout while the table robot drives 50 mm: the barrier tick
        # goes step by step, from its first step again
        doc = config.default_config_doc("wire3d_printer")
        doc["planning"] = {"stall_timeout": 0.5}
        cfg = config.parse_config(doc)
        result = same_run(after_a_run(stall_plan(cfg, 0.0), cfg), cfg)
        assert isinstance(result, OracleRun)
        assert result.barrier_wait_total > 2.0

    def test_stall_in_a_stepwise_tick_after_a_run(self):
        # plain ticks of three steps, under the 0.05 s stall timeout, then
        # a 0.5 s tick that goes step by step: spool 1 settles and the
        # table robot, at 1e-6 mm/s, stalls
        doc = config.default_config_doc("wire3d_printer")
        doc["roster"][3]["max_wheel_speed"] = 1e-6
        doc["planning"] = {"stall_timeout": 0.05}
        cfg = config.parse_config(doc)
        ticks = after_a_run(stall_plan(cfg, 0.0), cfg, seconds=0.03).ticks
        ticks[-2:] = [dataclasses.replace(tick, t=tick.t + 0.4)
                      for tick in ticks[-2:]]
        plan = Plan.from_ticks(ticks, [], cfg.morphology)
        result = same_run(plan, cfg)
        assert result == (StallTimeout, "no progress for 0.05 s at plan "
                                         "tick 7 (t=0.59 s)", 2)


class TestSampleTimes:
    # 5e-10 and 1.5e-9 put samples at t * 1e9 next to a half, where the
    # rounding falls back to round
    @pytest.mark.parametrize("dt", [0.01, 0.003, 0.1, 1 / 3, 7e-4, 5e-10,
                                    1.5e-9, 0.0125])
    def test_round_each_sample(self, dt):
        n = 20_000
        t, expected = 0.0, [0.0]
        for _ in range(n - 1):
            t += dt
            expected.append(round(t, 9))
        got = sim._sample_times(n, dt)
        assert got.tobytes() == np.array(expected).tobytes()


class TestNoise:
    """sim.noise_std is a random walk in mm/sqrt(s).  A dwell at home keeps
    every robot inside its arrival tolerance, so no controller acts and a
    robot's displacement is the sum of its draws."""

    def carriage_x_moves(self, sigma, dt, seeds):
        cfg = noisy_config("bridge_xy", sigma)
        plan = dwell_plan(cfg, 1.0)
        carriage = coordinator.active_robots(cfg)[2]
        moves = []
        for seed in seeds:
            trace = sim.run(plan, cfg, dt_sim=dt, seed=seed)
            k = trace.robot_ids.index(carriage)
            moves.append(trace.poses[-1, k, 0] - trace.poses[0, k, 0])
        return np.array(moves), float(trace.t[-1])

    def test_sigma_scales_the_walk(self):
        small, _ = self.carriage_x_moves(0.01, 0.01, [5])
        large, _ = self.carriage_x_moves(0.05, 0.01, [5])
        assert small[0] != 0.0
        assert large[0] == pytest.approx(5.0 * small[0], rel=1e-9)

    @pytest.mark.parametrize("robots", [1, 3, 4])
    @pytest.mark.parametrize("a,b", [(1, 1), (1, 7), (9, 2), (100, 37),
                                     (1024, 1)])
    def test_one_draw_splits_into_draws_in_turn(self, robots, a, b):
        # a run of plain ticks draws its noise at once, as the per-tick
        # draws it replaces would have
        sigma = 0.1 * math.sqrt(0.01)
        whole = np.random.default_rng(7).normal(0.0, sigma,
                                                size=(a + b, robots, 2))
        rng = np.random.default_rng(7)
        parts = np.concatenate([rng.normal(0.0, sigma, size=(a, robots, 2)),
                                rng.normal(0.0, sigma, size=(b, robots, 2))])
        assert whole.tobytes() == parts.tobytes()

    @pytest.mark.parametrize("dt", [0.01, 0.005])
    def test_spread_independent_of_step(self, dt):
        sigma = 0.05
        moves, duration = self.carriage_x_moves(sigma, dt, range(400))
        assert duration == pytest.approx(1.0)
        assert np.std(moves) == pytest.approx(sigma * math.sqrt(duration),
                                              rel=0.15)


class TestRun:
    @pytest.mark.parametrize("morphology", coordinator.MORPHOLOGIES)
    def test_rotate_kind_is_the_actuator_role(self, morphology):
        # sim.run accumulates the rotation of rotate-kind robots, and
        # step_dynamics that of actuator roles: the two must name the same
        # robots of every planned job
        cfg = config.default_config(morphology)
        assert cfg.machine.kinds == tuple(
            "rotate" if role in ACTUATOR_ROLES else "move"
            for role in coordinator.ROLE_SEQUENCE[morphology])

    @pytest.mark.parametrize("noise", [0.5, 2.0])
    def test_transition_winds_no_spool(self, noise):
        # the spool robots of the target machine drive to their spots as
        # move robots; their wheels must not read as wire paid out
        cfg = noisy_config("wire3d_printer", noise)
        plan = coordinator.reconfigure(config.default_config("printer_bridge"),
                                       cfg)
        assert set(plan.kinds) == {"move"}
        trace = sim.run(plan, cfg, seed=0)
        assert len(trace.t) > 1
        assert not trace.rotations.any()
        assert (trace.tool_tip == trace.tool_tip[0]).all()

    def test_empty_plan(self, bridge_config):
        plan = coordinator.plan_program([], bridge_config)
        trace = sim.run(plan, bridge_config)
        assert trace.samples == []

    @pytest.mark.parametrize("morphology", coordinator.MORPHOLOGIES)
    def test_one_tick_at_zero(self, morphology):
        # a column of one 0.0 is not an empty plan
        cfg = config.default_config(morphology)
        result = same_run(dwell_plan(cfg, 0.0), cfg)
        assert isinstance(result, OracleRun) and len(result.samples) >= 2

    def test_straight_print_deviation(self, bridge_config):
        s = seg((150, 100, 0), (250, 100, 0), e=2.0)
        plan = coordinator.plan_program([s], bridge_config)
        trace = sim.run(plan, bridge_config, seed=0)
        worst = max(sim.point_polyline_distance(x.tool_tip, [s])
                    for x in trace.samples if x.extruding)
        assert worst < 1.0

    def test_bit_identical_reruns(self, bridge_config):
        s = seg((150, 100, 0), (250, 180, 0), e=2.0)
        plan = coordinator.plan_program([s], bridge_config)
        a = sim.run(plan, bridge_config, seed=3)
        b = sim.run(plan, bridge_config, seed=3)
        assert a.samples == b.samples

    def test_fk_consistency(self, bridge_config):
        s = seg((150, 100, 0), (250, 180, 0))
        plan = coordinator.plan_program([s], bridge_config)
        trace = sim.run(plan, bridge_config)
        geom = bridge_config.bridge_geometry
        for x in trace.samples:
            tool = kin.bridge_fk(x.poses["r1"][:2], x.poses["r2"][:2],
                                 x.poses["r3"][0] - geom.rail1_x, geom,
                                 sync_tol=bridge_config.sync_tol)
            assert math.dist(tool, x.tool_tip[:2]) < 1e-12

    def test_no_teleportation(self, wire2d_config):
        s = seg((400, -500, 0), (600, -300, 0))
        plan = coordinator.plan_program([s], wire2d_config)
        trace = sim.run(plan, wire2d_config)
        cap = max(e.params.max_wheel_speed for e in wire2d_config.roster)
        for a, b in zip(trace.samples, trace.samples[1:]):
            for rid in a.poses:
                moved = math.dist(a.poses[rid][:2], b.poses[rid][:2])
                assert moved <= cap * wire2d_config.dt_sim + 1e-9

    def test_bounded_lag(self, bridge_config):
        s = seg((150, 100, 0), (250, 100, 0))
        plan = coordinator.plan_program([s], bridge_config)
        trace = sim.run(plan, bridge_config)
        cap = max(e.params.max_wheel_speed for e in bridge_config.roster)
        tol = bridge_config.roster[0].params.arrival_tol
        bound = cap * bridge_config.dt_plan + tol
        for x in trace.samples:
            assert math.dist(x.tool_tip, x.tool_target) <= bound + 5.0

    @pytest.mark.parametrize("dt", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize("empty", [True, False])
    def test_non_positive_dt_sim_rejected(self, bridge_config, dt, empty):
        # also for an empty plan, which runs no step; a nan step would
        # never end a plan tick
        plan = (coordinator.plan_program([], bridge_config) if empty
                else dwell_plan(bridge_config, 0.1))
        for run in (sim.run, run_oracle):
            with pytest.raises(ValueError, match="dt must be positive"):
                run(plan, bridge_config, dt_sim=dt)

    def test_sample_cap_before_the_run(self, wire3d_config, monkeypatch):
        # a plan whose 0.1 s passes five samples of 0.01 s runs no step
        monkeypatch.setattr(sim, "MAX_SAMPLES", 5)
        monkeypatch.setattr(sim, "_drive", None)
        with pytest.raises(SimError, match=r"^run longer than 5 samples of "
                                           r"0\.01 s at plan tick 1 "
                                           r"\(t=0\.10 s\)$") as err:
            sim.run(stall_plan(wire3d_config, 0.0), wire3d_config)
        assert err.value.line_no == 2

    def test_sample_cap_at_a_barrier_wait(self, wire3d_config, monkeypatch):
        # the table robot drives 50 mm to the barrier at tick 1 of a 0.1 s
        # plan: the run takes its steps (229) waiting there, and stops at a
        # wait past a cap below them
        plan = stall_plan(wire3d_config, 0.0)
        steps = len(sim.run(plan, wire3d_config).t) - 1
        assert steps > 200
        monkeypatch.setattr(sim, "MAX_SAMPLES", steps)
        assert len(sim.run(plan, wire3d_config).t) == steps + 1
        monkeypatch.setattr(sim, "MAX_SAMPLES", 100)
        with pytest.raises(SimError, match="^barrier waits take the run past "
                                           "100 samples of 0.01 s at plan "
                                           "tick 1 ") as err:
            sim.run(plan, wire3d_config)
        assert err.value.line_no == 2

    def test_sample_cap_at_a_barrier_wait_after_a_run(self, wire3d_config,
                                                      monkeypatch):
        # the barrier of test_sample_cap_at_a_barrier_wait, after a run of
        # six plain ticks
        plan = after_a_run(stall_plan(wire3d_config, 0.0), wire3d_config)
        expected = run_oracle(plan, wire3d_config)
        steps = len(expected.samples) - 1
        monkeypatch.setattr(sim, "MAX_SAMPLES", steps)
        assert_same_columns(sim.run(plan, wire3d_config), expected.samples)
        monkeypatch.setattr(sim, "MAX_SAMPLES", 100)
        assert outcome(sim.run, plan, wire3d_config) == (
            SimError, "barrier waits take the run past 100 samples of 0.01 s "
                      "at plan tick 7 (t=0.90 s)", 2)

    def test_peak_memory_per_sample(self, wire3d_config):
        # a four-robot wire3d run peaks at ~428 B per sample (README), after
        # the robots' columns are freed; 10% above that fails
        plan = plan_of(three_layer_program(), wire3d_config)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = sim.run(plan, wire3d_config, dt_sim=0.001)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(trace.t) > 20_000
        assert peak / len(trace.t) < 1.1 * 428

    def test_peak_memory_per_sample_with_noise(self):
        # 200 plain ticks of a noisy 20 s dwell, one run but for RUN_STEPS,
        # peak at ~577 B per sample; 10% above that fails.  A run drawn
        # whole, with no step limit, peaks at ~670 B.
        cfg = noisy_config("wire3d_printer", 0.1)
        tick = dwell_plan(cfg, 0.1).ticks[0]
        plan = Plan.from_ticks(
            [dataclasses.replace(tick, t=0.1 * k) for k in range(200)], [],
            cfg.morphology)
        # the first noisy run of a process imports numpy.random (~0.7 MB)
        sim.run(dwell_plan(cfg, 0.1), cfg)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = sim.run(plan, cfg, dt_sim=0.001)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(trace.t) > 19_000
        assert peak / len(trace.t) < 1.1 * 577

    def test_dt_sim_larger_than_plan_rejected(self, bridge_config):
        plan = coordinator.plan_program([], bridge_config)
        with pytest.raises(ValueError):
            sim.run(plan, bridge_config, dt_sim=1.0)

    @pytest.mark.parametrize("source,missing", [("bridge_xy", "r3"),
                                                ("printer_bridge", "r3, r4")])
    def test_plan_robots_missing_from_roster(self, wire2d_config, source,
                                             missing):
        # the plan into the wall plotter parks robots that its two-robot
        # roster lacks
        plan = coordinator.reconfigure(config.default_config(source),
                                       wire2d_config)
        with pytest.raises(SimError, match=f"wire2d_wall config's roster: "
                                           f"{missing}$"):
            sim.run(plan, wire2d_config)

    def test_config_robots_missing_from_plan(self, wire2d_config,
                                             bridge_config):
        # a wall-plotter plan has two robots; the bridge config's third
        # active robot is not in it
        segments = gcode.interpret(gcode.parse_program("G1 X510 Y-400 F600"),
                                   home=wire2d_config.home).segments
        plan = coordinator.plan_program(segments, wire2d_config)
        with pytest.raises(SimError, match="bridge_xy config's active robots "
                                           "not in the plan: r3$"):
            sim.run(plan, bridge_config)


class TestMeasureFidelity:
    def sample(self, t, tool, extruding=True):
        return sim.TraceSample(t=t, poses={}, rotations={}, tool_tip=tool,
                               tool_target=tool, extruding=extruding,
                               extrusion_total=0.0)

    def test_exact_follow_zero_deviation(self, bridge_config):
        s = seg((0, 0, 0), (10, 0, 0), e=1.0)
        samples = [self.sample(t / 10, (t, 0.0, 0.0)) for t in range(11)]
        report = sim.measure_fidelity(trace_of(samples, bridge_config), [s])
        assert report.max_deviation == 0.0
        assert report.mean_deviation == 0.0
        assert report.total_print_length == pytest.approx(10.0)

    def test_uniform_offset(self, bridge_config):
        s = seg((0, 0, 0), (10, 0, 0), e=1.0)
        samples = [self.sample(t / 10, (t, 0.3, 0.0)) for t in range(11)]
        report = sim.measure_fidelity(trace_of(samples, bridge_config), [s])
        assert report.max_deviation == pytest.approx(0.3)
        assert report.mean_deviation == pytest.approx(0.3)

    def test_travel_samples_excluded(self, bridge_config):
        s = seg((0, 0, 0), (10, 0, 0), e=1.0)
        samples = [self.sample(0.0, (0.0, 0.0, 0.0)),
                   self.sample(1.0, (5.0, 9.0, 0.0), extruding=False),
                   self.sample(2.0, (10.0, 0.0, 0.0))]
        report = sim.measure_fidelity(trace_of(samples, bridge_config), [s])
        assert report.max_deviation == 0.0

    def test_square_regression_envelope(self, bridge_config,
                                        square_print_program):
        res = gcode.interpret(gcode.parse_program(square_print_program),
                              home=bridge_config.home)
        plan = coordinator.plan_program(res.segments, bridge_config)
        trace = sim.run(plan, bridge_config, seed=0)
        report = sim.measure_fidelity(trace, res.segments)
        assert report.mean_deviation < 0.5
        assert report.max_deviation < 1.5


# --- oracles: the exports as they were before swarmfab.text, each number
# by Python's % or an f-string.  export_csv and export_svg must give the
# same bytes. ---

def _polylines_oracle(trace, want_extruding):
    flags = np.concatenate(([False], trace.extruding == want_extruding,
                            [False]))
    edges = np.flatnonzero(flags[1:] != flags[:-1]).tolist()
    return [(float(trace.tool_target[a, 2]), trace.tool_tip[a:b].tolist())
            for a, b in zip(edges[::2], edges[1::2]) if b - a >= 2]


def _fmt(v):
    return f"{v:.6f}"


def export_svg_oracle(trace):
    polys = {"print": _polylines_oracle(trace, True),
             "travel": _polylines_oracle(trace, False)}
    if trace.config is not None:
        lo, hi = trace.config.workspace_min, trace.config.workspace_max
    else:
        xy = [p[:2] for kind_polys in polys.values() for _, poly in kind_polys
              for p in poly] or [(0.0, 0.0), (1.0, 1.0)]
        lo, hi = [min(c) for c in zip(*xy)], [max(c) for c in zip(*xy)]
    width = max(hi[0] - lo[0], 1e-6)
    height = max(hi[1] - lo[1], 1e-6)

    def layer_key(z):
        return round(z / sim.Z_QUANTUM) * sim.Z_QUANTUM

    layers = {}
    for kind, kind_polys in polys.items():
        for z, poly in kind_polys:
            layers.setdefault(layer_key(z),
                              {"print": [], "travel": []})[kind].append(poly)

    def points(poly):
        return " ".join(["%.6f,%.6f" % (x, y) for x, y, _ in poly])

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(lo[0])} {_fmt(lo[1])} {_fmt(width)} {_fmt(height)}" '
        f'width="{_fmt(width)}mm" height="{_fmt(height)}mm">',
    ]
    for z in sorted(layers):
        lines.append(f'<g id="layer-z{_fmt(z)}">')
        for poly in layers[z]["travel"]:
            lines.append(
                f'<polyline points="{points(poly)}" fill="none" '
                f'stroke="#999999" stroke-width="0.2" '
                f'stroke-dasharray="2,2"/>')
        for poly in layers[z]["print"]:
            lines.append(
                f'<polyline points="{points(poly)}" fill="none" '
                f'stroke="#000000" stroke-width="0.4"/>')
        lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def export_csv_oracle(trace):
    def format_rows(fmt, values):
        return ((fmt + "\n") * len(values)
                % tuple(values.ravel().tolist())).split("\n")[:-1]

    ids = trace.robot_ids
    heads = format_rows("%.6f,", trace.t[:, None])
    tips = np.empty((len(trace.t), 4))
    tips[:, :3] = trace.tool_tip
    tips[:, 3] = trace.extruding
    tails = format_rows(",%.6f,%.6f,%.6f,%d", tips)
    poses = iter(format_rows("%.6f,%.6f,%.6f", trace.poses.reshape(-1, 3)))
    lines = ["t,robot_id,x,y,heading,tool_x,tool_y,tool_z,extruding"]
    lines += [f"{head}{rid},{next(poses)}{tail}"
              for head, tail in zip(heads, tails) for rid in ids]
    return "\n".join(lines) + "\n"


def awkward_trace(cfg=None):
    """A hand-built trace of values a fixed-point shortcut could get wrong:
    signed zeros, a negative value that prints as -0.000000, a tie, values
    only Python's % prints, and nan and infinite tool tips."""
    values = [-0.0, -4e-7, 0.0078125, 1e16, -2.5e-7, 123.4567895, 0.0,
              -1e16]
    n = len(values)
    tips = np.array([values, values[::-1], values[3:] + values[:3]]).T
    tips[2] = (math.nan, math.inf, 0.0)
    tips[5] = (-math.inf, math.nan, math.nan)
    poses = np.stack([tips, -tips[::-1]], axis=1)
    return sim.Trace(config=cfg, robot_ids=("a\x00", "é"),
                     t=np.array(values), poses=poses,
                     rotations=np.zeros((n, 2)), tool_tip=tips,
                     tool_target=np.zeros((n, 3)),
                     extruding=np.array([True, True, True, False, False,
                                         True, True, False]))


class TestExportOracles:
    @pytest.mark.parametrize("morphology", coordinator.MORPHOLOGIES)
    def test_simulated_trace(self, morphology):
        cfg = config.default_config(morphology)
        program = CORPUS[2][1] if morphology != "wire3d_printer" \
            else three_layer_program()
        trace = sim.run(plan_of(program, cfg,
                                CORPUS_SHIFT.get(morphology, (0, 0))), cfg)
        assert len(trace.t) > 100
        assert sim.export_csv(trace) == export_csv_oracle(trace)
        assert sim.export_svg(trace) == export_svg_oracle(trace)
        trace.config = None  # the viewBox spans the polylines
        assert sim.export_svg(trace) == export_svg_oracle(trace)

    @pytest.mark.parametrize("with_config", [False, True])
    def test_awkward_values(self, bridge_config, with_config):
        trace = awkward_trace(bridge_config if with_config else None)
        csv = sim.export_csv(trace)
        assert csv == export_csv_oracle(trace)
        lines = csv.splitlines()
        assert lines[1].startswith("-0.000000,a\x00,-0.000000,")
        assert lines[3].startswith("-0.000000,a\x00,")  # t = -4e-7
        assert lines[5].startswith("0.007812,a\x00,")  # a tie, half-even
        assert ",nan,inf,0.000000,1" in lines[5]
        assert sim.export_svg(trace) == export_svg_oracle(trace)

    def test_empty_trace(self, bridge_config):
        for trace in (sim.Trace(), sim.Trace(config=bridge_config)):
            assert sim.export_csv(trace) == export_csv_oracle(trace)
            assert sim.export_svg(trace) == export_svg_oracle(trace)


class TestExports:
    def run_square(self, cfg, program):
        res = gcode.interpret(gcode.parse_program(program), home=cfg.home)
        plan = coordinator.plan_program(res.segments, cfg)
        return sim.run(plan, cfg, seed=0), res.segments

    def test_empty_svg_valid(self, bridge_config):
        trace = sim.Trace(config=bridge_config)
        text = sim.export_svg(trace)
        assert text.startswith("<?xml")
        assert "<svg" in text and "</svg>" in text

    def test_square_segments_single_group(self, bridge_config):
        x, y, z = bridge_config.home
        pts = [(x + dx, y + dy, z)
               for dx, dy in [(0, 0), (10, 0), (10, 10), (0, 10), (0, 0)]]
        segs = [seg(a, b, e=1.0) for a, b in zip(pts, pts[1:])]
        trace = sim.run(coordinator.plan_program(segs, bridge_config),
                        bridge_config, seed=0)
        text = sim.export_svg(trace)
        assert text.count("<g ") == 1
        assert text.count("<polyline") == 1  # one closed print polyline

    def test_two_layer_grouping(self, printer_bridge_config):
        x, y, z = printer_bridge_config.home
        segs = [seg((x, y, z), (x + 10, y, z), e=1.0),
                seg((x + 10, y, z), (x + 10, y, z + 2), line=2),
                seg((x + 10, y, z + 2), (x, y, z + 2), e=1.0, line=3)]
        trace = sim.run(coordinator.plan_program(segs, printer_bridge_config),
                        printer_bridge_config, seed=0)
        text = sim.export_svg(trace)
        groups = text.split("<g ")[1:]
        zs = [float(g.split('"layer-z')[1].split('"')[0]) for g in groups]
        assert zs == sorted(zs)  # ascending z order
        # the two printed layers each get a group; the lift between them is
        # travel only
        printed = [gz for gz, g in zip(zs, groups)
                   if 'stroke="#000000"' in g]
        assert printed == [z, z + 2]

    def test_svg_without_config_spans_its_polylines(self):
        tips = np.array([[0, 0, 0], [10, 5, 0], [10, 5, 0], [-2, 8, 0]],
                        dtype=float)
        trace = sim.Trace(t=np.arange(4.0), tool_tip=tips,
                          tool_target=np.zeros((4, 3)),
                          extruding=np.array([True, True, False, False]))
        text = sim.export_svg(trace)
        assert 'viewBox="-2.000000 0.000000 12.000000 8.000000"' in text
        assert text.count("<polyline") == 2

    def test_csv_shape_and_determinism(self, bridge_config,
                                       square_print_program):
        trace, _ = self.run_square(bridge_config, square_print_program)
        csv1 = sim.export_csv(trace)
        trace2, _ = self.run_square(bridge_config, square_print_program)
        assert csv1 == sim.export_csv(trace2)
        lines = csv1.strip().splitlines()
        assert lines[0] == "t,robot_id,x,y,heading,tool_x,tool_y,tool_z,extruding"
        assert len(lines) - 1 == len(trace.samples) * 3


def overlap_oracle(trace, config):
    """overlap_diagnostic as a per-sample loop over sorted robot pairs."""
    radii = {e.id: e.params.body_radius for e in config.roster}
    events = []
    for s in trace.samples:
        ids = sorted(s.poses)
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                d = math.hypot(s.poses[a][0] - s.poses[b][0],
                               s.poses[a][1] - s.poses[b][1])
                if d < radii.get(a, 16.0) + radii.get(b, 16.0):
                    events.append(sim.OverlapEvent(s.t, a, b, d))
    return events


def with_body_radii(cfg, radii):
    roster = tuple(dataclasses.replace(
        e, params=dataclasses.replace(e.params, body_radius=r))
        for e, r in zip(cfg.roster, radii))
    return dataclasses.replace(cfg, roster=roster)


class TestOverlap:
    def make_trace(self, cfg, poses):
        return trace_of([sim.TraceSample(
            t=0.0, poses=poses, rotations=dict.fromkeys(poses, 0.0),
            tool_tip=(0, 0, 0), tool_target=(0, 0, 0), extruding=False,
            extrusion_total=0.0)], cfg)

    def test_contact_least_distance_is_math_hypots(self, bridge_config):
        # two samples 200 ** 0.5 mm apart: the first has the lesser square,
        # the second the lesser math.hypot; a third just inside the
        # OVERLAP_PREFILTER_SLACK band of the 32 mm contact distance, and a
        # fourth at it, which does not overlap
        offsets = [(7.516117926868677, 11.979481262116623),
                   (9.769209668166035, 10.225582744245497),
                   (31.99999999, 0.0), (32.0, 0.0)]
        trace = trace_of([sim.TraceSample(
            t=0.5 * n, poses={"r1": (0.0, 0.0, 0.0), "r2": (x, y, 0.0)},
            rotations={"r1": 0.0, "r2": 0.0}, tool_tip=(0, 0, 0),
            tool_target=(0, 0, 0), extruding=False, extrusion_total=0.0)
            for n, (x, y) in enumerate(offsets)], bridge_config)
        events = sim.overlap_diagnostic(trace, bridge_config)
        assert [e.t for e in events] == [0.0, 0.5, 1.0]
        assert (events[0].distance > events[1].distance
                == 14.14213562373095)
        assert sim.overlap_contacts(trace, bridge_config) == [
            [0.0, 1.0, "r1/r2", 14.14213562373095]]

    def test_far_apart_no_event(self, bridge_config):
        trace = self.make_trace(bridge_config,
                                {"r1": (0.0, 0.0, 0.0), "r2": (100.0, 0.0, 0.0)})
        assert sim.overlap_diagnostic(trace, bridge_config) == []

    def test_close_event(self, bridge_config):
        trace = self.make_trace(bridge_config,
                                {"r1": (0.0, 0.0, 0.0), "r2": (20.0, 0.0, 0.0)})
        events = sim.overlap_diagnostic(trace, bridge_config)
        assert len(events) == 1
        assert events[0].distance == pytest.approx(20.0)

    def test_square_job_zero_overlaps(self, bridge_config,
                                      square_print_program):
        res = gcode.interpret(gcode.parse_program(square_print_program),
                              home=bridge_config.home)
        plan = coordinator.plan_program(res.segments, bridge_config)
        trace = sim.run(plan, bridge_config, seed=0)
        assert sim.overlap_diagnostic(trace, bridge_config) == []

    @pytest.mark.parametrize("morphology", ["bridge_xy", "wire3d_printer"])
    def test_matches_per_sample_loop(self, morphology, square_print_program):
        cfg = config.default_config(morphology)
        program = (square_print_program if morphology == "bridge_xy"
                   else three_layer_program())
        res = gcode.interpret(gcode.parse_program(program), home=cfg.home)
        trace = sim.run(coordinator.plan_program(res.segments, cfg), cfg,
                        seed=0)
        # default bodies, then bodies large enough that some pairs touch
        for radii in ((16.0,) * 4, (120.0, 170.0, 145.0, 95.0)):
            bodies = with_body_radii(cfg, radii)
            events = sim.overlap_diagnostic(trace, bodies)
            assert events == overlap_oracle(trace, bodies)
        assert events
        assert len(events) < len(trace.samples) * 3
