import dataclasses
import math
import random
import time
import tracemalloc

import numpy as np
import pytest

from swarmfab import config, coordinator, gcode
from swarmfab import kinematics as kin
from swarmfab.coordinator import Plan, PlanTick, Setpoint
from swarmfab.errors import (
    InsufficientRobots,
    OutOfWorkspace,
    PlanError,
    SwarmFabError,
)
from swarmfab.gcode import MotionSegment

from test_acceptance import CORPUS, HOME
from test_kinematics import workspace_contains_oracle


def seg(start, end, feed=50.0, e=0.0, line=1):
    kind = "print" if e > 0 else "travel"
    return MotionSegment(start=tuple(map(float, start)),
                         end=tuple(map(float, end)),
                         feed=feed, extrusion_delta=e, kind=kind,
                         source_line=line)


# --- oracle: the planner that checks and solves every point where it is
# used: each segment endpoint in time_parameterize_oracle and again as a
# tick, each start again as the previous segment's end, and the role maps
# once per tick or segment.  plan_program must match it bit for bit, errors
# included. ---

def omega_max_oracle(params):
    return 2.0 * params.max_wheel_speed / params.wheel_track


def axis_times_oracle(seg, cfg, roles):
    dx = seg.end[0] - seg.start[0]
    dy = seg.end[1] - seg.start[1]
    dz = seg.end[2] - seg.start[2]
    params = {entry.id: entry.params for entry in cfg.roster}
    by_role = {role: params[rid] for rid, role in roles.items()
               if role != "idle"}
    times = []
    morph = cfg.morphology
    if morph in ("bridge_xy", "printer_bridge"):
        for role in ("bridge_left", "bridge_right"):
            times.append(abs(dy) / by_role[role].max_wheel_speed)
        times.append(abs(dx) / by_role["carriage"].max_wheel_speed)
        if morph == "printer_bridge":
            p = by_role["leadscrew"]
            dtheta = abs(kin.leadscrew_delta(dz, cfg.lead_screw))
            times.append(dtheta / omega_max_oracle(p))
    elif morph == "wire2d_wall":
        geom = cfg.wire2d_geometry
        l_start = kin.wire2d_ik((seg.start[0], seg.start[1]), geom)
        l_end = kin.wire2d_ik((seg.end[0], seg.end[1]), geom)
        for i, role in enumerate(("extruder_spool_1", "extruder_spool_2")):
            rim = geom.spool_radius * omega_max_oracle(by_role[role])
            times.append(abs(l_end[i] - l_start[i]) / rim)
    elif morph == "wire3d_printer":
        geom = cfg.wire3d_geometry
        l_start = kin.wire3d_ik(seg.start, geom)
        l_end = kin.wire3d_ik(seg.end, geom)
        for i, role in enumerate(("extruder_spool_1", "extruder_spool_2",
                                  "extruder_spool_3")):
            rim = geom.spool_radius * omega_max_oracle(by_role[role])
            times.append(abs(l_end[i] - l_start[i]) / rim)
    return times


def time_parameterize_oracle(seg, cfg, roles=None):
    for point in (seg.start, seg.end):
        check = workspace_contains_oracle(cfg, point)
        if not check:
            raise OutOfWorkspace(
                f"segment endpoint {point} outside workspace: {check.reason}",
                reason=check.reason, line_no=seg.source_line)
    if roles is None:
        roles = coordinator.assign_roles(cfg)
    length = seg.length
    if length == 0.0:
        return 0.0
    duration = max(length / seg.feed, length / cfg.max_tool_speed)
    return max([duration] + axis_times_oracle(seg, cfg, roles))


def datum_wire_lengths_oracle(cfg, datum):
    if cfg.morphology == "wire2d_wall":
        return kin.wire2d_ik((datum[0], datum[1]), cfg.wire2d_geometry)
    if cfg.morphology == "wire3d_printer":
        return kin.wire3d_ik(datum, cfg.wire3d_geometry)
    return ()


def tool_setpoints_oracle(tool, cfg, roles, datum, datum_lengths):
    morph = cfg.morphology
    out = {}
    by_role = {role: rid for rid, role in roles.items() if role != "idle"}
    if morph in ("bridge_xy", "printer_bridge"):
        sol = kin.bridge_ik((tool[0], tool[1]), cfg.bridge_geometry)
        out[by_role["bridge_left"]] = Setpoint("move", *sol["bridge1"])
        out[by_role["bridge_right"]] = Setpoint("move", *sol["bridge2"])
        out[by_role["carriage"]] = Setpoint("move", tool[0], tool[1])
        if morph == "printer_bridge":
            theta = kin.leadscrew_delta(tool[2] - datum[2], cfg.lead_screw)
            out[by_role["leadscrew"]] = Setpoint(
                "rotate", *cfg.table_position, theta=theta)
    elif morph == "wire2d_wall":
        geom = cfg.wire2d_geometry
        lengths = kin.wire2d_ik((tool[0], tool[1]), geom)
        for i, role in enumerate(("extruder_spool_1", "extruder_spool_2")):
            theta = kin.spool_delta(lengths[i] - datum_lengths[i],
                                    geom.spool_radius)
            anchor = geom.anchors[i]
            out[by_role[role]] = Setpoint("rotate", anchor[0], anchor[1],
                                          theta=theta)
    elif morph == "wire3d_printer":
        geom = cfg.wire3d_geometry
        lengths = kin.wire3d_ik(tool, geom)
        for i, role in enumerate(("extruder_spool_1", "extruder_spool_2",
                                  "extruder_spool_3")):
            theta = kin.spool_delta(lengths[i] - datum_lengths[i],
                                    geom.spool_radius)
            anchor = geom.anchors[i]
            out[by_role[role]] = Setpoint("rotate", anchor[0], anchor[1],
                                          theta=theta)
        out[by_role["table"]] = Setpoint("move", *cfg.table_position)
    return out


def plan_segment_oracle(seg, cfg, roles=None, *, t0=0.0, datum=None,
                        datum_lengths=None, extrusion0=0.0,
                        include_start=True):
    if roles is None:
        roles = coordinator.assign_roles(cfg)
    if datum is None:
        datum = seg.start
    duration = time_parameterize_oracle(seg, cfg, roles)
    if datum_lengths is None:
        datum_lengths = datum_wire_lengths_oracle(cfg, datum)
    dt = cfg.dt_plan

    ticks = []
    extruding = seg.kind == "print"
    if t0 + duration == t0:
        # the dwell tick of a segment that does not move the plan clock: at
        # its end, which is its start unless the segment has a length
        sp = tool_setpoints_oracle(seg.end, cfg, roles, datum,
                                   datum_lengths)
        ticks.append(PlanTick(t0 + dt, sp, seg.end, extruding,
                              extrusion0 + seg.extrusion_delta,
                              seg.source_line))
        return ticks

    n = max(1, math.ceil(duration / dt - 1e-9))
    start = seg.start
    end = seg.end
    first = 0 if include_start else 1
    for i in range(first, n + 1):
        t = duration if i == n else i * dt
        frac = t / duration
        tool = tuple(s + (e - s) * frac for s, e in zip(start, end))
        if i == n:
            tool = end
        check = workspace_contains_oracle(cfg, tool)
        if not check:
            raise OutOfWorkspace(
                f"setpoint {tool} outside workspace: {check.reason}",
                reason=check.reason, line_no=seg.source_line)
        sp = tool_setpoints_oracle(tool, cfg, roles, datum, datum_lengths)
        ticks.append(PlanTick(t0 + t, sp, tool, extruding,
                              extrusion0 + seg.extrusion_delta * frac,
                              seg.source_line))
    return ticks


def direction_change_oracle(a, b):
    va = tuple(e - s for s, e in zip(a.start, a.end))
    vb = tuple(e - s for s, e in zip(b.start, b.end))
    na = math.sqrt(sum(c * c for c in va))
    nb = math.sqrt(sum(c * c for c in vb))
    if na == 0.0 or nb == 0.0:
        return 0.0
    cosang = sum(x * y for x, y in zip(va, vb)) / (na * nb)
    return math.acos(max(-1.0, min(1.0, cosang)))


def plan_program_oracle(segments, cfg):
    roles = coordinator.assign_roles(cfg)
    for prev, nxt in zip(segments, segments[1:]):
        if prev.end != nxt.start:
            raise PlanError(
                f"segments not chained at line {nxt.source_line}",
                line_no=nxt.source_line)

    ticks = []
    barriers = []
    if not segments:
        return Plan.from_ticks([], [], cfg.morphology)

    datum = segments[0].start
    time_parameterize_oracle(segments[0], cfg, roles)
    datum_lengths = datum_wire_lengths_oracle(cfg, datum)
    threshold = math.radians(cfg.barrier_angle_deg) - 1e-9
    t_cursor = 0.0
    extrusion = 0.0
    prev_seg = None
    for seg in segments:
        if prev_seg is not None and ticks:
            turn = direction_change_oracle(prev_seg, seg)
            kind_change = prev_seg.kind != seg.kind
            if turn >= threshold or kind_change:
                barriers.append(len(ticks) - 1)
        seg_ticks = plan_segment_oracle(
            seg, cfg, roles, t0=t_cursor, datum=datum,
            datum_lengths=datum_lengths, extrusion0=extrusion,
            include_start=prev_seg is None)
        ticks.extend(seg_ticks)
        if seg_ticks:
            t_cursor = seg_ticks[-1].t
        extrusion += seg.extrusion_delta
        prev_seg = seg
    barriers = sorted(set(barriers))
    return Plan.from_ticks(ticks, barriers, cfg.morphology)


def serialize_command_stream_oracle(plan, roster_order=None):
    """The serializer before the columnar plan: one f-string per record,
    from the PlanTicks of the plan's ticks view.  The robots of
    roster_order the plan has go first, each once, then its others."""
    lines = []
    seen_order = []
    ticks = plan.ticks
    for tick in ticks:
        ids = dict.fromkeys([*(roster_order or ()), *tick.setpoints])
        for rid in ids:
            if rid not in tick.setpoints:
                continue
            if rid not in seen_order:
                seen_order.append(rid)
            sp = tick.setpoints[rid]
            if sp.kind == "move":
                lines.append(
                    f"t={tick.t:.6f} id={rid} op=move x={sp.x:.6f} "
                    f"y={sp.y:.6f} line={tick.source_line}")
            else:
                lines.append(
                    f"t={tick.t:.6f} id={rid} op=rotate theta={sp.theta:.6f} "
                    f"line={tick.source_line}")
    if ticks:
        t_end = ticks[-1].t
        line = ticks[-1].source_line
        for rid in seen_order:
            lines.append(f"t={t_end:.6f} id={rid} op=stop line={line}")
    return "\n".join(lines) + ("\n" if lines else "")


def four_robot_config(morphology, ids=("r1", "r2", "r3", "r4")):
    """The scaffold config of a morphology with a roster of `ids`: every
    morphology can reconfigure into any other."""
    doc = config.default_config_doc(morphology)
    doc["roster"] = [{"id": rid} for rid in ids]
    return config.parse_config(doc)


def plan_fields(plan):
    """Every field of a plan: its columns as their dtype, shape and bytes,
    the others by repr."""
    values = (getattr(plan, f.name) for f in dataclasses.fields(plan))
    return [(v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray)
            else repr(v) for v in values]


def same_outcome(fn, oracle, *args, **kwargs):
    """Run a planner call and its oracle: both return the same Plan, down to
    every float's bits, each column's dtype and shape and the order of the
    robots (compared by bytes and repr as well as by ==), or both raise the
    same error with the same message, reason and line."""
    results = []
    for call in (fn, oracle):
        try:
            value = call(*args, **kwargs)
        except SwarmFabError as exc:
            results.append((type(exc), str(exc), getattr(exc, "reason", None),
                            getattr(exc, "line_no", None)))
        else:
            results.append((value, plan_fields(value)))
    got, expected = results
    assert got == expected
    return expected


# centre and half-extent (x, y) of a random walk per morphology, and its z
# range where the tool may leave the plane
WALKS = {
    "wire2d_wall": ((500.0, -400.0), (160.0, 130.0), None),
    "bridge_xy": ((200.0, 250.0), (140.0, 200.0), None),
    "printer_bridge": ((200.0, 250.0), (140.0, 200.0), (0.0, 150.0)),
    "wire3d_printer": ((200.0, 160.0), (90.0, 70.0), (20.0, 300.0)),
}


def random_walk_program(morphology, seed, moves):
    """A seeded drawing: short relative-E moves in a random walk with feed
    changes, full G2 loops, travel jumps, extrusion in place and, where
    the machine has a z axis, layer changes."""
    rng = random.Random(seed)
    (cx, cy), (hx, hy), z_range = WALKS[morphology]
    x, y = cx, cy
    heading = 0.0
    lines = ["G21", "G90", "M83", "G92 E0", f"G0 X{x:.3f} Y{y:.3f} F3000"]
    for k in range(moves):
        if k % 100 == 0:
            lines.append(f"G1 F{rng.choice((600, 1200, 1800, 3000))}")
        if k % 250 == 249:  # a full loop, kept inside the walk's box
            r = rng.uniform(3.0, 12.0)
            lines.append(f"G2 X{x:.3f} Y{y:.3f} I{-r if x > cx else r:.3f} "
                         f"J0 E{0.05 * r:.4f}")
        elif k % 300 == 299:  # a travel jump towards the middle
            heading = math.atan2(cy - y, cx - x) + rng.uniform(-1.0, 1.0)
            x += 40.0 * math.cos(heading)
            y += 40.0 * math.sin(heading)
            lines.append(f"G0 X{x:.3f} Y{y:.3f}")
        elif k % 150 == 149:
            lines.append("G1 E0.2")
        elif z_range is not None and k % 400 == 399:
            lines.append(f"G1 Z{rng.uniform(*z_range):.3f}")
        else:
            heading += rng.uniform(-0.6, 0.6)
            step = rng.uniform(0.5, 4.0)
            x += step * math.cos(heading)
            y += step * math.sin(heading)
            if abs(x - cx) > hx - 30.0 or abs(y - cy) > hy - 30.0:
                heading += math.pi  # turn back before the loops can leave
            lines.append(f"G1 X{x:.3f} Y{y:.3f} E{0.05 * step:.4f}")
    return "\n".join(lines) + "\n"


def segments_of(program, home):
    return gcode.interpret(gcode.parse_program(program), home=home).segments


# a tilted anchor plane and a box reaching above it; the segment's endpoints
# lie just below the margin, so rounding puts an interior tick above it
TILTED_DOC = config.default_config_doc("wire3d_printer")
TILTED_DOC["geometry"]["anchors"] = [[10.5, -3.25, 700.0],
                                     [390.0, 12.0, 650.0],
                                     [180.0, 410.0, 690.0]]
TILTED_DOC["workspace"] = {"min": [-100.0, -100.0, 0.0],
                           "max": [500.0, 500.0, 800.0]}
MARGIN_GRAZER = ((240.57891840610495, 197.20358181257723, 665.3955532761656),
                 (247.1637837670949, 242.49352326608118, 665.8941242853069))


class TestPlannerOracle:
    @pytest.mark.parametrize("morphology", coordinator.MORPHOLOGIES)
    @pytest.mark.parametrize("name,program", [c[:2] for c in CORPUS],
                             ids=[c[0] for c in CORPUS])
    def test_acceptance_corpus(self, morphology, name, program):
        cfg = config.default_config(morphology)
        expected = same_outcome(coordinator.plan_program,
                                plan_program_oracle,
                                segments_of(program, HOME), cfg)
        # the corpus lies in the plane z = 0 above the wall plotter's anchors
        assert isinstance(expected[0], Plan) == (morphology != "wire2d_wall")

    @pytest.mark.parametrize("morphology", sorted(WALKS))
    def test_random_walk(self, morphology):
        cfg = config.default_config(morphology)
        moves = 2000 if morphology == "wire2d_wall" else 500
        segments = segments_of(random_walk_program(morphology, 4, moves),
                               cfg.home)
        plan, _ = same_outcome(coordinator.plan_program, plan_program_oracle,
                               segments, cfg)
        assert plan.barriers
        assert any(s.length == 0.0 for s in segments)
        for s in segments[:300]:
            same_outcome(coordinator.plan_program, plan_program_oracle, [s],
                         cfg)

    @pytest.mark.parametrize("morphology", coordinator.MORPHOLOGIES)
    def test_extrusion_in_place_first_and_last(self, morphology):
        cfg = config.default_config(morphology)
        a = cfg.home
        b = (a[0] + 20.0, a[1] - 30.0, a[2])
        segments = [seg(a, a, e=1.0, line=1), seg(a, b, e=2.0, line=2),
                    seg(b, b, e=0.5, line=3)]
        plan, _ = same_outcome(coordinator.plan_program, plan_program_oracle,
                               segments, cfg)
        # the dwell tick is the only one at the start point
        assert [t.tool_target for t in plan.ticks].count(a) == 1

    @pytest.mark.parametrize("morphology", coordinator.MORPHOLOGIES)
    def test_segment_whose_duration_underflows(self, morphology):
        # 5e-324 mm at any feed takes 0.0 s: one dwell tick at the segment's
        # end, as for extrusion in place, not a second tick at the same t
        cfg = config.default_config(morphology)
        a = cfg.home
        b = (a[0] + 20.0, a[1] - 30.0, a[2])
        c = (b[0], b[1] + 5e-324, b[2])
        segments = [seg(a, b, line=1), seg(b, c, line=2),
                    seg(c, a, e=1.0, line=3)]
        plan, _ = same_outcome(coordinator.plan_program, plan_program_oracle,
                               segments, cfg)
        times = [t.t for t in plan.ticks]
        assert times == sorted(set(times))
        assert [(t.source_line, t.tool_target) for t in plan.ticks
                if t.source_line == 2] == [(2, c)]

    def test_segment_too_short_for_the_clock(self):
        # 1.1e-308 mm takes a duration that 0.4 s + duration rounds back to
        # 0.4 s: one dwell tick a plan period later, not two at one time
        cfg = config.default_config("bridge_xy")
        segments = [seg((200, 0, 0), (210, 0, 0), feed=25.0, line=1),
                    seg((210, 0, 0), (210, 1.1e-308, 0), feed=25.0, line=2)]
        plan, _ = same_outcome(coordinator.plan_program, plan_program_oracle,
                               segments, cfg)
        assert plan.t[-2:].tolist() == [0.4, 0.5] and plan.source_line[-1] == 2
        stream = coordinator.serialize_command_stream(plan)
        stamps = [line.split()[:2] for line in stream.splitlines()
                  if "op=stop" not in line]
        assert len(stamps) == len(set(map(tuple, stamps))) == 3 * len(plan.t)

    def test_start_with_the_other_zero(self):
        # lines 2 and 4 start at y -0.0 where the line before ends at 0.0
        # (== holds, so the segments are chained).  Interpolated from its
        # own start, line 2's first ticks have y -0.0; the zero-length line
        # 4 has its bridge robots at its own end's y, -0.0, not at the IK of
        # the end before
        doc = config.default_config_doc("bridge_xy")
        doc["workspace"]["min"][1] = -10.0
        cfg = config.parse_config(doc)
        segments = [seg((200, 10, 0), (200, 0.0, 0), line=1),
                    seg((200, -0.0, 0), (210, -5e-324, 0), line=2),
                    seg((210, -5e-324, 0), (210, 0.0, 0), line=3),
                    seg((210, -0.0, 0), (210, -0.0, 0), e=1.0, line=4)]
        plan, _ = same_outcome(coordinator.plan_program, plan_program_oracle,
                               segments, cfg)
        assert "-0.0" in repr([t for t, line in zip(plan.tool_target.tolist(),
                                                    plan.source_line)
                               if line == 2])
        assert repr(plan.setpoints[-1, :2].tolist()) == "[0.0, -0.0]"

    def test_endpoint_outside(self, wire2d_config):
        program = random_walk_program("wire2d_wall", 5, 40)
        segments = segments_of(program + "G1 X500 Y-100\nG1 X520\n",
                               wire2d_config.home)
        _, message, reason, line = same_outcome(
            coordinator.plan_program, plan_program_oracle, segments,
            wire2d_config)
        assert (message.startswith("segment endpoint (500.0, -100.0, 0.0)")
                and reason == "OutsideBox" and line == 47)
        same_outcome(coordinator.plan_program, plan_program_oracle,
                     [segments[-2]], wire2d_config)

    def test_interior_tick_outside(self):
        cfg = config.parse_config(TILTED_DOC)
        good = seg((200.0, 150.0, 300.0), MARGIN_GRAZER[0], line=6)
        grazer = seg(*MARGIN_GRAZER, feed=20.0, line=7)
        for segments in ([good, grazer], [grazer]):
            _, message, reason, line = same_outcome(
                coordinator.plan_program, plan_program_oracle, segments, cfg)
            assert (message.startswith("setpoint ")
                    and reason == "AboveAnchors" and line == 7)
        # the grazer's ends are inside: with a plan period longer than the
        # grazer it has no interior tick, and it plans
        coarse = dataclasses.replace(cfg, dt_plan=100.0)
        plan, _ = same_outcome(coordinator.plan_program, plan_program_oracle,
                               [grazer], coarse)
        assert ([tick.tool_target for tick in plan.ticks] == list(MARGIN_GRAZER)
                and plan.t[-1] > 0.0)

    def test_interior_tick_outside_before_a_later_endpoint(self):
        # the grazer's interior tick comes before the next segment's end,
        # which is outside too
        cfg = config.parse_config(TILTED_DOC)
        good = seg((200.0, 150.0, 300.0), MARGIN_GRAZER[0], line=6)
        grazer = seg(*MARGIN_GRAZER, feed=20.0, line=7)
        away = seg(MARGIN_GRAZER[1], (900.0, 0.0, 0.0), line=8)
        _, message, reason, line = same_outcome(
            coordinator.plan_program, plan_program_oracle,
            [good, grazer, away], cfg)
        assert (message.startswith("setpoint ")
                and reason == "AboveAnchors" and line == 7)

    @pytest.mark.parametrize("morphology,start,end", [
        ("wire2d_wall", (500, 10, 0), (500, -300, 0)),
        ("wire3d_printer", (200, 100, 600), (200, 100, 50)),
        ("bridge_xy", (10, 100, 0), (200, 100, 0))])
    def test_datum_outside(self, morphology, start, end):
        cfg = config.default_config(morphology)
        _, message, reason, line = same_outcome(
            coordinator.plan_program, plan_program_oracle,
            [seg(start, end, line=4)], cfg)
        assert message.startswith("segment endpoint") and line == 4


def slow_roster_doc(morphology):
    """The scaffold config doc of a morphology whose robots all crawl at
    1e-6 mm/s: a 10 mm move takes 1e7 s, 1e8 ticks at dt_plan 0.1 s."""
    doc = config.default_config_doc(morphology)
    doc["roster"] = [{**entry, "max_wheel_speed": 1e-6}
                     for entry in doc["roster"]]
    return doc


def clock_oracle(durations, dt):
    """The plan clock as a loop over segments: the start times from 0.0,
    and the interior ticks, of which a segment too short to move the clock
    has none; it dwells one tick at its end."""
    ticks = np.maximum(1.0, np.ceil(durations / dt - 1e-9))
    t0, first = 0.0, 0
    times, interior = [t0], []
    for duration, n in zip(durations.tolist(), ticks.tolist()):
        if t0 + duration == t0:
            t0 += dt
            n = first
        else:
            t0 += duration
        times.append(t0)
        interior.append(n - first)
        first = 1
    return np.array(times), np.array(interior).astype(np.int64)


class TestPlanClock:
    """The vectorized clock gives the loop's times and tick counts bit for
    bit, both where np.cumsum serves and where a segment too short to move
    the clock sends it to the loop."""

    def same_clock(self, segments, cfg):
        segs, _, durations, error = coordinator._segment_pass(
            cfg, gcode.Segments.of(segments))
        assert error is None
        times, interior = coordinator._clock(durations, segs.line,
                                             cfg.dt_plan)
        want_times, want_interior = clock_oracle(durations, cfg.dt_plan)
        assert times.dtype == want_times.dtype
        assert times.tobytes() == want_times.tobytes()
        assert interior.tobytes() == want_interior.tobytes()
        same_outcome(coordinator.plan_program, plan_program_oracle, segments,
                     cfg)
        return times, interior, durations

    @pytest.mark.parametrize("morphology", sorted(WALKS))
    def test_random_walk(self, morphology):
        # 140 moves come before the walk's first extrusion in place, so
        # every segment moves the clock and np.cumsum gives the times
        cfg = config.default_config(morphology)
        segments = segments_of(random_walk_program(morphology, 9, 140),
                               cfg.home)
        times, _, durations = self.same_clock(segments, cfg)
        assert times[1:].tobytes() == np.cumsum(durations).tobytes()
        assert len(segments) > 100

    def test_extrusion_only_segments(self):
        # E-only moves take no time, so each dwells a tick at its end
        cfg = config.default_config("bridge_xy")
        a, b = (200.0, 100.0, 0.0), (230.0, 110.0, 0.0)
        segments = [seg(a, b, e=1.0, line=1), seg(b, b, e=0.5, line=2),
                    seg(b, b, e=0.5, line=3), seg(b, a, e=1.0, line=4),
                    seg(a, a, e=0.2, line=5)]
        times, interior, _ = self.same_clock(segments, cfg)
        assert interior[[1, 2, 4]].tolist() == [0, 0, 0]
        assert times[2] == times[1] + cfg.dt_plan

    def test_tiny_segment_at_a_large_time(self):
        # after 3e5 s, 1e-9 mm at 50 mm/s is too short to move the clock
        doc = config.default_config_doc("bridge_xy")
        doc["planning"]["dt_plan"] = 100.0
        cfg = config.parse_config(doc)
        a, b = (50.0, 100.0, 0.0), (350.0, 100.0, 0.0)
        c = (350.0, 100.0 + 1e-9, 0.0)
        segments = [seg(a, b, feed=0.001, line=1), seg(b, c, line=2),
                    seg(c, a, line=3)]
        times, interior, _ = self.same_clock(segments, cfg)
        assert times[1] == 3e5 and times[2] == times[1] + 100.0
        assert interior[1] == 0


class TestTickBound:
    def test_too_many_ticks_raise_at_the_segment(self):
        from test_cli import SQUARE
        cfg = config.parse_config(slow_roster_doc("bridge_xy"))
        segments = segments_of(SQUARE, cfg.home)
        start = time.perf_counter()
        with pytest.raises(PlanError) as err:
            coordinator.plan_program(segments, cfg)
        assert time.perf_counter() - start < 1.0
        # the first move already passes the bound
        assert err.value.line_no == segments[0].source_line == 2
        assert f"{coordinator.MAX_PLAN_TICKS} ticks" in str(err.value)

    def test_running_total_names_the_segment_that_passes(self):
        # 6 s of 0.1 s ticks per segment: 61 ticks for the first, 60 for
        # each after it, so the bound falls inside the segment of line k
        cfg = config.default_config("bridge_xy")
        bound = coordinator.MAX_PLAN_TICKS
        a, b = (100.0, 100.0, 0.0), (130.0, 100.0, 0.0)
        segments = [seg(a if k % 2 else b, b if k % 2 else a, feed=5.0,
                        line=k + 1) for k in range(bound // 60 + 2)]
        k = (bound - 61) // 60 + 2
        with pytest.raises(PlanError) as err:
            coordinator.plan_program(segments, cfg)
        assert err.value.line_no == k
        assert len(coordinator.plan_program(segments[:k - 1], cfg).t)

    def test_duration_too_long_for_a_float(self):
        # a 10 mm wire travel at a spool rim speed of about 1.5e-308 mm/s
        doc = slow_roster_doc("wire2d_wall")
        doc["roster"] = [{**entry, "max_wheel_speed": 1e-308}
                         for entry in doc["roster"]]
        cfg = config.parse_config(doc)
        s = seg(cfg.home, (cfg.home[0] + 10.0, cfg.home[1], 0.0), line=3)
        with pytest.raises(PlanError) as err:
            coordinator.plan_program([s], cfg)
        assert err.value.line_no == 3

    def test_speed_limit_that_underflows_to_zero(self):
        # 5e-324 mm/s robots: the spool rim speed limit is 0.0.  A segment
        # without travel dwells, as before; one with travel has no finite
        # duration
        doc = slow_roster_doc("wire2d_wall")
        doc["roster"] = [{**entry, "max_wheel_speed": 5e-324}
                         for entry in doc["roster"]]
        cfg = config.parse_config(doc)
        home = cfg.home
        dwell = seg(home, home, e=1.0, line=3)
        plan, _ = same_outcome(coordinator.plan_program, plan_program_oracle,
                               [dwell], cfg)
        assert plan.t.tolist() == [cfg.dt_plan]
        move = seg(home, (home[0] + 10.0, home[1], 0.0), line=4)
        with pytest.raises(PlanError) as err:
            coordinator.plan_program([dwell, move], cfg)
        assert err.value.line_no == 4

    def test_zero_feed(self):
        # g-code rejects F0, but a MotionSegment may carry it: extrusion in
        # place dwells as before, a move has no finite duration
        cfg = config.default_config("bridge_xy")
        home = cfg.home
        dwell = seg(home, home, feed=0.0, e=1.0, line=3)
        same_outcome(coordinator.plan_program, plan_program_oracle, [dwell],
                     cfg)
        move = seg(home, (home[0] + 10.0, home[1], 0.0), feed=0.0, line=4)
        with pytest.raises(PlanError) as err:
            coordinator.plan_program([dwell, move], cfg)
        assert err.value.line_no == 4


def plan_peak_over_kept(segments, cfg):
    """What planning the segments holds at its peak beyond the Plan it
    returns (tracemalloc), and the Plan."""
    coordinator.plan_program(segments[:2], cfg)  # numpy's first-call caches
    tracemalloc.start()
    try:
        plan = coordinator.plan_program(segments, cfg)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - kept, plan


def test_plan_peak_memory_near_what_the_plan_keeps(monkeypatch):
    """While it plans, the planner holds the Plan it returns and about 90 B
    a segment of arrays of one row per segment (its points, IK solutions,
    durations, clock and tick marks).  On top of these it writes the
    segments' end ticks, and then their interior ticks, BLOCK_TICKS at a
    time, with about 80 B a segment and 190 B a tick of the block of
    setpoint temporaries, never those of the whole plan.  The segments'
    columns, which the segment pass transposes, go when that pass ends.
    At a 0.02 s plan period the walk spans eight blocks of interior ticks:
    planned in one block, it peaks at 5.7 MB over what the Plan keeps,
    against 1.1 MB block by block; in blocks of 256 ticks it peaks at
    0.71 MB, and at 0.88 MB if its end ticks are written all at once."""
    cfg = dataclasses.replace(config.default_config("wire2d_wall"),
                              dt_plan=0.02)
    segments = segments_of(random_walk_program("wire2d_wall", 4, 6000),
                           cfg.home)
    blocks = coordinator.BLOCK_TICKS
    for block_ticks in (blocks, 256):
        monkeypatch.setattr(coordinator, "BLOCK_TICKS", block_ticks)
        over, plan = plan_peak_over_kept(segments, cfg)
        assert over <= 100 * len(segments) + 200 * block_ticks
    assert len(plan.t) - len(segments) > 7 * blocks


def test_plan_peak_memory_of_a_few_long_segments():
    # three segments of 80,525 ticks: only one block of ticks at a time is
    # held beyond the 7.8 MB Plan
    cfg = config.default_config("wire2d_wall")
    segments = segments_of("G1 X300 Y-300 F600\nG1 X700 Y-300 F3\n"
                           "G1 X700 Y-600 F600\n", cfg.home)
    over, plan = plan_peak_over_kept(segments, cfg)
    assert len(segments) == 3 and len(plan.t) == 80_525
    assert over <= 3_000_000


class TestBlockTicks:
    """The tick pass gives the same plan, and the same error, whatever the
    size of its blocks."""

    @staticmethod
    def outcome(segments, cfg, monkeypatch, block_ticks):
        monkeypatch.setattr(coordinator, "BLOCK_TICKS", block_ticks)
        try:
            return coordinator.plan_program(segments, cfg)
        except SwarmFabError as exc:
            return type(exc), str(exc), exc.line_no

    @pytest.mark.parametrize("morphology", coordinator.MORPHOLOGIES)
    def test_walks(self, morphology, monkeypatch):
        cfg = config.default_config(morphology)
        for seed in range(3):
            segments = segments_of(random_walk_program(morphology, seed, 40),
                                   cfg.home)
            whole = self.outcome(segments, cfg, monkeypatch, 10**9)
            assert len(whole.t) > 7
            for block_ticks in (1, 2, 7, len(whole.t) + 1):
                assert self.outcome(segments, cfg, monkeypatch,
                                    block_ticks) == whole

    def test_interior_tick_outside_on_every_block_edge(self, monkeypatch):
        # block sizes up to the interior tick count put the grazer's tick
        # outside on each position of a block, the edges included
        cfg = config.parse_config(TILTED_DOC)
        good = seg((200.0, 150.0, 300.0), MARGIN_GRAZER[0], line=6)
        grazer = seg(*MARGIN_GRAZER, feed=20.0, line=7)
        away = seg(MARGIN_GRAZER[1], (900.0, 0.0, 0.0), line=8)
        segments = [good, grazer, away]
        error = self.outcome(segments, cfg, monkeypatch, 10**9)
        assert (error[0] is OutOfWorkspace
                and error[1].startswith("setpoint ") and error[2] == 7)
        segs, _, durations, _ = coordinator._segment_pass(
            cfg, gcode.Segments.of(segments[:2]))
        interior = coordinator._clock(durations, segs.line,
                                      cfg.dt_plan)[1].sum()
        for block_ticks in range(1, interior + 2):
            assert self.outcome(segments, cfg, monkeypatch,
                                block_ticks) == error


class TestAssignRoles:
    def test_bridge_three_robots(self, bridge_config):
        roles = coordinator.assign_roles(bridge_config)
        assert roles == {"r1": "bridge_left", "r2": "bridge_right",
                         "r3": "carriage"}

    def test_insufficient(self, bridge_config):
        short = config.default_config_doc("bridge_xy")
        short["roster"] = short["roster"][:2]
        cfg = config.parse_config(short)
        with pytest.raises(InsufficientRobots) as err:
            coordinator.assign_roles(cfg)
        assert err.value.needed == 3
        assert err.value.available == 2

    def test_surplus_becomes_spare(self):
        doc = config.default_config_doc("wire3d_printer")
        doc["roster"].append({"id": "r5"})
        cfg = config.parse_config(doc)
        roles = coordinator.assign_roles(cfg)
        assert roles["r5"] == "idle"
        assert sorted(roles.values()).count("idle") == 1


class TestMachineConfig:
    @pytest.mark.parametrize("morphology,missing", [
        ("bridge_xy", "bridge_geometry"),
        ("printer_bridge", "bridge_geometry"),
        ("printer_bridge", "lead_screw"),
        ("wire2d_wall", "wire2d_geometry"),
        ("wire3d_printer", "wire3d_geometry"),
    ])
    def test_missing_geometry_rejected_when_built(self, morphology, missing):
        cfg = config.default_config(morphology)
        with pytest.raises(ValueError, match=f"{morphology} config needs a "
                                             f"{missing}"):
            dataclasses.replace(cfg, **{missing: None})

    def test_unknown_morphology_rejected(self):
        # the config parser rejects it first; this checks a config built
        # in code
        cfg = config.default_config("bridge_xy")
        with pytest.raises(ValueError, match="^unknown morphology 'bogus'$"):
            dataclasses.replace(cfg, morphology="bogus")

    def test_duplicate_robot_ids_rejected(self):
        # a repeated id would take two roles in assign_roles and keep one
        cfg = config.default_config("bridge_xy")
        r1 = cfg.roster[0]
        with pytest.raises(ValueError, match="duplicate robot ids in roster: "
                                             "r1$"):
            dataclasses.replace(cfg, roster=(r1, r1) + cfg.roster[2:])

    @pytest.mark.parametrize("axis", range(3))
    def test_inverted_workspace_rejected(self, axis):
        cfg = config.default_config("printer_bridge")
        lo = list(cfg.workspace_min)
        lo[axis] = cfg.workspace_max[axis] + 1.0
        with pytest.raises(ValueError, match="^workspace_min must be <= "
                                             "workspace_max componentwise$"):
            dataclasses.replace(cfg, workspace_min=tuple(lo))
        lo[axis] = cfg.workspace_max[axis]
        assert dataclasses.replace(cfg, workspace_min=tuple(lo))

    @pytest.mark.parametrize("morphology", coordinator.MORPHOLOGIES)
    def test_machine_is_derived(self, morphology):
        cfg = config.default_config(morphology)
        again = dataclasses.replace(cfg)
        assert again.machine is not cfg.machine
        assert again == cfg and hash(again) == hash(cfg)
        assert "machine" not in repr(cfg)
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(cfg, machine=cfg.machine)


SHORT_ROSTER_CALLS = {
    "plan_program": lambda s, cfg: coordinator.plan_program([s], cfg),
    "plan_program_empty": lambda s, cfg: coordinator.plan_program([], cfg),
    "initial_robot_positions":
        lambda s, cfg: coordinator.initial_robot_positions(cfg),
    "assign_roles": lambda s, cfg: coordinator.assign_roles(cfg),
    # a reconfiguration into the config itself checks its roster first
    "reconfigure": lambda s, cfg: coordinator.reconfigure(cfg, cfg),
}


class TestShortRoster:
    @pytest.mark.parametrize("zero_length", [False, True])
    @pytest.mark.parametrize("call", sorted(SHORT_ROSTER_CALLS))
    @pytest.mark.parametrize("morphology", coordinator.MORPHOLOGIES)
    def test_raises_insufficient_robots(self, morphology, call, zero_length):
        full = config.default_config(morphology)
        short = dataclasses.replace(full, roster=full.roster[:-1])
        home = full.home
        end = home if zero_length else (home[0] + 10.0, home[1] - 10.0,
                                        home[2])
        s = seg(home, end, e=1.0)
        fn = SHORT_ROSTER_CALLS[call]
        fn(s, full)  # the full roster plans the same segment
        with pytest.raises(InsufficientRobots) as err:
            fn(s, short)
        assert err.value.needed == len(full.roster)
        assert err.value.available == len(full.roster) - 1


def duration(s, cfg):
    """The planned duration of one segment."""
    return coordinator.plan_program([s], cfg).t[-1]


class TestTimeParameterize:
    """A segment's feed- and actuator-limited duration, as plan_program
    times it."""

    def test_feed_limited(self, bridge_config):
        s = seg((200, 100, 0), (300, 100, 0), feed=50.0)
        assert duration(s, bridge_config) == pytest.approx(2.0)

    def test_robot_limited(self, bridge_config):
        s = seg((200, 100, 0), (300, 100, 0), feed=500.0)
        cfg = config.parse_config({**config.default_config_doc("bridge_xy"),
                                   "limits": {"max_tool_speed": 500.0,
                                              "sync_tol": 1.0}})
        assert duration(s, cfg) == pytest.approx(100.0 / 115.0)

    def test_wire2d_spool_limit(self, wire2d_config):
        s = seg((300, -500, 0), (700, -200, 0), feed=1e6)
        cfg = config.parse_config({**config.default_config_doc("wire2d_wall"),
                                   "limits": {"max_tool_speed": 1e6,
                                              "sync_tol": 1.0}})
        geom = cfg.wire2d_geometry
        params = cfg.roster[0].params
        omega_max = 2 * params.max_wheel_speed / params.wheel_track
        l0 = kin.wire2d_ik((300, -500), geom)
        l1 = kin.wire2d_ik((700, -200), geom)
        needed = max(abs(a - b) for a, b in zip(l0, l1)) / (geom.spool_radius * omega_max)
        assert duration(s, cfg) == pytest.approx(needed)

    def test_out_of_workspace(self, bridge_config):
        s = seg((200, 100, 0), (900, 100, 0))
        with pytest.raises(OutOfWorkspace):
            coordinator.plan_program([s], bridge_config)


class TestPlanSegment:
    """A segment's ticks, as plan_program samples it."""

    def test_tick_count_and_spacing(self, bridge_config):
        s = seg((200, 100, 0), (300, 100, 0), feed=50.0)
        ticks = coordinator.plan_program([s], bridge_config).ticks
        assert len(ticks) == 21
        for a, b in zip(ticks, ticks[1:]):
            gap = math.dist(a.tool_target, b.tool_target)
            assert gap == pytest.approx(5.0, abs=1e-9)
        assert ticks[-1].tool_target == (300.0, 100.0, 0.0)

    def test_extrude_in_place_single_tick(self, bridge_config):
        s = seg((200, 100, 0), (200, 100, 0), e=2.0)
        ticks = coordinator.plan_program([s], bridge_config).ticks
        assert len(ticks) == 1
        assert ticks[0].extruding

    def test_wire2d_setpoints_match_ik(self, wire2d_config):
        s = seg((400, -500, 0), (600, -300, 0), feed=30.0)
        roles = coordinator.assign_roles(wire2d_config)
        ticks = coordinator.plan_program([s], wire2d_config).ticks
        geom = wire2d_config.wire2d_geometry
        datum = kin.wire2d_ik((400, -500), geom)
        by_role = {role: rid for rid, role in roles.items()}
        for tick in ticks:
            lengths = kin.wire2d_ik((tick.tool_target[0], tick.tool_target[1]),
                                    geom)
            for i, role in enumerate(("extruder_spool_1", "extruder_spool_2")):
                sp = tick.setpoints[by_role[role]]
                expected = (lengths[i] - datum[i]) / geom.spool_radius
                assert sp.theta == pytest.approx(expected, abs=1e-9)

    def test_bridge_y_equality(self, bridge_config):
        s = seg((100, 50, 0), (300, 400, 0), feed=40.0)
        ticks = coordinator.plan_program([s], bridge_config).ticks
        for tick in ticks:
            ys = [sp.y for sp in tick.setpoints.values() if sp.kind == "move"]
            b1 = tick.setpoints["r1"]
            b2 = tick.setpoints["r2"]
            assert b1.y == b2.y


class TestPlanProgram:
    def square(self):
        pts = [(210, 110, 0), (230, 110, 0), (230, 130, 0), (210, 130, 0),
               (210, 110, 0)]
        return [seg(a, b, feed=20.0, e=1.0, line=i + 1)
                for i, (a, b) in enumerate(zip(pts, pts[1:]))]

    def test_square_corner_barriers(self, bridge_config):
        plan = coordinator.plan_program(self.square(), bridge_config)
        assert len(plan.barriers) == 3  # three interior 90-degree corners

    def test_collinear_no_barriers(self, bridge_config):
        segs = [seg((100, 100, 0), (150, 100, 0), line=1),
                seg((150, 100, 0), (200, 100, 0), line=2),
                seg((200, 100, 0), (300, 100, 0), line=3)]
        plan = coordinator.plan_program(segs, bridge_config)
        assert plan.barriers == []

    def test_print_travel_transition_barrier(self, bridge_config):
        segs = [seg((100, 100, 0), (200, 100, 0), e=1.0, line=1),
                seg((200, 100, 0), (300, 100, 0), line=2)]
        plan = coordinator.plan_program(segs, bridge_config)
        assert len(plan.barriers) == 1

    def test_not_chained(self, bridge_config):
        segs = [seg((100, 100, 0), (200, 100, 0), line=1),
                seg((201, 100, 0), (300, 100, 0), line=2)]
        with pytest.raises(PlanError):
            coordinator.plan_program(segs, bridge_config)

    def test_not_chained_names_first_break(self, bridge_config):
        segs = [seg((100, 100, 0), (200, 100, 0), line=1),
                seg((200, 100, 0), (250, 100, 0), line=2),
                seg((251, 100, 0), (300, 100, 0), line=3),
                seg((301, 100, 0), (350, 100, 0), line=4)]
        with pytest.raises(PlanError) as err:
            coordinator.plan_program(segs, bridge_config)
        assert (str(err.value), err.value.line_no) == (
            "segments not chained at line 3", 3)

    def test_times_strictly_increasing(self, bridge_config):
        plan = coordinator.plan_program(self.square(), bridge_config)
        times = [t.t for t in plan.ticks]
        assert all(b > a for a, b in zip(times, times[1:]))

    @pytest.mark.parametrize("morphology,start,end", [
        ("wire2d_wall", (500, 10, 0), (500, -300, 0)),
        ("wire3d_printer", (200, 100, 600), (200, 100, 50))])
    def test_datum_outside_workspace_names_line(self, morphology, start, end):
        cfg = config.default_config(morphology)
        with pytest.raises(OutOfWorkspace) as err:
            coordinator.plan_program([seg(start, end, line=4)], cfg)
        assert err.value.line_no == 4

    def test_wire3d_spool_targets_relative_to_datum(self, wire3d_config):
        pts = [(200, 120, 50), (230, 120, 50), (230, 150, 60), (180, 90, 40)]
        segs = [seg(a, b, line=i + 1)
                for i, (a, b) in enumerate(zip(pts, pts[1:]))]
        plan = coordinator.plan_program(segs, wire3d_config)
        geom = wire3d_config.wire3d_geometry
        datum = kin.wire3d_ik(pts[0], geom)
        spools = [e.id for e in wire3d_config.roster[:3]]
        for tick in plan.ticks:
            lengths = kin.wire3d_ik(tick.tool_target, geom)
            assert [tick.setpoints[rid].theta for rid in spools] == [
                kin.spool_delta(l - l0, geom.spool_radius)
                for l, l0 in zip(lengths, datum)]

    def test_feed_respect(self, bridge_config):
        plan = coordinator.plan_program(self.square(), bridge_config)
        limit = 20.0 * bridge_config.dt_plan + 1e-9
        for a, b in zip(plan.ticks, plan.ticks[1:]):
            assert math.dist(a.tool_target, b.tool_target) <= limit

    def test_coverage_of_commanded_polyline(self, bridge_config):
        segs = self.square()
        plan = coordinator.plan_program(segs, bridge_config)
        from swarmfab.sim import point_polyline_distance
        for tick in plan.ticks:
            assert point_polyline_distance(tick.tool_target, segs) <= 1e-9
        ends = {s.end for s in segs} | {segs[0].start}
        targets = {t.tool_target for t in plan.ticks}
        assert ends <= targets

    def test_determinism(self, bridge_config):
        a = coordinator.plan_program(self.square(), bridge_config)
        b = coordinator.plan_program(self.square(), bridge_config)
        assert a == b

    def test_empty(self, bridge_config):
        plan = coordinator.plan_program([], bridge_config)
        assert plan.ticks == [] and plan.barriers == []


def turns_oracle(segs, barrier_angle_deg):
    """_turns with math.acos of every row's cosine."""
    d = segs.ends - segs.starts
    norm = np.sqrt((d * d).sum(1))
    a, b = d[:-1], d[1:]
    product = norm[:-1] * norm[1:]
    cosang = np.divide(a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1]
                       + a[:, 2] * b[:, 2], product,
                       out=np.ones_like(product),
                       where=(norm[:-1] != 0.0) & (norm[1:] != 0.0))
    cosang = np.maximum(-1.0, np.minimum(1.0, cosang))
    angle = np.array([math.acos(c) for c in cosang.tolist()])
    threshold = math.radians(barrier_angle_deg) - 1e-9
    return (segs.kind[1:] != segs.kind[:-1]) | (angle >= threshold)


def polyline(directions, kinds=None):
    """Chained segments along unit-free direction vectors from the origin."""
    points = np.concatenate(([[0.0, 0.0, 0.0]],
                             np.cumsum(np.array(directions, float), 0)))
    kinds = kinds or ["travel"] * len(directions)
    return gcode.Segments(points[:-1], points[1:],
                          np.full(len(directions), 10.0),
                          np.zeros(len(directions)), np.array(kinds),
                          np.arange(1, len(directions) + 1))


class TestTurns:
    """_turns decides most rows by comparing cosines, and must give the
    barriers math.acos of every row gives, bit for bit."""

    SETTINGS = (0.0, 1e-7, 0.5, 30.0, 45.0, 90.0, 135.0, 179.9, 180.0)

    def same(self, segs):
        for setting in self.SETTINGS:
            assert (coordinator._turns(segs, setting).tolist()
                    == turns_oracle(segs, setting).tolist()), setting

    def test_pinned_corners(self):
        # right angles (exactly 90 degrees, cosine 0.0), a reversal, a
        # straight run, a zero-length segment and a change of kind
        directions = [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0),
                      (0, 0, 1), (0, 0, -1), (0, 0, -1), (0, 0, 0),
                      (1, 0, 0), (1, 1, 0), (1, 0, 0)]
        segs = polyline(directions, ["travel"] * 10 + ["print"])
        self.same(segs)
        assert coordinator._turns(segs, 90.0).tolist() == [
            True, True, True, True, True, False, False, False, False, True]
        assert coordinator._turns(segs, 0.0).all()
        assert coordinator._turns(segs, 180.0).tolist() == [
            False, False, False, False, True, False, False, False, False,
            True]

    def test_turns_at_the_threshold(self):
        # corners whose cosine lies within and beyond _COS_MARGIN of each
        # setting's: the cosines next to it round to its angle
        for setting in self.SETTINGS:
            edge = math.cos(math.radians(setting) - 1e-9)
            cosines = [edge] + [edge + k * 10.0 ** e for e in range(-18, -5)
                                for k in (-3, -1, 1, 3)]
            up = down = edge
            for _ in range(8):  # and the cosines a few ulps away
                up, down = math.nextafter(up, 2.0), math.nextafter(down, -2.0)
                cosines += [up, down]
            directions = [(1.0, 0.0, 0.0)]
            for c in cosines:
                c = min(max(c, -1.0), 1.0)
                directions += [(c, math.sqrt(1.0 - c * c), 0.0),
                               (1.0, 0.0, 0.0)]
            self.same(polyline(directions))

    def test_not_finite(self):
        inf, nan = math.inf, math.nan
        with np.errstate(invalid="ignore", over="ignore"):
            self.same(polyline([(1, 0, 0), (inf, 1, 0), (1, 0, 0),
                                (nan, 0, 0), (0, 1, 0), (1e300, 1e300, 0),
                                (-1, 0, 0)]))

    @pytest.mark.parametrize("morphology", coordinator.MORPHOLOGIES)
    def test_random_walk(self, morphology):
        text = random_walk_program(morphology, 7, 600)
        self.same(gcode.interpret(gcode.parse_program(text)).segments)


class TestPlanColumns:
    @pytest.mark.parametrize("morphology", coordinator.MORPHOLOGIES)
    def test_from_ticks_round_trip(self, morphology):
        cfg = four_robot_config(morphology)
        segments = segments_of(random_walk_program(morphology, 3, 200),
                               cfg.home)
        for plan in (coordinator.plan_program(segments, cfg),
                     coordinator.plan_program([], cfg),
                     coordinator.reconfigure(
                         four_robot_config("wire2d_wall"), cfg)):
            again = Plan.from_ticks(plan.ticks, plan.barriers,
                                    plan.morphology)
            assert again == plan and repr(again) == repr(plan)

    def test_rows_follow_ids_and_kinds(self, printer_bridge_config):
        plan = coordinator.plan_program(
            [seg((210, 110, 0), (230, 110, 20), line=1)],
            printer_bridge_config)
        assert plan.ids == ("r1", "r2", "r3", "r4")
        assert plan.kinds == ("move", "move", "move", "rotate")
        tick = plan.ticks[-1]
        assert tick.setpoints["r3"] == Setpoint("move", 230.0, 110.0)
        assert tuple(plan.setpoints[-1, 9:].tolist()) == (
            *printer_bridge_config.table_position,
            tick.setpoints["r4"].theta)

    @pytest.mark.parametrize("morphology", coordinator.MORPHOLOGIES)
    def test_column_dtypes_and_shapes(self, morphology):
        cfg = four_robot_config(morphology)
        segments = segments_of(random_walk_program(morphology, 3, 40),
                               cfg.home)
        planned = coordinator.plan_program(segments, cfg)
        for plan in (planned, coordinator.plan_program([], cfg),
                     coordinator.reconfigure(
                         four_robot_config("wire2d_wall"), cfg),
                     Plan.from_ticks(planned.ticks[:1], [], morphology)):
            n, width = len(plan.t), 3 * len(plan.ids)
            assert [(c.dtype, c.shape) for c in (
                plan.t, plan.tool_target, plan.extruding,
                plan.extrusion_total, plan.source_line, plan.setpoints)] == [
                (np.float64, (n,)), (np.float64, (n, 3)), (np.bool_, (n,)),
                (np.float64, (n,)), (np.int64, (n,)),
                (np.float64, (n, width))]

    def test_equality_is_exact(self, bridge_config):
        plan = coordinator.plan_program(
            [seg((200, 100, 0), (210, 0.0, 0), e=1.0)], bridge_config)
        assert plan == dataclasses.replace(plan) and plan != plan.ticks
        t = plan.t.copy()
        t[0] = -0.0
        assert plan.t[0] == 0.0 and dataclasses.replace(plan, t=t) != plan
        rows = plan.setpoints.copy()
        rows[-1, 1] = np.nextafter(rows[-1, 1], np.inf)
        assert dataclasses.replace(plan, setpoints=rows) != plan
        # the constructor converts a column to its dtype; one that holds
        # the same values in another dtype is not equal
        lines = plan.source_line.astype(np.int32)
        assert dataclasses.replace(plan, source_line=lines) == plan
        other = dataclasses.replace(plan)
        object.__setattr__(other, "source_line", lines)
        assert other != plan

    def test_ticks_hold_python_scalars(self, printer_bridge_config):
        plan = coordinator.plan_program(
            [seg((210, 110, 0), (230, 110, 20), e=1.0, line=3)],
            printer_bridge_config)
        for tick in plan.ticks:
            assert (type(tick.t), type(tick.extruding),
                    type(tick.extrusion_total), type(tick.source_line),
                    type(tick.tool_target)) == (float, bool, float, int, tuple)
            assert {type(v) for sp in tick.setpoints.values()
                    for v in (*tick.tool_target, sp.x, sp.y, sp.theta)} \
                == {float}

    @pytest.mark.parametrize("change", ["drop", "add", "kind", "order"])
    def test_from_ticks_rejects_other_robots(self, bridge_config, change):
        ticks = coordinator.plan_program(
            [seg((200, 100, 0), (210, 100, 0))], bridge_config).ticks
        setpoints = dict(ticks[1].setpoints)
        if change == "drop":
            del setpoints["r3"]
        elif change == "add":
            setpoints["r4"] = Setpoint("move", 1.0, 2.0)
        elif change == "kind":
            setpoints["r3"] = Setpoint("rotate", theta=1.0)
        else:
            setpoints = dict(reversed(setpoints.items()))
        ticks[1] = dataclasses.replace(ticks[1], setpoints=setpoints)
        with pytest.raises(ValueError, match="other robots or kinds"):
            Plan.from_ticks(ticks, [], "bridge_xy")


class TestReconfigure:
    def four_robot_bridge(self):
        doc = config.default_config_doc("bridge_xy")
        doc["roster"].append({"id": "r4"})
        return config.parse_config(doc)

    def test_bridge_to_printer(self, printer_bridge_config):
        plan = coordinator.reconfigure(self.four_robot_bridge(),
                                       printer_bridge_config)
        assert len(plan.ticks) == 2
        assert plan.ticks[-1].t == printer_bridge_config.swap_duration
        roles = coordinator.assign_roles(printer_bridge_config)
        assert roles["r3"] == "carriage"
        assert roles["r4"] == "leadscrew"

    def test_identity_is_empty(self, bridge_config):
        plan = coordinator.reconfigure(bridge_config, bridge_config)
        assert plan.ticks == []

    def test_insufficient_target_roster(self, bridge_config,
                                        printer_bridge_config):
        with pytest.raises(InsufficientRobots):
            coordinator.reconfigure(bridge_config, printer_bridge_config)

    def test_too_few_parking_spots_names_unparked(self,
                                                  printer_bridge_config):
        doc = config.default_config_doc("wire2d_wall")
        doc["roster"] += [{"id": "r3"}, {"id": "r4"}]
        doc["parking"] = [[200.0, -700.0]]
        with pytest.raises(PlanError, match="no spot for r4$"):
            coordinator.reconfigure(printer_bridge_config,
                                    config.parse_config(doc))

    def test_disjoint_rosters(self, printer_bridge_config):
        doc = config.default_config_doc("bridge_xy")
        for i, entry in enumerate(doc["roster"]):
            entry["id"] = f"other{i}"
        cfg = config.parse_config(doc)
        with pytest.raises(InsufficientRobots):
            coordinator.reconfigure(cfg, printer_bridge_config)


class TestSerializeCommandStream:
    def test_record_count_single_tick(self, bridge_config):
        s = seg((200, 100, 0), (200, 100, 0), e=1.0)
        plan = coordinator.plan_program([s], bridge_config)
        text = coordinator.serialize_command_stream(plan, ["r1", "r2", "r3"])
        lines = text.strip().splitlines()
        # one tick x three robots, plus three stop records
        assert len(lines) == 6
        assert all(line.startswith("t=") for line in lines)

    def test_empty_plan(self, bridge_config):
        plan = coordinator.plan_program([], bridge_config)
        assert coordinator.serialize_command_stream(plan) == ""

    def test_one_tick_at_zero(self, bridge_config):
        # a column of one 0.0 is not an empty plan
        home = bridge_config.home
        setpoints = coordinator.plan_program(
            [seg(home, home)], bridge_config).ticks[0].setpoints
        plan = Plan.from_ticks([PlanTick(0.0, setpoints, home, False, 0.0, 7)],
                               [], bridge_config.morphology)
        text = coordinator.serialize_command_stream(plan)
        assert text == serialize_command_stream_oracle(plan)
        assert len(text.splitlines()) == 6
        assert text.startswith("t=0.000000 id=r1 op=move")

    @pytest.mark.parametrize("morphology", coordinator.MORPHOLOGIES)
    def test_matches_oracle(self, morphology):
        cfg = config.default_config(morphology)
        segments = segments_of(random_walk_program(morphology, 2, 300),
                               cfg.home)
        plan = coordinator.plan_program(segments, cfg)
        ids = [e.id for e in cfg.roster]
        for order in (None, ids, ids[::-1] + ["ghost"], ids[:1] * 2, []):
            assert (coordinator.serialize_command_stream(plan, order)
                    == serialize_command_stream_oracle(plan, order))

    # robot ids holding % and other format characters, NUL, non-ASCII text
    # and a lone surrogate stay literal
    ODD_IDS = [("r%s", "100%", "{r}", "r 4"),
               ("r\x00", "\x00", "rébus", "机器人\udc80")]

    @pytest.mark.parametrize("to", coordinator.MORPHOLOGIES)
    def test_reconfigure_matches_oracle(self, to):
        for ids in self.ODD_IDS:
            plan = coordinator.reconfigure(
                four_robot_config("bridge_xy", ids),
                four_robot_config(to, ids))
            for order in (None, list(ids)):
                text = coordinator.serialize_command_stream(plan, order)
                assert text == serialize_command_stream_oracle(plan, order)
            assert bool(text) == (to != "bridge_xy")

    @pytest.mark.parametrize("ids", ODD_IDS)
    @pytest.mark.parametrize("morphology", coordinator.MORPHOLOGIES)
    def test_odd_ids_match_oracle(self, morphology, ids):
        cfg = four_robot_config(morphology, ids)
        segments = segments_of(random_walk_program(morphology, 3, 60),
                               cfg.home)
        plan = coordinator.plan_program(segments, cfg)
        for order in (None, list(ids)[::-1]):
            text = coordinator.serialize_command_stream(plan, order)
            assert text == serialize_command_stream_oracle(plan, order)
        assert f"id={plan.ids[0]} op=" in text

    def test_byte_stable(self, bridge_config):
        segs = [seg((100, 100, 0), (200, 150, 0), feed=25.0)]
        plan = coordinator.plan_program(segs, bridge_config)
        a = coordinator.serialize_command_stream(plan, ["r1", "r2", "r3"])
        b = coordinator.serialize_command_stream(
            coordinator.plan_program(segs, bridge_config), ["r1", "r2", "r3"])
        assert a == b
