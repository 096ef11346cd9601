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
# used: each segment endpoint in time_parameterize and again as a tick, each
# start again as the previous segment's end, and the role maps once per tick
# or segment.  plan_program, plan_segment and time_parameterize must match it
# bit for bit, errors included. ---

def omega_max_oracle(params):
    return 2.0 * params.max_wheel_speed / params.wheel_track


def axis_times_oracle(seg, cfg, roles):
    dx = seg.end[0] - seg.start[0]
    dy = seg.end[1] - seg.start[1]
    dz = seg.end[2] - seg.start[2]
    by_role = {role: cfg.robot_params(rid) for rid, role in roles.items()
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
    from the PlanTicks of the plan's ticks view."""
    lines = []
    seen_order = []
    ticks = plan.ticks
    for tick in ticks:
        ids = roster_order if roster_order is not None else list(tick.setpoints)
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


def same_outcome(fn, oracle, *args, **kwargs):
    """Run a planner call and its oracle: both return the same value, down to
    every float's bits, its type and the order of each tick's setpoints (the
    repr shows all of them), or both raise the same error with the same
    message, reason and line."""
    results = []
    for call in (fn, oracle):
        try:
            value = call(*args, **kwargs)
        except SwarmFabError as exc:
            results.append((type(exc), str(exc), getattr(exc, "reason", None),
                            getattr(exc, "line_no", None)))
        else:
            results.append((value, repr(value)))
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
        for i, s in enumerate(segments[:300]):
            same_outcome(coordinator.time_parameterize,
                         time_parameterize_oracle, s, cfg)
            same_outcome(coordinator.plan_segment, plan_segment_oracle, s, cfg)
            same_outcome(coordinator.plan_segment, plan_segment_oracle, s,
                         cfg, t0=3.25 * i, datum=cfg.home,
                         extrusion0=0.5 * i, include_start=i % 2 == 0)

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
        assert plan.t[-2:] == [0.4, 0.5] and plan.source_line[-1] == 2
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
        assert "-0.0" in repr([t for t, line in zip(plan.tool_target,
                                                    plan.source_line)
                               if line == 2])
        assert repr(plan.setpoints[-1][:2]) == "(0.0, -0.0)"

    def test_endpoint_outside(self, wire2d_config):
        program = random_walk_program("wire2d_wall", 5, 40)
        segments = segments_of(program + "G1 X500 Y-100\nG1 X520\n",
                               wire2d_config.home)
        _, message, reason, line = same_outcome(
            coordinator.plan_program, plan_program_oracle, segments,
            wire2d_config)
        assert (message.startswith("segment endpoint (500.0, -100.0, 0.0)")
                and reason == "OutsideBox" and line == 47)
        same_outcome(coordinator.plan_segment, plan_segment_oracle,
                     segments[-2], wire2d_config)

    def test_interior_tick_outside(self):
        cfg = config.parse_config(TILTED_DOC)
        good = seg((200.0, 150.0, 300.0), MARGIN_GRAZER[0], line=6)
        grazer = seg(*MARGIN_GRAZER, feed=20.0, line=7)
        for call, oracle, args in (
                (coordinator.plan_program, plan_program_oracle,
                 ([good, grazer], cfg)),
                (coordinator.plan_segment, plan_segment_oracle,
                 (grazer, cfg))):
            _, message, reason, line = same_outcome(call, oracle, *args)
            assert (message.startswith("setpoint ")
                    and reason == "AboveAnchors" and line == 7)
        assert coordinator.time_parameterize(grazer, cfg) > 0.0

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
        s = seg(start, end, line=4)
        for call, oracle in (
                (coordinator.plan_program, plan_program_oracle),
                (coordinator.plan_segment, plan_segment_oracle),
                (coordinator.time_parameterize, time_parameterize_oracle)):
            _, message, reason, line = same_outcome(
                call, oracle, [s] if oracle is plan_program_oracle else s,
                cfg)
            assert message.startswith("segment endpoint") and line == 4


def slow_roster_doc(morphology):
    """The scaffold config doc of a morphology whose robots all crawl at
    1e-6 mm/s: a 10 mm move takes 1e7 s, 1e8 ticks at dt_plan 0.1 s."""
    doc = config.default_config_doc(morphology)
    doc["roster"] = [{**entry, "max_wheel_speed": 1e-6}
                     for entry in doc["roster"]]
    return doc


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
        assert coordinator.plan_program(segments[:k - 1], cfg).t

    def test_duration_too_long_for_a_float(self):
        # a 10 mm wire travel at a spool rim speed of about 1.5e-308 mm/s
        doc = slow_roster_doc("wire2d_wall")
        doc["roster"] = [{**entry, "max_wheel_speed": 1e-308}
                         for entry in doc["roster"]]
        cfg = config.parse_config(doc)
        s = seg(cfg.home, (cfg.home[0] + 10.0, cfg.home[1], 0.0), line=3)
        assert coordinator.time_parameterize(s, cfg) == math.inf
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
        assert plan.t == [cfg.dt_plan]
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


def test_plan_peak_memory_near_what_the_plan_keeps():
    """The planner works in blocks: while it plans, it holds little more
    than the Plan it returns."""
    cfg = config.default_config("wire2d_wall")
    segments = segments_of(random_walk_program("wire2d_wall", 4, 2000),
                           cfg.home)
    coordinator.plan_program(segments[:10], cfg)  # numpy's first-call caches
    tracemalloc.start()
    try:
        plan = coordinator.plan_program(segments, cfg)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(plan.t) > 3000
    assert peak <= 1.5 * kept


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

    def test_duplicate_robot_ids_rejected(self):
        # a repeated id would take two roles in assign_roles and keep one
        cfg = config.default_config("bridge_xy")
        r1 = cfg.roster[0]
        with pytest.raises(ValueError, match="duplicate robot ids in roster: "
                                             "r1$"):
            dataclasses.replace(cfg, roster=(r1, r1) + cfg.roster[2:])

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
    "plan_segment": coordinator.plan_segment,
    "time_parameterize": coordinator.time_parameterize,
    "initial_robot_positions":
        lambda s, cfg: coordinator.initial_robot_positions(cfg),
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


class TestTimeParameterize:
    def test_feed_limited(self, bridge_config):
        s = seg((200, 100, 0), (300, 100, 0), feed=50.0)
        assert coordinator.time_parameterize(s, bridge_config) == pytest.approx(2.0)

    def test_robot_limited(self, bridge_config):
        s = seg((200, 100, 0), (300, 100, 0), feed=500.0)
        cfg = config.parse_config({**config.default_config_doc("bridge_xy"),
                                   "limits": {"max_tool_speed": 500.0,
                                              "sync_tol": 1.0}})
        assert coordinator.time_parameterize(s, cfg) == pytest.approx(100.0 / 115.0)

    def test_wire2d_spool_limit(self, wire2d_config):
        s = seg((300, -500, 0), (700, -200, 0), feed=1e6)
        cfg = config.parse_config({**config.default_config_doc("wire2d_wall"),
                                   "limits": {"max_tool_speed": 1e6,
                                              "sync_tol": 1.0}})
        duration = coordinator.time_parameterize(s, cfg)
        geom = cfg.wire2d_geometry
        params = cfg.roster[0].params
        omega_max = 2 * params.max_wheel_speed / params.wheel_track
        l0 = kin.wire2d_ik((300, -500), geom)
        l1 = kin.wire2d_ik((700, -200), geom)
        needed = max(abs(a - b) for a, b in zip(l0, l1)) / (geom.spool_radius * omega_max)
        assert duration == pytest.approx(needed)

    def test_out_of_workspace(self, bridge_config):
        s = seg((200, 100, 0), (900, 100, 0))
        with pytest.raises(OutOfWorkspace):
            coordinator.time_parameterize(s, bridge_config)


class TestPlanSegment:
    def test_tick_count_and_spacing(self, bridge_config):
        s = seg((200, 100, 0), (300, 100, 0), feed=50.0)
        ticks = coordinator.plan_segment(s, bridge_config)
        assert len(ticks) == 21
        for a, b in zip(ticks, ticks[1:]):
            gap = math.dist(a.tool_target, b.tool_target)
            assert gap == pytest.approx(5.0, abs=1e-9)
        assert ticks[-1].tool_target == (300.0, 100.0, 0.0)

    def test_extrude_in_place_single_tick(self, bridge_config):
        s = seg((200, 100, 0), (200, 100, 0), e=2.0)
        ticks = coordinator.plan_segment(s, bridge_config)
        assert len(ticks) == 1
        assert ticks[0].extruding

    def test_wire2d_setpoints_match_ik(self, wire2d_config):
        s = seg((400, -500, 0), (600, -300, 0), feed=30.0)
        roles = coordinator.assign_roles(wire2d_config)
        ticks = coordinator.plan_segment(s, wire2d_config)
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
        ticks = coordinator.plan_segment(s, bridge_config)
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
        assert plan.setpoints[-1][9:] == (
            *printer_bridge_config.table_position,
            tick.setpoints["r4"].theta)

    @pytest.mark.parametrize("change", ["drop", "add", "kind", "order"])
    def test_from_ticks_rejects_other_robots(self, bridge_config, change):
        ticks = coordinator.plan_segment(
            seg((200, 100, 0), (210, 100, 0)), bridge_config)
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

    @pytest.mark.parametrize("to", coordinator.MORPHOLOGIES)
    def test_reconfigure_matches_oracle(self, to):
        # robot ids holding % and other format characters stay literal
        ids = ("r%s", "100%", "{r}", "r 4")
        plan = coordinator.reconfigure(four_robot_config("bridge_xy", ids),
                                       four_robot_config(to, ids))
        for order in (None, list(ids)):
            text = coordinator.serialize_command_stream(plan, order)
            assert text == serialize_command_stream_oracle(plan, order)
        assert bool(text) == (to != "bridge_xy")

    def test_byte_stable(self, bridge_config):
        segs = [seg((100, 100, 0), (200, 150, 0), feed=25.0)]
        plan = coordinator.plan_program(segs, bridge_config)
        a = coordinator.serialize_command_stream(plan, ["r1", "r2", "r3"])
        b = coordinator.serialize_command_stream(
            coordinator.plan_program(segs, bridge_config), ["r1", "r2", "r3"])
        assert a == b
