import math

import numpy as np
import pytest

from swarmfab import config, coordinator, gcode
from swarmfab import kinematics as kin
from swarmfab.errors import InsufficientRobots, OutOfWorkspace, PlanError
from swarmfab.gcode import MotionSegment


def seg(start, end, feed=50.0, e=0.0, line=1):
    kind = "print" if e > 0 else "travel"
    return MotionSegment(start=tuple(map(float, start)),
                         end=tuple(map(float, end)),
                         feed=feed, extrusion_delta=e, kind=kind,
                         source_line=line)


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
        ticks = coordinator.plan_segment(s, wire2d_config, roles)
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

    def test_byte_stable(self, bridge_config):
        segs = [seg((100, 100, 0), (200, 150, 0), feed=25.0)]
        plan = coordinator.plan_program(segs, bridge_config)
        a = coordinator.serialize_command_stream(plan, ["r1", "r2", "r3"])
        b = coordinator.serialize_command_stream(
            coordinator.plan_program(segs, bridge_config), ["r1", "r2", "r3"])
        assert a == b
