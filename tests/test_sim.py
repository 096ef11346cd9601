import dataclasses
import math

import pytest

from swarmfab import config, coordinator, gcode, sim
from swarmfab import kinematics as kin
from swarmfab.gcode import MotionSegment

from test_acceptance import three_layer_program


def seg(start, end, feed=30.0, e=0.0, line=1):
    kind = "print" if e > 0 else "travel"
    return MotionSegment(start=tuple(map(float, start)),
                         end=tuple(map(float, end)),
                         feed=feed, extrusion_delta=e, kind=kind,
                         source_line=line)


class TestRun:
    def test_empty_plan(self, bridge_config):
        plan = coordinator.plan_program([], bridge_config)
        trace = sim.run(plan, bridge_config)
        assert trace.samples == []

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

    def test_dt_sim_larger_than_plan_rejected(self, bridge_config):
        plan = coordinator.plan_program([], bridge_config)
        with pytest.raises(ValueError):
            sim.run(plan, bridge_config, dt_sim=1.0)


class TestMeasureFidelity:
    def synthetic_trace(self, samples, cfg):
        trace = sim.Trace(config=cfg)
        trace.samples = samples
        return trace

    def sample(self, t, tool, extruding=True):
        return sim.TraceSample(t=t, poses={}, rotations={}, tool_tip=tool,
                               tool_target=tool, extruding=extruding,
                               extrusion_total=0.0)

    def test_exact_follow_zero_deviation(self, bridge_config):
        s = seg((0, 0, 0), (10, 0, 0), e=1.0)
        samples = [self.sample(t / 10, (t, 0.0, 0.0)) for t in range(11)]
        report = sim.measure_fidelity(self.synthetic_trace(samples, bridge_config), [s])
        assert report.max_deviation == 0.0
        assert report.mean_deviation == 0.0
        assert report.total_print_length == pytest.approx(10.0)

    def test_uniform_offset(self, bridge_config):
        s = seg((0, 0, 0), (10, 0, 0), e=1.0)
        samples = [self.sample(t / 10, (t, 0.3, 0.0)) for t in range(11)]
        report = sim.measure_fidelity(self.synthetic_trace(samples, bridge_config), [s])
        assert report.max_deviation == pytest.approx(0.3)
        assert report.mean_deviation == pytest.approx(0.3)

    def test_travel_samples_excluded(self, bridge_config):
        s = seg((0, 0, 0), (10, 0, 0), e=1.0)
        samples = [self.sample(0.0, (0.0, 0.0, 0.0)),
                   self.sample(1.0, (5.0, 9.0, 0.0), extruding=False),
                   self.sample(2.0, (10.0, 0.0, 0.0))]
        report = sim.measure_fidelity(self.synthetic_trace(samples, bridge_config), [s])
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

    def test_square_segments_single_group(self):
        pts = [(0, 0, 0), (10, 0, 0), (10, 10, 0), (0, 10, 0), (0, 0, 0)]
        segs = [seg(a, b, e=1.0) for a, b in zip(pts, pts[1:])]
        text = sim.export_svg(segs)
        assert text.count("<g ") == 1
        assert text.count("<polyline") == 1  # chained into one closed polyline

    def test_two_layer_grouping(self):
        segs = [seg((0, 0, 0), (10, 0, 0), e=1.0),
                seg((10, 0, 0), (10, 0, 2), line=2),
                seg((10, 0, 2), (0, 0, 2), e=1.0, line=3)]
        text = sim.export_svg(segs, include_travel=False)
        groups = [l for l in text.splitlines() if l.startswith("<g")]
        assert len(groups) == 2
        assert groups == sorted(groups)  # ascending z order

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
        trace = sim.Trace(config=cfg)
        trace.samples = [sim.TraceSample(
            t=0.0, poses=poses, rotations={}, tool_tip=(0, 0, 0),
            tool_target=(0, 0, 0), extruding=False, extrusion_total=0.0)]
        return trace

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

    def test_robot_set_changes_between_samples(self, bridge_config):
        poses = [{"r1": (0.0, 0.0, 0.0), "r2": (20.0, 0.0, 0.0)},
                 {"r3": (0.0, 0.0, 0.0), "r1": (10.0, 0.0, 0.0),
                  "x9": (5.0, 0.0, 0.0)},
                 {"r2": (0.0, 0.0, 0.0), "r1": (20.0, 0.0, 0.0)}]
        trace = sim.Trace(config=bridge_config)
        trace.samples = [sim.TraceSample(
            t=0.1 * k, poses=p, rotations={}, tool_tip=(0, 0, 0),
            tool_target=(0, 0, 0), extruding=False, extrusion_total=0.0)
            for k, p in enumerate(poses)]
        events = sim.overlap_diagnostic(trace, bridge_config)
        assert events == overlap_oracle(trace, bridge_config)
        assert [(e.robot_a, e.robot_b) for e in events] == [
            ("r1", "r2"), ("r1", "r3"), ("r1", "x9"), ("r3", "x9"),
            ("r1", "r2")]
