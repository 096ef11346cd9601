"""Exactness of the vectorized fidelity kernel against the scalar formula.

`point_segment_distance` and `reference_fidelity` are the per-pair loop that
scored fidelity before `sim._segment_distances` replaced it; they are the
oracle.  Every comparison is exact: the kernel must reproduce the oracle's
floats bit for bit, and its first-minimum tie-break.
"""

import numpy as np
import pytest

from swarmfab import coordinator, gcode, sim
from swarmfab.gcode import MotionSegment

from test_acceptance import CORPUS, WIRE2D_SQUARE, three_layer_program
from test_sim import trace_of


def point_segment_distance(p, a, b) -> float:
    ap = np.asarray(p, dtype=float) - np.asarray(a, dtype=float)
    ab = np.asarray(b, dtype=float) - np.asarray(a, dtype=float)
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.linalg.norm(ap))
    s = min(1.0, max(0.0, float(ap @ ab) / denom))
    return float(np.linalg.norm(ap - s * ab))


def reference_fidelity(trace, segments) -> sim.FidelityReport:
    print_segments = [s for s in segments if s.kind == "print"]
    deviations = []
    per_segment = [0.0] * len(print_segments)
    for sample in trace.samples:
        if not sample.extruding or not print_segments:
            continue
        dists = [point_segment_distance(sample.tool_tip, seg.start, seg.end)
                 for seg in print_segments]
        i = int(np.argmin(dists))
        deviations.append(dists[i])
        per_segment[i] = max(per_segment[i], dists[i])
    return sim.FidelityReport(
        max_deviation=max(deviations) if deviations else 0.0,
        mean_deviation=float(np.mean(deviations)) if deviations else 0.0,
        per_segment_deviation=per_segment,
        total_print_length=sum(s.length for s in print_segments),
        total_travel_length=sum(s.length for s in segments
                                if s.kind == "travel"),
        simulated_duration=trace.samples[-1].t,
        barrier_wait_total=trace.barrier_wait_total,
    )


def assert_matches_oracle(trace, segments):
    report = sim.measure_fidelity(trace, segments)
    expected = reference_fidelity(trace, segments)
    assert report == expected
    for name, value in vars(expected).items():
        assert type(getattr(report, name)) is type(value), name
    assert all(type(v) is float for v in report.per_segment_deviation)
    return report


def seg(start, end, e=1.0):
    return MotionSegment(start=tuple(map(float, start)),
                         end=tuple(map(float, end)), feed=10.0,
                         extrusion_delta=e, kind="print" if e > 0 else "travel",
                         source_line=1)


def synthetic_trace(tips, extruding=True):
    return trace_of([sim.TraceSample(
        t=0.1 * k, poses={}, rotations={}, tool_tip=tuple(map(float, tip)),
        tool_target=tuple(map(float, tip)), extruding=extruding,
        extrusion_total=0.0) for k, tip in enumerate(tips)])


def simulate(cfg, program):
    segments = gcode.interpret(gcode.parse_program(program),
                               home=cfg.home).segments
    plan = coordinator.plan_program(segments, cfg)
    return sim.run(plan, cfg, seed=0), segments


class TestSimulatedJobs:
    @pytest.mark.parametrize("program", [c[1] for c in CORPUS],
                             ids=[c[0] for c in CORPUS])
    def test_bridge_corpus(self, bridge_config, program):
        assert_matches_oracle(*simulate(bridge_config, program))

    def test_wire2d_square(self, wire2d_config):
        report = assert_matches_oracle(*simulate(wire2d_config,
                                                 WIRE2D_SQUARE))
        assert report.max_deviation > 0.0

    def test_wire3d_three_layers(self, wire3d_config):
        report = assert_matches_oracle(*simulate(wire3d_config,
                                                 three_layer_program()))
        assert len(report.per_segment_deviation) == 12


class TestKernelEdgeCases:
    def test_zero_length_segment_scores_distance_to_its_start(self):
        segments = [seg((0, 0, 0), (0, 0, 0)), seg((20, 0, 0), (30, 0, 0))]
        trace = synthetic_trace([(0, 3, 0), (-1.5, 0.25, 7), (24, 1, 0)])
        report = assert_matches_oracle(trace, segments)
        assert report.per_segment_deviation[0] == pytest.approx(7.16, abs=0.01)

    def test_zero_length_segment_from_extrude_only_line(self, bridge_config):
        program = ("G92 E0\nG1 X210 Y110 F1200\nG1 E0.5 F600\n"
                   "G1 X230 Y110 E1.5\n")
        trace, segments = simulate(bridge_config, program)
        assert segments[1].kind == "print" and segments[1].length == 0.0
        assert_matches_oracle(trace, segments)

    def test_exact_tie_charges_lower_index(self):
        segments = [seg((0, 0, 0), (10, 0, 0)), seg((0, 2, 0), (10, 2, 0)),
                    seg((0, 2, 0), (10, 2, 0))]
        report = assert_matches_oracle(synthetic_trace([(5, 1, 0)]), segments)
        assert report.per_segment_deviation == [1.0, 0.0, 0.0]

    def test_tie_with_zero_length_segment(self):
        # (-3, 0, 0) is 3 mm from the point segment and from the clamped
        # start of the second segment; the point segment comes first.
        segments = [seg((0, 0, 0), (0, 0, 0)), seg((0, 0, 0), (10, 0, 0))]
        report = assert_matches_oracle(synthetic_trace([(-3, 0, 0)]),
                                       segments)
        assert report.per_segment_deviation == [3.0, 0.0]

    def test_no_print_segments(self):
        segments = [seg((0, 0, 0), (10, 0, 0), e=0.0)]
        report = assert_matches_oracle(synthetic_trace([(1, 1, 0)]), segments)
        assert report.per_segment_deviation == []
        assert report.max_deviation == report.mean_deviation == 0.0

    def test_no_extruding_samples(self):
        segments = [seg((0, 0, 0), (10, 0, 0))]
        trace = synthetic_trace([(1, 1, 0), (2, 2, 0)], extruding=False)
        report = assert_matches_oracle(trace, segments)
        assert report.per_segment_deviation == [0.0]
        assert report.max_deviation == report.mean_deviation == 0.0

    def test_empty_trace(self):
        # no sample: no deviation and no time; the lengths are the segments'
        segments = [seg((0, 0, 0), (3, 4, 0)), seg((3, 4, 0), (3, 4, 2), e=0.0)]
        report = sim.measure_fidelity(sim.Trace(), segments)
        assert report == sim.FidelityReport(
            max_deviation=0.0, mean_deviation=0.0, per_segment_deviation=[0.0],
            total_print_length=5.0, total_travel_length=2.0,
            simulated_duration=0.0, barrier_wait_total=0.0)

    @pytest.mark.parametrize("n_segments,n_samples", [(70, 200), (4101, 3)])
    def test_more_pairs_than_one_chunk(self, n_segments, n_samples):
        rng = np.random.default_rng(n_segments)
        corners = np.cumsum(rng.normal(0.0, 5.0, (n_segments + 1, 3)), axis=0)
        segments = [seg(a, b) for a, b in zip(corners, corners[1:])]
        tips = corners[rng.integers(0, n_segments, n_samples)] \
            + rng.normal(0.0, 1.0, (n_samples, 3))
        assert n_segments * n_samples > sim.CHUNK_PAIRS
        assert_matches_oracle(synthetic_trace(tips), segments)


class TestPointPolylineDistance:
    def test_matches_oracle_minimum(self):
        segments = [seg((0, 0, 0), (10, 0, 0)), seg((10, 0, 0), (10, 10, 0)),
                    seg((10, 10, 0), (10, 10, 0))]
        for p in [(5, 1, 0), (12, 5, 0), (10, 11, 0.5), (-3, -4, 0)]:
            expected = min(point_segment_distance(p, s.start, s.end)
                           for s in segments)
            got = sim.point_polyline_distance(p, segments)
            assert got == expected and type(got) is float

    def test_no_segments_rejected(self):
        with pytest.raises(ValueError):
            sim.point_polyline_distance((0, 0, 0), [])
