"""Exactness of the vectorized fidelity kernel against the scalar formula.

`point_segment_distance` and `reference_fidelity` are the per-pair loop that
scored fidelity before `sim._segment_distances` replaced it; they are the
oracle.  `segment_distances_oracle` is the all-pairs broadcast the kernel
prunes.  Every comparison is exact: the kernel must reproduce the oracle's
floats bit for bit, and its first-minimum tie-break.
"""

import tracemalloc

import numpy as np
import pytest

from swarmfab import coordinator, gcode, sim
from swarmfab import kinematics as kin
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


def segment_distances_oracle(points, starts, ends):
    """`sim._segment_distances` evaluated on every (point, segment) pair."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    a = np.asarray(starts, dtype=float).reshape(-1, 3)
    ab = np.asarray(ends, dtype=float).reshape(-1, 3) - a
    denom = kin._dot(ab, ab)
    denom = np.where(denom == 0.0, 1.0, denom)
    nearest = np.empty(len(points), dtype=np.intp)
    distance = np.empty(len(points))
    rows = max(1, 4096 // len(a))
    for lo in range(0, len(points), rows):
        ap = points[lo:lo + rows, None, :] - a
        s = np.clip(kin._dot(ap, ab) / denom, 0.0, 1.0)
        d = ap - s[..., None] * ab
        dist = np.sqrt(kin._dot(d, d))
        i = np.argmin(dist, axis=1)
        nearest[lo:lo + rows] = i
        distance[lo:lo + rows] = dist[np.arange(len(i)), i]
    return nearest, distance


def assert_kernel_matches_oracle(points, starts, ends):
    nearest, distance = sim._segment_distances(points, starts, ends)
    expected_nearest, expected_distance = segment_distances_oracle(
        points, starts, ends)
    assert nearest.dtype == expected_nearest.dtype
    np.testing.assert_array_equal(nearest, expected_nearest)
    # bit for bit, nan included
    assert distance.tobytes() == expected_distance.tobytes()


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

    @pytest.mark.parametrize("p", [(np.nan, 1, 0), (np.inf, 0, 0),
                                   (-np.inf, 5, 0)])
    @pytest.mark.parametrize("corners", [[(0, 0, 0), (10, 0, 0), (10, 10, 0)],
                                         [(0, 0, 0), (10, 10, 10)]])
    def test_nonfinite_point_as_oracle(self, p, corners):
        # An inf point is inf from the diagonal segment, and inf * 0 = nan
        # from an axis-parallel one; np.argmin picks a nan as the minimum.
        segments = [seg(a, b) for a, b in zip(corners, corners[1:])]
        with np.errstate(invalid="ignore"):
            _, expected = segment_distances_oracle(
                [p], [s.start for s in segments], [s.end for s in segments])
            got = sim.point_polyline_distance(p, segments)
        np.testing.assert_array_equal([got], expected)


def polyline(rng, n_segments):
    """A random-walk polyline, as (starts, ends)."""
    corners = np.cumsum(rng.normal(0.0, 5.0, (n_segments + 1, 3)), axis=0)
    return corners[:-1], corners[1:]


def walk(rng, starts, ends, n_points, noise):
    """Points along the segments in order, with normal noise."""
    t = np.sort(rng.uniform(0, len(starts), n_points))
    k = np.minimum(t.astype(int), len(starts) - 1)
    points = starts[k] + (t - k)[:, None] * (ends[k] - starts[k])
    return points + rng.normal(0.0, noise, points.shape)


class TestBoundedSearch:
    def test_absolute_slack_keeps_the_seed(self):
        # The formula puts the origin at 0.0 from this segment, whose box is
        # 2.2e-16 away: the seed's own bound is below its box distance.
        start, end = (0.0, 0.0, 3.0), (0.0, 0.0, 2.220446049250313e-16)
        assert_kernel_matches_oracle([(0, 0, 0)], [start], [end])
        # With a nearer-boxed point segment as the seed (bound 1e-16), the
        # segment at 0.0 must still be evaluated.
        starts = [start, (0.0, 0.0, 1e-16)]
        ends = [end, (0.0, 0.0, 1e-16)]
        assert_kernel_matches_oracle([(0, 0, 0)], starts, ends)
        nearest, distance = sim._segment_distances([(0, 0, 0)], starts, ends)
        assert nearest.tolist() == [0] and distance.tolist() == [0.0]

    def test_overflow_keeps_every_segment(self):
        # The far segment's distance overflows to inf / inf = nan, which
        # np.argmin takes as the minimum: no finite slack may prune it.
        starts = [(1.0, 0.0, 0.0), (1e300, 1e300, 0.0)]
        ends = [(2.0, 0.0, 0.0), (1.5e300, 1e300, 0.0)]
        with np.errstate(over="ignore", invalid="ignore"):
            assert_kernel_matches_oracle([(0, 0, 0)], starts, ends)
            nearest, _ = sim._segment_distances([(0, 0, 0)], starts, ends)
        assert nearest.tolist() == [1]

    @pytest.mark.parametrize("chunk", [1, 7, 64, 4096])
    @pytest.mark.parametrize("noise", [0.1, 5.0, 100.0])
    def test_blocks_and_groups_match_oracle(self, monkeypatch, chunk, noise):
        # small budgets split the runs into many blocks, and wide noise
        # prunes little, so the candidates of a block split into groups
        monkeypatch.setattr(sim, "CHUNK_PAIRS", chunk)
        rng = np.random.default_rng(chunk)
        starts, ends = polyline(rng, 60)
        points = walk(rng, starts, ends, 203, noise)
        assert_kernel_matches_oracle(points, starts, ends)

    def test_peak_memory_flat_in_points(self):
        # README: memory does not grow with the length of the trace.  The
        # kernel's peak beyond the arrays it returns, at 2,000 and at 20,000
        # points along the same segments.
        rng = np.random.default_rng(5)
        starts, ends = polyline(rng, 100)
        working = []
        for n in (2000, 20000):
            points = walk(rng, starts, ends, n, 0.5)
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                result = sim._segment_distances(points, starts, ends)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            del result
            working.append(peak - kept)
        assert working[1] <= 1.25 * working[0] + 65536
