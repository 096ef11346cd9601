"""End-to-end acceptance suite.

Each test class below checks one release criterion at its stated tolerance:

 1. kinematics round trips (1e-9 / 1e-7 mm, < 5 s for 3x10^4 points)
 2. trilateration vs. damped-least-squares oracle (1e-6 mm, 1000 instances)
 3. g-code conformance corpus (16 golden programs, conservation to 1e-9)
 4. arc flattening bound (deviation <= chord_tol, exact segment counts)
 5. plan invariants over the corpus (feed, workspace, bridge-y, coverage)
 6. drawing fidelity regression (mean < 0.5 mm, max < 1.5 mm, < 10 s/job)
 7. three-layer print on the wire positioner (no stall, 3 z-groups, E to 1%)
 8. byte-identical simulate outputs under a fixed seed
 9. controller convergence envelopes (1000 random starts)
10. bridge -> printer reconfiguration and follow-on job
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from swarmfab import cli, config, coordinator, gcode, sim
from swarmfab import kinematics as kin
from swarmfab.gcode import GcodeCommand, InterpreterState
from swarmfab.robot import (
    RobotParams,
    RobotState,
    goto_controller,
    rotate_controller,
    step_dynamics,
)

HOME = (200.0, 100.0, 0.0)


# --------------------------------------------------------------------------
# criterion 1: fk(ik(p)) round trips
# --------------------------------------------------------------------------

class TestRoundTrips:
    N = 10_000

    def test_all_morphologies_within_tolerance_and_time(self):
        rng = np.random.default_rng(42)
        t0 = time.perf_counter()

        bridge = config.default_config("bridge_xy").bridge_geometry
        xs = rng.uniform(bridge.rail1_x + bridge.carriage_min,
                         bridge.rail1_x + bridge.carriage_max, self.N)
        ys = rng.uniform(0.0, 500.0, self.N)
        worst = 0.0
        for x, y in zip(xs, ys):
            d = kin.bridge_ik((x, y), bridge)
            fx, fy = kin.bridge_fk(d["bridge1"], d["bridge2"],
                                   d["carriage_offset"], bridge)
            worst = max(worst, math.hypot(fx - x, fy - y))
        assert worst <= 1e-9

        w2 = config.default_config("wire2d_wall").wire2d_geometry
        xs = rng.uniform(150.0, 850.0, self.N)
        zs = rng.uniform(-750.0, -150.0, self.N)
        worst = 0.0
        for x, z in zip(xs, zs):
            l1, l2 = kin.wire2d_ik((x, z), w2)
            fx, fz = kin.wire2d_fk(l1, l2, w2)
            worst = max(worst, math.hypot(fx - x, fz - z))
        assert worst <= 1e-9

        w3 = config.default_config("wire3d_printer").wire3d_geometry
        pts = rng.uniform((80.0, 60.0, 0.0), (320.0, 260.0, 350.0),
                          (self.N, 3))
        worst = 0.0
        for p in pts:
            lengths = kin.wire3d_ik(tuple(p), w3)
            q = kin.wire3d_fk(*lengths, w3)
            worst = max(worst, math.dist(p, q))
        assert worst <= 1e-7

        assert time.perf_counter() - t0 < 5.0


# --------------------------------------------------------------------------
# criterion 2: trilateration oracle equivalence
# --------------------------------------------------------------------------

def dls_trilaterate(lengths, geom, rng, restarts=20):
    """Damped-least-squares trilateration with random restarts."""
    anchors = np.asarray(geom.anchors, dtype=float)
    L = np.asarray(lengths, dtype=float)
    best = None
    for _ in range(restarts):
        p = np.array([rng.uniform(0, 400), rng.uniform(0, 350),
                      rng.uniform(0, 490)])
        lam = 1e-3
        for _ in range(100):
            diff = p[None, :] - anchors
            dist = np.linalg.norm(diff, axis=1)
            if np.any(dist < 1e-9):
                break
            r = dist - L
            J = diff / dist[:, None]
            A = J.T @ J + lam * np.eye(3)
            step = np.linalg.solve(A, -J.T @ r)
            p = p + step
            if np.linalg.norm(step) < 1e-12:
                break
        cost = np.linalg.norm(np.linalg.norm(p[None, :] - anchors, axis=1) - L)
        if best is None or cost < best[0]:
            best = (cost, p)
    return best[1]


class TestTrilaterationOracle:
    def test_1000_instances_within_1e6(self):
        geom = config.default_config("wire3d_printer").wire3d_geometry
        rng = np.random.default_rng(7)
        pts = rng.uniform((80.0, 60.0, 20.0), (320.0, 260.0, 350.0),
                          (1000, 3))
        worst = 0.0
        for p in pts:
            lengths = kin.wire3d_ik(tuple(p), geom)
            solved = kin.wire3d_fk(*lengths, geom)
            oracle = dls_trilaterate(lengths, geom, rng)
            worst = max(worst, math.dist(solved, oracle))
        assert worst <= 1e-6


# --------------------------------------------------------------------------
# criterion 3: g-code conformance corpus with golden segment lists
# --------------------------------------------------------------------------

def expected_arc(start, end, center, radius, clockwise, chord_tol,
                 feed, line):
    """Independent golden chord list for a circular arc."""
    a0 = math.atan2(start[1] - center[1], start[0] - center[0])
    a1 = math.atan2(end[1] - center[1], end[0] - center[0])
    sweep = (a0 - a1) % (2 * math.pi) if clockwise else (a1 - a0) % (2 * math.pi)
    if sweep < 1e-12:
        sweep = 2 * math.pi
    step = math.acos(1.0 - chord_tol / radius)
    n = max(1, math.ceil(sweep / step - 1e-12))
    k = sweep / math.pi
    n_min = int(round(k)) + 1 if abs(k - round(k)) < 1e-9 else math.ceil(k)
    n = max(n, n_min, 1)
    sign = -1.0 if clockwise else 1.0
    pts = [start]
    for i in range(1, n):
        a = a0 + sign * sweep * i / n
        pts.append((center[0] + radius * math.cos(a),
                    center[1] + radius * math.sin(a), start[2]))
    pts.append(end)
    return [(a, b, feed, 0.0, "travel", line) for a, b in zip(pts, pts[1:])]


IN = 25.4  # mm per inch

# Each entry: (name, program text, golden segment list as
# (start, end, feed_mm_s, extrusion_delta, kind, source_line)).
CORPUS = [
    ("absolute_moves",
     "G1 X210 Y110 F1200\nG1 X230 Y110\n",
     [(HOME, (210.0, 110.0, 0.0), 20.0, 0.0, "travel", 1),
      ((210.0, 110.0, 0.0), (230.0, 110.0, 0.0), 20.0, 0.0, "travel", 2)]),

    ("relative_moves",
     "G91\nG1 X10 F600\nG1 Y20\nG1 X-10 Y-20\nG90\n",
     [(HOME, (210.0, 100.0, 0.0), 10.0, 0.0, "travel", 2),
      ((210.0, 100.0, 0.0), (210.0, 120.0, 0.0), 10.0, 0.0, "travel", 3),
      ((210.0, 120.0, 0.0), (200.0, 100.0, 0.0), 10.0, 0.0, "travel", 4)]),

    ("print_square",
     "G92 E0\nG1 X210 Y110 F1200\nG1 X230 Y110 E1 F600\nG1 X230 Y130 E2\n"
     "G1 X210 Y130 E3\nG1 X210 Y110 E4\n",
     [(HOME, (210.0, 110.0, 0.0), 20.0, 0.0, "travel", 2),
      ((210.0, 110.0, 0.0), (230.0, 110.0, 0.0), 10.0, 1.0, "print", 3),
      ((230.0, 110.0, 0.0), (230.0, 130.0, 0.0), 10.0, 1.0, "print", 4),
      ((230.0, 130.0, 0.0), (210.0, 130.0, 0.0), 10.0, 1.0, "print", 5),
      ((210.0, 130.0, 0.0), (210.0, 110.0, 0.0), 10.0, 1.0, "print", 6)]),

    ("feed_persistence",
     "G1 X220 F1200\nG1 X240\nG1 X260 F300\n",
     [(HOME, (220.0, 100.0, 0.0), 20.0, 0.0, "travel", 1),
      ((220.0, 100.0, 0.0), (240.0, 100.0, 0.0), 20.0, 0.0, "travel", 2),
      ((240.0, 100.0, 0.0), (260.0, 100.0, 0.0), 5.0, 0.0, "travel", 3)]),

    ("default_feed",
     "G1 X250 Y120\n",
     [(HOME, (250.0, 120.0, 0.0), 20.0, 0.0, "travel", 1)]),

    ("units_inches",
     "G20\nG1 X8 Y4 F60\nG21\nG1 X210 Y110\n",
     [(HOME, (8 * IN, 4 * IN, 0.0), 60 * IN / 60.0, 0.0, "travel", 2),
      ((8 * IN, 4 * IN, 0.0), (210.0, 110.0, 0.0), 60 * IN / 60.0, 0.0,
       "travel", 4)]),

    ("g92_rebind",
     "G1 X210 Y110 F1200\nG92 X0 Y0\nG1 X20 Y0\n",
     [(HOME, (210.0, 110.0, 0.0), 20.0, 0.0, "travel", 1),
      ((210.0, 110.0, 0.0), (230.0, 110.0, 0.0), 20.0, 0.0, "travel", 3)]),

    ("g92_extrusion_rebind",
     "G92 E0\nG1 X220 E2 F600\nG92 E0\nG1 X240 E2\n",
     [(HOME, (220.0, 100.0, 0.0), 10.0, 2.0, "print", 2),
      ((220.0, 100.0, 0.0), (240.0, 100.0, 0.0), 10.0, 2.0, "print", 4)]),

    ("relative_extrusion",
     "M83\nG1 X220 E1.5 F600\nG1 X240 E1.5\nM82\n",
     [(HOME, (220.0, 100.0, 0.0), 10.0, 1.5, "print", 2),
      ((220.0, 100.0, 0.0), (240.0, 100.0, 0.0), 10.0, 1.5, "print", 3)]),

    ("arc_quarter_ij",
     "G1 X210 Y110 F1200\nG2 X220 Y120 I10 J0 F600\n",
     [(HOME, (210.0, 110.0, 0.0), 20.0, 0.0, "travel", 1)]
     + expected_arc((210.0, 110.0, 0.0), (220.0, 120.0, 0.0),
                    (220.0, 110.0), 10.0, True, 0.05, 10.0, 2)),

    ("arc_half_r_form",
     "G1 X210 Y110 F1200\nG3 X230 Y110 R10\n",
     [(HOME, (210.0, 110.0, 0.0), 20.0, 0.0, "travel", 1)]
     + expected_arc((210.0, 110.0, 0.0), (230.0, 110.0, 0.0),
                    (220.0, 110.0), 10.0, False, 0.05, 20.0, 2)),

    ("metadata_m_codes",
     "M104 S200\nG1 X220 F1200\nM140 S60\n",
     [(HOME, (220.0, 100.0, 0.0), 20.0, 0.0, "travel", 2)]),

    ("g28_homing",
     "G1 X250 Y150 F1200\nG28\n",
     [(HOME, (250.0, 150.0, 0.0), 20.0, 0.0, "travel", 1),
      ((250.0, 150.0, 0.0), HOME, 20.0, 0.0, "travel", 2)]),

    ("comments_and_blanks",
     "; job header\nG1 X220 F1200 ; go right\n(setup) G1 Y120\n\n"
     "G1 X200 Y100\n",
     [(HOME, (220.0, 100.0, 0.0), 20.0, 0.0, "travel", 2),
      ((220.0, 100.0, 0.0), (220.0, 120.0, 0.0), 20.0, 0.0, "travel", 3),
      ((220.0, 120.0, 0.0), (200.0, 100.0, 0.0), 20.0, 0.0, "travel", 5)]),

    ("mixed_modes_job",
     "G92 E0\nG1 X210 Y110 F1200\nG1 X230 Y110 E1 F600\nG91\nG1 Y20 E2\n"
     "G90\nG1 X210 Y130 E3\nM82\nG1 X210 Y110 E4 F1200\n",
     [(HOME, (210.0, 110.0, 0.0), 20.0, 0.0, "travel", 2),
      ((210.0, 110.0, 0.0), (230.0, 110.0, 0.0), 10.0, 1.0, "print", 3),
      ((230.0, 110.0, 0.0), (230.0, 130.0, 0.0), 10.0, 1.0, "print", 5),
      ((230.0, 130.0, 0.0), (210.0, 130.0, 0.0), 10.0, 1.0, "print", 7),
      ((210.0, 130.0, 0.0), (210.0, 110.0, 0.0), 20.0, 1.0, "print", 9)]),

    ("full_circle_ij",
     "G1 X210 Y110 F1200\nG2 X210 Y110 I10 J0\n",
     [(HOME, (210.0, 110.0, 0.0), 20.0, 0.0, "travel", 1)]
     + expected_arc((210.0, 110.0, 0.0), (210.0, 110.0, 0.0),
                    (220.0, 110.0), 10.0, True, 0.05, 20.0, 2)),
]


def interpret_program(text):
    return gcode.interpret(gcode.parse_program(text), home=HOME)


class TestGcodeCorpus:
    def test_corpus_size(self):
        assert len(CORPUS) >= 15

    @pytest.mark.parametrize("name,program,golden",
                             CORPUS, ids=[c[0] for c in CORPUS])
    def test_golden_segments(self, name, program, golden):
        result = interpret_program(program)
        assert len(result.segments) == len(golden)
        for seg, (start, end, feed, e, kind, line) in zip(result.segments,
                                                          golden):
            assert seg.kind == kind
            assert seg.source_line == line
            assert seg.feed == feed
            assert seg.extrusion_delta == pytest.approx(e, abs=1e-12)
            assert math.dist(seg.start, start) <= 1e-9
            assert math.dist(seg.end, end) <= 1e-9

    @pytest.mark.parametrize("name,program,golden",
                             CORPUS, ids=[c[0] for c in CORPUS])
    def test_exact_chaining_and_conservation(self, name, program, golden):
        result = interpret_program(program)
        for a, b in zip(result.segments, result.segments[1:]):
            assert a.end == b.start  # exact, not approximate
        total = sum(s.extrusion_delta for s in result.segments)
        assert abs(total - result.final_state.extrusion_total) <= 1e-9

    def test_metadata_events(self):
        result = interpret_program(CORPUS[11][1])
        assert [(e.code, e.params, e.line_no) for e in result.events] == [
            (104, {"S": 200.0}, 1), (140, {"S": 60.0}, 3)]


# --------------------------------------------------------------------------
# criterion 4: arc flattening bound
# --------------------------------------------------------------------------

def random_arc(rng):
    cx, cy = rng.uniform(-100, 100, 2)
    radius = rng.uniform(0.6, 80.0)
    a0 = rng.uniform(-math.pi, math.pi)
    sweep = rng.uniform(0.1, 2 * math.pi - 0.01)
    clockwise = bool(rng.integers(0, 2))
    a1 = a0 - sweep if clockwise else a0 + sweep
    start = (cx + radius * math.cos(a0), cy + radius * math.sin(a0), 0.0)
    end = (cx + radius * math.cos(a1), cy + radius * math.sin(a1))
    cmd = GcodeCommand(line_no=1, letter="G", code=2 if clockwise else 3,
                       params={"X": end[0], "Y": end[1],
                               "I": cx - start[0], "J": cy - start[1]})
    return cmd, start, (cx, cy), radius, clockwise


def actual_sweep(start, end, center, clockwise):
    a0 = math.atan2(start[1] - center[1], start[0] - center[0])
    a1 = math.atan2(end[1] - center[1], end[0] - center[0])
    s = (a0 - a1) % (2 * math.pi) if clockwise else (a1 - a0) % (2 * math.pi)
    return 2 * math.pi if s < 1e-12 else s


def expected_count(sweep, radius, tol):
    step = math.acos(1.0 - tol / radius)
    n = max(1, math.ceil(sweep / step - 1e-12))
    k = sweep / math.pi
    n_min = int(round(k)) + 1 if abs(k - round(k)) < 1e-9 else math.ceil(k)
    return max(n, n_min, 1)


class TestArcFlattening:
    TOLS = (0.005, 0.05, 0.5)

    def test_counts_and_sagitta_bound_500_arcs(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            cmd, start, center, radius, clockwise = random_arc(rng)
            state = InterpreterState(position=start)
            for tol in self.TOLS:
                segs = gcode.flatten_arc(cmd, state, chord_tol=tol)
                sweep = actual_sweep(start, segs[-1].end, center, clockwise)
                assert len(segs) == expected_count(sweep, radius, tol)
                # chord endpoints sit on the circle, so the worst deviation
                # of the true arc from each chord is the sagitta
                sagitta = radius * (1.0 - math.cos(sweep / (2 * len(segs))))
                assert sagitta <= tol + 1e-12
                assert math.dist(segs[0].start, start) == 0.0
                assert math.hypot(segs[-1].end[0] - center[0] -
                                  radius * math.cos(
                                      math.atan2(segs[-1].end[1] - center[1],
                                                 segs[-1].end[0] - center[0])),
                                  0.0) < 1e-6

    def test_dense_sampling_subset(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            cmd, start, center, radius, clockwise = random_arc(rng)
            state = InterpreterState(position=start)
            for tol in self.TOLS:
                segs = gcode.flatten_arc(cmd, state, chord_tol=tol)
                sweep = actual_sweep(start, segs[-1].end, center, clockwise)
                sign = -1.0 if clockwise else 1.0
                a0 = math.atan2(start[1] - center[1], start[0] - center[0])
                worst = 0.0
                for i, seg in enumerate(segs):
                    p0 = np.array(seg.start[:2])
                    p1 = np.array(seg.end[:2])
                    d = p1 - p0
                    denom = float(d @ d)
                    lo = a0 + sign * sweep * i / len(segs)
                    hi = a0 + sign * sweep * (i + 1) / len(segs)
                    for u in np.linspace(0.0, 1.0, 17):
                        a = lo + (hi - lo) * u
                        p = np.array([center[0] + radius * math.cos(a),
                                      center[1] + radius * math.sin(a)])
                        t = 0.0 if denom == 0 else np.clip(
                            float((p - p0) @ d) / denom, 0.0, 1.0)
                        worst = max(worst, float(np.linalg.norm(p - (p0 + t * d))))
                assert worst <= tol + 1e-9


# --------------------------------------------------------------------------
# criterion 5: plan invariants over the corpus
# --------------------------------------------------------------------------

class TestPlanInvariants:
    @pytest.mark.parametrize("name,program,golden",
                             CORPUS, ids=[c[0] for c in CORPUS])
    def test_invariants(self, name, program, golden, bridge_config):
        segments = interpret_program(program).segments
        plan = coordinator.plan_program(segments, bridge_config)
        if not segments:
            return
        max_feed = max(s.feed for s in segments)
        limit = max_feed * bridge_config.dt_plan + 1e-9

        for a, b in zip(plan.ticks, plan.ticks[1:]):
            assert math.dist(a.tool_target, b.tool_target) <= limit

        for tick in plan.ticks:
            assert kin.workspace_contains(bridge_config, tick.tool_target)
            left = tick.setpoints["r1"]
            right = tick.setpoints["r2"]
            assert left.y == right.y  # exact bridge synchrony
            assert sim.point_polyline_distance(tick.tool_target,
                                               segments) <= 1e-9

        targets = {t.tool_target for t in plan.ticks}
        endpoints = {s.end for s in segments} | {segments[0].start}
        assert endpoints <= targets  # 1e-9 Hausdorff both directions


# --------------------------------------------------------------------------
# criterion 6: end-to-end drawing fidelity regression
# --------------------------------------------------------------------------

WIRE2D_SQUARE = """G92 E0
G1 X490 Y-410 F1200
G1 X510 Y-410 E1 F600
G1 X510 Y-390 E2
G1 X490 Y-390 E3
G1 X490 Y-410 E4
"""


class TestDrawingFidelity:
    def run_job(self, cfg, program):
        t0 = time.perf_counter()
        result = gcode.interpret(gcode.parse_program(program), home=cfg.home)
        plan = coordinator.plan_program(result.segments, cfg)
        trace = sim.run(plan, cfg, seed=0)
        report = sim.measure_fidelity(trace, result.segments)
        elapsed = time.perf_counter() - t0
        return report, elapsed

    def test_bridge_square(self, bridge_config, square_print_program):
        report, elapsed = self.run_job(bridge_config, square_print_program)
        assert report.mean_deviation < 0.5
        assert report.max_deviation < 1.5
        assert elapsed < 10.0

    def test_wire2d_square(self, wire2d_config):
        report, elapsed = self.run_job(wire2d_config, WIRE2D_SQUARE)
        assert report.mean_deviation < 0.5
        assert report.max_deviation < 1.5
        assert elapsed < 10.0


# --------------------------------------------------------------------------
# criterion 7: three-layer print on the wire positioner
# --------------------------------------------------------------------------

def three_layer_program():
    lines = ["G92 E0"]
    e = 0
    for z in (50, 52, 54):
        lines.append(f"G1 X190 Y110 Z{z} F1200")
        for x, y in ((210, 110), (210, 130), (190, 130), (190, 110)):
            e += 1
            lines.append(f"G1 X{x} Y{y} E{e} F600")
    return "\n".join(lines) + "\n"


class TestThreeLayerPrint:
    def test_completes_with_layers_and_conserved_extrusion(self, wire3d_config):
        program = three_layer_program()
        result = gcode.interpret(gcode.parse_program(program),
                                 home=wire3d_config.home)
        plan = coordinator.plan_program(result.segments, wire3d_config)
        trace = sim.run(plan, wire3d_config, seed=0)  # StallTimeout would raise

        svg = sim.export_svg(trace)
        groups = [l for l in svg.splitlines() if l.startswith("<g ")]
        assert len(groups) == 3
        # one group per layer, in ascending z
        zs = [float(g.split('"layer-z')[1].split('"')[0]) for g in groups]
        assert zs == sorted(zs)

        commanded = sum(s.extrusion_delta for s in result.segments
                        if s.extrusion_delta > 0)
        assert commanded == pytest.approx(12.0)
        assert trace.extruded_length == pytest.approx(commanded, rel=0.01)


# --------------------------------------------------------------------------
# criterion 8: byte-identical simulate outputs under a fixed seed
# --------------------------------------------------------------------------

class TestDeterminism:
    @pytest.mark.parametrize("morphology,program", [
        ("bridge_xy", "G92 E0\nG1 X210 Y110 F1200\nG1 X230 Y110 E1 F600\n"
                      "G1 X230 Y130 E2\nG1 X210 Y130 E3\nG1 X210 Y110 E4\n"),
        ("wire2d_wall", WIRE2D_SQUARE),
    ])
    def test_repeat_invocations_identical(self, tmp_path, capsys,
                                          morphology, program):
        job = tmp_path / "job.gcode"
        job.write_text(program)
        cfg = tmp_path / "machine.json"
        config.write_default_config(morphology, str(cfg))
        outputs = {}
        for tag in ("first", "second"):
            args = ["simulate", str(job), str(cfg), "--seed", "17",
                    "--svg", str(tmp_path / f"{tag}.svg"),
                    "--csv", str(tmp_path / f"{tag}.csv"),
                    "--stream", str(tmp_path / f"{tag}.txt")]
            assert cli.main(args) == 0
            capsys.readouterr()
            outputs[tag] = tuple((tmp_path / f"{tag}.{ext}").read_bytes()
                                 for ext in ("svg", "csv", "txt"))
        assert outputs["first"] == outputs["second"]


# --------------------------------------------------------------------------
# criterion 9: controller convergence envelopes
# --------------------------------------------------------------------------

class TestControllerConvergence:
    def test_goto_1000_random_starts(self):
        rng = np.random.default_rng(21)
        params = RobotParams()
        dt = 0.02
        for _ in range(1000):
            d = rng.uniform(100.0, 1000.0)
            ang = rng.uniform(-math.pi, math.pi)
            state = RobotState(
                id="r", pose=(d * math.cos(ang), d * math.sin(ang),
                              rng.uniform(-math.pi, math.pi)),
                wheel_speeds=(0.0, 0.0), role="idle", params=params)
            budget = 5.0 * d / params.max_wheel_speed
            t = 0.0
            while t < budget:
                wheels = goto_controller(state, (0.0, 0.0))
                state = step_dynamics(replace(state, wheel_speeds=wheels), dt)
                t += dt
                if math.hypot(*state.pose[:2]) < params.arrival_tol:
                    break
            assert math.hypot(*state.pose[:2]) < params.arrival_tol

    def test_rotate_1000_random_targets(self):
        rng = np.random.default_rng(22)
        params = RobotParams()
        dt = 0.01
        for _ in range(1000):
            target = rng.uniform(0.01, 30.0) * (1 if rng.integers(2) else -1)
            state = RobotState(id="r", pose=(0.0, 0.0, 0.0),
                               wheel_speeds=(0.0, 0.0),
                               role="extruder_spool_1", params=params)
            for _ in range(2000):
                wheels = rotate_controller(
                    state, target - state.accumulated_rotation)
                if wheels == (0.0, 0.0):
                    break
                state = step_dynamics(replace(state, wheel_speeds=wheels), dt)
            assert abs(target - state.accumulated_rotation) < 0.002


# --------------------------------------------------------------------------
# criterion 10: reconfiguration and follow-on job
# --------------------------------------------------------------------------

class TestReconfiguration:
    def test_bridge_to_printer_then_print(self, printer_bridge_config,
                                          square_print_program):
        doc = config.default_config_doc("bridge_xy")
        doc["roster"].append({"id": "r4"})
        source = config.parse_config(doc)

        plan = coordinator.reconfigure(source, printer_bridge_config)
        assert plan.ticks

        roles = coordinator.assign_roles(printer_bridge_config)
        expected = set(coordinator.ROLE_SEQUENCE["printer_bridge"])
        active = [r for r in roles.values() if r != "idle"]
        assert set(active) == expected
        assert len(active) == len(expected)  # each role exactly once

        lo = np.array(printer_bridge_config.workspace_min[:2]) - 120.0
        hi = np.array(printer_bridge_config.workspace_max[:2]) + 120.0
        for tick in plan.ticks:
            for sp in tick.setpoints.values():
                if sp.kind == "move":
                    assert math.isfinite(sp.x) and math.isfinite(sp.y)
                    assert lo[0] <= sp.x <= hi[0]
                    assert lo[1] <= sp.y <= hi[1]

        result = gcode.interpret(gcode.parse_program(square_print_program),
                                 home=printer_bridge_config.home)
        job = coordinator.plan_program(result.segments, printer_bridge_config)
        assert job.ticks
