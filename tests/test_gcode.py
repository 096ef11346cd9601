import math
import pickle

import numpy as np
import pytest

from swarmfab import gcode
from swarmfab.errors import (
    DegenerateArc,
    DuplicateParam,
    GcodeError,
    InconsistentArc,
    MalformedNumber,
    UnknownWord,
    UnsupportedGCode,
)


class TestParseLine:
    def test_basic_move(self):
        cmd = gcode.parse_line("G1 X10 Y20 F1500")
        assert cmd.letter == "G"
        assert cmd.code == 1
        assert cmd.params == {"X": 10.0, "Y": 20.0, "F": 1500.0}

    def test_comment_only_line(self):
        assert gcode.parse_line("; header comment") is None
        assert gcode.parse_line("( inline only )") is None
        assert gcode.parse_line("   ") is None

    def test_duplicate_param(self):
        with pytest.raises(DuplicateParam):
            gcode.parse_line("G1 X10 X20")

    def test_case_insensitive_and_inline_comment(self):
        cmd = gcode.parse_line("g1 x5.5 (move) y-2 ; trailing")
        assert cmd.code == 1
        assert cmd.params == {"X": 5.5, "Y": -2.0}
        assert cmd.comment == "move"

    def test_unknown_word(self):
        with pytest.raises(UnknownWord):
            gcode.parse_line("N10 G1 X0")
        with pytest.raises(UnknownWord):
            gcode.parse_line("T0")

    def test_malformed_number(self):
        with pytest.raises(MalformedNumber):
            gcode.parse_line("G1 X")
        with pytest.raises(MalformedNumber):
            gcode.parse_line("G1.5 X0")

    def test_signed_and_fractional_numbers(self):
        cmd = gcode.parse_line("G1 X+1.5 Y-.25 Z3.")
        assert cmd.params == {"X": 1.5, "Y": -0.25, "Z": 3.0}


class TestParseProgram:
    def test_two_lines(self):
        cmds = gcode.parse_program("G28\nG1 X5")
        assert [(c.letter, c.code) for c in cmds] == [("G", 28), ("G", 1)]
        assert cmds[1].params == {"X": 5.0}

    def test_empty_file(self):
        assert gcode.parse_program("") == []

    def test_line_numbers_one_based_and_skips(self):
        cmds = gcode.parse_program("; header\n\nG1 X1\nG1 Y2")
        assert [c.line_no for c in cmds] == [3, 4]

    def test_error_cites_line(self):
        with pytest.raises(GcodeError) as err:
            gcode.parse_program("G28\nG1 X1\nG1 X1 X2")
        assert err.value.line_no == 3

    def test_crlf(self):
        cmds = gcode.parse_program("G28\r\nG1 X5\r\n")
        assert len(cmds) == 2

    def test_serialize_round_trip(self):
        text = "G28\nG1 X10.5 Y-3 E0.2 F1200\nM104 S210\nG92 E0\n"
        cmds = gcode.parse_program(text)
        again = gcode.parse_program(gcode.serialize_program(cmds))
        assert again == cmds


class TestRecords:
    def test_default_params_not_shared(self):
        for record in (gcode.GcodeCommand, gcode.MetadataEvent):
            a, b = record(1, "G", 1), record(2, "G", 1)
            a.params["X"] = 1.0
            assert b.params == {} and a.params is not b.params
            assert record(3, "G", 1).params == {}

    def test_repr(self):
        assert repr(gcode.GcodeCommand(3, "G", 1, {"X": 1.5})) == (
            "GcodeCommand(line_no=3, letter='G', code=1, params={'X': 1.5}, "
            "comment=None)")
        assert repr(gcode.MetadataEvent(4, "M", 104, {"S": 200.0})) == (
            "MetadataEvent(line_no=4, letter='M', code=104, "
            "params={'S': 200.0})")
        assert repr(gcode.MotionSegment((0.0, 0.0, 0.0), (3.0, 4.0, 0.0),
                                        10.0, 0.0, "travel", 2)) == (
            "MotionSegment(start=(0.0, 0.0, 0.0), end=(3.0, 4.0, 0.0), "
            "feed=10.0, extrusion_delta=0.0, kind='travel', source_line=2)")

    def test_equality_and_hash(self):
        seg = gcode.MotionSegment((0.0, 0.0, 0.0), (3.0, 4.0, 0.0), 10.0,
                                  0.0, "travel", 2)
        assert seg.length == 5.0
        assert seg == seg._replace(end=(3.0, 4.0, 0.0))
        assert seg != seg._replace(source_line=3)
        assert hash(seg) == hash(seg._replace())
        cmd = gcode.GcodeCommand(1, "G", 1, {"X": 1.0})
        assert cmd == gcode.GcodeCommand(1, "G", 1, {"X": 1.0})
        assert cmd != cmd._replace(comment="c")
        with pytest.raises(TypeError):  # params is a dict
            hash(cmd)

    def test_pickle_round_trip(self):
        records = gcode.parse_program("G1 X1 Y-2.5 ; a\nM104 S200\n")
        result = gcode.interpret(records)
        for record in (*records, *result.segments, *result.events):
            again = pickle.loads(pickle.dumps(record))
            assert type(again) is type(record)
            assert again == record and repr(again) == repr(record)


class TestInterpret:
    def test_print_segment_with_unit_conversion(self):
        cmds = gcode.parse_program("G92 E0\nG1 X10 E5 F600")
        result = gcode.interpret(cmds)
        assert len(result.segments) == 1
        seg = result.segments[0]
        assert seg.start == (0.0, 0.0, 0.0)
        assert seg.end == (10.0, 0.0, 0.0)
        assert seg.feed == pytest.approx(10.0)  # 600 mm/min
        assert seg.extrusion_delta == pytest.approx(5.0)
        assert seg.kind == "print"

    def test_relative_mode(self):
        result = gcode.interpret(gcode.parse_program("G91\nG1 X5\nG1 X5"))
        assert len(result.segments) == 2
        assert result.segments[-1].end == (10.0, 0.0, 0.0)
        assert all(s.kind == "travel" for s in result.segments)

    def test_square_total_length_matches_walk(self):
        # independent oracle: walk the same program accumulating distances
        prog = ("G1 X20 F1200\nG1 X20 Y20\nG1 X0 Y20\nG1 X0 Y0")
        result = gcode.interpret(gcode.parse_program(prog))
        assert len(result.segments) == 4
        expected = 0.0
        pos = (0.0, 0.0)
        for target in [(20, 0), (20, 20), (0, 20), (0, 0)]:
            expected += math.dist(pos, target)
            pos = target
        assert expected == pytest.approx(80.0)
        total = sum(s.length for s in result.segments)
        assert total == pytest.approx(expected, abs=1e-12)

    def test_chaining_exact(self):
        prog = "G1 X3.3 Y1.7 F1200\nG2 X6.6 Y1.7 I1.65\nG1 Y9"
        segs = gcode.interpret(gcode.parse_program(prog)).segments
        for a, b in zip(segs, segs[1:]):
            assert a.end == b.start

    def test_mode_independence(self):
        absolute = "G90\nG1 X10 Y5 F1200\nG1 X20 Y5\nG1 X20 Y15"
        relative = "G91\nG1 X10 Y5 F1200\nG1 X10\nG1 Y10"
        sa = gcode.interpret(gcode.parse_program(absolute)).segments
        sr = gcode.interpret(gcode.parse_program(relative)).segments
        assert len(sa) == len(sr)
        for a, b in zip(sa, sr):
            assert np.allclose(a.end, b.end, atol=1e-9)

    def test_inch_units(self):
        result = gcode.interpret(gcode.parse_program("G20\nG1 X1 F60\nG21\nG1 X30.4"))
        assert result.segments[0].end[0] == pytest.approx(25.4)
        assert result.segments[0].feed == pytest.approx(25.4)  # 60 in/min
        assert result.segments[1].end[0] == pytest.approx(30.4)

    def test_g28_homes(self):
        result = gcode.interpret(gcode.parse_program("G1 X5 Y5 F1200\nG28"),
                                 home=(1.0, 2.0, 3.0))
        # initial position is home, so the program starts there
        assert result.segments[0].start == (1.0, 2.0, 3.0)
        assert result.segments[-1].end == (1.0, 2.0, 3.0)
        assert result.segments[-1].kind == "travel"

    def test_g92_rebind_no_motion(self):
        result = gcode.interpret(gcode.parse_program("G1 X5 F1200\nG92 X0\nG1 X5"))
        assert len(result.segments) == 2
        assert result.segments[1].start == (5.0, 0.0, 0.0)
        assert result.segments[1].end == (10.0, 0.0, 0.0)

    def test_metadata_events_not_errors(self):
        result = gcode.interpret(gcode.parse_program(
            "M104 S200\nM140 S60\nM109 S200\nG1 X1 F1200\nM400"))
        assert [e.code for e in result.events] == [104, 140, 109, 400]
        assert len(result.segments) == 1

    def test_unsupported_g_code(self):
        with pytest.raises(UnsupportedGCode):
            gcode.interpret(gcode.parse_program("G5 X1"))

    def test_extrusion_conservation_across_rebinds(self):
        prog = ("G92 E0\nG1 X10 E2 F1200\nG92 E0\nG1 X20 E3\n"
                "M83\nG1 X30 E1.5\nM82\nG92 E10\nG1 X40 E11")
        result = gcode.interpret(gcode.parse_program(prog))
        total = sum(s.extrusion_delta for s in result.segments)
        assert total == pytest.approx(2 + 3 + 1.5 + 1, abs=1e-9)

    def test_extrude_in_place(self):
        result = gcode.interpret(gcode.parse_program("G92 E0\nG1 E5 F300"))
        seg = result.segments[0]
        assert seg.start == seg.end
        assert seg.kind == "print"
        assert seg.extrusion_delta == pytest.approx(5.0)

    def test_default_feed_before_first_f(self):
        result = gcode.interpret(gcode.parse_program("G1 X10"))
        assert result.segments[0].feed == pytest.approx(gcode.DEFAULT_FEED_MM_S)


def _arc_state(x=0.0, y=0.0, z=0.0, feed=10.0):
    return gcode.InterpreterState(position=(x, y, z), feed=feed)


def _max_circle_deviation(segments, cx, cy, r):
    """Dense-sample every chord, measure distance from the analytic circle."""
    worst = 0.0
    for seg in segments:
        for frac in np.linspace(0.0, 1.0, 50):
            px = seg.start[0] + (seg.end[0] - seg.start[0]) * frac
            py = seg.start[1] + (seg.end[1] - seg.start[1]) * frac
            worst = max(worst, abs(math.hypot(px - cx, py - cy) - r))
    return worst


class TestFlattenArc:
    def test_quarter_circle_count_and_bound(self):
        # start (10,0), CCW quarter to (0,10), center (0,0)
        cmd = gcode.parse_line("G3 X0 Y10 I-10 J0")
        segs = gcode.flatten_arc(cmd, _arc_state(x=10.0), chord_tol=0.05)
        assert len(segs) == 16
        assert segs[0].start == (10.0, 0.0, 0.0)
        assert segs[-1].end == (0.0, 10.0, 0.0)
        assert _max_circle_deviation(segs, 0.0, 0.0, 10.0) <= 0.05

    def test_semicircle_coarse_tolerance_splits(self):
        cmd = gcode.parse_line("G2 X2 Y0 I1 J0")
        segs = gcode.flatten_arc(cmd, _arc_state(), chord_tol=1.0)
        assert len(segs) == 2
        assert segs[-1].end == (2.0, 0.0, 0.0)

    def test_full_circle_perimeter(self):
        cmd = gcode.parse_line("G2 X0 Y0 I5 J0")
        segs = gcode.flatten_arc(cmd, _arc_state(), chord_tol=0.001)
        assert segs[0].start == (0.0, 0.0, 0.0)
        assert segs[-1].end == (0.0, 0.0, 0.0)
        perimeter = sum(s.length for s in segs)
        assert perimeter == pytest.approx(2 * math.pi * 5, rel=2e-4)

    def test_r_form_semicircle(self):
        cmd = gcode.parse_line("G3 X20 Y0 R10")
        segs = gcode.flatten_arc(cmd, _arc_state(), chord_tol=0.01)
        assert segs[-1].end == (20.0, 0.0, 0.0)
        assert _max_circle_deviation(segs, 10.0, 0.0, 10.0) <= 0.01

    def test_inconsistent_arc(self):
        cmd = gcode.parse_line("G2 X100 Y0 I1 J0")
        with pytest.raises(InconsistentArc):
            gcode.flatten_arc(cmd, _arc_state(), chord_tol=0.05)

    def test_degenerate_arc(self):
        cmd = gcode.parse_line("G2 X0 Y0 R5")
        with pytest.raises(DegenerateArc):
            gcode.flatten_arc(cmd, _arc_state(), chord_tol=0.05)

    @pytest.mark.parametrize("arc", ["G2 X10 Y0 R" + "9" * 400,
                                     "G2 X0 Y0 I" + "9" * 400 + " J0"],
                             ids=["R", "IJ"])
    def test_arc_not_finite(self, arc):
        with pytest.raises(DegenerateArc) as err:
            gcode.interpret(gcode.parse_program(f"G1 X1 F600\n{arc}\n"))
        assert (str(err.value), err.value.line_no) == (
            "line 2: arc is not finite", 2)

    def test_random_arcs_respect_bound(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            r = rng.uniform(5.0, 40.0)
            a0 = rng.uniform(-math.pi, math.pi)
            sweep = rng.uniform(0.1, 1.9 * math.pi)
            tol = rng.choice([0.005, 0.05, 0.5])
            clockwise = bool(rng.integers(0, 2))
            sx, sy = r * math.cos(a0), r * math.sin(a0)
            a1 = a0 - sweep if clockwise else a0 + sweep
            ex, ey = r * math.cos(a1), r * math.sin(a1)
            code = 2 if clockwise else 3
            cmd = gcode.GcodeCommand(1, "G", code, {
                "X": ex, "Y": ey, "I": -sx, "J": -sy})
            segs = gcode.flatten_arc(cmd, _arc_state(x=sx, y=sy), chord_tol=tol)
            assert segs[-1].end[:2] == (ex, ey)
            assert _max_circle_deviation(segs, 0.0, 0.0, r) <= tol + 1e-9

    def test_arc_extrusion_distributed(self):
        cmd = gcode.parse_line("G3 X0 Y10 I-10 J0 E2")
        state = gcode.InterpreterState(position=(10.0, 0.0, 0.0),
                                       extrusion_total=0.0)
        segs = gcode.flatten_arc(cmd, state, chord_tol=0.05)
        assert sum(s.extrusion_delta for s in segs) == pytest.approx(2.0, abs=1e-12)
        assert all(s.kind == "print" for s in segs)
