"""The columnar front end (gcode.parse_program's Commands and interpret's
Segments) against the oracles of test_gcode_oracle: parse_line on every
line, and the record-by-record interpreter.  Results are compared by repr,
which shows every float's bits and lets a nan equal a nan, and errors by
type, message and line."""

import math
import random

import numpy as np
import pytest

from swarmfab import config, coordinator, gcode, sim
from swarmfab.errors import GcodeError, PlanError

from test_acceptance import HOME
from test_gcode_oracle import (
    SEPARATORS,
    interpret_oracle,
    parse_program_oracle,
)

# number words: signs, bare points, a 17-digit integer and a 400-digit one,
# which overflows to inf
NUMBERS = ["-0.", "+.5", "5.", "0", "1.25", "-3", "12.5", ".75", "-2.",
           "12345678901234567", "9" * 400]
RADII = ["2", "3.5", "+4.", ".75"]
ERRORS = ["G7", "G1 X1 X2", "G1 F0", "G1 F-5 X1", "Q1", "G1 X", "M",
          "G1.5", "G" + "9" * 400, "G2 X0 Y0", "G1 X1 F1 F2"]


def line_of(rng):
    """One random line: a plain, commented, lower-case or blank line of a
    move, an arc, a reset or a mode word."""
    n = lambda: rng.choice(NUMBERS)  # noqa: E731
    plain = rng.choice([
        f"G1 X{n()} Y{n()}",
        f"G1 X{n()} E{n()} F{rng.choice(['600', '1200', '90.5'])}",
        f"G0 Z{n()}", f"G1 E{n()}", "G90", "G91", "G20", "G21", "M82", "M83",
        "G92", f"G92 E{n()}", f"G92 X{n()} Z{n()}", "G28", "G28 Y0",
        f"M104 S{n()} P1", f"M106 P{n()} S2",
        # full circles, and R arcs of half a chord or more, which stay
        # consistent in either positioning mode
        f"G2 X0 Y0 I{rng.choice(RADII)} J0", f"G3 I0 J-{rng.choice(RADII)}",
        f"G3 X1 Y0 R{rng.choice(RADII)} E{n()}",
    ])
    form = rng.randrange(6)
    if form == 0:
        return f"{plain} ; c{rng.randrange(9)}"
    if form == 1:
        return plain.lower()
    if form == 2:
        return rng.choice(["", "  ", "; only", "(paren)"])
    if form == 3:
        return plain.replace(" ", "  ")
    return plain


def program_of(rng, lines, error=False):
    body = [line_of(rng) for _ in range(lines)]
    if error:
        body[rng.randrange(lines)] = rng.choice(ERRORS)
    sep = rng.choice(SEPARATORS)
    return sep.join(body) + rng.choice(["", sep])


def result(fn, *args, **kwargs):
    try:
        return repr(fn(*args, **kwargs))
    except GcodeError as exc:
        return (type(exc), str(exc), exc.line_no)


def pipeline(parse, interpret, text, **kwargs):
    """Parse, then interpret the parsed records: parse errors come first."""
    try:
        commands = parse(text)
    except GcodeError as exc:
        return ("parse", type(exc), str(exc), exc.line_no)
    return result(interpret, commands, **kwargs)


def same_front_end(text):
    assert (result(gcode.parse_program, text)
            == result(parse_program_oracle, text))
    for kwargs in ({"home": HOME}, {"initial": gcode.InterpreterState(
            units="inch", positioning_mode="relative", feed=math.pi,
            extrusion_total=-0.0)}):
        want = pipeline(parse_program_oracle, interpret_oracle, text,
                        **kwargs)
        assert pipeline(gcode.parse_program, gcode.interpret, text,
                        **kwargs) == want
        assert pipeline(lambda text: list(gcode.parse_program(text)),
                        gcode.interpret, text, **kwargs) == want


class TestFrontEndOracle:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_programs(self, seed):
        rng = random.Random(seed)
        same_front_end(program_of(rng, rng.randint(1, 30),
                                  error=seed % 4 == 3))

    def test_random_programs_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(seed=st.integers(0, 2 ** 32 - 1),
                          lines=st.integers(1, 40), error=st.booleans())
        def check(seed, lines, error):
            same_front_end(program_of(random.Random(seed), lines, error))

        check()

    @pytest.mark.parametrize("word", NUMBERS)
    def test_number_words(self, word):
        text = f"G1 X{word} Y1\nG91\nG1 Y{word} E{word}\nM104 S{word}\n"
        same_front_end(text)
        table = gcode.parse_program(text)
        assert table.values[0, 0] == float(word)
        assert (np.copysign(1.0, table.values[0, 0])
                == math.copysign(1.0, float(word)))
        assert table.present[0].tolist() == [True, True] + [False] * 8

    def test_chord_tol_raises_only_at_an_arc(self):
        text = "G1 X1 F600\nG7\nG2 X1 Y0 I1 J0\n"
        for parse in (gcode.parse_program, parse_program_oracle):
            with pytest.raises(GcodeError) as err:
                gcode.interpret(parse(text), chord_tol=0.0)
            assert err.value.line_no == 2
        with pytest.raises(ValueError):
            gcode.interpret(gcode.parse_program("G2 X0 Y0 I1 J0\n"),
                            chord_tol=-1.0)
        assert gcode.interpret(gcode.parse_program("G1 X1\n"),
                               chord_tol=0.0).segments == [
            gcode.MotionSegment((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 20.0, 0.0,
                                "travel", 1)]


class TestTables:
    def test_commands_read_as_records(self):
        text = "G21\n; c\nG1 X1 ; a\nM104 S200 P1\ng1 y2\n"
        table = gcode.parse_program(text)
        want = parse_program_oracle(text)
        assert table == want and repr(table) == repr(want)
        assert table[1:] == want[1:] and table[-1] == want[-1]
        again = gcode.Commands.of(want)
        assert again == table and gcode.Commands.of(again) is again
        for name in ("line", "m", "code", "values", "present"):
            mine, theirs = getattr(table, name), getattr(again, name)
            assert mine.tobytes() == theirs.tobytes()

    def test_segments_read_as_records(self):
        text = "G1 X1 E1 F600\nG2 X1 Y0 I1 J0\nG1 Y4\n"
        segments = gcode.interpret(gcode.parse_program(text)).segments
        records = interpret_oracle(parse_program_oracle(text)).segments
        assert segments == records and repr(segments) == repr(records)
        assert segments[2:5] == records[2:5] and segments[-1] == records[-1]
        again = gcode.Segments.of(records)
        assert again == segments and gcode.Segments.of(again) is again
        assert segments.lengths().tolist() == [s.length for s in records]


CFG = config.default_config("bridge_xy")
JOB = ("G21\nG90\nM82\nG92 E0\nG0 X201 Y100 F3000\n"
       "G1 X206 Y100 E0.25 F2700\nG3 X206 Y102.2 I0 J1.1 E0.42\n"
       "G1 X201 Y102.2 E0.67\nG2 X201 Y104.4 I0 J1.1 E0.84\n"
       "G1 X206 Y104.4 E1.09\n")


class TestRecordsAndTable:
    """A MotionSegment list plans and scores as interpret's table does."""

    def test_plan_and_fidelity(self):
        table = gcode.interpret(gcode.parse_program(JOB),
                                home=CFG.home).segments
        records = list(table)
        plan = coordinator.plan_program(table, CFG)
        assert plan == coordinator.plan_program(records, CFG)
        trace = sim.run(plan, CFG)
        report = sim.measure_fidelity(trace, table)
        assert report == sim.measure_fidelity(trace, records)
        assert report.total_print_length == sum(
            s.length for s in records if s.kind == "print")

    @pytest.mark.parametrize("k", [1, 5, 12])
    def test_unchained_list_raises_at_its_line(self, k):
        records = list(gcode.interpret(gcode.parse_program(JOB),
                                       home=CFG.home).segments)
        start = records[k].start
        records[k] = records[k]._replace(start=(start[0] + 0.5, *start[1:]))
        for segments in (records, gcode.Segments.of(records)):
            with pytest.raises(PlanError) as err:
                coordinator.plan_program(segments, CFG)
            assert err.value.line_no == records[k].source_line
            assert str(err.value).endswith(
                f"segments not chained at line {records[k].source_line}")
