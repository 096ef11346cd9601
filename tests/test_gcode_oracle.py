"""The g-code front end against its earlier implementation: parse_line's
per-character comment stripper and tokenizer, and an interpret that
rebuilds its InterpreterState with one dataclasses.replace per line.
parse_line and interpret must match them exactly, errors included (type,
message and line), and so must parse_program and parse_line on each of the
program's str.splitlines()."""

import dataclasses
import math
import random
import re
from dataclasses import replace

import pytest

from swarmfab import gcode
from swarmfab.errors import (
    DuplicateParam,
    GcodeError,
    MalformedNumber,
    UnknownWord,
    UnsupportedGCode,
)
from swarmfab.gcode import GcodeCommand, InterpreterState, MetadataEvent

from test_acceptance import CORPUS, HOME
from test_coordinator import WALKS, random_walk_program

NUMBER_RE = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)")
INF = "9" * 400  # a number word that overflows to inf


def strip_comments_oracle(text):
    if ";" not in text and "(" not in text:
        return text, None
    comment = None
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == ";":
            body = text[i + 1:].strip()
            if comment is None and body:
                comment = body
            break
        if c == "(":
            close = text.find(")", i + 1)
            if close < 0:
                body = text[i + 1:].strip()
                if comment is None and body:
                    comment = body
                break
            body = text[i + 1:close].strip()
            if comment is None and body:
                comment = body
            i = close + 1
            continue
        out.append(c)
        i += 1
    return "".join(out), comment


def parse_line_oracle(text, line_no=1):
    if "\n" in text or "\r" in text:
        raise GcodeError("parse_line expects a single line", line_no)
    code_text, comment = strip_comments_oracle(text)
    code_text = code_text.strip()
    if not code_text:
        return None
    letter = None
    code = None
    params = {}
    i = 0
    n = len(code_text)
    while i < n:
        c = code_text[i]
        if c.isspace():
            i += 1
            continue
        word_letter = c.upper()
        m = NUMBER_RE.match(code_text, i + 1)
        if word_letter in gcode.COMMAND_LETTERS:
            if letter is not None:
                raise GcodeError("multiple G/M words on one line", line_no)
            if m is None:
                raise MalformedNumber(f"missing number after {word_letter}",
                                      line_no)
            value = float(m.group())
            if value < 0 or not value.is_integer():
                raise MalformedNumber(
                    f"{word_letter} code must be a non-negative integer",
                    line_no)
            letter, code = word_letter, int(value)
        elif word_letter in gcode.PARAM_LETTERS:
            if m is None:
                raise MalformedNumber(f"missing number after {word_letter}",
                                      line_no)
            if word_letter in params:
                raise DuplicateParam(f"duplicate parameter {word_letter}",
                                     line_no)
            params[word_letter] = float(m.group())
        else:
            raise UnknownWord(f"unknown word letter {word_letter!r}", line_no)
        i = m.end()
    if letter is None:
        raise UnknownWord("line has parameters but no G/M word", line_no)
    return GcodeCommand(line_no=line_no, letter=letter, code=code,
                        params=params, comment=comment)


def scale_oracle(state):
    return gcode.INCH_TO_MM if state.units == "inch" else 1.0


def resolve_target_oracle(state, params):
    s = scale_oracle(state)
    x, y, z = state.position
    if state.positioning_mode == "absolute":
        if "X" in params:
            x = params["X"] * s + state.offset[0]
        if "Y" in params:
            y = params["Y"] * s + state.offset[1]
        if "Z" in params:
            z = params["Z"] * s + state.offset[2]
    else:
        x += params.get("X", 0.0) * s
        y += params.get("Y", 0.0) * s
        z += params.get("Z", 0.0) * s
    return (x, y, z)


def extrusion_delta_oracle(state, params):
    if "E" not in params:
        return 0.0
    e = params["E"] * scale_oracle(state)
    if state.extrusion_mode == "absolute":
        return e + state.e_offset - state.extrusion_total
    return e


def feed_oracle(state, cmd):
    if "F" not in cmd.params:
        return state.feed
    f = cmd.params["F"] * scale_oracle(state) / 60.0
    if f <= 0:
        raise GcodeError("feed must be positive", cmd.line_no)
    return f


def interpret_oracle(commands, initial=None, home=(0.0, 0.0, 0.0),
                     chord_tol=0.05):
    state = initial if initial is not None else InterpreterState(position=home)
    segments = []
    events = []
    for cmd in commands:
        if cmd.letter == "M":
            if cmd.code == 82:
                state = replace(state, extrusion_mode="absolute")
            elif cmd.code == 83:
                state = replace(state, extrusion_mode="relative")
            else:
                events.append(MetadataEvent(cmd.line_no, "M", cmd.code,
                                            dict(cmd.params)))
            continue
        if cmd.code not in gcode.SUPPORTED_G:
            raise UnsupportedGCode(f"G{cmd.code} is not supported",
                                   cmd.line_no)
        if cmd.code in (0, 1):
            target = resolve_target_oracle(state, cmd.params)
            delta_e = extrusion_delta_oracle(state, cmd.params)
            feed = feed_oracle(state, cmd)
            if target != state.position or delta_e != 0.0:
                kind = "print" if delta_e > 0 else "travel"
                segments.append(gcode.MotionSegment(
                    start=state.position, end=target, feed=feed,
                    extrusion_delta=delta_e, kind=kind,
                    source_line=cmd.line_no))
            state = replace(state, position=target, feed=feed,
                            extrusion_total=state.extrusion_total + delta_e)
        elif cmd.code in (2, 3):
            arc_segments = gcode.flatten_arc(cmd, state, chord_tol)
            delta_e = extrusion_delta_oracle(state, cmd.params)
            segments.extend(arc_segments)
            state = replace(state, position=arc_segments[-1].end,
                            feed=arc_segments[-1].feed,
                            extrusion_total=state.extrusion_total + delta_e)
        elif cmd.code == 20:
            state = replace(state, units="inch")
        elif cmd.code == 21:
            state = replace(state, units="mm")
        elif cmd.code == 28:
            axes = [a for a in "XYZ" if a in cmd.params] or list("XYZ")
            x, y, z = state.position
            if "X" in axes:
                x = home[0]
            if "Y" in axes:
                y = home[1]
            if "Z" in axes:
                z = home[2]
            target = (x, y, z)
            if target != state.position:
                segments.append(gcode.MotionSegment(
                    start=state.position, end=target, feed=state.feed,
                    extrusion_delta=0.0, kind="travel",
                    source_line=cmd.line_no))
            state = replace(state, position=target)
        elif cmd.code == 90:
            state = replace(state, positioning_mode="absolute")
        elif cmd.code == 91:
            state = replace(state, positioning_mode="relative")
        elif cmd.code == 92:
            s = scale_oracle(state)
            ox, oy, oz = state.offset
            e_off = state.e_offset
            if "X" in cmd.params:
                ox = state.position[0] - cmd.params["X"] * s
            if "Y" in cmd.params:
                oy = state.position[1] - cmd.params["Y"] * s
            if "Z" in cmd.params:
                oz = state.position[2] - cmd.params["Z"] * s
            if "E" in cmd.params:
                e_off = state.extrusion_total - cmd.params["E"] * s
            if not cmd.params:
                ox, oy, oz = state.position
                e_off = state.extrusion_total
            state = replace(state, offset=(ox, oy, oz), e_offset=e_off)
    return gcode.InterpretResult(segments=segments, events=events,
                                 final_state=state)


def outcome(fn, *args, **kwargs):
    """A call's repr (every float's bits, -0.0 included, and a nan equal to
    a nan, which == is not), or the type, message and line of its g-code
    error."""
    try:
        value = fn(*args, **kwargs)
    except GcodeError as exc:
        return (type(exc), str(exc), exc.line_no)
    return repr(value)


def same_lines(text):
    for line_no, line in enumerate(text.splitlines(), start=1):
        assert (outcome(gcode.parse_line, line, line_no)
                == outcome(parse_line_oracle, line, line_no))


def parse_program_oracle(text):
    """parse_line on each of the program's lines, numbered from 1."""
    commands = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        command = gcode.parse_line(line, line_no)
        if command is not None:
            commands.append(command)
    return commands


def same_program(text):
    assert (outcome(gcode.parse_program, text)
            == outcome(parse_program_oracle, text))


def same_interpretation(commands, **kwargs):
    assert (outcome(gcode.interpret, commands, **kwargs)
            == outcome(interpret_oracle, commands, **kwargs))


EDGE_LINES = [
    "G1 X1 Y2", "g1x1y-2.5", "G1 X-", "G1 X+.5 Y-.25", "G1.5", "G-1",
    "M", "X1", "G1 G2", "G1 X1 X2", "N10 G1", "G1 X1 ; c", "(a) G1 (b) X2",
    "G1 X1\tY2", "G1 X1", "G1 X١٢", "G1 ı 5", "G1 ß2",
    "G1 X1e5", "G1 X1.e", "G" + "9" * 400, "  ", "G1 X1 (open",
    "G1 (a;b) X1", "G1 ;(x) y", "( ) G1 (c) X2", "G1 X1 ()", ";", "(",
    "G1 (un;closed", "(a)(b)G1", "G1 X1 ;  ", "G1 X\x0b1 (\u2028)",
    "G12345678901234567", "G01", "G1.0", "G1X1", "G1  X1", "G1 X1 ", "g1 x1",
    "G1 ı5", "M104 S200 P1", "G1 X1 Y2 X3", "G1 X.5 Y-0. Z+7",
    # a near miss of the plain-line pattern, which must fail in linear time
    "G1 " + " ".join(f"{c}{'1' * 30}.{'2' * 30}" for c in "XYZEFIJRSP")
    + " ;c",
]

# what str.splitlines splits a program at
SEPARATORS = ["\n", "\r\n", "\r", "\x0b", "\x85", "\u2028"]
# lines around each explicit line of a program: blank, comment and plain
PROGRAM_LINES = ["; header", "", "G1 X1 Y2 F600", "  ", "(only) ", "G28",
                 "M83 ; mode"]

G_PROGRAMS = [
    "G20\nG91\nG1 X1 Y-1 E0.2 F120\nG21\nG90\nG1 X5 Z2 E1\nG92 X0 E0\n"
    "G1 X3 E0.5\nG92\nG1 X1 Y1\nG28 X0\nG28\nM83\nG1 E0.3\nM82\nM104 S200\n",
    "G91\nG1 X-0.0 Y0 Z-0\nG1 E0\nG90\nG2 X10 Y0 I5 J0 E1 F600\n"
    "G3 X0 Y0 R5 E2\nG91\nG2 X0 Y0 I-2 J0\n",
    "G20\nG1 X1 E0.5 F60\nG92 X2 Y1 Z1 E1\nG1 X3 E2\n",
    "G1 X1 F0\n", "G17\n", "G1 X1\nG2 X1 Y0 I0 J0\n", "G2 X5 Y5\n",
    # M events with axis, feed and extrusion words among the moves
    "G91\nG1 X1 E1 F600\nM92 X80 Y-0. E93 F-5\nG1 Y1\nM206 X-0. Z9\nG90\n"
    "M117 Z3 F0\nG1 X2\nM82\nG1 E2\nM3 E9\nG1 E3\nM5\n",
    # a G28 whose axes are home, beside an axis at nan: no segment
    f"G1 X{INF}\nG92 X{INF}\nG1 X1\nG28 Y0\n",
    f"G91\nG1 X{INF}\nG1 X-{INF}\nG90\nG28 Y0\n",
    # an M event among relative moves, beside an axis at nan: no segment
    f"G91\nG1 X{INF}\nG1 X-{INF}\nM3\nG1 Y1\n",
]


class TestParseLineOracle:
    @pytest.mark.parametrize("text", EDGE_LINES)
    def test_edge_lines(self, text):
        same_lines(text)

    @pytest.mark.parametrize("name,program", [c[:2] for c in CORPUS],
                             ids=[c[0] for c in CORPUS])
    def test_acceptance_corpus(self, name, program):
        same_lines(program)

    def test_random_lines(self):
        rng = random.Random(11)
        alphabet = "GMXYZEFIJRSPgmxyzQN0123456789.+-e ;()\t"
        for _ in range(3000):
            same_lines("".join(rng.choice(alphabet)
                               for _ in range(rng.randint(0, 24))))

    def test_strip_comments(self):
        rng = random.Random(5)
        for _ in range(3000):
            text = "".join(rng.choice("G1 X;()\t\x0b\u2028ab")
                           for _ in range(rng.randint(0, 16)))
            assert (gcode._strip_comments(text)
                    == strip_comments_oracle(text))

    def test_random_lines_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        from test_gcode_properties import LINES

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(text=LINES)
        def check(text):
            same_lines(text)

        check()


class TestParseProgramOracle:
    @pytest.mark.parametrize("sep", SEPARATORS,
                             ids=["lf", "crlf", "cr", "vt", "nel", "ls"])
    def test_separators(self, sep):
        same_program(sep.join(PROGRAM_LINES))
        same_program(sep.join(PROGRAM_LINES) + sep)
        for text in EDGE_LINES:
            same_program(sep.join([*PROGRAM_LINES, text, *PROGRAM_LINES]))

    @pytest.mark.parametrize("name,program", [c[:2] for c in CORPUS],
                             ids=[c[0] for c in CORPUS])
    def test_acceptance_corpus(self, name, program):
        same_program(program)

    def test_random_programs_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        from test_gcode_properties import LINES

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(lines=st.lists(
            st.tuples(LINES | st.sampled_from(EDGE_LINES + PROGRAM_LINES),
                      st.sampled_from(SEPARATORS)), max_size=12))
        def check(lines):
            same_program("".join(line + sep for line, sep in lines))

        check()


class TestInterpretOracle:
    @pytest.mark.parametrize("program", G_PROGRAMS)
    def test_modal_programs(self, program):
        same_interpretation(gcode.parse_program(program), home=HOME)
        same_interpretation(gcode.parse_program(program), initial=dataclasses
                            .replace(InterpreterState(), units="inch",
                                     positioning_mode="relative",
                                     feed=math.pi))

    def test_m_events_keep_negative_zeros(self):
        """An M event among relative moves leaves a -0.0 coordinate and
        extrusion total as they are."""
        initial = InterpreterState(position=(-0.0, -0.0, -0.0),
                                   extrusion_total=-0.0,
                                   positioning_mode="relative",
                                   extrusion_mode="relative")
        program = "G1 X-0. E-0.\nM3\nM104 S1 X1 E1\nG90\nG1 Y-0.\nM5\n"
        same_interpretation(gcode.parse_program(program), initial=initial)

    @pytest.mark.parametrize("name,program", [c[:2] for c in CORPUS],
                             ids=[c[0] for c in CORPUS])
    def test_acceptance_corpus(self, name, program):
        same_interpretation(gcode.parse_program(program), home=HOME)

    @pytest.mark.parametrize("morphology", sorted(WALKS))
    def test_random_walk(self, morphology):
        program = random_walk_program(morphology, 9, 600)
        same_interpretation(gcode.parse_program(program), home=HOME)
