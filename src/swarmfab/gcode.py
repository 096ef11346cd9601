"""G-code parsing and interpretation into machine-independent motion segments.

Supported dialect: a minimal Marlin-style subset.  G0/G1 linear moves,
G2/G3 arcs (XY plane, I/J or R form), G20/G21 units, G28 home, G90/G91
positioning mode, G92 datum rebind, M82/M83 extrusion mode.  All other
M codes pass through as metadata events.  Feed words are mm/min in the
source and mm/s internally.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import count
from typing import NamedTuple, Optional

from .errors import (
    DegenerateArc,
    DuplicateParam,
    GcodeError,
    InconsistentArc,
    MalformedNumber,
    UnknownWord,
    UnsupportedGCode,
)

PARAM_LETTERS = frozenset("XYZEFIJRSP")
COMMAND_LETTERS = frozenset("GM")

SUPPORTED_G = frozenset({0, 1, 2, 3, 20, 21, 28, 90, 91, 92})

DEFAULT_FEED_MM_S = 20.0
INCH_TO_MM = 25.4

# a comment: `;` to the end of the line, or `(` to the next `)`, or to the
# end of the line if none follows
_COMMENT_RE = re.compile(r";(.*)|\(([^)]*)\)?")
# one word: a letter (any non-space character; parse_line checks it) and
# the number that follows it, if any
_WORD_RE = re.compile(r"\s*(\S)([+-]?(?:\d+\.?\d*|\.\d+))?")
# a plain line: an upper-case G or M word, then parameter words, each after
# one space, with ASCII numbers and no comment.  A number's digits split
# only one way, so a near miss fails in linear time.
_PLAIN_RE = re.compile(
    r"[GM][0-9]+(?: [XYZEFIJRSP][+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+))*")

# builds a record from the tuple of its fields, without a __new__ call
_new = tuple.__new__


class _Command(NamedTuple):
    line_no: int
    letter: str  # "G" or "M"
    code: int
    params: dict[str, float]
    comment: Optional[str] = None


class GcodeCommand(_Command):
    """One structured G or M word with its parameters."""

    __slots__ = ()

    def __new__(cls, line_no: int, letter: str, code: int,
                params: Optional[dict[str, float]] = None,
                comment: Optional[str] = None):
        # a default-built command gets its own empty params
        return _new(cls, (line_no, letter, code,
                          {} if params is None else params, comment))


class _Event(NamedTuple):
    line_no: int
    letter: str
    code: int
    params: dict[str, float]


class MetadataEvent(_Event):
    """Non-motion M code recorded alongside the segment stream."""

    __slots__ = ()

    def __new__(cls, line_no: int, letter: str, code: int,
                params: Optional[dict[str, float]] = None):
        return _new(cls, (line_no, letter, code,
                          {} if params is None else params))


@dataclass(frozen=True)
class InterpreterState:
    """Modal state threaded through interpretation.

    `position` and `extrusion_total` are physical; G92 rebinds shift the
    logical datum via `offset` / `e_offset` (logical = physical - offset).
    """

    position: tuple[float, float, float] = (0.0, 0.0, 0.0)
    extrusion_total: float = 0.0
    feed: float = DEFAULT_FEED_MM_S  # mm/s
    positioning_mode: str = "absolute"  # absolute | relative
    extrusion_mode: str = "absolute"
    units: str = "mm"  # mm | inch
    offset: tuple[float, float, float] = (0.0, 0.0, 0.0)
    e_offset: float = 0.0


class MotionSegment(NamedTuple):
    """A straight-line tool move between two cartesian points."""

    start: tuple[float, float, float]
    end: tuple[float, float, float]
    feed: float  # mm/s
    extrusion_delta: float  # mm of filament; <= 0 means travel
    kind: str  # travel | print
    source_line: int

    @property
    def length(self) -> float:
        return math.dist(self.start, self.end)


@dataclass(frozen=True)
class InterpretResult:
    segments: list[MotionSegment]
    events: list[MetadataEvent]
    final_state: InterpreterState


def _strip_comments(text: str) -> tuple[str, Optional[str]]:
    """Remove `;`-to-EOL and `( ... )` comments; return (code, first comment)."""
    if ";" not in text and "(" not in text:
        return text, None
    bodies = (body.strip() for m in _COMMENT_RE.finditer(text)
              for body in m.groups() if body is not None)
    return _COMMENT_RE.sub("", text), next(filter(None, bodies), None)


def _code(letter: str, number: str, line_no: int) -> int:
    """The integer of a G/M word's number, which may be written as a float."""
    value = float(number)
    if value < 0 or not value.is_integer():
        raise MalformedNumber(f"{letter} code must be a non-negative integer",
                              line_no)
    return int(value)


def parse_line(text: str, line_no: int = 1) -> Optional[GcodeCommand]:
    """Parse one source line; returns None for blank or comment-only lines."""
    if _PLAIN_RE.fullmatch(text):
        words = text.split(" ")
        params = {word[0]: float(word[1:]) for word in words[1:]}
        # a duplicate word goes to the tokenizer, which names it
        if len(params) == len(words) - 1:
            letter = text[0]
            return _new(GcodeCommand, (line_no, letter,
                                       _code(letter, words[0][1:], line_no),
                                       params, None))
    if "\n" in text or "\r" in text:
        raise GcodeError("parse_line expects a single line", line_no)
    code_text, comment = _strip_comments(text)
    code_text = code_text.strip()
    if not code_text:
        return None

    letter = None
    code = None
    params: dict[str, float] = {}
    # code_text is stripped, so the words cover it end to end
    for word, number in _WORD_RE.findall(code_text):
        word_letter = word.upper()
        if word_letter in COMMAND_LETTERS:
            if letter is not None:
                raise GcodeError("multiple G/M words on one line", line_no)
            if not number:
                raise MalformedNumber(f"missing number after {word_letter}", line_no)
            letter, code = word_letter, _code(word_letter, number, line_no)
        elif word_letter in PARAM_LETTERS:
            if not number:
                raise MalformedNumber(f"missing number after {word_letter}", line_no)
            if word_letter in params:
                raise DuplicateParam(f"duplicate parameter {word_letter}", line_no)
            params[word_letter] = float(number)
        else:
            raise UnknownWord(f"unknown word letter {word_letter!r}", line_no)

    if letter is None:
        raise UnknownWord("line has parameters but no G/M word", line_no)
    return GcodeCommand(line_no, letter, code, params, comment)


def parse_program(text: str) -> list[GcodeCommand]:
    """Parse a whole program; skips blank/comment lines, aborts on first error."""
    # a command is a non-empty tuple, so filter drops just the Nones
    return list(filter(None, map(parse_line, text.splitlines(), count(1))))


_PARAM_ORDER = "XYZEFIJRSP"


def _positional(value: float) -> str:
    """The shortest repr of a float, in the positional notation parse_line
    reads: 1e-05 becomes 0.00001."""
    text = repr(value)
    if "e" not in text:
        return text
    from decimal import Decimal  # imported only for the rare exponent form
    return format(Decimal(text), "f")


def serialize_command(cmd: GcodeCommand) -> str:
    parts = [f"{cmd.letter}{cmd.code}"]
    for letter in _PARAM_ORDER:
        if letter in cmd.params:
            parts.append(f"{letter}{_positional(cmd.params[letter])}")
    text = " ".join(parts)
    if cmd.comment:
        text += f" ; {cmd.comment}"
    return text


def serialize_program(commands: list[GcodeCommand]) -> str:
    return "\n".join(serialize_command(c) for c in commands) + "\n"


# The modal-state helpers take the state's fields, so that interpret can
# keep them in locals; `s` is the unit scale (_scale).

def _scale(units: str) -> float:
    return INCH_TO_MM if units == "inch" else 1.0


def _resolve_target(params: dict[str, float], s: float, absolute: bool,
                    position, offset) -> tuple[float, float, float]:
    x, y, z = position
    if absolute:
        if "X" in params:
            x = params["X"] * s + offset[0]
        if "Y" in params:
            y = params["Y"] * s + offset[1]
        if "Z" in params:
            z = params["Z"] * s + offset[2]
    else:
        x += params.get("X", 0.0) * s
        y += params.get("Y", 0.0) * s
        z += params.get("Z", 0.0) * s
    return (x, y, z)


def _extrusion_delta(params: dict[str, float], s: float, absolute: bool,
                     e_offset: float, extrusion_total: float) -> float:
    if "E" not in params:
        return 0.0
    e = params["E"] * s
    if absolute:
        return e + e_offset - extrusion_total
    return e


def _feed(params: dict[str, float], line_no: int, s: float,
          feed: float) -> float:
    """The feed in mm/s for a command: its F word, or the modal feed."""
    if "F" not in params:
        return feed
    f = params["F"] * s / 60.0  # mm/min -> mm/s
    if f <= 0:
        raise GcodeError("feed must be positive", line_no)
    return f


def _segment_count(theta: float, radius: float, chord_tol: float) -> int:
    """Chord count for an arc sweep; each chord must subtend < pi."""
    x = 1.0 - chord_tol / radius
    if x >= 1.0:
        step = 0.0
    else:
        step = math.acos(max(-1.0, x))
    n = 1 if step <= 0 else max(1, math.ceil(theta / step - 1e-12))
    k = theta / math.pi
    if abs(k - round(k)) < 1e-9:
        n_min = int(round(k)) + 1
    else:
        n_min = math.ceil(k)
    return max(n, n_min, 1)


def flatten_arc(cmd: GcodeCommand, state: InterpreterState,
                chord_tol: float) -> list[MotionSegment]:
    """Flatten a G2/G3 arc into chords within chord_tol of the true circle."""
    if chord_tol <= 0:
        raise ValueError("chord_tol must be positive")
    clockwise = cmd.code == 2
    s = _scale(state.units)
    start = state.position
    end = _resolve_target(cmd.params, s, state.positioning_mode == "absolute",
                          start, state.offset)
    sx, sy = start[0], start[1]
    ex, ey = end[0], end[1]

    if "I" in cmd.params or "J" in cmd.params:
        cx = sx + cmd.params.get("I", 0.0) * s
        cy = sy + cmd.params.get("J", 0.0) * s
        r0 = math.hypot(sx - cx, sy - cy)
        r1 = math.hypot(ex - cx, ey - cy)
        if r0 <= 0:
            raise DegenerateArc("arc radius is zero", cmd.line_no)
        if abs(r0 - r1) > 1e-6 * r0:
            raise InconsistentArc(
                f"start/end radii differ: {r0:.9g} vs {r1:.9g}", cmd.line_no
            )
        radius = 0.5 * (r0 + r1)
    elif "R" in cmd.params:
        r_signed = cmd.params["R"] * s
        radius = abs(r_signed)
        if radius <= 0:
            raise DegenerateArc("arc radius must be positive", cmd.line_no)
        q = math.hypot(ex - sx, ey - sy)
        if q < 1e-12:
            raise DegenerateArc("R-form arc with coincident endpoints", cmd.line_no)
        if radius < q / 2 - 1e-9:
            raise InconsistentArc("radius smaller than half the chord", cmd.line_no)
        h = math.sqrt(max(0.0, radius * radius - (q / 2) ** 2))
        mx, my = (sx + ex) / 2, (sy + ey) / 2
        px, py = -(ey - sy) / q, (ex - sx) / q
        best = None
        for sign in (1.0, -1.0):
            ccx, ccy = mx + sign * h * px, my + sign * h * py
            sweep = _arc_sweep(sx, sy, ex, ey, ccx, ccy, clockwise)
            minor = sweep <= math.pi + 1e-12
            if (r_signed > 0) == minor:
                best = (ccx, ccy)
                break
        if best is None:  # numerical tie: fall back to first candidate
            best = (mx + h * px, my + h * py)
        cx, cy = best
    else:
        raise GcodeError("arc needs I/J or R", cmd.line_no)

    theta = _arc_sweep(sx, sy, ex, ey, cx, cy, clockwise)
    if theta < 1e-12:
        theta = 2 * math.pi  # start == end with I/J: full circle

    n = _segment_count(theta, radius, chord_tol)
    a0 = math.atan2(sy - cy, sx - cx)
    direction = -1.0 if clockwise else 1.0
    e_total = _extrusion_delta(cmd.params, s,
                               state.extrusion_mode == "absolute",
                               state.e_offset, state.extrusion_total)
    feed = _feed(cmd.params, cmd.line_no, s, state.feed)
    kind = "print" if e_total > 0 else "travel"

    segments = []
    prev = start
    prev_e = 0.0
    for i in range(1, n + 1):
        if i == n:
            pt = end  # endpoints exact
        else:
            a = a0 + direction * theta * i / n
            pt = (cx + radius * math.cos(a), cy + radius * math.sin(a),
                  start[2] + (end[2] - start[2]) * i / n)
        cum_e = e_total * i / n
        segments.append(_new(MotionSegment, (prev, pt, feed, cum_e - prev_e,
                                             kind, cmd.line_no)))
        prev, prev_e = pt, cum_e
    return segments


def _arc_sweep(sx, sy, ex, ey, cx, cy, clockwise: bool) -> float:
    """Swept angle from start to end in the commanded direction, in [0, 2pi)."""
    a0 = math.atan2(sy - cy, sx - cx)
    a1 = math.atan2(ey - cy, ex - cx)
    if clockwise:
        sweep = (a0 - a1) % (2 * math.pi)
    else:
        sweep = (a1 - a0) % (2 * math.pi)
    return sweep


def interpret(commands: list[GcodeCommand],
              initial: Optional[InterpreterState] = None,
              home: tuple[float, float, float] = (0.0, 0.0, 0.0),
              chord_tol: float = 0.05) -> InterpretResult:
    """Execute parsed commands into a chained list of MotionSegments."""
    state = initial if initial is not None else InterpreterState(position=home)
    # the modal state lives in locals, in InterpreterState's field order
    (position, extrusion_total, feed, positioning_mode, extrusion_mode, units,
     offset, e_offset) = (state.position, state.extrusion_total, state.feed,
                          state.positioning_mode, state.extrusion_mode,
                          state.units, state.offset, state.e_offset)
    segments: list[MotionSegment] = []
    events: list[MetadataEvent] = []

    s = _scale(units)
    for cmd in commands:
        line_no, letter, code, params, _ = cmd
        if letter == "M":
            if code == 82:
                extrusion_mode = "absolute"
            elif code == 83:
                extrusion_mode = "relative"
            else:
                events.append(MetadataEvent(line_no, "M", code, dict(params)))
            continue

        if code not in SUPPORTED_G:
            raise UnsupportedGCode(f"G{code} is not supported", line_no)

        if code in (0, 1):
            target = _resolve_target(params, s, positioning_mode == "absolute",
                                     position, offset)
            delta_e = _extrusion_delta(params, s, extrusion_mode == "absolute",
                                       e_offset, extrusion_total)
            feed = _feed(params, line_no, s, feed)
            if target != position or delta_e != 0.0:
                kind = "print" if delta_e > 0 else "travel"
                segments.append(_new(MotionSegment, (position, target, feed,
                                                     delta_e, kind, line_no)))
            position = target
            extrusion_total += delta_e
        elif code in (2, 3):
            arc_segments = flatten_arc(cmd, InterpreterState(
                position, extrusion_total, feed, positioning_mode,
                extrusion_mode, units, offset, e_offset), chord_tol)
            delta_e = _extrusion_delta(params, s, extrusion_mode == "absolute",
                                       e_offset, extrusion_total)
            segments.extend(arc_segments)
            position = arc_segments[-1].end
            feed = arc_segments[-1].feed
            extrusion_total += delta_e
        elif code == 20:
            units, s = "inch", INCH_TO_MM
        elif code == 21:
            units, s = "mm", 1.0
        elif code == 28:
            axes = [a for a in "XYZ" if a in params] or list("XYZ")
            x, y, z = position
            if "X" in axes:
                x = home[0]
            if "Y" in axes:
                y = home[1]
            if "Z" in axes:
                z = home[2]
            target = (x, y, z)
            if target != position:
                segments.append(_new(MotionSegment, (position, target, feed,
                                                     0.0, "travel", line_no)))
            position = target
        elif code == 90:
            positioning_mode = "absolute"
        elif code == 91:
            positioning_mode = "relative"
        elif code == 92:
            ox, oy, oz = offset
            if "X" in params:
                ox = position[0] - params["X"] * s
            if "Y" in params:
                oy = position[1] - params["Y"] * s
            if "Z" in params:
                oz = position[2] - params["Z"] * s
            if "E" in params:
                e_offset = extrusion_total - params["E"] * s
            if not params:  # bare G92: all logical coordinates become 0
                ox, oy, oz = position
                e_offset = extrusion_total
            offset = (ox, oy, oz)

    final = InterpreterState(position, extrusion_total, feed, positioning_mode,
                             extrusion_mode, units, offset, e_offset)
    return InterpretResult(segments=segments, events=events, final_state=final)
