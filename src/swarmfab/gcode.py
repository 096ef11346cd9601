"""G-code parsing and interpretation into machine-independent motion segments.

Supported dialect: a minimal Marlin-style subset.  G0/G1 linear moves,
G2/G3 arcs (XY plane, I/J or R form), G20/G21 units, G28 home, G90/G91
positioning mode, G92 datum rebind, M82/M83 extrusion mode.  All other
M codes pass through as metadata events.  Feed words are mm/min in the
source and mm/s internally.

Both stages work on columns: `parse_program` gives a program's commands as
`Commands`, and `interpret` its motion segments as `Segments`, which read
as sequences of `GcodeCommand` and `MotionSegment` records.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, compress
from typing import Callable, NamedTuple, Optional

import numpy as np

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

# a comment, its one group its text: `;` to the end of the line, or `(` to
# the next `)` or the line end; the second is the first for a text with no
# "(", which it splits about three times faster
_COMMENT_RE = re.compile(r"[;(]((?<=;).*|[^)\n]*)\)?")
_SEMICOLON_RE = re.compile(r";(.*)")
# one word: a letter (any non-space character; parse_line checks it) and
# the number that follows it, if any
_WORD_RE = re.compile(r"\s*(\S)([+-]?(?:\d+\.?\d*|\.\d+))?")
# parse_program's byte classes, of the bytes in turn (";" marks a comment
# it has taken out; any other byte is _OTHER), the classes that may follow
# each on a plain line, and whether class b may follow class a, at 16a + b
_OTHER, _SPACE, _MARK, _SIGN, _DIGIT, _END, _PARAM, _DOT, _CODE = range(9)
_CLASSES = bytes(map({c: k for k, chars in enumerate((
    b" \t", b";", b"+-", b"0123456789", b"\n", b"XYZEFIJRSP", b".", b"GM"), 1)
    for c in chars}.get, range(256), bytes(256)))
_NEXT = {_SPACE: (_SPACE, _MARK, _END, _PARAM), _MARK: (_MARK, _END),
         _SIGN: (_DOT, _DIGIT), _DOT: (_SPACE, _MARK, _DIGIT, _END, _PARAM),
         _DIGIT: (_SPACE, _MARK, _DOT, _DIGIT, _END, _PARAM),
         _END: (_MARK, _END, _CODE), _PARAM: (_SIGN, _DOT, _DIGIT),
         _CODE: (_DIGIT,)}
_PAIRS = bytes(p % 16 in _NEXT.get(p // 16, ()) for p in range(256))

_PARAM_ORDER = "XYZEFIJRSP"
# the parameters' columns in Commands, and over plain lines each word
# letter as its column (G and M last), and each letter and mark as a space
_COLUMN_ORDER = "XYZFEIJRSP"
_COLUMNS = bytes.maketrans(b"XYZFEIJRSPGM", bytes(range(12)))
_SPACES = bytes.maketrans(b"XYZFEIJRSPGM;", b" " * 13)
# a segment's kind, by whether it extrudes
_KINDS = np.array(["travel", "print"])
# rows per block in Segments.lengths
_LENGTH_ROWS = 1024

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


class _Rows(Sequence):
    """Rows that read as records, built on each access; `==` and repr are
    those of the list of the records."""

    __hash__ = None

    def __eq__(self, other):
        return (list(self) == list(other) if isinstance(other, Sequence)
                else NotImplemented)

    def __repr__(self):
        return repr(list(self))


class Commands(_Rows):
    """Parsed commands as columns, one row per command in line order:
    `line` (int64), `m` (bool: an M word, else a G word), `code` (float64;
    nan for a code no G or M word has), and the parameters in XYZFEIJRSP
    column order, `values` (N x 10 float64, 0.0 where absent) and
    `present` (N x 10 bool), and `comments`, the first comment of each
    line that has one, by line number, comment-only lines included.  A
    row reads as its GcodeCommand, which `record(i)` builds; a slice as a
    list of them."""

    def __init__(self, line, m, code, values, present, comments,
                 record: Callable[[int], GcodeCommand]):
        self.line, self.m, self.code = line, m, code
        self.values, self.present, self.comments = values, present, comments
        self.record = record

    @classmethod
    def of(cls, commands) -> Commands:
        """The Commands of GcodeCommand records (a Commands is its own)."""
        if isinstance(commands, Commands):
            return commands
        records = list(commands)
        params = [c.params for c in records]
        code = np.array([c.code for c in records], float)
        code[(code < 0) | (code != np.floor(code))] = np.nan
        return cls(np.array([c.line_no for c in records], np.int64),
                   np.array([c.letter == "M" for c in records], bool), code,
                   np.array([[p.get(k, 0.0) for k in _COLUMN_ORDER]
                             for p in params], float).reshape(-1, 10),
                   np.array([[k in p for k in _COLUMN_ORDER]
                             for p in params], bool).reshape(-1, 10),
                   {c.line_no: c.comment for c in records if c.comment},
                   records.__getitem__)

    def __len__(self):
        return len(self.line)

    def __getitem__(self, i):
        rows = range(len(self))[i]
        return list(map(self.record, rows)) if isinstance(i, slice) else (
            self.record(rows))


class Segments(_Rows):
    """Motion segments as columns, one row per segment: `starts` and `ends`
    (N x 3 float64), `feed` and `extrusion` (float64), `kind` (str) and
    `line` (int64), MotionSegment's fields.  A row reads as its
    MotionSegment, built on each access; a slice or an index array as the
    Segments of its rows."""

    def __init__(self, starts, ends, feed, extrusion, kind, line):
        self.starts, self.ends, self.feed = starts, ends, feed
        self.extrusion, self.kind, self.line = extrusion, kind, line

    @classmethod
    def of(cls, segments) -> Segments:
        """The Segments of MotionSegment records (a Segments is its own)."""
        if isinstance(segments, Segments):
            return segments
        starts, ends, feed, extrusion, kind, line = (
            tuple(zip(*segments)) or ((),) * 6)
        return cls(np.array(starts, float).reshape(-1, 3),
                   np.array(ends, float).reshape(-1, 3),
                   np.array(feed, float), np.array(extrusion, float),
                   np.array(kind, str), np.array(line, np.int64))

    def __len__(self):
        return len(self.line)

    def __getitem__(self, i):
        columns = (self.starts[i], self.ends[i], self.feed[i],
                   self.extrusion[i], self.kind[i], self.line[i])
        if not isinstance(i, (int, np.integer)):
            return Segments(*columns)
        start, end, *rest = (column.tolist() for column in columns)
        return MotionSegment(tuple(start), tuple(end), *rest)

    def __iter__(self):
        return map(MotionSegment._make, zip(
            map(tuple, self.starts.tolist()), map(tuple, self.ends.tolist()),
            self.feed.tolist(), self.extrusion.tolist(), self.kind.tolist(),
            self.line.tolist()))

    def lengths(self) -> np.ndarray:
        """Each row's MotionSegment.length, a block at a time: math.hypot
        of the row's differences, which is math.dist of its endpoints (both
        take the same norm of the same differences), from one float list
        per column and no list per row."""
        blocks = range(0, len(self), _LENGTH_ROWS)
        with np.errstate(over="ignore", invalid="ignore"):
            return np.fromiter(chain.from_iterable(
                map(math.hypot, *(self.starts[a:a + _LENGTH_ROWS]
                                  - self.ends[a:a + _LENGTH_ROWS]).T.tolist())
                for a in blocks), float, len(self))


@dataclass(frozen=True)
class InterpretResult:
    segments: Segments
    events: list[MetadataEvent]
    final_state: InterpreterState


def _strip_comments(text: str) -> tuple[str, Optional[str]]:
    """Remove `;`-to-EOL and `( ... )` comments; return (code, first comment)."""
    if ";" not in text and "(" not in text:
        return text, None
    parts = _COMMENT_RE.split(text)
    return "".join(parts[::2]), next(filter(None, map(str.strip, parts[1::2])),
                                     None)


def parse_line(text: str, line_no: int = 1) -> Optional[GcodeCommand]:
    """Parse one source line; returns None for blank or comment-only lines."""
    if "\n" in text or "\r" in text:
        raise GcodeError("parse_line expects a single line", line_no)
    code_text, comment = _strip_comments(text)
    code_text = code_text.strip()
    if not code_text:
        return None

    letter = code = None
    params: dict[str, float] = {}
    # code_text is stripped, so the words cover it end to end
    for word, number in _WORD_RE.findall(code_text):
        word_letter = word.upper()
        if word_letter in COMMAND_LETTERS:
            if letter is not None:
                raise GcodeError("multiple G/M words on one line", line_no)
            if not number:
                raise MalformedNumber(f"missing number after {word_letter}", line_no)
            letter, code = word_letter, float(number)  # "1.0" is code 1
            if code < 0 or not code.is_integer():
                raise MalformedNumber(
                    f"{letter} code must be a non-negative integer", line_no)
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
    return GcodeCommand(line_no, letter, int(code), params, comment)


def parse_program(text: str) -> Commands:
    """Parse a whole program into Commands, skipping blank and comment
    lines; the first error in line order aborts it.  No record is built
    per command (a row's record is parse_line of its line).

    Comments go first, in one split of the whole text by parse_line's
    rules: each leaves a ";" mark, and each line's first comment with text
    goes into the `comments` column.  A byte-class test then finds the
    plain lines: a G or M word at the line's start, then parameter words,
    apart or not, then spaces, tabs or marks; a number has a digit and at
    most one dot, a G or M number only digits.  float() of each of their
    numbers is its value, in its letter's column.  Every other line that
    is not blank goes through parse_line, in line order, and so does a
    plain line with a duplicate word or a code too large for a float."""
    lines = text.splitlines()
    joined = "\n".join(["", *lines, ""])  # each line between two "\n"
    parts = ((_COMMENT_RE if "(" in joined else _SEMICOLON_RE).split(joined)
             if ";" in joined or "(" in joined else [joined])
    data = ";".join(parts[::2]).encode(errors="replace")
    kinds = np.frombuffer(data.translate(_CLASSES), np.uint8)
    ends = (kinds == _END).nonzero()[0]  # line k, from 1, ends at ends[k]
    comments = {}
    if len(parts) > 1:
        marks = ends.searchsorted((kinds == _MARK).nonzero()[0]).tolist()
        for no, body in zip(marks, map(str.strip, parts[1::2])):
            if body:
                comments.setdefault(no, body)
    # a line is plain if each byte may follow the one before, each dot has a
    # digit beside it, and, digits taken out, no dot follows a dot, G or M
    pairs = ((kinds[:-1] << 4) | kinds[1:]).tobytes().translate(_PAIRS)
    plain = np.logical_and.reduceat(np.frombuffer(pairs, bool), ends[:-1])
    dots = (kinds == _DOT).nonzero()[0]
    bare = (kinds[dots - 1] != _DIGIT) & (kinds[dots + 1] != _DIGIT)
    plain[ends.searchsorted(dots[bare]) - 1] = False
    kept = np.frombuffer(data.translate(_CLASSES, b"0123456789"), np.uint8)
    dots = (kept == _DOT).nonzero()[0]
    late = dots[kept[dots - 1] >= _DOT]  # after a dot or a G or M
    if len(late):
        plain[(kept == _END).nonzero()[0].searchsorted(late) - 1] = False
    others = ((~plain).nonzero()[0] + 1).tolist()
    plain &= kinds[ends[:-1] + 1] == _CODE  # blank lines are not rows
    if others:
        data = b"\n".join(compress(data.split(b"\n")[1:-1], plain.tolist()))
    letters = np.frombuffer(data.translate(_COLUMNS, b" \t\n;+-.0123456789"),
                            np.uint8)
    numbers = np.fromiter(map(float, data.translate(_SPACES).split()), float,
                          len(letters))
    # each word's row (a G or M word starts one) and column, G and M last
    row, line = (letters >= 10).cumsum() - 1, plain.nonzero()[0] + 1
    values, present = np.zeros((len(line), 12)), np.zeros((len(line), 12),
                                                          bool)
    values[row, letters] = numbers
    present[row, letters] = True
    code, stop = values[:, 10] + values[:, 11], len(lines) + 1
    bad = np.isinf(code)  # a code too large for a float, or a duplicate word
    if np.count_nonzero(present) < len(row) or bad.any():
        bad |= present.sum(1) < np.bincount(row, minlength=len(line))
        stop = line[bad.argmax()].item()
    extra = list(filter(None, (parse_line(lines[no - 1], no)
                               for no in others if no < stop)))
    if stop <= len(lines):
        parse_line(lines[stop - 1], stop)  # raises
    columns = (line, present[:, 11], code, values[:, :10], present[:, :10])
    if extra:
        more = Commands.of(extra)
        order = np.argsort(np.concatenate((line, more.line)))
        columns = [np.concatenate((mine, theirs))[order] for mine, theirs
                   in zip(columns, (more.line, more.m, more.code, more.values,
                                    more.present))]
    numbered = columns[0].tolist()
    return Commands(*columns, comments,
                    lambda i: parse_line(lines[numbered[i] - 1], numbered[i]))


def _positional(value: float) -> str:
    """The shortest repr of a float, in the positional notation parse_line
    reads: 1e-05 becomes 0.00001."""
    text = repr(value)
    if "e" not in text:
        return text
    from decimal import Decimal  # imported only for the rare exponent form
    return format(Decimal(text), "f")


def serialize_command(cmd: GcodeCommand) -> str:
    words = [f"{cmd.letter}{cmd.code}"] + [
        f"{k}{_positional(cmd.params[k])}" for k in _PARAM_ORDER
        if k in cmd.params]
    return " ".join(words) + (f" ; {cmd.comment}" if cmd.comment else "")


def serialize_program(commands: list[GcodeCommand]) -> str:
    return "\n".join(serialize_command(c) for c in commands) + "\n"


def _scale(units: str) -> float:
    return INCH_TO_MM if units == "inch" else 1.0


def _segment_count(theta: float, radius: float, chord_tol: float) -> int:
    """Chord count for an arc sweep; each chord must subtend < pi."""
    x = 1.0 - chord_tol / radius
    step = 0.0 if x >= 1.0 else math.acos(max(-1.0, x))
    n = 1 if step <= 0 else max(1, math.ceil(theta / step - 1e-12))
    k = theta / math.pi
    n_min = int(round(k)) + 1 if abs(k - round(k)) < 1e-9 else math.ceil(k)
    return max(n, n_min, 1)


def flatten_arc(cmd: GcodeCommand, state: InterpreterState,
                chord_tol: float) -> list[MotionSegment]:
    """Flatten a G2/G3 arc into chords within chord_tol of the true circle."""
    return list(interpret([cmd], state, chord_tol=chord_tol).segments)


def _arc(clockwise: bool, ij, r, line_no: int, s: float, sx, sy, sz,
         ex, ey, ez, chord_tol: float) -> tuple:
    """The geometry of a G2/G3 arc from (sx, sy, sz) to (ex, ey, ez), of
    I/J words ij (a pair, or None) or an R word r (or None), in units of
    scale s: its centre, radius, start angle, signed sweep and chord
    count."""
    if chord_tol <= 0:
        raise ValueError("chord_tol must be positive")

    if ij is not None:
        cx = sx + ij[0] * s
        cy = sy + ij[1] * s
        r0 = math.hypot(sx - cx, sy - cy)
        r1 = math.hypot(ex - cx, ey - cy)
        if r0 <= 0:
            raise DegenerateArc("arc radius is zero", line_no)
        if abs(r0 - r1) > 1e-6 * r0:
            raise InconsistentArc(
                f"start/end radii differ: {r0:.9g} vs {r1:.9g}", line_no)
        radius = 0.5 * (r0 + r1)
    elif r is not None:
        r_signed = r * s
        radius = abs(r_signed)
        if radius <= 0:
            raise DegenerateArc("arc radius must be positive", line_no)
        q = math.hypot(ex - sx, ey - sy)
        if q < 1e-12:
            raise DegenerateArc("R-form arc with coincident endpoints", line_no)
        if radius < q / 2 - 1e-9:
            raise InconsistentArc("radius smaller than half the chord", line_no)
        h = math.sqrt(max(0.0, radius * radius - (q / 2) ** 2))
        mx, my = (sx + ex) / 2, (sy + ey) / 2
        px, py = -(ey - sy) / q, (ex - sx) / q
        centres = [(mx + sign * h * px, my + sign * h * py)
                   for sign in (1.0, -1.0)]
        # R > 0: the minor sweep's centre, else the major's; on a tie the first
        cx, cy = next((c for c in centres if (r_signed > 0) == (
            _arc_sweep(sx, sy, ex, ey, *c, clockwise) <= math.pi + 1e-12)),
            centres[0])
    else:
        raise GcodeError("arc needs I/J or R", line_no)
    if not all(map(math.isfinite, (cx, cy, radius, sx, sy, sz, ex, ey, ez))):
        raise DegenerateArc("arc is not finite", line_no)

    theta = _arc_sweep(sx, sy, ex, ey, cx, cy, clockwise)
    if theta < 1e-12:
        theta = 2 * math.pi  # start == end with I/J: full circle

    n = _segment_count(theta, radius, chord_tol)
    a0 = math.atan2(sy - cy, sx - cx)
    return cx, cy, radius, a0, -theta if clockwise else theta, n


def _chord_columns(arcs, starts, ends, e_totals):
    """The chords of arcs of _arc geometry (six values an arc, in one flat
    list) from starts to ends (K x 3), extruding e_totals: the points
    between each arc's chords, in rows, and the extrusion of each chord.
    The same arithmetic, in the same order, as a loop over chords i =
    1..n: the point at angle a0 + sweep * i / n, and the extrusion total
    e * i / n less the one before."""
    with np.errstate(over="ignore", invalid="ignore"):
        arcs = np.column_stack((np.array(arcs, float).reshape(-1, 6),
                                starts[:, 2], ends[:, 2] - starts[:, 2],
                                e_totals))
        counts = arcs[:, 5].astype(np.intp)
        cx, cy, radius, a0, turn, n, z, dz, e = arcs.repeat(counts, axis=0).T
        i = np.arange(len(n)) - (counts.cumsum() - counts).repeat(counts) + 1.
        total = e * i / n
        before = np.concatenate(([0.0], total[:-1]))
        before[i == 1] = 0.0
        inner = i < n
        angle = (a0 + turn * i / n)[inner].tolist()
        cos = np.fromiter(map(math.cos, angle), float, len(angle))
        sin = np.fromiter(map(math.sin, angle), float, len(angle))
        return np.column_stack((cx[inner] + radius[inner] * cos,
                                cy[inner] + radius[inner] * sin,
                                (z + dz * i / n)[inner])), total - before


def _arc_sweep(sx, sy, ex, ey, cx, cy, clockwise: bool) -> float:
    """Swept angle from start to end in the commanded direction, in [0, 2pi)."""
    a0 = math.atan2(sy - cy, sx - cx)
    a1 = math.atan2(ey - cy, ex - cx)
    return (a0 - a1 if clockwise else a1 - a0) % (2 * math.pi)


def _fill(array, at, a: int) -> None:
    """Fill the len(at) rows of a 2-d array after row a forward, in place,
    per column: where `at` is False, a row takes the value of the row
    before it."""
    index = np.where(at, np.arange(a + 1, a + 1 + len(at))[:, None], a)
    np.maximum.accumulate(index, axis=0, out=index)
    array[a + 1:a + 1 + len(at)] = array[index, np.arange(at.shape[1])]


def interpret(commands, initial: Optional[InterpreterState] = None,
              home: tuple[float, float, float] = (0.0, 0.0, 0.0),
              chord_tol: float = 0.05) -> InterpretResult:
    """Execute parsed commands (Commands, or GcodeCommand records) into a
    chained Segments table; the first error in line order is raised.

    One loop runs over the rows that are neither moves (G0-G3) nor M
    events, each a scalar step as in a loop over the records.  The rows
    between two such rows are a run, interpreted as columns in the run's
    modes: a forward fill gives the feeds and absolute targets, and a
    running sum the relative targets and relative extrusion, adding in
    order as a loop over the moves would.  Absolute extrusion (M82) is such
    a loop, as each delta depends on the total before it.  An M event in a
    run sets no word and adds -0.0, which leaves every sum as it is.
    """
    t = Commands.of(commands)
    state = initial if initial is not None else InterpreterState(position=home)
    n = len(t.line)
    # the position and feed after each row (pos[0]: before the first), the
    # extrusion of each row, and the axes it sets
    pos, e, touched = np.empty((n + 1, 4)), np.zeros(n), np.zeros((n, 3), bool)
    here = (*state.position, state.feed)
    total, offset, e_offset = (state.extrusion_total, state.offset,
                               state.e_offset)
    units, positioning, extruding = (state.units, state.positioning_mode,
                                     state.extrusion_mode)
    # the rows of the arcs, and their _arc geometry in one flat list
    arcs, geometry, a = [], [], 0
    event = t.m & (t.code != 82) & (t.code != 83)
    steps = (~event & (t.m | ~(t.code <= 3))).nonzero()[0].tolist()
    arc_rows = (~t.m & (t.code >= 2) & (t.code <= 3)).nonzero()[0].tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        for i in [*steps, n]:
            # the run of rows a..i-1, if it has a move, in XYZFE columns
            if a < i and (moves := ~event[a:i]).any():
                s = _scale(units)
                words, at = t.values[a:i, :5] * s, t.present[a:i, :5]
                words[:, 3] /= 60.0
                if not moves.all():  # an M event sets nothing, adds -0.0
                    at = at & moves[:, None]
                    words[~moves] = -0.0
                pos[a] = here
                if positioning == "absolute":  # a feed + 0.0: itself, or bad
                    np.add(words[:, :4], (*offset, 0.0), out=pos[a + 1:i + 1])
                    _fill(pos, at[:, :4], a)
                    touched[a:i] = at[:, :3]
                else:  # every axis of a relative move adds its step
                    pos[a + 1:i + 1] = words[:, :4]
                    np.add.accumulate(pos[a:i + 1, :3], 0,
                                      out=pos[a:i + 1, :3])
                    _fill(pos[:, 3:], at[:, 3:4], a)
                    touched[a:i] = moves[:, None]
                here, deltas = tuple(pos[i].tolist()), words[:, 4]
                if extruding == "absolute" and at[:, 4].any():
                    deltas = deltas.tolist()
                    for q, has in enumerate(at[:, 4].tolist()):
                        if has:
                            deltas[q] = deltas[q] + e_offset - total
                        total = total + deltas[q]
                else:
                    total = np.add.accumulate(
                        np.concatenate(([total], deltas)))[-1].item()
                e[a:i] = deltas
                # the run's new arcs, up to its first bad feed; then that error
                bad = (at[:, 3] & (words[:, 3] <= 0)).nonzero()[0]
                stop = a + bad[0] + 1 if len(bad) else i
                rows = arc_rows[len(arcs):bisect_left(arc_rows, stop)]
                if rows:  # from 1-D columns, with no list per arc
                    has = t.present[rows, 5:8]
                    for (cw, di, dj, radius, ij, has_r, line,
                         sx, sy, sz, ex, ey, ez) in zip(
                            (t.code[rows] == 2).tolist(),
                            *t.values[rows, 5:8].T.tolist(),
                            (has[:, 0] | has[:, 1]).tolist(),
                            has[:, 2].tolist(), t.line[rows].tolist(),
                            *pos[rows, :3].T.tolist(),
                            *pos[1:][rows, :3].T.tolist()):
                        geometry += _arc(cw, (di, dj) if ij else None,
                                         radius if has_r else None, line, s,
                                         sx, sy, sz, ex, ey, ez, chord_tol)
                    arcs += rows
                if len(bad):
                    raise GcodeError("feed must be positive",
                                     t.line[stop - 1].item())
            if i == n:
                break
            a, c = i + 1, t.code[i].item()
            if t.m[i]:  # M82 or M83
                extruding = "absolute" if c == 82 else "relative"
            elif c not in SUPPORTED_G:
                record = t.record(i)
                raise UnsupportedGCode(f"G{record.code} is not supported",
                                       record.line_no)
            elif c in (20, 21):
                units = "inch" if c == 20 else "mm"
            elif c in (90, 91):
                positioning = "absolute" if c == 90 else "relative"
            elif c == 92:  # a bare G92 makes every axis, and E, read 0
                params, s = t.record(i).params, _scale(units)
                offset = tuple(here[k] - params[x] * s if x in params
                               else offset[k] if params else here[k]
                               for k, x in enumerate("XYZ"))
                if "E" in params or not params:
                    e_offset = total - params.get("E", 0.0) * s
            else:  # a G28 moves the axes it names, or every axis, home
                named = t.present[i, :3]
                touched[i] = named if named.any() else True
                pos[i] = pos[i + 1] = here
                pos[i + 1, :3] = np.where(touched[i], home, here[:3])
                here = tuple(pos[i + 1].tolist())

        # a segment for each move that moves or extrudes, for each G28 that
        # moves, and for each chord of each arc
        changed = (pos[1:, :3] != pos[:-1, :3]) & touched
        keep = changed[:, 0] | changed[:, 1] | changed[:, 2] | (e != 0.0)
        keep[arcs] = True
    take = keep.nonzero()[0]
    if arcs:
        reps = keep.astype(np.intp)
        reps[arcs] = geometry[5::6]
        take = take.repeat(reps[take])
    elif len(take) == n:  # every row: views, not copies
        take = slice(None)
    before, after, extrusion = pos[:-1][take], pos[1:][take], e[take]
    kinds = _KINDS[(extrusion > 0).view(np.int8)]
    if arcs:  # a chord after an arc's first starts where the one before ends
        arc, chord = np.array(arcs, np.intp), np.zeros(n, bool)
        chord[arc] = True
        inner, extrusion[chord[take]] = _chord_columns(
            geometry, pos[arc], pos[arc + 1], e[arc])
        later = (take[1:] == take[:-1]).nonzero()[0] + 1
        before[later, :3] = after[later - 1, :3] = inner
    segments = Segments(before[:, :3], after[:, :3], after[:, 3], extrusion,
                        kinds, t.line[take])
    events = [MetadataEvent(r.line_no, "M", r.code, dict(r.params))
              for r in map(t.record, event.nonzero()[0].tolist())]
    final = InterpreterState(here[:3], total, here[3], positioning, extruding,
                             units, offset, e_offset)
    return InterpretResult(segments=segments, events=events, final_state=final)
