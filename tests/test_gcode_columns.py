"""parse_program's column path against parse_line on each of the program's
str.splitlines(): its byte-class line test, which sends every line it
does not take to parse_line, and its one pass over the comments.

A program must give the columns of the records parse_line gives (every
float's bits, -0.0 included), the same records, each line's first comment
in `comments`, or the same first error (type, message and line)."""

import math

import numpy as np
import pytest

from swarmfab import gcode
from swarmfab.errors import GcodeError

from test_gcode_oracle import SEPARATORS, strip_comments_oracle


def oracle(text):
    """parse_line on each line, numbered from 1, and each line's first
    comment by the per-character stripper, by line number."""
    lines = text.splitlines()
    records = [c for no, line in enumerate(lines, start=1)
               if (c := gcode.parse_line(line, no)) is not None]
    comments = {no: comment for no, line in enumerate(lines, start=1)
                if (comment := strip_comments_oracle(line)[1]) is not None}
    return records, comments


def columns(table):
    """A Commands' columns, as lists whose repr shows every float's bits."""
    return [table.line.tolist(), table.m.tolist(), table.code.tolist(),
            table.values.tolist(), table.present.tolist()]


def outcome(parse, text):
    try:
        table = parse(text)
    except GcodeError as exc:
        return type(exc), str(exc), exc.line_no
    if parse is oracle:
        records, comments = table
        table = gcode.Commands.of(records)
    else:
        records, comments = list(table), table.comments
    return (repr(columns(table)), repr(records), comments,
            list(comments) == sorted(comments))


def same_program(text):
    assert outcome(gcode.parse_program, text) == outcome(oracle, text)


# lines at the edges of the byte-class test: those it must take and those
# it must leave to parse_line, which accepts some of them
EDGES = [
    "G1 X1.", "G1 X.5", "G1 X+.5", "G1 X-0", "G1 X-0.", "G1 X-.0",
    "G1 X1..2", "G1 X1.2.3", "G1 X.", "G1 X+.", "G1 X-", "G1 X+-1",
    "G1 X1-2", "G1 X 1", "G1 X Y1", "G1 X ", "G1 5", "G1 X1 5", "G1.0",
    "G1.", "G01", "G+1", "G-1", "G 1", "G1.5", "G0.5 X1", "G1 X- Y1",
    "G1 X+ ", "G1 X.\t", "G1  X1   Y2", "G1 X1 ", "G1 X1\t",
    "G1\tX1\t\tY2 \t", "G1X1Y2", "G1 X1.5Y-2.E3", " G1 X1", "\tG1", " X1",
    "\tX1 Y2", "G1 X1 G2", "X1 G1", "X1", "M", "G1 Y2 X1", "M104 P1 S200",
    "G1 X1 X2", "g1 x1", "G1 x1", "N10 G1", "T0", "G1 X1*57", "G1 X1 ; c",
    "G1 X1;c", "G1 X1(c)", "G1 X1 (c) Y2", "(c) G1 X1", "(c)G1", "(c) X1",
    "; c\tX1", "G1 (open", "G1 X1 (un;closed", "G1 ;(x) y", "G1 X1 ()",
    "G1 X1 ; ", "; only", ";", "(", "()", "(a)(b)", "  ; c",
    "G1 X1 ; naïve ünïcode ✓", "G1 X1 (ß ∑)", "G1 X١", " ", "G1 X1\x1f",
    "  ", "\t", "", "G" + "9" * 400, "G1 X" + "9" * 400,
    "G12345678901234567 X1",
]


class TestEdges:
    @pytest.mark.parametrize("line", EDGES)
    def test_edge_line(self, line):
        same_program(line)
        same_program(f"G21\n{line}\nG1 X3 Y4 ; after\n")

    @pytest.mark.parametrize("sep", SEPARATORS,
                             ids=["lf", "crlf", "cr", "vt", "nel", "ls"])
    def test_edge_lines_in_one_program(self, sep):
        taken = [line for line in EDGES
                 if not isinstance(outcome(oracle, line)[0], type)]
        same_program(sep.join(taken))
        same_program(sep.join(EDGES))  # the first error wins

    def test_minus_zero(self):
        table = gcode.parse_program("G1 X-0 Y-0. Z-.0 E0\n")
        assert [math.copysign(1.0, v) for v in table.values[0, :4]] == [
            -1.0, -1.0, -1.0, 1.0]

    def test_crlf_and_lf_give_the_same_columns(self):
        text = "G1 X1.5 Y-2 ; a\nM104 S200\n(b)\nG1 X.5\n"
        assert (outcome(gcode.parse_program, text.replace("\n", "\r\n"))
                == outcome(gcode.parse_program, text))

    def test_comments_column(self):
        text = ("; header\nG1 X1 ; move (a)\n(  )\nG1 (first) X2 ; second\n"
                "G28\n(open\n  ;  padded  \n")
        table = gcode.parse_program(text)
        assert table.comments == {1: "header", 2: "move (a)", 4: "first",
                                  6: "open", 7: "padded"}
        assert [c.comment for c in table] == ["move (a)", "first", None]
        assert gcode.parse_program("G1 X1\n").comments == {}
        assert gcode.Commands.of(list(table)).comments == {2: "move (a)",
                                                          4: "first"}

    def test_comment_marks_are_not_words(self):
        # each comment becomes a ";" mark: it ends a word, but a number
        # split by a comment is two words, which parse_line rejects
        same_program("G1 X1(a)2\n")
        same_program("G1 X(a)1\n")
        same_program("G1 X1 (a)(b) ; c\n")

    def test_rejected_lines_keep_their_order(self):
        text = "G1 X1\n G1 X2\nG1 X3 (c) Y1\ng1 x4\nG1 X5\n"
        table = gcode.parse_program(text)
        assert table.line.tolist() == [1, 2, 3, 4, 5]
        assert table.values[:, 0].tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
        same_program(text)


def test_mixed_programs_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    number = st.from_regex(r"[+-]?(\d{1,3}(\.\d{0,3})?|\.\d{1,3})",
                           fullmatch=True)
    word = st.builds(str.__add__, st.sampled_from("XYZEFIJRSP"), number)
    gap = st.sampled_from(["", " ", "  ", "\t"])
    comment = st.sampled_from(
        ["", " ; c", ";LAYER:2", " (a)", "(b;c)", " (open", " ; ü ✓", "()"])
    command = st.builds(
        lambda head, words, gaps, tail: head + "".join(
            g + w for g, w in zip(gaps, words)) + tail,
        st.sampled_from(["G1", "G0", "G92", "M104", "G01", "G1.0", "G91"]),
        st.lists(word, max_size=5), st.lists(gap, min_size=5, max_size=5),
        comment)
    noise = st.text(alphabet="GMXYZEFNT*0123456789.+- \t;()", max_size=12)
    line = command | comment | noise | st.sampled_from(EDGES)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(lines=st.lists(
        st.tuples(line, st.sampled_from(SEPARATORS)), max_size=20))
    def check(lines):
        same_program("".join(line + sep for line, sep in lines))

    check()


def test_columns_of_a_large_commented_program():
    moves = [f"G1 X{k % 97}.{k % 7} Y-{k % 89}.5 E0.0{k % 10} F{600 + k}"
             for k in range(2000)]
    plain = "G21\nM83\n" + "\n".join(moves) + "\n"
    commented = "G21 ; mm\nM83\n" + "".join(
        f";TYPE:WALL\n{move} ; c{k}\n" if k % 100 == 0 else f"{move} ; c\n"
        for k, move in enumerate(moves))
    table, want = gcode.parse_program(commented), gcode.parse_program(plain)
    assert np.array_equal(table.values, want.values)
    assert np.array_equal(table.present, want.present)
    assert np.array_equal(table.code, want.code)
    assert len(table.comments) == 2021
    same_program(commented)
