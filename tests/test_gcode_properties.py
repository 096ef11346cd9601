"""Property tests of the g-code parser: serialize/parse round trips, errors
on malformed lines, and comments that change nothing but the comment."""

import string

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from swarmfab import gcode  # noqa: E402
from swarmfab.errors import GcodeError  # noqa: E402
from swarmfab.gcode import GcodeCommand  # noqa: E402

SETTINGS = hypothesis.settings(max_examples=300, deadline=None)

# printable, no line breaks, and no surrounding whitespace once stripped
COMMENTS = st.text(alphabet=string.ascii_letters + string.digits
                   + string.punctuation + " ",
                   min_size=1, max_size=20).map(str.strip).filter(bool)
COMMANDS = st.builds(
    GcodeCommand,
    line_no=st.just(0),
    letter=st.sampled_from("GM"),
    code=st.integers(min_value=0, max_value=10**6),
    params=st.dictionaries(st.sampled_from("XYZEFIJRSP"),
                           st.floats(allow_nan=False, allow_infinity=False),
                           max_size=10),
    comment=st.none() | COMMENTS)
# g-code words, separators and comment marks, in any order
LINES = (st.text(alphabet="GMXYZEFIJRSPgmxyzQ0123456789.+-e ;()\t",
                 max_size=40)
         | st.text(st.characters(blacklist_categories=("Cs",)), max_size=20))


def outcome(text):
    """parse_line's result, or the type, message and line of its error;
    any other exception propagates and fails the test."""
    try:
        return gcode.parse_line(text, 7)
    except GcodeError as exc:
        return (type(exc), str(exc), exc.line_no)


@SETTINGS
@hypothesis.given(commands=st.lists(COMMANDS, max_size=8))
@hypothesis.example(commands=[GcodeCommand(0, "G", 1, {"X": 1e-05,
                                                       "Y": 1.5e16})])
def test_serialize_parse_round_trip(commands):
    expected = [c._replace(line_no=i)
                for i, c in enumerate(commands, start=1)]
    assert gcode.parse_program(gcode.serialize_program(commands)) == expected


@SETTINGS
@hypothesis.given(text=LINES)
@hypothesis.example(text="G" + "9" * 400)  # a code that overflows to inf
@hypothesis.example(text="G1 X1e-05")
def test_malformed_lines_raise_gcode_errors(text):
    outcome(text)


@SETTINGS
@hypothesis.given(text=LINES.filter(lambda t: ";" not in t and "(" not in t),
                  comment=COMMENTS.filter(lambda c: ")" not in c))
def test_comments_change_only_the_comment(text, comment):
    """A line without `;` or `(`, with a comment appended or prepended,
    parses the same but for the comment."""
    plain = outcome(text)
    for variant in (f"{text};{comment}", f"{text} ({comment})",
                    f"({comment}){text}"):
        got = outcome(variant)
        if isinstance(plain, GcodeCommand):
            assert got == plain._replace(comment=comment)
        else:
            assert got == plain
