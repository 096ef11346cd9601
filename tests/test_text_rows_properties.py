"""Property test of `text.rows`' layout against Python's own `%`: random
templates (literals of any characters, NUL and lone surrogates included,
longer and shorter than a value's field, values with nothing between
them, repeated and whole-number columns, a tail) over rows that mix the
kernel's fast path with the values only `%` prints, in chunks of one row,
of a few rows and of the default size."""

import math
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

import numpy as np  # noqa: E402

from swarmfab import text  # noqa: E402

# characters robot ids may hold: ASCII, non-ASCII, NUL and lone surrogates
CHARACTERS = st.one_of(
    st.characters(min_codepoint=32, max_codepoint=126),
    st.sampled_from(["\x00", "\n", "é", "机", "\U0001f916", "\udc80",
                     "\ud800"]))
LITERALS = st.text(CHARACTERS, max_size=40)
VALUES = st.one_of(
    st.floats(-1e4, 1e4),
    st.integers(-10 ** 6, 10 ** 6).map(float),
    # ties at six decimals (k / 128 has seven), and of whole numbers
    st.integers(-2 ** 20, 2 ** 20).map(lambda k: k / 128.0),
    st.integers(-1000, 1000).map(lambda k: k + 0.5),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e16, -1e300,
                     2.0 ** 42, 4398046.511104, 5e-7, -4e-7]),
    st.floats())


@st.composite
def jobs(draw):
    """A template and tail over k columns, the whole-number columns, and
    the rows."""
    k = draw(st.integers(1, 4))
    column = st.integers(-k, k - 1)
    template = draw(st.lists(st.one_of(LITERALS, column), max_size=8))
    # a template names a column; here some values follow each other
    template += [draw(column)] * draw(st.integers(1, 2))
    template = draw(st.permutations(template))
    if not any(isinstance(item, int) for item in template):
        template.append(0)
    tail = draw(st.lists(st.one_of(LITERALS, column), max_size=4))
    whole = draw(st.sets(column, max_size=k))
    rows = draw(st.lists(st.lists(VALUES, min_size=k, max_size=k),
                         min_size=1, max_size=12))
    head = draw(LITERALS)
    return template, np.array(rows, dtype=float).reshape(-1, k), whole, \
        head, tail


def oracle(template, values, whole, head, tail):
    k = values.shape[1]
    whole = {range(k)[j] for j in whole}

    def printed(item, row):
        if isinstance(item, str):
            return item
        return ("%.0f" if range(k)[item] in whole else "%.6f") % row[item]

    rows = values.tolist()
    return head + "".join(printed(item, row) for row in rows
                          for item in template) + "".join(
        printed(item, rows[-1]) for item in tail)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(job=jobs())
def test_rows_match_python(job):
    template, values, whole, head, tail = job
    want = oracle(template, values, whole, head, tail)
    for chunk_bytes in (1, 300, 2000, text.CHUNK_BYTES):
        with mock.patch.object(text, "CHUNK_BYTES", chunk_bytes):
            assert text.rows(template, values, whole=whole, head=head,
                             tail=tail) == want
