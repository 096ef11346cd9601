"""The fixed-point text kernel against Python's own formatting.

Every value `swarmfab.text` prints must be the text '%.6f' % v gives, or
'%.0f' % v (str(n) for an integer n) in a whole-number column, on the
values where a shortcut is most likely to go wrong: ties, the neighbours
of ties and of integers, signed zeros, subnormals, the cut of the fast
path, and the values only Python's own % prints.  These tests need no
hypothesis; test_text_properties.py draws arbitrary floats, and
test_text_rows_properties.py arbitrary templates.
"""

import math
import warnings

import numpy as np
import pytest

from swarmfab import text

RNG = np.random.default_rng(20241018)
# |v| * 10**6 must be below 2**42 for the fast path
CUT = 2.0 ** 42 / 1e6


def printed(values, whole=False):
    """The kernel's text of each value, one row each."""
    values = np.asarray(values, dtype=float).reshape(-1, 1)
    return text.rows(["", 0, "\n"], values,
                     whole=(0,) if whole else ()).split("\n")[:-1]


def expected(values, whole=False):
    spec = "%.0f" if whole else "%.6f"
    return [spec % v for v in np.asarray(values, dtype=float).tolist()]


def neighbours(values):
    """The values and the floats just above and below each."""
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, np.nextafter(values, math.inf),
                           np.nextafter(values, -math.inf)])


def check(values, whole=False):
    got, want = printed(values, whole), expected(values, whole)
    assert len(got) == len(want)
    bad = [(v, g, w) for v, g, w in zip(np.asarray(values).tolist(), got,
                                         want) if g != w]
    assert not bad, bad[:10]


@pytest.mark.parametrize("whole", [False, True])
def test_ties_of_128ths(whole):
    # k / 128 has 7 decimals, so an odd k is a tie at six decimals; the
    # large ones reach the cut of the fast path
    top = int(128 * CUT)
    k = np.concatenate([np.arange(-2 ** 15, 2 ** 15),
                        RNG.integers(-top, top, 50_000)])
    check(neighbours(k / 128.0), whole)


@pytest.mark.parametrize("whole", [False, True])
def test_half_millionths(whole):
    # (k + 0.5) / 10**6 is a tie in decimal, which no float holds exactly:
    # the float nearest it, and its neighbours, fall either side
    k = np.concatenate([np.arange(-10 ** 5, 10 ** 5),
                        RNG.integers(-2 ** 42, 2 ** 42, 50_000)])
    check(neighbours((k + 0.5) / 1e6), whole)


def test_integers_and_the_float_below():
    n = np.concatenate([np.arange(-10 ** 5, 10 ** 5),
                        RNG.integers(-2 ** 42, 2 ** 42, 20_000),
                        [2 ** 53 - 1, 2 ** 53, -2 ** 53]])
    values = n.astype(float)
    below = np.nextafter(values, -math.inf)
    assert printed(values, whole=True) == [str(v) for v in n.tolist()]
    check(values)
    check(below)
    check(below, whole=True)


def test_whole_numbers_round_half_to_even():
    check(np.arange(-20, 20) + 0.5, whole=True)
    check(neighbours(np.arange(-20, 20) + 0.5), whole=True)


@pytest.mark.parametrize("whole", [False, True])
def test_zeros_and_subnormals(whole):
    tiny = np.finfo(float).tiny
    values = [0.0, -0.0, 5e-324, -5e-324, tiny, -tiny,
              np.nextafter(tiny, 0.0), -np.nextafter(tiny, 0.0), 4e-7, -4e-7,
              5e-7, -5e-7, 0.4, -0.4, 0.5, -0.5]
    check(values, whole)
    assert printed([-0.0, -4e-7]) == ["-0.000000", "-0.000000"]
    assert printed([-0.0, -0.4], whole=True) == ["-0", "-0"]


@pytest.mark.parametrize("whole", [False, True])
def test_digit_count_edges(whole):
    # q = |v| * 10**6 gains a digit at each power of ten, up to the 13
    # digits of the fast path and past them
    powers = np.array([float(f"1e{k - 6}") for k in range(14)])
    check(neighbours(np.concatenate([powers, -powers])), whole)


def test_python_values_among_fast_ones():
    # nan and inf must not reach the integer cast, which would warn
    values = np.array([[1.5, math.nan, -2.25], [math.inf, 3.0, -math.inf],
                       [1e16, -0.0, 123456.789]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        chars, lengths = text.fixed(values)
    got = [chars[i, j, chars.shape[2] - m:].tobytes().decode()
           for (i, j), m in np.ndenumerate(lengths)]
    assert got == expected(values.ravel())


@pytest.mark.parametrize("whole", [False, True])
def test_both_sides_of_the_cut(whole):
    cut = 2.0 ** 42 if whole else CUT
    steps = np.arange(-50, 51)
    values = [cut]
    for _ in range(50):
        values = [np.nextafter(values[0], 0.0), *values,
                  np.nextafter(values[-1], math.inf)]
    values = np.array(values)
    check(np.concatenate([values, -values, cut + steps, -cut - steps]),
          whole)


@pytest.mark.parametrize("whole", [False, True])
def test_values_only_python_prints(whole):
    # signalling nans of either sign too
    signalling = np.array([0x7FF0000000000001, -0x000FFFFFFFFFFFFF],
                          dtype=np.int64).view(float).tolist()
    values = [1e16, -1e16, 1e300, -1e308, np.finfo(float).max, math.inf,
              -math.inf, math.nan, -math.nan, np.copysign(math.nan, -1.0),
              *signalling]
    check(values, whole)
    assert printed([math.nan, np.copysign(math.nan, -1.0), -math.inf]) \
        == ["nan", "nan", "-inf"]


def test_fixed_fields():
    chars, lengths = text.fixed(np.array([[1.5, -2.0, 12.0]]), whole=(2,))
    assert chars.shape == (1, 3, text.WIDTH)
    assert lengths.tolist() == [[8, 9, 2]]
    assert [chars[0, j, text.WIDTH - m:].tobytes() for j, m
            in enumerate(lengths[0].tolist())] == [b"1.500000", b"-2.000000",
                                                   b"12"]
    # a value only Python prints widens every field of the call
    chars, lengths = text.fixed(np.array([[1e20, 1.0]]))
    assert chars.shape[2] == len("%.6f" % 1e20)
    assert chars[0, 1, -8:].tobytes() == b"1.000000"


class TestRows:
    def test_template(self):
        values = np.array([[1.0, -2.5, 7.0], [0.25, 1e-7, 12.0]])
        template = ["a=", 0, " b=", 1, " a=", 0, " n=", 2, "\n"]
        assert text.rows(template, values, whole=(2,)) == (
            "a=1.000000 b=-2.500000 a=1.000000 n=7\n"
            "a=0.250000 b=0.000000 a=0.250000 n=12\n")

    def test_literals_hold_any_character(self):
        # NUL, the bytes of non-ASCII text and a lone surrogate are kept
        # where they are: padding is told apart by its position
        literals = ["\x00", "é\x00机", "\udc80", "\n\x00"]
        values = RNG.normal(0.0, 100.0, (50, 2))
        template = [literals[0], 0, literals[1], 1, literals[2], 0,
                    literals[3]]
        want = "".join(f"{literals[0]}{a:.6f}{literals[1]}{b:.6f}"
                       f"{literals[2]}{a:.6f}{literals[3]}"
                       for a, b in values.tolist())
        assert text.rows(template, values) == want

    def test_tail_repeats_the_last_row(self):
        values = np.array([[1.0, 3.0], [2.0, 4.0]])
        got = text.rows(["<", 0, ">"], values, whole=(1,),
                        tail=["|", 1, ",", 0, "|", 1])
        assert got == "<1.000000><2.000000>|4,2.000000|4"

    def test_no_rows(self):
        assert text.rows(["x", 0], np.zeros((0, 1)), tail=["y"]) == ""

    def test_chunks_give_the_same_text(self, monkeypatch):
        values = RNG.normal(0.0, 1e3, (500, 3))
        values[::37, 1] = 1e16  # some chunks have wide fields
        values[::53, 2] = math.nan
        template = ["t=", 0, " x=", 1, " y=", 2, " id=\x00é\n"]
        whole = text.rows(template, values, tail=["end ", 0])
        monkeypatch.setattr(text, "CHUNK_BYTES", 1)
        assert text.rows(template, values, tail=["end ", 0]) == whole
        monkeypatch.setattr(text, "CHUNK_BYTES", 3000)
        assert text.rows(template, values, tail=["end ", 0]) == whole
        assert whole == "".join(
            f"t={t:.6f} x={x:.6f} y={y:.6f} id=\x00é\n"
            for t, x, y in values.tolist()) + f"end {values[-1, 0]:.6f}"

    def test_one_row(self):
        values = np.array([[-1.5, 42.0, 1e20]])
        template = ["t=", 0, " n=", 1, " big=", 2, " t=", 0, "\n"]
        assert text.rows(template, values, whole=(1,), head="# h\n",
                         tail=["end ", 1, ",", 0]) == (
            "# h\nt=-1.500000 n=42 big=100000000000000000000.000000 "
            "t=-1.500000\nend 42,-1.500000")

    def test_slow_value_in_a_middle_chunk_only(self, monkeypatch):
        # a value wider than a field widens the fields of its chunk alone;
        # the chunks after it are laid out in fields of WIDTH again
        values = RNG.normal(0.0, 100.0, (60, 2))
        values[31, 1] = -1e20
        values[::7, 0] = -values[::7, 0]
        template = ["a=", 0, " b=", 1, " id=é\x00\n"]
        sizes = []
        fixed = text.fixed

        def counted(chunk, whole=()):
            sizes.append(len(chunk))
            return fixed(chunk, whole)

        monkeypatch.setattr(text, "fixed", counted)
        monkeypatch.setattr(text, "CHUNK_BYTES", 3000)
        got = text.rows(template, values, whole=(0,), tail=["|", 1])
        edges = np.cumsum(sizes)
        assert len(sizes) >= 3 and edges[0] <= 31 < edges[-2]
        assert got == "".join(f"a={a:.0f} b={b:.6f} id=é\x00\n"
                              for a, b in values.tolist()) + \
            f"|{values[-1, 1]:.6f}"

    def test_wide_values_grow_the_buffer(self, monkeypatch):
        # the buffer is sized by the first chunk, of short rows; the values
        # of over 300 characters in the later chunks, which only Python
        # prints, widen their fields past it
        values = np.full((40, 2), -1e308)
        values[:10] = 0.5
        values[::3, 1] = 0.5
        put, grown = text._put, []

        def spied(out, at, data):
            grown.append(at + len(data) > len(out))
            return put(out, at, data)

        monkeypatch.setattr(text, "_put", spied)
        monkeypatch.setattr(text, "CHUNK_BYTES", 3000)
        want = "".join(f"{a:.6f}|{b:.0f}\n" for a, b in values.tolist())
        assert text.rows(["", 0, "|", 1, "\n"], values, whole=(1,)) == want
        assert any(grown) and len(grown) > 3
