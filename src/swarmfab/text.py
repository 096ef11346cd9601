"""Fixed-point text of numeric arrays, written by numpy.

`fixed` formats every value of a 2-D float array exactly as
`'%.6f' % v` does, or as `'%.0f' % v` in the columns asked to print whole
numbers, each as a right-aligned, left-padded field of characters;
`chunks` lays such values and literal strings side by side, row by row,
and yields the UTF-8 text a chunk of rows at a time, with no buffer that
grows to hold the whole text; `rows` joins the chunks into one string.
The command stream, the CSV and the SVG are written this way.

Layout.  `chunks` works a chunk of rows at a time.  In a chunk, each value
of the template gets a field as wide as the longest text of its column in
that chunk, followed by the literal that comes after it, with no padding
after the literal.  The shorter texts of a column leave padding at the left
of their fields, which a mask drops by its position alone, so the literals
may hold any character.  `CHUNK_BYTES` bounds what a chunk allocates: `fixed`'s
temporaries (about `VALUE_BYTES` per value), the cells, their mask and
the chunk's text.

Exactness.  Let P be the exact product |v| * 10**d (d is 6, or 0 in a
whole-number column) and y = fl(P), the float product; 10**d is a float.
Rounding to nearest puts y within half an ulp of P, so
|P - y| <= 2**-53 * y.  Let q = rint(y).  Where |y - q| + 2**-51 * y < 0.5,
as computed in floats, the exact sum is below 0.5 too (0.5 is a float and
rounding is monotone), so |P - q| <= |P - y| + |y - q| < 0.5: q is the
integer nearest P, and not a tie, so its digits are the correctly rounded,
half-even ones Python prints.  Where also y < 2**42, the cut of the fast
path, q has at most 13 digits, and `fixed` finds them by exact float
quotients and table lookups.
Every other value (nan, an infinity, a value at or past the cut, a product
within 2**-51 * y of a tie) is printed by Python's own `%`.  The sign is
the sign bit of v, as in Python, so -0.0 and -4e-7 print as -0.000000;
Python prints a nan without its sign, and a nan takes Python's path.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

# the fast path: |v| * 10**d below CUT, so q has at most 13 digits
CUT = 2.0 ** 42
# a value's field on the fast path: a sign, 13 digits, a point and a spare,
# as four 4-byte words
WIDTH = 16
# bytes a chunk of rows in `rows` allocates, at most: VALUE_BYTES per value
# (the temporaries of `fixed` peak at about 92 B) and three bytes per byte
# of a row's cells (the cells, their mask and the text they keep)
CHUNK_BYTES = 768 << 10
VALUE_BYTES = 100

_MINUS = ord("-")


def _tables():
    """Four tables of four-character words as uint32, one for each word of
    a field, and two of the length of the text that word 0 or word 1
    starts, as uint8.

    Word 0 is g < 44 in four digits, and the text it starts is 12 plus the
    digits of g long, or none if g is 0; word 1 is g < 10**4 in four
    digits, and the text it starts is 8 plus the digits of g long; word 2
    is the digit a, a point and b in two digits, for g = 100 * a + b;
    word 3 is g in four digits."""
    digits = np.empty((10 ** 4, 4), dtype=np.uint8)
    for i in range(4):
        run = b"".join(bytes([d]) * 10 ** (3 - i) for d in b"0123456789")
        digits[:, i] = np.frombuffer(run * 10 ** i, dtype=np.uint8)
    point = digits[:1000].copy()
    point[:, 0] = digits[:1000, 1]
    point[:, 1] = ord(".")
    words = digits.view(np.uint32).ravel()
    # how many digits g has, and so how long a text word 1 starts
    starts = np.frombuffer(b"".join(bytes([8 + i]) * (10 ** i - 10 ** i // 10)
                                    for i in range(5)), dtype=np.uint8)
    first = starts[:44] + 4
    first[0] = 0
    return (words[:44], words, point.view(np.uint32).ravel(), words), \
        (first, starts)


_WORDS, _STARTS = _tables()
# q // 10**11, q // 10**7 and q // 10**4, and what word 1, 2 and 3 take
# of each
_DIVISORS = np.array([[1e11], [1e7], [1e4]])
_BASES = np.array([[1e4], [1e3], [1e4]])
# the bits of 2.0 ** 52: those of 2.0 ** 52 + m, for a whole m below
# 2**52, are _BIAS + m
_BIAS = np.float64(2.0 ** 52).view(np.int64)
# entry m: what the first 8 bytes of a field are XORed with to turn the
# '0' before a text m long (8 to 14) into a '-'; entry 0 leaves them
_SIGNS = np.zeros((WIDTH + 1, 8), dtype=np.uint8)
_SIGNS[np.arange(8, WIDTH - 1), WIDTH - 1 - np.arange(8, WIDTH - 1)] = \
    _MINUS ^ ord("0")
_SIGNS = _SIGNS.view(np.uint64).ravel()


def fixed(values: np.ndarray, whole=()):
    """`'%.6f' % v` for every value of an n x k float array, or
    `'%.0f' % v` in the columns listed in `whole`.

    Returns (chars, lengths): chars is n x k x w uint8, the text of value
    [i, j] right-aligned in chars[i, j], and lengths[i, j] its length.  w
    is WIDTH, or the length of the longest value printed by Python's `%`.

    A field is four words (see _tables): q // 10**11, q // 10**7 % 10**4,
    the digit q // 10**6 % 10 with the point and q // 10**4 % 100, and
    q % 10**4.  On the fast path q is an integer below 2**42: the float
    q / 10**d (d = 4, 7, 11) is exact where 10**d divides q, and is
    otherwise at least 10**-d from an integer, farther than its rounding
    moves it, so its floor is the exact quotient, and the remainders are
    exact too.  Each word is a lookup in its own table, and the first two
    give the length; the zeros in front of a text are the words' own, and
    a negative text's sign replaces the one before it.

    A whole-number column is rounded by rint, which rounds half to even as
    `%.0f` does, printed with six decimals, and moved right over its point
    and zeros; so its fast path ends at 2**42 / 10**6.
    """
    n, k = values.shape
    whole = {range(k)[j] for j in whole}
    with np.errstate(over="ignore", invalid="ignore"):
        y = np.abs(values)
        for j in whole:
            np.rint(y[:, j], out=y[:, j])
        y *= 1e6
        y = y.reshape(-1)
        # the quotients, then the words, of q
        parts = np.empty((4, n * k))
        q = np.rint(y, out=parts[3])
        gap = np.subtract(y, q)
        np.abs(gap, out=gap)
        exact = y < CUT
        y *= 2.0 ** -51
        gap += y
        exact &= gap < 0.5
    del y, gap
    neg = np.signbit(values).reshape(-1)
    slow = None if exact.all() else np.flatnonzero(~exact)
    if slow is not None:
        # nan and inf do not cast to integers
        q[slow] = 0.0
        neg &= exact
    np.divide(q, _DIVISORS, out=parts[:3])
    np.floor(parts[:3], out=parts[:3])
    bases = parts[:3] * _BASES
    # the words' parts, as integers below 2**52 added to 2**52, and so as
    # the low bits of their floats' bits
    parts += 2.0 ** 52
    parts[1:] -= bases
    parts = parts.view(np.int64)
    parts -= _BIAS
    words = np.empty((n * k, 4), dtype=np.uint32)
    for i, table in enumerate(_WORDS):
        words[:, i] = table.take(parts[i])
    lengths = np.maximum(_STARTS[0].take(parts[0]),
                         _STARTS[1].take(parts[1]))
    words.view(np.uint64)[:, 0] ^= _SIGNS.take(lengths * neg)
    lengths += neg
    chars = words.view(np.uint8).reshape(n, k, WIDTH)
    lengths = lengths.reshape(n, k)
    # a whole number's text, its digits up to the point, moved 7 bytes on:
    # a field's last 8 bytes become bytes 1 to 7 of its first 8, then its
    # byte 8, by shifting the two halves read as little-endian integers
    halves = chars.view("<u8")
    for j in whole:
        np.bitwise_or(halves[:, j, 0] >> 8, halves[:, j, 1] << 56,
                      out=halves[:, j, 1])
        lengths[:, j] -= 7
    if slow is None:
        return chars, lengths
    # Python's own text for the rest, widening every field to the longest
    texts = [(b"%.0f" if i % k in whole else b"%.6f") % v for i, v in
             zip(slow.tolist(), values.reshape(-1)[slow].tolist())]
    width = max(WIDTH, *map(len, texts))
    wide = np.zeros((n, k, width), dtype=np.uint8)
    wide[..., width - WIDTH:] = chars
    wide.reshape(-1, width)[slow] = np.frombuffer(
        b"".join(text.rjust(width, b" ") for text in texts),
        dtype=np.uint8).reshape(-1, width)
    lengths = lengths.astype(np.intp)
    lengths.reshape(-1)[slow] = list(map(len, texts))
    return wide, lengths


def rows(template, values, whole=(), head: str = "", tail=()) -> str:
    """The text of `chunks` with the same arguments, as one string."""
    return decode(chunks(template, values, whole, head, tail))


def decode(parts) -> str:
    """The text of an iterable of UTF-8 chunks, such as `chunks` yields."""
    return b"".join(parts).decode("utf-8", "surrogatepass")


def chunks(template, values, whole=(), head: str = "", tail=()):
    """`head`, then every row of an n x k float array through one template,
    then the last row through `tail`, as UTF-8 text, yielded a chunk at a
    time as bytes or uint8 arrays.

    A template is a sequence of strings, copied as they are, and column
    indices of `values`, whose value is printed with six decimals, or as a
    whole number if the column is in `whole` (see `fixed`); a column may
    appear any number of times, and a template must name one.  The rows'
    texts follow each other with nothing between them.  The values are
    formatted and laid out a chunk of rows at a time (see the module
    docstring), and each chunk's text is yielded as it is made: no buffer
    holds the whole text.
    """
    if not len(values):
        yield _encode(head)
        return
    n, k = values.shape
    body = _Template(template, k)
    step = max(1, CHUNK_BYTES // (k * VALUE_BYTES + 3 * body.row_bytes))
    yield _encode(head + body.first)
    for lo in range(0, n, step):
        chars, lengths = fixed(values[lo:lo + step], whole)
        text = body.join(chars, lengths)
        if lo + step < n:
            yield text
            del chars, lengths, text  # the caller has it: free ours first
    # the first literal after the last row, which no row follows
    yield text[:len(text) - len(_encode(body.first))]
    # the tail, from the texts of the last row's values
    width = chars.shape[2]
    yield b"".join(_encode(item) if isinstance(item, str) else
                   chars[-1, item, width - lengths[-1, item]:].tobytes()
                   for item in tail)


def _encode(text: str) -> bytes:
    return text.encode("utf-8", "surrogatepass")


class _Template:
    """A template as a row of cells.  Cell j holds the template's value j,
    right-aligned in a field as wide as the longest text of its column in
    the chunk, and the literal after it; the last cell's literal is the
    template's last one and then its first, which begins the next row.
    Padding is told apart from text by its position alone, so the
    literals may hold any character."""

    def __init__(self, template, k: int):
        self.first, self.literals, self.slots = _parse(tuple(template), k)
        # the bytes of a row's cells, at most
        self.row_bytes = len(self.slots) * WIDTH + sum(map(len,
                                                           self.literals))
        self.layout = self.cells = self.mask = None

    def join(self, chars: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """The UTF-8 text of rows whose values have these chars and lengths
        (see `fixed`): each row's, after the first literal, and the first
        literal of the row after it."""
        n, _, width = chars.shape
        layout = _layout(self.literals, self.slots, width,
                         tuple(lengths.max(axis=0).tolist()))
        if layout is not self.layout or len(self.cells) < n:
            # the literals and their mask's bytes stay in place from chunk
            # to chunk; the fields' are written below
            self.layout = layout
            self.cells = np.empty((n, len(layout.text)), dtype=np.uint8)
            self.cells[:] = layout.text
            self.mask = np.ones(self.cells.shape, dtype=bool)
        cells = self.cells[:n]
        cells.view(layout.row)[:, 0] = \
            chars.reshape(n, -1).view(layout.fields)[:, 0]
        mask = self.mask[:n]
        mask.view(layout.row)[:, 0] = _keep(width).take(
            lengths, axis=0).reshape(n, -1).view(layout.fields)[:, 0]
        return cells[mask]


@functools.lru_cache(maxsize=64)
def _parse(template: tuple, k: int):
    """A template's first literal, the UTF-8 literal after each of its
    values (the last one's followed by the first literal), and the column
    of each value, from 0 to k - 1."""
    literals, slots = [""], []
    for item in template:
        if isinstance(item, str):
            literals[-1] += item
        else:
            slots.append(range(k)[item])
            literals.append("")
    literals[-1] += literals[0]
    return literals[0], tuple(map(_encode, literals[1:])), tuple(slots)


class _Layout(NamedTuple):
    """The cells of a row: the structured dtype of its fields in the
    fields of `fixed`, that of the same fields in the cells, and the cells
    holding the literals."""
    fields: np.dtype
    row: np.dtype
    text: np.ndarray


@functools.lru_cache(maxsize=64)
def _layout(literals: tuple[bytes, ...], slots: tuple[int, ...], width: int,
            longest: tuple[int, ...]) -> _Layout:
    """The cells of rows whose column j's texts are at most longest[j]
    long, in fields `width` wide."""
    sizes = [longest[j] for j in slots]
    names = [f"f{i}" for i in range(len(slots))]
    fields = np.dtype({"names": names,
                       "formats": [(np.void, size) for size in sizes],
                       "offsets": [j * width + width - size
                                   for j, size in zip(slots, sizes)],
                       "itemsize": len(longest) * width})
    text = b"".join(bytes(size) + literal
                    for size, literal in zip(sizes, literals))
    starts = np.cumsum([0, *map(len, literals)]) + np.cumsum([0, *sizes])
    row = np.dtype({"names": names,
                    "formats": [(np.void, size) for size in sizes],
                    "offsets": starts[:-1].tolist(), "itemsize": len(text)})
    return _Layout(fields, row, np.frombuffer(text, dtype=np.uint8))


@functools.lru_cache(maxsize=8)
def _keep(width: int) -> np.ndarray:
    """Row m: the bytes of a field `width` wide that a text m long keeps."""
    keep = np.arange(width) >= width - np.arange(width + 1)[:, None]
    keep.flags.writeable = False
    return keep
