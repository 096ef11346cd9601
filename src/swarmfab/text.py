"""Fixed-point text of numeric arrays, written by numpy.

`fixed` formats every value of a 2-D float array exactly as
`'%.6f' % v` does, or as `'%.0f' % v` in the columns asked to print whole
numbers, each as a right-aligned, left-padded column of characters; `rows`
lays such values and literal strings side by side, row by row, drops the
padding and returns the text.  The command stream, the CSV and the SVG are
written this way.

Exactness.  Let P be the exact product |v| * 10**d (d is 6, or 0 in a
whole-number column) and y = fl(P), the float product; 10**d is a float.
Rounding to nearest puts y within half an ulp of P, so
|P - y| <= 2**-53 * y.  Let q = rint(y).  Where |y - q| + 2**-51 * y < 0.5,
as computed in floats, the exact sum is below 0.5 too (0.5 is a float and
rounding is monotone), so |P - q| <= |P - y| + |y - q| < 0.5: q is the
integer nearest P, and not a tie, so its digits are the correctly rounded,
half-even ones Python prints.  Where also y < 2**42, q has at most 13
digits and is an exact int64, and `fixed` finds them by int64 arithmetic
and table lookups.
Every other value (nan, an infinity, a value at or past the cut, a product
within 2**-51 * y of a tie) is printed by Python's own `%`.  The sign is
the sign bit of v, as in Python, so -0.0 and -4e-7 print as -0.000000;
Python prints a nan without its sign, and a nan takes Python's path.
"""

from __future__ import annotations

import functools

import numpy as np

# the fast path: |v| * 10**d below CUT, so q has at most 13 digits
CUT = 2.0 ** 42
# a value's field on the fast path: a sign, 13 digits, a point and a spare,
# as four 4-byte words
WIDTH = 16
# bytes of the cells of a chunk of rows in `rows`; bounds its temporaries
CHUNK_BYTES = 1 << 17

_MINUS = ord("-")
# 10**7 ... 10**12: q has 7 + (how many of these are <= q) digits, or fewer
_TENS = [10 ** i for i in range(7, 13)]


def _words() -> np.ndarray:
    """The four-character words a field is made of, as uint32: entry g <
    10**4 is g in four digits, and entry 10**4 + 100 * a + b is the digit a,
    a point and b in two digits."""
    chars = np.empty((10 ** 4 + 1000, 4), dtype=np.uint8)
    for i in range(4):
        run = b"".join(bytes([d]) * 10 ** (3 - i) for d in b"0123456789")
        chars[:10 ** 4, i] = np.frombuffer(run * 10 ** i, dtype=np.uint8)
    chars[10 ** 4:] = chars[:1000]
    chars[10 ** 4:, 0] = chars[:1000, 1]
    chars[10 ** 4:, 1] = ord(".")
    return chars.view(np.uint32).ravel()


_WORDS = _words()


def fixed(values: np.ndarray, whole=()):
    """`'%.6f' % v` for every value of an n x k float array, or
    `'%.0f' % v` in the columns listed in `whole`.

    Returns (chars, lengths): chars is n x k x w uint8, the text of value
    [i, j] right-aligned in chars[i, j], and lengths[i, j] its length.  w
    is WIDTH, or the length of the longest value printed by Python's `%`.

    A field is the words (see _WORDS) q // 10**11, q // 10**7 % 10**4, the
    digit q // 10**6 % 10 with the point and q // 10**4 % 100, and
    q % 10**4.  On the fast path q is an integer below 2**42, so its int64
    cast is exact, and int64 floor division by 10**4 and 10**3 and
    subtraction find the words exactly; comparisons with 10**7 ... 10**12
    count its digits.

    A whole-number column is rounded by rint, which rounds half to even as
    `%.0f` does, printed with six decimals, and moved right over its point
    and zeros; so its fast path ends at 2**42 / 10**6.
    """
    whole = {range(values.shape[1])[j] for j in whole}
    with np.errstate(over="ignore", invalid="ignore"):
        y = np.abs(values)
        for j in whole:
            np.rint(y[:, j], out=y[:, j])
        y *= 1e6
        q = np.rint(y)
        gap = np.abs(y - q)
        gap += y * 2.0 ** -51
        exact = gap < 0.5
        exact &= y < CUT
    slow = None if exact.all() else np.flatnonzero(~exact)
    if slow is not None:
        # nan and inf do not cast to integers
        q.reshape(-1)[slow] = 0.0
    q = q.astype(np.int64)
    index = np.empty(values.shape + (4,), dtype=np.int64)
    low = q // 10 ** 4
    np.subtract(q, low * 10 ** 4, out=index[..., 3])
    middle = low // 10 ** 3
    np.subtract(low, middle * 10 ** 3 - 10 ** 4, out=index[..., 2])
    np.floor_divide(middle, 10 ** 4, out=index[..., 0])
    np.subtract(middle, index[..., 0] * 10 ** 4, out=index[..., 1])
    chars = _WORDS.take(index).view(np.uint8)
    # the digits (at least seven) and the point, and the sign before them
    lengths = np.full(q.shape, 8, dtype=np.intp)
    for ten in _TENS:
        lengths += q >= ten
    neg = np.signbit(values)
    if slow is not None:
        neg &= exact
    at = np.flatnonzero(neg)
    chars.reshape(-1)[at * WIDTH + WIDTH - 1 - lengths.reshape(-1)[at]] = \
        _MINUS
    lengths += neg.view(np.int8)
    for j in whole:
        chars[:, j, 7:] = chars[:, j, :WIDTH - 7]
        lengths[:, j] -= 7
    if slow is None:
        return chars, lengths
    # Python's own text for the rest, widening every field to the longest
    k = values.shape[1]
    texts = [(b"%.0f" if i % k in whole else b"%.6f") % v for i, v in
             zip(slow.tolist(), values.reshape(-1)[slow].tolist())]
    width = max(WIDTH, *map(len, texts))
    wide = np.zeros(values.shape + (width,), dtype=np.uint8)
    wide[..., width - WIDTH:] = chars
    wide.reshape(-1, width)[slow] = np.frombuffer(
        b"".join(text.rjust(width, b" ") for text in texts),
        dtype=np.uint8).reshape(-1, width)
    lengths.reshape(-1)[slow] = list(map(len, texts))
    return wide, lengths


def rows(template, values, whole=(), head: str = "", tail=()) -> str:
    """`head`, then every row of an n x k float array through one template,
    then the last row through `tail`, as text.

    A template is a sequence of strings, copied as they are, and column
    indices of `values`, whose value is printed with six decimals, or as a
    whole number if the column is in `whole` (see `fixed`); a column may
    appear any number of times, and a template must name one.  The rows'
    texts follow each other with nothing between them.  The values are
    formatted a chunk of about CHUNK_BYTES of cells at a time, into one
    buffer of UTF-8 bytes, sized by the first chunk and grown in place,
    that is decoded once.
    """
    if not len(values):
        return head
    # the chunks' buffers are gone before the text is decoded
    return str(_utf8(template, values, whole, head, tail), "utf-8",
               "surrogatepass")


def _utf8(template, values, whole, head: str, tail) -> np.ndarray:
    """The UTF-8 bytes of `rows`, in a buffer of their length."""
    body = _Template(template)
    n = len(values)
    step = max(1, min(n, CHUNK_BYTES // body.row_bytes))
    start = np.frombuffer(_encode(head) + body.first, dtype=np.uint8)
    out = None
    for lo in range(0, n, step):
        chunk = values[lo:lo + step]
        chars, lengths = fixed(chunk, whole)
        text = body.join(chars, lengths)
        if out is None:
            # room for rows as long as the first chunk's, and some more
            out = np.empty(len(start) + len(text) * n // len(chunk) * 9 // 8
                           + 256, dtype=np.uint8)
            out, at = _put(out, 0, start)
        out, at = _put(out, at, text)
    at -= len(body.first)  # which no row follows
    # the tail, from the texts of the last row's values
    width = chars.shape[2]
    last = {j: chars[-1, j, width - lengths[-1, j]:].tobytes().decode()
            for j in {item for item in tail if not isinstance(item, str)}}
    end = "".join(item if isinstance(item, str) else last[item]
                  for item in tail)
    out, at = _put(out, at, np.frombuffer(_encode(end), dtype=np.uint8))
    # no view of the buffer is left, so it can shrink in place
    out.resize(at, refcheck=False)
    return out


def _encode(text: str) -> bytes:
    return text.encode("utf-8", "surrogatepass")


def _put(out: np.ndarray, at: int, data: np.ndarray):
    """Write `data` into `out` from `at`, growing `out` in place if it is
    too short (no view of it may be alive); returns the buffer and the end
    of what was written."""
    end = at + len(data)
    if end > len(out):
        out.resize(end + end // 4, refcheck=False)
    out[at:end] = data
    return out, end


class _Template:
    """A template as a row of cells.  Cell j holds the template's value j,
    right-aligned in a field, and the literal after it; the last cell's
    literal is the template's last one and then its first, which begins
    the next row.  Padding is told apart from text by its position alone,
    so the literals may hold any character."""

    def __init__(self, template):
        literals, self.slots = [b""], []
        for item in template:
            if isinstance(item, str):
                literals[-1] += _encode(item)
            else:
                self.slots.append(item)
                literals.append(b"")
        self.first = literals[0]
        self.literals = literals[1:]
        self.literals[-1] += literals[0]
        self.pad = max(map(len, self.literals))
        # the bytes of a row's cells
        self.row_bytes = len(self.slots) * (WIDTH + self.pad)
        self.cells = None

    def join(self, chars: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """The UTF-8 text of rows whose values have these chars and lengths
        (see `fixed`): each row's, after the first literal, and the first
        literal of the row after it."""
        n, _, width = chars.shape
        if (self.cells is None or self.cells.shape[2] != width + self.pad
                or len(self.cells) < n):
            row = b"".join(bytes(width) + literal.ljust(self.pad, b"\0")
                           for literal in self.literals)
            self.cells = np.empty((n, len(self.literals), width + self.pad),
                                  dtype=np.uint8)
            self.cells[:] = np.frombuffer(row, np.uint8).reshape(
                len(self.literals), -1)
            self.mask = np.empty(self.cells.shape, dtype=bool)
            self.keep, self.codes = _kept(
                tuple(map(len, self.literals)), width, self.pad)
        cells, mask = self.cells[:n], self.mask[:n]
        cells[..., :width] = chars[:, self.slots]
        kept = lengths[:, self.slots]
        kept += self.codes
        self.keep.take(kept, axis=0, out=mask)
        return cells[mask]


@functools.lru_cache(maxsize=32)
def _kept(literals: tuple[int, ...], width: int, pad: int):
    """The kept bytes of a cell by its value's length m, for cells whose
    literals have these lengths: cell j's are keep[codes[j] + m]."""
    cell = width + pad
    at = np.arange(cell)
    keep = ((at >= width - np.arange(width + 1)[:, None])
            & (at < width + np.array(literals)[:, None, None]))
    keep = keep.reshape(-1, cell)
    keep.flags.writeable = False
    return keep, np.arange(0, len(literals) * (width + 1), width + 1)
