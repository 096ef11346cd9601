"""Property test of the fixed-point text kernel: any floats, printed in a
six-decimal or a whole-number column, give the text of Python's own %."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

import numpy as np  # noqa: E402

from swarmfab import text  # noqa: E402


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(rows=st.lists(st.tuples(st.floats(), st.floats()),
                                min_size=1, max_size=40),
                  whole=st.sampled_from([(), (0,), (1,), (0, 1)]))
def test_any_floats_match_python(rows, whole):
    values = np.array(rows, dtype=float)
    spec = ["%.0f" if j in whole else "%.6f" for j in range(2)]
    want = "".join(f"{spec[0] % a};{spec[1] % b}\n" for a, b in rows)
    assert text.rows(["", 0, ";", 1, "\n"], values, whole=whole) == want
