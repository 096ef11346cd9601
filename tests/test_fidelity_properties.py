"""Property test: the fidelity kernel equals the scalar oracle bit for bit."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from swarmfab import sim  # noqa: E402

from test_fidelity import point_segment_distance, seg  # noqa: E402

coord = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False,
                  allow_infinity=False)
point = st.tuples(coord, coord, coord)
# A segment either spans two points or collapses onto its start.
segment = st.one_of(st.tuples(point, point),
                    point.map(lambda p: (p, p)))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(segments=st.lists(segment, min_size=1, max_size=8),
                  points=st.lists(point, min_size=1, max_size=8))
def test_kernel_matches_scalar_oracle(segments, points):
    nearest, distance = sim._segment_distances(
        points, [seg(a, b) for a, b in segments])
    for k, p in enumerate(points):
        dists = [point_segment_distance(p, a, b) for a, b in segments]
        assert nearest[k] == int(np.argmin(dists))
        assert distance[k] == dists[nearest[k]]
