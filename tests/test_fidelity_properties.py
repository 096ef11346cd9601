"""Property tests: the fidelity kernel equals its oracles bit for bit."""

from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from swarmfab import sim  # noqa: E402

from test_fidelity import (  # noqa: E402
    assert_kernel_matches_oracle,
    point_segment_distance,
    walk,
)

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
        np.array(points, float), np.array([a for a, _ in segments], float),
        np.array([b for _, b in segments], float))
    for k, p in enumerate(points):
        dists = [point_segment_distance(p, a, b) for a, b in segments]
        assert nearest[k] == int(np.argmin(dists))
        assert distance[k] == dists[nearest[k]]


@st.composite
def walks(draw):
    """Points that walk, with noise, along a polyline of many segments:
    enough of both that the bounded search prunes.

    The shape is drawn (sizes, span, scale, noise, grid, layers, duplicated
    and zero-length segments); the coordinates come from a seeded generator.
    """
    n_segments = draw(st.integers(1, 150))
    n_points = draw(st.integers(1, 300))
    scale = 10.0 ** draw(st.integers(-6, 6))
    noise = draw(st.sampled_from([0.0, 0.01, 0.3, 3.0]))
    grid = draw(st.booleans())
    layers = draw(st.integers(1, 4))
    repeats = draw(st.integers(0, 3))
    # the share of the polyline the points walk along: dense or sparse
    span = draw(st.sampled_from([0.05, 0.3, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    corners = np.cumsum(rng.normal(0.0, 1.0, (n_segments + 1, 3)), axis=0)
    # layered z: the walk climbs in equal steps, flat within a layer
    corners[:, 2] = np.arange(n_segments + 1) * layers // (n_segments + 1)
    starts, ends = corners[:-1].copy(), corners[1:].copy()
    for _ in range(repeats):
        # a duplicated segment, and one collapsed onto its start
        i, j = rng.integers(0, len(starts), 2)
        starts = np.insert(starts, j, starts[i], axis=0)
        ends = np.insert(ends, j, ends[i], axis=0)
        k = rng.integers(0, len(starts))
        ends[k] = starts[k]
    m = max(1, round(span * len(starts)))
    points = walk(rng, starts[:m], ends[:m], n_points, noise)
    if grid:
        # on a grid of quarters, many points lie at exactly equal distances
        points, starts, ends = (np.round(v * 4.0) / 4.0
                                for v in (points, starts, ends))
    return points * scale, starts * scale, ends * scale


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(walk=walks(), chunk=st.sampled_from([1, 64, 4096]))
def test_bounded_search_matches_all_pairs(walk, chunk):
    with mock.patch.object(sim, "CHUNK_PAIRS", chunk):
        assert_kernel_matches_oracle(*walk)
