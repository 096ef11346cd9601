"""The plan path's row kernels: exact lengths, and no Python object per row.

`Segments.lengths` and `kinematics.wire2d_ik_rows` take `math.hypot` of
difference columns, which must be `math.dist` of the rows bit for bit:
both run CPython's one norm over the same |p_i - q_i|.  `np.hypot`, or the
root of the summed squares, can round differently; the pinned rows are
such rows of a wall-plotter drawing.

The guard tests run parse -> interpret -> plan -> command stream on a
large drawing and check that Python's cyclic GC never runs: the path
keeps no list, tuple or record alive per row, so it never reaches the
collector's allocation threshold.
"""

import gc
import math
import random

import numpy as np
import pytest

from swarmfab import coordinator, gcode
from swarmfab import kinematics as kin
from swarmfab.errors import Unreachable

TINY = 5e-324  # the smallest subnormal
SPECIAL = (math.nan, math.inf, -math.inf, 0.0, -0.0, TINY, -TINY,
           2.2250738585072014e-308 / 3, 1e300, -1e300, 1.7e308, -1.7e308,
           1.0, -2.5)

# segments of a wall-plotter drawing whose math.dist length np.hypot and
# the root of the summed squares both round differently
PINNED_SEGMENTS = [
    ((582.872, -405.819, 0.0), (580.049, -406.648, 0.0)),
    ((457.578, -576.175, 0.0), (461.392, -574.795, 0.0)),
    ((662.683, -402.542, 0.0), (667.658, -401.807, 0.0)),
]
# wall points of the same drawing whose wire length to an anchor of the
# default wall plotter, (0, 0) or (1000, 0), np.hypot or the root of the
# summed squares rounds differently
PINNED_POINTS = [(426.656, -482.821), (484.764, -513.785),
                 (393.2097788432035, -558.6105305389767),
                 (366.523, -579.154), (689.949, -489.487),
                 (563.231, -408.954)]


def bits(values):
    return np.asarray(values, float).view(np.int64).tolist()


def segments_of(starts, ends):
    starts = np.array(starts, float).reshape(-1, 3)
    n = len(starts)
    return gcode.Segments(starts, np.array(ends, float).reshape(-1, 3),
                          np.ones(n), np.zeros(n), np.full(n, "travel"),
                          np.arange(n, dtype=np.int64))


def same_lengths(starts, ends):
    got = segments_of(starts, ends).lengths()
    assert bits(got) == bits(list(map(math.dist, starts, ends)))


def same_wire_lengths(points, geom):
    got = kin.wire2d_ik_rows(points, geom)
    for k, anchor in enumerate(geom.anchors):
        want = [math.dist(p, anchor) for p in points]
        assert bits(got[:, k]) == bits(want)


class TestSegmentLengths:
    def test_pinned_rows(self):
        starts, ends = zip(*PINNED_SEGMENTS)
        same_lengths(starts, ends)
        for start, end in PINNED_SEGMENTS:
            d = np.subtract(start, end)
            naive = (np.hypot(np.hypot(d[0], d[1]), d[2]),
                     np.sqrt(d @ d))
            assert math.dist(start, end) not in naive  # neither form

    def test_special_coordinates(self):
        # every pair of special values on every axis of the start and end
        rows = [(a, b) for a in SPECIAL for b in SPECIAL]
        starts = [(a, b, a) for a, b in rows]
        ends = [(b, a, -b) for a, b in rows]
        same_lengths(starts, ends)
        same_lengths(ends, starts)

    def test_rows_across_blocks(self):
        # more rows than one block, each a random pick of special values,
        # integers and reals
        rng = random.Random(7)
        pool = SPECIAL + tuple(float(rng.randint(-9, 9)) for _ in range(10))

        def value():
            return rng.choice(pool) if rng.random() < 0.3 else (
                rng.uniform(-1e3, 1e3))

        n = 2 * gcode._LENGTH_ROWS + 5
        starts = [(value(), value(), value()) for _ in range(n)]
        ends = [(value(), value(), value()) for _ in range(n)]
        same_lengths(starts, ends)

    def test_no_rows(self):
        assert segments_of([], []).lengths().shape == (0,)

    def test_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        value = st.one_of(st.floats(), st.sampled_from(SPECIAL))
        point = st.tuples(value, value, value)

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(rows=st.lists(st.tuples(point, point), max_size=40))
        def check(rows):
            starts = [start for start, _ in rows]
            same_lengths(starts, [end for _, end in rows])

        check()


class TestWireLengths:
    def test_pinned_points(self, wire2d_config):
        geom = wire2d_config.wire2d_geometry
        same_wire_lengths(PINNED_POINTS, geom)
        for p in PINNED_POINTS:
            for anchor in geom.anchors:
                dx, dz = np.subtract(p, anchor)
                naive = (np.hypot(dx, dz), np.sqrt(dx * dx + dz * dz))
                if any(v != math.dist(p, anchor) for v in naive):
                    break
            else:
                pytest.fail(f"{p}: np.hypot and the root both agree with "
                            "math.dist to both anchors")

    @pytest.mark.parametrize("anchors,margin,points", [
        # subnormal and zero differences
        (((0.0, 0.0), (1.0, 0.0)), 0.0,
         [(TINY, -TINY), (0.5, -TINY), (1.0 - 2 ** -53, -0.5)]),
        # a -0.0 coordinate and an infinitely deep point
        (((-1.0, 0.0), (1.0, -0.0)), 0.0,
         [(-0.0, -1.0), (0.0, -math.inf), (0.25, -1e300)]),
        # points 1e300 and more below anchors 1e150 apart
        (((-1e150, 0.0), (1e150, 1e150)), 1.0,
         [(0.0, -1e300), (-9e149, -1.7e308), (9e149, -2.5)]),
    ], ids=["subnormal", "negative_zero", "huge"])
    def test_special_coordinates(self, anchors, margin, points):
        geom = kin.WireGeometry2D(anchors, 1.0, margin)
        same_wire_lengths(points, geom)

    @pytest.mark.parametrize("point", [(math.nan, -1.0), (0.5, math.nan),
                                       (math.inf, -1.0), (-math.inf, -1.0),
                                       (0.5, math.inf)])
    def test_unreachable_not_finite(self, point):
        geom = kin.WireGeometry2D(((0.0, 0.0), (1.0, 0.0)), 1.0, 0.0)
        with pytest.raises(Unreachable):
            kin.wire2d_ik_rows([point], geom)

    def test_property(self, wire2d_config):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        geom = wire2d_config.wire2d_geometry
        top, lo, hi = geom.reach
        x = st.floats(lo, hi, exclude_min=True, exclude_max=True)
        z = st.floats(max_value=top, exclude_max=True)

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(points=st.lists(st.tuples(x, z), min_size=1,
                                          max_size=40))
        def check(points):
            same_wire_lengths(points, geom)

        check()


# --- no cyclic GC on the plan path ---

def moves_program(count: int, rng: random.Random) -> str:
    """A plain wall-plotter drawing of `count` short printed G1 moves, a
    random walk inside the default wall plotter's reach, at three feeds."""
    lines = ["G21", "G90", "M83", "G92 E0", "G0 X500 Y-400 F3000"]
    x, y, heading = 500.0, -400.0, 0.0
    for k in range(count):
        heading += rng.uniform(-0.6, 0.6)
        step = rng.uniform(2.0, 6.0)
        nx, ny = x + step * math.cos(heading), y + step * math.sin(heading)
        if not (300.0 < nx < 700.0 and -600.0 < ny < -250.0):
            heading = math.atan2(-425.0 - y, 500.0 - x)
            nx, ny = x + step * math.cos(heading), y + step * math.sin(heading)
        x, y = nx, ny
        lines.append(f"G1 X{x:.3f} Y{y:.3f} E{0.02 * step:.4f} "
                     f"F{(600, 1200, 1800)[k // 100 % 3]}")
    return "\n".join(lines) + "\n"


def arcs_program(count: int, rng: random.Random) -> str:
    """A plain wall-plotter drawing of `count` printed half circles, down
    columns 10 mm apart, G3 in I/J form and G2 in R form in turn."""
    lines = ["G21", "G90", "M83", "G92 E0", "G0 X400 Y-400 F3000"]
    x, y = 400.0, -400.0
    for k in range(count):
        r = round(rng.uniform(1.0, 3.0), 3)
        if k % 2:
            lines.append(f"G2 X{x:.3f} Y{y - 2 * r:.3f} R{r} E0.1 "
                         f"F{(600, 1200)[k % 3 == 0]}")
        else:
            lines.append(f"G3 X{x:.3f} Y{y - 2 * r:.3f} I0 J{-r} E0.1")
        y -= 2 * r
        if y < -550.0:
            x, y = x + 10.0, -400.0
            lines.append(f"G0 X{x:.3f} Y{y:.3f}")
    return "\n".join(lines) + "\n"


def commented(text: str) -> str:
    """A program with a slicer's comments: a comment after every line, and
    a comment line before every 100th."""
    return "".join(f";TYPE:WALL-OUTER\n{line} ; c{k}\n" if k % 100 == 0
                   else f"{line} ; c\n"
                   for k, line in enumerate(text.splitlines()))


def plan_path(text, cfg):
    result = gcode.interpret(gcode.parse_program(text), home=cfg.home)
    plan = coordinator.plan_program(result.segments, cfg)
    coordinator.serialize_command_stream(plan, [e.id for e in cfg.roster])
    return result.segments, plan


@pytest.mark.parametrize("program,segments", [
    (moves_program(3000, random.Random(1)), 3000),
    (commented(moves_program(3000, random.Random(1))), 3000),
    (arcs_program(1500, random.Random(2)), 21635),
], ids=["moves", "commented-moves", "arcs"])
def test_plan_path_runs_no_collection(wire2d_config, program, segments):
    plan_path(program, wire2d_config)  # a first run fills the caches
    collections = []

    def record(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    assert gc.isenabled()
    gc.collect()
    gc.callbacks.append(record)
    try:
        got, plan = plan_path(program, wire2d_config)
    finally:
        gc.callbacks.remove(record)
    assert len(got) == segments and len(plan.t) > segments
    assert collections == []
