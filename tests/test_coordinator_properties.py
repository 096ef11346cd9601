"""Property tests of the planner: plan invariants on random chained
segments, and bit-for-bit agreement with the oracle planner."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from swarmfab import config, coordinator  # noqa: E402
from swarmfab.gcode import MotionSegment  # noqa: E402

from test_coordinator import (  # noqa: E402
    four_robot_config,
    plan_program_oracle,
    plan_segment_oracle,
    same_outcome,
    serialize_command_stream_oracle,
)

SETTINGS = hypothesis.settings(max_examples=100, deadline=None)
CONFIGS = {m: config.default_config(m) for m in coordinator.MORPHOLOGIES}


def reach_config(morphology):
    """The scaffold config with its workspace box widened by its size on
    every side, so that the machine's reach, not the box, bounds it."""
    doc = config.default_config_doc(morphology)
    lo, hi = doc["workspace"]["min"], doc["workspace"]["max"]
    doc["workspace"] = {"min": [a - (b - a) for a, b in zip(lo, hi)],
                        "max": [b + (b - a) for a, b in zip(lo, hi)]}
    return config.parse_config(doc)


REACH_CONFIGS = {m: reach_config(m) for m in coordinator.MORPHOLOGIES}
# the tool stays in a plane on these machines
PLANAR = ("bridge_xy", "wire2d_wall")


@st.composite
def chained_segments(draw, morphology, widen=0.0, cfg=None):
    """Up to eight chained segments between points of the workspace box of
    `cfg` (by default the morphology's scaffold config), widened by `widen`
    times its size on every side; a repeated point makes a zero-length
    segment (extrusion in place)."""
    cfg = cfg or CONFIGS[morphology]
    lo, hi = cfg.workspace_min, cfg.workspace_max

    def coordinate(axis):
        if axis == 2 and morphology in PLANAR:
            return st.just(0.0)
        margin = widen * (hi[axis] - lo[axis])
        return st.floats(lo[axis] - margin, hi[axis] + margin)

    points = [cfg.home]
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.booleans()) and draw(st.booleans()):
            points.append(points[-1])
        else:
            points.append(tuple(draw(coordinate(axis)) for axis in range(3)))
    segments = []
    for line, (a, b) in enumerate(zip(points, points[1:]), start=1):
        e = draw(st.sampled_from((0.0, -0.5, 0.2, 1.5)))
        segments.append(MotionSegment(
            start=a, end=b, feed=draw(st.sampled_from((20.0, 50.0, 200.0))),
            extrusion_delta=e, kind="print" if e > 0 else "travel",
            source_line=line))
    return segments


@pytest.mark.parametrize("morphology", coordinator.MORPHOLOGIES)
@SETTINGS
@hypothesis.given(data=st.data())
def test_plan_invariants(morphology, data):
    segments = data.draw(chained_segments(morphology))
    cfg = CONFIGS[morphology]
    plan, _ = same_outcome(coordinator.plan_program, plan_program_oracle,
                           segments, cfg)
    times = [tick.t for tick in plan.ticks]
    assert all(b > a for a, b in zip(times, times[1:]))
    # every segment ends on a tick that carries its exact end point
    ends = {(t.source_line, t.tool_target) for t in plan.ticks}
    assert all((s.source_line, s.end) in ends for s in segments)
    assert plan.barriers == sorted(set(plan.barriers))
    assert all(0 <= b < len(plan.ticks) for b in plan.barriers)


@pytest.mark.parametrize("configs", [CONFIGS, REACH_CONFIGS],
                         ids=["box", "reach"])
@pytest.mark.parametrize("morphology", coordinator.MORPHOLOGIES)
@SETTINGS
@hypothesis.given(data=st.data())
def test_out_of_workspace_matches_oracle(morphology, configs, data):
    # points from a box 10% wider than the workspace: the first start, an
    # end or an interior tick outside the box or out of the machine's
    # reach (REACH_CONFIGS) fails where the oracle fails
    cfg = configs[morphology]
    segments = data.draw(chained_segments(morphology, widen=0.1, cfg=cfg))
    same_outcome(coordinator.plan_program, plan_program_oracle, segments,
                 cfg)
    t0 = data.draw(st.sampled_from((0.0, 3.25)))
    for s in segments:
        same_outcome(coordinator.plan_segment, plan_segment_oracle, s, cfg,
                     t0=t0, datum=cfg.home, extrusion0=0.5,
                     include_start=False)


ROSTER_ORDERS = st.none() | st.lists(
    st.sampled_from(("r1", "r2", "r3", "r4", "r5", "ghost")), max_size=7)


@pytest.mark.parametrize("morphology", coordinator.MORPHOLOGIES)
@SETTINGS
@hypothesis.given(data=st.data())
def test_stream_matches_oracle(morphology, data):
    segments = data.draw(chained_segments(morphology))
    plan = coordinator.plan_program(segments, CONFIGS[morphology])
    order = data.draw(ROSTER_ORDERS)
    assert (coordinator.serialize_command_stream(plan, order)
            == serialize_command_stream_oracle(plan, order))


@SETTINGS
@hypothesis.given(pair=st.permutations(coordinator.MORPHOLOGIES),
                  five=st.booleans(), order=ROSTER_ORDERS)
def test_reconfigure_stream_matches_oracle(pair, five, order):
    ids = ("r1", "r2", "r3", "r4", "r5")[:5 if five else 4]
    plan = coordinator.reconfigure(four_robot_config(pair[0], ids),
                                   four_robot_config(pair[1], ids))
    assert (coordinator.serialize_command_stream(plan, order)
            == serialize_command_stream_oracle(plan, order))
