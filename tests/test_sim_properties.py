"""Property tests of the simulator: seeded runs are deterministic, and
sim.run agrees with the per-sample oracle loop bit for bit."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from swarmfab import coordinator, sim  # noqa: E402
from swarmfab.gcode import MotionSegment  # noqa: E402

from test_coordinator import WALKS  # noqa: E402
from test_sim import (  # noqa: E402
    OracleRun,
    assert_same_columns,
    noisy_config,
    same_run,
)

SETTINGS = hypothesis.settings(max_examples=25, deadline=None)
CONFIGS = {(m, noise): noisy_config(m, noise)
           for m in coordinator.MORPHOLOGIES for noise in (0.0, 0.1)}


@st.composite
def short_programs(draw, morphology):
    """Up to three chained segments of up to 15 mm from the middle of the
    machine's reach, printing or travelling."""
    (cx, cy), _, z_range = WALKS[morphology]
    points = [(cx, cy, z_range[0] if z_range else 0.0)]
    for _ in range(draw(st.integers(1, 3))):
        x, y, z = points[-1]
        step = st.floats(-15.0, 15.0)
        dz = draw(st.floats(0.0, 5.0)) if z_range else 0.0
        points.append((x + draw(step), y + draw(step), z + dz))
    return [MotionSegment(start=a, end=b,
                          feed=draw(st.sampled_from((10.0, 30.0, 80.0))),
                          extrusion_delta=e, kind="print" if e else "travel",
                          source_line=line)
            for line, (a, b) in enumerate(zip(points, points[1:]), start=1)
            for e in [draw(st.sampled_from((0.0, 0.5)))]]


@pytest.mark.parametrize("morphology", coordinator.MORPHOLOGIES)
@SETTINGS
@hypothesis.given(data=st.data())
def test_seeded_run_deterministic_and_matches_oracle(morphology, data):
    noise = data.draw(st.sampled_from((0.0, 0.1)))
    cfg = CONFIGS[morphology, noise]
    plan = coordinator.plan_program(data.draw(short_programs(morphology)),
                                    cfg)
    seed = data.draw(st.integers(0, 2**32 - 1))
    dt = data.draw(st.sampled_from((0.01, 0.005)))
    result = same_run(plan, cfg, dt_sim=dt, seed=seed)
    if isinstance(result, OracleRun):
        assert_same_columns(sim.run(plan, cfg, dt_sim=dt, seed=seed),
                            result.samples)
