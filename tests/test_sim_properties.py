"""Property tests of the simulator: seeded runs are deterministic, and
sim.run agrees with the per-sample oracle loop bit for bit."""

import dataclasses

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from swarmfab import config, coordinator, sim  # noqa: E402
from swarmfab.coordinator import Plan, PlanTick  # noqa: E402
from swarmfab.gcode import MotionSegment  # noqa: E402

from test_coordinator import WALKS  # noqa: E402
from test_sim import (  # noqa: E402
    OracleRun,
    assert_same_columns,
    home_setpoints,
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


@st.composite
def tick_plans(draw, cfg):
    """A plan of up to five ticks from the home setpoints: each later tick
    moves every robot's setpoint by a random jump (the synced robots' y by
    one jump) after a gap shorter or longer than dt_sim, and a random
    subset of the ticks are barriers."""
    synced = cfg.machine.synced(coordinator.active_robots(cfg))
    jump = st.floats(-15.0, 15.0)
    ticks = [PlanTick(0.0, home_setpoints(cfg), cfg.home, False, 0.0, 1)]
    for line in range(2, draw(st.integers(1, 5)) + 1):
        last = ticks[-1]
        dy = draw(jump)
        setpoints = {
            rid: dataclasses.replace(sp, theta=sp.theta
                                     + draw(st.floats(-0.5, 0.5)))
            if sp.kind == "rotate" else
            dataclasses.replace(sp, x=sp.x + draw(jump),
                                y=sp.y + (dy if rid in synced else draw(jump)))
            for rid, sp in last.setpoints.items()}
        gap = draw(st.sampled_from((0.0, 0.004, 0.01, 0.013, 0.05, 0.2)))
        extruding = draw(st.booleans())
        ticks.append(PlanTick(last.t + gap, setpoints, cfg.home, extruding,
                              last.extrusion_total + extruding * 0.5, line))
    barriers = sorted(draw(st.sets(st.integers(0, len(ticks) - 1))))
    return Plan.from_ticks(ticks, barriers, cfg.morphology)


@pytest.mark.parametrize("morphology", coordinator.MORPHOLOGIES)
@SETTINGS
@hypothesis.given(data=st.data())
def test_tick_plans_match_oracle(morphology, data):
    # the robots couple only at the bridge sync check, the barrier advance,
    # the stall clock and the order of the noise draws
    doc = config.default_config_doc(morphology)
    doc["sim"]["noise_std"] = data.draw(
        st.one_of(st.just(0.0), st.floats(0.1, 1.0)))
    # some timeouts are sums of dt_sim, which a rounding may pass
    doc["planning"]["stall_timeout"] = data.draw(st.one_of(
        st.floats(0.02, 10.0), st.sampled_from((0.03, 0.05, 0.085, 0.3))))
    doc["sim"]["dt_sim"] = data.draw(st.sampled_from((0.01, 0.005, 0.1)))
    cfg = config.parse_config(doc)
    plan = data.draw(tick_plans(cfg))
    same_run(plan, cfg, seed=data.draw(st.integers(0, 2**32 - 1)))
