"""Property tests of the simulator: seeded runs are deterministic, and
sim.run agrees with the per-sample oracle loop bit for bit."""

import dataclasses

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from swarmfab import config, coordinator, machines, sim  # noqa: E402
from swarmfab.coordinator import Plan, PlanTick  # noqa: E402
from swarmfab.errors import KinematicsFault  # noqa: E402
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
    moves every robot's setpoint by a random jump (the rail robots' y by
    one jump) after a gap shorter or longer than dt_sim, and a random
    subset of the ticks are barriers."""
    rails = [rid for rid, role in zip(coordinator.active_robots(cfg),
                                      machines.SPECS[cfg.morphology].roles)
             if role in ("bridge_left", "bridge_right")]
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
                                y=sp.y + (dy if rid in rails else draw(jump)))
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
    # the robots couple only at the barrier advance, the stall clock and
    # the order of the noise draws
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


# where a skew_plans run first skews, and the lines of the ticks it may skew in
SKEWS = {"first sample": {1}, "inside a tick": {2, 3},
         "barrier wait": {2}, "step by step": {2, 3}}


@st.composite
def skew_plans(draw, morphology, where):
    """A bridge config and a plan from its home setpoints (line 1) that
    sends the move robots 20 to 40 mm along the rails (line 2) and holds
    them there for 1 s (line 3).  One rail robot is slower than the other,
    or is sent 2 to 10 mm further, so that the bridge skews past sync_tol
    `where` the run first skews: at its first sample (the rails start apart
    by more than sync_tol), inside a tick, in a barrier's wait past its
    deadline, or in a tick that goes one step at a time (longer than the
    stall timeout's `calm` steps, or a noisy barrier)."""
    doc = config.default_config_doc(morphology)
    rail = draw(st.sampled_from((0, 1)))
    slow = draw(st.booleans())
    if slow:
        doc["roster"][rail]["max_wheel_speed"] = draw(st.floats(5.0, 15.0))
    noisy = where == "step by step" and draw(st.booleans())
    doc["sim"]["noise_std"] = 0.1 if noisy else 0.0
    if where == "step by step" and not noisy:
        doc["planning"]["stall_timeout"] = 0.2
    doc["sim"]["dt_sim"] = draw(st.sampled_from((0.01, 0.005)))
    cfg = config.parse_config(doc)
    rid = coordinator.active_robots(cfg)[rail]
    first = home_setpoints(cfg)
    if where == "first sample":
        offset = draw(st.floats(1.01, 5.0)) * draw(st.sampled_from((-1, 1)))
        first[rid] = dataclasses.replace(first[rid], y=first[rid].y + offset)
    sign = draw(st.sampled_from((-1, 1)))
    dy = sign * draw(st.floats(20.0, 40.0))
    extra = 0.0 if slow else sign * draw(st.floats(2.0, 10.0))
    second = {other: dataclasses.replace(
        sp, y=sp.y + dy + (extra if other == rid else 0.0))
        if sp.kind == "move" else sp for other, sp in first.items()}
    gap = draw(st.sampled_from({"inside a tick": (0.5, 1.0, 2.0),
                                "barrier wait": (0.0, 0.01)}.get(where, (0.5,))))
    barriers = [1] if where == "barrier wait" or noisy else []
    ticks = [PlanTick(0.0, first, cfg.home, False, 0.0, 1),
             PlanTick(gap, second, cfg.home, True, 0.5, 2),
             PlanTick(gap + 1.0, second, cfg.home, False, 0.5, 3)]
    return cfg, Plan.from_ticks(ticks, barriers, cfg.morphology)


@pytest.mark.parametrize("where", SKEWS)
@pytest.mark.parametrize("morphology", ("bridge_xy", "printer_bridge"))
@SETTINGS
@hypothesis.given(data=st.data())
def test_skews_match_oracle(morphology, where, data):
    cfg, plan = data.draw(skew_plans(morphology, where))
    kind, message, line = same_run(
        plan, cfg, seed=data.draw(st.integers(0, 2**32 - 1)))
    assert kind is KinematicsFault and message.startswith("bridge skew ")
    assert line in SKEWS[where]
