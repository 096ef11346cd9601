"""Execute a Plan against the virtual robot dynamics and score fidelity."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import kinematics as kin
from .coordinator import (
    MachineConfig,
    Plan,
    Setpoint,
    active_robots,
    assign_roles,
)
from .errors import KinematicsFault, StallTimeout
from .gcode import MotionSegment
from .robot import (
    RobotState,
    goto_controller,
    rotate_controller,
    step_dynamics,
)

PROGRESS_EPS = 1e-6  # mm of setpoint-distance improvement that counts as progress


@dataclass(frozen=True)
class TraceSample:
    t: float
    poses: dict[str, tuple[float, float, float]]
    rotations: dict[str, float]
    tool_tip: tuple[float, float, float]  # from morphology FK of the poses
    tool_target: tuple[float, float, float]  # commanded target of the tick
    extruding: bool
    extrusion_total: float


@dataclass
class Trace:
    samples: list[TraceSample] = field(default_factory=list)
    config: MachineConfig | None = None
    barrier_wait_total: float = 0.0
    extruded_length: float = 0.0


@dataclass(frozen=True)
class FidelityReport:
    max_deviation: float
    mean_deviation: float
    per_segment_deviation: list[float]
    total_print_length: float
    total_travel_length: float
    simulated_duration: float
    barrier_wait_total: float


def _initial_states(plan: Plan, config: MachineConfig) -> dict[str, RobotState]:
    roles = assign_roles(config)
    states = {}
    if plan.ticks:
        first = plan.ticks[0]
        for rid, sp in first.setpoints.items():
            states[rid] = RobotState(
                id=rid, pose=(sp.x, sp.y, 0.0), role=roles[rid],
                params=config.robot_params(rid))
    return states


def _setpoint_error(state: RobotState, sp: Setpoint) -> float:
    if sp.kind == "rotate":
        return abs(sp.theta - state.accumulated_rotation)
    return math.hypot(sp.x - state.pose[0], sp.y - state.pose[1])


def _arrived(state: RobotState, sp: Setpoint) -> bool:
    if sp.kind == "rotate":
        return abs(sp.theta - state.accumulated_rotation) < state.params.angular_tol
    return (math.hypot(sp.x - state.pose[0], sp.y - state.pose[1])
            < state.params.arrival_tol)


def run(plan: Plan, config: MachineConfig, dt_sim: float | None = None,
        seed: int = 0) -> Trace:
    """Simulate plan execution; deterministic for a fixed (plan, config, seed)."""
    if dt_sim is None:
        dt_sim = config.dt_sim
    if dt_sim > config.dt_plan:
        raise ValueError("dt_sim must not exceed dt_plan")

    trace = Trace(config=config)
    states = _initial_states(plan, config)
    ids = active_robots(config)
    rng = np.random.default_rng(seed) if config.noise_std > 0 else None

    if not plan.ticks:
        return trace

    zero = config.machine.zero(plan.ticks[0].tool_target)
    order = sorted(states)
    barriers = set(plan.barriers)

    def record(t, tick, extrusion_total):
        try:
            tool = config.machine.tool_tip(states, ids, zero)
        except kin.BridgeSkewed as exc:
            raise KinematicsFault(str(exc)) from exc
        trace.samples.append(TraceSample(
            t=round(t, 9),
            poses={rid: states[rid].pose for rid in order},
            rotations={rid: states[rid].accumulated_rotation for rid in order},
            tool_tip=tool, tool_target=tick.tool_target,
            extruding=tick.extruding,
            extrusion_total=extrusion_total))

    t = 0.0
    extrusion_prev = plan.ticks[0].extrusion_total
    record(t, plan.ticks[0], extrusion_prev)

    tick_idx = 0
    tick_entry_time = 0.0
    last_best = None
    stall_clock = 0.0
    while tick_idx < len(plan.ticks):
        tick = plan.ticks[tick_idx]
        is_barrier = tick_idx in barriers
        # pursue the current tick's setpoints
        for rid in order:
            sp = tick.setpoints.get(rid)
            if sp is None:
                continue
            st = states[rid]
            if sp.kind == "rotate":
                wheels = rotate_controller(
                    st, sp.theta - st.accumulated_rotation)
            else:
                wheels = goto_controller(st, (sp.x, sp.y))
            states[rid] = step_dynamics(
                replace(st, wheel_speeds=wheels), dt_sim, rng)
        t += dt_sim
        record(t, tick, extrusion_prev)

        all_arrived = all(_arrived(states[rid], sp)
                          for rid, sp in tick.setpoints.items() if rid in states)

        # stall detection: not arrived and no robot improving toward its setpoint
        best = sum(_setpoint_error(states[rid], sp)
                   for rid, sp in tick.setpoints.items() if rid in states)
        if all_arrived:
            stall_clock = 0.0
        elif last_best is not None and best > last_best - PROGRESS_EPS:
            stall_clock += dt_sim
        else:
            stall_clock = 0.0
        last_best = best
        if stall_clock > config.stall_timeout:
            raise StallTimeout(
                f"no progress for {config.stall_timeout} s at plan tick "
                f"{tick_idx} (t={t:.2f} s, line {tick.source_line})")

        # advance the plan clock
        deadline_met = t - tick_entry_time >= _tick_budget(plan, tick_idx) - 1e-12
        if is_barrier:
            if deadline_met and not all_arrived:
                trace.barrier_wait_total += dt_sim
            advance = deadline_met and all_arrived
        else:
            advance = deadline_met
        if advance:
            if tick.extruding:
                gained = tick.extrusion_total - extrusion_prev
                if gained > 0:
                    trace.extruded_length += gained
            extrusion_prev = tick.extrusion_total
            tick_idx += 1
            tick_entry_time = t
            last_best = None
            stall_clock = 0.0
    return trace


def _tick_budget(plan: Plan, tick_idx: int) -> float:
    """Nominal time allotted to reach tick tick_idx from its predecessor."""
    t_here = plan.ticks[tick_idx].t
    t_prev = plan.ticks[tick_idx - 1].t if tick_idx > 0 else 0.0
    return max(t_here - t_prev, 0.0)


# --- fidelity ---

# (point, segment) pairs per broadcast block in _segment_distances.  Bounds the
# kernel's temporaries (~100 B per pair) independently of the sample count.
CHUNK_PAIRS = 4096


def _dot(u, v):
    """Row-wise dot product over the last axis.

    Stacked matmul dispatches each row to the same BLAS dot as a 1-D
    `u @ v` or `np.linalg.norm`, so results match the scalar formula bit for
    bit; `einsum` or an explicit component sum can round differently (BLAS
    dot kernels may fuse multiply-adds).
    """
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _segment_distances(points, segments: list[MotionSegment]):
    """Nearest segment and its distance for every point.

    Returns `(nearest, distance)`: for each point, the index of the closest
    segment (the lowest index on exact ties, as `np.argmin` picks) and the
    distance to it.  A zero-length segment scores as the distance to its start.
    Points are processed in blocks of CHUNK_PAIRS // len(segments) points (at
    least one), so memory does not grow with the number of points.
    """
    points = np.asarray(points, dtype=float)
    a = np.array([s.start for s in segments], dtype=float)
    ab = np.array([s.end for s in segments], dtype=float) - a
    denom = _dot(ab, ab)
    # 0 / 1 gives s = 0 on a zero-length segment, so its distance is |ap|
    denom = np.where(denom == 0.0, 1.0, denom)
    nearest = np.empty(len(points), dtype=np.intp)
    distance = np.empty(len(points))
    rows = max(1, CHUNK_PAIRS // len(a))
    for lo in range(0, len(points), rows):
        ap = points[lo:lo + rows, None, :] - a
        s = np.clip(_dot(ap, ab) / denom, 0.0, 1.0)
        d = ap - s[..., None] * ab
        dist = np.sqrt(_dot(d, d))
        i = np.argmin(dist, axis=1)
        nearest[lo:lo + rows] = i
        distance[lo:lo + rows] = dist[np.arange(len(i)), i]
    return nearest, distance


def point_polyline_distance(p, segments: list[MotionSegment]) -> float:
    if not segments:
        raise ValueError("no segments")
    _, distance = _segment_distances([p], segments)
    return float(distance[0])


def measure_fidelity(trace: Trace,
                     segments: list[MotionSegment]) -> FidelityReport:
    """Deviation of extruding samples from the commanded print polyline.

    Each extruding sample is charged to its nearest print segment (the first
    one on exact ties); `per_segment_deviation` is the worst charge per segment.
    """
    if not trace.samples:
        raise ValueError("trace is empty")
    print_segments = [s for s in segments if s.kind == "print"]
    tips = [s.tool_tip for s in trace.samples if s.extruding]
    per_segment = np.zeros(len(print_segments))
    max_dev = mean_dev = 0.0
    if tips and print_segments:
        nearest, deviations = _segment_distances(tips, print_segments)
        np.maximum.at(per_segment, nearest, deviations)
        max_dev = float(deviations.max())
        mean_dev = float(np.mean(deviations))
    return FidelityReport(
        max_deviation=max_dev,
        mean_deviation=mean_dev,
        per_segment_deviation=per_segment.tolist(),
        total_print_length=sum(s.length for s in print_segments),
        total_travel_length=sum(s.length for s in segments
                                if s.kind == "travel"),
        simulated_duration=trace.samples[-1].t,
        barrier_wait_total=trace.barrier_wait_total,
    )


# --- exports ---

Z_QUANTUM = 1e-6  # mm, layer grouping quantization


def _polylines_from_samples(samples, want_extruding: bool):
    """Maximal runs of consecutive samples sharing the extruding flag.

    Each run carries a layer key taken from the commanded target z, which
    is exact; the FK tool-tip z jitters below the grouping quantum.
    """
    runs = []
    current = []
    key_z = 0.0
    for s in samples:
        if s.extruding == want_extruding:
            if not current:
                key_z = s.tool_target[2]
            current.append(s.tool_tip)
        else:
            if len(current) >= 2:
                runs.append((key_z, current))
            current = []
    if len(current) >= 2:
        runs.append((key_z, current))
    return runs


def _fmt(v: float) -> str:
    return f"{v:.6f}"


def export_svg(source, *, workspace=None, include_travel: bool = True) -> str:
    """Render print (solid) and travel (dashed) polylines grouped by layer z.

    `source` is a Trace or a list of MotionSegments.
    """
    if isinstance(source, Trace):
        print_polys = _polylines_from_samples(source.samples, True)
        travel_polys = _polylines_from_samples(source.samples, False)
        if workspace is None and source.config is not None:
            workspace = (source.config.workspace_min, source.config.workspace_max)
    else:
        print_polys = _merge_chains(
            [(seg.start[2], [seg.start, seg.end]) for seg in source
             if seg.kind == "print"])
        travel_polys = _merge_chains(
            [(seg.start[2], [seg.start, seg.end]) for seg in source
             if seg.kind == "travel"])

    all_points = [p for _, poly in print_polys + travel_polys for p in poly]
    if workspace is not None:
        lo, hi = workspace
        min_x, min_y = lo[0], lo[1]
        max_x, max_y = hi[0], hi[1]
    elif all_points:
        min_x = min(p[0] for p in all_points)
        max_x = max(p[0] for p in all_points)
        min_y = min(p[1] for p in all_points)
        max_y = max(p[1] for p in all_points)
    else:
        min_x = min_y = 0.0
        max_x = max_y = 1.0
    width = max(max_x - min_x, 1e-6)
    height = max(max_y - min_y, 1e-6)

    def layer_key(z):
        return round(z / Z_QUANTUM) * Z_QUANTUM

    layers: dict[float, dict[str, list]] = {}
    for z, poly in print_polys:
        layers.setdefault(layer_key(z), {"print": [], "travel": []})["print"].append(poly)
    if include_travel:
        for z, poly in travel_polys:
            layers.setdefault(layer_key(z), {"print": [], "travel": []})["travel"].append(poly)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(min_x)} {_fmt(min_y)} {_fmt(width)} {_fmt(height)}" '
        f'width="{_fmt(width)}mm" height="{_fmt(height)}mm">',
    ]
    for z in sorted(layers):
        lines.append(f'<g id="layer-z{_fmt(z)}">')
        for poly in layers[z]["travel"]:
            pts = " ".join(f"{_fmt(p[0])},{_fmt(p[1])}" for p in poly)
            lines.append(
                f'<polyline points="{pts}" fill="none" stroke="#999999" '
                f'stroke-width="0.2" stroke-dasharray="2,2"/>')
        for poly in layers[z]["print"]:
            pts = " ".join(f"{_fmt(p[0])},{_fmt(p[1])}" for p in poly)
            lines.append(
                f'<polyline points="{pts}" fill="none" stroke="#000000" '
                f'stroke-width="0.4"/>')
        lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _merge_chains(polys):
    """Concatenate same-layer polylines whose endpoints coincide."""
    merged = []
    for z, poly in polys:
        if merged and merged[-1][0] == z and merged[-1][1][-1] == poly[0]:
            merged[-1][1].extend(poly[1:])
        else:
            merged.append((z, list(poly)))
    return merged


def export_csv(trace: Trace) -> str:
    """Flat per-robot per-sample table with fixed 6-decimal formatting."""
    lines = ["t,robot_id,x,y,heading,tool_x,tool_y,tool_z,extruding"]
    for s in trace.samples:
        for rid in sorted(s.poses):
            x, y, heading = s.poses[rid]
            lines.append(
                f"{s.t:.6f},{rid},{x:.6f},{y:.6f},{heading:.6f},"
                f"{s.tool_tip[0]:.6f},{s.tool_tip[1]:.6f},"
                f"{s.tool_tip[2]:.6f},{int(s.extruding)}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class OverlapEvent:
    t: float
    robot_a: str
    robot_b: str
    distance: float


def overlap_diagnostic(trace: Trace, config: MachineConfig) -> list[OverlapEvent]:
    """Report samples where two robot body circles intersect (non-fatal)."""
    radii = {e.id: e.params.body_radius for e in config.roster}
    # robot ids of a sample -> its (a, b, contact distance) pairs, a < b
    pairs_by_ids: dict[tuple[str, ...], list[tuple[str, str, float]]] = {}
    events = []
    for s in trace.samples:
        ids = tuple(s.poses)
        pairs = pairs_by_ids.get(ids)
        if pairs is None:
            ordered = sorted(ids)
            pairs = pairs_by_ids[ids] = [
                (a, b, radii.get(a, 16.0) + radii.get(b, 16.0))
                for i, a in enumerate(ordered) for b in ordered[i + 1:]]
        for a, b, contact in pairs:
            pa, pb = s.poses[a], s.poses[b]
            d = math.hypot(pa[0] - pb[0], pa[1] - pb[1])
            if d < contact:
                events.append(OverlapEvent(s.t, a, b, d))
    return events
