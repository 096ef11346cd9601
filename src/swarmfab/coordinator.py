"""Role assignment, time parameterization, and per-robot setpoint planning.

A Plan is a time-ordered list of ticks; each tick carries one setpoint
per active robot (a position for rail/carriage/table robots, a target
accumulated rotation for spool and lead-screw robots) plus the tool
target it realizes.  Barriers mark ticks where every robot must arrive
before the plan clock advances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from . import kinematics as kin
from .errors import InsufficientRobots, OutOfWorkspace, PlanError
from .gcode import MotionSegment
from .robot import RobotParams

MORPHOLOGIES = ("bridge_xy", "wire2d_wall", "wire3d_printer", "printer_bridge")

ROLE_SEQUENCE = {
    "bridge_xy": ("bridge_left", "bridge_right", "carriage"),
    "wire2d_wall": ("extruder_spool_1", "extruder_spool_2"),
    "wire3d_printer": ("extruder_spool_1", "extruder_spool_2",
                       "extruder_spool_3", "table"),
    # the 4th robot carries the part table on a lead-screw elevator
    "printer_bridge": ("bridge_left", "bridge_right", "carriage", "leadscrew"),
}

REQUIRED_ROBOTS = {m: len(seq) for m, seq in ROLE_SEQUENCE.items()}


@dataclass(frozen=True)
class RosterEntry:
    id: str
    params: RobotParams = field(default_factory=RobotParams)


@dataclass(frozen=True)
class MachineConfig:
    morphology: str
    roster: tuple[RosterEntry, ...]
    workspace_min: tuple[float, float, float]
    workspace_max: tuple[float, float, float]
    bridge_geometry: Optional[kin.BridgeGeometry] = None
    wire2d_geometry: Optional[kin.WireGeometry2D] = None
    wire3d_geometry: Optional[kin.WireGeometry3D] = None
    lead_screw: Optional[kin.LeadScrew] = None
    sync_tol: float = 1.0  # mm
    max_tool_speed: float = 50.0  # mm/s
    dt_plan: float = 0.1  # s
    dt_sim: float = 0.01  # s
    noise_std: float = 0.0  # mm
    home: tuple[float, float, float] = (0.0, 0.0, 0.0)
    table_position: tuple[float, float] = (0.0, 0.0)
    parking: tuple[tuple[float, float], ...] = ()
    swap_duration: float = 10.0  # s, attachment swap dwell
    barrier_angle_deg: float = 90.0
    stall_timeout: float = 10.0  # simulated s

    def __post_init__(self):
        if self.morphology not in MORPHOLOGIES:
            raise ValueError(f"unknown morphology {self.morphology!r}")
        if self.sync_tol <= 0 or self.dt_plan <= 0 or self.max_tool_speed <= 0:
            raise ValueError("sync_tol, dt_plan, max_tool_speed must be positive")

    def robot_params(self, robot_id: str) -> RobotParams:
        for entry in self.roster:
            if entry.id == robot_id:
                return entry.params
        raise KeyError(robot_id)


@dataclass(frozen=True)
class Setpoint:
    kind: str  # move | rotate
    x: float = 0.0
    y: float = 0.0
    theta: float = 0.0


@dataclass(frozen=True)
class PlanTick:
    t: float
    setpoints: dict[str, Setpoint]
    tool_target: tuple[float, float, float]
    extruding: bool
    extrusion_total: float
    source_line: int


@dataclass(frozen=True)
class Plan:
    ticks: list[PlanTick]
    barriers: list[int]
    morphology: str


def assign_roles(config: MachineConfig) -> dict[str, str]:
    """Deterministic roster-order role assignment; surplus robots idle."""
    sequence = ROLE_SEQUENCE[config.morphology]
    if len(config.roster) < len(sequence):
        raise InsufficientRobots(len(sequence), len(config.roster),
                                 config.morphology)
    roles = {}
    for i, entry in enumerate(config.roster):
        roles[entry.id] = sequence[i] if i < len(sequence) else "idle"
    return roles


def active_robots(config: MachineConfig) -> list[str]:
    sequence = ROLE_SEQUENCE[config.morphology]
    return [entry.id for entry in config.roster[:len(sequence)]]


def _omega_max(params: RobotParams) -> float:
    return 2.0 * params.max_wheel_speed / params.wheel_track


def _axis_times(seg: MotionSegment, config: MachineConfig,
                roles: dict[str, str]) -> list[float]:
    """Per-actuated-axis minimum travel times through the morphology IK."""
    dx = seg.end[0] - seg.start[0]
    dy = seg.end[1] - seg.start[1]
    dz = seg.end[2] - seg.start[2]
    by_role = {role: config.robot_params(rid) for rid, role in roles.items()
               if role != "idle"}
    times = []
    morph = config.morphology
    if morph in ("bridge_xy", "printer_bridge"):
        for role in ("bridge_left", "bridge_right"):
            times.append(abs(dy) / by_role[role].max_wheel_speed)
        times.append(abs(dx) / by_role["carriage"].max_wheel_speed)
        if morph == "printer_bridge":
            p = by_role["leadscrew"]
            dtheta = abs(kin.leadscrew_delta(dz, config.lead_screw))
            times.append(dtheta / _omega_max(p))
    elif morph == "wire2d_wall":
        geom = config.wire2d_geometry
        l_start = kin.wire2d_ik((seg.start[0], seg.start[1]), geom)
        l_end = kin.wire2d_ik((seg.end[0], seg.end[1]), geom)
        for i, role in enumerate(("extruder_spool_1", "extruder_spool_2")):
            p = by_role[role]
            rim = geom.spool_radius * _omega_max(p)
            times.append(abs(l_end[i] - l_start[i]) / rim)
    elif morph == "wire3d_printer":
        geom = config.wire3d_geometry
        l_start = kin.wire3d_ik(seg.start, geom)
        l_end = kin.wire3d_ik(seg.end, geom)
        for i, role in enumerate(("extruder_spool_1", "extruder_spool_2",
                                  "extruder_spool_3")):
            p = by_role[role]
            rim = geom.spool_radius * _omega_max(p)
            times.append(abs(l_end[i] - l_start[i]) / rim)
    return times


def time_parameterize(seg: MotionSegment, config: MachineConfig,
                      roles: Optional[dict[str, str]] = None) -> float:
    """Feed- and actuator-limited duration of one segment."""
    for point in (seg.start, seg.end):
        check = kin.workspace_contains(config, point)
        if not check:
            raise OutOfWorkspace(
                f"segment endpoint {point} outside workspace: {check.reason}",
                reason=check.reason, line_no=seg.source_line)
    if roles is None:
        roles = assign_roles(config)
    length = seg.length
    if length == 0.0:
        return 0.0
    duration = max(length / seg.feed, length / config.max_tool_speed)
    return max([duration] + _axis_times(seg, config, roles))


def datum_wire_lengths(config: MachineConfig,
                       datum: tuple[float, float, float]) -> tuple:
    """Wire lengths at the plan datum, where spool rotation is zero; empty
    for the bridge morphologies, which have no wires."""
    if config.morphology == "wire2d_wall":
        return kin.wire2d_ik((datum[0], datum[1]), config.wire2d_geometry)
    if config.morphology == "wire3d_printer":
        return kin.wire3d_ik(datum, config.wire3d_geometry)
    return ()


def _tool_setpoints(tool: tuple[float, float, float], config: MachineConfig,
                    roles: dict[str, str],
                    datum: tuple[float, float, float],
                    datum_lengths: tuple) -> dict[str, Setpoint]:
    """Per-robot setpoints realizing a tool point.

    Spool and lead-screw rotation targets are relative to the plan datum
    (the tool position at plan start, where accumulated rotation is 0);
    `datum_lengths` is datum_wire_lengths(config, datum).
    """
    morph = config.morphology
    out = {}
    by_role = {role: rid for rid, role in roles.items() if role != "idle"}
    if morph in ("bridge_xy", "printer_bridge"):
        sol = kin.bridge_ik((tool[0], tool[1]), config.bridge_geometry)
        out[by_role["bridge_left"]] = Setpoint("move", *sol["bridge1"])
        out[by_role["bridge_right"]] = Setpoint("move", *sol["bridge2"])
        out[by_role["carriage"]] = Setpoint("move", tool[0], tool[1])
        if morph == "printer_bridge":
            theta = kin.leadscrew_delta(tool[2] - datum[2], config.lead_screw)
            out[by_role["leadscrew"]] = Setpoint("rotate", *config.table_position,
                                                 theta=theta)
    elif morph == "wire2d_wall":
        geom = config.wire2d_geometry
        lengths = kin.wire2d_ik((tool[0], tool[1]), geom)
        for i, role in enumerate(("extruder_spool_1", "extruder_spool_2")):
            theta = kin.spool_delta(lengths[i] - datum_lengths[i],
                                    geom.spool_radius)
            anchor = geom.anchors[i]
            out[by_role[role]] = Setpoint("rotate", anchor[0], anchor[1],
                                          theta=theta)
    elif morph == "wire3d_printer":
        geom = config.wire3d_geometry
        lengths = kin.wire3d_ik(tool, geom)
        for i, role in enumerate(("extruder_spool_1", "extruder_spool_2",
                                  "extruder_spool_3")):
            theta = kin.spool_delta(lengths[i] - datum_lengths[i],
                                    geom.spool_radius)
            anchor = geom.anchors[i]
            out[by_role[role]] = Setpoint("rotate", anchor[0], anchor[1],
                                          theta=theta)
        out[by_role["table"]] = Setpoint("move", *config.table_position)
    return out


def plan_segment(seg: MotionSegment, config: MachineConfig,
                 roles: Optional[dict[str, str]] = None, *,
                 t0: float = 0.0,
                 datum: Optional[tuple[float, float, float]] = None,
                 datum_lengths: Optional[tuple] = None,
                 extrusion0: float = 0.0,
                 include_start: bool = True) -> list[PlanTick]:
    """Sample one segment into setpoint ticks at the planning period.

    `datum_lengths` defaults to datum_wire_lengths(config, datum); a caller
    planning many segments against one datum passes it in.
    """
    if roles is None:
        roles = assign_roles(config)
    if datum is None:
        datum = seg.start
    duration = time_parameterize(seg, config, roles)
    if datum_lengths is None:
        datum_lengths = datum_wire_lengths(config, datum)
    dt = config.dt_plan

    ticks = []
    extruding = seg.kind == "print"
    if duration == 0.0:
        # extrude-in-place: a single dwell tick
        sp = _tool_setpoints(seg.start, config, roles, datum, datum_lengths)
        ticks.append(PlanTick(t0 + dt, sp, seg.start, extruding,
                              extrusion0 + seg.extrusion_delta, seg.source_line))
        return ticks

    n = max(1, math.ceil(duration / dt - 1e-9))
    start = seg.start
    end = seg.end
    first = 0 if include_start else 1
    for i in range(first, n + 1):
        t = duration if i == n else i * dt
        frac = t / duration
        tool = tuple(s + (e - s) * frac for s, e in zip(start, end))
        if i == n:
            tool = end  # exact endpoint
        check = kin.workspace_contains(config, tool)
        if not check:
            raise OutOfWorkspace(
                f"setpoint {tool} outside workspace: {check.reason}",
                reason=check.reason, line_no=seg.source_line)
        sp = _tool_setpoints(tool, config, roles, datum, datum_lengths)
        ticks.append(PlanTick(t0 + t, sp, tool, extruding,
                              extrusion0 + seg.extrusion_delta * frac,
                              seg.source_line))
    return ticks


def _direction_change(a: MotionSegment, b: MotionSegment) -> float:
    """Angle in radians between successive segment directions; 0 if degenerate."""
    va = tuple(e - s for s, e in zip(a.start, a.end))
    vb = tuple(e - s for s, e in zip(b.start, b.end))
    na = math.sqrt(sum(c * c for c in va))
    nb = math.sqrt(sum(c * c for c in vb))
    if na == 0.0 or nb == 0.0:
        return 0.0
    cosang = sum(x * y for x, y in zip(va, vb)) / (na * nb)
    return math.acos(max(-1.0, min(1.0, cosang)))


def plan_program(segments: list[MotionSegment], config: MachineConfig) -> Plan:
    """Plan a chained segment list into one synchronized schedule."""
    roles = assign_roles(config)
    for prev, nxt in zip(segments, segments[1:]):
        if prev.end != nxt.start:
            raise PlanError(
                f"segments not chained at line {nxt.source_line}",
                line_no=nxt.source_line)

    ticks: list[PlanTick] = []
    barriers: list[int] = []
    if not segments:
        return Plan(ticks=[], barriers=[], morphology=config.morphology)

    datum = segments[0].start
    # time_parameterize checks the datum (the first segment's start) against
    # the workspace; doing so before its IK keeps that error an
    # OutOfWorkspace with its g-code line
    time_parameterize(segments[0], config, roles)
    datum_lengths = datum_wire_lengths(config, datum)
    threshold = math.radians(config.barrier_angle_deg) - 1e-9
    t_cursor = 0.0
    extrusion = 0.0
    prev_seg: Optional[MotionSegment] = None
    for seg in segments:
        if prev_seg is not None and ticks:
            turn = _direction_change(prev_seg, seg)
            kind_change = prev_seg.kind != seg.kind
            if turn >= threshold or kind_change:
                barriers.append(len(ticks) - 1)
        seg_ticks = plan_segment(
            seg, config, roles, t0=t_cursor, datum=datum,
            datum_lengths=datum_lengths, extrusion0=extrusion,
            include_start=prev_seg is None)
        ticks.extend(seg_ticks)
        if seg_ticks:
            t_cursor = seg_ticks[-1].t
        extrusion += seg.extrusion_delta
        prev_seg = seg
    # deduplicate while preserving order
    barriers = sorted(set(barriers))
    return Plan(ticks=ticks, barriers=barriers, morphology=config.morphology)


# --- reconfiguration ---

def initial_robot_positions(config: MachineConfig) -> dict[str, tuple[float, float]]:
    """Nominal start position of every active robot for a config's home tool."""
    roles = assign_roles(config)
    sp = _tool_setpoints(config.home, config, roles, config.home,
                         datum_wire_lengths(config, config.home))
    return {rid: (s.x, s.y) for rid, s in sp.items()}


def default_parking(config: MachineConfig, count: int) -> list[tuple[float, float]]:
    """Parking spots along the workspace lower edge, spaced by body size."""
    if config.parking:
        return list(config.parking[:count])
    x0, y0 = config.workspace_min[0], config.workspace_min[1]
    spacing = 4.0 * max((e.params.body_radius for e in config.roster),
                        default=16.0)
    return [(x0 + i * spacing, y0) for i in range(count)]


def reconfigure(from_config: MachineConfig, to_config: MachineConfig) -> Plan:
    """Transition plan between morphologies sharing a roster.

    Robots reused in the target get their new start positions; robots no
    longer needed park; a timed dwell models the attachment swap.
    """
    from_ids = {e.id for e in from_config.roster}
    to_ids = {e.id for e in to_config.roster}
    shared = from_ids & to_ids
    needed = REQUIRED_ROBOTS[to_config.morphology]
    if len([e for e in to_config.roster if e.id in shared]) < needed:
        raise InsufficientRobots(needed, len(shared), to_config.morphology)

    roles_from = assign_roles(from_config)
    roles_to = assign_roles(to_config)
    if (from_config.morphology == to_config.morphology
            and roles_from == roles_to):
        return Plan(ticks=[], barriers=[], morphology=to_config.morphology)

    targets = initial_robot_positions(to_config)
    parked = [rid for rid, role in roles_from.items()
              if role != "idle" and rid not in targets]
    parking = default_parking(to_config, len(parked))
    if len(parking) < len(parked):
        raise PlanError(
            f"{to_config.morphology} config has {len(parking)} parking "
            f"spot(s) for {len(parked)} parked robots; no spot for "
            f"{', '.join(parked[len(parking):])}")

    setpoints = {}
    for rid, pos in targets.items():
        setpoints[rid] = Setpoint("move", pos[0], pos[1])
    for rid, spot in zip(parked, parking):
        setpoints[rid] = Setpoint("move", spot[0], spot[1])

    home = to_config.home
    move_tick = PlanTick(0.0, setpoints, home, False, 0.0, 0)
    dwell_tick = PlanTick(to_config.swap_duration, dict(setpoints), home,
                          False, 0.0, 0)
    return Plan(ticks=[move_tick, dwell_tick], barriers=[0, 1],
                morphology=to_config.morphology)


# --- command stream ---

def serialize_command_stream(plan: Plan,
                             roster_order: Optional[list[str]] = None) -> str:
    """Byte-stable newline-delimited command records, one per robot per tick."""
    lines = []
    seen_order: list[str] = []
    for tick in plan.ticks:
        ids = roster_order if roster_order is not None else list(tick.setpoints)
        for rid in ids:
            if rid not in tick.setpoints:
                continue
            if rid not in seen_order:
                seen_order.append(rid)
            sp = tick.setpoints[rid]
            if sp.kind == "move":
                lines.append(
                    f"t={tick.t:.6f} id={rid} op=move x={sp.x:.6f} "
                    f"y={sp.y:.6f} line={tick.source_line}")
            else:
                lines.append(
                    f"t={tick.t:.6f} id={rid} op=rotate theta={sp.theta:.6f} "
                    f"line={tick.source_line}")
    if plan.ticks:
        t_end = plan.ticks[-1].t
        line = plan.ticks[-1].source_line
        for rid in seen_order:
            lines.append(f"t={t_end:.6f} id={rid} op=stop line={line}")
    return "\n".join(lines) + ("\n" if lines else "")
