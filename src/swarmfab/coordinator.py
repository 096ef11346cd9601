"""Role assignment, time parameterization, and per-robot setpoint planning.

A Plan is a time-ordered schedule of ticks, held as columns; each tick
carries one setpoint per active robot (a position for rail/carriage/table
robots, a target accumulated rotation for spool and lead-screw robots) plus
the tool target it realizes.  Barriers mark ticks where every robot must
arrive before the plan clock advances.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional

import numpy as np

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
    noise_std: float = 0.0  # mm/sqrt(s), position random walk (see sim.run)
    home: tuple[float, float, float] = (0.0, 0.0, 0.0)
    table_position: tuple[float, float] = (0.0, 0.0)
    parking: tuple[tuple[float, float], ...] = ()
    swap_duration: float = 10.0  # s, attachment swap dwell
    barrier_angle_deg: float = 90.0
    stall_timeout: float = 10.0  # simulated s
    # the morphology's mechanics (_Bridge or _Wire), built once here and
    # left out of repr and ==
    machine: "_Bridge | _Wire" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.morphology not in MORPHOLOGIES:
            raise ValueError(f"unknown morphology {self.morphology!r}")
        for name in ("sync_tol", "max_tool_speed", "dt_plan", "swap_duration",
                     "stall_timeout"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not 0 < self.dt_sim <= self.dt_plan:
            raise ValueError(f"dt_sim must be in (0, dt_plan={self.dt_plan}]")
        if not self.noise_std >= 0:
            raise ValueError("noise_std must not be negative")
        if not 0 <= self.barrier_angle_deg <= 180:
            raise ValueError("barrier_angle_deg must be in [0, 180]")
        ids = [entry.id for entry in self.roster]
        duplicates = sorted({rid for rid in ids if ids.count(rid) > 1})
        if duplicates:
            raise ValueError(f"duplicate robot ids in roster: "
                             f"{', '.join(duplicates)}")
        family = (_Bridge if self.morphology in ("bridge_xy", "printer_bridge")
                  else _Wire)
        object.__setattr__(self, "machine", family(self))

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
    """A schedule as columns, one entry per tick.

    `setpoints[n]` is tick n's setpoint row: the (x, y, theta) of robot
    `ids[k]` at 3k:3k + 3.  `kinds[k]` is that robot's setpoint kind for the
    whole plan: a move robot's row holds its target and theta 0.0, a rotate
    robot's the spot it turns at and its target accumulated rotation.
    """

    morphology: str
    barriers: list[int] = field(default_factory=list)
    ids: tuple[str, ...] = ()
    kinds: tuple[str, ...] = ()
    t: list[float] = field(default_factory=list)
    tool_target: list[tuple[float, float, float]] = field(default_factory=list)
    extruding: list[bool] = field(default_factory=list)
    extrusion_total: list[float] = field(default_factory=list)
    source_line: list[int] = field(default_factory=list)
    setpoints: list[tuple[float, ...]] = field(default_factory=list)

    @property
    def ticks(self) -> list[PlanTick]:
        """The rows as PlanTicks, built on each access."""
        robots = list(enumerate(zip(self.ids, self.kinds)))
        return [PlanTick(t, {rid: Setpoint(kind, *row[3 * k:3 * k + 3])
                             for k, (rid, kind) in robots},
                         target, extruding, total, line)
                for t, target, extruding, total, line, row
                in zip(self.t, self.tool_target, self.extruding,
                       self.extrusion_total, self.source_line,
                       self.setpoints)]

    @classmethod
    def from_ticks(cls, ticks: list[PlanTick], barriers: list[int],
                   morphology: str) -> Plan:
        """The Plan of `ticks`, whose setpoints must name the first tick's
        robots, in its order and with its kinds."""
        first = ticks[0].setpoints.items() if ticks else ()
        robots = [(rid, sp.kind) for rid, sp in first]
        for tick in ticks:
            items = tick.setpoints.items()
            if [(rid, sp.kind) for rid, sp in items] != robots:
                raise ValueError(f"the tick at t={tick.t} has other robots "
                                 f"or kinds than the first tick")
        columns = zip(*((tick.t, tick.tool_target, tick.extruding,
                         tick.extrusion_total, tick.source_line,
                         tuple(v for sp in tick.setpoints.values()
                               for v in (sp.x, sp.y, sp.theta)))
                        for tick in ticks))
        return cls(morphology, list(barriers),
                   tuple(rid for rid, _ in robots),
                   tuple(kind for _, kind in robots), *map(list, columns))


def active_robots(config: MachineConfig) -> list[str]:
    """The roster's first robots, one per role of the morphology, in order."""
    sequence = ROLE_SEQUENCE[config.morphology]
    if len(config.roster) < len(sequence):
        raise InsufficientRobots(len(sequence), len(config.roster),
                                 config.morphology)
    return [entry.id for entry in config.roster[:len(sequence)]]


def assign_roles(config: MachineConfig) -> dict[str, str]:
    """Deterministic roster-order role assignment; surplus robots idle."""
    roles = dict(zip(active_robots(config), ROLE_SEQUENCE[config.morphology]))
    return {entry.id: roles.get(entry.id, "idle") for entry in config.roster}


def _omega_max(params: RobotParams) -> float:
    return 2.0 * params.max_wheel_speed / params.wheel_track


def _required(config: MachineConfig, name: str):
    value = getattr(config, name)
    if value is None:
        raise ValueError(f"{config.morphology} config needs a {name}")
    return value


def _check(config: MachineConfig, point, what: str, line_no: int) -> None:
    check = kin.workspace_contains(config, point)
    if not check:
        raise OutOfWorkspace(
            f"{what} {point} outside workspace: {check.reason}",
            reason=check.reason, line_no=line_no)


# A machine holds one morphology family's mechanics, for a MachineConfig:
#   limits(params)     speed limit of each actuated axis, in `deltas` units,
#                      from the params of the roster's robots
#   solve(tool)        IK solution of a tool point
#   zero(datum, start, start_sol)  what rotation targets are relative to:
#                      the datum's z (bridge) or its wire lengths (wire;
#                      `start_sol`, start's IK, if the datum is `start`)
#   kinds              setpoint kind of each of `ids`, move or rotate
#   setpoints(tool, sol, zero)  the setpoint row of a tool point: (x, y,
#                      theta) of each of `ids` (see Plan)
#   deltas(seg, start_sol, end_sol)  travel of each actuated axis
#   reach_reason(x, y, z)  why a tool point is out of reach, or ""
#   synced(ids)        the robots whose y must agree within sync_tol
#   tool_tips(poses, rotations, cols, zero)  FK of every row of pose (N x R
#                      x 3) and rotation (N x R) columns; `cols` holds the
#                      column of each of `ids`
# `ids` are active_robots(config).  The kinematics functions are looked up
# on the module at call time, so wrappers installed there see every call.

class _Bridge:
    """bridge_xy, and printer_bridge with its lead screw: two rail robots
    carry the bridge (y), the carriage rides it (x) and the 4th robot turns
    the screw (z).  An IK solution is the bridge decomposition."""

    def __init__(self, config: MachineConfig):
        self.geom = _required(config, "bridge_geometry")
        self.screw = (_required(config, "lead_screw")
                      if config.morphology == "printer_bridge" else None)
        self.sync_tol = config.sync_tol
        self.table_position = config.table_position
        self.kinds = ("move",) * 3
        if self.screw is not None:
            self.kinds += ("rotate",)

    def limits(self, params: list[RobotParams]) -> list[float]:
        limits = [p.max_wheel_speed for p in params[:3]]
        if self.screw is not None:
            limits.append(_omega_max(params[3]))
        return limits

    def solve(self, tool: tuple[float, float, float]) -> dict:
        return kin.bridge_ik((tool[0], tool[1]), self.geom)

    def zero(self, datum, start=None, start_sol=None) -> float:
        return datum[2]

    def setpoints(self, tool, sol, zero) -> tuple:
        row = (*sol["bridge1"], 0.0, *sol["bridge2"], 0.0, tool[0], tool[1],
               0.0)
        if self.screw is None:
            return row
        return (*row, *self.table_position,
                kin.leadscrew_delta(tool[2] - zero, self.screw))

    def deltas(self, seg: MotionSegment, start_sol, end_sol) -> list[float]:
        dx = seg.end[0] - seg.start[0]
        dy = seg.end[1] - seg.start[1]
        deltas = [dy, dy, dx]
        if self.screw is not None:
            deltas.append(kin.leadscrew_delta(seg.end[2] - seg.start[2],
                                              self.screw))
        return deltas

    def reach_reason(self, x: float, y: float, z: float) -> str:
        geom, screw = self.geom, self.screw
        if not geom.carriage_min <= x - geom.rail1_x <= geom.carriage_max:
            return "CarriageTravel"
        if screw is None:
            if abs(z - geom.bridge_height) > 1e-9:
                return "NonPlanar"
        elif not screw.z_min <= z <= screw.z_max:
            return "ZTravel"
        return ""

    def synced(self, ids) -> tuple:
        return (ids[0], ids[1])

    def tool_tips(self, poses, rotations, cols, zero) -> np.ndarray:
        geom, screw = self.geom, self.screw
        tips = np.empty((len(poses), 3))
        tips[:, :2] = kin.bridge_fk_rows(
            poses[:, cols[0], :2], poses[:, cols[1], :2],
            poses[:, cols[2], 0] - geom.rail1_x, geom, sync_tol=self.sync_tol)
        if screw is None:
            tips[:, 2] = geom.bridge_height
        else:
            tips[:, 2] = zero + (screw.direction * rotations[:, cols[3]]
                                 * screw.pitch / (2 * math.pi))
        return tips


class _Wire:
    """wire2d_wall, and wire3d_printer with its table robot: one spool robot
    per wire anchor sets the wire lengths.  An IK solution is the tuple of
    wire lengths; the wall plotter works in the plane z = 0."""

    def __init__(self, config: MachineConfig):
        self.planar = config.morphology == "wire2d_wall"
        self.geom = _required(config, "wire2d_geometry" if self.planar
                              else "wire3d_geometry")
        self.spools = [(a[0], a[1]) for a in self.geom.anchors]
        self.kinds = ("rotate",) * len(self.spools)
        # the 3-wire table robot holds one setpoint for the whole plan
        self.table = () if self.planar else (*config.table_position, 0.0)
        if not self.planar:
            self.kinds += ("move",)

    def limits(self, params: list[RobotParams]) -> list[float]:
        return [self.geom.spool_radius * _omega_max(p)
                for p in params[:len(self.spools)]]

    def solve(self, tool: tuple[float, float, float]) -> tuple:
        if self.planar:
            return kin.wire2d_ik((tool[0], tool[1]), self.geom)
        return kin.wire3d_ik(tool, self.geom)

    def zero(self, datum, start=None, start_sol=None) -> tuple:
        return start_sol if datum == start else self.solve(datum)

    def setpoints(self, tool, sol, zero) -> tuple:
        radius = self.geom.spool_radius
        row = ()
        for (x, y), length, length0 in zip(self.spools, sol, zero):
            row += (x, y, kin.spool_delta(length - length0, radius))
        return row + self.table

    def deltas(self, seg: MotionSegment, start_sol, end_sol) -> list[float]:
        return [e - s for s, e in zip(start_sol, end_sol)]

    def reach_reason(self, x: float, y: float, z: float) -> str:
        if self.planar:
            reason = kin._wire2d_unreachable(x, y, self.geom)
            return reason or ("NonPlanar" if abs(z) > 1e-9 else "")
        if kin._depth(self.geom, (x, y, z)) <= self.geom.workspace_margin:
            return "AboveAnchors"
        return ""

    def synced(self, ids) -> tuple:
        return ()

    def tool_tips(self, poses, rotations, cols, zero) -> np.ndarray:
        lengths = (np.asarray(zero) + self.geom.spool_radius
                   * rotations[:, cols[:len(self.spools)]])
        if self.planar:
            tips = np.zeros((len(poses), 3))
            tips[:, :2] = kin.wire2d_fk_rows(lengths, self.geom)
            return tips
        return kin.wire3d_fk_rows(lengths, self.geom)


def _direction_change(a: tuple, b: tuple) -> float:
    """Angle in radians between two segment directions (dx, dy, dz, norm);
    0 if either is degenerate."""
    ax, ay, az, na = a
    bx, by, bz, nb = b
    if na == 0.0 or nb == 0.0:
        return 0.0
    cosang = (ax * bx + ay * by + az * bz) / (na * nb)
    return math.acos(max(-1.0, min(1.0, cosang)))


class _Planner:
    """A config's planning constants, built once: the active robot ids and
    the speed limit of each actuated axis."""

    def __init__(self, config: MachineConfig):
        self.config = config
        self.machine = config.machine
        self.ids = tuple(active_robots(config))
        self.limits = self.machine.limits([e.params for e in config.roster])

    def duration(self, seg: MotionSegment, length: float, start_sol,
                 end_sol) -> float:
        """Feed- and actuator-limited duration of a segment of non-zero
        length, from the IK solutions of its endpoints."""
        duration = max(length / seg.feed, length / self.config.max_tool_speed)
        deltas = self.machine.deltas(seg, start_sol, end_sol)
        return max([duration] + [abs(d) / limit
                                 for d, limit in zip(deltas, self.limits)])

    def plan(self, segments: list[MotionSegment],
             datum: tuple[float, float, float], *, t0: float = 0.0,
             extrusion0: float = 0.0, include_start: bool = True,
             barriers: Optional[list[int]] = None) -> Plan:
        """Sample chained segments into ticks at the planning period.

        Rotation targets are relative to `datum`.  A segment's start is the
        previous segment's end, so each endpoint is checked against the
        workspace and solved once, by the machine's IK; interior ticks get
        their own check.  The index of the last tick of a segment is
        appended to `barriers` when the next segment turns by at least the
        barrier angle or changes kind.
        """
        config, machine, solve = self.config, self.machine, self.machine.solve
        setpoints = machine.setpoints
        dt = config.dt_plan
        threshold = math.radians(config.barrier_angle_deg) - 1e-9
        times, tools, extruding, totals, lines, rows = [], [], [], [], [], []
        _check(config, segments[0].start, "segment endpoint",
               segments[0].source_line)
        sol = prev = None
        for seg in segments:
            line = seg.source_line
            sx, sy, sz = seg.start
            ex, ey, ez = seg.end
            dx, dy, dz = ex - sx, ey - sy, ez - sz
            direction = (dx, dy, dz, math.sqrt(dx * dx + dy * dy + dz * dz))
            if barriers is not None and prev is not None and (
                    prev[0] != seg.kind
                    or _direction_change(prev[1], direction) >= threshold):
                barriers.append(len(times) - 1)
            prev = (seg.kind, direction)

            _check(config, seg.end, "segment endpoint", line)
            if sol is None:
                sol = solve(seg.start)
                zero = machine.zero(datum, seg.start, sol)
            de = seg.extrusion_delta
            length = seg.length
            end_sol = sol if length == 0.0 else solve(seg.end)
            duration = (0.0 if length == 0.0
                        else self.duration(seg, length, sol, end_sol))
            count = 1
            if t0 + duration == t0:
                # extrude-in-place, or a segment too short to move the plan
                # clock: a single dwell tick at its end
                t0 += dt
            else:
                n = max(1, math.ceil(duration / dt - 1e-9))
                first = 0 if include_start else 1
                for i in range(first, n):
                    t = i * dt
                    frac = t / duration
                    tool = (sx + dx * frac, sy + dy * frac, sz + dz * frac)
                    _check(config, tool, "setpoint", line)
                    times.append(t0 + t)
                    tools.append(tool)
                    totals.append(extrusion0 + de * frac)
                    rows.append(setpoints(tool, solve(tool), zero))
                count += n - first
                t0 += duration
            times.append(t0)
            tools.append(seg.end)
            totals.append(extrusion0 + de)
            rows.append(setpoints(seg.end, end_sol, zero))
            extruding += [seg.kind == "print"] * count
            lines += [line] * count
            sol = end_sol
            extrusion0 += de
            include_start = False
        return Plan(config.morphology, [] if barriers is None else barriers,
                    ids=self.ids, kinds=machine.kinds, t=times,
                    tool_target=tools, extruding=extruding,
                    extrusion_total=totals, source_line=lines, setpoints=rows)


def time_parameterize(seg: MotionSegment, config: MachineConfig) -> float:
    """Feed- and actuator-limited duration of one segment."""
    for point in (seg.start, seg.end):
        _check(config, point, "segment endpoint", seg.source_line)
    planner = _Planner(config)
    length = seg.length
    if length == 0.0:
        return 0.0
    solve = config.machine.solve
    return planner.duration(seg, length, solve(seg.start), solve(seg.end))


def plan_segment(seg: MotionSegment, config: MachineConfig, *,
                 t0: float = 0.0,
                 datum: Optional[tuple[float, float, float]] = None,
                 extrusion0: float = 0.0,
                 include_start: bool = True) -> list[PlanTick]:
    """Sample one segment into setpoint ticks at the planning period;
    rotation targets are relative to `datum`, by default the segment start.
    """
    return _Planner(config).plan(
        [seg], seg.start if datum is None else datum, t0=t0,
        extrusion0=extrusion0, include_start=include_start).ticks


def plan_program(segments: list[MotionSegment], config: MachineConfig) -> Plan:
    """Plan a chained segment list into one synchronized schedule."""
    planner = _Planner(config)
    for prev, nxt in zip(segments, segments[1:]):
        if prev.end != nxt.start:
            raise PlanError(
                f"segments not chained at line {nxt.source_line}",
                line_no=nxt.source_line)
    if not segments:
        return Plan(config.morphology)
    # ascending: every segment adds a tick
    return planner.plan(segments, segments[0].start, barriers=[])


# --- reconfiguration ---

def initial_robot_positions(config: MachineConfig) -> dict[str, tuple[float, float]]:
    """Nominal start position of every active robot for a config's home tool."""
    ids = active_robots(config)
    home, machine = config.home, config.machine
    sol = machine.solve(home)
    row = machine.setpoints(home, sol, machine.zero(home, home, sol))
    return {rid: row[3 * k:3 * k + 2] for k, rid in enumerate(ids)}


def default_parking(config: MachineConfig, count: int) -> list[tuple[float, float]]:
    """Parking spots along the workspace lower edge, spaced by body size."""
    if config.parking:
        return list(config.parking[:count])
    x0, y0 = config.workspace_min[0], config.workspace_min[1]
    spacing = 4.0 * max((e.params.body_radius for e in config.roster),
                        default=RobotParams.body_radius)
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
    # the set of roles names the morphology, so equal maps mean no change
    if roles_from == assign_roles(to_config):
        return Plan(to_config.morphology)

    targets = initial_robot_positions(to_config)
    parked = [rid for rid, role in roles_from.items()
              if role != "idle" and rid not in targets]
    parking = default_parking(to_config, len(parked))
    if len(parking) < len(parked):
        raise PlanError(
            f"{to_config.morphology} config has {len(parking)} parking "
            f"spot(s) for {len(parked)} parked robots; no spot for "
            f"{', '.join(parked[len(parking):])}")

    # every robot moves to its spot, then dwells there for the swap
    spots = [*targets.values(), *parking]
    row = tuple(v for x, y in spots for v in (x, y, 0.0))
    home = to_config.home
    return Plan(to_config.morphology, [0, 1], ids=(*targets, *parked),
                kinds=("move",) * len(spots),
                t=[0.0, to_config.swap_duration], tool_target=[home, home],
                extruding=[False, False], extrusion_total=[0.0, 0.0],
                source_line=[0, 0], setpoints=[row, row])


# --- command stream ---

def serialize_command_stream(plan: Plan,
                             roster_order: Optional[list[str]] = None) -> str:
    """Byte-stable newline-delimited command records, one per robot per tick
    (in roster order, by default the plan's), then a stop record per robot.

    Every tick's records come from one format, so the whole stream but the
    stop records is formatted by one % call.
    """
    column = {rid: k for k, rid in enumerate(plan.ids)}
    order = [column[rid] for rid in
             (plan.ids if roster_order is None else roster_order)
             if rid in column]
    if not plan.t or not order:
        return ""
    # a tick's values are picked from (t, line, *setpoint row)
    formats, picks = [], []
    for k in order:
        rid = plan.ids[k].replace("%", "%%")
        if plan.kinds[k] == "move":
            formats.append(f"t=%.6f id={rid} op=move x=%.6f y=%.6f line=%s\n")
            picks += (0, 2 + 3 * k, 3 + 3 * k, 1)
        else:
            formats.append(f"t=%.6f id={rid} op=rotate theta=%.6f line=%s\n")
            picks += (0, 4 + 3 * k, 1)
    values = chain.from_iterable(map(
        operator.itemgetter(*picks),
        map(operator.add, zip(plan.t, plan.source_line), plan.setpoints)))
    t_end, line = plan.t[-1], plan.source_line[-1]
    stops = [f"t={t_end:.6f} id={plan.ids[k]} op=stop line={line}\n"
             for k in dict.fromkeys(order)]
    return "".join(formats) * len(plan.t) % tuple(values) + "".join(stops)
