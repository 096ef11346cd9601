"""Role assignment, time parameterization, and per-robot setpoint planning.

A Plan is a time-ordered schedule of ticks, held as columns; each tick
carries one setpoint per active robot (a position for rail/carriage/table
robots, a target accumulated rotation for spool and lead-screw robots) plus
the tool target it realizes.  Barriers mark ticks where every robot must
arrive before the plan clock advances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import kinematics as kin
from . import machines, text
from .errors import InsufficientRobots, OutOfWorkspace, PlanError
from .gcode import Segments
from .robot import RobotParams

# the morphologies and their roles, as machines.SPECS declares them
MORPHOLOGIES = tuple(machines.SPECS)

ROLE_SEQUENCE = {m: spec.roles for m, spec in machines.SPECS.items()}

REQUIRED_ROBOTS = {m: len(seq) for m, seq in ROLE_SEQUENCE.items()}

# The most ticks a plan may have, about 28 h of machine time at a 0.1 s
# dt_plan: a near-zero speed limit would otherwise ask for a plan too long
# to build.
MAX_PLAN_TICKS = 1_000_000
# ticks per block of the planner's tick pass: end ticks, then interior ones
BLOCK_TICKS = 4096
# how far from the cosine of the barrier angle a turn's cosine must be for
# the comparison of the cosines to stand for that of the angles: far above
# the rounding of math.cos and math.acos, about 1e-16
_COS_MARGIN = 1e-12


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
    # the morphology's mechanics (a machines.Bridge or Wire), built once
    # here and left out of repr and ==
    machine: "machines.Bridge | machines.Wire" = field(
        init=False, repr=False, compare=False)

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
        if not all(lo <= hi for lo, hi in zip(self.workspace_min,
                                              self.workspace_max)):
            raise ValueError("workspace_min must be <= workspace_max "
                             "componentwise")
        ids = [entry.id for entry in self.roster]
        duplicates = sorted({rid for rid in ids if ids.count(rid) > 1})
        if duplicates:
            raise ValueError(f"duplicate robot ids in roster: "
                             f"{', '.join(duplicates)}")
        object.__setattr__(self, "machine", machines.build(self))


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


_COLUMNS = {"t": np.float64, "tool_target": np.float64, "extruding": np.bool_,
            "extrusion_total": np.float64, "source_line": np.int64,
            "setpoints": np.float64}


@dataclass(frozen=True, eq=False)
class Plan:
    """A schedule as numpy columns, one row per tick, converted on
    construction to: `t` and `extrusion_total` float64 (n), `tool_target`
    float64 (n x 3), `extruding` bool (n), `source_line` int64 (n) and
    `setpoints` float64 (n x 3R, for the R robots of `ids`).

    `setpoints[n]` is tick n's setpoint row: the (x, y, theta) of robot
    `ids[k]` at 3k:3k + 3.  `kinds[k]` is that robot's setpoint kind for the
    whole plan: a move robot's row holds its target and theta 0.0, a rotate
    robot's the spot it turns at and its target accumulated rotation.  `==`
    compares columns by dtype, shape and bits, so -0.0 != 0.0."""

    morphology: str
    barriers: list[int] = field(default_factory=list)
    ids: tuple[str, ...] = ()
    kinds: tuple[str, ...] = ()
    t: np.ndarray = ()
    tool_target: np.ndarray = ()
    extruding: np.ndarray = ()
    extrusion_total: np.ndarray = ()
    source_line: np.ndarray = ()
    setpoints: np.ndarray = ()

    def __post_init__(self):
        n = len(self.t)
        shapes = {"tool_target": (n, 3), "setpoints": (n, 3 * len(self.ids))}
        for name, dtype in _COLUMNS.items():
            column = np.asarray(getattr(self, name), dtype)
            object.__setattr__(self, name, column.reshape(shapes.get(name, n)))

    def _key(self) -> list:
        return [(v.dtype, v.shape, v.tobytes()) if isinstance(v, np.ndarray)
                else v for v in vars(self).values()]

    def __eq__(self, other):
        return (self._key() == other._key() if isinstance(other, Plan)
                else NotImplemented)

    @property
    def ticks(self) -> list[PlanTick]:
        """The rows as PlanTicks of Python floats, ints and bools, built on
        each access."""
        robots = list(enumerate(zip(self.ids, self.kinds)))
        return [PlanTick(t, {rid: Setpoint(kind, *row[3 * k:3 * k + 3])
                             for k, (rid, kind) in robots},
                         tuple(target), extruding, total, line)
                for t, target, extruding, total, line, row
                in zip(*(getattr(self, name).tolist() for name in _COLUMNS))]

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
                   tuple(kind for _, kind in robots), *columns)


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


def _outside(point, reason: str, what: str, line_no: int) -> OutOfWorkspace:
    return OutOfWorkspace(f"{what} {point} outside workspace: {reason}",
                          reason=reason, line_no=line_no)


def _segment_pass(config: MachineConfig, segs: Segments):
    """The segment pass over a Segments: check that the segments are
    chained, and every endpoint, the first segment's start and then each
    end, then solve and time the segments before the first endpoint
    outside the workspace.

    Returns (segs, sols, durations, error): the Segments view of those
    segments, the IK solutions of the first one's start and of each end
    (one row more), their durations, and the OutOfWorkspace of the first
    endpoint outside, or None; raises that error if no segment comes
    before it, and PlanError at the first segment that does not start
    where the one before ends (by value, or by bits for a nan).  IK is
    solved only for the endpoints inside; a point inside the workspace is
    inside the reach of its IK, so the IK raises nothing here.
    """
    starts, ends, lines = segs.starts, segs.ends, segs.line
    a, b = starts[1:], ends[:-1]
    broken = ((a != b) & (a.view(np.int64) != b.view(np.int64))).any(1)
    if broken.any():
        line = lines[1:][broken.argmax()].item()
        raise PlanError(f"segments not chained at line {line}",
                        line_no=line)
    lengths = segs.lengths()
    points = np.concatenate((starts[:1], ends))
    row, reason = kin.workspace_contains_rows(config, points)
    count = max(row - 1, 0)
    error = None
    if reason:
        error = _outside(tuple(points[row].tolist()), reason,
                         "segment endpoint", lines[count].item())
        if not count:
            raise error
    machine = config.machine
    points = points[:count + 1]
    sols = machine.solve(points)
    lengths, feeds = lengths[:count], segs.feed[:count]
    # feed- and actuator-limited, and inf if too long for a float; what
    # does not travel takes no time, even at a feed or speed limit of 0.0
    with np.errstate(over="ignore", divide="ignore"):
        durations = np.maximum(
            np.divide(lengths, feeds, out=np.zeros_like(lengths),
                      where=lengths != 0.0),
            lengths / config.max_tool_speed)
        for delta, limit in zip(
                machine.deltas(starts[:count], points[1:], sols[:-1],
                               sols[1:]),
                machine.limits([e.params for e in config.roster])):
            durations = np.maximum(durations, np.divide(
                np.abs(delta), limit, out=np.zeros_like(durations),
                where=delta != 0.0))
    return segs[:count], sols, durations, error


def _clock(durations: np.ndarray, lines: np.ndarray, dt_plan: float):
    """The plan clock of segments of these durations and source lines:
    when each segment starts, and the last one ends (N + 1), from 0.0, and
    how many interior ticks each has, from tick 0 of the first segment and
    tick 1 of the others.  A segment too short to move the clock dwells one
    tick at its end; only a plan that holds one walks its segments in a
    loop.  Raises PlanError at the segment where the plan passes
    MAX_PLAN_TICKS ticks, before any tick is built."""
    with np.errstate(over="ignore"):
        ticks = np.maximum(1.0, np.ceil(durations / dt_plan - 1e-9))
        # np.cumsum adds in order, as the loop below does, so the times
        # are the loop's up to the first segment too short to move them
        times = np.concatenate(([0.0], np.cumsum(durations)))
        still = (times[:-1] + durations == times[:-1]).any()
    interior = ticks - 1.0
    interior[0] += 1.0
    if still:
        t0, first = 0.0, 0
        times, interior = [t0], []
        for duration, n in zip(durations.tolist(), ticks.tolist()):
            if t0 + duration == t0:
                t0 += dt_plan
                n = first  # no interior ticks
            else:
                t0 += duration
            times.append(t0)
            interior.append(n - first)
            first = 1
        times, interior = np.array(times), np.array(interior)
    passed = np.cumsum(interior + 1) > MAX_PLAN_TICKS
    if passed.any():
        line = lines[passed.argmax()].item()
        raise PlanError(f"plan longer than {MAX_PLAN_TICKS} ticks of "
                        f"{dt_plan} s", line_no=line)
    return times, interior.astype(np.int64)


def _turns(segs: Segments, barrier_angle_deg: float) -> np.ndarray:
    """Whether each segment after the first turns by at least the barrier
    angle from the one before, or changes kind."""
    d = segs.ends - segs.starts
    dx, dy, dz = d.T
    norm = np.sqrt(dx * dx + dy * dy + dz * dz)
    a, b = d[:-1], d[1:]
    product = norm[:-1] * norm[1:]
    cosang = np.divide(a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1]
                       + a[:, 2] * b[:, 2], product,
                       out=np.ones_like(product),
                       where=(norm[:-1] != 0.0) & (norm[1:] != 0.0))
    cosang = np.maximum(-1.0, np.minimum(1.0, cosang))
    # a turn is math.acos(cosang) >= threshold (np.arccos may round
    # differently; a segment of zero length turns by acos(1.0) == 0.0).
    # acos falls at least as fast as its argument grows, so a cosine more
    # than _COS_MARGIN below or above the threshold's decides its row (a
    # nan, above neither, turns by nan and does not turn), and math.acos
    # the rows in between
    threshold = math.radians(barrier_angle_deg) - 1e-9
    edge = math.cos(threshold)
    turns = cosang < edge - _COS_MARGIN
    rows = (~turns & (cosang <= edge + _COS_MARGIN)).nonzero()[0]
    turns[rows] = [math.acos(c) >= threshold for c in cosang[rows].tolist()]
    return (segs.kind[1:] != segs.kind[:-1]) | turns


def plan_program(segments, config: MachineConfig) -> Plan:
    """Plan chained segments (a Segments, or MotionSegment records) into one
    synchronized schedule: sample them into ticks at the planning period,
    from t = 0.0 and the first segment's start.

    Rotation targets are relative to that start.  The segment pass checks,
    solves and times every segment, and its columns give the segments' end
    ticks, written BLOCK_TICKS at a time.  The tick pass then interpolates,
    checks and solves the interior ticks, BLOCK_TICKS at a time: tick i of
    a segment lies i * dt_plan of the way along it, as a fraction of its
    duration, where the plan's first tick, at its start, is tick 0 of the
    first segment, and the end tick of a segment is tick 0 of the next.
    The error raised is the one a tick-by-tick planner meets first: it
    checks the roster, then the first start, then each segment's end and
    its interior ticks.  The plan's barriers are the indices of the last
    tick of each segment whose next segment turns by at least the barrier
    angle or changes kind, ascending because every segment adds a tick.
    """
    ids = tuple(active_robots(config))
    if not segments:
        return Plan(config.morphology)
    segs, sols, durations, error = _segment_pass(config,
                                                 Segments.of(segments))
    machine, dt = config.machine, config.dt_plan
    zero = machine.zero(tuple(segs.starts[0].tolist()))
    clock, interior = _clock(durations, segs.line, dt)
    # inner_ends[s] counts the interior ticks up to segment s's end;
    # marks[s] is the tick segment s counts its ticks from, and
    # marks[s + 1] its end tick
    inner_ends = np.cumsum(interior)
    marks = np.concatenate(([0], inner_ends + np.arange(len(interior))))
    ends_at = marks[1:]
    barriers = ends_at[:-1][_turns(segs, config.barrier_angle_deg)].tolist()
    n = ends_at[-1] + 1
    times, points, totals = np.empty(n), np.empty((n, 3)), np.empty(n)
    rows = np.empty((n, 3 * len(ids)))
    # the extrusion total before each segment, and after the last
    extrusion = np.cumsum(np.concatenate(([0.0], segs.extrusion)))
    times[ends_at] = clock[1:]
    points[ends_at] = segs.ends
    totals[ends_at] = extrusion[1:]
    for a in range(0, len(ends_at), BLOCK_TICKS):
        s = slice(a, a + BLOCK_TICKS)
        rows[ends_at[s]] = machine.setpoints(segs.ends[s], sols[1:][s], zero)
    # the plan's interior tick k, of segment s, is its tick k + s, after
    # the end ticks of the segments before
    for a in range(0, inner_ends[-1], BLOCK_TICKS):
        k = np.arange(a, min(a + BLOCK_TICKS, inner_ends[-1]))
        seg = np.searchsorted(inner_ends, k, "right")
        at = k + seg
        t = (at - marks[seg]) * dt
        frac = t / durations[seg]
        starts = segs.starts[seg]
        inner = starts + (segs.ends[seg] - starts) * frac[:, None]
        row, reason = kin.workspace_contains_rows(config, inner)
        if reason:
            raise _outside(tuple(inner[row].tolist()), reason, "setpoint",
                           segs.line[seg[row]].item())
        times[at] = clock[seg] + t
        points[at] = inner
        totals[at] = extrusion[seg] + segs.extrusion[seg] * frac
        rows[at] = machine.setpoints(inner, machine.solve(inner), zero)
    if error is not None:
        raise error
    counts = interior + 1
    return Plan(config.morphology, barriers, ids, machine.kinds, times,
                points, np.repeat(segs.kind == "print", counts), totals,
                np.repeat(segs.line, counts), rows)


# --- reconfiguration ---

def initial_robot_positions(config: MachineConfig) -> dict[str, tuple[float, float]]:
    """Nominal start position of every active robot for a config's home tool."""
    ids = active_robots(config)
    machine = config.machine
    home = np.array([config.home], dtype=float)
    row = machine.setpoints(home, machine.solve(home),
                            machine.zero(config.home))[0].tolist()
    return {rid: tuple(row[3 * k:3 * k + 2]) for k, rid in enumerate(ids)}


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
    row = [v for x, y in spots for v in (x, y, 0.0)]
    return Plan(to_config.morphology, [0, 1], (*targets, *parked),
                ("move",) * len(spots), [0.0, to_config.swap_duration],
                [to_config.home] * 2, [False] * 2, [0.0] * 2, [0, 0], [row] * 2)


# --- command stream ---

def serialize_command_stream(plan: Plan,
                             roster_order: Optional[list[str]] = None) -> str:
    """Byte-stable newline-delimited command records, one per robot per tick,
    then a stop record per robot.  The robots go in roster order: each
    robot of `roster_order` that the plan has, once, then the plan's other
    robots (those a reconfiguration parks, say) in plan order.

    Every tick's records come from one template, so the stream is the rows
    of one array, written by `text.rows`, and the stop records that of its
    last row: the ticks' t, the setpoint columns the records print, and the
    source line.
    """
    column = {rid: k for k, rid in enumerate(plan.ids)}
    order = list(dict.fromkeys([column[rid] for rid in roster_order or ()
                                if rid in column] + list(column.values())))
    if not len(plan.t) or not order:
        return ""
    # the printed setpoint columns, each once, after t; the line comes last
    printed: dict[int, int] = {}
    template = []
    for k in order:
        if plan.kinds[k] == "move":
            fields = (" op=move x=", 3 * k, " y=", 3 * k + 1)
        else:
            fields = (" op=rotate theta=", 3 * k + 2)
        template += ("t=", 0, f" id={plan.ids[k]}")
        for item in fields:
            if isinstance(item, int):
                item = printed.setdefault(item, len(printed) + 1)
            template.append(item)
        template += (" line=", -1, "\n")
    stops = [item for k in order
             for item in ("t=", 0, f" id={plan.ids[k]} op=stop line=", -1,
                          "\n")]
    # `printed` numbers its columns 1, 2, ... in the order it holds them
    values = np.column_stack((plan.t, plan.setpoints[:, list(printed)],
                              plan.source_line))
    return text.rows(template, values, whole=(len(printed) + 1,), tail=stops)
