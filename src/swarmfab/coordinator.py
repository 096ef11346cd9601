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
from itertools import chain, repeat
from typing import NamedTuple, Optional

import numpy as np

from . import kinematics as kin
from . import machines
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

# The most ticks a plan may have, about 28 h of machine time at a 0.1 s
# dt_plan: a near-zero speed limit would otherwise ask for a plan too long
# to build.
MAX_PLAN_TICKS = 1_000_000
# segments per block of the planner's tick pass
BLOCK_SEGMENTS = 1024


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
        ids = [entry.id for entry in self.roster]
        duplicates = sorted({rid for rid in ids if ids.count(rid) > 1})
        if duplicates:
            raise ValueError(f"duplicate robot ids in roster: "
                             f"{', '.join(duplicates)}")
        family = (machines.Bridge
                  if self.morphology in ("bridge_xy", "printer_bridge")
                  else machines.Wire)
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


def _outside(point, reason: str, what: str, line_no: int) -> OutOfWorkspace:
    return OutOfWorkspace(f"{what} {point} outside workspace: {reason}",
                          reason=reason, line_no=line_no)


def _points(tuples) -> np.ndarray:
    """The N x 3 array of N 3-tuples."""
    return np.fromiter(chain.from_iterable(tuples), float,
                       3 * len(tuples)).reshape(-1, 3)


def _column(values: np.ndarray):
    """A column of floats as a list, or as a repeat of one float object if
    every row holds the same float, down to the sign of a zero."""
    bits = values.view(np.int64)
    if len(bits) and (bits == bits[0]).all():
        return repeat(values[0].item(), len(values))
    return values.tolist()


class _Segments(NamedTuple):
    """Chained segments as columns, one row per segment: its start and end
    (N x 3 each), the IK solution of its end, its extrusion and its
    duration."""

    segments: list[MotionSegment]
    starts: np.ndarray
    ends: np.ndarray
    end_sols: np.ndarray
    extrusion: np.ndarray
    durations: np.ndarray


class _Planner:
    """A config's planning constants, built once: the active robot ids and
    the speed limit of each actuated axis."""

    def __init__(self, config: MachineConfig):
        self.config = config
        self.machine = config.machine
        self.ids = tuple(active_robots(config))
        self.limits = self.machine.limits([e.params for e in config.roster])

    def segments(self, segments: list[MotionSegment]):
        """The segment pass: check every endpoint, the first segment's start
        and then each end, then solve and time the segments before the
        first endpoint outside the workspace.

        Returns (columns, error): the _Segments of those segments, and the
        OutOfWorkspace of the first endpoint outside, or None; raises that
        error if no segment comes before it.  IK is solved only for the
        endpoints inside; a point inside the workspace is inside the reach
        of its IK, so the IK raises nothing here.
        """
        starts, ends, feeds, extrusion = (
            list(map(operator.attrgetter(name), segments))
            for name in ("start", "end", "feed", "extrusion_delta"))
        # each MotionSegment.length
        lengths = np.fromiter(map(math.dist, starts, ends), float,
                              len(segments))
        points = _points([starts[0], *ends])
        starts = _points(starts)
        # a segment starts where the one before ends, unless a zero there
        # has the other sign: keep one copy of the points then
        if (starts.view(np.int64) == points[:-1].view(np.int64)).all():
            starts = points[:-1]
        row, reason = kin.workspace_contains_rows(self.config, points)
        count = max(row - 1, 0)
        error = None
        if reason:
            seg = segments[count]
            error = _outside(seg.end if row else seg.start, reason,
                             "segment endpoint", seg.source_line)
            if not count:
                raise error
            segments, starts = segments[:count], starts[:count]
        points = points[:count + 1]
        ends = points[1:]
        sols = self.machine.solve(points)
        lengths, feeds = lengths[:count], np.array(feeds[:count], dtype=float)
        # feed- and actuator-limited, and inf if too long for a float; what
        # does not travel takes no time, even at a feed or speed limit of
        # 0.0
        with np.errstate(over="ignore", divide="ignore"):
            durations = np.maximum(
                np.divide(lengths, feeds, out=np.zeros_like(lengths),
                          where=lengths != 0.0),
                lengths / self.config.max_tool_speed)
            for delta, limit in zip(
                    self.machine.deltas(starts, ends, sols[:-1], sols[1:]),
                    self.limits):
                durations = np.maximum(durations, np.divide(
                    np.abs(delta), limit, out=np.zeros_like(durations),
                    where=delta != 0.0))
        return _Segments(segments, starts, ends, sols[1:],
                         np.array(extrusion[:count], dtype=float),
                         durations), error

    def clock(self, cols: _Segments, t0: float, first: int):
        """The plan clock: when each segment starts, and the last one ends
        (N + 1), and how many interior ticks each has, from tick `first` of
        the first segment (0 or 1) and tick 1 of the others.  A segment too
        short to move the clock dwells one tick at its end.  Raises
        PlanError at the segment where the plan passes MAX_PLAN_TICKS
        ticks, before any tick is built."""
        dt = self.config.dt_plan
        with np.errstate(over="ignore"):
            ticks = np.maximum(1.0, np.ceil(cols.durations / dt - 1e-9))
        times, interior = [t0], []
        for duration, n in zip(cols.durations.tolist(), ticks.tolist()):
            if t0 + duration == t0:
                t0 += dt
                n = first  # no interior ticks
            else:
                t0 += duration
            times.append(t0)
            interior.append(n - first)
            first = 1
        interior = np.array(interior)
        passed = np.cumsum(interior + 1) > MAX_PLAN_TICKS
        if passed.any():
            line = cols.segments[passed.argmax()].source_line
            raise PlanError(f"plan longer than {MAX_PLAN_TICKS} ticks of "
                            f"{dt} s", line_no=line)
        return np.array(times), interior.astype(np.int64)

    def turns(self, cols: _Segments) -> np.ndarray:
        """Whether each segment after the first turns by at least the
        barrier angle from the one before, or changes kind."""
        d = cols.ends - cols.starts
        dx, dy, dz = d.T
        norm = np.sqrt(dx * dx + dy * dy + dz * dz)
        a, b = d[:-1], d[1:]
        product = norm[:-1] * norm[1:]
        cosang = np.divide(a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1]
                           + a[:, 2] * b[:, 2], product,
                           out=np.ones_like(product),
                           where=(norm[:-1] != 0.0) & (norm[1:] != 0.0))
        cosang = np.maximum(-1.0, np.minimum(1.0, cosang))
        # math.acos: np.arccos may round differently; a segment of zero
        # length turns by acos(1.0) == 0.0
        angle = np.fromiter(map(math.acos, cosang.tolist()), float,
                            len(cosang))
        threshold = math.radians(self.config.barrier_angle_deg) - 1e-9
        kinds = [s.kind for s in cols.segments]
        changed = np.array([k != nxt for k, nxt in zip(kinds, kinds[1:])],
                           dtype=bool)
        return changed | (angle >= threshold)

    def plan(self, segments: list[MotionSegment],
             datum: tuple[float, float, float], *, t0: float = 0.0,
             extrusion0: float = 0.0, include_start: bool = True,
             barriers: Optional[list[int]] = None) -> Plan:
        """Sample chained segments into ticks at the planning period.

        Rotation targets are relative to `datum`.  The segment pass checks,
        solves and times every segment; the tick pass interpolates, checks
        and solves the interior ticks a block of segments at a time.  The
        error raised is the one a tick-by-tick planner meets first: it
        checks the first start, then each segment's end and its interior
        ticks.  The index of the last tick of a segment is appended to
        `barriers` when the next segment turns by at least the barrier
        angle or changes kind.
        """
        cols, error = self.segments(segments)
        zero = self.machine.zero(datum)
        first = 0 if include_start else 1
        clock, interior = self.clock(cols, t0, first)
        # the index of each segment's last tick
        ends_at = np.cumsum(interior + 1) - 1
        if barriers is not None:
            barriers += ends_at[:-1][self.turns(cols)].tolist()
        # the tick columns, filled a block at a time
        ticks = [[None] * (ends_at[-1] + 1) for _ in range(4)]
        for a in range(0, len(interior), BLOCK_SEGMENTS):
            block = slice(a, a + BLOCK_SEGMENTS)
            extrusion0 = self._ticks(
                cols, block, interior[block], clock[a:a + BLOCK_SEGMENTS + 1],
                extrusion0, zero, first if a == 0 else 1, ticks,
                ends_at[a - 1] + 1 if a else 0)
        if error is not None:
            raise error
        times, tools, totals, rows = ticks
        segments = cols.segments
        # the per-segment columns go before the last two columns are built
        del cols, clock, ends_at
        counts = (interior + 1).tolist()
        kinds = (s.kind == "print" for s in segments)
        lines = (s.source_line for s in segments)
        extruding = list(chain.from_iterable(map(repeat, kinds, counts)))
        source_line = list(chain.from_iterable(map(repeat, lines, counts)))
        return Plan(self.config.morphology,
                    [] if barriers is None else barriers, ids=self.ids,
                    kinds=self.machine.kinds, t=times, tool_target=tools,
                    extruding=extruding, extrusion_total=totals,
                    source_line=source_line, setpoints=rows)

    def _ticks(self, cols: _Segments, block: slice, interior, clock,
               extrusion0: float, zero, first: int, ticks, at: int) -> float:
        """The tick pass over one block of segments: write the t, tool
        target, extrusion total and setpoint row of each of their ticks, the
        interior ones and then the end, to the `ticks` columns from row
        `at` on.  Returns the extrusion total after the block.

        `interior` and `clock` are the block's rows of the plan clock (the
        clock with one more, for the end of its last segment), `extrusion0`
        the extrusion total before it and `first` the first interior tick of
        its first segment.
        """
        n = len(interior)
        seg = np.repeat(np.arange(n), interior)
        # where each interior tick and each end goes in the block's ticks
        at_inner = np.arange(len(seg)) + seg
        at_end = np.cumsum(interior) + np.arange(n)
        # tick i of a segment: i * dt of the way, as a fraction of its
        # duration, along it
        i = at_inner - (at_end - interior)[seg] + 1
        i[:interior[0]] += first - 1
        t = i * self.config.dt_plan
        frac = t / cols.durations[block][seg]
        starts = cols.starts[block][seg]
        inner = starts + (cols.ends[block][seg] - starts) * frac[:, None]
        row, reason = kin.workspace_contains_rows(self.config, inner)
        if reason:
            raise _outside(tuple(inner[row].tolist()), reason, "setpoint",
                           cols.segments[block][seg[row]].source_line)

        points = np.empty((len(at_inner) + n, 3))
        points[at_inner] = inner
        points[at_end] = cols.ends[block]
        sols = np.empty((len(points), cols.end_sols.shape[1]))
        sols[at_inner] = self.machine.solve(inner)
        sols[at_end] = cols.end_sols[block]
        times = np.empty(len(points))
        times[at_inner] = clock[seg] + t
        times[at_end] = clock[1:]
        # the extrusion total before each segment, and after the last
        extrusion = np.cumsum(np.concatenate(([extrusion0],
                                              cols.extrusion[block])))
        totals = np.empty(len(points))
        totals[at_inner] = extrusion[seg] + cols.extrusion[block][seg] * frac
        totals[at_end] = extrusion[1:]
        # an end tick's tool target is its segment's end tuple
        tools = list(zip(*map(_column, points.T)))
        for k, s in zip(at_end.tolist(), cols.segments[block]):
            tools[k] = s.end

        out = slice(at, at + len(points))
        out_times, out_tools, out_totals, out_rows = ticks
        out_times[out] = times.tolist()
        out_tools[out] = tools
        out_totals[out] = totals.tolist()
        out_rows[out] = self.machine.setpoints(points, sols, zero)
        return extrusion[-1].item()


def time_parameterize(seg: MotionSegment, config: MachineConfig) -> float:
    """Feed- and actuator-limited duration of one segment."""
    columns, _ = _Planner(config).segments([seg])
    return columns.durations.item()


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
    machine = config.machine
    home = np.array([config.home], dtype=float)
    row, = machine.setpoints(home, machine.solve(home),
                             machine.zero(config.home))
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
