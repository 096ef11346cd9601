"""Execute a Plan against the virtual robot dynamics and score fidelity."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import kinematics as kin
from . import text
from .coordinator import MachineConfig, Plan, active_robots
from .errors import KinematicsError, KinematicsFault, SimError, StallTimeout
from .gcode import Segments
# The simulator loop inlines these; they stay bound here, where the benchmark
# tracer (perfbench/jobs.py) looks them up.
from .robot import (  # noqa: F401
    goto_controller,
    rotate_controller,
    step_dynamics,
)

# the drop in a robot's setpoint distance (mm), or in a move robot's heading
# error (rad), that counts as progress
PROGRESS_EPS = 1e-6
# The most samples a run may take: 0.5 to 0.9 GB at the bytes per sample a
# run holds at its peak, ~270 (wire2d_wall), ~385 (bridge_xy), ~428
# (wire3d_printer) or ~450 (printer_bridge).  A slow feed or a small dt_sim
# would otherwise ask for a run too long to hold.  The CLI's CSV adds its
# values array, 8 B a column (136 B a sample with four robots), and one
# chunk of text.CHUNK_BYTES; the SVG, a string, adds ~150 B a sample.
MAX_SAMPLES = 2_000_000
# The most steps of plain plan ticks (neither barrier nor stepwise) that
# _drive queues before it steps the robots through them in one run.  It
# bounds the run's one noise draw, ~320 B a step with four robots while it
# is turned into lists: ~330 KB however long the run.  A tick longer than
# this is a run of its own.
RUN_STEPS = 1024


@dataclass(frozen=True)
class TraceSample:
    t: float
    poses: dict[str, tuple[float, float, float]]
    rotations: dict[str, float]
    tool_tip: tuple[float, float, float]  # from morphology FK of the poses
    tool_target: tuple[float, float, float]  # commanded target of the tick
    extruding: bool
    extrusion_total: float


def _empty(*shape, dtype=float):
    return field(default_factory=partial(np.zeros, shape, dtype=dtype))


@dataclass(eq=False)
class Trace:
    """A simulated run as columns, one row per sample.

    `poses[n, k]` is the (x, y, heading) and `rotations[n, k]` the
    accumulated rotation of robot `robot_ids[k]` (ids sorted) at sample n;
    `tool_tip` is the FK of those poses and `tool_target` the commanded
    target of the sample's plan tick.
    """

    config: MachineConfig | None = None
    barrier_wait_total: float = 0.0
    extruded_length: float = 0.0
    robot_ids: tuple[str, ...] = ()
    t: np.ndarray = _empty(0)
    poses: np.ndarray = _empty(0, 0, 3)
    rotations: np.ndarray = _empty(0, 0)
    tool_tip: np.ndarray = _empty(0, 3)
    tool_target: np.ndarray = _empty(0, 3)
    extruding: np.ndarray = _empty(0, dtype=bool)
    extrusion_total: np.ndarray = _empty(0)

    @property
    def samples(self) -> list[TraceSample]:
        """The rows as TraceSamples of Python floats, built on each access."""
        ids = self.robot_ids
        return [TraceSample(t, dict(zip(ids, map(tuple, poses))),
                            dict(zip(ids, rotations)), tuple(tip),
                            tuple(target), extruding, extrusion)
                for t, poses, rotations, tip, target, extruding, extrusion
                in zip(self.t.tolist(), self.poses.tolist(),
                       self.rotations.tolist(), self.tool_tip.tolist(),
                       self.tool_target.tolist(), self.extruding.tolist(),
                       self.extrusion_total.tolist())]


@dataclass(frozen=True)
class FidelityReport:
    max_deviation: float
    mean_deviation: float
    per_segment_deviation: list[float]
    total_print_length: float
    total_travel_length: float
    simulated_duration: float
    barrier_wait_total: float


def run(plan: Plan, config: MachineConfig, dt_sim: float | None = None,
        seed: int = 0) -> Trace:
    """Simulate plan execution; deterministic for a fixed (plan, config, seed).

    Position noise is a random walk of config.noise_std mm/sqrt(s): after
    its dynamics step, each stepped robot, in id order, moves by a normal
    draw of standard deviation noise_std * sqrt(dt_sim) in x, then in y, so
    the spread after a time T is noise_std * sqrt(T) at any step size.

    The tool tip does not feed back into control, so the machine's FK runs
    once, on all samples, after the robots have been stepped through the
    plan (see _drive), and is the one check of each sample.  The FK error
    of the first faulty sample is raised, with the g-code line of the
    sample's plan tick, even when the run stalls later; a skewed bridge
    raises KinematicsFault.  A run whose bridge skews has stepped the rest
    of its plan, up to its stall, by then.

    A run takes about one sample per dt_sim of plan time and barrier wait.
    SimError is raised, with the g-code line of the plan tick, before the
    run if the plan alone takes it past MAX_SAMPLES, and during it at the
    barrier wait that does.
    """
    if dt_sim is None:
        dt_sim = config.dt_sim
    # a nan step passes `>` and `<=` tests alike, and would never end a tick
    if not 0 < dt_sim <= config.dt_plan:
        raise ValueError("dt_sim must not exceed dt_plan"
                         if dt_sim > config.dt_plan else "dt must be positive")

    params = {entry.id: entry.params for entry in config.roster}
    ids = active_robots(config)
    if not len(plan.t):
        return Trace(config=config)

    missing = [rid for rid in plan.ids if rid not in params]
    if missing:
        raise SimError(f"plan robots not in the {config.morphology} config's "
                       f"roster: {', '.join(missing)}")
    # the machine's FK reads every active robot's column
    lacking = [rid for rid in ids if rid not in plan.ids]
    if lacking:
        raise SimError(f"{config.morphology} config's active robots not in "
                       f"the plan: {', '.join(lacking)}")
    noise = (partial(np.random.default_rng(seed).normal, 0.0,
                     config.noise_std * math.sqrt(dt_sim))
             if config.noise_std > 0 else None)
    horizon = MAX_SAMPLES * dt_sim
    if plan.t[-1] > horizon:
        tick = np.searchsorted(plan.t, horizon, side="right")
        raise SimError(f"run longer than {MAX_SAMPLES} samples of {dt_sim} s "
                       f"at plan tick {tick} (t={plan.t[tick]:.2f} s)",
                       line_no=plan.source_line[tick].item())
    machine = config.machine
    zero = machine.zero(plan.tool_target[0].tolist())
    order = sorted(plan.ids)
    cols, counts, wait, extruded, stop = _drive(
        plan, dt_sim, config.stall_timeout, params, noise)
    at = np.repeat(np.arange(len(counts)), counts)
    state = np.empty((len(at), len(order), 4))
    for k in range(len(order)):
        # each column is freed once it is copied
        state[:, k] = np.asarray(cols.pop(0), dtype=float).reshape(-1, 4)
    # a sample carries the extrusion total reached when its tick began
    trace = Trace(config, wait, extruded, tuple(order),
                  _sample_times(len(at), dt_sim), state[..., :3],
                  state[..., 3], tool_target=plan.tool_target[at],
                  extruding=plan.extruding[at],
                  extrusion_total=plan.extrusion_total[np.maximum(at - 1, 0)])
    try:
        trace.tool_tip = machine.tool_tips(
            trace.poses, trace.rotations, [order.index(rid) for rid in ids],
            zero)
    except KinematicsError as exc:
        exc.line_no = plan.source_line[at[exc.row]].item()
        if isinstance(exc, kin.BridgeSkewed):
            raise KinematicsFault(str(exc), line_no=exc.line_no) from exc
        raise
    if stop is not None:
        raise stop
    return trace


def _sample_times(n: int, dt_sim: float) -> np.ndarray:
    """The times of n samples dt_sim apart from 0.0, summed in order as
    _drive's clock is, each as round(t, 9).  Where t * 1e9 is nearer its
    rint than a half by more than its own rounding error, that rint over
    1e9 is round's float; the other samples call round."""
    t = np.cumsum(np.concatenate(([0.0], np.full(n - 1, dt_sim))))
    scaled = t * 1e9
    whole = np.rint(scaled)
    times = whole / 1e9
    near_half = ~(np.abs(scaled - whole) + np.spacing(scaled) < 0.5)
    times[near_half] = [round(v, 9) for v in t[near_half].tolist()]
    return times


def _drive(plan: Plan, dt_sim: float, stall_timeout: float, params: dict,
           noise):
    """Step the robots through the plan's ticks, sampling after every step.

    `params` maps each of the plan's ids to its RobotParams; each robot
    starts at the (x, y) of its first setpoint.  The plain ticks, neither a
    barrier nor stepwise, are queued into a run of up to RUN_STEPS steps
    (or one longer tick), and each robot in id order takes all of a run's
    steps, tick after tick, in one loop (walk), with the poses of
    swarmfab.robot's controllers and dynamics bit for bit.  A run ends
    before a barrier or stepwise tick and at the end of the plan.  The
    robots couple in three places, settled once a run's or a tick's robots
    have been stepped.  The barrier: with noise off, a robot inside its
    tolerance keeps its pose for the rest of the tick, so a barrier tick
    ends at the later of its deadline and the last arrival.  The stall
    clock restarts at every tick and cannot pass stall_timeout within
    `calm` steps; a longer tick, a noisy barrier tick, and (from its first
    step again) a barrier wait past `calm` go one step at a time, summing
    the arrival errors in plan order after each.  The noise: each robot
    draws x, then y, at every step, in id order, as one rng.normal of
    shape (steps, robots, 2) does, one such draw for each run.

    Returns each robot's column (x, y, heading and accumulated rotation of
    every sample), each plan tick's number of samples, the barrier wait,
    the extruded length, and the SimError that ended the run, if one did:
    a StallTimeout, or the barrier wait after which the clock and the plan
    time still ahead pass MAX_SAMPLES samples.
    """
    # the loop reads Python floats, ints and bools
    times_of, source_lines, setpoints, extruding, totals = (
        column.tolist() for column in (plan.t, plan.source_line, plan.setpoints,
                                       plan.extruding, plan.extrusion_total))
    barriers = set(plan.barriers)
    horizon = MAX_SAMPLES * dt_sim
    sin, cos, atan2, hypot, pi, minus_pi = (
        math.sin, math.cos, math.atan2, math.hypot, math.pi, -math.pi)
    # per robot, in id order: its index k, its place p in plan order (its
    # (x, y, theta) sits at 3p in a setpoint row), its kind and constants
    cols, robots = [], []
    for k, rid in enumerate(sorted(plan.ids)):
        p, robot = plan.ids.index(rid), params[rid]
        x, y = setpoints[0][3 * p:3 * p + 2]
        cols.append([x, y, 0.0, 0.0])
        rotate = plan.kinds[p] == "rotate"
        # x and y stay as they are: neither moves, nor is a -0.0
        spin = rotate and noise is None and all(
            v or math.copysign(1.0, v) > 0.0 for v in (x, y))
        robots.append((k, p, rotate, spin,
                       robot.angular_tol if rotate else robot.arrival_tol,
                       robot.wheel_track, robot.max_wheel_speed,
                       robot.k_heading, robot.k_distance))
    # each move robot's last heading error; each robot's error, plan order
    aims = [math.inf] * len(robots)
    errors = [0.0] * len(robots)
    # calm - 1 steps, summed in order, stay within stall_timeout
    calm = stall_timeout / dt_sim * (1.0 - 1e-6) + 1.0

    def drawn(steps):
        """Each robot's x and y noise at each of `steps` steps, from one
        rng.normal of shape (steps, robots, 2); None with noise off."""
        if noise is not None:
            return noise(size=(steps, len(robots), 2)).transpose(
                1, 2, 0).tolist()

    def walk(robot, run, draws):
        """Step `robot` through the ticks of `run`, each a (row, least,
        most): `least` times toward its setpoint in `row`, then on until it
        arrives, `most` times in all.  draws[k] is robot k's x noise and y
        noise at each step of the run.  Returns the steps taken in the last
        tick, the arrival error after them, and whether a step turned the
        robot toward its target.  A rotate robot's speed is +0.0, and a
        `spin` one skips the x and y update; a move robot's rotation stays
        0.0.  Inside its tolerance a robot gets speed 0, whose +-0.0 keeps a
        coordinate unless it is -0.0; with noise off, its pose then holds."""
        k, p, rotate, spin, tol, track, cap, k_heading, k_distance = robot
        col = cols[k]
        x, y, heading, rotation = col[-4:]
        aim, turning, end = aims[k], False, 0
        # a rotate robot's speed stays 0.0
        low, half, copies, v = -cap, 0.5 * track, draws is None, 0.0
        if not copies:
            xs, ys = draws[k]
        for row, least, most in run:
            tx, ty, theta = row[3 * p:3 * p + 3]
            # i counts the steps of the run
            first = end
            least, end = first + least, first + most
            for i in range(first, end):
                if rotate:
                    remaining = theta - rotation
                    settled = -tol < remaining < tol
                else:
                    dx, dy = tx - x, ty - y
                    distance = hypot(dx, dy)
                    settled = distance < tol
                if settled:
                    if i >= least:
                        end = i
                        break
                    v = omega = 0.0
                elif rotate:
                    vr = k_heading * remaining * 0.5 * track
                    if not vr < cap:
                        vr = cap
                    if not vr > low:
                        vr = low
                    omega = (vr + vr) / track
                else:
                    err = atan2(dy, dx) - heading
                    err = atan2(sin(err), cos(err))
                    if err == minus_pi:
                        err = pi
                    # a move robot turning toward its target makes progress
                    turn = abs(err)
                    if turn < aim - PROGRESS_EPS:
                        turning = True
                    aim = turn
                    omega = k_heading * err
                    v = k_distance * distance
                    if cap < v:
                        v = cap
                    c = cos(err)
                    v *= c if c > 0.0 else 0.0
                    vl, vr = v - omega * half, v + omega * half
                    peak = abs(vl)
                    if abs(vr) > peak:
                        peak = abs(vr)
                    if peak > cap:
                        scale = cap / peak
                        vl *= scale
                        vr *= scale
                    v = 0.5 * (vl + vr)
                    omega = (vr - vl) / track
                if not -1e-9 < omega < 1e-9:
                    turned = heading + omega * dt_sim
                    sin_turned, cos_turned = sin(turned), cos(turned)
                    if not spin:
                        radius = v / omega
                        x += radius * (sin_turned - sin(heading))
                        y -= radius * (cos_turned - cos(heading))
                    heading = atan2(sin_turned, cos_turned)
                    if heading == minus_pi:
                        heading = pi
                elif not spin:
                    x += v * cos(heading) * dt_sim
                    y += v * sin(heading) * dt_sim
                if not copies:
                    x += xs[i]
                    y += ys[i]
                if rotate:
                    rotation += omega * dt_sim
                col += (x, y, heading, rotation)
                if settled and copies:
                    # the pose holds, and the robot has arrived
                    col += (x, y, heading, rotation) * (least - i - 1)
                    end = least
                    break
        aims[k] = aim
        return end - first, (abs(theta - rotation) if rotate
                             else hypot(tx - x, ty - y)), turning

    def capped(tick_idx, clock):
        """The SimError of a wait at `clock` that passes MAX_SAMPLES."""
        if clock + times_of[-1] - times_of[tick_idx] > horizon:
            return SimError(f"barrier waits take the run past {MAX_SAMPLES} "
                            f"samples of {dt_sim} s at plan tick {tick_idx} "
                            f"(t={clock:.2f} s)",
                            line_no=source_lines[tick_idx])

    t = wait = extruded = t_prev = 0.0
    extrusion_prev = totals[0]
    counts = [1] + [0] * (len(times_of) - 1)
    done = 1  # the samples taken
    stop = None
    run, queued = [], 0  # the plain ticks not yet stepped, and their steps
    last_tick = len(times_of) - 1
    for tick_idx, row in enumerate(setpoints):
        need = max(times_of[tick_idx] - t_prev, 0.0) - 1e-12
        is_barrier = tick_idx in barriers
        # the steps to the deadline
        clock, steps = t + dt_sim, 1
        while not clock - t >= need:
            clock, steps = clock + dt_sim, steps + 1
        stepwise = steps > calm or is_barrier and noise is not None
        if not stepwise and not is_barrier:
            run.append((row, steps, steps))
            queued += steps
        # a run ends before a barrier or stepwise tick, at RUN_STEPS steps
        # and at the end of the plan
        if run and (stepwise or is_barrier or queued >= RUN_STEPS
                    or tick_idx == last_tick):
            draws = drawn(queued)
            for robot in robots:
                walk(robot, run, draws)
            run, queued = [], 0
        if is_barrier and not stepwise:
            before = aims[:], wait
            most = int(min(calm, steps + MAX_SAMPLES))
            walked = [walk(robot, [(row, steps, most)], None)
                      for robot in robots]
            last = max(n for n, _, _ in walked)
            arrived = all(error < robot[4]
                          for (_, error, _), robot in zip(walked, robots))
            for (n, _, _), robot in zip(walked, robots):
                if n < last:
                    walk(robot, [(row, last - n, last - n)], None)
            # the wait: each step from the deadline on before the last
            # robot arrives
            while steps < last or not arrived:
                wait += dt_sim
                stop = capped(tick_idx, clock)
                if stop is not None:
                    break
                if steps == last:
                    # a robot out after `calm` steps: the tick step by step
                    for col in cols:
                        del col[4 * done:]
                    (aims[:], wait), stepwise = before, True
                    break
                clock, steps = clock + dt_sim, steps + 1
        if stepwise:
            clock, steps, last_best, stall_clock = t, 0, math.inf, 0.0
            one = [(row, 1, 1)]
            while stop is None:
                draws = drawn(1)
                turning, all_arrived = False, True
                for robot in robots:
                    _, error, turned = walk(robot, one, draws)
                    errors[robot[1]] = error
                    turning = turning or turned
                    all_arrived = all_arrived and error < robot[4]
                clock, steps = clock + dt_sim, steps + 1
                # the stall clock: not arrived, no robot improving toward
                # its setpoint and no move robot turning toward it
                best = sum(errors)
                stalled = (not all_arrived and not turning
                           and last_best - best < PROGRESS_EPS)
                stall_clock = stall_clock + dt_sim if stalled else 0.0
                last_best = best
                if stall_clock > stall_timeout:
                    stop = StallTimeout(
                        f"no progress for {stall_timeout} s at plan tick "
                        f"{tick_idx} (t={clock:.2f} s)",
                        line_no=source_lines[tick_idx])
                elif is_barrier and not all_arrived and clock - t >= need:
                    wait += dt_sim
                    stop = capped(tick_idx, clock)
                elif clock - t >= need:
                    break
        counts[tick_idx] += steps
        done += steps
        if stop is not None:
            # the run ends at the step that stopped it
            for col in cols:
                del col[4 * done:]
            break
        t = clock
        if extruding[tick_idx]:
            gained = totals[tick_idx] - extrusion_prev
            if gained > 0:
                extruded += gained
        t_prev, extrusion_prev = times_of[tick_idx], totals[tick_idx]
    return cols, counts, wait, extruded, stop


# --- fidelity ---

# (point, segment) pairs evaluated per block in _segment_distances.  Bounds
# the kernel's temporaries (~100 B per pair) independently of the sample count.
CHUNK_PAIRS = 4096
# consecutive points that share one bounding box in _segment_distances
RUN = 16


def _segment_distances(points, starts, ends):
    """Nearest segment and its distance for every point (N x 3), of the
    segments from `starts` to `ends` (two M x 3 arrays, M >= 1).

    Returns `(nearest, distance)`: for each point, the index of the closest
    segment (the lowest index on exact ties, as `np.argmin` picks) and the
    distance to it.  A zero-length segment scores as the distance to its start.

    Bit for bit the result of evaluating every (point, segment) pair, but
    only a few are.  Each run of RUN consecutive points gets a bounding box;
    its points' distances to the segment whose box is nearest (the seed)
    bound their minima.  Only the seed and the segments whose boxes lie
    within that bound plus a slack are evaluated.  The formula's rounding is
    absolute, a few ulps of the coordinates, so the slack is 2**-40 of the
    largest one; a comparison that cannot decide (nan, or coordinates that
    may overflow) keeps the segment.  Runs are boxed CHUNK_PAIRS // M at a
    time and their candidates evaluated about CHUNK_PAIRS pairs (one run's
    at least) at a time, so memory does not grow with the number of points.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    a = np.asarray(starts, dtype=float).reshape(-1, 3)
    b = np.asarray(ends, dtype=float).reshape(-1, 3)
    ab = b - a
    denom = kin._dot(ab, ab)
    # 0 / 1 gives s = 0 on a zero-length segment, so its distance is |ap|
    denom = np.where(denom == 0.0, 1.0, denom)

    def dist(p, j):
        """Distance of each point of p (..., 3) to its segment of j."""
        ap = p - a[j]
        s = np.clip(kin._dot(ap, ab[j]) / denom[j], 0.0, 1.0)
        d = ap - s[..., None] * ab[j]
        return np.sqrt(kin._dot(d, d))

    lo, hi = np.minimum(a, b), np.maximum(a, b)
    seg_scale = np.maximum(np.abs(lo).max(), np.abs(hi).max())
    n, runs = len(points), -(-len(points) // RUN)
    nearest = np.empty(runs * RUN, dtype=np.intp)
    distance = np.empty(runs * RUN)
    per = max(1, CHUNK_PAIRS // len(a))
    for r0 in range(0, runs, per):
        # the block's runs, the last one padded with its last point
        rows = np.arange(r0 * RUN, min(r0 + per, runs) * RUN)
        block = points[np.minimum(rows, n - 1)].reshape(-1, RUN, 3)
        gap = np.maximum(lo - block.max(1)[:, None],
                         block.min(1)[:, None] - hi)
        gap = np.maximum(gap, 0.0)
        gap = np.sqrt(kin._dot(gap, gap))
        seed = np.argmin(gap, axis=1)
        scale = np.maximum(np.abs(block).max((1, 2)), seg_scale)
        slack = np.where(scale < 2.0**500, scale * 2.0**-40 + 2.0**-500,
                         np.inf)
        bound = dist(block, seed[:, None]).max(1) + slack
        keep = ~(gap > bound[:, None])
        # the seed always, so that every run has a pair for reduceat
        keep[np.arange(len(seed)), seed] = True
        run, j = np.nonzero(keep)
        # each run's first (run, candidate) pair, and the end of the last
        start = np.searchsorted(run, np.arange(len(block) + 1))
        # whole runs in groups of about CHUNK_PAIRS (point, candidate) pairs
        cuts = [0, len(block)]
        if len(j) * RUN > CHUNK_PAIRS:
            group = (start[1:] * RUN - 1) // CHUNK_PAIRS
            cuts[1:1] = (np.flatnonzero(np.diff(group)) + 1).tolist()
        for g0, g1 in zip(cuts, cuts[1:]):
            k0, k1 = int(start[g0]), int(start[g1])
            d = dist(block[run[k0:k1]], j[k0:k1, None])
            at = start[g0:g1] - k0
            least = np.minimum.reduceat(d, at, axis=0)
            # each point's first pair at its minimum, or first nan: argmin's
            first = (d == least[run[k0:k1] - g0]) | np.isnan(d)
            pair = np.arange(k1 - k0)[:, None]
            pos = np.minimum.reduceat(np.where(first, pair, k1 - k0), at,
                                      axis=0)
            out = slice((r0 + g0) * RUN, (r0 + g1) * RUN)
            nearest[out] = j[k0 + pos].ravel()
            distance[out] = np.take_along_axis(d, pos, 0).ravel()
    return nearest[:n], distance[:n]


def point_polyline_distance(p, segments) -> float:
    segments = Segments.of(segments)
    if not segments:
        raise ValueError("no segments")
    _, distance = _segment_distances([p], segments.starts, segments.ends)
    return float(distance[0])


def measure_fidelity(trace: Trace, segments) -> FidelityReport:
    """Deviation of extruding samples from the commanded print polyline of
    segments (a Segments, or MotionSegment records).

    Each extruding sample is charged to its nearest print segment (the first
    one on exact ties); `per_segment_deviation` is the worst charge per segment.
    An empty trace deviates by 0.0 and lasts 0.0 s.
    """
    segments = Segments.of(segments)
    printing = segments.kind == "print"
    print_segments = segments[printing]
    tips = trace.tool_tip[trace.extruding]
    per_segment = np.zeros(len(print_segments))
    lengths = segments.lengths()
    max_dev = mean_dev = 0.0
    if len(tips) and print_segments:
        nearest, deviations = _segment_distances(
            tips, print_segments.starts, print_segments.ends)
        np.maximum.at(per_segment, nearest, deviations)
        max_dev = float(deviations.max())
        mean_dev = float(np.mean(deviations))
    return FidelityReport(
        max_deviation=max_dev,
        mean_deviation=mean_dev,
        per_segment_deviation=per_segment.tolist(),
        # the lengths' sum in order, as MotionSegment.length added one by one
        total_print_length=sum(lengths[printing].tolist()),
        total_travel_length=sum(lengths[segments.kind == "travel"].tolist()),
        simulated_duration=float(trace.t[-1]) if len(trace.t) else 0.0,
        barrier_wait_total=trace.barrier_wait_total,
    )


# --- exports ---

Z_QUANTUM = 1e-6  # mm, layer grouping quantization


def _polylines(trace: Trace, want_extruding: bool):
    """Maximal runs of at least two consecutive samples sharing the
    extruding flag, as (layer z, first sample, end sample).

    A run's layer z is the commanded target z of its first sample, which is
    exact; the FK tool-tip z jitters below the grouping quantum.
    """
    flags = np.concatenate(([False], trace.extruding == want_extruding,
                            [False]))
    edges = np.flatnonzero(flags[1:] != flags[:-1]).tolist()
    return [(float(trace.tool_target[a, 2]), a, b)
            for a, b in zip(edges[::2], edges[1::2]) if b - a >= 2]


def export_svg(trace: Trace) -> str:
    """Render a Trace's print (solid) and travel (dashed) polylines grouped
    by layer z.

    The viewBox is the workspace of the trace's config, or the polylines'
    extent when the trace has no config.  Every number is written by one
    `text.rows` call.
    """
    polys = {"print": _polylines(trace, True),
             "travel": _polylines(trace, False)}
    if trace.config is not None:
        lo, hi = trace.config.workspace_min, trace.config.workspace_max
    else:
        # the polylines' extent, or a unit square when there are none
        xy = [p for runs in polys.values() for _, a, b in runs
              for p in trace.tool_tip[a:b, :2].tolist()]
        xy = xy or [(0.0, 0.0), (1.0, 1.0)]
        lo, hi = [min(c) for c in zip(*xy)], [max(c) for c in zip(*xy)]
    width = max(hi[0] - lo[0], 1e-6)
    height = max(hi[1] - lo[1], 1e-6)

    def layer_key(z):
        return round(z / Z_QUANTUM) * Z_QUANTUM

    layers: dict[float, dict[str, list]] = {}
    for kind, runs in polys.items():
        for z, a, b in runs:
            layers.setdefault(layer_key(z),
                              {"print": [], "travel": []})[kind].append((a, b))
    zs = sorted(layers)
    # two numbers a row: the viewBox corner and size, each layer's z (twice)
    # and each sample's tool-tip x and y
    head = np.array([lo[:2], (width, height), *((z, z) for z in zs)],
                    dtype=float)
    texts = text.rows(["", 0, ",", 1, "\n"],
                      np.concatenate((head, trace.tool_tip[:, :2]))
                      ).split("\n")
    corner, size = texts[0].replace(",", " "), texts[1].split(",")
    points = texts[2 + len(zs):]
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{corner} {size[0]} {size[1]}" '
        f'width="{size[0]}mm" height="{size[1]}mm">',
    ]
    for i, z in enumerate(zs):
        lines.append(f'<g id="layer-z{texts[2 + i].partition(",")[0]}">')
        for a, b in layers[z]["travel"]:
            lines.append(
                f'<polyline points="{" ".join(points[a:b])}" fill="none" '
                f'stroke="#999999" stroke-width="0.2" '
                f'stroke-dasharray="2,2"/>')
        for a, b in layers[z]["print"]:
            lines.append(
                f'<polyline points="{" ".join(points[a:b])}" fill="none" '
                f'stroke="#000000" stroke-width="0.4"/>')
        lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def export_csv(trace: Trace) -> str:
    """The text of `csv_chunks`, as one string."""
    return text.decode(csv_chunks(trace))


def csv_chunks(trace: Trace):
    """Flat per-robot per-sample table with fixed 6-decimal formatting, as
    UTF-8 chunks written by one `text.chunks` call over a row per sample."""
    header = "t,robot_id,x,y,heading,tool_x,tool_y,tool_z,extruding\n"
    ids = trace.robot_ids
    if not ids:
        return (header.encode(),)
    n, tool = len(trace.t), 1 + 3 * len(ids)
    # a sample's t, each robot's pose, the tool tip and the extruding flag,
    # copied in place: the poses are a view of wider rows
    values = np.empty((n, tool + 4))
    values[:, 0], values[:, -1] = trace.t, trace.extruding
    values[:, 1:tool].reshape(n, len(ids), 3)[:] = trace.poses
    values[:, tool:-1] = trace.tool_tip
    template = []
    for k, rid in enumerate(ids):
        template += (0, f",{rid},", 1 + 3 * k, ",", 2 + 3 * k, ",",
                     3 + 3 * k, ",", tool, ",", tool + 1, ",", tool + 2, ",",
                     tool + 3, "\n")
    return text.chunks(template, values, whole=(tool + 3,), head=header)


@dataclass(frozen=True)
class OverlapEvent:
    t: float
    robot_a: str
    robot_b: str
    distance: float


# relative margin of the numpy pre-filter in overlap_diagnostic and
# overlap_contacts: squared distances round differently than math.hypot, so
# the samples within it of a contact distance are rechecked
OVERLAP_PREFILTER_SLACK = 1e-9


def _pair_offsets(trace: Trace, config: MachineConfig) -> tuple:
    """A trace's robot pairs in sorted order, as the indices a and b of
    their robots in trace.robot_ids; each pair's contact distance, the sum
    of its body radii; and each pair's x and y offsets, a's position less
    b's, at each sample (samples x pairs)."""
    radii = {e.id: e.params.body_radius for e in config.roster}
    ids = trace.robot_ids
    pairs = [(i, j) for i in range(len(ids)) for j in range(i + 1, len(ids))]
    a, b = np.array(pairs, np.intp).reshape(-1, 2).T
    contact = np.array([radii[ids[i]] + radii[ids[j]] for i, j in pairs],
                       float)
    xy = trace.poses[..., :2]
    return a, b, contact, xy[:, a, 0] - xy[:, b, 0], xy[:, a, 1] - xy[:, b, 1]


def overlap_diagnostic(trace: Trace, config: MachineConfig) -> list[OverlapEvent]:
    """Report samples where two robot body circles intersect (non-fatal).

    Events come in sample order, then in sorted robot-pair order.
    """
    a, b, contact, dx, dy = _pair_offsets(trace, config)
    near = dx * dx + dy * dy < (contact * (1.0 + OVERLAP_PREFILTER_SLACK)) ** 2
    ids, events = trace.robot_ids, []
    for n, k in zip(*np.nonzero(near)):
        d = math.hypot(dx[n, k], dy[n, k])
        if d < contact[k]:
            events.append(OverlapEvent(float(trace.t[n]), ids[a[k]],
                                       ids[b[k]], d))
    return events


def overlap_contacts(trace: Trace, config: MachineConfig) -> list[list]:
    """The overlaps of overlap_diagnostic as contacts: one [first t, last
    t, "a/b", least distance] per robot pair and run of consecutive
    samples in which the pair overlaps, in the order the runs begin, a
    run's pairs in sorted order.

    A squared distance decides its sample unless it lies within
    OVERLAP_PREFILTER_SLACK of the contact distance, where math.hypot
    does, as in overlap_diagnostic.  A run's least distance is the least
    math.hypot of the samples whose squares are as close to the run's
    least square, which rounding could have put first."""
    a, b, contact, dx, dy = _pair_offsets(trace, config)
    square = dx * dx + dy * dy
    near = square < (contact * (1.0 + OVERLAP_PREFILTER_SLACK)) ** 2
    if not near.any():
        return []
    hit = square < (contact * (1.0 - OVERLAP_PREFILTER_SLACK)) ** 2
    n, k = (near & ~hit).nonzero()
    hit[n, k] = [math.hypot(x, y) < c for x, y, c in zip(
        dx[n, k].tolist(), dy[n, k].tolist(), contact[k].tolist())]
    # each pair's runs, as the samples where they start and stop in turn
    pair, at = np.diff(hit.T, prepend=False, append=False, axis=1).nonzero()
    ids, contacts = trace.robot_ids, []
    for first, k, stop in sorted(zip(at[0::2].tolist(), pair[0::2].tolist(),
                                     at[1::2].tolist())):
        run = square[first:stop, k]
        ties = first + (run <= run.min() * (1.0 + OVERLAP_PREFILTER_SLACK) ** 2
                        ).nonzero()[0]
        contacts.append([trace.t[first].item(), trace.t[stop - 1].item(),
                         f"{ids[a[k]]}/{ids[b[k]]}",
                         min(map(math.hypot, dx[ties, k].tolist(),
                                 dy[ties, k].tolist()))])
    return contacts
