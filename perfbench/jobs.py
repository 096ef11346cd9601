"""Running one benchmark job: through the CLI, or as a traced replay of the
CLI's call sequence, plus the output checks every job must pass.

The traced replay calls the same public functions, in the same order and
with the same arguments, as `swarmfab.cli.cmd_simulate` / `cmd_plan`, and
writes the same files; the benchmark checks that its outputs are
byte-identical to the CLI's, which is what proves the replay faithful.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time
import traceback
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass

import workloads
from swarmfab import cli, config, coordinator, gcode, kinematics, sim

perf_counter = time.perf_counter


@dataclass
class PreparedJob:
    job: workloads.Job
    gcode_path: str
    config_path: str
    outputs: dict[str, str]  # output name -> path; "report" is stdout
    argv: list[str]


def prepare(job: workloads.Job, workdir: str) -> PreparedJob:
    """Write the job's g-code and machine config; build its CLI argv."""
    d = os.path.join(workdir, job.name)
    os.makedirs(d, exist_ok=True)
    gcode_path = os.path.join(d, "job.gcode")
    config_path = os.path.join(d, "machine.json")
    with open(gcode_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(job.gcode)
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(workloads.MACHINES[job.machine], fh, indent=2)
    stream = os.path.join(d, "stream.txt")
    if job.command == "simulate":
        outputs = {"svg": os.path.join(d, "out.svg"),
                   "csv": os.path.join(d, "trace.csv"), "stream": stream}
        argv = ["simulate", gcode_path, config_path, "--report",
                "--svg", outputs["svg"], "--csv", outputs["csv"],
                "--stream", stream]
    else:
        outputs = {"stream": stream}
        argv = ["plan", gcode_path, config_path, stream]
    return PreparedJob(job, gcode_path, config_path, outputs, argv)


def clear_outputs(p: PreparedJob) -> None:
    """Remove output files so a job that fails to write one cannot pass."""
    for path in p.outputs.values():
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)


def run_cli(p: PreparedJob) -> tuple[float, int, str]:
    """One timed CLI invocation, in-process: (seconds, exit code, stdout)."""
    clear_outputs(p)
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(p.argv))
    return perf_counter() - start, rc, out.getvalue()


# --- tracing ---

class Tracer:
    """In-memory spans at layer boundaries plus per-call aggregates.

    A span is (job id, name, start, end, parent index, self seconds).  The
    kinematics and robot wrappers are hit per tick or per step, so they only
    add to call counts and seconds; their time still counts as child time of
    the enclosing span when its self time is computed.
    """

    # wrapped attribute -> aggregate name
    KINEMATICS = {
        "bridge_fk": "kinematics.fk", "wire2d_fk": "kinematics.fk",
        "wire3d_fk": "kinematics.fk", "bridge_ik": "kinematics.ik",
        "wire2d_ik": "kinematics.ik", "wire3d_ik": "kinematics.ik",
        "workspace_contains": "kinematics.workspace_contains",
    }
    # names sim binds from swarmfab.robot at import
    ROBOT = {"step_dynamics": "robot.step_dynamics",
             "goto_controller": "robot.controller",
             "rotate_controller": "robot.controller"}

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self._open: list[list] = []  # [span index or None, child seconds]
        self.job_id = ""

    def span(self, name, fn, *args, **kwargs):
        parent = self._open[-1][0] if self._open else None
        index = len(self.spans)
        self.spans.append(None)  # filled in when the call returns
        frame = [index, 0.0]
        self._open.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[index] = (self.job_id, name, start, end, parent,
                                 end - start - frame[1])
            if self._open:
                self._open[-1][1] += end - start

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            frame = [None, 0.0]
            self._open.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._open.pop()
                self.calls[name] += 1
                self.seconds[name] += elapsed
                if self._open:
                    self._open[-1][1] += elapsed
        return wrapper

    @contextlib.contextmanager
    def patched(self):
        """Install the per-call wrappers for the duration of one job."""
        saved = []
        for module, table in ((kinematics, self.KINEMATICS),
                              (sim, self.ROBOT)):
            for attr, name in table.items():
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._counted(name, original))
        try:
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def seconds_by_name(self) -> tuple[dict[str, float], dict[str, float]]:
        """(total, self) seconds of the spans of each name."""
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for _, name, start, end, _, self_s in self.spans:
            total[name] += end - start
            own[name] += self_s
        return total, own

    def dump(self, path: str) -> None:
        fields = ("job", "name", "start", "end", "parent", "self_s")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _replay(p: PreparedJob, tracer: Tracer, out, err) -> dict:
    """The call sequence of cli.cmd_simulate / cmd_plan with default flags."""
    span = tracer.span
    machine = span("config.load_config", config.load_config, p.config_path)
    with open(p.gcode_path, "r", encoding="utf-8") as fh:
        text = fh.read()
    commands = span("gcode.parse_program", gcode.parse_program, text)
    result = span("gcode.interpret", gcode.interpret, commands,
                  home=machine.home)
    plan = span("coordinator.plan_program", coordinator.plan_program,
                result.segments, machine)
    roster_order = [e.id for e in machine.roster]
    done = {"text": text, "result": result, "plan": plan}
    if p.job.command == "plan":
        stream = span("coordinator.serialize_command_stream",
                      coordinator.serialize_command_stream, plan, roster_order)
        _write(p.outputs["stream"], stream)
        duration = plan.ticks[-1].t if plan.ticks else 0.0
        print(f"ticks={len(plan.ticks)} duration_s={duration:.6f} "
              f"barriers={len(plan.barriers)}", file=out)
        return {**done, "stream": stream}

    trace = span("sim.run", sim.run, plan, machine, dt_sim=machine.dt_sim,
                 seed=0)
    for event in span("sim.overlap_diagnostic", sim.overlap_diagnostic,
                      trace, machine):
        print(f"warning: overlap t={event.t:.3f} {event.robot_a}/"
              f"{event.robot_b} d={event.distance:.3f}", file=err)
    _write(p.outputs["svg"], span("sim.export_svg", sim.export_svg, trace))
    _write(p.outputs["csv"], span("sim.export_csv", sim.export_csv, trace))
    stream = span("coordinator.serialize_command_stream",
                  coordinator.serialize_command_stream, plan, roster_order)
    _write(p.outputs["stream"], stream)
    report = span("sim.measure_fidelity", sim.measure_fidelity, trace,
                  result.segments)
    print(f"max_deviation_mm={report.max_deviation:.6f}", file=out)
    print(f"mean_deviation_mm={report.mean_deviation:.6f}", file=out)
    print(f"total_print_length_mm={report.total_print_length:.6f}", file=out)
    print(f"total_travel_length_mm={report.total_travel_length:.6f}",
          file=out)
    print(f"simulated_duration_s={report.simulated_duration:.6f}", file=out)
    print(f"barrier_wait_total_s={report.barrier_wait_total:.6f}", file=out)
    print(f"extruded_length_mm={trace.extruded_length:.6f}", file=out)
    return {**done, "stream": stream, "trace": trace, "report": report}


def run_traced(p: PreparedJob, tracer: Tracer) -> tuple[float, str, dict]:
    """Traced replay of one job: (seconds, stdout, pipeline objects)."""
    clear_outputs(p)
    out, err = io.StringIO(), io.StringIO()
    tracer.job_id = p.job.name
    with tracer.patched():
        start = perf_counter()
        done = tracer.span("cli.main", _replay, p, tracer, out, err)
        elapsed = perf_counter() - start
    return elapsed, out.getvalue(), done


def trace_bytes_per_sample(p: PreparedJob) -> float:
    """Bytes of Python heap the Trace of one job holds, per sample.

    tracemalloc slows allocation several-fold, so this runs outside every
    timed region.
    """
    machine = config.load_config(p.config_path)
    segments = gcode.interpret(gcode.parse_program(p.job.gcode),
                               home=machine.home).segments
    plan = coordinator.plan_program(segments, machine)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = sim.run(plan, machine, dt_sim=machine.dt_sim, seed=0)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return held / len(trace.samples)


# --- output checks ---

def digests(p: PreparedJob, stdout: str) -> dict[str, str]:
    """SHA-256 of the report (stdout) and of every output file."""
    found = {"report": hashlib.sha256(stdout.encode()).hexdigest()}
    for name, path in p.outputs.items():
        with open(path, "rb") as fh:
            found[name] = hashlib.sha256(fh.read()).hexdigest()
    return found


def parse_key_values(stdout: str) -> dict[str, float]:
    return {k: float(v) for k, v in
            (item.split("=", 1) for item in stdout.split())}


def stream_ticks(path: str) -> int:
    """Number of setpoint ticks in a command stream; raises if `t` ever
    decreases.  A tick is one record per active robot in roster order, so a
    tick starts wherever the first robot's id comes round again."""
    ticks = 0
    first = None
    last = -math.inf
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            t_field, robot, op = line.split()[:3]
            t = float(t_field[2:])
            if t < last:
                raise ValueError(f"stream t decreases at {line.strip()!r}")
            last = t
            if op == "op=stop":
                continue
            first = first or robot
            ticks += robot == first
    return ticks


@dataclass(frozen=True)
class Facts:
    """What one job's checked outputs say; identical on every repeat."""
    machine_s: float  # simulated duration, or the plan's last tick t
    ticks: int
    barrier_wait_s: float | None
    mean_deviation_mm: float | None
    max_deviation_mm: float | None


def check(p: PreparedJob, rc: int, stdout: str) -> Facts:
    """Invariants that hold for any seed; raises ValueError on a violation."""
    job = p.job
    if rc != 0:
        raise ValueError(f"{job.name}: exit code {rc}")
    values = parse_key_values(stdout)
    ticks = stream_ticks(p.outputs["stream"])
    if job.command == "plan":
        if ticks != values["ticks"]:
            raise ValueError(f"{job.name}: stream has {ticks} ticks, plan "
                             f"reported {values['ticks']:.0f}")
        return Facts(values["duration_s"], ticks, None, None, None)
    extruded = values["extruded_length_mm"]
    if abs(extruded - job.commanded_e) > 0.01 * job.commanded_e:
        raise ValueError(f"{job.name}: extruded {extruded} mm, commanded "
                         f"{job.commanded_e} mm")
    with open(p.outputs["svg"], "r", encoding="utf-8") as fh:
        groups = sum(1 for line in fh if line.startswith("<g "))
    if groups != job.layers:
        raise ValueError(f"{job.name}: {groups} SVG layer groups, "
                         f"{job.layers} generated layers")
    return Facts(values["simulated_duration_s"], ticks,
                 values["barrier_wait_total_s"],
                 values["mean_deviation_mm"], values["max_deviation_mm"])


class Checker:
    """Checks every execution of every job.

    The first execution of a job gets the full invariant check (and, with
    the default seed, the reference digests); a repeat must reproduce the
    first execution's digests byte for byte.
    """

    def __init__(self, references: dict[str, dict[str, str]] | None):
        self.references = references
        self.first: dict[str, dict[str, str]] = {}
        self.facts: dict[str, Facts] = {}
        self.attempted = 0
        self.failed = 0

    def record(self, p: PreparedJob, run) -> tuple[float, Facts] | None:
        """Call `run()` -> (seconds, exit code, stdout) and check what it
        wrote; returns (seconds, facts), or None when the job failed."""
        self.attempted += 1
        try:
            seconds, rc, stdout = run()
            found = digests(p, stdout) if rc == 0 else {}
            name = p.job.name
            if name not in self.first:
                self.facts[name] = check(p, rc, stdout)
                if self.references is not None:
                    expected = self.references.get(name)
                    if found != expected:
                        raise ValueError(f"{name}: outputs differ from the "
                                         f"reference digests")
                self.first[name] = found
            elif found != self.first[name]:
                raise ValueError(f"{name}: outputs differ from its first run")
            return seconds, self.facts[name]
        except Exception:  # a failed job is counted, the run goes on
            self.failed += 1
            traceback.print_exc()
            return None
