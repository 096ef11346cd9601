"""Command-line driver: parse -> interpret -> plan -> simulate -> export.

Diagnostics go to stderr, data to stdout, so output can be piped.  Exit
codes: 0 ok, 1 usage; `main` maps every other error, in one place, to the
code of the first class in EXIT_CODES it is an instance of: 2 g-code,
4 config, 3 I/O, 6 stall timeout, 5 any other (kinematics, workspace,
plan, roster, simulation).  Such an error prints one `error:` line and no
traceback.  A reader that closes stdout early (`swarmfab parse job.gcode |
head`) ends the run quietly with exit 0.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import config as cfgmod
from . import coordinator, gcode, sim
from .coordinator import MORPHOLOGIES, REQUIRED_ROBOTS
from .errors import ConfigError, GcodeError, StallTimeout, SwarmFabError

EXIT_OK = 0
EXIT_USAGE = 1

# (error class, exit code), first match wins
EXIT_CODES = (
    (GcodeError, 2),
    (ConfigError, 4),
    (OSError, 3),
    (StallTimeout, 6),
    (SwarmFabError, 5),
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _seed(text: str) -> int:
    """A --seed value: a non-negative integer, as numpy's generators take."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"invalid seed: {text!r} (a non-negative integer)")
    return int(text)


def _program(path: str, home=(0.0, 0.0, 0.0)) -> gcode.InterpretResult:
    """The interpreted g-code file at path, which must be UTF-8 text."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # numbered as parse_program numbers lines: the lines of the text
        # before the bad byte, and one more holding it
        prefix = data[:exc.start].decode("utf-8") + "?"
        raise GcodeError("not UTF-8 text", len(prefix.splitlines())) from exc
    return gcode.interpret(gcode.parse_program(text), home=home)


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def cmd_parse(args) -> int:
    result = _program(args.gcode)
    for seg in result.segments:
        print(f"{seg.kind} ({seg.start[0]:.3f},{seg.start[1]:.3f},"
              f"{seg.start[2]:.3f})->({seg.end[0]:.3f},{seg.end[1]:.3f},"
              f"{seg.end[2]:.3f}) feed={seg.feed:.3f} "
              f"e={seg.extrusion_delta:.5f} line={seg.source_line}")
    for event in result.events:
        print(f"meta M{event.code} params={event.params} line={event.line_no}",
              file=sys.stderr)
    return EXIT_OK


def _stream(plan, machine) -> str:
    """A plan's command stream, the machine's robots in roster order."""
    return coordinator.serialize_command_stream(
        plan, [e.id for e in machine.roster])


def _write_plan(path, plan, machine) -> int:
    """Write a plan's command stream and its summary."""
    _write_text(path, _stream(plan, machine))
    duration = plan.t[-1] if len(plan.t) else 0.0
    print(f"ticks={len(plan.t)} duration_s={duration:.6f} "
          f"barriers={len(plan.barriers)}")
    return EXIT_OK


def cmd_plan(args) -> int:
    machine = cfgmod.load_config(args.config)
    segments = _program(args.gcode, home=machine.home).segments
    return _write_plan(args.out, coordinator.plan_program(segments, machine),
                       machine)


def cmd_simulate(args) -> int:
    machine = cfgmod.load_config(args.config)
    if args.dt is not None and not 0 < args.dt <= machine.dt_plan:
        print(f"error: --dt must be in (0, dt_plan={machine.dt_plan}]",
              file=sys.stderr)
        return EXIT_USAGE
    segments = _program(args.gcode, home=machine.home).segments
    plan = coordinator.plan_program(segments, machine)
    trace = sim.run(plan, machine, dt_sim=args.dt, seed=args.seed)

    for first, last, pair, least in sim.overlap_contacts(trace, machine):
        print(f"warning: overlap t={first:.3f}..{last:.3f} {pair} "
              f"d_min={least:.3f}", file=sys.stderr)

    if args.svg:
        _write_text(args.svg, sim.export_svg(trace))
    if args.csv:
        _write_text(args.csv, sim.export_csv(trace))
    if args.stream:
        _write_text(args.stream, _stream(plan, machine))
    if args.report:
        report = sim.measure_fidelity(trace, segments)
        print(f"max_deviation_mm={report.max_deviation:.6f}")
        print(f"mean_deviation_mm={report.mean_deviation:.6f}")
        print(f"total_print_length_mm={report.total_print_length:.6f}")
        print(f"total_travel_length_mm={report.total_travel_length:.6f}")
        print(f"simulated_duration_s={report.simulated_duration:.6f}")
        print(f"barrier_wait_total_s={report.barrier_wait_total:.6f}")
        print(f"extruded_length_mm={trace.extruded_length:.6f}")
    return EXIT_OK


def cmd_machines(args) -> int:
    if args.action == "list":
        for morphology in MORPHOLOGIES:
            print(f"{morphology} robots={REQUIRED_ROBOTS[morphology]}")
        return EXIT_OK
    cfgmod.write_default_config(args.morphology, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_reconfigure(args) -> int:
    config_a = cfgmod.load_config(args.config_a)
    config_b = cfgmod.load_config(args.config_b)
    return _write_plan(args.out, coordinator.reconfigure(config_a, config_b),
                       config_b)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="swarmfab",
                     description="Swarm-robot fabrication machine toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="dump interpreted motion segments")
    p.add_argument("gcode")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("plan", help="plan a g-code job into a command stream")
    p.add_argument("gcode")
    p.add_argument("config")
    p.add_argument("out")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("simulate", help="run the full pipeline in simulation")
    p.add_argument("gcode")
    p.add_argument("config")
    p.add_argument("--svg", default=None, help="write tool path SVG here")
    p.add_argument("--csv", default=None, help="write trace CSV here")
    p.add_argument("--stream", default=None, help="write command stream here")
    p.add_argument("--dt", type=float, default=None, help="sim step seconds")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--report", action="store_true",
                   help="print fidelity summary key=value lines")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("machines", help="list morphologies / write scaffolds")
    msub = p.add_subparsers(dest="action", required=True)
    m = msub.add_parser("list")
    m.set_defaults(func=cmd_machines, action="list")
    m = msub.add_parser("init")
    m.add_argument("morphology", choices=MORPHOLOGIES)
    m.add_argument("out")
    m.set_defaults(func=cmd_machines, action="init")

    p = sub.add_parser("reconfigure",
                       help="plan a transition between two machine configs")
    p.add_argument("config_a")
    p.add_argument("config_b")
    p.add_argument("out")
    p.set_defaults(func=cmd_reconfigure)
    return parser


# one parser per process: building it costs about a millisecond a call
_parser = functools.lru_cache(maxsize=None)(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except BrokenPipeError:
        # the reader of stdout is gone: stdout's last flush at exit goes to
        # the null device, and the exit is quiet
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        return EXIT_OK
    except (SwarmFabError, OSError) as exc:
        message = str(exc)
        line = getattr(exc, "line_no", None)
        if line and not isinstance(exc, GcodeError):  # its text has the line
            message += f" (g-code line {line})"
        print(f"error: {message}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
