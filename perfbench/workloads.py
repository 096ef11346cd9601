"""Seeded job generators for the three benchmark workloads.

Every job is built here from the seed, so the program under test receives
only generated g-code and machine-config files.  The same seed always gives
the same jobs.  Sizes are stratified inside a batch (each batch holds the
same spread of job sizes, shuffled and jittered by the seed), so batch-level
cost moves little from seed to seed while the individual jobs differ.

Sizing rule: scoring (`sim.measure_fidelity`) costs about 12-14 us per pair
of (extruding sample, print segment).  A 20-circle wire2d job once took
246 s to score; no job here carries more than ~40k pairs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Machine configs as the benchmark's own data (schema v1), equal to the
# package's scaffolds at the time the benchmark was defined, so that a change
# to the scaffolds does not silently change the workload.
MACHINES = {
    "bridge_xy": {
        "v": 1, "morphology": "bridge_xy",
        "roster": [{"id": "r1"}, {"id": "r2"}, {"id": "r3"}],
        "limits": {"max_tool_speed": 50.0, "sync_tol": 1.0},
        "planning": {"dt_plan": 0.1},
        "sim": {"dt_sim": 0.01, "noise_std": 0.0},
        "geometry": {"rail1_x": 0.0, "bridge_span": 400.0,
                     "carriage_min": 30.0, "carriage_max": 370.0,
                     "bridge_height": 0.0},
        "workspace": {"min": [30.0, 0.0, 0.0], "max": [370.0, 500.0, 0.0]},
        "home": [200.0, 100.0, 0.0],
    },
    "wire2d_wall": {
        "v": 1, "morphology": "wire2d_wall",
        "roster": [{"id": "r1"}, {"id": "r2"}],
        "limits": {"max_tool_speed": 50.0, "sync_tol": 1.0},
        "planning": {"dt_plan": 0.1},
        "sim": {"dt_sim": 0.01, "noise_std": 0.0},
        "geometry": {"anchors": [[0.0, 0.0], [1000.0, 0.0]],
                     "spool_radius": 20.0, "workspace_margin": 10.0},
        "workspace": {"min": [150.0, -750.0, 0.0],
                      "max": [850.0, -150.0, 0.0]},
        "home": [500.0, -400.0, 0.0],
    },
    "wire3d_printer": {
        "v": 1, "morphology": "wire3d_printer",
        "roster": [{"id": "r1"}, {"id": "r2"}, {"id": "r3"}, {"id": "r4"}],
        "limits": {"max_tool_speed": 50.0, "sync_tol": 1.0},
        "planning": {"dt_plan": 0.1},
        "sim": {"dt_sim": 0.01, "noise_std": 0.0},
        "geometry": {"anchors": [[0.0, 0.0, 500.0], [400.0, 0.0, 500.0],
                                 [200.0, 350.0, 500.0]],
                     "spool_radius": 20.0, "workspace_margin": 10.0,
                     "table_position": [200.0, 120.0]},
        "workspace": {"min": [80.0, 60.0, 0.0], "max": [320.0, 260.0, 350.0]},
        "home": [200.0, 120.0, 50.0],
    },
}


@dataclass(frozen=True)
class Job:
    name: str
    machine: str  # key of MACHINES
    command: str  # "simulate" or "plan"
    gcode: str
    layers: int  # distinct print z levels; the SVG must show as many groups
    commanded_e: float  # sum of positive extrusion the program commands


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _strata(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """`count` values at the centres of equal strata of [lo, hi], jittered by
    up to a tenth of a stratum and shuffled, so every batch holds the same
    spread of sizes."""
    width = (hi - lo) / count
    values = [lo + (k + 0.4 + 0.2 * rng.random()) * width
              for k in range(count)]
    rng.shuffle(values)
    return values


# plot_hatch: bridge_xy hatch drawings with G2/G3 turnarounds, through
# `simulate`.  Scoring is O(extruding samples x print segments), so with
# ~100 print segments per job `sim.measure_fidelity` dominates the job while
# the bridge FK stays cheap.  This workload shows a scoring change.
HATCH_JOBS = 16
HATCH_LINES = 9


def _hatch_job(rng: random.Random, index: int, length: float) -> Job:
    # coordinates are kept on the 0.001 mm grid the g-code prints, so arc
    # radii read back from the text agree exactly
    # pitch 2.1-2.4 mm: every turnaround flattens to 11 chords at the
    # default 0.05 mm chord tolerance, so each job has 97 print segments
    pitch = round(2.1 + 0.3 * rng.random(), 2)
    # start up to 2 mm from home along +x: the first travel moves only the
    # carriage, so the bridge robots need not turn before the barrier at the
    # first print move, and that wait is the same for every job
    x0 = round(200.0 + 2.0 * rng.random(), 3)
    y0 = 100.0
    length = round(length, 3)
    feed = 2700  # mm/min
    lines = ["G21", "G90", "M82", "G92 E0",
             f"G0 X{_fmt(x0)} Y{_fmt(y0)} F3000"]
    e = 0.0
    x, y = x0, y0
    for k in range(HATCH_LINES):
        direction = 1.0 if k % 2 == 0 else -1.0
        x = round(x + direction * length, 3)
        e += 0.05 * length
        lines.append(f"G1 X{_fmt(x)} Y{_fmt(y)} E{e:.5f} F{feed:.0f}")
        if k == HATCH_LINES - 1:
            break
        # semicircle turnaround: G3 after a +x line, G2 after a -x line
        code = "G3" if direction > 0 else "G2"
        y = round(y + pitch, 3)
        e += 0.05 * math.pi * pitch / 2
        lines.append(f"{code} X{_fmt(x)} Y{_fmt(y)} I0 J{_fmt(pitch / 2)} "
                     f"E{e:.5f}")
    return Job(name=f"plot_hatch-{index}", machine="bridge_xy",
               command="simulate", gcode="\n".join(lines) + "\n", layers=1,
               commanded_e=e)


def plot_hatch(seed: int) -> list[Job]:
    rng = random.Random(seed)
    return [_hatch_job(rng, i, length)
            for i, length in enumerate(_strata(rng, HATCH_JOBS, 4.0, 8.0))]


# print_layers: small wire3d_printer parts, a few polygon layers each, with a
# Z step (travel) and a print start at every layer.  Trilateration FK on every
# sample and IK on every tick make `sim.run`, `robot` and `kinematics` the
# largest share; with 9-21 print segments per job scoring stays small.  This
# workload shows simulator and kinematics changes.
LAYERS = 3
# Triangles turn by 120 degrees and so get a barrier at every corner; the
# other polygons turn by less than 90 and do not.  Squares are left out:
# their 90-degree turns sit exactly on the barrier threshold, where the
# rounding of the corner coordinates decides whether a barrier is inserted.
SIDES = (3, 5, 6, 7)


def _layers_job(rng: random.Random, index: int, sides: int,
                radius: float) -> Job:
    phase = 2 * math.pi * rng.random()
    # the first corner lies within 2 mm of home, so every job starts with
    # the same short travel
    cx = 199.0 + 2.0 * rng.random() - radius * math.cos(phase)
    cy = 119.0 + 2.0 * rng.random() - radius * math.sin(phase)
    z0 = 50.0
    height = 1.0 + rng.random()  # layer height, mm; one plan tick at F1200
    corners = [(cx + radius * math.cos(phase + 2 * math.pi * k / sides),
                cy + radius * math.sin(phase + 2 * math.pi * k / sides))
               for k in range(sides)]
    side = math.dist(corners[0], corners[1])
    lines = ["G21", "G90", "M83",
             f"G1 X{_fmt(corners[0][0])} Y{_fmt(corners[0][1])} "
             f"Z{_fmt(z0)} F3000"]
    e = 0.0
    for layer in range(LAYERS):
        if layer:
            lines.append(f"G1 Z{_fmt(z0 + layer * height)} F1200")
        for k in range(1, sides + 1):
            px, py = corners[k % sides]
            lines.append(f"G1 X{_fmt(px)} Y{_fmt(py)} E{_fmt(0.05 * side)} "
                         "F1500")
            e += float(_fmt(0.05 * side))
    return Job(name=f"print_layers-{index}", machine="wire3d_printer",
               command="simulate", gcode="\n".join(lines) + "\n",
               layers=LAYERS, commanded_e=e)


def print_layers(seed: int) -> list[Job]:
    rng = random.Random(seed)
    # every batch prints each polygon at each of four sizes
    shapes = [(sides, radius) for sides in SIDES
              for radius in _strata(rng, 4, 5.0, 9.0)]
    rng.shuffle(shapes)
    return [_layers_job(rng, i, sides, radius)
            for i, (sides, radius) in enumerate(shapes)]


# plan_stream: one large wire2d_wall drawing through `plan` only: thousands
# of short G1 moves with relative E (M83), full G2 loops, travel jumps and
# mixed feeds.  No simulation runs, so `gcode` and `coordinator` do all the
# work and a simulator or scoring change should show no change here.  It is
# also the workload that exercises the command-stream output path.
STREAM_MOVES = 3000
STREAM_FEEDS = (600, 1200, 1800, 3000)  # mm/min, each used equally often
STREAM_BLOCK = 125  # moves per feed change
STREAM_JUMP = 40.0  # mm, length of a travel jump
STREAM_BOX = ((300.0, 700.0), (-600.0, -250.0))


def _stream_job(rng: random.Random) -> Job:
    (xlo, xhi), (ylo, yhi) = STREAM_BOX
    x, y = 500.0, -400.0
    heading = 2 * math.pi * rng.random()
    lines = ["G21", "G90", "M83", "G92 E0",
             f"G0 X{_fmt(x)} Y{_fmt(y)} F3000"]
    e = 0.0
    feeds: list[int] = []
    for k in range(STREAM_MOVES):
        if k % STREAM_BLOCK == 0:
            if not feeds:
                feeds = list(STREAM_FEEDS)
                rng.shuffle(feeds)
            feed = feeds.pop()
        if k % 300 == 299:  # travel jump towards the middle of the box
            heading = math.atan2((ylo + yhi) / 2 - y, (xlo + xhi) / 2 - x)
            heading += rng.uniform(-1.0, 1.0)
            x += STREAM_JUMP * math.cos(heading)
            y += STREAM_JUMP * math.sin(heading)
            lines.append(f"G0 X{_fmt(x)} Y{_fmt(y)}")
            continue
        if k % 60 == 59:  # a full printed loop back to the current point
            r = 3.0 + 3.0 * rng.random()
            e_loop = 0.02 * 2 * math.pi * r
            lines.append(f"G2 X{_fmt(x)} Y{_fmt(y)} I{_fmt(r)} J0 "
                         f"E{_fmt(e_loop)}")
            e += float(_fmt(e_loop))
            continue
        heading += rng.uniform(-0.6, 0.6)
        step = rng.uniform(2.0, 6.0)
        nx, ny = x + step * math.cos(heading), y + step * math.sin(heading)
        if not (xlo < nx < xhi and ylo < ny < yhi):
            heading = math.atan2((ylo + yhi) / 2 - y, (xlo + xhi) / 2 - x)
            nx, ny = x + step * math.cos(heading), y + step * math.sin(heading)
        x, y = nx, ny
        de = 0.02 * step
        lines.append(f"G1 X{_fmt(x)} Y{_fmt(y)} E{_fmt(de)} F{feed}")
        e += float(_fmt(de))
    return Job(name="plan_stream-0", machine="wire2d_wall", command="plan",
               gcode="\n".join(lines) + "\n", layers=1, commanded_e=e)


def plan_stream(seed: int) -> list[Job]:
    return [_stream_job(random.Random(seed))]


GENERATORS = {"plot_hatch": plot_hatch, "print_layers": print_layers,
              "plan_stream": plan_stream}
WORKLOADS = tuple(GENERATORS)


def generate(workload: str, seed: int) -> list[Job]:
    """The job batch of a workload for a seed."""
    return GENERATORS[workload](seed)
