"""swarmfab benchmark: seeded job batches through the `swarmfab` CLI.

Run from the root of a swarmfab checkout:

    python3 perfbench/run.py --workload plot_hatch --seed 0 --seconds 30 --trace 0

Workloads (see workloads.py for why each exists): plot_hatch, print_layers,
plan_stream.  One process, one thread, one closed-loop client: the next job
is submitted only after the previous one completes (concurrency 1).

--trace 0 times whole jobs through `swarmfab.cli.main([...])` in-process and
prints the end-to-end metrics.  --trace 1 replays the CLI's call sequence
with a span around every call into a layer (see jobs.py) and prints the
per-layer metrics.  Every job's outputs are checked; a failed check counts
in `failed`.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the line before it is a JSON object
of run details: environment, job counts, the percentile behind job_s_tail,
fail_ratio, and the batch's barrier-wait and deviation figures.

Host time is wall time of this process; simulated time (unit sim_s) is the
modelled machine's time.  On a shared host the CPU speed available to one
process swings by up to 2x within seconds (neighbours' load), so the gated
job times (unit ref_s) are wall times scaled by a calibration loop timed
between jobs: ref_s = wall s x REFERENCE_CALIBRATION_S / calibration s, the
job's wall time on a host where one calibration pass takes exactly
REFERENCE_CALIBRATION_S.  The raw wall-time figures are in the details line.
setup_s is raw wall time.  Output files live under .perfbench/ in the
checkout; the traced run leaves its spans there as JSON lines.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS/OpenMP pools before numpy is imported, here and in set-up children.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402

import numpy  # noqa: E402

import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 0  # the seed whose output digests are stored in references.json
SETUP_RUNS = 7
MIN_JOBS = 21  # job_s_tail: ten jobs beyond it, and above the median
TRACEMALLOC_JOBS = 2
# One calibration pass takes about this long on the host that defined the
# benchmark (2-vCPU Xeon VM) in a quiet period.
REFERENCE_CALIBRATION_S = 0.004
CALIBRATION_STEPS = 900
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import swarmfab; "
              "swarmfab.config.load_config(sys.argv[2])")

END_TO_END_UNITS = {
    "job_s_p50": "ref_s", "job_s_tail": "ref_s", "realtime_factor": "x",
    "plan_ticks_per_s": "ticks/ref_s", "peak_rss_mb": "MB", "setup_s": "s",
    "machine_s": "sim_s",
}
PER_LAYER_UNITS = {
    "sim.measure_fidelity_s": "s", "sim.fidelity_pairs": "count",
    "sim.run_s": "s", "sim.run_self_s": "s", "sim.samples": "count",
    "sim.trace_bytes_per_sample": "B/sample",
    "sim.steps_per_tick": "steps/tick", "sim.barrier_wait_fraction": "ratio",
    "sim.barrier_wait_s": "sim_s", "sim.mean_deviation_mm": "mm",
    "sim.max_deviation_mm": "mm", "sim.overlap_diagnostic_s": "s",
    "sim.export_csv_s": "s", "sim.export_svg_s": "s",
    "robot.step_dynamics_calls": "count", "robot.step_dynamics_s": "s",
    "robot.controller_calls": "count", "robot.controller_s": "s",
    "kinematics.fk_calls": "count", "kinematics.fk_s": "s",
    "kinematics.ik_calls": "count", "kinematics.ik_s": "s",
    "kinematics.workspace_contains_calls": "count",
    "kinematics.workspace_contains_s": "s",
    "coordinator.plan_program_s": "s", "coordinator.plan_program_self_s": "s",
    "coordinator.ticks": "count", "coordinator.barriers": "count",
    "coordinator.serialize_command_stream_s": "s",
    "coordinator.stream_bytes": "B",
    "gcode.parse_program_s": "s", "gcode.interpret_s": "s",
    "gcode.lines": "count", "gcode.segments": "count",
    "config.load_config_s": "s", "cli.self_s": "s", "trace.overhead_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(src: str, config_path: str) -> float:
    """Median wall time of a fresh interpreter that imports swarmfab and
    loads the machine config: what a CLI user pays on every invocation."""
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        # no timeout: with one, Popen.wait polls in sleeps of up to 50 ms,
        # which would quantize the measurement
        subprocess.run([sys.executable, "-c", SETUP_CODE, src, config_path],
                       check=True, stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def calibrate() -> float:
    """Seconds for one pass of a fixed loop that never calls swarmfab and
    mixes the operations of its hot paths: Python float math, tuple, dict
    and string churn, and numpy calls on 3-element arrays."""
    start = time.perf_counter()
    a = numpy.arange(3.0)
    acc = 0.0
    slots = {}
    lines = []
    for i in range(CALIBRATION_STEPS):
        v = a * (i * 0.001) - 0.5
        acc += float(numpy.linalg.norm(v)) + math.hypot(acc % 3.0, i)
        point = (acc % 7.0, i * 0.5, -acc % 5.0)
        slots[i & 63] = {"t": i * 0.1, "p": point}
        lines.append(f"t={point[0]:.6f} x={point[1]:.6f} y={point[2]:.6f}")
    return time.perf_counter() - start


def closed_loop(jobs, batch, seconds, checker):
    """Whole CLI jobs, in whole passes over the batch so that every job
    counts equally, until `seconds` have passed and MIN_JOBS jobs have run.
    A calibration pass runs before the first job and after every job.
    Returns [(job name, wall s, ref_s, facts)]."""
    checker.record(batch[0], lambda: jobs.run_cli(batch[0]))  # warm-up
    timed = []
    before = calibrate()
    start = time.perf_counter()
    i = 0
    while (i < MIN_JOBS or i % len(batch)
           or time.perf_counter() - start < seconds):
        p = batch[i % len(batch)]
        i += 1
        done = checker.record(p, lambda: jobs.run_cli(p))
        after = calibrate()
        if done is not None:
            wall, facts = done
            scale = REFERENCE_CALIBRATION_S / (0.5 * (before + after))
            timed.append((p.job.name, wall, wall * scale, facts))
        before = after
    return timed


def end_to_end(timed, setup_s):
    """End-to-end metrics of a closed-loop run.  The rates are those of one
    pass over the batch, each job taken at its median time, so a burst of
    host contention moves them no more than it moves job_s_p50."""
    times = sorted(ref for _, _, ref, _ in timed)
    walls = sorted(wall for _, wall, _, _ in timed)
    n = len(times)
    tail_rank = max(n - 10, 1)  # ten jobs beyond it
    runs = defaultdict(list)
    for name, wall, ref, facts in timed:
        runs[name].append((wall, ref, facts))
    facts = [r[0][2] for r in runs.values()]
    pass_wall = sum(statistics.median(w for w, _, _ in r)
                    for r in runs.values())
    pass_ref = sum(statistics.median(ref for _, ref, _ in r)
                   for r in runs.values())
    pass_machine = sum(f.machine_s for f in facts)
    pass_ticks = sum(f.ticks for f in facts)
    metrics = {
        "job_s_p50": statistics.median(times),
        "job_s_tail": times[tail_rank - 1],
        "realtime_factor": pass_machine / pass_ref,
        "plan_ticks_per_s": pass_ticks / pass_ref,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "setup_s": setup_s,
        "machine_s": pass_machine / len(facts),
    }
    simulated = [f for f in facts if f.barrier_wait_s is not None]
    details = {
        "job_s_p50_samples": n,
        "job_s_tail_percentile": round(100.0 * tail_rank / n, 2),
        "job_s_tail_samples": n,
        "calibration_s_p50": statistics.median(
            REFERENCE_CALIBRATION_S * wall / ref for _, wall, ref, _ in timed),
        "wall_job_s_p50": statistics.median(walls),
        "wall_job_s_tail": walls[tail_rank - 1],
        "wall_realtime_factor": pass_machine / pass_wall,
        "wall_plan_ticks_per_s": pass_ticks / pass_wall,
        "setup_runs": SETUP_RUNS,
        "machine_s_jobs": len(facts),
    }
    if simulated:  # --report outcomes, over the batch's distinct jobs
        details["report"] = {
            "barrier_wait_s": {"value": statistics.fmean(
                f.barrier_wait_s for f in simulated), "unit": "sim_s"},
            "mean_deviation_mm": {"value": statistics.fmean(
                f.mean_deviation_mm for f in simulated), "unit": "mm"},
            "max_deviation_mm": {"value": max(
                f.max_deviation_mm for f in simulated), "unit": "mm"},
        }
    return metrics, details


def traced_run(jobs, batch, seconds, checker, tracer):
    """Full passes over the batch until `seconds` have passed; each job runs
    untraced through the CLI and then as a traced replay, and both must write
    the same bytes.  Returns (per-layer metrics, details)."""
    checker.record(batch[0], lambda: jobs.run_cli(batch[0]))  # warm-up
    untraced, traced = [], []
    sums = defaultdict(float)
    deviations = []
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        passes += 1
        for p in batch:
            plain = checker.record(p, lambda: jobs.run_cli(p))
            objects = {}

            def replay():
                elapsed, stdout, done = jobs.run_traced(p, tracer)
                objects.update(done)
                return elapsed, 0, stdout

            with_spans = checker.record(p, replay)
            if plain is None or with_spans is None:
                continue
            untraced.append(plain[0])
            traced.append(with_spans[0])
            _count(sums, objects)
            if "report" in objects:
                deviations.append((objects["report"].mean_deviation,
                                   objects["report"].max_deviation))

    n = len(traced)
    if n == 0:
        return None, {}
    tm = [jobs.trace_bytes_per_sample(p) for p in batch[:TRACEMALLOC_JOBS]
          if p.job.command == "simulate"]
    total, own = tracer.seconds_by_name()
    calls, agg = tracer.calls, tracer.seconds
    metrics = {
        "sim.measure_fidelity_s": total["sim.measure_fidelity"] / n,
        "sim.fidelity_pairs": sums["pairs"] / n,
        "sim.run_s": total["sim.run"] / n,
        "sim.run_self_s": own["sim.run"] / n,
        "sim.samples": sums["samples"] / n,
        "sim.trace_bytes_per_sample": statistics.fmean(tm) if tm else 0.0,
        "sim.steps_per_tick": sums["steps"] / sums["sim_ticks"]
        if sums["sim_ticks"] else 0.0,
        "sim.barrier_wait_fraction": sums["wait"] / sums["duration"]
        if sums["duration"] else 0.0,
        "sim.barrier_wait_s": sums["wait"] / n,
        "sim.mean_deviation_mm": statistics.fmean(d[0] for d in deviations)
        if deviations else 0.0,
        "sim.max_deviation_mm": max(d[1] for d in deviations)
        if deviations else 0.0,
        "sim.overlap_diagnostic_s": total["sim.overlap_diagnostic"] / n,
        "sim.export_csv_s": total["sim.export_csv"] / n,
        "sim.export_svg_s": total["sim.export_svg"] / n,
        "coordinator.plan_program_s": total["coordinator.plan_program"] / n,
        "coordinator.plan_program_self_s": own["coordinator.plan_program"] / n,
        "coordinator.ticks": sums["ticks"] / n,
        "coordinator.barriers": sums["barriers"] / n,
        "coordinator.serialize_command_stream_s":
            total["coordinator.serialize_command_stream"] / n,
        "coordinator.stream_bytes": sums["stream_bytes"] / n,
        "gcode.parse_program_s": total["gcode.parse_program"] / n,
        "gcode.interpret_s": total["gcode.interpret"] / n,
        "gcode.lines": sums["lines"] / n,
        "gcode.segments": sums["segments"] / n,
        "config.load_config_s": total["config.load_config"] / n,
        "cli.self_s": own["cli.main"] / n,
        "trace.overhead_s": statistics.fmean(traced)
        - statistics.fmean(untraced),
    }
    for name in ("robot.step_dynamics", "robot.controller", "kinematics.fk",
                 "kinematics.ik", "kinematics.workspace_contains"):
        metrics[f"{name}_calls"] = calls[name] / n
        metrics[f"{name}_s"] = agg[name] / n

    self_times = {**{k: v / n for k, v in own.items()},
                  **{k: v / n for k, v in agg.items()}}
    ranking = sorted(self_times.items(), key=lambda kv: -kv[1])
    details = {
        "jobs_traced": n,
        "passes": passes,
        "tracemalloc_jobs": len(tm),
        "traced_job_s_mean": statistics.fmean(traced),
        "untraced_job_s_mean": statistics.fmean(untraced),
        "self_s_per_job": {k: round(v, 6) for k, v in ranking},
        "largest_self_time": ranking[0][0],
    }
    return metrics, details


def _count(sums, objects):
    """Add one traced job's work counts, outside every timed region."""
    result, plan = objects["result"], objects["plan"]
    sums["lines"] += len(objects["text"].splitlines())
    sums["segments"] += len(result.segments)
    sums["ticks"] += len(plan.ticks)
    sums["barriers"] += len(plan.barriers)
    sums["stream_bytes"] += len(objects["stream"].encode())
    trace = objects.get("trace")
    if trace is None:
        return
    samples = trace.samples
    extruding = sum(1 for s in samples if s.extruding)
    printing = sum(1 for s in result.segments if s.kind == "print")
    sums["samples"] += len(samples)
    sums["pairs"] += extruding * printing
    sums["steps"] += len(samples) - 1
    sums["sim_ticks"] += len(plan.ticks)
    sums["wait"] += trace.barrier_wait_total
    sums["duration"] += samples[-1].t


def import_checkout(root: str) -> str:
    """Put the checkout's src/ first on sys.path and import swarmfab from
    it; returns the src path.  Raises SystemExit(2) when `root` holds no
    swarmfab sources, so nothing is measured."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "swarmfab", "__init__.py")):
        print(f"error: {root} holds no src/swarmfab; run from the root of a "
              "swarmfab checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, src)
    import swarmfab
    if not os.path.realpath(swarmfab.__file__).startswith(
            os.path.realpath(src) + os.sep):
        print(f"error: imported swarmfab from {swarmfab.__file__}, not from "
              f"{src}", file=sys.stderr)
        raise SystemExit(2)
    return src


def load_references() -> dict[str, dict[str, str]]:
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = import_checkout(root)
    import jobs

    out_dir = os.path.join(root, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    try:
        batch = [jobs.prepare(job, workdir)
                 for job in workloads.generate(args.workload, args.seed)]
        references = load_references() if args.seed == DEFAULT_SEED else None
        checker = jobs.Checker(references)
        if args.trace:
            tracer = jobs.Tracer()
            metrics, details = traced_run(jobs, batch, args.seconds, checker,
                                          tracer)
            tracer.dump(os.path.join(
                out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"))
            units = PER_LAYER_UNITS
        else:
            setup_s = measure_setup(src, batch[0].config_path)
            timed = closed_loop(jobs, batch, args.seconds, checker)
            metrics, details = (end_to_end(timed, setup_s) if timed
                                else (None, {}))
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if metrics is None:
        print("error: every job failed", file=sys.stderr)
        return 1

    details = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "threads": THREAD_ENV, "batch_jobs": len(batch),
        "attempted": checker.attempted, "failed": checker.failed,
        "fail_ratio": {"value": checker.failed / checker.attempted,
                       "unit": "ratio"},
        "reference_digests_checked": references is not None,
        **details,
    }
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
