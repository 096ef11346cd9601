"""Fast self-test of the benchmark (about half a minute).

Run from the root of a swarmfab checkout:

    python3 perfbench/selftest.py

On a tiny batch (the first two default-seed jobs of each workload) it checks
that every metric BENCHMARK.json names is emitted with its unit, that no job
fails (fail_ratio 0, reference digests included), and that the traced replay
writes byte-identical outputs to the CLI.  It also checks that the benchmark
refuses, without printing a result, to run in a directory that holds no
swarmfab sources.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import run
import workloads


def _declared(benchmark: dict, key: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in benchmark[key]}


def main() -> int:
    root = os.getcwd()
    src = run.import_checkout(root)
    import jobs

    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    problems = []
    out_dir = os.path.join(root, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=out_dir)
    try:
        setup_s = None
        for workload in workloads.WORKLOADS:
            batch = [jobs.prepare(job, workdir) for job in
                     workloads.generate(workload, run.DEFAULT_SEED)[:2]]
            if setup_s is None:
                setup_s = run.measure_setup(src, batch[0].config_path)

            for p in batch:  # traced replay == CLI, byte for byte
                _, rc, stdout = jobs.run_cli(p)
                plain = jobs.digests(p, stdout)
                _, stdout, _ = jobs.run_traced(p, jobs.Tracer())
                if jobs.digests(p, stdout) != plain:
                    problems.append(f"{p.job.name}: traced outputs differ")

            checker = jobs.Checker(run.load_references())
            timed = run.closed_loop(jobs, batch, 0.0, checker)
            e2e, _ = run.end_to_end(timed, setup_s)
            layers, _ = run.traced_run(jobs, batch, 0.0, checker,
                                       jobs.Tracer())
            for key, metrics, units in (
                    ("end_to_end", e2e, run.END_TO_END_UNITS),
                    ("per_layer", layers, run.PER_LAYER_UNITS)):
                emitted = {name: units[name] for name in metrics}
                if emitted != _declared(benchmark, key):
                    problems.append(f"{workload}: {key} metrics or units "
                                    "differ from BENCHMARK.json")
            if any(not v > 0 for v in e2e.values()):
                problems.append(f"{workload}: an end-to-end metric is not "
                                f"positive: {e2e}")
            if checker.failed:
                problems.append(f"{workload}: fail_ratio "
                                f"{checker.failed}/{checker.attempted}")

        # a directory with only the benchmark in it must be refused
        bare = os.path.join(workdir, "bare")
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "plot_hatch",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
        if done.returncode == 0 or done.stdout:
            problems.append("run.py measured in a directory without sources")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
