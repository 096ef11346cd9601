"""Regenerate references.json: the SHA-256 of every output (report, SVG,
CSV, command stream) of every job in the default-seed batches, as the CLI
writes them.  A run with the default seed fails any job whose outputs
differ from these digests.

Run from the root of a swarmfab checkout, only after a change that is meant
to alter outputs:

    python3 perfbench/make_references.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run
import workloads


def main() -> int:
    root = os.getcwd()
    run.import_checkout(root)
    import jobs

    out_dir = os.path.join(root, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="references-", dir=out_dir)
    digests = {}
    try:
        for workload in workloads.WORKLOADS:
            for job in workloads.generate(workload, run.DEFAULT_SEED):
                p = jobs.prepare(job, workdir)
                _, rc, stdout = jobs.run_cli(p)
                jobs.check(p, rc, stdout)
                digests[job.name] = jobs.digests(p, stdout)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(run.HERE, "references.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"seed": run.DEFAULT_SEED, "digests": digests}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote digests of {len(digests)} jobs", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
