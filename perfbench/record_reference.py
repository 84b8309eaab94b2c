"""Record the reference values the correctness gate compares against.

    python3 perfbench/record_reference.py

Runs every job of every workload through the CLI once for each seed in
``SEEDS``, requires it to pass the invariant checks, and stores its CSV columns under
``perfbench/reference/<workload>/``: ``seed<N>.npz`` for the seeded jobs and
``common.npz`` for the jobs whose input does not depend on the seed.  Record
only from a commit whose outputs are known to be right.
"""

from __future__ import annotations

import os
import shutil
import sys

import envinfo
import run

SEEDS = range(16)


def main() -> int:
    for key in envinfo.THREAD_VARS:
        os.environ[key] = str(run.BLAS_THREADS)
    import numpy as np

    import gate
    import workloads

    cli = run._import_program()
    workdir = run.OUT / "record"
    try:
        for name in workloads.WORKLOADS:
            target = run.REFERENCE / name
            target.mkdir(parents=True, exist_ok=True)
            common = {}
            for seed in SEEDS:
                workdir.mkdir(parents=True, exist_ok=True)
                jobs = workloads.WORKLOADS[name](seed)
                runner = run.Runner(cli, jobs, workdir, reference={})
                record = runner.run_pass("record")
                bad = [(j["job"], j["failures"]) for j in record["jobs"] if not j["ok"]]
                if bad:
                    print(f"{name} seed {seed}: refusing to record failing jobs {bad}", file=sys.stderr)
                    return 1
                seeded = {}
                for job in jobs:
                    if not job.writes_csv:
                        continue
                    header, numeric, text = gate.read_table(workdir / f"{job.name}.csv")
                    entry = gate.reference_entry(header, numeric, text)
                    (seeded if job.seeded else common)[job.name] = entry
                np.savez_compressed(target / f"seed{seed}.npz",
                                    **{f"{job}.{part}": v for job, e in seeded.items() for part, v in e.items()})
                print(f"{name} seed {seed}: recorded {sorted(seeded)}")
                shutil.rmtree(workdir)
            if common:
                np.savez_compressed(target / "common.npz",
                                    **{f"{job}.{part}": v for job, e in common.items() for part, v in e.items()})
                print(f"{name}: recorded seed-independent {sorted(common)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
