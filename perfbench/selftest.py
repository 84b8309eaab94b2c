"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

1. Gate: runs one point_sweep pass with a CLI stand-in that perturbs a single
   value of one job's CSV after the real CLI wrote it, in three ways (a shift
   of 1e-6, a NaN, a measure outside [0, 1]).  Each time exactly that job must
   count as failed, and the unperturbed pass must fail nothing.
2. Counters: runs every workload traced twice, in two fresh processes with
   the same seed, and requires every count metric to be identical.  Traced
   and untraced runs must report exactly the metrics BENCHMARK.json declares.

Exits 0 when every check holds.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys

import envinfo
import run

SEED = 1  # a seed with shipped reference values


class PerturbingCli:
    """Runs the real CLI, then rewrites one cell of one job's output."""

    def __init__(self, cli, output_name: str, column: str, change):
        self.cli = cli
        self.output_name = output_name
        self.column = column
        self.change = change

    def main(self, argv):
        rc = self.cli.main(argv)
        if argv[-1].endswith(self.output_name):
            with open(argv[-1], newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            col = rows[0].index(self.column)
            rows[len(rows) // 2][col] = self.change(rows[len(rows) // 2][col])
            with open(argv[-1], "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows(rows)
        return rc


def gate_selftest() -> list:
    import gate
    import workloads

    cli = run._import_program()
    jobs = workloads.point_sweep(SEED)
    reference = gate.load_reference(run.REFERENCE / "point_sweep", SEED)
    if not all(job.name in reference for job in jobs if job.writes_csv):
        return [f"no reference values shipped for point_sweep seed {SEED}"]
    cases = [
        ("unperturbed", None, None, None),
        ("shift by 1e-6", "sweep_single_n12.csv", "f_re", lambda v: repr(float(v) + 1e-6)),
        ("NaN", "qst_long_n12.csv", "out_p1", lambda v: "nan"),
        ("measure above 1", "figure7.csv", "c4", lambda v: "1.5"),
    ]
    problems = []
    workdir = run.OUT / "selftest"
    try:
        for label, output, column, change in cases:
            workdir.mkdir(parents=True, exist_ok=True)
            stand_in = cli if output is None else PerturbingCli(cli, output, column, change)
            runner = run.Runner(stand_in, jobs, workdir, reference)
            record = runner.run_pass("selftest")
            failed = [j["job"] for j in record["jobs"] if not j["ok"]]
            expected = [] if output is None else [output[:-len(".csv")]]
            verdict = "ok" if failed == expected else "WRONG"
            print(f"gate {verdict}: {label}: failed jobs {failed}, expected {expected}")
            for j in record["jobs"]:
                for failure in j["failures"]:
                    print(f"    {j['job']}: {failure}")
            if failed != expected:
                problems.append(f"gate case {label!r} failed {failed}, expected {expected}")
            shutil.rmtree(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return problems


def _declared_metrics(section: str) -> set:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[section]}


def _result(workload: str, trace: int) -> dict:
    """Result line of a one-second run; it must be correct and report exactly the declared metrics."""
    cmd = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: run exited {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload}: trace {trace} run not correct")
    section = "per_layer" if trace else "end_to_end"
    if set(result["metrics"]) != _declared_metrics(section):
        raise RuntimeError(f"{workload}: trace {trace} metrics differ from the {section} list in BENCHMARK.json")
    return result


def _traced_counts(workload: str) -> dict:
    metrics = _result(workload, 1)["metrics"]
    return {name: m["value"] for name, m in metrics.items() if name in run.LAYER_COUNTS}


def counter_selftest() -> list:
    import workloads

    problems = []
    _result("point_sweep", 0)
    for workload in workloads.WORKLOADS:
        first, second = _traced_counts(workload), _traced_counts(workload)
        differ = sorted(k for k in first if first[k] != second.get(k))
        print(f"counters {'ok' if not differ else 'DIFFER'}: {workload}: "
              + ", ".join(f"{k}={v}" for k, v in first.items()))
        if differ:
            problems.append(f"{workload}: counters differ across runs: {differ}")
    return problems


def main() -> int:
    for key in envinfo.THREAD_VARS:
        os.environ[key] = str(run.BLAS_THREADS)

    problems = gate_selftest() + counter_selftest()
    for problem in problems:
        print(f"SELFTEST FAILED: {problem}")
    print("selftest " + ("passed" if not problems else "FAILED"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
