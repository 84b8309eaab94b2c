"""spinmaps benchmark: run one seeded workload through the CLI and report its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.  One
client in one process runs the workload's job list in a closed loop (the next
CLI call starts when the previous one returns), pass after pass, for S seconds
after one warm-up pass.  Every job's output goes through the correctness gate.

BLAS runs single-threaded in every pass, so every pass is the plain
single-thread baseline.  On small shared machines a second BLAS thread waits
on a core other tenants also use, and the pass time then swings far more
between runs than with one thread.

The process is pinned to one CPU, and a fixed calibration slice (see
``calibration.py``) samples that CPU's speed every 50 ms of a pass and around
each set-up measurement.  Times are reported at the slice's reference speed,
which cancels most of the drift in speed of a shared machine; the times on the
clock are printed and recorded beside them.

``--trace 0`` reports the end-to-end metrics: median pass time, median set-up
time of a fresh interpreter (both at reference speed), peak RSS and the share
of jobs that succeeded.
``--trace 1`` alternates untraced and traced passes and reports per-layer self
times, exact counters and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(environment, every pass and job, traced spans) goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import envinfo

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = BENCH / "reference"

BLAS_THREADS = 1
SETUP_SAMPLES = 8  # half before the measured passes, half after

# per-layer metric -> span names whose self time it sums
LAYER_SELF_TIME = {
    "network.hamiltonian_s": ("network.hamiltonian",),
    "network.eigh_s": ("network.propagator",),
    "network.table_s": ("network.table",),
    "maps.kraus_s": ("maps.kraus",),
    "maps.apply_s": ("maps.apply",),
    "maps.cptp_s": ("maps.cptp",),
    "measures.concurrence_s": ("measures.concurrence",),
    "measures.four_qubit_s": ("measures.four_qubit",),
    "measures.closed_form_s": ("measures.closed_form",),
    "oracle.build_s": ("oracle.build",),
    "oracle.evolve_s": ("oracle.evolve",),
    "oracle.reduce_s": ("oracle.reduce",),
    "protocols.self_s": ("protocols.run", "protocols.sweep", "protocols.four_qubit_measure_sweep"),
    "cli.self_s": ("cli.main",),
}

# per-layer metric -> (counter, scale, unit); flop counts are computed from array sizes
LAYER_COUNTS = {
    "network.table_calls": ("network.table_calls", 1, "count"),
    "network.propagators": ("network.propagators", 1, "count"),
    "network.table_gflop": ("network.table_flop", 1e-9, "GFLOP"),
    "maps.kraus_ops": ("maps.kraus_ops", 1, "count"),
    "maps.apply_calls": ("maps.apply_calls", 1, "count"),
    "measures.concurrence_calls": ("measures.concurrence_calls", 1, "count"),
    "measures.four_qubit_calls": ("measures.four_qubit_calls", 1, "count"),
    "measures.closed_form_calls": ("measures.closed_form_calls", 1, "count"),
    "oracle.reduced_output_calls": ("oracle.reduced_output_calls", 1, "count"),
    "oracle.evolve_gflop": ("oracle.evolve_flop", 1e-9, "GFLOP"),
    "protocols.points": ("protocols.points", 1, "count"),
    "cli.csv_bytes": ("cli.csv_bytes", 1, "bytes"),
}


class BenchmarkError(Exception):
    """The benchmark cannot run here (no program, unknown workload)."""


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def _import_program():
    """Import spinmaps.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "spinmaps" / "cli.py").is_file():
        raise BenchmarkError(f"no spinmaps sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import spinmaps
    import spinmaps.cli

    if SRC.resolve() not in Path(spinmaps.__file__).resolve().parents:
        raise BenchmarkError(f"spinmaps imported from {spinmaps.__file__}, not from {SRC}")
    return spinmaps.cli


def measure_setup(samples: int) -> list:
    """(wall, reference) seconds for each of ``samples`` fresh interpreters to import spinmaps.cli.

    The interpreter runs on the pinned CPU; its speed is sampled just before and
    just after it, since a slice taken while it runs would share the CPU with it.
    """
    import calibration

    cmd = [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); import spinmaps.cli"]
    times = []
    for _ in range(samples):
        before = calibration.speed_factor()
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=120)
        wall = time.perf_counter() - start
        times.append((wall, wall * (before + calibration.speed_factor()) / 2))
        if proc.returncode != 0:
            raise BenchmarkError(f"fresh import failed: {proc.stderr.decode(errors='replace')[-500:]}")
    return times


class Runner:
    """Runs passes of one job list and checks every output."""

    def __init__(self, cli, jobs, workdir: Path, reference):
        self.cli = cli
        self.jobs = jobs
        self.workdir = workdir
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.passes = []
        self.argvs = []
        for job in jobs:
            config = workdir / f"{job.name}.yaml"
            if job.config is not None:
                config.write_text(_yaml_dump(job.config), encoding="utf-8")
            output = workdir / f"{job.name}.csv"
            self.argvs.append([a.format(config=config, output=output) for a in job.argv])

    def run_pass(self, kind: str, tracer=None) -> dict:
        import calibration
        import gate

        for job in self.jobs:  # a job that writes nothing must not pass on an earlier pass's file
            (self.workdir / f"{job.name}.csv").unlink(missing_ok=True)
        outcomes = []
        with calibration.Sampler() as sampler:
            start = time.perf_counter()
            for idx, (job, argv) in enumerate(zip(self.jobs, self.argvs)):
                if tracer is not None:
                    tracer.job = idx
                out, err = io.StringIO(), io.StringIO()
                t0 = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        rc = self.cli.main(argv)
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 1
                except Exception:  # an uncaught exception fails the job, not the benchmark
                    rc = None
                    err.write(traceback.format_exc(limit=5))
                outcomes.append((job, rc, time.perf_counter() - t0, out.getvalue(), err.getvalue()))
            end = time.perf_counter()
        wall, reference = calibration.reference_seconds(start, end, sampler.samples)

        record = {"pass": len(self.passes), "kind": kind, "wall_s": wall, "reference_s": reference,
                  "calibration_slices": len(sampler.samples), "blas_threads": envinfo.blas_threads(),
                  "csv_bytes": 0, "jobs": []}
        for job, rc, latency, stdout, stderr in outcomes:
            output = self.workdir / f"{job.name}.csv"
            failures, rows = gate.check_job(job, rc, stdout, output, self.reference.get(job.name))
            stderr_tail = stderr.strip().splitlines()[-1] if stderr.strip() else None
            if rc is None:
                failures.append(f"uncaught exception: {stderr_tail}")
            if job.writes_csv and output.is_file():
                record["csv_bytes"] += output.stat().st_size
            self.attempted += 1
            self.failed += bool(failures)
            record["jobs"].append({"job": job.name, "latency_s": latency, "rows": rows, "exit": rc,
                                   "stderr": stderr_tail, "ok": not failures, "failures": failures})
        self.passes.append(record)
        return record


def _yaml_dump(config: dict) -> str:
    import yaml

    return yaml.safe_dump(config, sort_keys=False)


def _job_summary(passes: list) -> list:
    summary = {}
    for record in passes:
        for job in record["jobs"]:
            entry = summary.setdefault(job["job"], {"job": job["job"], "latency_s": [], "rows": set(),
                                                    "exits": set(), "failed": 0})
            entry["latency_s"].append(job["latency_s"])
            entry["rows"].add(job["rows"])
            entry["exits"].add(job["exit"])
            entry["failed"] += not job["ok"]
    return [{"job": e["job"], "median_latency_s": statistics.median(e["latency_s"]), "samples": len(e["latency_s"]),
             "rows": sorted(r for r in e["rows"] if r is not None), "exits": sorted(e["exits"], key=str),
             "failed": e["failed"]} for e in summary.values()]


def run_untraced(runner: Runner, seconds: float) -> tuple:
    """End-to-end metrics from untraced passes, and the samples behind them."""
    measure_setup(1)  # may still compile bytecode
    setup = measure_setup(SETUP_SAMPLES // 2)
    runner.run_pass("warmup")
    start = time.perf_counter()
    measured = [runner.run_pass("measure")]
    # Peak memory after a fixed amount of work.  Each later pass can only add heap
    # fragmentation (about one 780 x 780 complex array on sector_scan after seven
    # passes), so reading it at the end would make a faster program, which fits more
    # passes into the run, read higher.
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    while time.perf_counter() - start < seconds:
        measured.append(runner.run_pass("measure"))
    setup += measure_setup(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    error_rate = runner.failed / runner.attempted
    metrics = {
        "wall_s": {"value": statistics.median(r["reference_s"] for r in measured), "unit": "s"},
        "setup_s": {"value": statistics.median(ref for _, ref in setup), "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        "success_rate": {"value": 1.0 - error_rate, "unit": "ratio"},
    }
    raw_wall = statistics.median(r["wall_s"] for r in measured)
    raw_setup = statistics.median(wall for wall, _ in setup)
    detail = {"pass_s": [(r["wall_s"], r["reference_s"]) for r in measured], "setup_s": setup}
    print(f"wall_s       {metrics['wall_s']['value']:.4f} s      median of {len(measured)} passes, tracing off, "
          f"at reference speed ({raw_wall:.4f} s on the clock)")
    print(f"setup_s      {metrics['setup_s']['value']:.4f} s      median of {len(setup)} fresh interpreters, "
          f"at reference speed ({raw_setup:.4f} s on the clock)")
    print(f"peak_rss_mb  {metrics['peak_rss_mb']['value']:.1f} MB")
    return metrics, detail


def run_traced(runner: Runner, seconds: float, workload: str) -> tuple:
    """Per-layer metrics from alternating untraced and traced passes, plus the trace checks."""
    import tracing
    import workloads

    tracer = tracing.Tracer()
    runner.run_pass("warmup")
    untraced, traced, problems, spans_by_pass = [], [], [], []
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < seconds:
        untraced.append(runner.run_pass("measure")["reference_s"])
        tracer.install()
        try:
            record = runner.run_pass("traced", tracer)
        finally:
            tracer.uninstall()
        spans, counts = tracer.take()
        counts["cli.csv_bytes"] = record["csv_bytes"]
        record["self_s"] = dict(tracing.self_times(spans))
        record["counts"] = dict(counts)
        record["spans_fired"] = dict(tracing.fired(spans))
        spans_by_pass.append((record["pass"], spans))
        traced.append(record)

    first = traced[0]
    for record in traced[1:]:
        if record["counts"] != first["counts"]:
            diff = sorted(k for k in set(first["counts"]) | set(record["counts"])
                          if first["counts"].get(k) != record["counts"].get(k))
            problems.append(f"counters differ between traced passes {first['pass']} and {record['pass']}: {diff}")
    for name in workloads.EXPECTED_SPANS[workload]:
        missing = [r["pass"] for r in traced if not r["spans_fired"].get(name)]
        if missing:
            problems.append(f"span {name!r} never fired in traced passes {missing}")

    metrics = {}
    for metric, names in LAYER_SELF_TIME.items():
        value = statistics.median(sum(r["self_s"].get(n, 0.0) for n in names) for r in traced)
        metrics[metric] = {"value": value, "unit": "s"}
    for metric, (counter, scale, unit) in LAYER_COUNTS.items():
        metrics[metric] = {"value": first["counts"].get(counter, 0) * scale, "unit": unit}
    untraced_wall = statistics.median(untraced)
    traced_wall = statistics.median(r["reference_s"] for r in traced)
    metrics["trace.overhead_ratio"] = {"value": traced_wall / untraced_wall, "unit": "ratio"}
    detail = {"untraced_reference_s": untraced, "traced_reference_s": [r["reference_s"] for r in traced],
              "tracing_overhead_s": traced_wall - untraced_wall, "problems": problems}
    for metric, entry in metrics.items():
        print(f"{metric:30s} {entry['value']:.6g} {entry['unit']}")
    print(f"tracing overhead: {traced_wall - untraced_wall:+.4f} s per pass "
          f"({len(traced)} traced / {len(untraced)} untraced passes)")
    for problem in problems:
        print(f"TRACE CHECK FAILED: {problem}")
    return metrics, detail, spans_by_pass


def _write_spans(path: Path, spans_by_pass):
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("pass,span,name,start,end,parent,job\n")
        for pass_idx, spans in spans_by_pass:
            for idx, (name, start, end, parent, job) in enumerate(spans):
                fh.write(f"{pass_idx},{idx},{name},{start!r},{end!r},{parent},{job}\n")


def main(argv=None) -> int:
    args = _parse(argv)
    started = time.time()
    load_start = os.getloadavg()[0]

    # Each CPU of a shared machine drifts in speed on its own, so the calibration
    # slices must run on the CPU that runs the jobs.
    allowed_cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed_cpus[-1]})

    # BLAS reads its thread count when numpy loads, so pin it before any import of numpy.
    inherited = {key: os.environ.get(key) for key in envinfo.THREAD_VARS}
    for key in envinfo.THREAD_VARS:
        os.environ[key] = str(BLAS_THREADS)

    import gate
    import workloads

    try:
        if args.workload not in workloads.WORKLOADS:
            raise BenchmarkError(f"unknown workload {args.workload!r}, expected one of {sorted(workloads.WORKLOADS)}")
        cli = _import_program()
    except (BenchmarkError, ImportError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(started)}-{os.getpid()}"
    workdir = OUT / "work" / tag
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        jobs = workloads.WORKLOADS[args.workload](args.seed)
        reference = gate.load_reference(REFERENCE / args.workload, args.seed)
        runner = Runner(cli, jobs, workdir, reference)
        env = envinfo.record(ROOT, SRC, inherited, allowed_cpus, allowed_cpus[-1])
        print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs, closed loop, 1 client; "
              f"BLAS threads {env['blas_threads']} (nproc {env['nproc']}, pinned to CPU {env['pinned_cpu']}); "
              f"reference values checked for {sum(j.name in reference for j in jobs)} of {len(jobs)} jobs "
              f"(the rest: invariants only)")
        spans_by_pass = None
        if args.trace:
            metrics, detail, spans_by_pass = run_traced(runner, args.seconds, args.workload)
            correct = runner.failed == 0 and not detail["problems"]
        else:
            metrics, detail = run_untraced(runner, args.seconds)
            correct = runner.failed == 0
    except BenchmarkError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    jobs_summary = _job_summary(runner.passes)
    for entry in jobs_summary:
        print(f"job {entry['job']:24s} median {entry['median_latency_s']:.4f} s  rows {entry['rows']}  "
              f"exits {entry['exits']}  failed {entry['failed']}/{entry['samples']}")
    for record in runner.passes:
        for job in record["jobs"]:
            for failure in job["failures"]:
                print(f"FAILED pass {record['pass']} job {job['job']}: {failure}")

    print(f"error_rate   {runner.failed / runner.attempted:.4f} ratio  "
          f"{runner.failed} failed / {runner.attempted} attempted")
    env["load_avg_1m"] = {"start": load_start, "end": os.getloadavg()[0]}
    result = {"correct": correct, "attempted": runner.attempted, "failed": runner.failed, "metrics": metrics}
    full = {"args": vars(args), "env": env, "result": result, "detail": detail,
            "jobs": jobs_summary, "passes": runner.passes}
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{tag}.json").write_text(json.dumps(full, indent=1, default=str), encoding="utf-8")
    if spans_by_pass:
        _write_spans(results_dir / f"{tag}.spans.csv.gz", spans_by_pass)
    print("env " + json.dumps(env, default=str))
    print(f"record written to {(results_dir / f'{tag}.json').relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
