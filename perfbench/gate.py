"""Correctness gate: invariants on every output, plus recorded reference values.

A job passes when it exits 0, its CSV satisfies the invariants below, and, for
the seeds that ship a reference file, every numeric column matches the values
recorded from a known-good commit within ``REFERENCE_ATOL``.  Values are
compared as numbers, not bytes, so documented round-off changes still pass.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

ORACLE_TOL = 1e-8  # protocols.ORACLE_TOL at the commit that defined the gate
CPTP_FLOOR = -1e-9
MEASURE_TOL = 1e-9
REFERENCE_ATOL = 1e-8
# Reference values are stored as integer multiples of this step, far below
# REFERENCE_ATOL, because integers compress better than raw doubles.
REFERENCE_QUANTUM = 2.0**-32

_UNIT_COLUMNS = {
    "concurrence", "initial_concurrence", "ratio", "purity", "closed_form_fidelity",
    "out_p1", "tau4", "c4",
}


def is_unit_interval_column(name: str) -> bool:
    """Columns holding entanglement measures, purities or amplitude moduli."""
    return name in _UNIT_COLUMNS or name.startswith(("c_", "tau3_")) or name.endswith("_abs")


def read_table(path) -> tuple:
    """Header, numeric columns (name -> float array) and text columns (name -> list)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError("empty CSV")
    header, body = rows[0], rows[1:]
    if any(len(row) != len(header) for row in body):
        raise ValueError("ragged CSV rows")
    numeric, text = {}, {}
    for idx, name in enumerate(header):
        cells = [row[idx] for row in body]
        try:
            numeric[name] = np.array([float(c) for c in cells], dtype=float)
        except ValueError:
            text[name] = cells
    return header, numeric, text


def invariant_failures(numeric: dict) -> list:
    """Finite values, measures in [0, 1], oracle deviation and Choi floor."""
    failures = []
    for name, values in numeric.items():
        if not np.all(np.isfinite(values)):
            failures.append(f"non-finite value in column {name!r}")
            continue
        if values.size == 0:
            continue
        if is_unit_interval_column(name) and (
            values.min() < -MEASURE_TOL or values.max() > 1.0 + MEASURE_TOL
        ):
            failures.append(f"column {name!r} leaves [0, 1]: [{values.min():.3e}, {values.max():.3e}]")
        if name == "oracle_dev" and values.max() > ORACLE_TOL:
            failures.append(f"oracle_dev {values.max():.3e} > {ORACLE_TOL:.0e}")
        if name == "cptp_min_eig" and values.min() < CPTP_FLOOR:
            failures.append(f"cptp_min_eig {values.min():.3e} < {CPTP_FLOOR:.0e}")
    return failures


def reference_failures(header, numeric: dict, text: dict, ref: dict) -> list:
    """Compare one job's table against its recorded reference."""
    ref_header = json.loads(str(ref["header"]))
    if header != ref_header:
        return [f"header {header} differs from reference {ref_header}"]
    failures = []
    ref_text = json.loads(str(ref["text"]))
    for name, cells in text.items():
        if cells != ref_text.get(name):
            failures.append(f"text column {name!r} differs from reference")
    ref_values = ref["values"] * REFERENCE_QUANTUM
    names = [name for name in header if name in numeric]
    got = np.column_stack([numeric[name] for name in names]) if names else np.zeros((0, 0))
    if got.shape != ref_values.shape:
        return failures + [f"table shape {got.shape} differs from reference {ref_values.shape}"]
    if got.size:
        dev = np.abs(got - ref_values)
        worst = np.nanmax(np.where(np.isnan(dev), np.inf, dev), axis=0)
        for name, d in zip(names, worst):
            if not d <= REFERENCE_ATOL:
                failures.append(f"column {name!r} deviates from reference by {d:.3e}")
    return failures


def reference_entry(header, numeric: dict, text: dict) -> dict:
    """Arrays to store for one job in a reference file."""
    names = [name for name in header if name in numeric]
    values = np.column_stack([numeric[name] for name in names]) if names else np.zeros((0, 0))
    quanta = np.round(values / REFERENCE_QUANTUM).astype(np.int64)
    return {"header": np.array(json.dumps(header)), "text": np.array(json.dumps(text)), "values": quanta}


def load_reference(directory: Path, seed: int) -> dict:
    """job name -> {header, text, values} for every job of this seed that has a reference.

    ``common.npz`` holds the seed-independent jobs; ``seed<N>.npz`` the seeded
    jobs of the seeds that ship one.
    """
    out = {}
    for path in (directory / "common.npz", directory / f"seed{seed}.npz"):
        if not path.is_file():
            continue
        with np.load(path, allow_pickle=False) as data:
            for key in data.files:
                job, part = key.rsplit(".", 1)
                out.setdefault(job, {})[part] = data[key]
    return out


def check_job(job, rc, stdout: str, output: Path, reference: dict | None) -> tuple:
    """Every reason a finished job counts as failed (empty when it passed) and its row count.

    ``reference`` is the job's recorded entry, or None to check invariants only.
    """
    if rc != 0:
        return [f"exit status {rc}"], None
    if not job.writes_csv:
        lines = stdout.splitlines()
        if any(line.startswith("FAIL") for line in lines) or "verification passed" not in lines:
            return ["verification suite did not pass"], None
        return [], None
    try:
        header, numeric, text = read_table(output)
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"], None
    rows = len(next(iter(numeric.values()))) if numeric else len(next(iter(text.values()), []))
    failures = invariant_failures(numeric)
    if reference is not None:
        failures += reference_failures(header, numeric, text, reference)
    return failures, rows
