"""Seeded job lists of the benchmark workloads.

Each job is one ``spinmaps`` CLI call.  The seed draws the couplings, fields,
site choices, time grids and Werner weights; it never changes a network size or
a grid length, so every seed of a workload costs the same work and run-to-run
spread across seeds measures the machine, not the inputs.  Time grids are kept
short so one pass of a job list takes a few seconds and a run holds enough
passes for its median to ride out a slow stretch of a shared machine.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Job:
    """One CLI call: ``argv`` uses ``{config}`` and ``{output}`` placeholders.

    ``seeded`` is False for jobs whose input does not depend on the seed; their
    reference values are shared by every seed.
    """

    name: str
    argv: tuple
    config: dict | None = None
    writes_csv: bool = True
    seeded: bool = True


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**64, zlib.crc32(workload.encode())])


def _floats(values) -> list:
    return [round(float(x), 6) for x in values]


def _chain(rng, n: int) -> dict:
    """Open XY chain with random couplings, ZZ couplings and fields."""
    return {
        "kind": "chain",
        "couplings": _floats(rng.uniform(0.5, 1.5, n - 1)),
        "zz_couplings": _floats(rng.uniform(-0.3, 0.3, n - 1)),
        "fields": _floats(rng.uniform(-0.2, 0.2, n)),
    }


def _times(rng, start, stop_low, stop_high, points: int) -> dict:
    return {"start": start, "stop": round(float(rng.uniform(stop_low, stop_high)), 6), "points": points}


def _pair(rng, n: int) -> list:
    return sorted(int(s) for s in rng.choice(n, size=2, replace=False))


def _run(name, config) -> Job:
    return Job(name, ("run", "{config}", "--output", "{output}"), config)


def _sweep(name, config) -> Job:
    return Job(name, ("sweep", "{config}", "--output", "{output}"), config)


def sector_scan(seed: int) -> list:
    """Large excitation sectors (k=2 up to d=780) without oracle or four-qubit measures."""
    rng = _rng("sector_scan", seed)
    jobs = []
    n = 40
    jobs.append(_run("transfer_n40", {
        "scenario": "two_qubit_transfer",
        "network": _chain(rng, n),
        "sites": {"senders": _pair(rng, 10), "receivers": [n - 1 - s for s in reversed(_pair(rng, 10))]},
        "initial": {"kind": "werner", "p": round(float(rng.uniform(0.6, 1.0)), 6)},
        "times": _times(rng, 0.5, 10.0, 14.0, 6),
    }))
    n = 34
    jobs.append(_run("storage_n34", {
        "scenario": "storage",
        "network": _chain(rng, n),
        "sites": {"senders": _pair(rng, n)},
        "initial": {"kind": "bell", "label": str(rng.choice(["psi+", "psi-", "phi+", "phi-"]))},
        "times": _times(rng, 0.5, 10.0, 14.0, 6),
    }))
    # An odd wire has a zero mode; both ends couple to it with 2 g sqrt(2 / (wire + 1)), so
    # the end-to-end concurrence first peaks at t* = pi / (2 sqrt(2) kappa).  The grid
    # spans [0, 2 t*], which keeps the peak inside it and the golden-section refinement
    # running on every seed.
    wire = 21
    g = round(float(rng.uniform(0.08, 0.12)), 6)
    kappa = 2.0 * g * np.sqrt(2.0 / (wire + 1))
    jobs.append(_run("weak_pair_n23", {
        "scenario": "weak_pair",
        "params": {"wire_sites": wire, "J": 1.0, "g": g},
        "initial": {"kind": "basis", "string": "10"},
        "times": {"start": 0.0, "stop": round(float(np.pi / (np.sqrt(2.0) * kappa)), 6), "points": 16},
    }))
    return jobs


def oracle_check(seed: int) -> list:
    """Map-vs-oracle verification at n = 8-9, where the dense 2^N evolution dominates."""
    rng = _rng("oracle_check", seed)
    verify = {"oracle": True, "cptp": True}
    jobs = []
    n = 9
    jobs.append(_run("qst_n9", {
        "scenario": "qst",
        "network": _chain(rng, n),
        "sites": {"sender": int(rng.integers(0, 3)), "receiver": int(rng.integers(n - 3, n))},
        "initial": {"kind": "basis", "string": "1"},
        "times": _times(rng, 0.5, 6.0, 9.0, 6),
        "verify": verify,
    }))
    n = 8
    jobs.append(_run("distribute_single_n8", {
        "scenario": "distribute_single",
        "network": _chain(rng, n),
        "sites": {"sender": int(rng.integers(0, 3)), "receiver": int(rng.integers(n - 3, n))},
        "initial": {"kind": "werner", "p": round(float(rng.uniform(0.5, 1.0)), 6)},
        "times": _times(rng, 0.5, 6.0, 9.0, 6),
        "verify": verify,
    }))
    n = 4  # two identical rails: the oracle evolves the 8-site union
    sender, receiver = int(rng.integers(0, 2)), int(rng.integers(2, n))
    jobs.append(_run("distribute_dual_2x4", {
        "scenario": "distribute_dual",
        "network": _chain(rng, n),
        "sites": {"sender_a": sender, "receiver_a": receiver, "sender_b": sender, "receiver_b": receiver},
        "initial": {"kind": "werner", "p": round(float(rng.uniform(0.5, 1.0)), 6), "bell": "phi+"},
        "times": _times(rng, 0.5, 6.0, 9.0, 6),
        "verify": verify,
    }))
    n = 9
    jobs.append(_run("transfer_n9", {
        "scenario": "two_qubit_transfer",
        "network": _chain(rng, n),
        "sites": {"senders": _pair(rng, 4), "receivers": [s + 5 for s in _pair(rng, 4)]},
        "initial": {"kind": "bell", "label": "psi+"},
        "times": _times(rng, 0.5, 6.0, 9.0, 6),
        "verify": verify,
    }))
    jobs.append(_run("four_qubit_weak_n9", {
        "scenario": "four_qubit_weak",
        "params": {"wire_sites": 5, "J": 1.0, "g": round(float(rng.uniform(0.05, 0.15)), 6)},
        "initial": {"kind": "basis", "string": str(rng.choice(["1100", "1010"]))},
        "times": _times(rng, 0.0, 150.0, 250.0, 12),
    }))
    jobs.append(Job("verify_n8", ("verify", "--sites", "8", "--seed", str(int(rng.integers(0, 2**31)))),
                    writes_csv=False))
    return jobs


def point_sweep(seed: int) -> list:
    """Thousands of cheap grid points: Werner sweeps, a long qst run and the figures."""
    rng = _rng("point_sweep", seed)
    weights = _floats(np.sort(rng.uniform(0.4, 1.0, 5)))
    jobs = []
    n = 12
    jobs.append(_sweep("sweep_single_n12", {
        "scenario": "distribute_single",
        "network": _chain(rng, n),
        "sites": {"sender": int(rng.integers(0, 3)), "receiver": int(rng.integers(n - 3, n))},
        "initial": {"kind": "werner", "p": weights[-1]},
        "times": _times(rng, 0.05, 8.0, 12.0, 200),
        "sweep": {"axis": "p", "values": weights},
    }))
    n = 10
    sender, receiver = int(rng.integers(0, 3)), int(rng.integers(n - 3, n))
    jobs.append(_sweep("sweep_dual_n10", {
        "scenario": "distribute_dual",
        "network": _chain(rng, n),
        "sites": {"sender_a": sender, "receiver_a": receiver, "sender_b": sender, "receiver_b": receiver},
        "initial": {"kind": "werner", "p": weights[-1], "bell": "psi+"},
        "times": _times(rng, 0.05, 8.0, 12.0, 200),
        "sweep": {"axis": "p", "values": weights},
    }))
    n = 12
    jobs.append(_run("qst_long_n12", {
        "scenario": "qst",
        "network": _chain(rng, n),
        "sites": {"sender": 0, "receiver": n - 1},
        "initial": {"kind": "basis", "string": "1"},
        "times": _times(rng, 0.05, 40.0, 60.0, 1000),
    }))
    for number, points in (("7", "100"), ("5", "201"), ("3", "201")):
        jobs.append(Job(f"figure{number}", ("figure", number, "--points", points, "--output", "{output}"),
                        seeded=False))
    return jobs


WORKLOADS = {
    "sector_scan": sector_scan,
    "oracle_check": oracle_check,
    "point_sweep": point_sweep,
}

# Spans each workload must fire at least once in a traced pass.
EXPECTED_SPANS = {
    "sector_scan": (
        "network.hamiltonian", "network.propagator", "network.table",
        "maps.kraus", "maps.apply", "measures.concurrence", "protocols.run", "cli.main",
    ),
    "oracle_check": (
        "network.hamiltonian", "network.propagator", "network.table",
        "maps.kraus", "maps.apply", "maps.cptp", "measures.concurrence", "measures.closed_form",
        "oracle.build", "oracle.evolve", "oracle.reduce", "protocols.run", "cli.main",
    ),
    "point_sweep": (
        "network.hamiltonian", "network.propagator", "network.table",
        "maps.kraus", "maps.apply", "measures.concurrence", "measures.four_qubit", "measures.closed_form",
        "protocols.run", "protocols.sweep", "protocols.four_qubit_measure_sweep", "cli.main",
    ),
}
