"""Command-line front end: scenario runs, parameter sweeps, verification, figures.

Each command first reads and checks every input, then computes.  Exit codes:
0 success; 1 the computation failed (a verification or numerical check);
2 configuration error, found while reading, before any computation.

All output is CSV: UTF-8, header row, '.' decimal separator, one row per
grid point, complex quantities split into _re/_im columns.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np
import yaml

from . import maps, measures, oracle, protocols
from .network import NumericalError, SectorPropagator, SpinNetwork

OUTPUT_DIR_ENV = "SPINMAPS_OUTPUT_DIR"


# ---------------------------------------------------------------------------
# configuration files

# libyaml's parser, where PyYAML was built with it: the same safe constructor and
# resolver as yaml.safe_load, about 7x faster on a run configuration
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def parse_config(text: str):
    """Parse a YAML run configuration; :func:`spinmaps.protocols.spec_from_config` reads what it holds."""
    try:
        return yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError:
        # libyaml's messages omit the source line; report the pure-Python parser's
        try:
            return yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ValueError(f"invalid YAML: {exc}") from exc


def _output_path(path, default_name: str) -> str:
    """``path``, or ``default_name`` in ``SPINMAPS_OUTPUT_DIR``, once it names a file in a directory that exists."""
    out = str(path) if path else os.path.join(os.environ.get(OUTPUT_DIR_ENV, "."), default_name)
    if os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or "."):
        raise ValueError(f"output {out!r} is not a file in a directory that exists")
    return out


# ---------------------------------------------------------------------------
# verification suite

def _run_checks(n_sites: int, seed: int, tol: float, trials: int) -> int:
    rng = np.random.default_rng(seed)
    j = rng.normal(size=(n_sites, n_sites))
    j = (j + j.T) / 2
    np.fill_diagonal(j, 0.0)
    d = 0.3 * rng.normal(size=(n_sites, n_sites))
    d = (d + d.T) / 2
    np.fill_diagonal(d, 0.0)
    net = SpinNetwork(j, d, 0.5 * rng.normal(size=n_sites))
    ok = True

    def check(name: str, witness: float, limit: float):
        nonlocal ok
        if witness <= limit:
            print(f"ok   {name}: witness {witness:.3e} <= {limit:.1e}")
        else:
            print(f"FAIL {name}: witness {witness:.3e} > {limit:.1e}")
            ok = False

    t = float(rng.uniform(0.5, 3.0))
    chan = maps.NetworkChannel(net)
    tables = [propagator.table(t) for propagator in (SectorPropagator(net, 0), chan.k1, chan.k2)]
    for k, table in enumerate(tables):
        a = table.amplitudes
        dev = np.abs(a @ a.conj().T - np.eye(a.shape[0])).max()
        check(f"sector unitarity (k={k})", float(dev), 1e-10)
        col = np.abs((np.abs(a) ** 2).sum(axis=0) - 1.0).max()
        check(f"sector completeness (k={k})", float(col), 1e-10)

    # each sector's table is U(t)'s block at the sector's basis states, and U(t) has no weight elsewhere
    prop = oracle.FullPropagator(net)
    u = prop.unitary(t)
    block = 0.0
    magnetization = np.empty(1 << n_sites)  # total sigma^z of each basis state
    for k in range(n_sites + 1):
        table = tables[k] if k < len(tables) else SectorPropagator(net, k).table(t)
        index = oracle.basis_index(table.sector.sites, n_sites)
        cols = u[:, index]
        block = max(block, np.abs(table.amplitudes - cols[index]).max())
        cols[index] = 0.0
        block = max(block, np.abs(cols).max())
        magnetization[index] = 2 * k - n_sites
    check("sector block assembly vs full unitary", float(block), 1e-9)
    drift = np.abs(magnetization @ (np.abs(u) ** 2) - magnetization).max()
    check("magnetization conservation", float(drift), 1e-10)

    worst_1q = worst_2q = worst_elem = 0.0
    worst_choi = 0.0
    for _ in range(trials):
        tt = float(rng.uniform(0.0, 5.0))
        s, r = rng.choice(n_sites, size=2, replace=True)
        channel = chan.one_qubit(int(s), int(r), tt)
        rho = maps.random_density_matrix(2, rng)
        out = maps.apply(channel, rho)
        ref = oracle.reduced_output(net, rho, [int(s)], [int(r)], tt, propagator=prop)
        worst_1q = max(worst_1q, maps.trace_distance(out, ref))
        verdict = maps.is_cptp(channel)
        worst_choi = max(worst_choi, -verdict.min_choi_eigenvalue, verdict.trace_defect)

        senders = tuple(int(x) for x in rng.choice(n_sites, size=2, replace=False))
        receivers = tuple(int(x) for x in rng.choice(n_sites, size=2, replace=False))
        channel2 = chan.two_qubit(senders, receivers, tt)
        rho2 = maps.random_density_matrix(4, rng)
        out2 = maps.apply(channel2, rho2)
        ref2 = oracle.reduced_output(net, rho2, senders, receivers, tt, propagator=prop)
        worst_2q = max(worst_2q, maps.trace_distance(out2, ref2))
        verdict2 = maps.is_cptp(channel2)
        worst_choi = max(worst_choi, -verdict2.min_choi_eigenvalue, verdict2.trace_defect)

        k1, k2 = chan.k1.table(tt), chan.k2.table(tt)
        elem = maps.two_qubit_map_elements(k1, k2, senders, receivers)
        built = maps.superop_from_kraus(channel2)
        worst_elem = max(worst_elem, float(np.abs(elem - built).max()))

    check("one-qubit map vs oracle", worst_1q, tol)
    check("two-qubit map vs oracle", worst_2q, tol)
    check("element table vs Kraus superoperator", worst_elem, 1e-10)
    check("CPTP (Choi PSD + trace preservation)", worst_choi, 1e-9)

    # free-fermion two-qubit maps (k = 1 minors) against the k = 2 sector's, on an open chain with fields:
    # overlapping pairs, a reversed sender pair, and storage; a chain not taken as free fermions fails
    chain = SpinNetwork.chain(rng.normal(size=n_sites - 1), fields=0.5 * rng.normal(size=n_sites))
    free = maps.NetworkChannel(chain)
    a, b, c = (int(x) for x in rng.choice(n_sites, size=3, replace=False))
    worst_free = 0.0 if free.free_fermion else np.inf
    for senders, receivers in (((a, b), (b, c)), ((b, a), (c, a)), ((a, c), (c, a))):
        k1, k2 = free.k1.table(t, [(senders[0],), (senders[1],)]), free.k2.table(t, [senders])
        sector = maps.superop_from_kraus(maps.two_qubit_kraus(k1, k2, senders, receivers))
        built = maps.superop_from_kraus(free.two_qubit(senders, receivers, t))
        worst_free = max(worst_free, float(np.abs(built - sector).max()))
    check("free-fermion two-qubit map vs k=2 sector (open chain)", worst_free, 1e-10)
    print("verification " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# figure datasets

WERNER_WEIGHTS = (0.4, 0.5, 0.7, 0.9, 1.0)


def figure3_result(points: int = 201) -> protocols.ScenarioResult:
    """Transferred/initial concurrence ratio of Werner states vs |f| (one rail)."""
    f = np.linspace(0.0, 1.0, points)
    curves = []
    for p in WERNER_WEIGHTS:
        c, _, _ = measures.transferred_concurrence(measures.XState.werner(p, "psi+"), f)
        curves.append({"p": p, "f_abs": f, "ratio": c / ((3.0 * p - 1.0) / 2.0)})
    return protocols.ScenarioResult.concat("figure3", curves)


def figure5_result(points: int = 201) -> protocols.ScenarioResult:
    """Transferred/initial concurrence ratio of Werner states vs |f| (dual rail)."""
    f = np.linspace(0.0, 1.0, points)
    curves = []
    for family in ("psi+", "phi+"):
        for p in WERNER_WEIGHTS:
            c, c1, c2 = measures.dual_rail_concurrence(measures.XState.werner(p, family), f)
            curves.append({"family": family, "p": p, "f_abs": f, "ratio": c / ((3.0 * p - 1.0) / 2.0),
                           "c1": c1, "c2": c2})
    return protocols.ScenarioResult.concat("figure5", curves)


# ---------------------------------------------------------------------------
# entry point

_CSV_NOTE = (
    "CSV output: UTF-8, header row, '.' decimal separator, one row per grid "
    "point; complex values appear as paired _re/_im columns."
)

_EXIT_NOTE = (
    "Exit codes: 0 success; 1 a verification check (oracle deviation, CPTP, 'verify' check) or a "
    "numerical check failed during the computation; 2 configuration error, found before any computation."
)

_FIGURE_COLUMNS = {
    3: "columns: p, f_abs, ratio  (five Werner weights, single-rail transfer ratio)",
    5: "columns: family, p, f_abs, ratio, c1, c2  (dual-rail, psi+/phi+ Werner families)",
    7: "columns: window, t, theta, pairwise/one-vs-rest/split concurrences, "
       "three-tangle bounds, tau4, c4 (closed-form four-qubit evolution)",
}


@functools.cache  # built by the first main call, then reused by every later one in the process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinmaps",
        description="Quantum-map simulator for U(1) spin networks.",
        epilog=_CSV_NOTE + " " + _EXIT_NOTE,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, epilog, config_help in (
        ("run", "execute one scenario config and write CSV", _CSV_NOTE + " " + _EXIT_NOTE,
         "YAML scenario configuration file"),
        ("sweep", "run a scenario for each value of a swept parameter",
         "The swept value is prepended as the first CSV column. A sweep of 'p', the Werner weight of the "
         "initial state, builds the map once and reads it out for each weight; a 'params' sweep builds one "
         "map per value. " + _CSV_NOTE,
         "YAML configuration with a 'sweep:' section"),
    ):
        p_config = sub.add_parser(name, help=help_text, epilog=epilog)
        p_config.add_argument("config", help=config_help)
        p_config.add_argument("--output", help="CSV output path (overrides config)")
        p_config.add_argument("--tolerance", type=float, help="override the oracle-comparison tolerance")

    p_verify = sub.add_parser(
        "verify", help="run the invariant suite (sector unitarity, oracle equivalence, CPTP)",
    )
    p_verify.add_argument(
        "--sites", type=int, default=6,
        help=f"network size, 3 to the dense-oracle cap set by physical memory "
             f"({oracle.MAX_SITES} here; default 6)",
    )
    p_verify.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p_verify.add_argument("--trials", type=int, default=5, help="random map/state trials (default 5)")
    p_verify.add_argument("--tolerance", type=float, default=1e-8, help="oracle-equivalence tolerance")

    p_fig = sub.add_parser(
        "figure", help="emit a reference dataset (3, 5 or 7)",
        epilog="  ".join(f"figure {k}: {v}" for k, v in _FIGURE_COLUMNS.items()),
    )
    p_fig.add_argument("number", type=int, choices=(3, 5, 7))
    p_fig.add_argument("--output", help="CSV output path")
    p_fig.add_argument("--points", type=int, default=None, help="grid points per curve/window")
    return parser


def _load_config(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ValueError(f"cannot read config {path!r}: {exc}") from exc


def _write(result, out: str) -> int:
    """Write ``result`` to ``out``, then print its meta (a run's report) and the rows written."""
    rows = result.write_csv(out)
    for key, value in result.meta.items():
        print(f"{key}: {value}")
    print(f"wrote {rows} rows to {out}")
    return 0


def _read_config_command(args):
    """``run`` or ``sweep``: every spec the config file describes, read by :mod:`spinmaps.protocols`."""
    cfg = _load_config(args.config)
    tolerance = None if args.tolerance is None else protocols.positive_tolerance(args.tolerance, "--tolerance")
    if args.command == "run":
        spec = protocols.spec_from_config(cfg, tolerance)
        out = _output_path(args.output or cfg.get("output"), f"{spec.kind}.csv")
        return lambda: _write(protocols.run(spec), out)
    axis, swept = protocols.sweep_from_config(cfg, tolerance)
    out = _output_path(args.output or cfg.get("output"), f"{swept[0][1].kind}_{axis}_sweep.csv")
    return lambda: _write(protocols.sweep(axis, swept), out)


def _read_verify(args):
    for flag, value, minimum in (("--sites", args.sites, 3), ("--trials", args.trials, 1), ("--seed", args.seed, 0)):
        protocols.whole_number(value, flag, minimum=minimum)
    protocols.positive_tolerance(args.tolerance, "--tolerance")
    oracle.require_dense_sites(args.sites, "--sites")
    return lambda: _run_checks(args.sites, args.seed, args.tolerance, args.trials)


def _read_figure(args):
    points = () if args.points is None else (protocols.whole_number(args.points, "--points", minimum=1),)
    make = {3: figure3_result, 5: figure5_result, 7: protocols.four_qubit_measure_sweep}[args.number]
    out = _output_path(args.output, f"figure{args.number}.csv")
    return lambda: _write(make(*points), out)


def main(argv=None) -> int:
    """Each command reads and checks every input, then computes: exit 2 if reading fails, 1 if computing does."""
    args = _build_parser().parse_args(argv)
    readers = {"verify": _read_verify, "figure": _read_figure}
    try:
        compute = readers.get(args.command, _read_config_command)(args)
    except Exception as exc:  # anything raised while reading is the input's fault
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        return compute()
    except protocols.VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, ValueError, MemoryError) as exc:  # every input was checked before the computation
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
