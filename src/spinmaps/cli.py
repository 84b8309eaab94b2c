"""Command-line front end: scenario runs, parameter sweeps, verification, figures.

Exit codes: 0 success, 1 verification or numerical failure, 2 configuration
error.

All output is CSV: UTF-8, header row, '.' decimal separator, one row per
grid point, complex quantities split into _re/_im columns.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np
import yaml

from . import maps, measures, oracle, protocols
from .network import (
    NumericalError,
    SectorPropagator,
    SpinNetwork,
    amplitudes,
    full_unitary_from_sectors,
    pair_amplitude_determinant,
)

OUTPUT_DIR_ENV = "SPINMAPS_OUTPUT_DIR"


class ConfigError(Exception):
    """Malformed or inconsistent run configuration."""


# ---------------------------------------------------------------------------
# configuration files

_TOP_KEYS = {
    "scenario", "network", "network_b", "sites", "initial", "times",
    "params", "verify", "tolerances", "output", "sweep",
}
_NETWORK_KEYS = {"kind", "sites", "coupling", "couplings", "zz_couplings", "fields", "xy", "zz"}
_INITIAL_KEYS = {"kind", "label", "p", "bell", "populations", "rho03", "rho12", "string", "entries"}
_TIMES_KEYS = {"start", "stop", "points", "list"}
_VERIFY_KEYS = {"oracle", "cptp"}
_TOLERANCE_KEYS = {"oracle"}
_SWEEP_KEYS = {"axis", "values"}


def _check_keys(section: dict, allowed: set, where: str):
    if not isinstance(section, dict):
        raise ConfigError(f"section {where!r} must be a mapping")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in section {where!r}")


# libyaml's parser, where PyYAML was built with it: the same safe constructor and
# resolver as yaml.safe_load, about 7x faster on a run configuration
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def parse_config(text: str) -> dict:
    """Parse and validate a YAML run configuration; unknown keys are rejected."""
    try:
        cfg = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError:
        # libyaml's messages omit the source line; report the pure-Python parser's
        try:
            cfg = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError(f"invalid YAML: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("configuration must be a mapping at top level")
    _check_keys(cfg, _TOP_KEYS, "top level")
    if "scenario" not in cfg:
        raise ConfigError("missing required key 'scenario'")
    if cfg["scenario"] not in protocols.SCENARIO_KINDS:
        raise ConfigError(
            f"unknown scenario {cfg['scenario']!r}, expected one of {protocols.SCENARIO_KINDS}"
        )
    for key, allowed in (
        ("network", _NETWORK_KEYS), ("network_b", _NETWORK_KEYS),
        ("initial", _INITIAL_KEYS), ("times", _TIMES_KEYS),
        ("verify", _VERIFY_KEYS), ("tolerances", _TOLERANCE_KEYS),
        ("sweep", _SWEEP_KEYS),
    ):
        if key in cfg and cfg[key] is not None:
            _check_keys(cfg[key], allowed, key)
    for key in ("sites", "params"):
        if key in cfg and not isinstance(cfg[key], dict):
            raise ConfigError(f"section {key!r} must be a mapping")
    return cfg


def serialize_config(cfg: dict) -> str:
    return yaml.safe_dump(cfg, sort_keys=True)


def _network_from_config(section: dict) -> SpinNetwork:
    kind = section.get("kind", "chain")
    if kind == "uniform_chain":
        return SpinNetwork.uniform_chain(int(section["sites"]), float(section.get("coupling", 1.0)))
    if kind == "chain":
        return SpinNetwork.chain(
            section["couplings"], section.get("zz_couplings"), section.get("fields")
        )
    if kind == "matrix":
        return SpinNetwork(
            np.array(section["xy"], dtype=float),
            np.array(section["zz"], dtype=float) if "zz" in section else None,
            section.get("fields"),
        )
    raise ConfigError(f"unknown network kind {kind!r}")


def _times_from_config(section) -> tuple:
    if section is None:
        raise ConfigError("missing required section 'times'")
    if "list" in section:
        return tuple(float(t) for t in section["list"])
    try:
        start, stop = float(section["start"]), float(section["stop"])
        points = int(section["points"])
    except KeyError as exc:
        raise ConfigError(f"times section needs start/stop/points or list (missing {exc})") from exc
    return tuple(np.linspace(start, stop, points))


def spec_from_config(cfg: dict) -> protocols.ScenarioSpec:
    try:
        network = _network_from_config(cfg["network"]) if cfg.get("network") else None
        network_b = _network_from_config(cfg["network_b"]) if cfg.get("network_b") else None
        verify = cfg.get("verify") or {}
        tolerances = cfg.get("tolerances") or {}
        return protocols.ScenarioSpec(
            kind=cfg["scenario"],
            times=_times_from_config(cfg.get("times")),
            network=network,
            network_b=network_b,
            sites=cfg.get("sites") or {},
            initial=cfg.get("initial") or {},
            params=cfg.get("params") or {},
            verify_oracle=bool(verify.get("oracle", False)),
            verify_cptp=bool(verify.get("cptp", False)),
            oracle_tol=float(tolerances.get("oracle", protocols.ORACLE_TOL)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _resolve_output(path, default_name: str) -> str:
    if path:
        return str(path)
    return os.path.join(os.environ.get(OUTPUT_DIR_ENV, "."), default_name)


# ---------------------------------------------------------------------------
# verification suite

def _run_checks(n_sites: int, seed: int, tol: float, trials: int, report=print) -> bool:
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
            report(f"ok   {name}: witness {witness:.3e} <= {limit:.1e}")
        else:
            report(f"FAIL {name}: witness {witness:.3e} > {limit:.1e}")
            ok = False

    t = float(rng.uniform(0.5, 3.0))
    chan = maps.NetworkChannel(net)
    held = (SectorPropagator(net, 0), chan.k1, chan.k2)
    for k, propagator in enumerate(held):
        a = propagator.table(t).amplitudes
        dev = np.abs(a @ a.conj().T - np.eye(a.shape[0])).max()
        check(f"sector unitarity (k={k})", float(dev), 1e-10)
        col = np.abs((np.abs(a) ** 2).sum(axis=0) - 1.0).max()
        check(f"sector completeness (k={k})", float(col), 1e-10)

    prop = oracle.FullPropagator(net)
    dev = np.abs(full_unitary_from_sectors(net, t, held) - prop.unitary(t)).max()
    check("sector block assembly vs full unitary", float(dev), 1e-9)

    psi = rng.normal(size=1 << n_sites) + 1j * rng.normal(size=1 << n_sites)
    psi /= np.linalg.norm(psi)
    drift = abs(
        oracle.magnetization_expectation(prop.evolve(psi, t))
        - oracle.magnetization_expectation(psi)
    )
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
        elem = maps.two_qubit_map_elements(k1, k2, senders, receivers, chan.vacuum(tt))
        built = maps.superop_from_kraus(channel2)
        worst_elem = max(worst_elem, float(np.abs(elem - built).max()))

    check("one-qubit map vs oracle", worst_1q, tol)
    check("two-qubit map vs oracle", worst_2q, tol)
    check("element table vs Kraus superoperator", worst_elem, 1e-10)
    check("CPTP (Choi PSD + trace preservation)", worst_choi, 1e-9)

    chain = SpinNetwork.chain(rng.normal(size=n_sites - 1))
    k1 = amplitudes(chain, 1, t)
    k2 = amplitudes(chain, 2, t)
    worst_det = 0.0
    for (a, b) in ((0, 1), (0, n_sites - 1)):
        for (c, e) in ((0, 1), (1, n_sites - 1)):
            det = pair_amplitude_determinant(chain, k1, a, b, c, e)
            direct = k2.amplitude((a, b), (c, e))
            worst_det = max(worst_det, abs(det - direct))
    check("determinant fast path (open chain)", worst_det, 1e-9)

    return ok


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


def figure7_result(points: int = 1000) -> protocols.ScenarioResult:
    """Four-qubit measures of the weak-coupling closed form over three windows."""
    return protocols.four_qubit_measure_sweep(points_per_window=points)


# ---------------------------------------------------------------------------
# entry point

_CSV_NOTE = (
    "CSV output: UTF-8, header row, '.' decimal separator, one row per grid "
    "point; complex values appear as paired _re/_im columns."
)

_EXIT_NOTE = (
    "Exit codes: 0 success; 1 verification failure (oracle deviation, CPTP, "
    "'verify' check) or numerical failure (a sector eigenbasis or propagator "
    "failed its 1e-10 orthonormality check); 2 configuration error."
)

_FIGURE_COLUMNS = {
    3: "columns: p, f_abs, ratio  (five Werner weights, single-rail transfer ratio)",
    5: "columns: family, p, f_abs, ratio, c1, c2  (dual-rail, psi+/phi+ Werner families)",
    7: "columns: window, t, theta, pairwise/one-vs-rest/split concurrences, "
       "three-tangle bounds, tau4, c4 (closed-form four-qubit evolution)",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinmaps",
        description="Quantum-map simulator for U(1) spin networks.",
        epilog=_CSV_NOTE + " " + _EXIT_NOTE,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run", help="execute one scenario config and write CSV", epilog=_CSV_NOTE + " " + _EXIT_NOTE
    )
    p_run.add_argument("config", help="YAML scenario configuration file")
    p_run.add_argument("--output", help="CSV output path (overrides config)")
    p_run.add_argument("--tolerance", type=float, help="override the oracle-comparison tolerance")

    p_sweep = sub.add_parser(
        "sweep", help="run a scenario once per value of a swept parameter",
        epilog="The swept value is prepended as the first CSV column. " + _CSV_NOTE,
    )
    p_sweep.add_argument("config", help="YAML configuration with a 'sweep:' section")
    p_sweep.add_argument("--output", help="CSV output path (overrides config)")
    p_sweep.add_argument("--tolerance", type=float, help="override the oracle-comparison tolerance")

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


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc


def _run_spec(spec):
    try:
        return protocols.run(spec)
    except ValueError as exc:  # incomplete or inconsistent scenario description
        raise ConfigError(str(exc)) from exc


def _check_tolerance(tolerance):
    if tolerance is not None and not (np.isfinite(tolerance) and tolerance > 0):
        raise ConfigError(f"--tolerance must be finite and positive, got {tolerance}")


def _spec_with_tolerance(cfg: dict, tolerance) -> protocols.ScenarioSpec:
    _check_tolerance(tolerance)
    spec = spec_from_config(cfg)
    return spec if tolerance is None else replace(spec, oracle_tol=tolerance)


def _cmd_run(args) -> int:
    cfg = _load_config(args.config)
    spec = _spec_with_tolerance(cfg, args.tolerance)
    result = _run_spec(spec)
    out = _resolve_output(args.output or cfg.get("output"), f"{spec.kind}.csv")
    result.write_csv(out)
    for key, value in result.meta.items():
        print(f"{key}: {value}")
    print(f"wrote {len(result.rows)} rows to {out}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    sweep_cfg = cfg.get("sweep")
    if not sweep_cfg or "axis" not in sweep_cfg or "values" not in sweep_cfg:
        raise ConfigError("sweep requires a 'sweep:' section with 'axis' and 'values'")
    spec = _spec_with_tolerance(cfg, args.tolerance)
    axis = str(sweep_cfg["axis"])
    try:
        results = protocols.sweep(spec, axis, sweep_cfg["values"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    parts = [{axis: res.meta[axis], **res.data} for res in results]
    result = protocols.ScenarioResult.concat(spec.kind, parts)
    out = _resolve_output(args.output or cfg.get("output"), f"{spec.kind}_{axis}_sweep.csv")
    result.write_csv(out)
    print(f"wrote {len(result.rows)} rows to {out}")
    return 0


def _cmd_verify(args) -> int:
    if args.sites < 3:
        raise ConfigError("verify needs at least 3 sites")
    if args.trials < 1:
        raise ConfigError(f"--trials must be at least 1, got {args.trials}")
    _check_tolerance(args.tolerance)
    try:
        oracle.require_dense_sites(args.sites, "--sites")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    ok = _run_checks(args.sites, args.seed, args.tolerance, args.trials)
    print("verification " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def _cmd_figure(args) -> int:
    if args.points is not None and args.points < 1:
        raise ConfigError(f"--points must be at least 1, got {args.points}")
    make = {3: figure3_result, 5: figure5_result, 7: figure7_result}[args.number]
    result = make() if args.points is None else make(args.points)
    out = _resolve_output(args.output, f"figure{args.number}.csv")
    result.write_csv(out)
    print(f"wrote {len(result.rows)} rows to {out}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "sweep": _cmd_sweep, "verify": _cmd_verify, "figure": _cmd_figure}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except protocols.VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
