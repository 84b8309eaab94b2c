"""Scenario runners: state transfer, entanglement distribution and generation.

Every scenario is described by a :class:`ScenarioSpec` and produces a
:class:`ScenarioResult` with one row per time/parameter grid point.  Rows are
emitted in deterministic grid order; identical specs yield identical results.

Every runner works on the whole time grid at once: one stacked channel (see
:mod:`spinmaps.maps`) and one ``apply``, or for ``four_qubit_weak`` one sector
column reduced by :func:`spinmaps.network.reduced_state`, then one call of
each measure per grid.  Only the dense-oracle check (the one place a run
builds the 2^N space) and the CPTP check take one time at a time.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import minimize_scalar

from . import maps, measures, oracle
from .network import SectorPropagator, SpinNetwork, reduced_state

SCENARIO_KINDS = (
    "qst",
    "distribute_single",
    "distribute_dual",
    "two_qubit_transfer",
    "storage",
    "weak_pair",
    "four_qubit_weak",
    "closed_form_four_qubit",
)

ORACLE_TOL = 1e-8


class VerificationError(RuntimeError):
    """An on-the-fly invariant check (oracle equivalence, CPTP) failed."""


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative description of one protocol run."""

    kind: str
    times: tuple
    network: SpinNetwork = None
    network_b: SpinNetwork = None
    sites: dict = field(default_factory=dict)
    initial: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    verify_oracle: bool = False
    verify_cptp: bool = False
    oracle_tol: float = ORACLE_TOL

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}, expected one of {SCENARIO_KINDS}")
        times = tuple(float(t) for t in self.times)
        if not times:
            raise ValueError("time grid is empty")
        if not all(map(math.isfinite, times)):
            raise ValueError("times must be finite (no NaN or infinity)")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("time grid must be strictly increasing")
        object.__setattr__(self, "times", times)
        if not (math.isfinite(self.oracle_tol) and self.oracle_tol > 0):
            raise ValueError(f"tolerances.oracle must be finite and positive, got {self.oracle_tol}")
        if self.verify_cptp and self.kind in ("four_qubit_weak", "closed_form_four_qubit"):
            raise ValueError(f"verify.cptp does not apply to scenario {self.kind!r}: it evolves no channel")
        if self.verify_oracle and self.kind == "closed_form_four_qubit":
            raise ValueError(f"verify.oracle does not apply to scenario {self.kind!r}: it evolves no network")


@dataclass(frozen=True)
class ScenarioResult:
    kind: str
    columns: tuple
    rows: tuple
    meta: dict = field(default_factory=dict)

    def column(self, name: str) -> np.ndarray:
        idx = self.columns.index(name)
        return np.array([row[idx] for row in self.rows], dtype=float)

    def write_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.columns)
            writer.writerows(self.rows)  # Python floats, which csv writes as their shortest repr


# ---------------------------------------------------------------------------
# initial states

def build_initial_state(desc: dict, n_qubits: int) -> np.ndarray:
    """Density matrix from a state description dictionary."""
    kind = desc.get("kind")
    if kind == "bell":
        if n_qubits != 2:
            raise ValueError("bell input needs a two-qubit slot")
        return maps.pure_state_density(measures.bell_state(desc.get("label", "psi+")))
    if kind == "werner":
        if n_qubits != 2:
            raise ValueError("werner input needs a two-qubit slot")
        return measures.werner_state(float(desc["p"]), desc.get("bell", "psi+"))
    if kind == "xstate":
        x = measures.XState(
            *(float(p) for p in desc["populations"]),
            rho03=_as_complex(desc.get("rho03", 0.0)),
            rho12=_as_complex(desc.get("rho12", 0.0)),
        )
        return x.to_density_matrix()
    if kind == "basis":
        string = str(desc["string"])
        if len(string) != n_qubits or any(c not in "01" for c in string):
            raise ValueError(f"basis string {string!r} does not describe {n_qubits} qubits")
        vec = np.zeros(2**n_qubits, dtype=complex)
        vec[int(string, 2)] = 1.0
        return maps.pure_state_density(vec)
    if kind == "matrix":
        rho = np.array([[_as_complex(v) for v in row] for row in desc["entries"]])
        maps.assert_density_matrix(rho)
        if rho.shape != (2**n_qubits, 2**n_qubits):
            raise ValueError(f"matrix input has shape {rho.shape}, expected {(2**n_qubits,)*2}")
        return rho
    raise ValueError(f"unknown initial-state kind {kind!r}")


def _as_complex(value) -> complex:
    if isinstance(value, (list, tuple)):
        re, im = value
        return complex(float(re), float(im))
    return complex(value)


def _x_state_or_none(rho: np.ndarray):
    try:
        return measures.XState.from_density_matrix(rho)
    except ValueError:
        return None


def _require_network(spec: ScenarioSpec) -> SpinNetwork:
    if spec.network is None:
        raise ValueError(f"scenario {spec.kind!r} needs a network")
    return spec.network


def _check_site_range(key: str, site: int, network: SpinNetwork):
    if not 0 <= site < network.n_sites:
        raise ValueError(f"sites.{key} {site} out of range for {network.n_sites} sites")


def _require_site(spec: ScenarioSpec, key: str, network: SpinNetwork) -> int:
    try:
        site = int(spec.sites[key])
    except KeyError:
        raise ValueError(f"scenario {spec.kind!r} needs the site assignment {key!r}") from None
    _check_site_range(key, site, network)
    return site


def _require_pair(spec: ScenarioSpec, key: str, network: SpinNetwork) -> tuple:
    try:
        pair = spec.sites[key]
    except KeyError:
        raise ValueError(f"scenario {spec.kind!r} needs the site pair {key!r}") from None
    pair = tuple(int(s) for s in pair)
    if len(pair) != 2:
        raise ValueError(f"site pair {key!r} must have exactly two entries, got {pair}")
    if pair[0] == pair[1]:
        raise ValueError(f"sites.{key} must name two distinct sites, got {pair}")
    for site in pair:
        _check_site_range(key, site, network)
    return pair


# ---------------------------------------------------------------------------
# closed-form four-qubit evolutions

def four_qubit_closed_form(g: float, j_coupling: float, t, initial: str = "1100") -> np.ndarray:
    """Closed-form pure state of qubits (A1, A2, B1, B2) in the weak-coupling regime.

    ``initial`` selects the starting basis state: "1100" (both sender qubits
    excited) or "1010" (one excitation per pair).  Normalized to 1e-12.  An
    array of T times gives a (T, 16) stack of states.
    """
    if g <= 0 or j_coupling <= 0:
        raise ValueError(f"couplings must be positive, got g={g}, J={j_coupling}")
    t = np.asarray(t, dtype=float)
    theta = g**2 * t / j_coupling
    psi = np.zeros(t.shape + (16,), dtype=complex)
    if initial == "1100":
        psi[..., int("0011", 2)] = (1.0 - np.cos(theta)) / 2.0
        psi[..., int("0101", 2)] = 0.5j * np.sin(theta)
        psi[..., int("1010", 2)] = -0.5j * np.sin(theta)
        psi[..., int("1100", 2)] = (1.0 + np.cos(theta)) / 2.0
    elif initial == "1010":
        fast_c, fast_s = np.cos(2.0 * j_coupling * t), np.sin(2.0 * j_coupling * t)
        psi[..., int("1010", 2)] = (fast_c + np.cos(theta)) / 2.0
        psi[..., int("0101", 2)] = (fast_c - np.cos(theta)) / 2.0
        psi[..., int("1001", 2)] = -0.5j * fast_s
        psi[..., int("0110", 2)] = -0.5j * fast_s
        psi[..., int("1100", 2)] = -0.5j * np.sin(theta)
        psi[..., int("0011", 2)] = +0.5j * np.sin(theta)
    else:
        raise ValueError(f"initial must be '1100' or '1010', got {initial!r}")
    # each state's norm as np.linalg.norm takes it for one vector (a stacked axis sums
    # in another order), so a stacked state equals the single-time state bit for bit
    norm = np.array([np.linalg.norm(row) for row in psi.reshape(-1, 16)]).reshape(t.shape + (1,))
    dev = np.abs(norm - 1.0)
    if (dev > 1e-12).any():
        raise ValueError(f"closed-form state norm {norm.flat[np.argmax(dev)]} off unity")
    return psi / norm


_MEASURE_COLUMNS = (
    "c_a1a2", "c_a1b1", "c_a1b2", "c_a2b1", "c_a2b2", "c_b1b2",
    "c_a1_rest", "c_a2_rest", "c_b1_rest", "c_b2_rest",
    "c_a1a2_b1b2", "c_a1b1_a2b2", "c_a1b2_a2b1",
    "tau3_a2b1b2", "tau3_a1b1b2", "tau3_a1a2b2", "tau3_a1a2b1",
    "tau4", "c4",
)


def _rows(*columns) -> list:
    """Row tuples of Python floats from columns of T values (a scalar repeats)."""
    cols = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in columns))
    return [tuple(row) for row in np.column_stack(cols).tolist()]


def _measure_values(report: measures.MeasureReport) -> tuple:
    pc = report.pair_concurrence
    t3 = report.three_tangle_bound
    return (
        pc[(0, 1)], pc[(0, 2)], pc[(0, 3)], pc[(1, 2)], pc[(1, 3)], pc[(2, 3)],
        *report.one_vs_rest,
        report.pair_vs_pair[(0, 1)], report.pair_vs_pair[(0, 2)], report.pair_vs_pair[(0, 3)],
        t3[(1, 2, 3)], t3[(0, 2, 3)], t3[(0, 1, 3)], t3[(0, 1, 2)],
        report.four_tangle,
        report.four_qubit_concurrence,
    )


def four_qubit_measure_sweep(
    g: float = 1e-2,
    j_coupling: float = 1.0,
    points_per_window: int = 1000,
    initial: str = "1010",
    window_starts=(0.0, np.pi / 2.0, np.pi),
    window_width: float = np.pi,
) -> ScenarioResult:
    """Entanglement measures of the closed-form state over three time windows.

    Windows start at the beginning, a quarter and a half of the slow period
    2*pi*J/g^2 (phases 0, pi/2, pi) and span half a period each.  The time
    grid maps phase theta to t = theta * J / g^2.
    """
    rows = []
    for w, start in enumerate(window_starts):
        thetas = np.linspace(start, start + window_width, points_per_window)
        t = thetas * j_coupling / g**2
        psi = four_qubit_closed_form(g, j_coupling, t, initial)
        rows += _rows(w, t, thetas, *_measure_values(measures.four_qubit_measures(psi)))
    return ScenarioResult(
        kind="four_qubit_measure_sweep",
        columns=("window", "t", "theta") + _MEASURE_COLUMNS,
        rows=tuple(rows),
        meta={"g": g, "J": j_coupling, "initial": initial},
    )


# ---------------------------------------------------------------------------
# scenario runners

def run(spec: ScenarioSpec) -> ScenarioResult:
    """Execute one scenario and return its time series."""
    runner = _RUNNERS[spec.kind]
    return runner(spec)


def sweep(spec: ScenarioSpec, axis: str, values) -> list:
    """Run the scenario once per value of the swept parameter.

    ``axis="p"`` sweeps the Werner weight of the initial state; any other
    name is looked up in ``spec.params``.
    """
    values = list(values)
    if not values:
        raise ValueError("sweep grid is empty")
    results = []
    for v in values:
        if axis == "p" and spec.initial.get("kind") == "werner":
            new = replace(spec, initial={**spec.initial, "p": float(v)})
        else:
            new = replace(spec, params={**spec.params, axis: float(v)})
        res = run(new)
        results.append(replace(res, meta={**res.meta, axis: float(v)}))
    return results


def _channel_run(spec, kind, columns, rho_in, build, whole, senders, receivers) -> ScenarioResult:
    """The time grid of the channel runners: one row per time of ``spec.times``.

    ``build(times)`` returns the channel stacked over all times (operators with
    a leading time axis) and a function from the (T, d, d) output states to
    the runner's columns (arrays of T values, or one value for every row).
    The channel is applied to ``rho_in`` once.  As the spec asks,
    ``oracle_dev`` is :func:`_oracle_deviations` on ``whole`` (the network, or
    union of networks, whose sites ``senders`` feed the channel and
    ``receivers`` hold its output), and ``cptp_min_eig`` the minimum Choi
    eigenvalue of the channel at each time.
    """
    if spec.verify_oracle:
        columns += ("oracle_dev",)
    if spec.verify_cptp:
        columns += ("cptp_min_eig",)
    channel, values = build(np.array(spec.times))
    rho_out = maps.apply(channel, rho_in)
    data = [spec.times, *values(rho_out)]
    if spec.verify_oracle:
        data.append(_oracle_deviations(spec, rho_out, rho_in, whole, senders, receivers))
    if spec.verify_cptp:
        min_eigs = []
        for idx in range(len(spec.times)):
            verdict = maps.is_cptp(channel.at(idx))
            if not verdict.ok:
                raise VerificationError(
                    f"map failed the CPTP check (min Choi eigenvalue {verdict.min_choi_eigenvalue:.3e})"
                )
            min_eigs.append(verdict.min_choi_eigenvalue)
        data.append(min_eigs)
    return ScenarioResult(kind, ("t",) + columns, tuple(_rows(*data)))


def _oracle_deviations(spec, rho_out, rho_in, whole, senders, receivers) -> list:
    """Trace distance of ``rho_out[idx]`` to the dense oracle's output at ``spec.times[idx]``.

    The oracle evolves ``rho_in`` from the ``senders`` of ``whole`` and reads
    ``receivers``; a deviation beyond ``spec.oracle_tol`` raises
    :class:`VerificationError`.
    """
    oracle.require_dense_sites(whole.n_sites, "verify.oracle")
    propagator = oracle.FullPropagator(whole)
    devs = []
    for idx, t in enumerate(spec.times):
        ref = oracle.reduced_output(whole, rho_in, senders, receivers, t, propagator=propagator)
        dev = maps.trace_distance(rho_out[idx], ref)
        if dev > spec.oracle_tol:
            raise VerificationError(f"map/oracle deviation {dev:.3e} beyond tolerance at t={t}")
        devs.append(dev)
    return devs


def _run_qst(spec: ScenarioSpec) -> ScenarioResult:
    net = _require_network(spec)
    sender, receiver = _require_site(spec, "sender", net), _require_site(spec, "receiver", net)
    rho_in = build_initial_state(spec.initial or {"kind": "basis", "string": "1"}, 1)
    chan = maps.NetworkChannel(net)

    def build(times):
        f = chan.amplitude(sender, receiver, times)
        return maps.one_qubit_kraus(f), lambda out: (
            f.real, f.imag, np.abs(f), out[:, 1, 1].real, out[:, 0, 1].real, out[:, 0, 1].imag
        )

    columns = ("f_re", "f_im", "f_abs", "out_p1", "out_coh_re", "out_coh_im")
    return _channel_run(spec, "qst", columns, rho_in, build, net, [sender], [receiver])


def _run_distribute_single(spec: ScenarioSpec) -> ScenarioResult:
    net = _require_network(spec)
    sender, receiver = _require_site(spec, "sender", net), _require_site(spec, "receiver", net)
    rho_in = build_initial_state(spec.initial, 2)
    c_in = measures.concurrence(rho_in)
    x_in = _x_state_or_none(rho_in)
    chan = maps.NetworkChannel(net)

    def build(times):
        f = chan.amplitude(sender, receiver, times)

        def values(out):
            c_out = measures.concurrence(out)
            if x_in is not None:
                _, c1, c2 = measures.transferred_concurrence(x_in, f)
            else:
                c1 = c2 = math.nan
            ratio = c_out / c_in if c_in > 0 else math.nan
            return (f.real, f.imag, np.abs(f), c_out, c1, c2, c_in, ratio)

        return maps.extend_with_identity(maps.one_qubit_kraus(f), side="left"), values

    # the oracle evolves the idle first qubit as an uncoupled site 0 beside the network
    whole = SpinNetwork(np.zeros((1, 1))).disjoint_union(net)
    columns = ("f_re", "f_im", "f_abs", "concurrence", "c1", "c2", "initial_concurrence", "ratio")
    return _channel_run(
        spec, "distribute_single", columns, rho_in, build, whole, [0, sender + 1], [0, receiver + 1]
    )


def _run_distribute_dual(spec: ScenarioSpec) -> ScenarioResult:
    net_a = _require_network(spec)
    net_b = spec.network_b or net_a
    sa, ra = _require_site(spec, "sender_a", net_a), _require_site(spec, "receiver_a", net_a)
    sb, rb = _require_site(spec, "sender_b", net_b), _require_site(spec, "receiver_b", net_b)
    rho_in = build_initial_state(spec.initial, 2)
    c_in = measures.concurrence(rho_in)
    x_in = _x_state_or_none(rho_in)
    chan_a, chan_b = maps.NetworkChannel(net_a), maps.NetworkChannel(net_b)

    def build(times):
        f = chan_a.amplitude(sa, ra, times)
        g = chan_b.amplitude(sb, rb, times)

        def values(out):
            c_out = measures.concurrence(out)
            # the closed form holds where both rails carry the same amplitude
            c1, c2 = np.full(f.shape, math.nan), np.full(f.shape, math.nan)
            same = np.abs(f - g) < 1e-12
            if x_in is not None and same.any():
                _, c1[same], c2[same] = measures.dual_rail_concurrence(x_in, f[same])
            ratio = c_out / c_in if c_in > 0 else math.nan
            return (np.abs(f), np.abs(g), c_out, c1, c2, c_in, ratio)

        return maps.tensor_map(maps.one_qubit_kraus(f), maps.one_qubit_kraus(g)), values

    na = net_a.n_sites
    columns = ("f_abs", "g_abs", "concurrence", "c1", "c2", "initial_concurrence", "ratio")
    return _channel_run(
        spec, "distribute_dual", columns, rho_in, build,
        net_a.disjoint_union(net_b), [sa, na + sb], [ra, na + rb],
    )


def _run_two_qubit(spec: ScenarioSpec, storage: bool = False) -> ScenarioResult:
    net = _require_network(spec)
    senders = _require_pair(spec, "senders", net)
    receivers = senders if storage else _require_pair(spec, "receivers", net)
    rho_in = build_initial_state(spec.initial, 2)
    chan = maps.NetworkChannel(net)

    def build(times):
        channel = chan.two_qubit(senders, receivers, times)
        e0 = channel.operators[0]
        return channel, lambda out: (
            np.abs(e0[:, 2, 2]), np.abs(e0[:, 1, 1]), np.abs(e0[:, 3, 3]),
            measures.concurrence(out), np.trace(out @ out, axis1=1, axis2=2).real,
        )

    kind = "storage" if storage else "two_qubit_transfer"
    columns = ("f11_abs", "f22_abs", "fpair_abs", "concurrence", "purity")
    return _channel_run(spec, kind, columns, rho_in, build, net, senders, receivers)


def _weak_pair_network(spec: ScenarioSpec) -> SpinNetwork:
    wire = int(spec.params.get("wire_sites", 4))
    j = float(spec.params.get("J", 1.0))
    g = float(spec.params.get("g", 0.1))
    if wire < 1:
        raise ValueError("weak_pair needs at least one wire site")
    couplings = [g] + [j] * (wire - 1) + [g]
    return SpinNetwork.chain(couplings)


def _run_weak_pair(spec: ScenarioSpec) -> ScenarioResult:
    net = _weak_pair_network(spec)
    a, b = 0, net.n_sites - 1
    rho_in = build_initial_state(spec.initial or {"kind": "basis", "string": "10"}, 2)
    chan = maps.NetworkChannel(net)

    def build(times):
        channel = chan.two_qubit((a, b), (a, b), times)
        # E_0[1, 2] = f1(i, m) is f(a -> b), read from the k=1 column the channel already holds
        return channel, lambda out: (np.abs(channel.operators[0][:, 1, 2]), measures.concurrence(out))

    result = _channel_run(spec, "weak_pair", ("f_ab_abs", "concurrence"), rho_in, build, net, [a, b], [a, b])
    conc = [row[2] for row in result.rows]
    peak_idx = int(np.argmax(conc))
    peak_t, peak_c = spec.times[peak_idx], conc[peak_idx]
    if spec.params.get("refine", True) and 0 < peak_idx < len(spec.times) - 1:
        def negative_concurrence(t):
            rho = maps.apply(chan.two_qubit((a, b), (a, b), t), rho_in)
            return -measures.concurrence(rho)

        bracket = (spec.times[peak_idx - 1], peak_t, spec.times[peak_idx + 1])
        try:
            res = minimize_scalar(negative_concurrence, bracket=bracket, method="golden")
            if -res.fun >= peak_c:
                peak_t, peak_c = float(res.x), float(-res.fun)
        except ValueError:
            pass  # non-bracketing grid triple; keep the grid peak
    return replace(result, meta={"peak_time": peak_t, "peak_concurrence": peak_c})


def _four_qubit_network(spec: ScenarioSpec) -> SpinNetwork:
    wire = int(spec.params.get("wire_sites", 2))
    j = float(spec.params.get("J", 1.0))
    g = float(spec.params.get("g", 0.1))
    if wire < 1:
        raise ValueError("four_qubit_weak needs at least one wire site")
    couplings = [j, g] + [j] * (wire - 1) + [g, j]
    return SpinNetwork.chain(couplings)


def _run_four_qubit_weak(spec: ScenarioSpec) -> ScenarioResult:
    """(A1, A2, B1, B2) from a basis configuration: one sector column, reduced to the corners."""
    net = _four_qubit_network(spec)
    n = net.n_sites
    corners = [0, 1, n - 2, n - 1]  # A1, A2, B1, B2
    initial = spec.initial or {"kind": "basis", "string": "1100"}
    if initial.get("kind") != "basis":
        raise ValueError("four_qubit_weak starts from a basis configuration of (A1, A2, B1, B2)")
    rho_in = build_initial_state(initial, 4)
    label = str(initial["string"])
    occupied = tuple(corners[q] for q, c in enumerate(label) if c == "1")
    times = np.array(spec.times)
    table = SectorPropagator(net, len(occupied)).table(times, [occupied])
    red = reduced_state(table, occupied, corners)
    pairs = np.stack([maps.partial_trace(red, list(p), [2] * 4) for p in measures.PAIRS_4])
    pair_c = measures.concurrence(pairs.reshape(-1, 4, 4)).reshape(len(measures.PAIRS_4), -1)
    purity = np.trace(red @ red, axis1=1, axis2=2).real
    g = float(spec.params.get("g", 0.1))
    j = float(spec.params.get("J", 1.0))
    if label in ("1100", "1010"):
        reference = four_qubit_closed_form(g, j, times, label)
        fid = np.einsum("ti,tij,tj->t", reference.conj(), red, reference).real
    else:
        fid = math.nan
    columns = (
        "t", "c_a1a2", "c_a1b1", "c_a1b2", "c_a2b1", "c_a2b2", "c_b1b2",
        "purity", "closed_form_fidelity",
    )
    data = [times, *pair_c, purity, fid]
    if spec.verify_oracle:
        columns += ("oracle_dev",)
        data.append(_oracle_deviations(spec, red, rho_in, net, corners, corners))
    return ScenarioResult("four_qubit_weak", columns, tuple(_rows(*data)), meta={"n_sites": n})


def _run_closed_form(spec: ScenarioSpec) -> ScenarioResult:
    g = float(spec.params.get("g", 1e-2))
    j = float(spec.params.get("J", 1.0))
    label = str((spec.initial or {"kind": "basis", "string": "1100"})["string"])
    times = np.array(spec.times)
    psi = four_qubit_closed_form(g, j, times, label)
    theta = g**2 * times / j
    return ScenarioResult(
        "closed_form_four_qubit",
        ("t", "theta") + _MEASURE_COLUMNS,
        tuple(_rows(times, theta, *_measure_values(measures.four_qubit_measures(psi)))),
        meta={"g": g, "J": j, "initial": label},
    )


_RUNNERS = {
    "qst": _run_qst,
    "distribute_single": _run_distribute_single,
    "distribute_dual": _run_distribute_dual,
    "two_qubit_transfer": _run_two_qubit,
    "storage": lambda spec: _run_two_qubit(spec, storage=True),
    "weak_pair": _run_weak_pair,
    "four_qubit_weak": _run_four_qubit_weak,
    "closed_form_four_qubit": _run_closed_form,
}
