"""Scenario runners: state transfer, entanglement distribution and generation.

Every scenario is described by a :class:`ScenarioSpec` and produces a
:class:`ScenarioResult`: named columns of one value per time/parameter grid
point, in deterministic grid order; identical specs yield identical results.

Every run is one pass over the whole time grid: one stacked channel (see
:mod:`spinmaps.maps`) and one ``apply``, or for ``four_qubit_weak`` one sector
column reduced by :func:`spinmaps.network.reduced_state`, then one call of
each measure per grid.  The checks a spec asks for take the grid too: one
dense-oracle call (the one place a run builds the 2^N space) and one stacked
CPTP verdict, each raising at the first time that fails.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import minimize_scalar

from . import maps, measures, oracle
from .network import SectorPropagator, SpinNetwork, reduced_state

# the ``params`` each scenario kind reads; the channel kinds read none
SCENARIO_PARAMS = {
    **dict.fromkeys(("qst", "distribute_single", "distribute_dual", "two_qubit_transfer", "storage"), ()),
    "weak_pair": ("wire_sites", "J", "g", "refine"),
    "four_qubit_weak": ("wire_sites", "J", "g"),
    "closed_form_four_qubit": ("g", "J"),
}
SCENARIO_KINDS = tuple(SCENARIO_PARAMS)

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
        for key in self.params:
            if key not in SCENARIO_PARAMS[self.kind]:
                raise ValueError(f"params.{key} is not read by scenario {self.kind!r} "
                                 f"(accepted: {', '.join(SCENARIO_PARAMS[self.kind]) or 'none'})")
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


def _equal_columns(data: dict) -> dict:
    """Columns of one length: numbers as float64 arrays, text as text, a scalar repeated."""
    arrays = [np.asarray(value) for value in data.values()]
    arrays = [a if a.dtype.kind == "U" else a.astype(float) for a in arrays]
    return dict(zip(data, np.broadcast_arrays(*arrays)))


@dataclass(frozen=True)
class ScenarioResult:
    """Named columns of a run, in CSV order, one value per grid point.

    ``data`` maps each column name to its values; a scalar is repeated down
    the column.  ``columns``, ``rows`` and :meth:`column` read them.
    """

    kind: str
    data: dict
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "data", _equal_columns(self.data))

    @classmethod
    def concat(cls, kind: str, parts, meta=None) -> "ScenarioResult":
        """The column dicts ``parts``, which name the same columns, one after another."""
        parts = [_equal_columns(part) for part in parts]
        return cls(kind, {name: np.concatenate([part[name] for part in parts]) for name in parts[0]},
                   meta or {})

    @property
    def columns(self) -> tuple:
        return tuple(self.data)

    @property
    def rows(self) -> tuple:
        """Row tuples of Python floats and text."""
        return tuple(zip(*(values.tolist() for values in self.data.values())))

    def column(self, name: str) -> np.ndarray:
        return np.array(self.data[name], dtype=float)

    def write_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.columns)
            writer.writerows(self.rows)  # Python floats, which csv writes as their shortest repr


# ---------------------------------------------------------------------------
# initial states

def _basis_label(desc: dict, n_qubits: int) -> str:
    """The ``string`` of a basis-state description, checked to name ``n_qubits`` qubits."""
    string = desc["string"]
    if not isinstance(string, str):
        example = "0" * (n_qubits // 2) + "1" * (n_qubits - n_qubits // 2)
        raise ValueError(
            f"initial.string is the number {string!r}, not a label: YAML reads unquoted digits "
            f"as a number (a leading 0 as octal); quote the label, e.g. string: '{example}'"
        )
    if len(string) != n_qubits or any(c not in "01" for c in string):
        raise ValueError(f"basis string {string!r} does not describe {n_qubits} qubits")
    return string


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
        vec = np.zeros(2**n_qubits, dtype=complex)
        vec[int(_basis_label(desc, n_qubits), 2)] = 1.0
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


_QUBITS = ("a1", "a2", "b1", "b2")


def _qubit_names(qubits) -> str:
    return "".join(_QUBITS[q] for q in qubits)


def _measure_columns(report: measures.MeasureReport) -> dict:
    """The four-qubit measures as named columns: pairs, one vs rest, splits, tangles."""
    def rest(pair):
        return tuple(q for q in range(4) if q not in pair)

    return {
        **{f"c_{_qubit_names(p)}": c for p, c in report.pair_concurrence.items()},
        **{f"c_{_QUBITS[q]}_rest": c for q, c in enumerate(report.one_vs_rest)},
        **{f"c_{_qubit_names(p)}_{_qubit_names(rest(p))}": c for p, c in report.pair_vs_pair.items()},
        **{f"tau3_{_qubit_names(kept)}": tau for kept, tau in report.three_tangle_bound.items()},
        "tau4": report.four_tangle,
        "c4": report.four_qubit_concurrence,
    }


# phases at which the windows of four_qubit_measure_sweep start, and their span
WINDOW_STARTS = (0.0, np.pi / 2.0, np.pi)
WINDOW_WIDTH = np.pi


def four_qubit_measure_sweep(
    g: float = 1e-2,
    j_coupling: float = 1.0,
    points_per_window: int = 1000,
    initial: str = "1010",
) -> ScenarioResult:
    """Entanglement measures of the closed-form state over three time windows.

    Windows start at the beginning, a quarter and a half of the slow period
    2*pi*J/g^2 (phases 0, pi/2, pi) and span half a period each.  The time
    grid maps phase theta to t = theta * J / g^2.
    """
    windows = []
    for w, start in enumerate(WINDOW_STARTS):  # one window at a time keeps the measures' peak memory
        thetas = np.linspace(start, start + WINDOW_WIDTH, points_per_window)
        t = thetas * j_coupling / g**2
        report = measures.four_qubit_measures(four_qubit_closed_form(g, j_coupling, t, initial))
        windows.append({"window": w, "t": t, "theta": thetas, **_measure_columns(report)})
    meta = {"g": g, "J": j_coupling, "initial": initial}
    return ScenarioResult.concat("four_qubit_measure_sweep", windows, meta)


# ---------------------------------------------------------------------------
# scenario runners

def run(spec: ScenarioSpec) -> ScenarioResult:
    """Execute one scenario and return its time series."""
    runner = _RUNNERS[spec.kind]
    return runner(spec)


def sweep(spec: ScenarioSpec, axis: str, values) -> list:
    """Run the scenario once per value of the swept parameter.

    ``axis="p"`` sweeps the Werner weight of a Werner initial state; any
    other axis must be one of the ``params`` the scenario reads.
    """
    werner = spec.initial.get("kind") == "werner"
    if axis not in SCENARIO_PARAMS[spec.kind] and not (axis == "p" and werner):
        params = ", ".join(SCENARIO_PARAMS[spec.kind]) or "none"
        raise ValueError(f"sweep.axis {axis!r} changes nothing in scenario {spec.kind!r} "
                         f"(accepted: 'p' on a Werner initial state, params: {params})")
    values = list(values)
    if not values:
        raise ValueError("sweep grid is empty")
    results = []
    for v in values:
        if axis == "p" and werner:
            new = replace(spec, initial={**spec.initial, "p": float(v)})
        else:
            new = replace(spec, params={**spec.params, axis: float(v)})
        res = run(new)
        results.append(replace(res, meta={**res.meta, axis: float(v)}))
    return results


def _result(spec: ScenarioSpec, columns: dict, check=None, channel=None, meta=None) -> ScenarioResult:
    """``t``, then ``columns``, then the check columns ``spec`` asks for.

    ``oracle_dev`` is :func:`_oracle_deviations` of ``check`` and
    ``cptp_min_eig`` the minimum Choi eigenvalue of the stacked ``channel`` at
    each time; a failure raises :class:`VerificationError` for the first time
    it occurs at.
    """
    data = {"t": spec.times, **columns}
    if spec.verify_oracle:
        data["oracle_dev"] = _oracle_deviations(spec, *check)
    if spec.verify_cptp:
        verdict = maps.is_cptp(channel)
        bad = np.flatnonzero(~verdict.ok)
        if bad.size:
            raise VerificationError(
                f"map failed the CPTP check (min Choi eigenvalue {verdict.min_choi_eigenvalue[bad[0]]:.3e})"
            )
        data["cptp_min_eig"] = verdict.min_choi_eigenvalue
    return ScenarioResult(spec.kind, data, meta or {})


def _oracle_deviations(spec, whole, senders, receivers, rho_in, rho_out) -> np.ndarray:
    """Trace distance of each ``rho_out`` slice to the dense oracle's output at its time.

    The oracle evolves ``rho_in`` from the ``senders`` of ``whole`` (the run's
    network, or union of networks) and reads ``receivers``.
    """
    oracle.require_dense_sites(whole.n_sites, "verify.oracle")
    ref = oracle.reduced_output(whole, rho_in, senders, receivers, np.array(spec.times))
    devs = maps.trace_distance(rho_out, ref)
    bad = np.flatnonzero(devs > spec.oracle_tol)
    if bad.size:
        raise VerificationError(
            f"map/oracle deviation {devs[bad[0]]:.3e} beyond tolerance at t={spec.times[bad[0]]}"
        )
    return devs


def _run_qst(spec: ScenarioSpec) -> ScenarioResult:
    net = _require_network(spec)
    sender, receiver = _require_site(spec, "sender", net), _require_site(spec, "receiver", net)
    rho_in = build_initial_state(spec.initial or {"kind": "basis", "string": "1"}, 1)
    f = maps.NetworkChannel(net).amplitude(sender, receiver, np.array(spec.times))
    channel = maps.one_qubit_kraus(f)
    out = maps.apply(channel, rho_in)
    columns = {
        "f_re": f.real, "f_im": f.imag, "f_abs": np.abs(f),
        "out_p1": out[:, 1, 1].real, "out_coh_re": out[:, 0, 1].real, "out_coh_im": out[:, 0, 1].imag,
    }
    return _result(spec, columns, (net, [sender], [receiver], rho_in, out), channel)


def _run_distribute_single(spec: ScenarioSpec) -> ScenarioResult:
    net = _require_network(spec)
    sender, receiver = _require_site(spec, "sender", net), _require_site(spec, "receiver", net)
    rho_in = build_initial_state(spec.initial, 2)
    c_in = measures.concurrence(rho_in)
    x_in = _x_state_or_none(rho_in)
    f = maps.NetworkChannel(net).amplitude(sender, receiver, np.array(spec.times))
    channel = maps.extend_with_identity(maps.one_qubit_kraus(f), side="left")
    out = maps.apply(channel, rho_in)
    c_out = measures.concurrence(out)
    if x_in is not None:
        _, c1, c2 = measures.transferred_concurrence(x_in, f)
    else:
        c1 = c2 = math.nan
    columns = {
        "f_re": f.real, "f_im": f.imag, "f_abs": np.abs(f), "concurrence": c_out, "c1": c1, "c2": c2,
        "initial_concurrence": c_in, "ratio": c_out / c_in if c_in > 0 else math.nan,
    }
    # the oracle evolves the idle first qubit as an uncoupled site 0 beside the network
    whole = SpinNetwork(np.zeros((1, 1))).disjoint_union(net)
    return _result(spec, columns, (whole, [0, sender + 1], [0, receiver + 1], rho_in, out), channel)


def _run_distribute_dual(spec: ScenarioSpec) -> ScenarioResult:
    net_a = _require_network(spec)
    net_b = spec.network_b or net_a
    sa, ra = _require_site(spec, "sender_a", net_a), _require_site(spec, "receiver_a", net_a)
    sb, rb = _require_site(spec, "sender_b", net_b), _require_site(spec, "receiver_b", net_b)
    rho_in = build_initial_state(spec.initial, 2)
    c_in = measures.concurrence(rho_in)
    x_in = _x_state_or_none(rho_in)
    times = np.array(spec.times)
    f = maps.NetworkChannel(net_a).amplitude(sa, ra, times)
    g = maps.NetworkChannel(net_b).amplitude(sb, rb, times)
    channel = maps.tensor_map(maps.one_qubit_kraus(f), maps.one_qubit_kraus(g))
    out = maps.apply(channel, rho_in)
    c_out = measures.concurrence(out)
    # the closed form holds where both rails carry the same amplitude
    c1, c2 = np.full(f.shape, math.nan), np.full(f.shape, math.nan)
    same = np.abs(f - g) < 1e-12
    if x_in is not None and same.any():
        _, c1[same], c2[same] = measures.dual_rail_concurrence(x_in, f[same])
    columns = {
        "f_abs": np.abs(f), "g_abs": np.abs(g), "concurrence": c_out, "c1": c1, "c2": c2,
        "initial_concurrence": c_in, "ratio": c_out / c_in if c_in > 0 else math.nan,
    }
    na = net_a.n_sites
    check = (net_a.disjoint_union(net_b), [sa, na + sb], [ra, na + rb], rho_in, out)
    return _result(spec, columns, check, channel)


def _run_two_qubit(spec: ScenarioSpec, storage: bool = False) -> ScenarioResult:
    net = _require_network(spec)
    senders = _require_pair(spec, "senders", net)
    receivers = senders if storage else _require_pair(spec, "receivers", net)
    rho_in = build_initial_state(spec.initial, 2)
    channel = maps.NetworkChannel(net).two_qubit(senders, receivers, np.array(spec.times))
    out = maps.apply(channel, rho_in)
    e0 = channel.operators[0]
    columns = {
        "f11_abs": np.abs(e0[:, 2, 2]), "f22_abs": np.abs(e0[:, 1, 1]), "fpair_abs": np.abs(e0[:, 3, 3]),
        "concurrence": measures.concurrence(out), "purity": np.trace(out @ out, axis1=1, axis2=2).real,
    }
    return _result(spec, columns, (net, senders, receivers, rho_in, out), channel)


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
    channel = chan.two_qubit((a, b), (a, b), np.array(spec.times))
    out = maps.apply(channel, rho_in)
    conc = measures.concurrence(out)
    peak_idx = int(np.argmax(conc))
    peak_t, peak_c = spec.times[peak_idx], float(conc[peak_idx])
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
    # E_0[1, 2] = f1(i, m) is f(a -> b), read from the k=1 column the channel already holds
    columns = {"f_ab_abs": np.abs(channel.operators[0][:, 1, 2]), "concurrence": conc}
    return _result(spec, columns, (net, [a, b], [a, b], rho_in, out), channel,
                   meta={"peak_time": peak_t, "peak_concurrence": peak_c})


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
    label = initial["string"]
    occupied = tuple(corners[q] for q, c in enumerate(label) if c == "1")
    times = np.array(spec.times)
    table = SectorPropagator(net, len(occupied)).table(times, [occupied])
    red = reduced_state(table, occupied, corners)
    pairs = np.stack([maps.partial_trace(red, list(p), [2] * 4) for p in measures.PAIRS_4])
    pair_c = measures.concurrence(pairs.reshape(-1, 4, 4)).reshape(len(measures.PAIRS_4), -1)
    g = float(spec.params.get("g", 0.1))
    j = float(spec.params.get("J", 1.0))
    if label in ("1100", "1010"):
        reference = four_qubit_closed_form(g, j, times, label)
        fid = np.einsum("ti,tij,tj->t", reference.conj(), red, reference).real
    else:
        fid = math.nan
    columns = {
        **{f"c_{_qubit_names(p)}": c for p, c in zip(measures.PAIRS_4, pair_c)},
        "purity": np.trace(red @ red, axis1=1, axis2=2).real,
        "closed_form_fidelity": fid,
    }
    return _result(spec, columns, (net, corners, corners, rho_in, red), meta={"n_sites": n})


def _run_closed_form(spec: ScenarioSpec) -> ScenarioResult:
    g = float(spec.params.get("g", 1e-2))
    j = float(spec.params.get("J", 1.0))
    label = _basis_label(spec.initial or {"kind": "basis", "string": "1100"}, 4)
    times = np.array(spec.times)
    psi = four_qubit_closed_form(g, j, times, label)
    columns = {"theta": g**2 * times / j, **_measure_columns(measures.four_qubit_measures(psi))}
    return _result(spec, columns, meta={"g": g, "J": j, "initial": label})


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
