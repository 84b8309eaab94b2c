"""Scenario runners: state transfer, entanglement distribution and generation.

Every scenario is described by a :class:`ScenarioSpec` and produces a
:class:`ScenarioResult`: named columns of one value per time/parameter grid
point, in deterministic grid order; identical specs yield identical results.

Every run is one pass over the whole time grid, in two steps.  The build
takes everything the spec reads but its initial state: one stacked channel
(see :mod:`spinmaps.maps`) and, where asked, its stacked CPTP verdict.  The
read-out takes the initial state: one ``apply``, or for ``four_qubit_weak``
one sector column reduced by :func:`spinmaps.network.reduced_state`, then one
call of each measure per grid, and, where asked, one oracle call (the one
place a run evolves the 2^N space, by the sparse series).  Each check raises
at the first time that fails.  A sweep of the Werner weight reads one build
out for each weight.
"""

from __future__ import annotations

import copy
import math
import numbers
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from . import maps, measures, oracle
from .network import NumericalError, SectorPropagator, SpinNetwork, check_times, reduced_state

ORACLE_TOL = 1e-8


class VerificationError(RuntimeError):
    """An on-the-fly invariant check (oracle equivalence, CPTP) failed."""


class _Reads(NamedTuple):
    """A scenario kind's build, read-out and report, its initial state's qubits and default, and what else it reads.

    See SCENARIOS.
    """

    build: Callable
    read: Callable
    qubits: int
    initial: dict = {}
    sites: tuple = ()
    params: dict = {}
    networks: tuple = ("network",)
    basis: bool = False
    cptp: bool = True
    oracle: Callable = None
    closed_form: bool = False
    report: Callable = None


def reject_unread(keys, accepted, prefix: str, reader: str):
    """Raise ValueError at the first of ``keys`` that ``reader`` does not read: one not in ``accepted``."""
    for key in keys:
        if key not in accepted:
            raise ValueError(f"{prefix}{key} is not read by {reader} (accepted: {', '.join(accepted) or 'none'})")


def _mapping(section, where: str) -> dict:
    if not isinstance(section, dict):
        raise ValueError(f"section {where!r} must be a mapping")
    return section


def read_section(section, accepted, where: str, reader: str) -> None:
    """Raise ValueError unless the config section ``where`` is a mapping whose every key is one of ``accepted``."""
    reject_unread(_mapping(section, where), accepted, f"{where}.", reader)


def section_kind(section: dict, fields: dict, where: str, what: str, default=None) -> str:
    """The ``kind`` of the config section ``where``, once each of its other keys is one of ``fields[kind]``."""
    kind = _mapping(section, where).get("kind", default)
    if kind not in fields:
        raise ValueError(f"unknown {what} kind {kind!r}")
    reject_unread([key for key in section if key != "kind"], fields[kind], f"{where}.", f"{what} kind {kind!r}")
    return kind


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative description of one protocol run; building it reads every input (see SCENARIOS)."""

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
    rho_in: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}, expected one of {SCENARIO_KINDS}")
        reads, reader = SCENARIOS[self.kind], f"scenario {self.kind!r}"
        for flag, value in (("oracle", self.verify_oracle), ("cptp", self.verify_cptp)):
            if not isinstance(value, bool):  # a truthy "no" must not turn a check on
                raise ValueError(f"verify.{flag} must be true or false, got {value!r}")
        read_section(self.params, reads.params, "params", reader)
        try:
            times = tuple(real_number(t, "times") for t in self.times)
        except TypeError:  # not iterable
            raise ValueError(f"times must be a list of real numbers, got {self.times!r}") from None
        if not times:
            raise ValueError("time grid is empty")
        if not all(map(math.isfinite, times)):
            raise ValueError("times must be finite (no NaN or infinity)")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("time grid must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "oracle_tol", positive_tolerance(self.oracle_tol, "tolerances.oracle"))
        if self.verify_cptp and not reads.cptp:
            raise ValueError(f"verify.cptp does not apply to scenario {self.kind!r}: it evolves no channel")
        if self.verify_oracle and not reads.oracle:
            raise ValueError(f"verify.oracle does not apply to scenario {self.kind!r}: it evolves no network")
        reject_unread([name for name in ("network", "network_b") if getattr(self, name)], reads.networks, "", reader)
        if reads.networks and self.network is None:
            raise ValueError(f"scenario {self.kind!r} needs a network")
        read_section(self.sites, reads.sites, "sites", reader)
        object.__setattr__(self, "sites", {key: self._read_site(key) for key in reads.sites})
        object.__setattr__(self, "params", {
            key: whole_number(v, f"params.{key}", minimum=1) if isinstance(d, int)
            else finite_number(v, f"params.{key}")
            for key, d in reads.params.items() for v in [self.params.get(key, d)]})
        initial = reads.initial if self.initial == {} else self.initial
        if reads.basis and isinstance(initial, dict) and initial.get("kind") != "basis":
            raise ValueError(f"{self.kind} starts from a basis configuration of (A1, A2, B1, B2); "
                             f"initial.kind is {initial.get('kind')!r}")
        object.__setattr__(self, "rho_in", build_initial_state(initial, reads.qubits))
        object.__setattr__(self, "initial", dict(initial))  # a copy: the default is shared by every spec of its kind
        if self.verify_oracle:
            whole, senders, _ = reads.oracle(self)
            oracle.require_series_memory(whole, 1 << len(senders), np.array(times), "verify.oracle")
        g, j, label = self.params.get("g"), self.params.get("J"), self.initial.get("string")
        if reads.closed_form and not closed_form_holds(g, j, label, times):
            raise ValueError(f"params.g = {g}, params.J = {j} and initial.string {label!r} leave the closed form: "
                             "it needs '1100' or '1010', g, J > 0 and finite phases g^2 max|t| / J and 2 J max|t|")

    def _read_site(self, key: str):
        """``sites[key]``: a site of its network or, for a plural key, a pair of sites."""
        pair, network = key.endswith("s"), (key.endswith("_b") and self.network_b) or self.network
        value = self.sites.get(key)
        if pair and (not isinstance(value, (list, tuple, np.ndarray)) or len(value) != 2):
            raise ValueError(f"sites.{key} must be a pair of two sites, got {value!r}")
        sites = tuple(whole_number(s, f"sites.{key}") for s in (value if pair else [value]))
        if pair and sites[0] == sites[1]:
            raise ValueError(f"sites.{key} must name two distinct sites, got {sites}")
        for site in sites:
            if not 0 <= site < network.n_sites:
                raise ValueError(f"sites.{key} {site} out of range for {network.n_sites} sites")
        return sites if pair else sites[0]


def _csv_text(text: str) -> str:
    """``text`` as a ``csv.writer`` cell: quoted, quotes doubled, where it holds a comma, a quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_cells(values: np.ndarray) -> list:
    """The CSV cells of a column, each distinct value formatted once; floats by bit pattern, so -0.0 stays apart."""
    if values.dtype.kind == "f":
        distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
        cells = map(float.__repr__, distinct.view(float).tolist())
    else:
        distinct, inverse = np.unique(values, return_inverse=True)
        cells = map(_csv_text, distinct.tolist())
    return np.array(list(cells), dtype=object)[inverse].tolist()


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
    def concat(cls, kind: str, parts) -> "ScenarioResult":
        """The column dicts ``parts``, which name the same columns, one after another."""
        parts = [_equal_columns(part) for part in parts]
        return cls(kind, {name: np.concatenate([part[name] for part in parts]) for name in parts[0]})

    @property
    def columns(self) -> tuple:
        return tuple(self.data)

    @property
    def rows(self) -> tuple:
        """Row tuples of Python floats and text."""
        return tuple(zip(*(values.tolist() for values in self.data.values())))

    def column(self, name: str) -> np.ndarray:
        return np.array(self.data[name], dtype=float)

    def write_csv(self, path) -> int:
        """Write the header and every row to ``path``, as ``csv.writer`` would; return the number of rows.

        A number is written as the shortest repr of its float, and the header and
        text cells are quoted only where they hold a comma, a quote or a line
        break.  The rows go out in one write, formatted a column at a time and
        each distinct value once: a ``p`` sweep's many rows come from one map
        (see :func:`sweep`), and formatting them is the larger part of writing them.
        """
        header = ",".join(map(_csv_text, self.columns))
        cells = [_csv_cells(values) for values in self.data.values()]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            # a line of one empty cell is written quoted, as csv.writer writes it (a header of none stays empty)
            fh.write((header or '""' * len(self.columns)) + "\r\n")
            fh.write("".join((",".join(row) or '""') + "\r\n" for row in zip(*cells)))
        return len(cells[0]) if cells else 0


# ---------------------------------------------------------------------------
# initial states

# the fields each initial-state kind reads besides ``kind``
INITIAL_FIELDS = {
    "bell": ("label",), "werner": ("p", "bell"), "xstate": ("populations", "rho03", "rho12"),
    "basis": ("string",), "matrix": ("entries",),
}


@contextmanager
def _field_errors(name: str):
    """A ValueError raised inside, by a check of the value read from the config field ``name``, names it first."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from exc


def build_initial_state(desc: dict, n_qubits: int) -> np.ndarray:
    """Density matrix from a state description dictionary; a rejection names the field it read."""
    kind = section_kind(desc, INITIAL_FIELDS, "initial", "initial-state")
    if kind in ("bell", "werner"):
        if n_qubits != 2:
            raise ValueError(f"initial.kind: {kind} input needs a two-qubit slot")
        label = "label" if kind == "bell" else "bell"
        with _field_errors(f"initial.{label}"):
            psi = measures.bell_state(desc.get(label, "psi+"))
        if kind == "bell":
            return maps.pure_state_density(psi)
        p = finite_number(desc.get("p"), "initial.p")
        with _field_errors("initial.p"):  # the label is valid: the weight fails
            return measures.werner_state(p, desc.get("bell", "psi+"))
    if kind == "xstate":
        pops = desc.get("populations")
        if not isinstance(pops, (list, tuple)) or len(pops) != 4:
            raise ValueError(f"initial.populations must be a list of four numbers, got {pops!r}")
        pops = [finite_number(p, "initial.populations") for p in pops]
        coherences = {key: _complex_number(desc.get(key, 0.0), f"initial.{key}") for key in ("rho03", "rho12")}
        with _field_errors("initial.populations"):
            measures.XState(*pops)  # the populations alone, then each coherence against them
        for key, value in coherences.items():
            with _field_errors(f"initial.{key}"):
                measures.XState(*pops, **{key: value})
        return measures.XState(*pops, **coherences).to_density_matrix()
    if kind == "basis":
        if "string" not in desc:
            raise ValueError("initial.string must give the basis state's label")
        string = desc["string"]
        if not isinstance(string, str):
            example = "0" * (n_qubits // 2) + "1" * (n_qubits - n_qubits // 2)
            raise ValueError(
                f"initial.string is the number {string!r}, not a label: YAML reads unquoted digits "
                f"as a number (a leading 0 as octal); quote the label, e.g. string: '{example}'"
            )
        if len(string) != n_qubits or any(c not in "01" for c in string):
            raise ValueError(f"initial.string: basis string {string!r} does not describe {n_qubits} qubits")
        vec = np.zeros(2**n_qubits, dtype=complex)
        vec[int(string, 2)] = 1.0
        return maps.pure_state_density(vec)
    rows = desc.get("entries")  # a matrix
    if not (isinstance(rows, (list, tuple)) and rows
            and all(isinstance(row, (list, tuple)) and len(row) == len(rows) for row in rows)):
        raise ValueError(f"initial.entries must be a square list of rows, got {rows!r}")
    rho = np.array([[_complex_number(v, "initial.entries") for v in row] for row in rows])
    with _field_errors("initial.entries"):
        maps.assert_density_matrix(rho)
    if rho.shape != (2**n_qubits, 2**n_qubits):
        raise ValueError(f"initial.entries: matrix input has shape {rho.shape}, expected {(2**n_qubits,)*2}")
    return rho


def _complex_number(value, name: str) -> complex:
    """``value`` as a complex number: a finite real number, or an [re, im] pair of them (see :func:`finite_number`)."""
    if not isinstance(value, (list, tuple)):
        return complex(finite_number(value, name))
    if len(value) != 2:
        raise ValueError(f"{name} must be a real number or an [re, im] pair, got {value!r}")
    return complex(*(finite_number(part, name) for part in value))


def _x_state_or_none(rho: np.ndarray):
    try:
        return measures.XState.from_density_matrix(rho)
    except ValueError:
        return None


def whole_number(value, name: str, minimum=None) -> int:
    """``value`` as an int, if it is a whole number of at least ``minimum`` (when given).

    3 and 3.0 are whole numbers; 2.5, True, "3" and NaN are not.  Anything
    else raises ValueError naming the field ``name``.
    """
    try:
        whole = int(value) == value and not isinstance(value, bool)
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value!r}")
    return int(value)


def positive_tolerance(value, name: str) -> float:
    """``value`` as a tolerance: a :func:`real_number`, finite and positive."""
    tolerance = real_number(value, name)
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"{name} must be finite and positive, got {tolerance}")
    return tolerance


def real_number(value, name: str) -> float:
    """``value`` as a float, if it is a real number.

    3, 2.5 and NaN are real numbers; True, "3" and None are not.  Anything
    else raises ValueError naming the field ``name``.
    """
    # a float (numpy's float64 is one) first: a time grid is read entry by entry
    if isinstance(value, float) or (isinstance(value, numbers.Real) and not isinstance(value, bool)):
        return float(value)
    hint = ""
    if isinstance(value, str) and "e" in value.lower():
        try:
            float(value)
            hint = " (YAML reads it as text: write an exponent as 1.0e-3 or 1.0e+3, with a decimal point and a sign)"
        except ValueError:
            pass
    raise ValueError(f"{name} must be a real number, got {value!r}{hint}")


def finite_number(value, name: str) -> float:
    """``value`` as a float, if it is a :func:`real_number` that is finite (not NaN or infinite)."""
    number = real_number(value, name)
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {number}")
    return number


# ---------------------------------------------------------------------------
# run configurations: every section of a parsed configuration file is read here

# the fields each network kind reads besides ``kind``, which defaults to chain; the first is required
NETWORK_FIELDS = {"uniform_chain": ("sites", "coupling"), "chain": ("couplings", "zz_couplings", "fields"),
                  "matrix": ("xy", "zz", "fields")}
_SECTION_KEYS = {"times": ("start", "stop", "points", "list"), "verify": ("oracle", "cptp"),
                 "tolerances": ("oracle",), "sweep": ("axis", "values")}
_TOP_KEYS = ("scenario", "network", "network_b", "sites", "initial", "params", "output", *_SECTION_KEYS)


def _numbers(value, name: str):
    """A number, or a (nested) list of numbers, as floats; each entry is checked by ``finite_number``."""
    if isinstance(value, (list, tuple)):
        return [_numbers(v, name) for v in value]
    return finite_number(value, name)


def _network_from_config(section, where: str) -> SpinNetwork:
    """The network of the section ``where``; a ``SpinNetwork`` error is prefixed with the section's name."""
    kind = section_kind(section, NETWORK_FIELDS, where, "network", "chain")
    required = NETWORK_FIELDS[kind][0]
    if section.get(required) is None:
        raise ValueError(f"{where}.{required} is required by network kind {kind!r}")
    # every number the section gives, entry by entry (sites a whole number); an absent optional field reads as None
    num = {key: whole_number(value, f"{where}.sites") if key == "sites" else _numbers(value, f"{where}.{key}")
           for key, value in section.items() if key != "kind" and value is not None}
    with _field_errors(where):
        if kind == "uniform_chain":
            return SpinNetwork.uniform_chain(num["sites"], num.get("coupling", 1.0))
        if kind == "chain":
            return SpinNetwork.chain(num["couplings"], num.get("zz_couplings"), num.get("fields"))
        return SpinNetwork(np.array(num["xy"]), num.get("zz"), num.get("fields"))


def _times_from_config(section):
    """The ``times`` section's grid: its ``list``, or ``points`` times from ``start`` to ``stop``; never both."""
    if section is None:
        raise ValueError("missing required section 'times'")
    if "list" in section:
        reject_unread(section, ("list",), "times.", "times given as a list")
        if not isinstance(section["list"], (list, tuple)):
            raise ValueError(f"times.list must be a list of numbers, got {section['list']!r}")
        return section["list"]
    try:
        start = real_number(section["start"], "times.start")
        stop = real_number(section["stop"], "times.stop")
        points = whole_number(section["points"], "times.points", minimum=1)
    except KeyError as exc:
        raise ValueError(f"times section needs start/stop/points or list (missing {exc})") from exc
    return tuple(np.linspace(start, stop, points))


def spec_from_config(cfg, tolerance=None) -> ScenarioSpec:
    """The scenario of a parsed configuration file, every key read; ``tolerance`` replaces ``tolerances.oracle``."""
    if not isinstance(cfg, dict):
        raise ValueError("configuration must be a mapping at top level")
    reject_unread(cfg, _TOP_KEYS, "", "spinmaps")
    for key, accepted in _SECTION_KEYS.items():
        if cfg.get(key) is not None:
            read_section(cfg[key], accepted, key, "spinmaps")
    verify = cfg.get("verify") or {}
    spec = ScenarioSpec(
        kind=cfg.get("scenario"),
        times=_times_from_config(cfg.get("times")),
        **{key: _network_from_config(cfg[key], key) for key in ("network", "network_b") if cfg.get(key) is not None},
        sites=cfg.get("sites", {}),
        initial={} if cfg.get("initial") is None else cfg["initial"],
        params=cfg.get("params", {}),
        verify_oracle=verify.get("oracle", False),
        verify_cptp=verify.get("cptp", False),
        oracle_tol=(cfg.get("tolerances") or {}).get("oracle", ORACLE_TOL),
    )
    return spec if tolerance is None else replace(spec, oracle_tol=tolerance)


def sweep_from_config(cfg, tolerance=None) -> tuple:
    """``(axis, sweep_specs(...))`` of the ``sweep`` section of a parsed configuration file (see spec_from_config)."""
    spec = spec_from_config(cfg, tolerance)
    section = cfg.get("sweep")
    if not section or "axis" not in section or "values" not in section:
        raise ValueError("sweep requires a 'sweep:' section with 'axis' and 'values'")
    axis = str(section["axis"])
    return axis, sweep_specs(spec, axis, section["values"])


# ---------------------------------------------------------------------------
# closed-form four-qubit evolutions

def closed_form_holds(g: float, j_coupling: float, initial: str, t) -> bool:
    """Whether :func:`four_qubit_closed_form` holds: from "1100" or "1010" at g, J > 0 with finite phases."""
    if not (g > 0 and j_coupling > 0 and initial in ("1100", "1010")):
        return False
    t_max = np.abs(np.asarray(t, dtype=float)).max(initial=0.0)
    with np.errstate(over="ignore", invalid="ignore"):  # the phases g^2 max|t| / J and 2 J max|t|; an overflow is inf
        phases = np.float64(g) ** 2 * t_max / j_coupling, 2.0 * np.float64(j_coupling) * t_max
    return bool(np.isfinite(phases).all())


def four_qubit_closed_form(g: float, j_coupling: float, t, initial: str = "1100") -> np.ndarray:
    """Closed-form pure state of qubits (A1, A2, B1, B2) in the weak-coupling regime.

    ``initial`` selects the starting basis state: "1100" (both sender qubits
    excited) or "1010" (one excitation per pair).  Normalized to 1e-12.  An
    array of T times gives a (T, 16) stack of states.
    """
    t = np.asarray(check_times(t))
    if not closed_form_holds(g, j_coupling, initial, t):
        raise ValueError(f"no closed form at g={g}, J={j_coupling} from {initial!r} over these times")
    theta = g**2 * t / j_coupling
    psi = np.zeros(t.shape + (16,), dtype=complex)
    if initial == "1100":
        psi[..., int("0011", 2)] = (1.0 - np.cos(theta)) / 2.0
        psi[..., int("0101", 2)] = 0.5j * np.sin(theta)
        psi[..., int("1010", 2)] = -0.5j * np.sin(theta)
        psi[..., int("1100", 2)] = (1.0 + np.cos(theta)) / 2.0
    else:
        fast_c, fast_s = np.cos(2.0 * j_coupling * t), np.sin(2.0 * j_coupling * t)
        psi[..., int("1010", 2)] = (fast_c + np.cos(theta)) / 2.0
        psi[..., int("0101", 2)] = (fast_c - np.cos(theta)) / 2.0
        psi[..., int("1001", 2)] = -0.5j * fast_s
        psi[..., int("0110", 2)] = -0.5j * fast_s
        psi[..., int("1100", 2)] = -0.5j * np.sin(theta)
        psi[..., int("0011", 2)] = +0.5j * np.sin(theta)
    # each state's norm as np.linalg.norm takes it for one vector (a stacked axis sums
    # in another order), so a stacked state equals the single-time state bit for bit
    norm = np.array([np.linalg.norm(row) for row in psi.reshape(-1, 16)]).reshape(t.shape + (1,))
    off = ~(np.abs(norm - 1.0) <= 1e-12)  # a NaN norm is off too
    if off.any():
        raise ValueError(f"closed-form state norm {norm[off][0]} off unity")
    return psi / norm


# figure 7: the closed form from ``FIGURE7_START`` at couplings g and J, over windows
# starting at these phases and spanning WINDOW_WIDTH each
FIGURE7_G = 1e-2
FIGURE7_J = 1.0
FIGURE7_START = "1010"
WINDOW_STARTS = (0.0, np.pi / 2.0, np.pi)
WINDOW_WIDTH = np.pi


def four_qubit_measure_sweep(points_per_window: int = 1000) -> ScenarioResult:
    """Entanglement measures of the closed-form state over three time windows (figure 7).

    Windows start at the beginning, a quarter and a half of the slow period
    2*pi*J/g^2 (phases 0, pi/2, pi) and span half a period each.  The time
    grid maps phase theta to t = theta * J / g^2.
    """
    g, j = FIGURE7_G, FIGURE7_J
    windows = []
    for w, start in enumerate(WINDOW_STARTS):  # one window at a time keeps the measures' peak memory
        thetas = np.linspace(start, start + WINDOW_WIDTH, points_per_window)
        t = thetas * j / g**2
        psi = four_qubit_closed_form(g, j, t, FIGURE7_START)
        windows.append({"window": w, "t": t, "theta": thetas, **measures.four_qubit_measures(psi)})
    return ScenarioResult.concat("four_qubit_measure_sweep", windows)


# ---------------------------------------------------------------------------
# scenario runners

def run(spec: ScenarioSpec) -> ScenarioResult:
    """Execute one scenario: build its map, read it out for ``spec``'s initial state, add its kind's report as meta."""
    reads = SCENARIOS[spec.kind]
    built = reads.build(spec)
    result = reads.read(spec, built)
    return replace(result, meta=reads.report(spec, built, result)) if reads.report else result


def sweep_specs(spec: ScenarioSpec, axis: str, values) -> list:
    """(value, spec) for each value of the swept parameter; every value is checked here, before any computing.

    ``axis`` is ``p``, the weight of a Werner initial state, or one of the ``params`` the scenario reads.
    """
    params = SCENARIOS[spec.kind].params
    if axis not in params and (axis, spec.initial["kind"]) != ("p", "werner"):
        raise ValueError(f"sweep.axis {axis!r} changes nothing in scenario {spec.kind!r} "
                         f"(accepted: 'p' on a Werner initial state, params: {', '.join(params) or 'none'})")
    try:  # a string would iterate as characters
        grid = None if isinstance(values, str) else [real_number(v, "sweep.values") for v in values]
    except (TypeError, ValueError):
        grid = None
    if grid is None:
        raise ValueError(f"sweep.values must be a list of numbers, got {values!r}")
    if not grid:
        raise ValueError("sweep grid is empty")
    grid = [finite_number(v, "sweep.values") for v in grid]
    return [(v, _with_weight(spec, v) if axis == "p" else replace(spec, params={**spec.params, axis: v}))
            for v in grid]


def _with_weight(spec: ScenarioSpec, p: float) -> ScenarioSpec:
    """``spec`` with Werner weight ``p``: only the initial state is read again, every other field is read already."""
    swept, initial = copy.copy(spec), {**spec.initial, "p": p}
    object.__setattr__(swept, "initial", initial)
    object.__setattr__(swept, "rho_in", build_initial_state(initial, SCENARIOS[spec.kind].qubits))
    return swept


def sweep(axis: str, swept) -> ScenarioResult:
    """Run each (value, spec) of :func:`sweep_specs`: one result, the swept value as its first column.

    The map is built from everything a spec reads but its initial state, so a ``p`` sweep builds it
    once and reads it out for each weight; a ``params`` sweep builds one for each value.  It makes no report.
    """
    kind = swept[0][1].kind
    reads = SCENARIOS[kind]
    shared = reads.build(swept[0][1]) if axis == "p" else None
    parts = []
    for v, spec in swept:
        built = shared if axis == "p" else reads.build(spec)
        parts.append({axis: v, **reads.read(spec, built).data})
    return ScenarioResult.concat(kind, parts)


class _ChannelMap(NamedTuple):
    """A channel kind's stacked map over the time grid, built from everything its spec reads but the initial state.

    ``held`` is what the read-out takes from the build besides the channel (amplitudes, or the
    :class:`maps.NetworkChannel` a peak search evaluates at other times); ``cptp`` is the stacked
    :func:`maps.is_cptp` verdict where the spec asks for it.
    """

    channel: maps.KrausSet
    held: tuple
    cptp: maps.CptpVerdict = None


def _channel_map(spec: ScenarioSpec, channel: maps.KrausSet, *held) -> _ChannelMap:
    return _ChannelMap(channel, held, maps.is_cptp(channel) if spec.verify_cptp else None)


def _result(spec: ScenarioSpec, columns: dict, rho_out=None, cptp=None) -> ScenarioResult:
    """``t``, then ``columns``, then the check columns ``spec`` asks for.

    ``oracle_dev`` is :func:`_oracle_deviations` of the receiver states
    ``rho_out`` and ``cptp_min_eig`` the minimum Choi eigenvalue at each time
    of the stacked verdict ``cptp``; a failure raises :class:`VerificationError`
    for the first time it occurs at.
    """
    data = {"t": spec.times, **columns}
    if spec.verify_oracle:
        data["oracle_dev"] = _oracle_deviations(spec, rho_out)
    if spec.verify_cptp:
        bad = np.flatnonzero(~cptp.ok)
        if bad.size:
            raise VerificationError(
                f"map failed the CPTP check (min Choi eigenvalue {cptp.min_choi_eigenvalue[bad[0]]:.3e})"
            )
        data["cptp_min_eig"] = cptp.min_choi_eigenvalue
    return ScenarioResult(spec.kind, data)


def _oracle_deviations(spec, rho_out) -> np.ndarray:
    """Trace distance of each ``rho_out`` slice to the oracle's output (on what SCENARIOS names) at its time."""
    whole, senders, receivers = SCENARIOS[spec.kind].oracle(spec)
    ref = oracle.reduced_output(whole, spec.rho_in, senders, receivers, np.array(spec.times))
    devs = maps.trace_distance(rho_out, ref)
    bad = np.flatnonzero(devs > spec.oracle_tol)
    if bad.size:
        raise VerificationError(
            f"map/oracle deviation {devs[bad[0]]:.3e} beyond tolerance at t={spec.times[bad[0]]}"
        )
    return devs


# What verify.oracle evolves for a kind (see SCENARIOS): (whole network, sender sites, receiver sites) of a read spec

def _idle_qubit_beside(spec):
    """The idle first qubit as an uncoupled site 0 beside the network."""
    sender, receiver = spec.sites["sender"], spec.sites["receiver"]
    return SpinNetwork(np.zeros((1, 1))).disjoint_union(spec.network), [0, sender + 1], [0, receiver + 1]


def _two_rails(spec):
    net_a, net_b, na = spec.network, spec.network_b or spec.network, spec.network.n_sites
    sa, ra, sb, rb = (spec.sites[key] for key in ("sender_a", "receiver_a", "sender_b", "receiver_b"))
    return net_a.disjoint_union(net_b), [sa, na + sb], [ra, na + rb]


def _pair(spec):
    return spec.network, spec.sites["senders"], spec.sites.get("receivers", spec.sites["senders"])


def _weak_pair_chain(spec):
    g, j = spec.params["g"], spec.params["J"]
    net = SpinNetwork.chain([g] + [j] * (spec.params["wire_sites"] - 1) + [g])
    ends = [0, net.n_sites - 1]
    return net, ends, ends


def _four_qubit_chain(spec):
    g, j = spec.params["g"], spec.params["J"]
    net = SpinNetwork.chain([j, g] + [j] * (spec.params["wire_sites"] - 1) + [g, j])
    corners = [0, 1, net.n_sites - 2, net.n_sites - 1]  # A1, A2, B1, B2
    return net, corners, corners


def _build_one_rail(spec: ScenarioSpec) -> _ChannelMap:
    """``qst``'s one-qubit channel, and ``distribute_single``'s, which keeps its first qubit idle."""
    net, sender, receiver = spec.network, spec.sites["sender"], spec.sites["receiver"]
    f = maps.NetworkChannel(net).amplitude(sender, receiver, np.array(spec.times))
    channel = maps.one_qubit_kraus(f)
    return _channel_map(spec, channel if spec.kind == "qst" else maps.extend_with_identity(channel), f)


def _read_qst(spec: ScenarioSpec, built: _ChannelMap) -> ScenarioResult:
    (f,) = built.held
    out = maps.apply(built.channel, spec.rho_in)
    columns = {
        "f_re": f.real, "f_im": f.imag, "f_abs": np.abs(f),
        "out_p1": out[:, 1, 1].real, "out_coh_re": out[:, 0, 1].real, "out_coh_im": out[:, 0, 1].imag,
    }
    return _result(spec, columns, out, built.cptp)


def _build_distribute_dual(spec: ScenarioSpec) -> _ChannelMap:
    net_a, net_b = spec.network, spec.network_b or spec.network
    sa, ra, sb, rb = (spec.sites[key] for key in ("sender_a", "receiver_a", "sender_b", "receiver_b"))
    times = np.array(spec.times)
    f = maps.NetworkChannel(net_a).amplitude(sa, ra, times)
    g = maps.NetworkChannel(net_b).amplitude(sb, rb, times)
    return _channel_map(spec, maps.tensor_map(maps.one_qubit_kraus(f), maps.one_qubit_kraus(g)), f, g)


def _read_distribute(spec: ScenarioSpec, built: _ChannelMap) -> ScenarioResult:
    """The concurrence one rail (amplitude f) or two rails (f and g) carry, with its X-state closed form c1, c2."""
    f = built.held[0]
    c_in = measures.concurrence(spec.rho_in)
    x_in = _x_state_or_none(spec.rho_in)
    out = maps.apply(built.channel, spec.rho_in)
    c_out = measures.concurrence(out)
    c1, c2 = np.full(f.shape, math.nan), np.full(f.shape, math.nan)
    if spec.kind == "distribute_single":
        amplitudes = {"f_re": f.real, "f_im": f.imag, "f_abs": np.abs(f)}
        if x_in is not None:
            _, c1, c2 = measures.transferred_concurrence(x_in, f)
    else:  # the closed form holds where both rails carry the same amplitude
        g = built.held[1]
        amplitudes = {"f_abs": np.abs(f), "g_abs": np.abs(g)}
        same = np.abs(f - g) < 1e-12
        if x_in is not None and same.any():
            _, c1[same], c2[same] = measures.dual_rail_concurrence(x_in, f[same])
    columns = {**amplitudes, "concurrence": c_out, "c1": c1, "c2": c2,
               "initial_concurrence": c_in, "ratio": c_out / c_in if c_in > 0 else math.nan}
    return _result(spec, columns, out, built.cptp)


def _build_two_qubit(spec: ScenarioSpec) -> _ChannelMap:
    """``two_qubit_transfer``, and ``storage``, whose receivers are its senders."""
    net, senders, receivers = _pair(spec)
    return _channel_map(spec, maps.NetworkChannel(net).two_qubit(senders, receivers, np.array(spec.times)))


def _read_two_qubit(spec: ScenarioSpec, built: _ChannelMap) -> ScenarioResult:
    out = maps.apply(built.channel, spec.rho_in)
    e0 = built.channel.operators[0]
    columns = {
        "f11_abs": np.abs(e0[:, 2, 2]), "f22_abs": np.abs(e0[:, 1, 1]), "fpair_abs": np.abs(e0[:, 3, 3]),
        "concurrence": measures.concurrence(out), "purity": np.trace(out @ out, axis1=1, axis2=2).real,
    }
    return _result(spec, columns, out, built.cptp)


def _build_weak_pair(spec: ScenarioSpec) -> _ChannelMap:
    net, (a, b), _ = _weak_pair_chain(spec)
    chan = maps.NetworkChannel(net)
    return _channel_map(spec, chan.two_qubit((a, b), (a, b), np.array(spec.times)), chan, (a, b))


def _read_weak_pair(spec: ScenarioSpec, built: _ChannelMap) -> ScenarioResult:
    out = maps.apply(built.channel, spec.rho_in)
    # E_0[1, 2] = f1(i, m) is f(a -> b), read from the k=1 column the channel already holds
    columns = {"f_ab_abs": np.abs(built.channel.operators[0][:, 1, 2]), "concurrence": measures.concurrence(out)}
    return _result(spec, columns, out, built.cptp)


def brent(f, xa, xb, xc):
    """``(x, f(x))`` at the minimum of ``f`` that the bracket ``xa, xb, xc`` holds, or None if it holds none.

    A bracket is three points in order (either way round) whose middle value is below both ends.  This is
    Brent's method (R. P. Brent, *Algorithms for Minimization without Derivatives*, 1973): a parabola through
    the best three points so far, with a golden-section step wherever the parabola's vertex would leave the
    bracket or the steps stop shrinking.  It is scipy 1.17's ``minimize_scalar(method="brent")`` with a 3-point
    bracket: its tolerances and its floating-point expressions in their order, so the result has its bits.
    Where scipy raises ``ValueError`` for a triple that is no bracket, this returns None.
    """
    if xa > xc:
        xa, xc = xc, xa
    if not (xa < xb < xc):
        return None
    fa, fb, fc = f(xa), f(xb), f(xc)
    if not (fb < fa and fb < fc):
        return None
    tol, mintol, cg = 1.48e-8, 1.0e-11, 0.3819660  # scipy's relative and absolute tolerances; 2 - golden ratio
    a, b = xa, xc
    x = w = v = xb  # the best point, the second best and the one before it
    fx = fw = fv = fb
    deltax = rat = 0.0  # the step before last and the last step
    for _ in range(500):
        tol1 = tol * abs(x) + mintol
        tol2 = 2.0 * tol1
        xmid = 0.5 * (a + b)
        if abs(x - xmid) < (tol2 - 0.5 * (b - a)):
            break
        if abs(deltax) <= tol1:
            deltax = a - x if x >= xmid else b - x  # a golden-section step into the larger part
            rat = cg * deltax
        else:  # the vertex of the parabola through x, w and v
            tmp1 = (x - w) * (fx - fv)
            tmp2 = (x - v) * (fx - fw)
            p = (x - v) * tmp2 - (x - w) * tmp1
            tmp2 = 2.0 * (tmp2 - tmp1)
            if tmp2 > 0.0:
                p = -p
            tmp2 = abs(tmp2)
            dx_temp, deltax = deltax, rat
            if p > tmp2 * (a - x) and p < tmp2 * (b - x) and abs(p) < abs(0.5 * tmp2 * dx_temp):
                rat = p / tmp2
                u = x + rat
                if (u - a) < tol2 or (b - u) < tol2:  # no closer than tol2 to the bracket's ends
                    rat = tol1 if xmid - x >= 0 else -tol1
            else:
                deltax = a - x if x >= xmid else b - x
                rat = cg * deltax
        if abs(rat) < tol1:  # a step of at least tol1
            u = x + tol1 if rat >= 0 else x - tol1
        else:
            u = x + rat
        fu = f(u)
        if fu > fx:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, w, fv, fw = w, u, fw, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
        else:
            if u >= x:
                a = x
            else:
                b = x
            v, w, x, fv, fw, fx = w, x, u, fw, fx, fu
    return x, fx


def _report_weak_pair(spec: ScenarioSpec, built: _ChannelMap, result: ScenarioResult) -> dict:
    """The concurrence peak: the grid's highest, refined by :func:`brent` between its neighbours.

    Each step of the search builds the map at one scalar time and reads its output's concurrence; the first
    peak of a 16-point grid takes 11 to 17 of them.  The grid peak stays where its neighbours and it make no bracket, or
    where the search finds no higher value.
    """
    chan, (a, b) = built.held
    conc = result.data["concurrence"]
    peak_idx = int(np.argmax(conc))
    peak_t, peak_c = spec.times[peak_idx], float(conc[peak_idx])
    if 0 < peak_idx < len(spec.times) - 1:
        def negative_concurrence(t):
            try:
                return -measures.concurrence(maps.apply(chan.two_qubit((a, b), (a, b), t), spec.rho_in))
            except ValueError as exc:  # a failed map or measure is a numerical failure, not a bad config
                raise NumericalError(str(exc)) from exc

        found = brent(negative_concurrence, spec.times[peak_idx - 1], peak_t, spec.times[peak_idx + 1])
        if found is not None and -found[1] >= peak_c:
            peak_t, peak_c = float(found[0]), float(-found[1])
    return {"peak_time": peak_t, "peak_concurrence": peak_c}


def _read_four_qubit_weak(spec: ScenarioSpec, built) -> ScenarioResult:
    """(A1, A2, B1, B2) from a basis configuration: one sector column of the chain ``built``, reduced to the corners."""
    g, j = spec.params["g"], spec.params["J"]
    net, corners, _ = built
    label = spec.initial["string"]
    occupied = tuple(corners[q] for q, c in enumerate(label) if c == "1")
    times = np.array(spec.times)
    table = SectorPropagator(net, len(occupied)).table(times, [occupied])
    red = reduced_state(table, occupied, corners)
    pairs = np.stack([maps.partial_trace(red, list(p), [2] * 4) for p in measures.PAIRS_4])
    pair_c = measures.concurrence(pairs.reshape(-1, 4, 4)).reshape(len(measures.PAIRS_4), -1)
    if closed_form_holds(g, j, label, times):
        reference = four_qubit_closed_form(g, j, times, label)
        fid = np.einsum("ti,tij,tj->t", reference.conj(), red, reference).real
    else:
        fid = math.nan
    columns = {
        **dict(zip(measures.PAIR_COLUMNS, pair_c)),
        "purity": np.trace(red @ red, axis1=1, axis2=2).real,
        "closed_form_fidelity": fid,
    }
    return _result(spec, columns, red)


def _read_closed_form(spec: ScenarioSpec, _built) -> ScenarioResult:
    g, j, label = spec.params["g"], spec.params["J"], spec.initial["string"]
    times = np.array(spec.times)
    psi = four_qubit_closed_form(g, j, times, label)
    columns = {"theta": g**2 * times / j, **measures.four_qubit_measures(psi)}
    return _result(spec, columns)


_FOUR_QUBITS = dict(qubits=4, initial={"kind": "basis", "string": "1100"}, networks=(), basis=True, cptp=False)

# What each scenario kind reads besides its initial state: network sections (network_b defaults to network),
# site keys (a plural key is a pair of sites, a _b key a site of network_b) and params with their defaults (an int
# default reads a whole number of at least 1).  A built ScenarioSpec holds what it read: whole-number sites and
# pairs, every param, the initial state's description and, as rho_in, its density matrix.  ``build`` makes the
# kind's map from all of it but the initial state, and ``read`` reads that map out for the spec's initial state.
# ``oracle`` gives the triple verify.oracle evolves (see above); a closed_form kind's couplings and label are
# checked when its spec is built.  ``report`` gives what ``run`` adds as the result's meta, which
# ``spinmaps run`` prints beside the CSV; a sweep makes none.
SCENARIOS = {
    "qst": _Reads(_build_one_rail, _read_qst, 1, {"kind": "basis", "string": "1"}, sites=("sender", "receiver"),
                  oracle=lambda spec: (spec.network, [spec.sites["sender"]], [spec.sites["receiver"]])),
    "distribute_single": _Reads(_build_one_rail, _read_distribute, 2, sites=("sender", "receiver"),
                                oracle=_idle_qubit_beside),
    "distribute_dual": _Reads(_build_distribute_dual, _read_distribute, 2,
                              sites=("sender_a", "receiver_a", "sender_b", "receiver_b"),
                              networks=("network", "network_b"), oracle=_two_rails),
    "two_qubit_transfer": _Reads(_build_two_qubit, _read_two_qubit, 2, sites=("senders", "receivers"), oracle=_pair),
    "storage": _Reads(_build_two_qubit, _read_two_qubit, 2, sites=("senders",), oracle=_pair),
    "weak_pair": _Reads(_build_weak_pair, _read_weak_pair, 2, {"kind": "basis", "string": "10"},
                        params={"wire_sites": 4, "J": 1.0, "g": 0.1}, networks=(), oracle=_weak_pair_chain,
                        report=_report_weak_pair),
    "four_qubit_weak": _Reads(_four_qubit_chain, _read_four_qubit_weak, params={"wire_sites": 2, "J": 1.0, "g": 0.1},
                              oracle=_four_qubit_chain, report=lambda spec, built, _: {"n_sites": built[0].n_sites},
                              **_FOUR_QUBITS),
    "closed_form_four_qubit": _Reads(lambda spec: None, _read_closed_form, params={"g": 1e-2, "J": 1.0},
                                     closed_form=True, **_FOUR_QUBITS,
                                     report=lambda spec, *_: {**spec.params, "initial": spec.initial["string"]}),
}
SCENARIO_KINDS = tuple(SCENARIOS)
