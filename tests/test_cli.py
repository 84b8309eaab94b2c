import ast
import csv
import io
import math
from pathlib import Path

import numpy as np
import pytest
import yaml

from spinmaps import cli, maps, measures, oracle, protocols
from spinmaps.cli import (
    figure3_result,
    figure5_result,
    main,
    parse_config,
)
from spinmaps.network import AmplitudeTable, SectorPropagator
from spinmaps.oracle import MAX_SITES
from spinmaps.protocols import spec_from_config

GOOD_CONFIG = """\
scenario: distribute_single
network:
  kind: uniform_chain
  sites: 3
  coupling: 1.0
sites:
  sender: 0
  receiver: 2
initial:
  kind: werner
  p: 0.7
times:
  start: 0.0
  stop: 1.5
  points: 7
verify:
  oracle: true
  cptp: true
"""


def test_parse_and_roundtrip():
    cfg = parse_config(GOOD_CONFIG)
    assert cfg["scenario"] == "distribute_single"
    again = parse_config(yaml.safe_dump(cfg, sort_keys=True))
    assert again == cfg
    spec = spec_from_config(cfg)
    assert spec.network.n_sites == 3
    assert len(spec.times) == 7


def test_unknown_keys_rejected():
    with pytest.raises(ValueError, match=r"^banana is not read by spinmaps \(accepted: scenario, network, network_b, "):
        spec_from_config(parse_config(GOOD_CONFIG + "banana: 1\n"))
    with pytest.raises(ValueError, match=r"^times.step is not read by spinmaps \(accepted: start, stop, points, "):
        spec_from_config(parse_config("scenario: qst\ntimes: {start: 0, stop: 1, step: 2}\n"))
    with pytest.raises(ValueError, match=r"^section 'verify' must be a mapping"):
        spec_from_config(parse_config(QST_CONFIG + "verify: [oracle]\n"))
    with pytest.raises(ValueError):
        spec_from_config(parse_config(GOOD_CONFIG.replace("  p: 0.7", "  p: 0.7\n  q: 3")))
    # the scenario kind is checked once, where the spec is built
    with pytest.raises(ValueError, match="unknown scenario kind 'quantum_teleportation'"):
        spec_from_config(parse_config("scenario: quantum_teleportation\ntimes: {start: 0, stop: 1, points: 2}\n"))
    with pytest.raises(ValueError, match="unknown scenario kind None"):
        spec_from_config(parse_config("times: {start: 0, stop: 1, points: 2}\n"))
    with pytest.raises(ValueError, match=r"network.couplings is not read by network kind 'uniform_chain'"):
        spec_from_config(parse_config(QST_CONFIG.replace("  sites: 8\n", "  sites: 8\n  couplings: [1, 1]\n")))
    with pytest.raises(ValueError, match=r"initial.p is not read by initial-state kind 'basis'"):
        spec_from_config(parse_config(QST_CONFIG + "initial: {kind: basis, string: '1', p: 0.3}\n"))
    with pytest.raises(ValueError, match="unknown network kind 'ring'"):
        spec_from_config(parse_config(QST_CONFIG.replace("kind: uniform_chain", "kind: ring")))
    with pytest.raises(ValueError, match="section 'initial' must be a mapping"):
        spec_from_config(parse_config(QST_CONFIG + "initial: [basis]\n"))


def test_run_writes_csv(tmp_path):
    config = tmp_path / "run.yaml"
    config.write_text(GOOD_CONFIG)
    out = tmp_path / "out.csv"
    assert main(["run", str(config), "--output", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:4] == ["t", "f_re", "f_im", "f_abs"]
    assert len(rows) == 8  # header + 7 grid points
    assert "oracle_dev" in rows[0]


def test_run_is_byte_deterministic(tmp_path):
    config = tmp_path / "run.yaml"
    config.write_text(GOOD_CONFIG)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", str(config), "--output", str(out1)]) == 0
    assert main(["run", str(config), "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_malformed_config_exits_2_without_output(tmp_path):
    config = tmp_path / "bad.yaml"
    config.write_text("scenario: distribute_single\nbogus_key: 1\n")
    out = tmp_path / "never.csv"
    assert main(["run", str(config), "--output", str(out)]) == 2
    assert not out.exists()
    config.write_text(": not yaml [\n")
    assert main(["run", str(config), "--output", str(out)]) == 2
    assert not out.exists()
    assert main(["run", str(tmp_path / "missing.yaml"), "--output", str(out)]) == 2


def test_main_builds_one_parser_and_keeps_its_usage_errors(tmp_path, capsys):
    cli._build_parser.cache_clear()
    out = tmp_path / "f3.csv"
    assert main(["figure", "3", "--points", "3", "--output", str(out)]) == 0
    assert main(["figure", "3", "--output", str(out)]) == 0  # --points back at its default
    assert "wrote 15 rows" in capsys.readouterr().out.splitlines()[0]
    assert len(out.read_text().splitlines()) == 1 + 5 * 201
    assert cli._build_parser.cache_info()[:2] == (1, 1)  # one hit, one miss: one parser
    with pytest.raises(SystemExit) as fresh:
        cli._build_parser.__wrapped__().parse_args(["figure", "4"])
    message = capsys.readouterr().err
    with pytest.raises(SystemExit) as reused:
        main(["figure", "4"])
    assert fresh.value.code == reused.value.code == 2
    assert capsys.readouterr().err == message and "invalid choice: 4" in message


def test_verify_passes_on_default_network(capsys):
    assert main(["verify", "--trials", "2"]) == 0  # default: 6 random sites
    captured = capsys.readouterr().out
    assert "ok   sector unitarity (k=1)" in captured
    assert "ok   two-qubit map vs oracle" in captured
    assert "verification passed" in captured


def test_verify_rejects_sites_above_oracle_cap(capsys):
    assert main(["verify", "--sites", str(MAX_SITES + 1)]) == 2
    captured = capsys.readouterr()
    assert "--sites" in captured.err and str(MAX_SITES) in captured.err
    assert captured.out == ""  # rejected before any check runs


def test_output_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("SPINMAPS_OUTPUT_DIR", str(tmp_path))
    assert main(["figure", "3", "--points", "11"]) == 0
    assert (tmp_path / "figure3.csv").exists()


def test_figure3_dataset(tmp_path):
    out = tmp_path / "f3.csv"
    assert main(["figure", "3", "--points", "21", "--output", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["p", "f_abs", "ratio"]
    ps = sorted({float(r[0]) for r in rows[1:]})
    assert ps == [0.4, 0.5, 0.7, 0.9, 1.0]
    assert len(figure3_result(points=21).rows) == 5 * 21


def test_figure5_dataset():
    result = figure5_result(points=11)
    assert result.columns[0] == "family"
    families = {r[0] for r in result.rows}
    assert families == {"psi+", "phi+"}


def test_figure7_dataset(tmp_path):
    out = tmp_path / "f7.csv"
    assert main(["figure", "7", "--points", "25", "--output", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:3] == ["window", "t", "theta"]
    assert "tau4" in rows[0] and "c4" in rows[0]


def test_sweep_subcommand(tmp_path):
    config = tmp_path / "sweep.yaml"
    config.write_text(GOOD_CONFIG.replace("verify:\n  oracle: true\n  cptp: true\n", "")
                      + "sweep:\n  axis: p\n  values: [0.4, 0.9]\n")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(config), "--output", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "p"
    assert {float(r[0]) for r in rows[1:]} == {0.4, 0.9}
    config.write_text(GOOD_CONFIG)
    assert main(["sweep", str(config), "--output", str(out)]) == 2


def test_incomplete_scenario_exits_2(tmp_path):
    config = tmp_path / "incomplete.yaml"
    config.write_text(GOOD_CONFIG.replace("sites:\n  sender: 0\n  receiver: 2\n", ""))
    out = tmp_path / "never.csv"
    assert main(["run", str(config), "--output", str(out)]) == 2
    assert not out.exists()
    assert main(["verify", "--sites", "2"]) == 2


def test_tolerance_flag(tmp_path):
    config = tmp_path / "run.yaml"
    config.write_text(GOOD_CONFIG)
    out = tmp_path / "out.csv"
    # absurdly tight tolerance turns numerical noise into a verification failure
    assert main(["run", str(config), "--output", str(out), "--tolerance", "1e-18"]) == 1


QST_CONFIG = """\
scenario: qst
network:
  kind: uniform_chain
  sites: 8
sites:
  sender: 0
  receiver: 7
times:
  start: 0.0
  stop: 1.0
  points: 3
"""


def test_numerical_failure_exits_1(tmp_path, monkeypatch, capsys):
    eigh = np.linalg.eigh

    def skewed_eigh(matrix):
        w, v = eigh(matrix)
        return w, v * (1.0 + 1e-8)

    monkeypatch.setattr(np.linalg, "eigh", skewed_eigh)
    config = tmp_path / "qst.yaml"
    config.write_text(QST_CONFIG)
    out = tmp_path / "never.csv"
    assert main(["run", str(config), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and "eigenbasis is not orthonormal" in err
    assert not out.exists()


def test_invalid_output_state_is_a_numerical_failure(tmp_path, monkeypatch, capsys):
    # the config and the input state are valid, so a bad output is the computation's fault
    apply_kraus = maps.apply_kraus

    def skewed_apply(ks, rho):
        out = apply_kraus(ks, rho)
        return out + 0.1 * np.triu(np.ones(out.shape[-2:]), 1)  # not Hermitian, trace kept

    monkeypatch.setattr(maps, "apply_kraus", skewed_apply)
    config = tmp_path / "qst.yaml"
    config.write_text(QST_CONFIG)
    out = tmp_path / "never.csv"
    assert main(["run", str(config), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and "density matrix is not Hermitian" in err
    assert not out.exists()


@pytest.mark.parametrize("scenario, sites, message", [
    ("qst", "  sender: 0\n  receiver: 9\n", "sites.receiver 9 out of range for 8 sites"),
    ("qst", "  sender: -1\n  receiver: 7\n", "sites.sender -1 out of range for 8 sites"),
    ("two_qubit_transfer", "  senders: [0, 1]\n  receivers: [6, 8]\n",
     "sites.receivers 8 out of range for 8 sites"),
    ("storage", "  senders: [3, 3]\n", "sites.senders must name two distinct sites"),
])
def test_bad_sites_name_the_field(tmp_path, capsys, scenario, sites, message):
    text = QST_CONFIG.replace("scenario: qst", f"scenario: {scenario}")
    text = text.replace("  sender: 0\n  receiver: 7\n", sites)
    if scenario != "qst":
        text += "initial:\n  kind: bell\n"
    config = tmp_path / "bad.yaml"
    config.write_text(text)
    out = tmp_path / "never.csv"
    assert main(["run", str(config), "--output", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_verify_sites_cap_follows_physical_memory(monkeypatch, capsys):
    monkeypatch.setattr(oracle, "physical_memory_bytes", lambda: 2 * 2**30)
    assert oracle.max_sites() == 12  # 5 * 8 * 4^12 bytes = 0.63 GiB fits, 4^13 needs 2.5 GiB
    assert main(["verify", "--sites", "13"]) == 2
    captured = capsys.readouterr()
    assert "--sites" in captured.err and "cap of 12 sites" in captured.err
    assert "estimated peak 2.5 GiB" in captured.err and "physical memory 2 GiB" in captured.err
    assert captured.out == ""


def test_verify_builds_each_sector_once(sector_builds, capsys):
    assert main(["verify", "--sites", "8"]) == 0
    assert "verification passed" in capsys.readouterr().out
    # k = 0, 1, 2 of the random network, reused when its 9 sectors are compared with U(t)
    # (so only k = 3..8 are built there), and k = 1, 2 of the chain
    assert len(sector_builds) <= 11


def _leak_across_sectors(monkeypatch):
    """The dense U(t) with its vacuum and first one-excitation columns swapped: unitary, but not U(1)-symmetric."""
    unitary = oracle.FullPropagator.unitary
    monkeypatch.setattr(oracle.FullPropagator, "unitary",
                        lambda prop, t: unitary(prop, t)[:, [1, 0, *range(2, 1 << prop.network.n_sites)]])


def _rotate_sector_3(monkeypatch):
    """Every k = 3 table times a global phase i: unitary, but not U(t)'s block."""
    table = SectorPropagator.table

    def rotated(prop, t, sources=None):
        out = table(prop, t, sources)
        if prop.sector.excitation_count != 3:
            return out
        return AmplitudeTable(out.sector, out.time, 1j * out.amplitudes, out.sources)

    monkeypatch.setattr(SectorPropagator, "table", rotated)


@pytest.mark.parametrize("patch, failing", [
    (_leak_across_sectors, {"sector block assembly vs full unitary", "magnetization conservation"}),
    (_rotate_sector_3, {"sector block assembly vs full unitary"}),
], ids=["full-unitary-leaks", "sector-table-off"])
def test_verify_fails_the_checks_a_wrong_propagator_breaks(monkeypatch, capsys, patch, failing):
    patch(monkeypatch)
    assert main(["verify", "--sites", "5", "--trials", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert {line[5:line.index(":")] for line in lines if line.startswith("FAIL ")} == failing
    assert lines[-1] == "verification FAILED"


@pytest.mark.parametrize("argv, flag", [
    (["figure", "3", "--points", "0"], "--points"),
    (["figure", "7", "--points", "-5"], "--points"),
    (["verify", "--trials", "0"], "--trials"),
    (["verify", "--tolerance", "nan"], "--tolerance"),
    (["verify", "--tolerance", "-1"], "--tolerance"),
    (["verify", "--seed", "-1"], "--seed"),
    (["verify", "--sites", "2"], "--sites"),
])
def test_bad_flags_exit_2_naming_the_flag(argv, flag, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SPINMAPS_OUTPUT_DIR", str(tmp_path))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert flag in captured.err and captured.out == ""
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1"])
def test_bad_tolerance_flag_exits_2(tmp_path, capsys, command, tolerance):
    config = tmp_path / "run.yaml"
    config.write_text(GOOD_CONFIG + "sweep:\n  axis: p\n  values: [0.5, 0.9]\n")
    out = tmp_path / "never.csv"
    assert main([command, str(config), "--output", str(out), "--tolerance", tolerance]) == 2
    assert "--tolerance must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tolerance", [".nan", ".inf", "0", "-1.0e-8"])
def test_bad_oracle_tolerance_in_config_exits_2(tmp_path, capsys, tolerance):
    config = tmp_path / "run.yaml"
    config.write_text(GOOD_CONFIG + f"tolerances:\n  oracle: {tolerance}\n")
    out = tmp_path / "never.csv"
    assert main(["run", str(config), "--output", str(out)]) == 2
    assert "tolerances.oracle must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_bad_oracle_tolerance_in_config_exits_2_beside_a_good_flag(tmp_path, capsys, command):
    config = tmp_path / "run.yaml"
    config.write_text(GOOD_CONFIG + "tolerances: {oracle: -1.0e-8}\nsweep: {axis: p, values: [0.5, 0.9]}\n")
    out = tmp_path / "never.csv"
    assert main([command, str(config), "--output", str(out), "--tolerance", "1.0e-6"]) == 2
    assert capsys.readouterr().err == "configuration error: tolerances.oracle must be finite and positive, got -1e-08\n"
    assert not out.exists()


def test_non_finite_time_exits_2_naming_times(tmp_path, capsys):
    config = tmp_path / "run.yaml"
    config.write_text("scenario: four_qubit_weak\ntimes:\n  list: [0.0, .nan]\n")
    out = tmp_path / "never.csv"
    assert main(["run", str(config), "--output", str(out)]) == 2
    assert "times must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scenario, verify, field", [
    ("four_qubit_weak", "{oracle: true, cptp: true}", "verify.cptp"),
    ("closed_form_four_qubit", "{cptp: true}", "verify.cptp"),
    ("closed_form_four_qubit", "{oracle: true}", "verify.oracle"),
])
def test_verify_flags_a_scenario_cannot_honour_exit_2(tmp_path, capsys, scenario, verify, field):
    config = tmp_path / "run.yaml"
    config.write_text(f"scenario: {scenario}\ntimes: {{list: [0.0, 1.0]}}\nverify: {verify}\n")
    out = tmp_path / "never.csv"
    assert main(["run", str(config), "--output", str(out)]) == 2
    assert f"{field} does not apply to scenario '{scenario}'" in capsys.readouterr().err
    assert not out.exists()


def test_four_qubit_weak_honours_verify_oracle(tmp_path):
    config = tmp_path / "run.yaml"
    config.write_text("scenario: four_qubit_weak\ntimes: {list: [0.0, 1.0, 2.5]}\nverify: {oracle: true}\n")
    out = tmp_path / "out.csv"
    assert main(["run", str(config), "--output", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][-1] == "oracle_dev" and len(rows) == 4
    assert max(float(row[-1]) for row in rows[1:]) <= 1e-12


@pytest.mark.parametrize("sites", [12, 14])
def test_verify_oracle_runs_past_the_dense_cap(tmp_path, sites):
    """At 14 sites a dense build would need 5 x 8*4^14 bytes = 10 GiB; the series oracle needs a few MB."""
    config = tmp_path / "run.yaml"
    config.write_text(
        f"scenario: two_qubit_transfer\nnetwork: {{kind: uniform_chain, sites: {sites}}}\n"
        f"sites: {{senders: [0, 1], receivers: [{sites - 1}, {sites - 2}]}}\ninitial: {{kind: bell, label: psi+}}\n"
        "times: {start: 0.5, stop: 9.0, points: 4}\nverify: {oracle: true, cptp: true}\n"
    )
    out = tmp_path / "out.csv"
    assert main(["run", str(config), "--output", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4 and max(float(row["oracle_dev"]) for row in rows) <= 1e-12


def test_csv_writes_floats_as_their_shortest_repr(tmp_path):
    from spinmaps.protocols import ScenarioResult

    out = tmp_path / "out.csv"
    ScenarioResult("x", {"name": ["psi+", "phi-"], "a": [0.1 + 0.2, 1e-17], "b": [1.0, float("nan")]}).write_csv(out)
    assert out.read_bytes() == b"name,a,b\r\npsi+,0.30000000000000004,1.0\r\nphi-,1e-17,nan\r\n"


EDGE_FLOATS = [math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, 1e16, 1e-5, 0.1 + 0.2, -1.5e300, 2.0**53 + 1]
# values repeated down a column, and bit patterns that print alike: two more quiet nans, one of them signed
OTHER_NANS = np.array([0x7FF8000000000001, -0x0008000000000000], dtype=np.int64).view(float).tolist()
REPEATED_FLOATS = [-0.0, math.nan, math.inf, -math.inf, 1e16, 1e-05, 9.999999999999999e-05, 0.0] * 3 + OTHER_NANS


def per_cell_csv(result) -> bytes:
    """The bytes ``write_csv`` wrote when it formatted every cell with its own call."""
    cells = [list(map(float.__repr__, values.tolist())) if values.dtype.kind == "f"
             else [protocols._csv_text(text) for text in values.tolist()] for values in result.data.values()]
    header = io.StringIO(newline="")
    csv.writer(header).writerow(result.columns)
    return (header.getvalue() + "".join((",".join(row) or '""') + "\r\n" for row in zip(*cells))).encode()


@pytest.mark.parametrize("data", [
    {"x": EDGE_FLOATS, "y": EDGE_FLOATS[::-1]},
    {"label": ["a,b", 'say "hi"', "two\nlines", "cr\rlf", "plain", ""], "v": EDGE_FLOATS[:6]},
    {"a,b": [1.0], 'q"': [2.0], "line\nbreak": [3.0]},
    {"t": [], "family": np.array([], dtype=str)},
    {"only": ["", "x", ""]},
    {"x": REPEATED_FLOATS, "y": REPEATED_FLOATS[::-1], "p": 0.7},
    {"t": np.linspace(0.0, 1.0, 4), "p": np.broadcast_to(-0.0, 4), "family": "psi+"},
    {"label": ["a,b", 'say "hi"', "cr\r\nlf", "a,b", "", 'say "hi"'], "v": np.arange(6.0) % 2},
    {"only": ["", "", ""]},
    {},
    {"p,q": [0.4], 'say "p"': [0.5], "cr\rp": [0.6], "lf\np": [0.7], "crlf\r\np": [0.8], "t": [0.0]},
    {"": [0.4, 0.9]},
    {"only": [""]},
    {"t": []},
    {"family": np.array([], dtype=str)},
], ids=["edge-floats", "text-cells", "header", "zero-rows", "one-empty-cell", "repeated-floats", "broadcast",
        "repeated-text", "one-empty-column", "no-columns", "header-quoting", "one-empty-name", "one-empty-row",
        "zero-rows-one-column", "zero-rows-one-text-column"])
def test_csv_bytes_equal_csv_writer(tmp_path, data):
    """write_csv writes what csv.writer writes for the same header and rows of Python floats and text,
    and what it wrote when it formatted every cell with its own call."""
    from spinmaps.protocols import ScenarioResult

    result = ScenarioResult("x", data)
    out, ref = tmp_path / "out.csv", tmp_path / "ref.csv"
    assert result.write_csv(out) == len(result.rows)
    with open(ref, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(result.columns)
        writer.writerows(result.rows)
    assert out.read_bytes() == ref.read_bytes() == per_cell_csv(result)


TRANSFER_N80 = """\
scenario: two_qubit_transfer
network:
  kind: uniform_chain
  sites: 80
sites:
  senders: [0, 1]
  receivers: [78, 79]
initial:
  kind: bell
  label: psi+
times:
  start: 0.5
  stop: 12.0
  points: 6
"""


def _transfer_on_zz_chain(sites: int) -> str:
    """TRANSFER_N80 on a chain of ``sites`` with ZZ 0.2 on every bond, which keeps its k = 2 sector."""
    chain = f"network: {{kind: chain, couplings: {[1.0] * (sites - 1)}, zz_couplings: {[0.2] * (sites - 1)}}}\n"
    return TRANSFER_N80.replace("network:\n  kind: uniform_chain\n  sites: 80\n", chain)


def test_two_qubit_transfer_at_80_sites_skips_the_k2_eigh(tmp_path, paths):
    """The uniform chain builds no k = 2 sector; with a ZZ coupling its d = 3160 columns take the series."""
    for name, text in (("n80", TRANSFER_N80), ("n80zz", _transfer_on_zz_chain(80))):
        config = tmp_path / f"{name}.yaml"
        config.write_text(text)
        out = tmp_path / f"{name}.csv"
        assert main(["run", str(config), "--output", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 7
        assert paths.chebyshev == (name == "n80zz")
    assert (3160, 3160) not in paths.eigh_shapes  # the k = 2 sector of 80 sites
    assert all(shape[0] <= 80 for shape in paths.eigh_shapes)


@pytest.mark.parametrize("sites, d", [(10, 45), (9, 36)])
def test_point_sweep_sized_sectors_take_eigh(tmp_path, paths, sites, d):
    """A ZZ coupling keeps the k = 2 sector, which a ZZ-free chain never builds; at these sizes both take eigh."""
    text = _transfer_on_zz_chain(sites).replace("[78, 79]", f"[{sites - 2}, {sites - 1}]")
    config = tmp_path / "small.yaml"
    config.write_text(text.replace("points: 6", "points: 200"))
    assert main(["run", str(config), "--output", str(tmp_path / "small.csv")]) == 0
    assert sorted(paths.eigh_shapes) == [(sites, sites), (d, d)] and paths.chebyshev == 0


def _yaml_strings_in_tests():
    """Every string constant in the test modules that YAML parses to a mapping."""
    found = []
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and ":" in node.value:
                try:
                    loaded = yaml.safe_load(node.value)
                except yaml.YAMLError:
                    continue
                if isinstance(loaded, dict):
                    found.append(node.value)
    return found


def test_config_loader_matches_safe_load_on_every_test_config():
    texts = _yaml_strings_in_tests()
    assert GOOD_CONFIG in texts and QST_CONFIG in texts and TRANSFER_N80 in texts
    for text in texts:
        # repr compares NaN entries too
        assert repr(yaml.load(text, Loader=cli._YAML_LOADER)) == repr(yaml.safe_load(text))


@pytest.mark.parametrize("text", [": not yaml [\n", "scenario: qst\n  bad: [1, 2\n", "a: 'open\n", "\tx: 1\n"])
def test_malformed_yaml_exits_2_with_the_safe_load_message(tmp_path, capsys, text):
    with pytest.raises(yaml.YAMLError) as info:
        yaml.safe_load(text)
    config = tmp_path / "bad.yaml"
    config.write_text(text)
    out = tmp_path / "never.csv"
    assert main(["run", str(config), "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"configuration error: invalid YAML: {info.value}\n"
    assert not out.exists()


DUAL_CONFIG = ("scenario: distribute_dual\nnetwork: {kind: uniform_chain, sites: 3}\ntimes: {list: [0.0, 1.0]}\n"
               "sites: {sender_a: 0, receiver_a: 2, sender_b: 0, receiver_b: 1}\ninitial: {kind: werner, p: 0.9}\n")


@pytest.mark.parametrize("command, text, message", [
    ("sweep", QST_CONFIG + "sweep: {axis: J, values: [0.5, 1.0, 2.0]}\n",
     "sweep.axis 'J' changes nothing in scenario 'qst'"),
    ("run", "scenario: weak_pair\ntimes: {list: [0.0, 1.0]}\nparams: {Jj: 5.0}\n",
     "params.Jj is not read by scenario 'weak_pair' (accepted: wire_sites, J, g)"),
    ("sweep", GOOD_CONFIG.replace("  kind: werner\n  p: 0.7\n", "  kind: bell\n")
     + "sweep: {axis: p, values: [0.4, 0.9]}\n",
     "sweep.axis 'p' changes nothing in scenario 'distribute_single'"),
    ("run", "scenario: weak_pair\ntimes: {list: [0.0, 1.0]}\nnetwork: {kind: uniform_chain, sites: 4}\n",
     "network is not read by scenario 'weak_pair' (accepted: none)"),
    ("run", QST_CONFIG + "network_b: {kind: uniform_chain, sites: 4}\n",
     "network_b is not read by scenario 'qst' (accepted: network)"),
    ("run", QST_CONFIG.replace("  receiver: 7\n", "  receiver: 7\n  receivers: [6, 7]\n"),
     "sites.receivers is not read by scenario 'qst' (accepted: sender, receiver)"),
    ("run", "scenario: weak_pair\ntimes: {list: [0.0, 1.0]}\nsites: {sender: 0}\n",
     "sites.sender is not read by scenario 'weak_pair' (accepted: none)"),
    ("run", "scenario: closed_form_four_qubit\ntimes: {list: [0.0, 1.0]}\ninitial: {kind: bell, string: '1100'}\n",
     "closed_form_four_qubit starts from a basis configuration of (A1, A2, B1, B2); initial.kind is 'bell'"),
    ("run", QST_CONFIG.replace("  sites: 8\n", "  sites: 8\n  couplings: [9, 9, 9, 9]\n"),
     "network.couplings is not read by network kind 'uniform_chain' (accepted: sites, coupling)"),
    ("run", QST_CONFIG.replace("  sites: 8\n", "  sites: 8\n  fields: [1, 1, 1, 1, 1]\n"),
     "network.fields is not read by network kind 'uniform_chain' (accepted: sites, coupling)"),
    ("run", "scenario: qst\nnetwork: {kind: matrix, xy: [[0, 1], [1, 0]], couplings: [9]}\n"
            "sites: {sender: 0, receiver: 1}\ntimes: {list: [0.0, 1.0]}\n",
     "network.couplings is not read by network kind 'matrix' (accepted: xy, zz, fields)"),
    ("run", DUAL_CONFIG + "network_b: {couplings: [1, 1], zz: [[0, 1], [1, 0]]}\n",
     "network_b.zz is not read by network kind 'chain' (accepted: couplings, zz_couplings, fields)"),
    ("run", QST_CONFIG + "initial: {kind: basis, string: '1', p: 0.3}\n",
     "initial.p is not read by initial-state kind 'basis' (accepted: string)"),
    ("run", QST_CONFIG + "initial: {kind: basis, string: '1', entries: [[0, 0], [0, 1]]}\n",
     "initial.entries is not read by initial-state kind 'basis' (accepted: string)"),
    ("run", DUAL_CONFIG.replace("p: 0.9", "p: 0.9, populations: [1, 0, 0, 0]"),
     "initial.populations is not read by initial-state kind 'werner' (accepted: p, bell)"),
], ids=["qst-axis-J", "weak_pair-params-Jj", "bell-axis-p", "weak_pair-network", "qst-network_b", "qst-receivers",
        "weak_pair-sender", "closed-form-bell", "uniform-couplings", "uniform-fields", "matrix-couplings",
        "network_b-chain-zz", "basis-p", "basis-entries", "werner-populations"])
def test_params_and_sweep_axes_that_change_nothing_exit_2(tmp_path, capsys, command, text, message):
    config = tmp_path / "run.yaml"
    config.write_text(text)
    out = tmp_path / "never.csv"
    assert main([command, str(config), "--output", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scenario", ["four_qubit_weak", "closed_form_four_qubit"])
def test_unquoted_basis_label_names_the_yaml_number(tmp_path, capsys, scenario):
    config = tmp_path / "run.yaml"
    config.write_text(f"scenario: {scenario}\ntimes: {{list: [0.0, 1.0]}}\n"
                      "initial:\n  kind: basis\n  string: 0011\n")
    out = tmp_path / "never.csv"
    assert main(["run", str(config), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "initial.string is the number 9" in err and "quote the label, e.g. string: '0011'" in err
    assert not out.exists()


def test_sweep_and_figure_csv_bytes(tmp_path):
    """The swept value comes first, figure 7 writes its window as a float and figure 5 its family as text."""
    config = tmp_path / "sweep.yaml"
    config.write_text(QST_CONFIG.replace("scenario: qst", "scenario: distribute_single")
                      .replace("  points: 3\n", "  points: 2\n")
                      + "initial: {kind: werner, p: 0.5}\nsweep: {axis: p, values: [0.4, 0.9]}\n")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(config), "--output", str(out)]) == 0
    lines = out.read_bytes().split(b"\r\n")
    assert lines[0] == b"p,t,f_re,f_im,f_abs,concurrence,c1,c2,initial_concurrence,ratio"
    assert [line.split(b",")[:2] for line in lines[1:5]] == [
        [b"0.4", b"0.0"], [b"0.4", b"1.0"], [b"0.9", b"0.0"], [b"0.9", b"1.0"]]
    assert lines[5:] == [b""]
    assert main(["figure", "7", "--points", "1", "--output", str(out)]) == 0
    rows = out.read_bytes().split(b"\r\n")[1:4]
    assert [row[:8] for row in rows] == [b"0.0,0.0,", b"1.0,1570", b"2.0,3141"]
    assert main(["figure", "5", "--points", "2", "--output", str(out)]) == 0
    assert out.read_bytes().split(b"\r\n")[1:3] == [
        b"psi+,0.4,0.0,0.0,-0.0,-0.0", b"psi+,0.4,1.0,0.9999999999999983,0.04999999999999996,-0.35"]


CHAIN_CONFIG = "scenario: qst\nnetwork: {{{}}}\nsites: {{sender: 0, receiver: 2}}\ntimes: {{list: [0.0, 1.0]}}\n"
TRANSFER_CONFIG = ("scenario: two_qubit_transfer\nnetwork: {kind: uniform_chain, sites: 5}\n"
                   "times: {list: [0.0, 1.0]}\ninitial: {kind: bell}\n")


@pytest.mark.parametrize("command, text, message", [
    ("sweep", GOOD_CONFIG + "sweep: {axis: p, values: 5}\n", "sweep.values must be a list of numbers, got 5"),
    ("sweep", GOOD_CONFIG + "sweep: {axis: p, values: [0.5, abc]}\n",
     "sweep.values must be a list of numbers, got [0.5, 'abc']"),
    ("sweep", GOOD_CONFIG + "sweep: {axis: p, values: '01'}\n", "sweep.values must be a list of numbers, got '01'"),
    ("sweep", "scenario: weak_pair\ntimes: {list: [0.0, 1.0]}\nsweep: {axis: wire_sites, values: [2, 2.5]}\n",
     "params.wire_sites must be a whole number, got 2.5"),
    ("run", QST_CONFIG.replace("sender: 0", "sender: 0.9"), "sites.sender must be a whole number, got 0.9"),
    ("run", QST_CONFIG.replace("sender: 0", "sender: abc"), "sites.sender must be a whole number, got 'abc'"),
    ("run", QST_CONFIG.replace("points: 3", "points: 2.7"), "times.points must be a whole number, got 2.7"),
    ("run", QST_CONFIG.replace("points: 3", "points: -3"), "times.points must be at least 1, got -3"),
    ("run", QST_CONFIG.replace("sites: 8", "sites: 8.5"), "network.sites must be a whole number, got 8.5"),
    ("run", "scenario: weak_pair\ntimes: {list: [0.0, 1.0]}\nparams: {wire_sites: 2.5}\n",
     "params.wire_sites must be a whole number, got 2.5"),
    ("run", "scenario: four_qubit_weak\ntimes: {list: [0.0, 1.0]}\nparams: {wire_sites: 2.5}\n",
     "params.wire_sites must be a whole number, got 2.5"),
    ("run", "scenario: four_qubit_weak\ntimes: {list: [0.0, 1.0]}\nparams: {wire_sites: 0}\n",
     "params.wire_sites must be at least 1, got 0"),
    ("run", TRANSFER_CONFIG + "sites: {senders: 3, receivers: [3, 4]}\n",
     "sites.senders must be a pair of two sites, got 3"),
    ("run", TRANSFER_CONFIG + "sites: {senders: [0, 1], receivers: [3, 4.5]}\n",
     "sites.receivers must be a whole number, got 4.5"),
    ("run", QST_CONFIG.replace("sites: 8", "sites: 8\n  coupling: abc"), "network.coupling must be a real number, got 'abc'"),
    ("run", QST_CONFIG.replace("sites: 8", "sites: 8\n  coupling: true"), "network.coupling must be a real number, got True"),
    ("run", CHAIN_CONFIG.format("couplings: [1.0, abc]"), "network.couplings must be a real number, got 'abc'"),
    ("run", CHAIN_CONFIG.format("couplings: [1, 1], zz_couplings: [0.1, x]"),
     "network.zz_couplings must be a real number, got 'x'"),
    ("run", CHAIN_CONFIG.format("couplings: [1, 1], fields: [0, 0, true]"),
     "network.fields must be a real number, got True"),
    ("run", CHAIN_CONFIG.format("kind: matrix, xy: [[0, 1, 0], [1, 0, 1], [0, abc, 0]]"),
     "network.xy must be a real number, got 'abc'"),
    ("run", QST_CONFIG.replace("start: 0.0", "start: abc"), "times.start must be a real number, got 'abc'"),
    ("run", QST_CONFIG.replace("stop: 1.0", "stop: [1.0]"), "times.stop must be a real number, got [1.0]"),
    ("run", CHAIN_CONFIG.format("couplings: [1, 1]").replace("[0.0, 1.0]", "[0, 1, x]"),
     "times must be a real number, got 'x'"),
    ("run", "scenario: weak_pair\ntimes: {list: [0.0, 1.0]}\nparams: {g: abc}\n", "params.g must be a real number, got 'abc'"),
    ("run", "scenario: four_qubit_weak\ntimes: {list: [0.0, 1.0]}\nparams: {J: true}\n",
     "params.J must be a real number, got True"),
    ("run", "scenario: closed_form_four_qubit\ntimes: {list: [0.0, 1.0]}\nparams: {g: 1e-3}\n",
     "params.g must be a real number, got '1e-3' (YAML reads it as text: write an exponent as "
     "1.0e-3 or 1.0e+3, with a decimal point and a sign)"),
    ("run", "scenario: closed_form_four_qubit\ntimes: {list: [0.0, 1.0]}\nparams: {g: '0.5'}\n",
     "params.g must be a real number, got '0.5'"),
    ("run", GOOD_CONFIG.replace("p: 0.7", "p: abc"), "initial.p must be a real number, got 'abc'"),
    ("run", GOOD_CONFIG.replace("  p: 0.7\n", ""), "initial.p must be a real number, got None"),
    ("run", GOOD_CONFIG.replace("kind: werner\n  p: 0.7", "kind: xstate\n  populations: [0.5, 0.5, 0, abc]"),
     "initial.populations must be a real number, got 'abc'"),
    ("run", GOOD_CONFIG.replace("kind: werner\n  p: 0.7", "kind: xstate\n  populations: [0.5, 0.5]"),
     "initial.populations must be a list of four numbers, got [0.5, 0.5]"),
    ("run", GOOD_CONFIG + "tolerances: {oracle: abc}\n", "tolerances.oracle must be a real number, got 'abc'"),
    ("run", GOOD_CONFIG.replace("kind: werner\n  p: 0.7", "kind: basis"),
     "initial.string must give the basis state's label"),
    ("run", GOOD_CONFIG.replace("kind: werner\n  p: 0.7", "kind: matrix"),
     "initial.entries must be a square list of rows, got None"),
    ("run", GOOD_CONFIG.replace("kind: werner\n  p: 0.7", "kind: matrix\n  entries: 3"),
     "initial.entries must be a square list of rows, got 3"),
    ("run", GOOD_CONFIG.replace("kind: werner\n  p: 0.7", "kind: matrix\n  entries: [[1, 0], [0]]"),
     "initial.entries must be a square list of rows, got [[1, 0], [0]]"),
    ("run", GOOD_CONFIG.replace("kind: werner\n  p: 0.7", "kind: xstate\n  populations: [0.5, 0, 0, 0.5]\n  rho03: abc"),
     "initial.rho03 must be a real number, got 'abc'"),
    ("run", GOOD_CONFIG.replace("kind: werner\n  p: 0.7", "kind: xstate\n  populations: [0.5, 0, 0, 0.5]\n  rho03: [0.1]"),
     "initial.rho03 must be a real number or an [re, im] pair, got [0.1]"),
    ("run", GOOD_CONFIG.replace("kind: werner\n  p: 0.7", "kind: xstate\n  populations: [0.25, 0.25, 0.25, 0.25]\n"
                                "  rho03: true"),
     "initial.rho03 must be a real number, got True"),
    ("run", GOOD_CONFIG.replace("kind: werner\n  p: 0.7", "kind: xstate\n  populations: [0.5, 0, 0, 0.5]\n"
                                "  rho12: [0.1, x]"),
     "initial.rho12 must be a real number, got 'x'"),
    ("run", CHAIN_CONFIG.format("couplings: [1, 1]").replace("[0.0, 1.0]", "3"),
     "times.list must be a list of numbers, got 3"),
    ("sweep", GOOD_CONFIG + "sweep: {axis: p, values: [true, 0.5]}\n",
     "sweep.values must be a list of numbers, got [True, 0.5]"),
    ("run", CHAIN_CONFIG.format("kind: chain"), "network.couplings is required by network kind 'chain'"),
    ("run", CHAIN_CONFIG.format("kind: chain, couplings: null"), "network.couplings is required by network kind 'chain'"),
    ("run", CHAIN_CONFIG.format(""), "network.couplings is required by network kind 'chain'"),
    ("run", CHAIN_CONFIG.format("kind: uniform_chain"), "network.sites is required by network kind 'uniform_chain'"),
    ("run", CHAIN_CONFIG.format("kind: matrix, zz: [[0, 1], [1, 0]]"), "network.xy is required by network kind 'matrix'"),
    ("run", DUAL_CONFIG + "network_b: {kind: uniform_chain, coupling: 1.0}\n",
     "network_b.sites is required by network kind 'uniform_chain'"),
    ("run", CHAIN_CONFIG.format("couplings: [1, 1]").replace("{list: [0.0, 1.0]}",
                                                             "{list: [0.0, 1.0], start: 5.0, stop: 9.0, points: 100}"),
     "times.start is not read by times given as a list (accepted: list)"),
    ("run", DUAL_CONFIG + "network_b: {kind: matrix, xy: [[0, 1, 0], [0.5, 0, 1], [0, 1, 0]]}\n",
     "network_b: xy couplings must be symmetric"),
    ("run", CHAIN_CONFIG.format("couplings: [1, 1, 1], fields: [0.1, 0.2]"),
     "network: fields must have shape (4,), got (2,)"),
], ids=["sweep-values-int", "sweep-values-text", "sweep-values-string", "sweep-wire-sites", "sender-fraction", "sender-text",
        "points-fraction", "points-negative", "network-sites", "weak-pair-wire-sites", "four-qubit-wire-sites",
        "four-qubit-no-wire", "pair-number", "pair-fraction", "coupling-text", "coupling-bool", "couplings-entry",
        "zz-entry", "fields-bool", "xy-entry", "start-text", "stop-list", "times-list-entry", "g-text", "J-bool",
        "g-exponent-text", "g-quoted-decimal", "werner-p-text", "werner-p-missing", "populations-entry", "populations-count",
        "oracle-tolerance-text", "basis-no-string", "matrix-no-entries", "matrix-entries-number",
        "matrix-entries-ragged", "rho03-text", "rho03-short-pair", "rho03-bool", "rho12-pair-entry",
        "times-list-number", "sweep-values-bool", "chain-no-couplings", "chain-null-couplings",
        "default-kind-no-couplings", "uniform_chain-no-sites", "matrix-no-xy", "network_b-no-sites",
        "times-list-and-start", "network_b-asymmetric", "fields-shape"])
def test_sweep_values_and_whole_number_fields_exit_2_naming_the_field(tmp_path, capsys, command, text, message):
    config = tmp_path / "run.yaml"
    config.write_text(text)
    out = tmp_path / "never.csv"
    assert main([command, str(config), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"configuration error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, text, message", [
    ("run", "scenario: weak_pair\ntimes: {list: [0.0, 1.0]}\nparams: {g: .nan}\n", "params.g must be finite, got nan"),
    ("run", "scenario: four_qubit_weak\ntimes: {list: [0.0, 1.0]}\nparams: {g: .nan}\n",
     "params.g must be finite, got nan"),
    ("run", "scenario: closed_form_four_qubit\ntimes: {list: [0.0, 1.0]}\nparams: {g: .nan}\n",
     "params.g must be finite, got nan"),
    ("run", "scenario: closed_form_four_qubit\ntimes: {list: [0.0, 1.0]}\nparams: {J: -.inf}\n",
     "params.J must be finite, got -inf"),
    ("run", GOOD_CONFIG.replace("kind: werner\n  p: 0.7", "kind: xstate\n  populations: [.nan, 0.0, 0.0, 1.0]"),
     "initial.populations must be finite, got nan"),
    ("run", GOOD_CONFIG.replace("kind: werner\n  p: 0.7", "kind: xstate\n  populations: [0.5, 0, 0, 0.5]\n"
                                "  rho03: [0.1, .nan]"),
     "initial.rho03 must be finite, got nan"),
    ("run", GOOD_CONFIG.replace("p: 0.7", "p: .nan"), "initial.p must be finite, got nan"),
    ("sweep", "scenario: weak_pair\ntimes: {list: [0.0, 1.0]}\nsweep: {axis: g, values: [0.1, .nan]}\n",
     "sweep.values must be finite, got nan"),
    ("run", QST_CONFIG.replace("sites: 8", "sites: 8\n  coupling: .nan"), "network.coupling must be finite, got nan"),
    ("run", CHAIN_CONFIG.format("couplings: [1.0, .inf]"), "network.couplings must be finite, got inf"),
], ids=["weak_pair-g", "four_qubit_weak-g", "closed-form-g", "closed-form-J", "xstate-populations", "xstate-rho03",
        "werner-p", "sweep-values", "uniform-coupling", "chain-couplings"])
def test_non_finite_numbers_exit_2_naming_the_field(tmp_path, capsys, sector_builds, command, text, message):
    config = tmp_path / "run.yaml"
    config.write_text(text)
    out = tmp_path / "never.csv"
    assert main([command, str(config), "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert sector_builds == [] and not out.exists()


def _initial(text: str) -> str:
    """GOOD_CONFIG (a two-qubit slot) with the initial state ``text``."""
    return GOOD_CONFIG.replace("kind: werner\n  p: 0.7", text)


@pytest.mark.parametrize("text, message", [
    (_initial("kind: werner\n  p: 1.5"), "initial.p: Werner weight must be in [0, 1], got 1.5"),
    (_initial("kind: werner\n  p: 0.7\n  bell: xx"),
     f"initial.bell: unknown Bell label 'xx', expected one of {measures.BELL_LABELS}"),
    (_initial("kind: bell\n  label: xx"),
     f"initial.label: unknown Bell label 'xx', expected one of {measures.BELL_LABELS}"),
    (_initial("kind: bell\n  label: [1]"),
     f"initial.label: unknown Bell label [1], expected one of {measures.BELL_LABELS}"),
    (QST_CONFIG + "initial: {kind: bell}\n", "initial.kind: bell input needs a two-qubit slot"),
    (QST_CONFIG + "initial: {kind: werner, p: 0.5}\n", "initial.kind: werner input needs a two-qubit slot"),
    (_initial("kind: basis\n  string: '101'"), "initial.string: basis string '101' does not describe 2 qubits"),
    (_initial("kind: xstate\n  populations: [1.5, -0.5, 0, 0]"),
     "initial.populations: negative population in (1.5, -0.5, 0.0, 0.0)"),
    (_initial("kind: xstate\n  populations: [0.5, 0.5, 0.5, 0.5]"),
     "initial.populations: populations sum to 2.0, expected 1"),
    (_initial("kind: xstate\n  populations: [0.5, 0, 0, 0.5]\n  rho03: 0.6"),
     "initial.rho03: |rho03|^2 exceeds p00*p33 (not positive semidefinite)"),
    (_initial("kind: xstate\n  populations: [0, 0.5, 0.5, 0]\n  rho12: [0, 0.6]"),
     "initial.rho12: |rho12|^2 exceeds p11*p22 (not positive semidefinite)"),
    (_initial("kind: matrix\n  entries: [[0.5, 0.1, 0, 0], [0, 0.5, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]"),
     "initial.entries: density matrix is not Hermitian"),
    (_initial("kind: matrix\n  entries: [[0.7, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]"),
     "initial.entries: density matrix trace is (0.7+0j), expected 1"),
    (_initial("kind: matrix\n  entries: [[1, 0], [0, 0]]"),
     "initial.entries: matrix input has shape (2, 2), expected (4, 4)"),
], ids=["werner-p-range", "werner-bell-label", "bell-label", "bell-label-list", "bell-one-qubit-slot",
        "werner-one-qubit-slot", "basis-string-length", "populations-negative", "populations-sum", "rho03-psd", "rho12-psd",
        "matrix-not-hermitian", "matrix-trace", "matrix-shape"])
def test_initial_state_rejections_exit_2_naming_the_field(tmp_path, capsys, sector_builds, text, message):
    config = tmp_path / "run.yaml"
    config.write_text(text)
    out = tmp_path / "never.csv"
    assert main(["run", str(config), "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert sector_builds == [] and not out.exists()


@pytest.mark.parametrize("whole, text", [
    (QST_CONFIG, QST_CONFIG.replace("sender: 0", "sender: 0.0").replace("points: 3", "points: 3.0")),
    ("scenario: weak_pair\ntimes: {list: [0.0, 1.0]}\nparams: {wire_sites: 3}\n",
     "scenario: weak_pair\ntimes: {list: [0.0, 1.0]}\nparams: {wire_sites: 3.0}\n"),
    (TRANSFER_CONFIG + "sites: {senders: [0, 1], receivers: [3, 4]}\n",
     TRANSFER_CONFIG + "sites: {senders: [0.0, 1], receivers: [3, 4.0]}\n"),
    (QST_CONFIG.replace("sites: 8", "sites: 8\n  coupling: 1.0"), QST_CONFIG.replace("sites: 8", "sites: 8\n  coupling: 1")),
    (CHAIN_CONFIG.format("couplings: [1.0, 0.5], fields: [0.0, 0.25, 0.0]"),
     CHAIN_CONFIG.format("couplings: [1, 0.5], fields: [0, 0.25, 0]").replace("[0.0, 1.0]", "[0, 1]")),
], ids=["qst", "weak_pair", "two_qubit_transfer", "int-coupling", "int-chain-and-times"])
def test_whole_valued_floats_run_like_integers(tmp_path, whole, text):
    outputs = []
    for name, body in (("int", whole), ("float", text)):
        config = tmp_path / f"{name}.yaml"
        config.write_text(body)
        outputs.append(tmp_path / f"{name}.csv")
        assert main(["run", str(config), "--output", str(outputs[-1])]) == 0
    assert outputs[0].read_bytes() == outputs[1].read_bytes()


def test_readme_example_configuration_runs_and_sweeps(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    example, sweep = [block.split("```")[0] for block in readme.split("```yaml\n")[1:3]]
    assert example.startswith("scenario: distribute_single") and sweep.startswith("sweep:")
    config, out = tmp_path / "example.yaml", tmp_path / "example.csv"
    config.write_text(example)
    assert main(["run", str(config), "--output", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 61
    config.write_text(example + sweep)
    assert main(["sweep", str(config), "--output", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 5 * 61



def _refuse(*args, **kwargs):
    raise AssertionError("the computation started before every input was read")


@pytest.mark.parametrize("argv", [["run", "{config}"], ["sweep", "{config}"], ["figure", "3", "--points", "5"]],
                         ids=["run", "sweep", "figure"])
@pytest.mark.parametrize("where", ["missing-directory", "a-directory", "missing-output-dir-env"])
def test_output_path_is_checked_before_computing(tmp_path, monkeypatch, capsys, argv, where):
    config = tmp_path / "run.yaml"
    config.write_text(GOOD_CONFIG + "sweep: {axis: p, values: [0.5, 0.9]}\n")
    monkeypatch.setattr(protocols, "run", _refuse)
    monkeypatch.setattr(cli, "figure3_result", _refuse)
    args = [a.format(config=config) for a in argv]
    if where == "missing-output-dir-env":
        path = tmp_path / "missing"
        monkeypatch.setenv("SPINMAPS_OUTPUT_DIR", str(path))
    else:
        path = tmp_path / "missing" / "x.csv" if where == "missing-directory" else tmp_path
        args += ["--output", str(path)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: output") and str(path) in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("verify, message", [
    ("{oracle: 'false'}", "verify.oracle must be true or false, got 'false'"),
    ("{oracle: true, cptp: 0.5}", "verify.cptp must be true or false, got 0.5"),
    ("{cptp: null}", "verify.cptp must be true or false, got None"),
])
def test_verify_flags_must_be_booleans(tmp_path, capsys, verify, message):
    config = tmp_path / "run.yaml"
    config.write_text(QST_CONFIG + f"verify: {verify}\n")
    out = tmp_path / "never.csv"
    assert main(["run", str(config), "--output", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def _skew_oracle_output(monkeypatch):
    trace = oracle.partial_trace_outer

    def skewed(*args):
        out = trace(*args)
        return out + 0.1 * np.triu(np.ones(out.shape[-2:]), 1)  # not Hermitian, trace kept

    monkeypatch.setattr(oracle, "partial_trace_outer", skewed)


def _fail_measure_check(monkeypatch, from_run=0):
    """A measure's range check fails from the ``from_run``-th scenario read-out on (0: also outside any run)."""
    runs, clip = [], measures._clip_unit

    def failing(x):
        if len(runs) >= from_run:
            raise ValueError("measure value 1.5 outside [0, 1] beyond tolerance")
        return clip(x)

    def counted(read):
        return lambda spec, built: runs.append(spec) or read(spec, built)

    for kind, reads in protocols.SCENARIOS.items():
        monkeypatch.setitem(protocols.SCENARIOS, kind, reads._replace(read=counted(reads.read)))
    monkeypatch.setattr(measures, "_clip_unit", failing)


def _fail_peak_search(monkeypatch):
    """The concurrence of one state raises: the weak_pair peak search's, not the grid's (a stack of states)."""
    concurrence = measures.concurrence

    def failing(rho):
        if np.ndim(rho) == 2:
            raise ValueError("measure value 1.5 outside [0, 1] beyond tolerance")
        return concurrence(rho)

    monkeypatch.setattr(measures, "concurrence", failing)


def _refuse_series(monkeypatch):
    def refuse(*args):
        raise AssertionError("the oracle series started")

    monkeypatch.setattr(oracle, "unit_columns", refuse)


def _exhaust_memory(monkeypatch):
    def exhausted(*args):
        raise MemoryError()

    monkeypatch.setattr(maps, "apply", exhausted)


# an 8-site chain whose series would take about 1.4e9 Chebyshev terms: the weights alone exceed any memory
TERMS_CONFIG = ("scenario: qst\nnetwork: {kind: uniform_chain, sites: 8, coupling: 1.0e+4}\nsites: {sender: 0, receiver: 7}\n"
                "times: {start: 0.0, stop: 1.0e+4, points: 2}\nverify: {oracle: true}\n")
# the grid peak lies inside [0, 24.8], so Brent's peak search runs
WEAK_PAIR_CONFIG = "scenario: weak_pair\nparams: {wire_sites: 9}\ntimes: {start: 0.0, stop: 24.8, points: 16}\n"
SWEEP_CONFIG = GOOD_CONFIG.replace("verify:\n  oracle: true\n  cptp: true\n", "") + "sweep: {axis: p, values: [0.4, 0.9]}\n"
DUAL_16_CONFIG = ("scenario: distribute_dual\nnetwork: {kind: uniform_chain, sites: 8}\n"
                  "network_b: {kind: uniform_chain, sites: 8}\n"
                  "sites: {sender_a: 0, receiver_a: 7, sender_b: 0, receiver_b: 7}\ninitial: {kind: bell}\n"
                  "times: {list: [0.0, 1.0]}\nverify: {oracle: true}\n")


@pytest.mark.parametrize("argv, text, patch, code, message", [
    (["run", "{config}"], GOOD_CONFIG, _skew_oracle_output, 1, "numerical failure: density matrix is not Hermitian"),
    (["verify", "--trials", "1"], None, _skew_oracle_output, 1, "numerical failure: density matrix is not Hermitian"),
    (["figure", "3", "--points", "5"], None, _fail_measure_check, 1, "numerical failure: measure value 1.5"),
    (["sweep", "{config}"], SWEEP_CONFIG, lambda mp: _fail_measure_check(mp, from_run=2), 1,
     "numerical failure: measure value 1.5"),
    (["run", "{config}"], DUAL_16_CONFIG, None, 2, "configuration error: verify.oracle: 16 sites"),
    (["run", "{config}"], "scenario: four_qubit_weak\ntimes: {list: [0.0, 1.0]}\nparams: {g: -0.1}\n", None, 0, ""),
    (["run", "{config}"], "scenario: four_qubit_weak\ntimes: {list: [0.0, 1.0]}\nparams: {g: 1.0e+200}\n", None, 0, ""),
    (["run", "{config}"], "scenario: closed_form_four_qubit\ntimes: {list: [0.0, 1.0]}\nparams: {g: 1.0e+200}\n", None,
     2, "configuration error: params.g = 1e+200, params.J = 1.0 and initial.string '1100' leave the closed form"),
    (["run", "{config}"], TERMS_CONFIG, _refuse_series, 2,
     "configuration error: verify.oracle: 8 sites, 2 columns and 2 times exceed the series-oracle cap"),
    (["run", "{config}"], GOOD_CONFIG, _exhaust_memory, 1, "numerical failure: "),
    (["run", "{config}"], WEAK_PAIR_CONFIG, _fail_peak_search, 1, "numerical failure: measure value 1.5"),
], ids=["oracle-output-run", "oracle-output-verify", "figure-measure", "sweep-second-value", "oracle-cap",
        "four-qubit-negative-g", "four-qubit-overflowing-g", "closed-form-overflowing-g", "oracle-terms-cap",
        "memory-error", "weak-pair-peak-search"])
def test_exit_code_follows_the_phase(tmp_path, monkeypatch, capsys, sector_builds, argv, text, patch, code, message):
    """Exit 2 for what reading finds, before any computation; exit 1 for a computation that fails."""
    config, out = tmp_path / "run.yaml", tmp_path / "out.csv"
    config.write_text(text or "")
    if patch is not None:
        patch(monkeypatch)
    assert main([a.format(config=config) for a in argv] + ["--output", str(out)] * (argv[0] != "verify")) == code
    err = capsys.readouterr().err
    assert err.startswith(message) and (code != 0 or err == "")
    if code == 2:
        assert sector_builds == [] and not out.exists()
    if code == 0:
        with open(out, newline="") as fh:
            assert all(math.isnan(float(row["closed_form_fidelity"])) for row in csv.DictReader(fh))
