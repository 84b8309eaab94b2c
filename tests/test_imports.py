"""scipy is loaded only by the runs that call it: a fresh interpreter shows which."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# imports spinmaps.cli, then runs each argv through cli.main; prints the scipy
# modules loaded after the import and after each run
PROBE = """
import json, sys
from spinmaps import cli
loaded = [sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
    loaded.append(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
print(json.dumps(loaded))
"""

CHAIN_RUN = """\
scenario: distribute_single
network: {kind: uniform_chain, sites: 6}
sites: {sender: 0, receiver: 5}
initial: {kind: werner, p: 0.7}
times: {start: 0.0, stop: 3.0, points: 7}
verify: {cptp: true, oracle: %s}
"""

# the grid peak of the end-to-end concurrence lies near t = 157, inside the grid
WEAK_PAIR_RUN = """\
scenario: weak_pair
params: {wire_sites: 2, J: 1.0, g: 0.05}
times: {start: 0.0, stop: 314.0, points: 40}
"""


# a k = 2 sector of d = 300 on a ZZ chain, whose one column at 6 times takes the Chebyshev series
SERIES_RUN = """\
scenario: two_qubit_transfer
network: {kind: chain, couplings: %s, zz_couplings: %s}
sites: {senders: [0, 1], receivers: [24, 23]}
initial: {kind: bell, label: psi+}
times: {start: 0.5, stop: 12.0, points: 6}
""" % ([1.0] * 24, [0.2] * 24)


def _run(tmp_path, name, config):
    (tmp_path / f"{name}.yaml").write_text(config)
    return ["run", str(tmp_path / f"{name}.yaml"), "--output", str(tmp_path / f"{name}.csv")]


def _scipy_after(tmp_path, *runs):
    """scipy modules loaded in a fresh interpreter after the import and after each run."""
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(runs)], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_scipy_loads_only_where_a_run_calls_it(tmp_path):
    figure = ["figure", "3", "--points", "5", "--output", str(tmp_path / "f3.csv")]
    # the weak pair's Brent peak search is the package's own, so it loads no scipy either
    runs = figure, _run(tmp_path, "eigh", CHAIN_RUN % "false"), _run(tmp_path, "weak_pair", WEAK_PAIR_RUN)
    assert _scipy_after(tmp_path, *runs) == [[], [], [], []]
    # positive control: the probe sees scipy where a run does call it, but never scipy.special: the
    # series' Bessel weights and term count are the package's own
    for name, config in ("oracle", CHAIN_RUN % "true"), ("series", SERIES_RUN):
        *_, loaded = _scipy_after(tmp_path, _run(tmp_path, name, config))
        assert "scipy.sparse" in loaded
        assert not [m for m in loaded if m.split(".")[:2] == ["scipy", "special"]], name
