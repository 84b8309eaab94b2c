"""The benchmark tracer (perfbench/tracing.py, read here, never changed) must find every name it patches.

A traced name that the program no longer defines would otherwise show up only
when someone runs the benchmark with tracing on.
"""

import importlib.util
import sys
from pathlib import Path

from spinmaps import cli, maps, network, oracle

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
PATCHED_CLASSES = (network.SectorPropagator, oracle.FullPropagator)


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces() -> dict:
    """A copy of the namespace of every spinmaps module and of each class the tracer patches."""
    owners = [m for key, m in sorted(sys.modules.items()) if key == "spinmaps" or key.startswith("spinmaps.")]
    return {owner: dict(vars(owner)) for owner in owners + list(PATCHED_CLASSES)}


def test_tracer_installs_every_traced_name_and_restores_the_originals(tmp_path):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    before = namespaces()
    tracer.install()
    try:
        assert maps.two_qubit_kraus is not before[maps]["two_qubit_kraus"]
        assert vars(oracle.FullPropagator)["evolve"] is not before[oracle.FullPropagator]["evolve"]
        assert cli.main(["figure", "3", "--points", "3", "--output", str(tmp_path / "f3.csv")]) == 0
    finally:
        tracer.uninstall()
    spans, _ = tracer.take()
    assert {"cli.main", "measures.closed_form"} <= set(tracing.fired(spans))
    after = namespaces()
    for owner, names in before.items():
        assert after[owner].keys() == names.keys(), owner
        assert all(after[owner][key] is value for key, value in names.items()), owner
