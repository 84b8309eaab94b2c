"""Spans and counters recorded around the public functions of each spinmaps module.

The tracer patches the program from outside: class methods are replaced on the
class, and module functions are replaced under every name a spinmaps module
binds them to (``protocols`` imports ``build_sector_hamiltonian`` directly,
``maps`` and ``cli`` import ``amplitudes`` and ``vacuum_amplitude`` directly),
so a call is traced whichever name it goes through.  ``uninstall`` restores
every original object.

A span is ``(name, start, end, parent, job)``; spans stay in memory until the
caller writes them out.  A layer's self time is the duration of its spans
minus the time their direct child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter


def _calls(key: str):
    def count(counts, result):
        counts[key] += 1
    return count


def _table_count(counts, result):
    d = result.sector.dimension
    counts["network.table_calls"] += 1
    # one d x d complex GEMM to build the table, one for its unitarity check;
    # a complex multiply-add is 8 real flops
    counts["network.table_flop"] += 2 * 8 * d**3


def _kraus_count(counts, result):
    counts["maps.kraus_ops"] += len(result.operators)


def _unitary_count(counts, result):
    counts["oracle.evolve_flop"] += 8 * result.shape[0] ** 3  # (V * phases) @ V^dag


def _evolve_count(counts, result):
    dim = result.shape[0]
    if result.ndim == 2:
        counts["oracle.evolve_flop"] += 2 * 8 * dim**3  # U rho U^dag
    else:
        counts["oracle.evolve_flop"] += 8 * dim**2  # U psi


def _rows_count(counts, result):
    counts["protocols.points"] += len(result.rows)


class Tracer:
    """Records spans and counters while installed into the spinmaps modules."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.job = None
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn, count=None):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            idx = len(tracer.spans)
            tracer.spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.job)
            if count is not None:
                count(tracer.counts, result)
            return result

        return traced

    def _patch_method(self, cls, attr, name, count=None):
        original = cls.__dict__[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, self._wrap(name, original, count))

    def _patch_function(self, modules, owner, attr, name, count=None):
        original = getattr(owner, attr)
        wrapped = self._wrap(name, original, count)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, key, original))
                    setattr(module, key, wrapped)

    def install(self):
        """Wrap the public functions of every spinmaps layer."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        from spinmaps import cli, maps, measures, network, oracle, protocols

        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "spinmaps" or key.startswith("spinmaps."))]
        fn = functools.partial(self._patch_function, modules)

        fn(network, "build_sector_hamiltonian", "network.hamiltonian")
        self._patch_method(network.SectorPropagator, "__init__", "network.propagator",
                           _calls("network.propagators"))
        self._patch_method(network.SectorPropagator, "table", "network.table", _table_count)

        for attr in ("one_qubit_kraus", "two_qubit_kraus", "extend_with_identity", "tensor_map"):
            fn(maps, attr, "maps.kraus", _kraus_count)
        fn(maps, "apply", "maps.apply", _calls("maps.apply_calls"))
        fn(maps, "is_cptp", "maps.cptp")

        fn(measures, "concurrence", "measures.concurrence", _calls("measures.concurrence_calls"))
        fn(measures, "four_qubit_measures", "measures.four_qubit", _calls("measures.four_qubit_calls"))
        # closed-form X-state concurrences: protocols rows and one per row of figures 3 and 5
        for attr in ("transferred_concurrence", "dual_rail_concurrence"):
            fn(measures, attr, "measures.closed_form", _calls("measures.closed_form_calls"))

        self._patch_method(oracle.FullPropagator, "__init__", "oracle.build")
        self._patch_method(oracle.FullPropagator, "unitary", "oracle.evolve", _unitary_count)
        self._patch_method(oracle.FullPropagator, "evolve", "oracle.evolve", _evolve_count)
        fn(oracle, "reduced_output", "oracle.reduce", _calls("oracle.reduced_output_calls"))

        fn(protocols, "run", "protocols.run", _rows_count)
        fn(protocols, "sweep", "protocols.sweep")
        fn(protocols, "four_qubit_measure_sweep", "protocols.four_qubit_measure_sweep", _rows_count)

        fn(cli, "main", "cli.main")

    def uninstall(self):
        """Put back every object ``install`` replaced."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def take(self):
        """Return and clear the spans and counters recorded so far."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def self_times(spans) -> dict:
    """Total self time per span name: duration minus direct children's durations."""
    child = [0.0] * len(spans)
    for name, start, end, parent, job in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = Counter()
    for idx, (name, start, end, parent, job) in enumerate(spans):
        totals[name] += (end - start) - child[idx]
    return totals


def fired(spans) -> Counter:
    """Number of spans recorded under each name."""
    return Counter(span[0] for span in spans)
