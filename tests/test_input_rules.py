"""One bad-input table for the engine: every entry point applies the same site rule and the same time rule."""

import numpy as np
import pytest

from spinmaps import oracle
from spinmaps.maps import NetworkChannel, partial_trace, partial_trace_outer, two_qubit_kraus, two_qubit_map_elements
from spinmaps.network import SectorPropagator, SpinNetwork, check_sites, check_times, reduced_state
from spinmaps.protocols import four_qubit_closed_form

N = 5
NET = SpinNetwork.chain([1.0, 0.8, 1.2, 0.9], [0.1, -0.2, 0.0, 0.3], [0.1, 0.0, -0.1, 0.2, 0.05])
CHAN = NetworkChannel(NET)
K1, K2, VACUUM = CHAN.k1.table(0.7), CHAN.k2.table(0.7), CHAN.vacuum(0.7)
PAIR_TABLE = SectorPropagator(NET, 2).table(0.7, [(0, 3)])
SENDER_STATE = np.diag([0.0, 1.0]).astype(complex)
VECTOR = np.full((1 << N, 1), (1 << N) ** -0.5, dtype=complex)
STATE = VECTOR @ VECTOR.conj().T

# every entry point that reads a site list: (role, good sites, call on a site list)
SITE_ENTRIES = {
    "amplitude-sender": ("sender", [0], lambda s: CHAN.amplitude(s[0], 4, 0.7)),
    "amplitude-receiver": ("receiver", [4], lambda s: CHAN.amplitude(0, s[0], 0.7)),
    "two_qubit-senders": ("sender", [0, 1], lambda s: CHAN.two_qubit(s, (3, 4), 0.7)),
    "two_qubit-receivers": ("receiver", [3, 4], lambda s: CHAN.two_qubit((0, 1), s, 0.7)),
    "two_qubit_kraus-senders": ("sender", [0, 1], lambda s: two_qubit_kraus(K1, K2, s, (3, 4), VACUUM)),
    "two_qubit_kraus-receivers": ("receiver", [3, 4], lambda s: two_qubit_kraus(K1, K2, (0, 1), s, VACUUM)),
    "map_elements-senders": ("sender", [0, 1], lambda s: two_qubit_map_elements(K1, K2, s, (3, 4), VACUUM)),
    "map_elements-receivers": ("receiver", [3, 4], lambda s: two_qubit_map_elements(K1, K2, (0, 1), s, VACUUM)),
    "reduced_state": ("kept", [1, 3], lambda s: reduced_state(PAIR_TABLE, (0, 3), s)),
    "reduced_state-source": ("source", [0, 3], lambda s: reduced_state(PAIR_TABLE, s, [1, 3])),
    "partial_trace": ("kept", [0, 2], lambda s: partial_trace(STATE, s, [2] * N)),
    "partial_trace_outer": ("kept", [0, 2], lambda s: partial_trace_outer(VECTOR, VECTOR, s, [2] * N)),
    "reduced_output-senders": ("sender", [0], lambda s: oracle.reduced_output(NET, SENDER_STATE, s, [4], 0.7)),
    "reduced_output-receivers": ("receiver", [4], lambda s: oracle.reduced_output(NET, SENDER_STATE, [0], s, 0.7)),
}
# each replaces the last good site; "repeat" appends the first (amplitude takes one site, which cannot repeat)
BAD_SITES = {"float": 0.7, "bool": True, "text": "1", "negative": -1, "n": N, "repeat": None}

# every entry point that reads a time grid
TIME_ENTRIES = {
    "table": lambda t: SectorPropagator(NET, 1).table(t, [(0,)]),
    "amplitude": lambda t: CHAN.amplitude(0, 4, t),
    "two_qubit": lambda t: CHAN.two_qubit((0, 1), (3, 4), t),
    "reduced_output": lambda t: oracle.reduced_output(NET, SENDER_STATE, [0], [4], t),
    "four_qubit_closed_form": lambda t: four_qubit_closed_form(0.1, 1.0, t),
}
BAD_TIMES = {"text": "1.5", "bool": True, "none": None, "matrix": [[0.0]], "nan": np.nan}


@pytest.mark.parametrize("entry", SITE_ENTRIES)
def test_good_sites_pass_every_entry_point(entry):
    _, good, call = SITE_ENTRIES[entry]
    call(good)


@pytest.mark.parametrize("entry, bad", [(entry, bad) for entry in SITE_ENTRIES for bad in BAD_SITES
                                        if not (bad == "repeat" and entry.startswith("amplitude"))])
def test_bad_sites_name_their_role(entry, bad):
    role, good, call = SITE_ENTRIES[entry]
    sites = good + good[:1] if bad == "repeat" else good[:-1] + [BAD_SITES[bad]]
    with pytest.raises(ValueError, match=f"^{role} sites "):
        call(sites)


@pytest.mark.parametrize("entry", TIME_ENTRIES)
@pytest.mark.parametrize("bad", BAD_TIMES)
def test_bad_times_name_t(entry, bad):
    TIME_ENTRIES[entry](0.7)
    with pytest.raises(ValueError, match="^t must be "):
        TIME_ENTRIES[entry](BAD_TIMES[bad])


def test_the_rules_return_plain_values():
    sites = check_sites(np.array([3, 0]), 4, "kept")
    assert sites == [3, 0] and all(type(s) is int for s in sites)
    assert check_sites((), 0, "kept") == []
    with pytest.raises(ValueError, match="^kept sites must be integers, got 3$"):
        check_sites(3, 4, "kept")
    with pytest.raises(ValueError, match=r"^kept sites must be integers, got \[1, np.True_\]$"):
        check_sites([1, np.True_], 4, "kept")
    assert type(check_times(2)) is float and check_times(np.float32(0.5)) == 0.5
    grid = [0.0, 2, -1.5]
    times = check_times(grid)
    assert times.dtype == float and times.tolist() == grid
    given = np.array([0.5, 1.0])
    assert check_times(given) is not given  # a copy: a table keeps its own times
    assert check_times([]).shape == (0,)
