"""Quantum dynamical maps induced by U(1)-symmetric spin-1/2 networks."""

from .network import (
    AmplitudeTable,
    ExcitationSector,
    NumericalError,
    SectorHamiltonian,
    SectorPropagator,
    SpinNetwork,
    build_sector_hamiltonian,
    full_unitary_from_sectors,
    pair_amplitude_determinant,
    reduced_state,
)
from .maps import (
    CptpVerdict,
    KrausSet,
    NetworkChannel,
    apply,
    assert_density_matrix,
    choi_from_superop,
    extend_with_identity,
    is_cptp,
    one_qubit_kraus,
    partial_trace,
    superop_from_kraus,
    tensor_map,
    trace_distance,
    two_qubit_kraus,
    two_qubit_map_elements,
    two_qubit_sparsity_pattern,
)
from .measures import (
    XState,
    bell_state,
    concurrence,
    dual_rail_concurrence,
    four_qubit_measures,
    four_tangle,
    three_tangle_decomposition_bound,
    three_tangle_pure,
    transferred_concurrence,
    werner_state,
)
from .oracle import (
    FullPropagator,
    full_hamiltonian,
    magnetization_expectation,
    reduced_output,
)
from .protocols import (
    ScenarioResult,
    ScenarioSpec,
    VerificationError,
    four_qubit_closed_form,
    four_qubit_measure_sweep,
    run,
    sweep,
    sweep_specs,
)

__version__ = "0.1.0"
