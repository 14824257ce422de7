"""Steady states of two dissipatively coupled qubits: transport and
entanglement / steering / Bell-nonlocality phase diagrams."""

from .model import (
    Basis,
    DensityMatrix4,
    DerivedParams,
    EigenSystem,
    Phase,
    SystemParams,
    basis_change,
    derive_params,
    eigensystem,
    hamiltonian_matrix,
)
from .rates import (
    RateSet,
    ReservoirSpec,
    Statistics,
    TransitionEnergies,
    occupation,
    rate_set,
    transition_energies,
)
from .generator import (
    Generator,
    Setup,
    build_generator,
)
from .steady import (
    EquilibriumState,
    SteadyResult,
    Trajectory,
    equilibrium_analytic,
    evolve,
    steady_state,
)
from .correlations import (
    CorrelationReport,
    Direction,
    Method,
    XState,
    classify,
    extract_xstate,
)
from .transport import (
    Observable,
    TransportReport,
    rectification,
    transport_report,
)

__version__ = "0.1.0"
