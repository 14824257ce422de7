"""Steady states of two dissipatively coupled qubits: transport and
entanglement / steering / Bell-nonlocality phase diagrams."""

from .model import (
    Basis,
    DensityMatrix4,
    SystemParams,
    basis_change,
    derive_params,
    eigensystem,
)
from .rates import (
    Cells,
    ReservoirSpec,
    Statistics,
    rate_set,
    transition_energies,
)
from .generator import (
    GeneratorArrays,
    Setup,
    build_generator,
)
from .steady import (
    SteadyArrays,
    evolve,
    steady_state,
)
from .correlations import (
    Classification,
    Method,
    XState,
    classify,
)
from .transport import (
    rectification,
    transport_report,
)

__version__ = "0.2.0"
