"""Steady states of two dissipatively coupled qubits: transport and
entanglement / steering / Bell-nonlocality phase diagrams."""

from .model import (
    SystemParams,
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
    classify,
)
from .transport import transport_report
from .analysis import rectification

__version__ = "0.2.0"
