"""Steady states of two dissipatively coupled qubits: transport and
entanglement / steering / Bell-nonlocality phase diagrams."""

from .model import SystemParams
from .rates import (
    Cells,
    ReservoirSpec,
    Statistics,
)
from .generator import build_generator
from .steady import (
    evolve,
    steady_state,
)
from .correlations import classify
from .transport import transport_report

__version__ = "0.2.0"
