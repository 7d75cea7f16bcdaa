"""qoct: time-optimal single-control qubit protocols and their PMP audits."""

__version__ = "0.1.0"

from .dynamics import (
    BlochPoint,
    ModelParams,
    Trajectory,
    bloch_from_state,
    gate_cost,
    propagate,
    rabi_pi_time,
    rabi_protocol,
    state_from_bloch,
    state_prep_cost,
    terminal_cost,
    total_unitary,
)
from .pmp import CostSpec, OptimalityReport, audit
from .protocols import (
    BangSequence,
    OneParamBB,
    Protocol,
    Sampled,
    TanhProtocol,
    ThirdHarmonic,
    as_sampled,
    protocol_from_dict,
    protocol_to_dict,
)
from .state_prep import StatePrepProblem, StructureLabel, critical_amplitude, find_time_optimal
from .xgate import GateProblem, asymptotic_ratio_model, min_gate_time, rabi_fidelity_curve

__all__ = [
    "__version__",
    "BangSequence",
    "BlochPoint",
    "CostSpec",
    "GateProblem",
    "ModelParams",
    "OneParamBB",
    "OptimalityReport",
    "Protocol",
    "Sampled",
    "StatePrepProblem",
    "StructureLabel",
    "TanhProtocol",
    "ThirdHarmonic",
    "Trajectory",
    "as_sampled",
    "asymptotic_ratio_model",
    "audit",
    "bloch_from_state",
    "critical_amplitude",
    "find_time_optimal",
    "gate_cost",
    "min_gate_time",
    "propagate",
    "protocol_from_dict",
    "protocol_to_dict",
    "rabi_fidelity_curve",
    "rabi_pi_time",
    "rabi_protocol",
    "state_from_bloch",
    "state_prep_cost",
    "terminal_cost",
    "total_unitary",
]
