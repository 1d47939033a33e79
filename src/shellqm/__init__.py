"""Phase-space model of a particle at rest: oscillator states on an energy
shell, Hermitian-form observables, generalized flows, and a minimization-based
measurement process whose statistics follow the Born rule."""

__version__ = "0.1.0"

from .core import (
    GeneralQuadraticObservable,
    HermitianObservable,
    OscillatorParams,
    PhaseSpacePoint,
    StateVector,
    canonical_phase,
    config_observable,
    make_state,
    project_to_shell,
    states_equal,
)
from .dynamics import flow, flow_numeric, shell_defect
from .experiments import (
    FrequencyTable,
    VerificationReport,
    chi_square,
    courant_fischer_suite,
    run_trials,
    verification_suite,
)
from .linalg import EigenSystem, commutator, eigh, unitary_propagator
from .measurement import (
    AdmissibleSubspace,
    MeasurementRecord,
    ProbabilityDistribution,
    born_probabilities,
    constrained_min,
    mean_value,
    measure,
)
from .phasespace import (
    evaluate_general,
    evaluate_observable,
    hermitian_from_function,
    poisson_bracket,
    shell_residual,
    to_complex,
    to_real,
)
from .scenario import Scenario, parse_scenario

__all__ = [
    "AdmissibleSubspace",
    "EigenSystem",
    "FrequencyTable",
    "GeneralQuadraticObservable",
    "HermitianObservable",
    "MeasurementRecord",
    "OscillatorParams",
    "PhaseSpacePoint",
    "ProbabilityDistribution",
    "Scenario",
    "StateVector",
    "VerificationReport",
    "born_probabilities",
    "canonical_phase",
    "chi_square",
    "commutator",
    "config_observable",
    "constrained_min",
    "courant_fischer_suite",
    "eigh",
    "evaluate_general",
    "evaluate_observable",
    "flow",
    "flow_numeric",
    "hermitian_from_function",
    "make_state",
    "mean_value",
    "measure",
    "parse_scenario",
    "poisson_bracket",
    "project_to_shell",
    "run_trials",
    "shell_defect",
    "shell_residual",
    "states_equal",
    "to_complex",
    "to_real",
    "unitary_propagator",
    "verification_suite",
]
