"""Geometric Landau-Zener interferometry powered by a quantized bosonic battery."""

from . import _blas  # noqa: F401  (first: sets the OpenBLAS thread default before numpy loads)
from .hilbert import (
    BatteryObservables,
    HilbertSpec,
    JointOperators,
    battery_observables,
    build_operators,
    check_density,
    excited_population,
    expectation,
    real_expectation,
)
from .liouvillian import NOISELESS, NoiseParams, mhz_to_rad_per_ns
from .metrics import backaction, contrast, contrast_deficit_fit
from .odeint import IntegratorConfig, integrate_segment, sanitize
from .protocol import (
    ProtocolParams,
    RunResult,
    detuning,
    echo_unitary,
    run_classical,
    run_quantum,
    simulate_constant_detuning,
)
from .states import BatterySpec, build_state, compute_cutoff

__version__ = "0.1.0"

__all__ = [
    "BatteryObservables",
    "BatterySpec",
    "HilbertSpec",
    "IntegratorConfig",
    "JointOperators",
    "NOISELESS",
    "NoiseParams",
    "ProtocolParams",
    "RunResult",
    "backaction",
    "battery_observables",
    "build_operators",
    "build_state",
    "check_density",
    "compute_cutoff",
    "contrast",
    "contrast_deficit_fit",
    "detuning",
    "echo_unitary",
    "excited_population",
    "expectation",
    "integrate_segment",
    "mhz_to_rad_per_ns",
    "real_expectation",
    "run_classical",
    "run_quantum",
    "sanitize",
    "simulate_constant_detuning",
    "__version__",
]
