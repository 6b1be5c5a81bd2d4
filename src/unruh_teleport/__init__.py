"""Teleportation through a uniformly accelerated channel, with Fisher-information
estimation of the teleported weight angle, phase angle and acceleration parameter."""

from .channels import (
    CorrelationDyadic,
    PhysicalityCheck,
    PRESET_NAMES,
    dyadic_to_density,
    preset_dyadic,
    validate_physical,
)
from .errors import ConsistencyError, DegenerateBranchError, DomainError
from .fisher import (
    DEFAULT_FD_STEP,
    FisherValue,
    bloch_partial,
    bloch_teleported,
    fisher,
    fisher_from_bloch,
)
from .sweep import (
    Axis,
    FIGURE_IDS,
    SweepRow,
    SweepRows,
    SweepSpec,
    emit,
    figure_spec,
    run_sweep,
)
from .teleport import (
    BobState,
    InputState,
    bloch_of,
    teleport_analytic,
    teleport_circuit_oracle,
    teleport_closed_form,
)
from .unruh import (
    AcceleratedChannel,
    MODE_NAMES,
    MODE_WEIGHTS,
    UnruhParams,
    accelerate,
    accelerated_density,
    bogoliubov_isometry,
    bogoliubov_oracle,
    mode_params,
    r_from_acceleration,
)
from .verify import VerifyReport, verify

__version__ = "0.1.0"

__all__ = [
    "AcceleratedChannel",
    "Axis",
    "BobState",
    "ConsistencyError",
    "CorrelationDyadic",
    "DEFAULT_FD_STEP",
    "DegenerateBranchError",
    "DomainError",
    "FIGURE_IDS",
    "FisherValue",
    "InputState",
    "MODE_NAMES",
    "MODE_WEIGHTS",
    "PRESET_NAMES",
    "PhysicalityCheck",
    "SweepRow",
    "SweepRows",
    "SweepSpec",
    "UnruhParams",
    "VerifyReport",
    "accelerate",
    "accelerated_density",
    "bloch_of",
    "bloch_partial",
    "bloch_teleported",
    "bogoliubov_isometry",
    "bogoliubov_oracle",
    "dyadic_to_density",
    "emit",
    "figure_spec",
    "fisher",
    "fisher_from_bloch",
    "mode_params",
    "preset_dyadic",
    "r_from_acceleration",
    "run_sweep",
    "teleport_analytic",
    "teleport_circuit_oracle",
    "teleport_closed_form",
    "validate_physical",
    "verify",
]
