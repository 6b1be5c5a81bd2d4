"""Teleportation through a uniformly accelerated channel, with Fisher-information
estimation of the teleported weight angle, phase angle and acceleration parameter.
``__all__`` is every name imported here that is neither a module nor _private, sorted."""

import types

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

# ``fisher`` and ``verify`` name the functions, imported over their modules' names.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
