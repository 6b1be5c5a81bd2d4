"""The public API as a whole: NaN refusal at every float input, and the package namespace."""

import importlib
import inspect
import math

import pytest

import unruh_teleport
from unruh_teleport import (
    Axis,
    CorrelationDyadic,
    DomainError,
    InputState,
    SweepSpec,
    UnruhParams,
    bloch_partial,
    fisher,
    mode_params,
    preset_dyadic,
    r_from_acceleration,
)
from unruh_teleport.channels import X_STATE_EXAMPLE

NAN = math.nan
PHI_PLUS = CorrelationDyadic(1.0, -1.0, 1.0)
STATE = InputState(1.0, 0.5)
WSMA = mode_params(0.1)
AXES = (Axis("theta", 0.0, math.pi, 3), Axis("r", 0.0, math.pi / 4, 3))
C_NAMES = ("c11", "c22", "c33")

# One call per public float input, with that input NaN and every other one valid.
NAN_CALLS = {
    "InputState.theta": lambda: InputState(NAN, 0.5),
    "InputState.phi": lambda: InputState(1.0, NAN),
    **{f"CorrelationDyadic.{name}": (lambda name=name: CorrelationDyadic(
        **{**dict(zip(C_NAMES, PHI_PLUS.as_tuple())), name: NAN})) for name in C_NAMES},
    "UnruhParams.r": lambda: UnruhParams(NAN),
    "UnruhParams.qr.real": lambda: UnruhParams(0.1, complex(NAN, 0.0), 0.0j),
    "UnruhParams.qr.imag": lambda: UnruhParams(0.1, complex(1.0, NAN), 0.0j),
    "UnruhParams.ql.real": lambda: UnruhParams(0.1, 1.0 + 0.0j, complex(NAN, 0.0)),
    "UnruhParams.ql.imag": lambda: UnruhParams(0.1, 1.0 + 0.0j, complex(0.0, NAN)),
    "preset_dyadic.fidelity": lambda: preset_dyadic("werner", fidelity=NAN),
    **{f"preset_dyadic.{name}": (lambda name=name: preset_dyadic(
        "x-state", **{**X_STATE_EXAMPLE, name: NAN})) for name in C_NAMES},
    "mode_params.r": lambda: mode_params(NAN),
    "r_from_acceleration.omega": lambda: r_from_acceleration(NAN, 1.0, 1.0),
    "r_from_acceleration.accel": lambda: r_from_acceleration(1.0, NAN, 1.0),
    "r_from_acceleration.c": lambda: r_from_acceleration(1.0, 1.0, NAN),
    "Axis.start": lambda: Axis("theta", NAN, 1.0, 3),
    "Axis.stop": lambda: Axis("theta", 0.0, NAN, 3),
    "SweepSpec.fixed": lambda: SweepSpec("theta", "normalized", "analytic", PHI_PLUS,
                                         1.0 + 0.0j, 0.0j, AXES, {"phi": NAN}),
    "fisher.fd_step": lambda: fisher(STATE, PHI_PLUS, WSMA, "theta", method="fd", fd_step=NAN),
    "bloch_partial.fd_step": lambda: bloch_partial(STATE, PHI_PLUS, WSMA, "theta",
                                                   method="fd", fd_step=NAN),
}


@pytest.mark.parametrize("call", NAN_CALLS.values(), ids=NAN_CALLS)
def test_nan_input_is_a_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_fisher_and_verify_attributes_are_the_functions():
    # The package re-exports both functions under their modules' names, so the
    # attribute, and even ``import unruh_teleport.verify as m``, give the function;
    # import_module gives the module.
    namespace = {}
    exec("import unruh_teleport.fisher as f, unruh_teleport.verify as v", namespace)
    for name in ("fisher", "verify"):
        module = importlib.import_module(f"unruh_teleport.{name}")
        function = getattr(unruh_teleport, name)
        assert inspect.ismodule(module) and inspect.isfunction(function)
        assert function is getattr(module, name) is namespace[name[0]]
