"""The public API as a whole: NaN and wrongly typed values refused at every numeric input,
other types refused where a value type or an array is due, and the package namespace."""

import importlib
import inspect
import math

import numpy as np
import pytest

import unruh_teleport
from unruh_teleport import (
    AcceleratedChannel,
    Axis,
    CorrelationDyadic,
    DomainError,
    InputState,
    SweepSpec,
    UnruhParams,
    accelerate,
    accelerated_density,
    bloch_of,
    bloch_partial,
    bloch_teleported,
    bogoliubov_isometry,
    bogoliubov_oracle,
    dyadic_to_density,
    emit,
    figure_spec,
    fisher,
    mode_params,
    preset_dyadic,
    r_from_acceleration,
    run_sweep,
    teleport_analytic,
    teleport_circuit_oracle,
    teleport_closed_form,
    validate_physical,
    verify,
)
from unruh_teleport.channels import X_STATE_EXAMPLE
from unruh_teleport.errors import check_integer

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


# Values of the wrong type, each of which would lie in range as a float; a bool is an
# int to Python, but no public number takes one.
WRONG_TYPES = {"str": "0.1", "complex": 0.1 + 0.0j, "None": None,
               "array": np.array([0.1, 0.1]), "bool": True}


def _accelerated(index, value):
    b = list(accelerate(PHI_PLUS, WSMA).as_tuple())
    b[index] = value
    return AcceleratedChannel(*b)


def _spec(fixed=None, qr=1.0 + 0.0j, ql=0.0j):
    return SweepSpec("theta", "normalized", "analytic", PHI_PLUS, qr, ql, AXES,
                     {"phi": 0.5} if fixed is None else fixed)


# One call per public numeric input, with that input ``x`` and every other one valid.
TYPED_CALLS = {
    "InputState.theta": lambda x: InputState(x, 0.5),
    "InputState.phi": lambda x: InputState(1.0, x),
    **{f"CorrelationDyadic.{name}": (lambda x, name=name: CorrelationDyadic(
        **{**dict(zip(C_NAMES, PHI_PLUS.as_tuple())), name: x})) for name in C_NAMES},
    "UnruhParams.r": lambda x: UnruhParams(x),
    "UnruhParams.qr": lambda x: UnruhParams(0.1, x, 0.0j),
    "UnruhParams.ql": lambda x: UnruhParams(0.1, 1.0 + 0.0j, x),
    **{f"AcceleratedChannel.b{i + 1}": (lambda x, i=i: _accelerated(i, x)) for i in range(8)},
    "preset_dyadic.fidelity": lambda x: preset_dyadic("werner", fidelity=x),
    **{f"preset_dyadic.{name}": (lambda x, name=name: preset_dyadic(
        "x-state", **{**X_STATE_EXAMPLE, name: x})) for name in C_NAMES},
    "mode_params.r": lambda x: mode_params(x),
    "r_from_acceleration.omega": lambda x: r_from_acceleration(x, 1.0, 1.0),
    "r_from_acceleration.accel": lambda x: r_from_acceleration(1.0, x, 1.0),
    "r_from_acceleration.c": lambda x: r_from_acceleration(1.0, 1.0, x),
    "Axis.start": lambda x: Axis("theta", x, 1.0, 3),
    "Axis.stop": lambda x: Axis("theta", 0.0, x, 3),
    "Axis.count": lambda x: Axis("theta", 0.0, 1.0, x),
    "SweepSpec.fixed": lambda x: _spec(fixed={"phi": x}),
    "SweepSpec.qr": lambda x: _spec(qr=x),
    "SweepSpec.ql": lambda x: _spec(qr=1.0 + 0.0j, ql=x),
    "fisher.fd_step": lambda x: fisher(STATE, PHI_PLUS, WSMA, "theta", method="fd", fd_step=x),
    "bloch_partial.fd_step": lambda x: bloch_partial(STATE, PHI_PLUS, WSMA, "theta",
                                                     method="fd", fd_step=x),
}
# The inputs that take complex numbers.
COMPLEX_INPUTS = {"UnruhParams.qr", "UnruhParams.ql", "SweepSpec.qr", "SweepSpec.ql",
                  *(f"AcceleratedChannel.b{i}" for i in range(1, 9))}


@pytest.mark.parametrize("call, value", [
    pytest.param(call, value, id=f"{name}-{kind}")
    for name, call in TYPED_CALLS.items() for kind, value in WRONG_TYPES.items()
    if not (kind == "complex" and name in COMPLEX_INPUTS)
])
def test_wrongly_typed_input_is_a_domain_error(call, value):
    with pytest.raises(DomainError):
        call(value)


def test_each_typed_call_takes_a_valid_value():
    # So that each refusal above is the wrong type's doing: the calls take a value of
    # the right type, ints and numpy scalars included, and store it as a float or complex.
    valid = {name: 1.0 + 0.0j if name in COMPLEX_INPUTS else 0.1 for name in TYPED_CALLS}
    valid.update({"UnruhParams.ql": 0.0j, "SweepSpec.ql": 0.0j, "Axis.count": 3})
    b = accelerate(PHI_PLUS, WSMA).as_tuple()
    valid.update({f"AcceleratedChannel.b{i + 1}": b[i] for i in range(8)})
    for name, call in TYPED_CALLS.items():
        call(valid[name])
    assert InputState(np.float32(1.5), np.int64(0)) == InputState(1.5, 0.0)
    assert type(InputState(1, 0).theta) is type(CorrelationDyadic(1, -1, 1).c11) is float
    u = UnruhParams(np.float64(0.1), 1, np.complex64(0))
    assert (type(u.r), type(u.qr), type(u.ql)) == (float, complex, complex)
    assert type(_spec(qr=1, ql=0).qr) is complex and _spec(fixed={"phi": 1}).fixed == (("phi", 1.0),)


def test_integers_too_large_for_a_float_are_refused():
    for call in (lambda: InputState(10**400, 0.5), lambda: UnruhParams(0.1, 10**400, 0.0j),
                 lambda: r_from_acceleration(1.0, 10**400, 1.0)):
        with pytest.raises(DomainError, match="too large for a float"):
            call()


@pytest.mark.parametrize("name", ["fisher", "bloch_teleported", "bloch_partial"])
@pytest.mark.parametrize("position", range(3))
def test_a_point_of_other_types_is_a_domain_error(name, position):
    point = [STATE, PHI_PLUS, WSMA]
    point[position] = None
    extra = () if name == "bloch_teleported" else ("theta",)
    with pytest.raises(DomainError, match="expected"):
        getattr(unruh_teleport, name)(*point, *extra)


CHANNEL = accelerate(PHI_PLUS, WSMA)
SPEC = _spec()
# Each public call that takes a value type: the call, valid arguments, and the positions
# of the value types among them.
VALUE_TYPE_CALLS = {
    "dyadic_to_density": (dyadic_to_density, [PHI_PLUS], [0]),
    "validate_physical": (validate_physical, [PHI_PLUS], [0]),
    "accelerate": (accelerate, [PHI_PLUS, WSMA], [0, 1]),
    "accelerated_density": (accelerated_density, [CHANNEL], [0]),
    "bogoliubov_isometry": (bogoliubov_isometry, [WSMA], [0]),
    "bogoliubov_oracle": (bogoliubov_oracle, [PHI_PLUS, WSMA], [0, 1]),
    "teleport_analytic": (teleport_analytic, [STATE, CHANNEL], [0, 1]),
    "teleport_closed_form": (teleport_closed_form, [STATE, PHI_PLUS, WSMA], [0, 1, 2]),
    "teleport_circuit_oracle": (teleport_circuit_oracle, [STATE, dyadic_to_density(PHI_PLUS)],
                                [0]),
    **{name: (getattr(unruh_teleport, name), [STATE, PHI_PLUS, WSMA, "theta"], [0, 1, 2])
       for name in ("fisher", "bloch_partial")},
    "bloch_teleported": (bloch_teleported, [STATE, PHI_PLUS, WSMA], [0, 1, 2]),
    "run_sweep": (run_sweep, [SPEC], [0]),
    "emit": (emit, [SPEC, run_sweep(SPEC), "csv"], [0]),
    "SweepSpec": (lambda d, *axes: SweepSpec("theta", "normalized", "analytic", d, 1.0 + 0.0j,
                                            0.0j, axes, {"phi": 0.5}),
                  [PHI_PLUS, *AXES], [0, 1, 2]),
}
VALUE_TYPE_INSTANCES = (STATE, PHI_PLUS, WSMA, CHANNEL, AXES[0], SPEC)


def _others(value):
    """None, a tuple of the value type's field values, and an instance of another value type."""
    other = next(x for x in VALUE_TYPE_INSTANCES if type(x) is not type(value))
    return {"None": None, "tuple": tuple(vars(value).values()), type(other).__name__: other}


@pytest.mark.parametrize("call, args, position, wrong", [
    pytest.param(call, args, i, wrong, id=f"{name}-{i}-{kind}")
    for name, (call, args, positions) in VALUE_TYPE_CALLS.items() for i in positions
    for kind, wrong in _others(args[i]).items()
])
def test_a_value_type_argument_of_another_type_is_a_domain_error(call, args, position, wrong):
    call(*args)
    args = [*args[:position], wrong, *args[position + 1:]]
    with pytest.raises(DomainError, match="expected"):
        call(*args)


# Arrays that are not 2x2 or 4x4 matrices of numbers, for a matrix of n x n.
BAD_MATRICES = {
    "shape": lambda n: np.eye(3),
    "ragged": lambda n: [[1.0] * n, [0.0]],
    "strings": lambda n: [["0"] * n] * n,
    "None": lambda n: None,
}
MATRIX_CALLS = {
    "bloch_of": (bloch_of, np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])),
    "teleport_circuit_oracle": (lambda m: teleport_circuit_oracle(STATE, m),
                                dyadic_to_density(PHI_PLUS)),
}


@pytest.mark.parametrize("name", MATRIX_CALLS)
def test_a_matrix_argument_is_a_nested_list_or_array_of_numbers(name):
    call, valid = MATRIX_CALLS[name]
    n = len(valid)
    for bad in BAD_MATRICES.values():
        with pytest.raises(DomainError, match=f"must be a {n}x{n} matrix of complex numbers"):
            call(bad(n))
    as_list, as_array = call(valid.tolist()), call(valid)
    if name == "teleport_circuit_oracle":
        as_list, as_array = as_list.rho, as_array.rho
    assert np.array_equal(as_list, as_array)


@pytest.mark.parametrize("call", [
    lambda: verify(10**5000),
    lambda: verify(-10**5000),
    lambda: check_integer("trials", 10**5000, 1, 10),
    lambda: figure_spec("1a", 10**5000),
    lambda: Axis("theta", 0.0, 1.0, 10**5000),
], ids=["verify", "verify-negative", "check_integer", "figure_spec", "Axis"])
def test_an_integer_past_the_string_limit_is_named_by_its_digit_count(call):
    # str() refuses an integer of more than 4,300 digits (Python's default limit).
    with pytest.raises(DomainError, match=r"must lie in \[.*\], got an integer of 5001 digits$"):
        call()


@pytest.mark.parametrize("value", WRONG_TYPES.values(), ids=WRONG_TYPES)
def test_a_figure_grid_of_another_type_is_a_domain_error(value):
    # The grid keys the cache of figure expansions, so it is checked before; an array
    # has no hash.
    with pytest.raises(DomainError, match="grid must be an integer"):
        figure_spec("1a", value)


def test_all_is_the_public_names_the_package_imports():
    # Every public name the package binds, modules aside, and nothing else; no list restated.
    namespace = {}
    exec("from unruh_teleport import *", namespace)
    public = {name for name, value in vars(unruh_teleport).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert unruh_teleport.__all__ == sorted(public)
    for name in unruh_teleport.__all__:
        assert not inspect.ismodule(namespace[name]) and not name.startswith("_")


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


# Each refusal of a real number out of range, with the range as written: the angles', r's, the
# fd step's (whose 0 is open) and omega's and c's, at each site that checks one. A range
# without a written form keeps its floats.
BOUND_REFUSALS = {
    "InputState.theta": (lambda: InputState(4.0, 0.5),
                         "theta must be a real number in [0, pi], got 4.0"),
    "InputState.phi": (lambda: InputState(1.0, 7),
                       "phi must be a real number in [0, 2pi], got 7"),
    "UnruhParams.r": (lambda: UnruhParams(1.0), "r must be a real number in [0, pi/4], got 1.0"),
    "fisher.fd_step": (lambda: fisher(STATE, PHI_PLUS, WSMA, "r", method="fd", fd_step=0.0),
                       "fd_step must be a real number in (0, pi/12], got 0.0"),
    "fisher.fd_step-high": (lambda: fisher(STATE, PHI_PLUS, WSMA, "r", method="fd", fd_step=0.3),
                            "fd_step must be a real number in (0, pi/12], got 0.3"),
    "r_from_acceleration.omega": (lambda: r_from_acceleration(0.0, 1.0, 1.0),
                                  "omega must be a real number in (0, inf], got 0.0"),
    "r_from_acceleration.c": (lambda: r_from_acceleration(1.0, 1.0, -1.0),
                              "c must be a real number in (0, inf], got -1.0"),
    "Axis.stop": (lambda: Axis("theta", 0.0, 4.0, 3),
                  "axis theta stop must be a real number in [0, pi], got 4.0"),
    "Axis.start": (lambda: Axis("r", -1.0, 0.5, 3),
                   "axis r start must be a real number in [0, pi/4], got -1.0"),
    "SweepSpec.fixed": (lambda: _spec(fixed={"phi": 9.0}),
                        "fixed phi must be a real number in [0, 2pi], got 9.0"),
    "CorrelationDyadic.c11": (lambda: CorrelationDyadic(2.0, 0.0, 0.0),
                              "c11 must be a real number in [-1.0, 1.0], got 2.0"),
    "r_from_acceleration.accel": (lambda: r_from_acceleration(1.0, -1.0, 1.0),
                                  "accel must be a real number in [0.0, inf], got -1.0"),
}


@pytest.mark.parametrize("call, message", BOUND_REFUSALS.values(), ids=BOUND_REFUSALS)
def test_a_refusal_writes_its_range_as_written(call, message):
    with pytest.raises(DomainError) as refusal:
        call()
    assert str(refusal.value) == message
