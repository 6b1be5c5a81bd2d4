"""Command-line interface.

Subcommands: channel, teleport, fisher, sweep, figures, verify.
Exit codes: 0 success, 1 validation error, 2 verification failure,
3 input/output error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from .channels import (
    PRESET_NAMES,
    PRESET_PARAMS,
    CorrelationDyadic,
    dyadic_to_density,
    preset_dyadic,
    require_physical,
    validate_physical,
)
from .errors import ConsistencyError, DegenerateBranchError, DomainError
from .fisher import DEFAULT_FD_STEP, METHOD_NAMES, NORM_NAMES, PARAM_NAMES, fisher
from .sweep import (
    FIGURE_IDS,
    FIGURE_PRESETS,
    FORMATS,
    Axis,
    SweepSpec,
    channel_block,
    complex_pair,
    emit,
    figure_spec,
    run_sweep,
    spec_from_dict,
    unruh_block,
    write_output,
)
from .teleport import InputState, bloch_of, teleport_analytic
from .unruh import (
    MODE_NAMES,
    MODE_WEIGHTS,
    UnruhParams,
    accelerate,
    accelerated_density,
    r_from_acceleration,
)
from .verify import verify

REPORT_FORMATS = ("json", "text")

_ANGLE_RE = re.compile(
    r"^\s*(-?)(\d+(?:\.\d+)?)?\s*pi\s*(?:/\s*(\d+(?:\.\d+)?))?\s*$", re.IGNORECASE
)


def parse_angle(text: str) -> float:
    """Radians, given either as a decimal or as a fraction of pi.

    'pi/4', '3pi/2' and '2pi' evaluate exactly as the corresponding float
    expression rather than as a decimal approximation of the text.
    """
    match = _ANGLE_RE.match(text)
    if match:
        sign = -1.0 if match.group(1) else 1.0
        coefficient = float(match.group(2)) if match.group(2) else 1.0
        denominator = float(match.group(3)) if match.group(3) else 1.0
        if denominator == 0.0:
            raise DomainError(f"cannot parse angle {text!r}: zero denominator")
        return sign * coefficient * math.pi / denominator
    try:
        return float(text)
    except ValueError:
        raise DomainError(
            f"cannot parse angle {text!r}; use radians or fractions like pi/4, 3pi/2"
        ) from None


def parse_complex(text: str) -> complex:
    """Complex mode weight, written like '0.6+0.8i' (j also accepted)."""
    try:
        return complex(text.strip().replace("i", "j"))
    except ValueError:
        raise DomainError(
            f"cannot parse complex number {text!r}; use forms like 0.6+0.8i"
        ) from None


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; route them through the
    # validation-error path (exit 1) instead.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise DomainError(message)


def _add_channel_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("channel")
    group.add_argument("--preset", choices=PRESET_NAMES, help="named channel preset")
    group.add_argument("--fidelity", type=float, help="Werner fidelity parameter F in [0, 1]")
    group.add_argument("--c11", type=float, help="correlation coefficient c11 in [-1, 1]")
    group.add_argument("--c22", type=float, help="correlation coefficient c22 in [-1, 1]")
    group.add_argument("--c33", type=float, help="correlation coefficient c33 in [-1, 1]")


def _add_weight_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("mode weights")
    group.add_argument(
        "--mode", choices=MODE_NAMES, help="mode-weight preset (default wsma)"
    )
    group.add_argument("--qr", type=parse_complex, help="right-mode weight, e.g. 0.6+0.8i")
    group.add_argument("--ql", type=parse_complex, help="left-mode weight")


def _add_point_args(parser: argparse.ArgumentParser) -> None:
    """The channel, acceleration and mode-weight groups of a single-point command."""
    _add_channel_args(parser)
    group = parser.add_argument_group("acceleration")
    group.add_argument("--r", type=parse_angle, help="acceleration parameter in [0, pi/4]")
    group.add_argument("--omega", type=float, help="mode frequency (rad/s)")
    group.add_argument("--accel", type=float, help="proper acceleration (m/s^2)")
    group.add_argument("--c", type=float, help="speed of light (m/s)")
    _add_weight_args(parser)


def _given(args: argparse.Namespace, names: Iterable[str]) -> dict[str, Any]:
    """The flags among ``names`` given on the command line, in parser order."""
    return {k: v for k, v in vars(args).items() if k in names and v is not None}


def _refuse_unread(args: argparse.Namespace, names: Iterable[str], where: str) -> None:
    """Refuse the given flags among ``names``, which the command path ``where``
    describes never reads, in one message that names each of them."""
    unread = [f"--{name.replace('_', '-')}" for name in _given(args, names)]
    if unread:
        raise DomainError(f"{', '.join(unread)} not read {where}")


def _resolve_dyadic(args: argparse.Namespace) -> tuple[CorrelationDyadic, str | None]:
    has_explicit = any(v is not None for v in (args.c11, args.c22, args.c33))
    preset = args.preset or ("x-state" if has_explicit else None)
    if preset is None:
        raise DomainError("specify a channel with --preset or --c11/--c22/--c33")
    unread = set().union(*PRESET_PARAMS.values()) - set(PRESET_PARAMS[preset])
    _refuse_unread(args, unread, f"with --preset {preset}")
    dyadic = preset_dyadic(
        preset, fidelity=args.fidelity, c11=args.c11, c22=args.c22, c33=args.c33
    )
    return dyadic, preset


def _resolve_weights(args: argparse.Namespace) -> tuple[complex, complex, str | None]:
    if args.qr is None and args.ql is None:
        mode = args.mode or "wsma"
        return (*MODE_WEIGHTS[mode], mode)
    _refuse_unread(args, ("mode",), "with --qr/--ql")
    if args.qr is None or args.ql is None:
        raise DomainError("--qr and --ql must be given together")
    return args.qr, args.ql, None


def _resolve_unruh(
    args: argparse.Namespace, required: bool
) -> tuple[UnruhParams, dict[str, Any]] | None:
    """The acceleration and mode weights, with their ``unruh`` block; None if no
    acceleration is given and none is ``required``."""
    triple = (args.omega, args.accel, args.c)
    if args.r is not None:
        _refuse_unread(args, ("omega", "accel", "c"), "with --r")
        r = args.r
    elif all(v is not None for v in triple):
        r = r_from_acceleration(*triple)
    elif any(v is not None for v in triple):
        raise DomainError("--omega, --accel and --c must be given together")
    elif required:
        raise DomainError("specify the acceleration with --r or --omega/--accel/--c")
    else:
        _refuse_unread(args, ("mode", "qr", "ql"), "without --r or --omega/--accel/--c")
        return None
    qr, ql, mode = _resolve_weights(args)
    return UnruhParams(r, qr, ql), unruh_block(qr, ql, mode, r=r)


def _resolve_point(
    args: argparse.Namespace,
) -> tuple[InputState, CorrelationDyadic, UnruhParams, dict[str, Any]]:
    """The input state, physical channel and acceleration of ``teleport`` and ``fisher``,
    with the ``channel`` and ``unruh`` blocks of their reports."""
    dyadic, preset = _resolve_dyadic(args)
    require_physical(dyadic)
    u, unruh = _resolve_unruh(args, required=True)
    state = InputState(args.theta, args.phi)
    return state, dyadic, u, {"channel": channel_block(dyadic, preset), "unruh": unruh}


def _matrix_json(m: np.ndarray) -> list[list[list[float]]]:
    return [[complex_pair(complex(z)) for z in row] for row in m]


def _matrix_text(m: np.ndarray) -> str:
    lines = []
    for row in m:
        cells = [f"{z.real:+.10f}{z.imag:+.10f}i" for z in row]
        lines.append("  " + "  ".join(cells))
    return "\n".join(lines)


def _report(args: argparse.Namespace, payload: dict[str, Any], lines: list[str]) -> int:
    """Write the payload as JSON, or the text lines under ``--format text``."""
    text = "\n".join(lines) if args.format == "text" else json.dumps(payload, indent=2)
    write_output(text + "\n", args.out)
    return 0


def _cmd_channel(args: argparse.Namespace) -> int:
    dyadic, preset = _resolve_dyadic(args)
    check = validate_physical(dyadic)
    density = dyadic_to_density(dyadic)
    payload: dict[str, Any] = {
        "channel": channel_block(dyadic, preset),
        "physical": check.physical,
        "min_eigenvalue": check.min_eigenvalue,
        "density": _matrix_json(density),
    }
    lines = [
        f"channel: {payload['channel']}",
        f"physical: {check.physical} (min eigenvalue {check.min_eigenvalue:+.3e})",
        "density:",
        _matrix_text(density),
    ]
    resolved = _resolve_unruh(args, required=False)
    if resolved is not None:
        u, payload["unruh"] = resolved
        channel = accelerate(dyadic, u)
        accelerated = accelerated_density(channel)
        payload["coefficients"] = {name: complex_pair(b) for name, b in vars(channel).items()}
        payload["accelerated_density"] = _matrix_json(accelerated)
        lines += [f"unruh: {payload['unruh']}", "accelerated density:", _matrix_text(accelerated)]
    return _report(args, payload, lines)


def _cmd_teleport(args: argparse.Namespace) -> int:
    state, dyadic, u, blocks = _resolve_point(args)
    bob = teleport_analytic(state, accelerate(dyadic, u))
    bloch = bloch_of(bob.rho_normalized)
    payload = {
        "theta": state.theta,
        "phi": state.phi,
        **blocks,
        "outcome_prob": bob.outcome_prob,
        "rho": _matrix_json(bob.rho),
        "rho_normalized": _matrix_json(bob.rho_normalized),
        "bloch": {"sx": bloch[0], "sy": bloch[1], "sz": bloch[2]},
    }
    lines = [
        f"input: theta={state.theta:.10g} phi={state.phi:.10g}",
        f"channel: {blocks['channel']}",
        f"unruh: {blocks['unruh']}",
        f"outcome probability: {bob.outcome_prob:.12g}",
        "branch state (unnormalized):",
        _matrix_text(bob.rho),
        "branch state (normalized):",
        _matrix_text(bob.rho_normalized),
        f"bloch vector: ({bloch[0]:+.10f}, {bloch[1]:+.10f}, {bloch[2]:+.10f})",
    ]
    return _report(args, payload, lines)


def _cmd_fisher(args: argparse.Namespace) -> int:
    if args.method == "analytic":
        _refuse_unread(args, ("fd_step",), "with --method analytic")
    fd_step = DEFAULT_FD_STEP if args.fd_step is None else args.fd_step
    state, dyadic, u, blocks = _resolve_point(args)
    result = fisher(
        state, dyadic, u, args.param, mode=args.norm, method=args.method, fd_step=fd_step
    )
    payload = {
        "param": args.param,
        "norm": args.norm,
        "method": args.method,
        "fd_step": fd_step if args.method == "fd" else None,
        "value": result.value,
        "pure_branch": result.pure_branch,
        "clamped": result.clamped,
        "point": {"theta": state.theta, "phi": state.phi, "r": u.r},
        **blocks,
    }
    return _report(args, payload, [])


def _parse_axis_specs(specs: list[str]) -> tuple[Axis, ...]:
    axes = []
    for chunk in specs:
        for text in chunk.split(","):
            text = text.strip()
            if not text:
                continue
            try:
                name, rest = text.split("=", 1)
                start_s, stop_s, count_s = rest.split(":")
                count = int(count_s)
            except ValueError:
                raise DomainError(
                    f"bad axis spec {text!r}; expected name=start:stop:count"
                ) from None
            axes.append(Axis(name.strip(), parse_angle(start_s), parse_angle(stop_s), count))
    return tuple(axes)


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.spec is not None:
        # The spec file fixes every flag but where and how the rows are written.
        flags = vars(args).keys() - {"command", "handler", "spec", "format", "out"}
        _refuse_unread(args, flags, "with --spec")
        try:
            payload = json.loads(Path(args.spec).read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DomainError(f"invalid JSON in {args.spec}: {exc}") from exc
        spec = spec_from_dict(payload)
    else:
        if args.param is None:
            raise DomainError("--param is required unless --spec is given")
        if not args.grid:
            raise DomainError("at least one --grid axis is required unless --spec is given")
        axes = _parse_axis_specs(args.grid)
        dyadic, preset = _resolve_dyadic(args)
        qr, ql, mode = _resolve_weights(args)
        # A value given for a swept variable fails the partition check of SweepSpec.
        fixed = {k: getattr(args, k) for k in PARAM_NAMES if getattr(args, k) is not None}
        spec = SweepSpec(
            estimand=args.param,
            norm=args.norm or "normalized",
            method=args.method or "analytic",
            dyadic=dyadic,
            qr=qr,
            ql=ql,
            axes=axes,
            fixed=fixed,
            channel_preset=preset,
            unruh_mode=mode,
        )
    emit(spec, run_sweep(spec), args.format, args.out)
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    if args.list:
        _refuse_unread(args, ("id", "grid", "norm", "method", "format"), "with --list")
        lines = []
        for fig_id in FIGURE_IDS:
            estimand, swept, fixed, channel, mode = FIGURE_PRESETS[fig_id]
            fixed_text = ", ".join(f"{k}={v:.6g}" for k, v in fixed.items())
            lines.append(
                f"{fig_id}: F_{estimand}({', '.join(swept)}) at {fixed_text}, "
                f"{channel}, {mode}\n"
            )
        write_output("".join(lines), args.out)
        return 0
    if args.id is None:
        raise DomainError("--id is required (or use --list)")
    spec = figure_spec(args.id, **_given(args, ("grid", "norm", "method")))
    emit(spec, run_sweep(spec), args.format or "csv", args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify(**_given(args, ("trials", "seed")))
    write_output(report.render(), None)
    return 0 if report.passed else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="unruh-teleport",
        description=(
            "Teleport a single-qubit state through a uniformly accelerated "
            "two-qubit channel and estimate the teleported and gained "
            "parameters via Fisher information."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_channel = sub.add_parser("channel", help="inspect an initial or accelerated channel")
    _add_point_args(p_channel)
    p_channel.add_argument("--format", choices=REPORT_FORMATS, default="text")
    p_channel.add_argument("--out", help="write to a file instead of stdout")
    p_channel.set_defaults(handler=_cmd_channel)

    p_teleport = sub.add_parser("teleport", help="teleport a state and print the branch result")
    p_teleport.add_argument("--theta", type=parse_angle, required=True)
    p_teleport.add_argument("--phi", type=parse_angle, required=True)
    _add_point_args(p_teleport)
    p_teleport.add_argument("--format", choices=REPORT_FORMATS, default="text")
    p_teleport.add_argument("--out", help="write to a file instead of stdout")
    p_teleport.set_defaults(handler=_cmd_teleport)

    p_fisher = sub.add_parser("fisher", help="Fisher information at a single point")
    p_fisher.add_argument("--param", choices=PARAM_NAMES, required=True)
    p_fisher.add_argument("--norm", choices=NORM_NAMES, default="normalized")
    p_fisher.add_argument("--method", choices=METHOD_NAMES, default="analytic")
    p_fisher.add_argument("--fd-step", type=float)
    p_fisher.add_argument("--theta", type=parse_angle, required=True)
    p_fisher.add_argument("--phi", type=parse_angle, required=True)
    _add_point_args(p_fisher)
    p_fisher.add_argument("--out", help="write to a file instead of stdout")
    p_fisher.set_defaults(handler=_cmd_fisher, format="json")

    p_sweep = sub.add_parser("sweep", help="evaluate Fisher information on a grid")
    p_sweep.add_argument("--param", choices=PARAM_NAMES)
    p_sweep.add_argument("--norm", choices=NORM_NAMES)
    p_sweep.add_argument("--method", choices=METHOD_NAMES)
    p_sweep.add_argument(
        "--grid",
        action="append",
        metavar="NAME=START:STOP:COUNT",
        help="swept axis, e.g. theta=0:pi:64 (repeatable, or comma separated)",
    )
    for name in PARAM_NAMES:
        p_sweep.add_argument(f"--{name}", type=parse_angle, help="fixed value when not swept")
    _add_channel_args(p_sweep)
    _add_weight_args(p_sweep)
    p_sweep.add_argument("--spec", help="load the sweep spec from a JSON file")
    p_sweep.add_argument("--format", choices=FORMATS, default="csv")
    p_sweep.add_argument("--out", help="write to a file instead of stdout")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_figures = sub.add_parser("figures", help="emit a named figure dataset preset")
    p_figures.add_argument("--id", choices=FIGURE_IDS)
    p_figures.add_argument("--list", action="store_true", help="list the preset table")
    p_figures.add_argument("--grid", type=int, help="points per axis")
    p_figures.add_argument("--norm", choices=NORM_NAMES)
    p_figures.add_argument("--method", choices=METHOD_NAMES)
    p_figures.add_argument("--format", choices=FORMATS)
    p_figures.add_argument("--out", help="write to a file instead of stdout")
    p_figures.set_defaults(handler=_cmd_figures)

    p_verify = sub.add_parser("verify", help="run every oracle cross-check")
    p_verify.add_argument("--trials", type=int)
    p_verify.add_argument("--seed", type=int)
    p_verify.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except (DomainError, DegenerateBranchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
