"""Parameter-grid sweeps, figure dataset presets and CSV/JSON emission."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, NamedTuple

import numpy as np

from .channels import (
    PRESET_NAMES, X_STATE_EXAMPLE, CorrelationDyadic, preset_dyadic, require_physical
)
from .errors import DomainError, check_choice, check_integer
from .fisher import PARAM_NAMES, _fisher, check_args
from .unruh import MODE_NAMES, MODE_WEIGHTS, R_MAX, UnruhParams

VARIABLE_DOMAINS: dict[str, tuple[float, float]] = {
    "theta": (0.0, math.pi),
    "phi": (0.0, 2.0 * math.pi),
    "r": (0.0, R_MAX),
}

DEFAULT_GRID = 64
# Largest number of grid points one sweep may ask for (1024 x 1024).
MAX_POINTS = 2**20
FORMATS = ("csv", "json")


@dataclass(frozen=True)
class Axis:
    """One swept variable with an inclusive, evenly spaced grid."""

    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self) -> None:
        check_choice("sweep variable", self.name, PARAM_NAMES)
        check_integer(f"axis {self.name} count", self.count)
        if self.count < 2:
            raise DomainError(f"axis {self.name} needs count >= 2, got {self.count}")
        lo, hi = VARIABLE_DOMAINS[self.name]
        if not (lo <= self.start < self.stop <= hi):
            raise DomainError(
                f"axis {self.name} range [{self.start}, {self.stop}] must be increasing "
                f"and lie inside [{lo}, {hi}]"
            )

    def points(self) -> np.ndarray:
        # linspace places interior points at start + i*(stop-start)/(count-1)
        # and pins both endpoints exactly.
        return np.linspace(self.start, self.stop, self.count)


class SweepRow(NamedTuple):
    coords: tuple[float, ...]
    fisher: float
    pure_branch: bool


@dataclass(frozen=True)
class SweepSpec:
    """A fully resolved sweep: estimand, channel, mode weights, grid."""

    estimand: str
    norm: str
    method: str
    dyadic: CorrelationDyadic
    qr: complex
    ql: complex
    axes: tuple[Axis, ...]
    fixed: tuple[tuple[str, float], ...]
    channel_preset: str | None = None
    unruh_mode: str | None = None
    figure: str | None = None

    def __post_init__(self) -> None:
        check_args(self.estimand, self.norm, self.method)
        if isinstance(self.fixed, Mapping):
            for name in self.fixed:
                check_choice("fixed variable", name, PARAM_NAMES)
            object.__setattr__(
                self,
                "fixed",
                tuple((name, float(self.fixed[name])) for name in PARAM_NAMES if name in self.fixed),
            )
        object.__setattr__(self, "axes", tuple(self.axes))
        if not 1 <= len(self.axes) <= 2:
            raise DomainError(f"a sweep takes 1 or 2 axes, got {len(self.axes)}")
        points = math.prod(axis.count for axis in self.axes)
        if points > MAX_POINTS:
            raise DomainError(f"sweep of {points} points exceeds the limit of {MAX_POINTS}")
        swept = [axis.name for axis in self.axes]
        fixed_names = [name for name, _ in self.fixed]
        if sorted(swept + fixed_names) != sorted(PARAM_NAMES):
            raise DomainError(
                f"swept {swept} and fixed {fixed_names} must partition {PARAM_NAMES}"
            )
        for name, value in self.fixed:
            lo, hi = VARIABLE_DOMAINS[name]
            if not lo <= value <= hi:
                raise DomainError(f"fixed {name} = {value} outside [{lo}, {hi}]")
        # Mode-weight normalization is enforced by UnruhParams construction.
        UnruhParams(0.0, self.qr, self.ql)
        # The preset and mode names are echoed in the JSON spec, so each must
        # give this spec's numbers. werner is (-F, -F, -F) with F in [0, 1].
        if self.channel_preset is not None:
            check_choice("channel preset", self.channel_preset, PRESET_NAMES)
            d = self.dyadic
            if preset_dyadic(self.channel_preset, fidelity=max(-d.c11, 0.0), **vars(d)) != d:
                raise DomainError(
                    f"channel preset {self.channel_preset} does not give {d.as_tuple()}"
                )
        if self.unruh_mode is not None:
            check_choice("mode preset", self.unruh_mode, MODE_NAMES)
            if MODE_WEIGHTS[self.unruh_mode] != (self.qr, self.ql):
                raise DomainError(
                    f"mode preset {self.unruh_mode} does not give qr={self.qr}, ql={self.ql}"
                )

    @property
    def axis_names(self) -> tuple[str, ...]:
        return tuple(axis.name for axis in self.axes)


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate the Fisher information on every grid point of the spec.

    Points iterate with the first axis outermost; the channel is rejected
    up front if its initial state is unphysical. The whole grid is one
    call of the broadcast Fisher kernel.
    """
    require_physical(spec.dyadic)
    coords = [g.ravel() for g in np.meshgrid(*(a.points() for a in spec.axes), indexing="ij")]
    point = {**vars(spec.dyadic), "qr": spec.qr, "ql": spec.ql, **dict(spec.fixed),
             **dict(zip(spec.axis_names, coords))}
    value, pure, _ = _fisher(point, spec.estimand, spec.norm, spec.method)
    return list(map(SweepRow, zip(*(g.tolist() for g in coords)), value.tolist(), pure.tolist()))


# Named dataset presets with panel-style ids, covering the standard
# two-variable sweeps of this model. Panels that are contour re-renderings
# of a sibling share its data and are not listed separately. Each entry:
# estimand, swept variables (outer first), fixed values, channel preset,
# mode-weight preset.
FIGURE_PRESETS: dict[str, tuple[str, tuple[str, ...], dict[str, float], str, str]] = {
    "1a": ("theta", ("theta", "r"), {"phi": math.pi / 4}, "bell-phi-plus", "wsma"),
    "1b": ("theta", ("theta", "r"), {"phi": math.pi / 4}, "bell-phi-plus", "bsma"),
    "2a": ("theta", ("theta", "phi"), {"r": math.pi / 8}, "bell-phi-plus", "wsma"),
    "2c": ("theta", ("theta", "phi"), {"r": math.pi / 8}, "bell-phi-plus", "bsma"),
    "3a": ("theta", ("theta", "phi"), {"r": math.pi / 8}, "bell-psi-minus", "bsma"),
    "3c": ("theta", ("theta", "phi"), {"r": math.pi / 8}, "x-state", "wsma"),
    "4a": ("phi", ("phi", "r"), {"theta": math.pi / 4}, "bell-phi-plus", "wsma"),
    "4b": ("phi", ("phi", "r"), {"theta": math.pi / 4}, "bell-phi-plus", "bsma"),
    "4c": ("phi", ("phi", "theta"), {"r": math.pi / 8}, "bell-phi-plus", "wsma"),
    "4d": ("phi", ("phi", "theta"), {"r": math.pi / 8}, "bell-phi-plus", "bsma"),
    "5a": ("phi", ("theta", "phi"), {"r": math.pi / 8}, "bell-psi-minus", "bsma"),
    "5c": ("phi", ("theta", "phi"), {"r": math.pi / 8}, "x-state", "wsma"),
    "6a": ("r", ("theta", "r"), {"phi": math.pi / 4}, "bell-phi-plus", "wsma"),
    "6b": ("r", ("theta", "r"), {"phi": math.pi / 4}, "bell-phi-plus", "bsma"),
    "6c": ("r", ("phi", "r"), {"theta": math.pi / 4}, "bell-phi-plus", "wsma"),
    "6d": ("r", ("phi", "r"), {"theta": math.pi / 4}, "bell-phi-plus", "bsma"),
}

FIGURE_IDS = tuple(FIGURE_PRESETS)


def figure_spec(
    fig_id: str,
    grid: int = DEFAULT_GRID,
    norm: str = "as-published",
    method: str = "analytic",
) -> SweepSpec:
    """Expand a figure preset to a sweep over the full variable domains."""
    check_choice("figure preset", fig_id, FIGURE_IDS)
    estimand, swept, fixed, channel_preset, unruh_mode = FIGURE_PRESETS[fig_id]
    qr, ql = MODE_WEIGHTS[unruh_mode]
    axes = tuple(Axis(name, *VARIABLE_DOMAINS[name], count=grid) for name in swept)
    return SweepSpec(
        estimand=estimand,
        norm=norm,
        method=method,
        dyadic=preset_dyadic(channel_preset, **X_STATE_EXAMPLE),
        qr=qr,
        ql=ql,
        axes=axes,
        fixed=dict(fixed),
        channel_preset=channel_preset,
        unruh_mode=unruh_mode,
        figure=fig_id,
    )


def complex_pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def channel_block(d: CorrelationDyadic, preset: str | None) -> dict[str, Any]:
    """The ``channel`` object of the JSON outputs: optional preset, then c11..c33."""
    block: dict[str, Any] = {} if preset is None else {"preset": preset}
    block.update(c11=d.c11, c22=d.c22, c33=d.c33)
    return block


def unruh_block(
    qr: complex, ql: complex, mode: str | None, r: float | None = None
) -> dict[str, Any]:
    """The ``unruh`` object of the JSON outputs: optional r and mode, then the weights."""
    block: dict[str, Any] = {} if r is None else {"r": r}
    if mode is not None:
        block["mode"] = mode
    block.update(qr=complex_pair(qr), ql=complex_pair(ql))
    return block


def spec_to_dict(spec: SweepSpec) -> dict[str, Any]:
    payload: dict[str, Any] = {
        "estimand": spec.estimand,
        "norm": spec.norm,
        "method": spec.method,
        "channel": channel_block(spec.dyadic, spec.channel_preset),
        "unruh": unruh_block(spec.qr, spec.ql, spec.unruh_mode),
        "axes": [
            {"name": a.name, "start": a.start, "stop": a.stop, "count": a.count}
            for a in spec.axes
        ],
        "fixed": dict(spec.fixed),
    }
    if spec.figure is not None:
        payload["figure"] = spec.figure
    return payload


def spec_from_dict(payload: Mapping[str, Any]) -> SweepSpec:
    try:
        channel = payload["channel"]
        unruh = payload["unruh"]
        dyadic = CorrelationDyadic(
            float(channel["c11"]), float(channel["c22"]), float(channel["c33"])
        )
        weights = [unruh["qr"], unruh["ql"]]
        if not all(isinstance(w, list) and len(w) == 2 for w in weights):
            raise DomainError(f"unruh qr and ql must be [re, im] lists, got {weights}")
        qr, ql = (complex(*w) for w in weights)
        axes = tuple(
            Axis(a["name"], float(a["start"]), float(a["stop"]), a["count"])
            for a in payload["axes"]
        )
        spec = SweepSpec(
            estimand=payload["estimand"],
            norm=payload["norm"],
            method=payload["method"],
            dyadic=dyadic,
            qr=qr,
            ql=ql,
            axes=axes,
            fixed={str(k): float(v) for k, v in payload.get("fixed", {}).items()},
            channel_preset=channel.get("preset"),
            unruh_mode=unruh.get("mode"),
            figure=payload.get("figure"),
        )
    except DomainError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed sweep spec: {exc}") from exc
    # The figure id is echoed in the JSON spec, so it must give this spec. It is
    # checked here: SweepSpec cannot call figure_spec, which builds a SweepSpec.
    if spec.figure is not None:
        check_choice("figure preset", spec.figure, FIGURE_IDS)
        # A figure sweeps two axes of one count, so its spec stays within MAX_POINTS.
        grid = spec.axes[0].count
        square = [axis.count for axis in spec.axes] == [grid, grid]
        if not (square and figure_spec(spec.figure, grid, spec.norm, spec.method) == spec):
            raise DomainError(f"figure {spec.figure} does not give this spec")
    return spec


def _cells(rows: list[SweepRow]) -> tuple[Any, ...]:
    """Every cell of the rows in emission order; the flag is its text ``true``/``false``."""
    return tuple([x for c, f, b in rows for x in (*c, f, "true" if b else "false")])


def rows_to_csv(spec: SweepSpec, rows: list[SweepRow]) -> str:
    """CSV with floats at 17 significant digits, so parsing restores them bit-exactly."""
    header = ",".join([*spec.axis_names, "fisher", "pure_branch"])
    line = "%.17g," * (len(spec.axes) + 1) + "%s"
    return "\n".join([header, *[line] * len(rows)]) % _cells(rows) + "\n"


def rows_to_json(spec: SweepSpec, rows: list[SweepRow]) -> str:
    """``json.dumps({"spec": ..., "rows": [...]}, indent=2)``, the rows as one template.

    Its ``%s`` writes a float as ``str``, the ``float.__repr__`` that ``json`` writes;
    Fisher values are finite, so ``json``'s ``NaN`` spelling never arises.
    """
    head = json.dumps({"spec": spec_to_dict(spec), "rows": []}, indent=2)
    if not rows:
        return head + "\n"
    names = [*spec.axis_names, "fisher", "pure_branch"]
    item = "    {\n" + ",\n".join(f"      {json.dumps(n)}: %s" for n in names) + "\n    }"
    body = ",\n".join([item] * len(rows)) % _cells(rows)
    # head ends with the empty list: '"rows": []' + "\n}".
    return head[: -len("]\n}")] + "\n" + body + "\n  ]\n}\n"


def parse_csv_rows(text: str) -> list[SweepRow]:
    lines = text.strip("\n").split("\n")
    columns = lines[0].split(",")
    coord_count = len(columns) - 2
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        rows.append(
            SweepRow(
                coords=tuple(float(c) for c in cells[:coord_count]),
                fisher=float(cells[coord_count]),
                pure_branch=cells[coord_count + 1] == "true",
            )
        )
    return rows


def parse_json_rows(text: str) -> list[SweepRow]:
    payload = json.loads(text)
    names = [axis["name"] for axis in payload["spec"]["axes"]]
    return [
        SweepRow(
            coords=tuple(float(entry[name]) for name in names),
            fisher=float(entry["fisher"]),
            pure_branch=bool(entry["pure_branch"]),
        )
        for entry in payload["rows"]
    ]


def render_rows(spec: SweepSpec, rows: list[SweepRow], fmt: str) -> str:
    check_choice("output format", fmt, FORMATS)
    if fmt == "csv":
        return rows_to_csv(spec, rows)
    return rows_to_json(spec, rows)


def emit(spec: SweepSpec, rows: list[SweepRow], fmt: str, destination: str | Path) -> None:
    """Write the rendered sweep to ``destination`` (UTF-8, trailing newline)."""
    if not rows:
        raise DomainError("refusing to emit an empty sweep")
    text = render_rows(spec, rows, fmt)
    Path(destination).write_text(text, encoding="utf-8")
