"""Parameter-grid sweeps, figure dataset presets and CSV/JSON emission.

A sweep stays in the Fisher kernel's columns from evaluation to the emitted
text, and a non-finite value in any column is refused before writing.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Mapping, NamedTuple

import numpy as np

from .channels import (
    PRESET_NAMES, X_STATE_EXAMPLE, CorrelationDyadic, preset_dyadic, require_physical
)
from .errors import DomainError, check_choice, check_integer
from .fisher import MAX_POINTS, PARAM_NAMES, VARIABLE_DOMAINS, _fisher, check_args
from .unruh import MODE_NAMES, MODE_WEIGHTS, UnruhParams

DEFAULT_GRID = 64
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
        # So is the figure id, which fixes all but the grid count, norm and method.
        if self.figure is not None:
            check_choice("figure preset", self.figure, FIGURE_IDS)
            figure = _figure_fields(self.figure, self.axes[0].count)
            if any(getattr(self, name) != value for name, value in figure.items()):
                raise DomainError(f"figure {self.figure} does not give this spec")

    @property
    def axis_names(self) -> tuple[str, ...]:
        return tuple(axis.name for axis in self.axes)


@dataclass(frozen=True, eq=False)
class SweepRows(Sequence[SweepRow]):
    """A sweep's rows as the kernel's read-only columns.

    ``points`` holds each axis's grid values, outer axis first; ``fisher`` and
    ``pure`` hold one entry per point of their product. Indexing and iteration
    yield ``SweepRow`` (a slice, a list of them), and the sequence equals the
    list of its rows.
    """

    points: tuple[tuple[float, ...], ...]
    fisher: np.ndarray
    pure: np.ndarray

    def __len__(self) -> int:
        return len(self.fisher)

    def __getitem__(self, index: Any) -> Any:
        flat = range(len(self))[index]
        if isinstance(flat, range):
            return [self[i] for i in flat]
        at = np.unravel_index(flat, [len(axis) for axis in self.points])
        coords = tuple(axis[i] for axis, i in zip(self.points, at))
        return SweepRow(coords, float(self.fisher[flat]), bool(self.pure[flat]))

    def __iter__(self) -> Iterator[SweepRow]:
        return map(SweepRow, itertools.product(*self.points), self.fisher.tolist(),
                   self.pure.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (list, SweepRows)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))


def run_sweep(spec: SweepSpec) -> SweepRows:
    """Evaluate the Fisher information on every grid point of the spec.

    Points iterate with the first axis outermost; the channel is rejected
    up front if its initial state is unphysical. The whole grid is one
    call of the broadcast Fisher kernel, whose columns come back as they are.
    """
    require_physical(spec.dyadic)
    points = [a.points() for a in spec.axes]
    coords = [g.ravel() for g in np.meshgrid(*points, indexing="ij")]
    point = {**vars(spec.dyadic), "qr": spec.qr, "ql": spec.ql, **dict(spec.fixed),
             **dict(zip(spec.axis_names, coords))}
    value, pure, _ = _fisher(point, spec.estimand, spec.norm, spec.method)
    value.flags.writeable = pure.flags.writeable = False
    return SweepRows(tuple(tuple(p.tolist()) for p in points), value, pure)


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


def _figure_fields(fig_id: str, grid: int) -> dict[str, Any]:
    """The SweepSpec fields that a figure id fixes, at ``grid`` points per axis,
    in the spec's normalized form: every field but the norm, method and id."""
    estimand, swept, fixed, channel_preset, unruh_mode = FIGURE_PRESETS[fig_id]
    qr, ql = MODE_WEIGHTS[unruh_mode]
    axes = tuple(Axis(name, *VARIABLE_DOMAINS[name], count=grid) for name in swept)
    return dict(estimand=estimand, dyadic=preset_dyadic(channel_preset, **X_STATE_EXAMPLE),
                qr=qr, ql=ql, axes=axes, fixed=tuple(fixed.items()),
                channel_preset=channel_preset, unruh_mode=unruh_mode)


def figure_spec(
    fig_id: str,
    grid: int = DEFAULT_GRID,
    norm: str = "as-published",
    method: str = "analytic",
) -> SweepSpec:
    """Expand a figure preset to a sweep over the full variable domains."""
    check_choice("figure preset", fig_id, FIGURE_IDS)
    return SweepSpec(norm=norm, method=method, figure=fig_id, **_figure_fields(fig_id, grid))


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
        return SweepSpec(
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


def _points_text(rows: Sequence[SweepRow], axis_fmts: list[str], off: str, on: str) -> str:
    """Per point its coordinates through ``axis_fmts``, then its Fisher value through
    ``off``, or ``on`` for a pure-branch point, as one template filled by one ``%``.

    Sweep columns format each axis value once and take the templates from the
    product of those strings; other rows format each point's coordinates.
    """
    # ``off`` rides on the last axis format, its ``%`` escaped to survive that format.
    fmts = [*axis_fmts[:-1], axis_fmts[-1] + off.replace("%", "%%")]
    if isinstance(rows, SweepRows):
        lines = [""]
        for fmt, points in zip(fmts, rows.points):
            texts = [fmt % x for x in points]
            lines = [line + text for line in lines for text in texts]
        fisher, pure, points = rows.fisher, rows.pure, rows.points
    else:
        fmt = "".join(fmts)
        points = [row.coords for row in rows]
        lines = [fmt % coords for coords in points]
        fisher = np.array([row.fisher for row in rows], dtype=float)
        pure = [bool(row.pure_branch) for row in rows]
    if not (np.isfinite(fisher).all() and all(map(math.isfinite, itertools.chain(*points)))):
        row = next(r for r in rows if not all(map(math.isfinite, (r.fisher, *r.coords))))
        value = next(x for x in (row.fisher, *row.coords) if not math.isfinite(x))
        kind = "Fisher value" if not math.isfinite(row.fisher) else "coordinate"
        raise DomainError(f"refusing to render the non-finite {kind} {value} at {row.coords}")
    for i in np.flatnonzero(pure).tolist():
        lines[i] = lines[i][: -len(off)] + on
    return "".join(lines) % tuple(fisher.tolist())


def rows_to_csv(spec: SweepSpec, rows: Sequence[SweepRow]) -> str:
    """CSV with floats at 17 significant digits, so parsing restores them bit-exactly."""
    header = ",".join([*spec.axis_names, "fisher", "pure_branch"])
    body = _points_text(rows, ["%.17g,"] * len(spec.axes), "%.17g,false\n", "%.17g,true\n")
    return header + "\n" + body


def rows_to_json(spec: SweepSpec, rows: Sequence[SweepRow]) -> str:
    """``json.dumps({"spec": ..., "rows": [...]}, indent=2)`` and a newline, byte for byte.

    Each row's keys and separators sit in its template, whose ``%s`` writes a
    float as ``float.__repr__``, as ``json`` does. A non-finite Fisher value or
    coordinate is refused, since JSON has no spelling for it.
    """
    head = json.dumps({"spec": spec_to_dict(spec), "rows": []}, indent=2)
    keys = [f"      {json.dumps(name)}: %s,\n" for name in spec.axis_names]
    value = '      "fisher": %s,\n      "pure_branch": '
    body = _points_text(rows, ["    {\n" + keys[0], *keys[1:]], value + "false\n    },\n",
                        value + "true\n    },\n")
    if not body:
        return head + "\n"
    # head ends with the empty list: '"rows": []' + "\n}"; body ends with "},\n".
    return head[: -len("]\n}")] + "\n" + body[: -len(",\n")] + "\n  ]\n}\n"


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


def render_rows(spec: SweepSpec, rows: Sequence[SweepRow], fmt: str) -> str:
    check_choice("output format", fmt, FORMATS)
    if fmt == "csv":
        return rows_to_csv(spec, rows)
    return rows_to_json(spec, rows)


def write_output(text: str, destination: str | Path | None) -> None:
    """Write ``text`` to ``destination`` (UTF-8), or to stdout if it is None."""
    if destination is None:
        sys.stdout.write(text)
    else:
        Path(destination).write_text(text, encoding="utf-8")


def emit(
    spec: SweepSpec, rows: Sequence[SweepRow], fmt: str, destination: str | Path | None = None
) -> None:
    """Write the rendered sweep through :func:`write_output`; an empty sweep is refused."""
    if not rows:
        raise DomainError("refusing to emit an empty sweep")
    write_output(render_rows(spec, rows, fmt), destination)
