"""Parameter-grid sweeps, figure dataset presets and CSV/JSON emission.

A sweep stays in the Fisher kernel's columns (``SweepRows``) from evaluation to the
emitted bytes, cut by one rule (``_blocks``) into kernel blocks and rendered pieces; a
non-finite value is refused before writing.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass
from functools import lru_cache, partial
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

import numpy as np

from .channels import (
    PRESET_NAMES, X_STATE_EXAMPLE, CorrelationDyadic, preset_dyadic, require_physical
)
from .errors import (
    DomainError, check_array, check_choice, check_container, check_fields, check_integer, check_real
)
from .fisher import MAX_POINTS, PARAM_NAMES, VARIABLE_DOMAINS, _finite, _fisher, check_args
from .unruh import MODE_NAMES, MODE_WEIGHTS, UnruhParams

DEFAULT_GRID = 64
FORMATS = ("csv", "json")
# Most points per kernel call of a sweep: grids up to 256 x 256 are one call.
KERNEL_BLOCK = 1 << 16


@dataclass(frozen=True)
class Axis:
    """One swept variable with an inclusive, evenly spaced grid; stores a float
    start and stop and an int count."""

    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self) -> None:
        check_choice("sweep variable", self.name, PARAM_NAMES)
        check_integer(f"axis {self.name} count", self.count, 2, MAX_POINTS)
        domain = VARIABLE_DOMAINS[self.name]
        for end, value in (("start", self.start), ("stop", self.stop)):
            object.__setattr__(self, end, check_real(f"axis {self.name} {end}", value, *domain))
        if not self.start < self.stop:
            raise DomainError(f"axis {self.name} range [{self.start}, {self.stop}] must increase")
        object.__setattr__(self, "count", int(self.count))

    def points(self) -> np.ndarray:
        # linspace places interior points at start + i*(stop-start)/(count-1)
        # and pins both endpoints exactly.
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class SweepSpec:
    """A fully resolved sweep: estimand, channel, mode weights, grid. ``fixed`` may be
    given as a mapping or as (name, value) pairs; it is stored as float pairs in
    ``PARAM_NAMES`` order."""

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
        pairs = tuple(self.fixed) if isinstance(self.fixed, Iterator) else self.fixed
        fixed = check_container("fixed must be a mapping or (name, value) pairs", pairs, dict)
        if len(fixed) != len(pairs):  # an iterator's pairs, kept as a tuple: dict() used it up
            raise DomainError(f"fixed variables {pairs} repeat a name")
        for name in fixed:
            check_choice("fixed variable", name, PARAM_NAMES)
        object.__setattr__(self, "fixed", tuple(
            (name, check_real(f"fixed {name}", fixed[name], *VARIABLE_DOMAINS[name]))
            for name in PARAM_NAMES if name in fixed))
        object.__setattr__(self, "axes", check_container("axes must be a sequence", self.axes, tuple))
        if not 1 <= len(self.axes) <= 2:
            raise DomainError(f"a sweep takes 1 or 2 axes, got {len(self.axes)}")
        points = math.prod(check_fields(Axis, axis)["count"] for axis in self.axes)
        if points > MAX_POINTS:
            raise DomainError(f"sweep of {points} points exceeds the limit of {MAX_POINTS}")
        swept = [axis.name for axis in self.axes]
        fixed_names = [name for name, _ in self.fixed]
        if sorted(swept + fixed_names) != sorted(PARAM_NAMES):
            raise DomainError(
                f"swept {swept} and fixed {fixed_names} must partition {PARAM_NAMES}"
            )
        # The weights are checked, and stored as complex, by UnruhParams.
        weights = UnruhParams(0.0, self.qr, self.ql)
        object.__setattr__(self, "qr", weights.qr)
        object.__setattr__(self, "ql", weights.ql)
        # The preset and mode names are echoed in the JSON spec, so each must
        # give this spec's numbers. werner is (-F, -F, -F) with F in [0, 1].
        d = check_fields(CorrelationDyadic, self.dyadic)
        if self.channel_preset is not None:
            check_choice("channel preset", self.channel_preset, PRESET_NAMES)
            if preset_dyadic(self.channel_preset, fidelity=max(-d["c11"], 0.0), **d) != self.dyadic:
                raise DomainError(
                    f"channel preset {self.channel_preset} does not give {self.dyadic.as_tuple()}"
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
class SweepRows:
    """A sweep as the kernel's read-only columns.

    ``points`` holds each axis's grid values, outer axis first, and ``fisher`` and ``pure`` one
    entry per point of their product, outer axis slowest: read-only 1-d float64 arrays, and
    bool for ``pure``, each made from a column of real numbers (a view where its dtype fits).
    The rows are ``zip(itertools.product(*points), fisher, pure)``.
    """

    points: tuple[np.ndarray, ...]
    fisher: np.ndarray
    pure: np.ndarray

    def __post_init__(self) -> None:
        points = check_container("sweep points must be a sequence of axes", self.points, tuple)
        columns = [check_array("sweep columns must be 1-d arrays", column, (None,))
                   for column in (self.fisher, self.pure, *points)]
        dtypes = [np.float64, np.bool_] + [np.float64] * len(points)
        views = [c.astype(t, copy=False).view() for c, t in zip(columns, dtypes)]
        for view in views:
            view.flags.writeable = False
        for name, value in zip(("fisher", "pure", "points"), (*views[:2], tuple(views[2:]))):
            object.__setattr__(self, name, value)
        shape = [len(axis) for axis in self.points]
        if not len(self.fisher) == len(self.pure) == math.prod(shape):
            raise DomainError(f"sweep columns of {len(self.fisher)} Fisher values and "
                              f"{len(self.pure)} pure flags do not fit axes of {shape} points")


def _blocks(rows: int, columns: int, size: int) -> Iterator[tuple[slice, slice]]:
    """Row-major blocks of at most ``size`` points: runs of whole rows, or slices of a long row."""
    height, width = max(size // columns, 1), min(size, columns)
    for row, column in itertools.product(range(0, rows, height), range(0, columns, width)):
        yield slice(row, row + height), slice(column, column + width)


def run_sweep(spec: SweepSpec) -> SweepRows:
    """Evaluate the Fisher information on every grid point of the spec.

    Points iterate with the first axis outermost; the channel is rejected
    up front if its initial state is unphysical. The kernel runs on one column per
    axis (the open mesh), one ``_blocks`` block of at most ``KERNEL_BLOCK`` points at a time,
    so its temporaries do not grow with the grid; a one-axis sweep is one row.
    """
    require_physical(check_fields(SweepSpec, spec)["dyadic"])
    points = [a.points() for a in spec.axes]
    shape = (1, *map(len, points))[-2:]
    value, pure = np.empty(shape), np.empty(shape, bool)
    fixed = {**vars(spec.dyadic), "qr": spec.qr, "ql": spec.ql, **dict(spec.fixed)}
    for cut in _blocks(*shape, KERNEL_BLOCK):
        mesh = dict(zip(spec.axis_names, np.ix_(*(a[c] for a, c in zip(points, cut[-len(points):])))))
        value[cut], pure[cut] = _fisher({**fixed, **mesh}, spec.estimand, spec.norm, spec.method)
    return SweepRows(points, _finite(value).ravel(), pure.ravel())


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


@lru_cache(maxsize=len(FIGURE_IDS))
def _figure_fields(fig_id: str, grid: int) -> dict[str, Any]:
    """The SweepSpec fields that a figure id fixes, at ``grid`` points per axis,
    in the spec's normalized form: every field but the norm, method and id. Cached (callers
    only read it), so that ``figure_spec`` and the spec's check of its figure expand it once."""
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
    check_integer("grid", grid, 2, MAX_POINTS)  # before it keys the cache
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
        dyadic = CorrelationDyadic(*(channel[k] for k in ("c11", "c22", "c33")))
        weights = [unruh["qr"], unruh["ql"]]
        if not all(isinstance(w, list) and len(w) == 2 for w in weights):
            raise DomainError(f"unruh qr and ql must be [re, im] lists, got {weights}")
        qr, ql = (complex(*(check_real("unruh weight part", x) for x in w)) for w in weights)
        axes = tuple(Axis(a["name"], a["start"], a["stop"], a["count"]) for a in payload["axes"])
        spec = SweepSpec(
            estimand=payload["estimand"],
            norm=payload["norm"],
            method=payload["method"],
            dyadic=dyadic,
            qr=qr,
            ql=ql,
            axes=axes,
            fixed={str(k): v for k, v in payload.get("fixed", {}).items()},
            channel_preset=channel.get("preset"),
            unruh_mode=unruh.get("mode"),
            figure=payload.get("figure"),
        )
        # Each key must be one that spec_to_dict writes for this spec.
        written = spec_to_dict(spec)
        pairs = [(payload, written), (channel, written["channel"]), (unruh, written["unruh"]),
                 *zip(payload["axes"], written["axes"])]
        unknown = [key for given, known in pairs for key in given if key not in known]
        if unknown:
            raise DomainError(f"unknown spec keys: {', '.join(unknown)}")
        return spec
    except DomainError:
        raise
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed sweep spec: {exc}") from exc


# The 10,000 four-digit strings, each as the uint32 that holds its bytes.
_DIGITS4 = (np.indices((10,) * 4, np.uint8).reshape(4, -1) + 48).T.copy().view(np.uint32).ravel()
# The doubles nearest 10**-4..10**20, none below its power: x >= 10**m iff x >= _DECADES[m + 4].
_DECADES = np.array([float(f"1e{m}") for m in range(-4, 21)])


def _layout(integral_tail: int) -> np.ndarray:
    """Row ``(e + 4) * 17 + t``: for a value of decimal exponent e in -4..16 and t
    trailing zero digits, the source of each of its 22 bytes among "000", the 17
    digits, the point and a NUL (bytes 0-2, 3-19, 20 and 21). An integral value ends with
    ``integral_tail`` bytes from its point: none for %g, ".0" for repr (e <= 15 there)."""
    j, e, t = np.arange(22), np.arange(-4, 17)[:, None, None], np.arange(17)[:, None]
    point = np.maximum(e + 1, 1)
    source = np.where(j == point, 20, np.maximum(3 + j - np.where(e < 0, 1 - e, j > point), 0))
    length = np.where(t >= 16 - e, point + integral_tail, 18 - t - np.minimum(e, 0))
    return np.where(j < length, source, 21).astype(np.uint8).reshape(-1, 22)


_G17_LAYOUT, _REPR_LAYOUT = _layout(0), _layout(2)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of ``a`` into two halves of at most 26 significant bits."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _times_pow10(x: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``hi, lo`` with ``hi + lo == x * 10**k`` exactly, for k in 0..20 (Dekker's two-product)."""
    p = _DECADES[k + 4]
    (xh, xl), (ph, pl), hi = _split(x), _split(p), x * p
    return hi, ((xh * ph - hi) + xh * pl + xl * ph) + xl * pl


def _shortest17(x: np.ndarray, e: np.ndarray, near: np.ndarray,
                frac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``V = near + frac = x * 10**(16 - e)`` at the nearest multiple of the largest 10**j
    strictly within H (x's half spacing, scaled alike) of V: repr's shortest digits (Steele
    & White). Not ``sure`` for powers of two (a lopsided interval), ties, or a distance near H."""
    half = np.spacing(x) * 0.5 * _DECADES[20 - e]  # exact: a power of two times 10**(16 - e)
    digits, sure = near.copy(), (np.frexp(x)[0] != 0.5) & (np.abs(frac) != 0.5)
    todo, step = np.flatnonzero(sure), 1
    while todo.size:  # the j that fit are 0..J, so a value's first miss ends its search
        step *= 10
        q, rem = np.divmod(near[todo], step)
        down, up = np.abs(rem + frac[todo]), (step - rem) - frac[todo]
        dist, margin = np.minimum(down, up), half[todo] * 1e-9
        unsure = (np.abs(dist - half[todo]) <= margin) | (np.abs(up - down) <= margin)
        fits = (dist < half[todo]) & ~unsure
        sure[todo[unsure]] = False
        digits[todo[fits]] = (q + (up < down))[fits] * step
        todo = todo[fits]
    return digits, sure


def _fixed(column: np.ndarray, fmt: bytes) -> list[bytes]:
    """``[fmt % x for x in column]`` for ``b"%.17g"`` or ``b"%r"``, byte for byte. A value
    in [1e-4, 1e17), or 1e16 for repr, is scaled by Dekker's two-product to ``hi + lo`` in
    [1e16, 1e17), exactly, rounded half to even to 17 digits or shortened, and laid out in
    fixed notation. Zero, negatives, the rest, a carry to 10**17 and values the shortening
    is not sure of go through ``fmt``."""
    top, layout = (1e16, _REPR_LAYOUT) if fmt == b"%r" else (1e17, _G17_LAYOUT)
    ok = (column >= 1e-4) & (column < top)
    x = np.where(ok, column, 1.0)
    e = np.searchsorted(_DECADES, x, side="right") - 5
    hi, lo = _times_pow10(x, 16 - e)
    # hi >= 1e16 > 2**53 is an even integer, so rint(lo) rounds hi + lo half to even.
    digits, sure = hi.astype(np.int64) + np.rint(lo).astype(np.int64), True
    if fmt == b"%r":
        digits, sure = _shortest17(x, e, digits, lo - np.rint(lo))
    ok &= sure & (digits < 10**17)
    words = np.full((len(column), 6), np.frombuffer(b".\0\0\0", np.uint32)[0])
    for i in range(4, -1, -1):
        digits, words[:, i] = digits // 10_000, _DIGITS4[digits % 10_000]
    source = words.view(np.uint8)
    zeros = (source[:, 19:2:-1] != ord("0")).argmax(axis=1)
    rows = np.take(layout, (e + 4) * 17 + zeros, axis=0)
    offsets, text = np.arange(0, source.size, 24), np.empty((len(column), 22), np.uint8)
    for j in range(22):  # by column: an index of every byte would take 176 B a value
        text[:, j] = source.ravel()[offsets + rows[:, j]]
    texts = text.view("S22").ravel().tolist()
    rest = np.flatnonzero(~ok)
    for i, value in zip(rest.tolist(), column[rest].tolist()):
        texts[i] = fmt % value
    return texts


# The CSV Fisher column, [b"%.17g" % x for x in column], and JSON's, [repr(x).encode() ...].
_g17 = partial(_fixed, fmt=b"%.17g")
_shortest = partial(_fixed, fmt=b"%r")


def _pieces(spec: SweepSpec, rows: SweepRows, fmt: str) -> Iterator[bytes]:
    """CSV with floats at 17 significant digits, so parsing restores them bit-exactly, or
    ``json.dumps({"spec": ..., "rows": [...]}, indent=2)`` and a newline, as ASCII bytes.
    The first ``next()`` makes every check: the rows are a non-empty ``SweepRows`` whose axis
    lengths are the spec's counts, with no non-finite coordinate or Fisher value (JSON has
    no spelling for one). It yields the head, then a piece per ``_blocks`` block of at most
    8,192 points (a one-axis sweep is one row): a template, one join per outer text of its
    column slice's inner texts and tails, filled. A piece formats only its own axis values."""
    check_fields(SweepSpec, spec)
    if not isinstance(rows, SweepRows):
        raise DomainError(f"emit takes a sweep's SweepRows columns, got {type(rows).__name__}")
    if not len(rows.fisher):
        raise DomainError("refusing to emit an empty sweep")
    shape, counts = [len(axis) for axis in rows.points], [axis.count for axis in spec.axes]
    if shape != counts:
        raise DomainError(f"sweep columns on axes of {shape} points do not fit the spec's {counts}")
    check_choice("output format", fmt, FORMATS)
    if not all(np.isfinite(column).all() for column in (rows.fisher, *rows.points)):
        pairs = zip(itertools.product(*map(np.ndarray.tolist, rows.points)), rows.fisher.tolist())
        f, at = next((f, c) for c, f in pairs if not all(map(math.isfinite, (f, *c))))
        value = next(x for x in (f, *at) if not math.isfinite(x))
        kind = "Fisher value" if not math.isfinite(f) else "coordinate"
        raise DomainError(f"refusing to render the non-finite {kind} {value} at {at}")
    if fmt == "csv":
        head = ",".join([*spec.axis_names, "fisher", "pure_branch"])
        axis_fmts, off, on = [b"%.17g,"] * len(spec.axes), b"%s,false\n", b"%s,true\n"
    else:
        # The rows go inside head's '"rows": []' + "\n}", the last without its ",\n".
        head = json.dumps({"spec": spec_to_dict(spec), "rows": []}, indent=2)[: -len("]\n}")]
        keys = [f"      {json.dumps(name)}: %r,\n".encode() for name in spec.axis_names]
        value = b'      "fisher": %s,\n      "pure_branch": '
        axis_fmts = [b"    {\n" + keys[0], *keys[1:]]
        off, on = value + b"false\n    },\n", value + b"true\n    },\n"
    yield (head + "\n").encode()
    # A line is outer + inner + tail; a one-axis sweep's one outer text is b"".
    grid, texts, last = (1, *shape)[-2:], _g17 if fmt == "csv" else _shortest, None
    fisher, flags = rows.fisher.reshape(grid), rows.pure.reshape(grid)
    for r, c in _blocks(*grid, 1 << 13):
        if c != last:  # pieces of whole rows share one column slice, and so its texts
            last, inner = c, [axis_fmts[-1] % x for x in rows.points[-1][c].tolist()]
            stretch = [text + off for text in inner]
        outer = [axis_fmts[0] % x for x in rows.points[0][r].tolist()] if len(shape) == 2 else [b""]
        lines = [stretch] * len(outer)
        for i, j in zip(*(index.tolist() for index in np.nonzero(flags[r, c]))):
            if lines[i] is stretch:  # a row with a pure point patches its own copy
                lines[i] = stretch.copy()
            lines[i][j] = inner[j] + on
        if fmt == "json" and r.stop >= grid[0] and c.stop >= grid[1]:  # the last line closes the JSON
            lines[-1] = [*lines[-1][:-1], lines[-1][-1][: -len(b",\n")] + b"\n  ]\n}\n"]
        template = b"".join(text + text.join(line) for text, line in zip(outer, lines))
        yield template % tuple(texts(fisher[r, c].ravel()))


def write_output(pieces: Iterable[bytes], destination: str | Path | None) -> None:
    """Write the byte pieces in turn to ``destination`` unchanged, or decoded to stdout if None."""
    if destination is None:
        sys.stdout.writelines(map(bytes.decode, pieces))
    else:
        with open(destination, "wb") as out:
            out.writelines(pieces)


def emit(
    spec: SweepSpec, rows: SweepRows, fmt: str, destination: str | Path | None = None
) -> None:
    """Write the sweep's columns piece by piece, once ``_pieces`` has made its checks."""
    pieces = _pieces(spec, rows, fmt)
    write_output(itertools.chain([next(pieces)], pieces), destination)  # next() runs the checks
