import dataclasses
import importlib
import itertools
import json
import math
from typing import NamedTuple

import numpy as np
import pytest

from unruh_teleport import (
    FIGURE_IDS,
    MODE_WEIGHTS,
    Axis,
    CorrelationDyadic,
    DomainError,
    InputState,
    SweepSpec,
    UnruhParams,
    emit,
    figure_spec,
    fisher,
    preset_dyadic,
    run_sweep,
)
from unruh_teleport.fisher import (
    METHOD_NAMES, NORM_NAMES, PARAM_NAMES, VARIABLE_DOMAINS, _fisher
)
from unruh_teleport import sweep
from unruh_teleport.sweep import (
    FIGURE_PRESETS,
    _g17,
    _shortest,
    SweepRows,
    spec_from_dict,
    spec_to_dict,
)

from samplers import sample_dyadic, sample_unruh

PHI_PLUS = CorrelationDyadic(1.0, -1.0, 1.0)


def basic_spec(**overrides):
    kwargs = dict(
        estimand="theta",
        norm="normalized",
        method="analytic",
        dyadic=PHI_PLUS,
        qr=1.0 + 0.0j,
        ql=0.0j,
        axes=(Axis("theta", 0.0, math.pi, 5), Axis("r", 0.0, math.pi / 4, 5)),
        fixed={"phi": math.pi / 4},
        channel_preset="bell-phi-plus",
        unruh_mode="wsma",
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


def render_rows(spec: SweepSpec, rows: SweepRows, fmt: str) -> str:
    return b"".join(sweep._pieces(spec, rows, fmt)).decode()


def rows_to_csv(spec: SweepSpec, rows: SweepRows) -> str:
    return render_rows(spec, rows, "csv")


def rows_to_json(spec: SweepSpec, rows: SweepRows) -> str:
    return render_rows(spec, rows, "json")


class SweepRow(NamedTuple):
    """One line of a sweep: the package keeps columns only, the tests list them as rows."""

    coords: tuple[float, ...]
    fisher: float
    pure_branch: bool


def rows_of(rows: SweepRows) -> list[SweepRow]:
    """The rows of a sweep's columns, outer axis first."""
    return [SweepRow(coords, f, pure) for coords, f, pure in
            zip(itertools.product(*rows.points), rows.fisher.tolist(), rows.pure.tolist())]


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


class TestAxis:
    def test_unknown_variable(self):
        with pytest.raises(DomainError):
            Axis("gamma", 0.0, 1.0, 4)

    def test_count_too_small(self):
        with pytest.raises(DomainError):
            Axis("theta", 0.0, 1.0, 1)

    def test_range_outside_domain(self):
        with pytest.raises(DomainError):
            Axis("r", 0.0, 1.0, 4)  # r tops out at pi/4
        with pytest.raises(DomainError):
            Axis("theta", 0.5, 0.2, 4)

    def test_endpoints_exact(self):
        points = Axis("theta", 0.1, 0.3, 3).points()
        assert points[0] == 0.1
        assert points[-1] == 0.3


class TestSpecValidation:
    def test_partition_enforced(self):
        with pytest.raises(DomainError, match="partition"):
            basic_spec(fixed={})
        with pytest.raises(DomainError, match="partition"):
            basic_spec(fixed={"theta": 0.5, "phi": 0.5})

    def test_fixed_value_in_domain(self):
        with pytest.raises(DomainError):
            basic_spec(fixed={"phi": 7.0})

    def test_bad_estimand(self):
        with pytest.raises(DomainError):
            basic_spec(estimand="psi")

    @pytest.mark.parametrize(
        "param,norm,method",
        [("psi", "normalized", "analytic"), ("theta", "raw", "analytic"),
         ("theta", "normalized", "spectral"), ("psi", "raw", "spectral")],
    )
    def test_sweeps_and_scalar_calls_share_one_check(self, param, norm, method):
        with pytest.raises(DomainError) as sweep_error:
            basic_spec(estimand=param, norm=norm, method=method)
        with pytest.raises(DomainError) as scalar_error:
            fisher(InputState(1.0, 1.0), PHI_PLUS, UnruhParams(0.1, 1.0, 0.0), param,
                   mode=norm, method=method)
        assert str(sweep_error.value) == str(scalar_error.value)

    def test_weight_normalization_checked(self):
        with pytest.raises(DomainError):
            basic_spec(qr=1.0 + 0.0j, ql=1.0 + 0.0j)


class TestRunSweep:
    def test_closed_form_rows(self):
        rows = run_sweep(basic_spec())
        assert len(rows.fisher) == 25
        for row in rows_of(rows):
            theta, r = row.coords
            assert abs(row.fisher - math.cos(r) ** 2) < 1e-9

    def test_two_point_axis(self):
        spec = basic_spec(axes=(Axis("r", 0.0, math.pi / 4, 2),), fixed={"theta": 1.0, "phi": 0.5})
        rows = rows_of(run_sweep(spec))
        assert len(rows) == 2
        assert rows[0].coords == (0.0,)
        assert rows[1].coords == (math.pi / 4,)

    def test_lexicographic_ordering_outer_axis_first(self):
        rows = rows_of(run_sweep(basic_spec()))
        thetas = np.linspace(0.0, math.pi, 5)
        rs = np.linspace(0.0, math.pi / 4, 5)
        expected = list(itertools.product(thetas, rs))
        assert [row.coords for row in rows] == [(float(t), float(r)) for t, r in expected]

    def test_unphysical_channel_rejected(self):
        spec = basic_spec(dyadic=CorrelationDyadic(1.0, 1.0, 1.0), channel_preset=None)
        with pytest.raises(DomainError, match="unphysical"):
            run_sweep(spec)

    def test_kernel_makes_no_name_checks(self, monkeypatch):
        # The package's ``fisher`` attribute is the function, not the module.
        fisher_module = importlib.import_module("unruh_teleport.fisher")
        specs = [basic_spec(), basic_spec(estimand="r", norm="as-published", method="fd")]
        calls = []
        check_choice = fisher_module.check_choice
        monkeypatch.setattr(
            fisher_module, "check_choice", lambda *a: calls.append(a) or check_choice(*a)
        )
        for spec in specs:
            run_sweep(spec)
        assert calls == []

    def test_deterministic(self):
        assert rows_of(run_sweep(basic_spec())) == rows_of(run_sweep(basic_spec()))

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("n_axes", [1, 2])
    def test_open_mesh_matches_the_full_meshgrid(self, seed, n_axes):
        # Seeded x-state channels and complex weights; the kernel evaluated on
        # the full meshgrid, built here, is the reference, bit for bit.
        rng = np.random.default_rng([seed, n_axes])
        u = sample_unruh(rng)
        names = [str(name) for name in rng.permutation(PARAM_NAMES)]
        axes = []
        for name in names[:n_axes]:
            lo, hi = VARIABLE_DOMAINS[name]
            start, stop = (lo, hi) if rng.random() < 0.5 else sorted(rng.uniform(lo, hi, 2))
            axes.append(Axis(name, float(start), float(stop), int(rng.integers(2, 10))))
        fixed = {name: float(rng.uniform(*VARIABLE_DOMAINS[name])) for name in names[n_axes:]}
        base = basic_spec(dyadic=sample_dyadic(rng), qr=u.qr, ql=u.ql, axes=axes, fixed=fixed,
                          channel_preset="x-state", unruh_mode=None)
        grid = np.meshgrid(*(axis.points() for axis in axes), indexing="ij")
        point = {**vars(base.dyadic), "qr": u.qr, "ql": u.ql, **fixed,
                 **{axis.name: g.ravel() for axis, g in zip(axes, grid)}}
        for param, norm, method in itertools.product(PARAM_NAMES, NORM_NAMES, METHOD_NAMES):
            spec = dataclasses.replace(base, estimand=param, norm=norm, method=method)
            rows = run_sweep(spec)
            value, pure = _fisher(point, param, norm, method)
            assert rows.fisher.tobytes() == value.tobytes(), (param, norm, method)
            assert rows.pure.tobytes() == pure.tobytes(), (param, norm, method)
            for column in (rows.fisher, rows.pure):
                assert column.ndim == 1 and column.flags.c_contiguous
                assert not column.flags.writeable

    @pytest.mark.parametrize("fig_id", ["1b", "2a", "4d", "6a"])
    def test_kernel_blocks_equal_one_kernel_call(self, fig_id, monkeypatch):
        # A 300 x 300 grid is two kernel blocks of whole outer rows (218 and 82), and 100
        # with KERNEL_BLOCK at 1,000; 256 x 256 is one. With KERNEL_BLOCK at 40, below one
        # row, each row of 64 x 64 is two blocks (40 and 24 points). Each equals one kernel
        # call on the whole open mesh, bit for bit, in both methods.
        kernel, calls, default = sweep._fisher, [], sweep.KERNEL_BLOCK
        monkeypatch.setattr(sweep, "_fisher", lambda *args: calls.append(1) or kernel(*args))
        cases = ((300, default, 2), (300, 1000, 100), (256, default, 1), (64, 40, 128))
        for grid, block, blocks in cases:
            monkeypatch.setattr(sweep, "KERNEL_BLOCK", block)
            for method in METHOD_NAMES:
                spec = figure_spec(fig_id, grid, "normalized", method)
                point = {**vars(spec.dyadic), "qr": spec.qr, "ql": spec.ql, **dict(spec.fixed),
                         **dict(zip(spec.axis_names, np.ix_(*(a.points() for a in spec.axes))))}
                value, pure = (np.broadcast_to(c, (grid, grid)).ravel()
                               for c in kernel(point, spec.estimand, spec.norm, method))
                calls.clear()
                rows = run_sweep(spec)
                assert len(calls) == blocks, (grid, block, method)
                assert rows.fisher.tobytes() == value.tobytes(), (grid, block, method)
                assert rows.pure.tobytes() == pure.tobytes(), (grid, block, method)

    def test_kernel_gets_one_column_per_axis(self, monkeypatch):
        sweep_module = importlib.import_module("unruh_teleport.sweep")
        kernel, sizes = sweep_module._fisher, []

        def counted(p, *args):
            sizes.append(max(np.size(v) for v in p.values()))
            return kernel(p, *args)

        monkeypatch.setattr(sweep_module, "_fisher", counted)
        axes = (Axis("theta", 0.0, math.pi, 5), Axis("r", 0.0, math.pi / 4, 7))
        run_sweep(basic_spec(axes=axes))
        run_sweep(basic_spec(axes=axes, estimand="r", method="fd"))
        run_sweep(figure_spec("4c", grid=16))
        assert sizes == [7, 7, 16]


class TestFigurePresets:
    # Independent copy of the preset table.
    EXPECTED = {
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

    CHANNEL_TRIPLES = {
        "bell-phi-plus": (1.0, -1.0, 1.0),
        "bell-psi-minus": (-1.0, -1.0, -1.0),
        "x-state": (-0.9, -0.8, -0.7),
    }

    def test_expansion_table(self):
        assert set(FIGURE_PRESETS) == set(self.EXPECTED)
        for fig_id, (estimand, swept, fixed, channel, mode) in self.EXPECTED.items():
            spec = figure_spec(fig_id, grid=8)
            assert spec.estimand == estimand
            assert spec.axis_names == swept
            assert dict(spec.fixed) == fixed
            assert spec.channel_preset == channel
            assert spec.unruh_mode == mode
            assert spec.dyadic.as_tuple() == self.CHANNEL_TRIPLES[channel]
            assert spec.norm == "as-published"

    def test_default_grid_row_count(self):
        spec = figure_spec("1a")
        rows = run_sweep(spec)
        assert len(rows.fisher) == 64 * 64
        assert np.all(np.isfinite(rows.fisher))

    def test_unknown_figure(self):
        with pytest.raises(DomainError):
            figure_spec("7a")

    def test_each_call_expands_its_figure_once(self, monkeypatch):
        # One expansion builds the figure's two axes; the spec's check of its figure id
        # must not build them again.
        built = []
        post_init = Axis.__post_init__
        monkeypatch.setattr(Axis, "__post_init__", lambda axis: built.append(post_init(axis)))
        for fig_id in FIGURE_IDS:
            built.clear()
            assert figure_spec(fig_id, grid=11).figure == fig_id
            assert len(built) <= 2, fig_id


class TestEmission:
    def test_csv_line_count(self):
        spec = basic_spec(axes=(Axis("r", 0.0, math.pi / 4, 2),), fixed={"theta": 1.0, "phi": 0.5})
        rows = run_sweep(spec)
        text = rows_to_csv(spec, rows)
        assert text.endswith("\n")
        assert text.count("\n") == 3
        assert text.split("\n")[0] == "r,fisher,pure_branch"

    def test_csv_roundtrip_bit_exact(self):
        spec = basic_spec()
        rows = run_sweep(spec)
        assert parse_csv_rows(rows_to_csv(spec, rows)) == rows_of(rows)

    def test_json_roundtrip_bit_exact(self):
        spec = basic_spec()
        rows = run_sweep(spec)
        assert parse_json_rows(rows_to_json(spec, rows)) == rows_of(rows)

    def test_json_spec_block_resolves_channel(self):
        spec = figure_spec("3c", grid=4)
        payload = json.loads(rows_to_json(spec, run_sweep(spec)))
        channel = payload["spec"]["channel"]
        assert channel["preset"] == "x-state"
        assert (channel["c11"], channel["c22"], channel["c33"]) == (-0.9, -0.8, -0.7)
        assert payload["spec"]["figure"] == "3c"
        assert payload["spec"]["unruh"]["qr"] == [1.0, 0.0]

    def test_spec_dict_roundtrip(self):
        spec = figure_spec("4d", grid=16)
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_emit_writes_file(self, tmp_path):
        spec = basic_spec(axes=(Axis("r", 0.0, math.pi / 4, 2),), fixed={"theta": 1.0, "phi": 0.5})
        rows = run_sweep(spec)
        target = tmp_path / "sweep.csv"
        emit(spec, rows, "csv", target)
        assert parse_csv_rows(target.read_text(encoding="utf-8")) == rows_of(rows)

    def test_emit_rejects_empty(self, tmp_path):
        spec = basic_spec()
        with pytest.raises(DomainError):
            emit(spec, [], "csv", tmp_path / "nothing.csv")

    @pytest.mark.parametrize("counts", [(3, 3), (5, 4), (4, 5)])
    def test_emit_refuses_axis_lengths_that_do_not_fit_the_spec(self, counts, tmp_path, capsys):
        # A 5 x 5 sweep's columns under a spec whose axes have other counts.
        spec = figure_spec("1a", grid=5)
        axes = tuple(dataclasses.replace(a, count=n) for a, n in zip(spec.axes, counts))
        misfit, rows = dataclasses.replace(spec, axes=axes, figure=None), run_sweep(spec)
        for fmt in ("csv", "json"):
            with pytest.raises(DomainError, match=r"\[5, 5\] points do not fit"):
                emit(misfit, rows, fmt, tmp_path / f"out.{fmt}")
            with pytest.raises(DomainError, match=r"\[5, 5\] points do not fit"):
                emit(misfit, rows, fmt)
        assert list(tmp_path.iterdir()) == []
        assert capsys.readouterr().out == ""

    def test_unknown_format(self):
        spec = basic_spec()
        rows = run_sweep(spec)
        with pytest.raises(DomainError):
            render_rows(spec, rows, "parquet")


# Floats whose shortest repr and 17-digit forms differ most from naive text:
# the smallest subnormal, inexact decimals, exponent switch points, and -0.0.
AWKWARD = (5e-324, 0.1, 2.0 / 3.0, 1e16, 1e22, -0.0)


def _reference_csv(spec, rows):
    """The per-cell CSV renderer: every float through ``format(x, ".17g")``."""
    lines = [",".join([*spec.axis_names, "fisher", "pure_branch"])]
    for row in rows_of(rows):
        cells = [format(float(x), ".17g") for x in (*row.coords, row.fisher)]
        cells.append("true" if row.pure_branch else "false")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _reference_json(spec, rows):
    """The whole payload through ``json.dumps(..., indent=2)``."""
    entries = [
        {**dict(zip(spec.axis_names, row.coords)), "fisher": row.fisher,
         "pure_branch": row.pure_branch}
        for row in rows_of(rows)
    ]
    return json.dumps({"spec": spec_to_dict(spec), "rows": entries}, indent=2) + "\n"


class TestRenderContract:
    """The one-template renderers write exactly the bytes of the references above."""

    # Each axis holds the len(AWKWARD) = 6 points of the columns.
    SPECS = {
        "one-axis": dict(
            axes=(Axis("r", 0.0, math.pi / 4, 6),),
            fixed={"theta": 1.0, "phi": 0.5},
            qr=0.6 + 0.0j,
            ql=0.48 + 0.64j,
            channel_preset=None,
            unruh_mode=None,
        ),
        "two-axis": dict(axes=(Axis("theta", 0.0, math.pi, 6), Axis("r", 0.0, math.pi / 4, 6))),
    }

    @pytest.mark.parametrize("name", SPECS)
    @pytest.mark.parametrize("flags", ("mixed", "all-true", "all-false"))
    def test_bytes_match_reference(self, name, flags):
        spec = basic_spec(**self.SPECS[name])
        coords = list(itertools.product(AWKWARD, repeat=len(spec.axes)))
        pure = {"mixed": [i % 3 == 0 for i in range(len(coords))],
                "all-true": [True] * len(coords),
                "all-false": [False] * len(coords)}[flags]
        fisher = [AWKWARD[-1 - i % len(AWKWARD)] for i in range(len(pure))]
        rows = SweepRows((AWKWARD,) * len(spec.axes), np.array(fisher),
                         np.array(pure, dtype=bool))
        assert rows_of(rows) == [SweepRow(c, f, b) for c, f, b in zip(coords, fisher, pure)]
        assert rows_to_csv(spec, rows) == _reference_csv(spec, rows)
        assert rows_to_json(spec, rows) == _reference_json(spec, rows)
        assert parse_csv_rows(rows_to_csv(spec, rows)) == rows_of(rows)
        assert parse_json_rows(rows_to_json(spec, rows)) == rows_of(rows)

    def test_figure_sweep_matches_reference(self):
        spec = figure_spec("3c", grid=7, norm="normalized", method="fd")
        rows = run_sweep(spec)
        assert rows_to_csv(spec, rows) == _reference_csv(spec, rows)
        assert rows_to_json(spec, rows) == _reference_json(spec, rows)
        for fig_id in FIGURE_IDS:
            for norm, method in (("as-published", "analytic"), ("normalized", "fd")):
                spec = figure_spec(fig_id, grid=5, norm=norm, method=method)
                rows = run_sweep(spec)
                assert rows_to_csv(spec, rows) == _reference_csv(spec, rows), (fig_id, norm)
                assert rows_to_json(spec, rows) == _reference_json(spec, rows), (fig_id, norm)

    @pytest.mark.parametrize("value", (math.inf, -math.inf, math.nan))
    def test_non_finite_fisher_is_refused(self, value, tmp_path, capsys):
        spec = basic_spec(axes=(Axis("r", 0.0, math.pi / 4, 2),), fixed={"theta": 1.0, "phi": 0.5})
        rows = SweepRows(((0.0, 0.1),), np.array([1.0, value]), np.array([False, False]))
        for render in (rows_to_csv, rows_to_json):
            with pytest.raises(DomainError, match=r"non-finite Fisher value .* at \(0\.1,\)"):
                render(spec, rows)
        for fmt in ("csv", "json"):
            with pytest.raises(DomainError, match="non-finite"):
                emit(spec, rows, fmt, tmp_path / f"out.{fmt}")
            with pytest.raises(DomainError, match="non-finite"):
                emit(spec, rows, fmt)
        assert list(tmp_path.iterdir()) == []
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("value", (math.inf, math.nan))
    def test_non_finite_coordinate_is_refused(self, value, tmp_path, capsys):
        spec = basic_spec(axes=(Axis("r", 0.0, math.pi / 4, 2),), fixed={"theta": 1.0, "phi": 0.5})
        rows = SweepRows(((0.0, value),), np.array([1.0, 2.0]), np.array([False, False]))
        for render in (rows_to_csv, rows_to_json):
            with pytest.raises(DomainError, match=rf"non-finite coordinate {value} at \({value},\)"):
                render(spec, rows)
        for fmt in ("csv", "json"):
            with pytest.raises(DomainError, match="non-finite coordinate"):
                emit(spec, rows, fmt, tmp_path / f"out.{fmt}")
            with pytest.raises(DomainError, match="non-finite coordinate"):
                emit(spec, rows, fmt)
        assert list(tmp_path.iterdir()) == []
        assert capsys.readouterr().out == ""

    def test_a_refusal_names_the_first_non_finite_point_in_row_order(self):
        # Rows 3-5 have the outer coordinate inf, and row 5 also a NaN Fisher value;
        # the first of them, row 3, is named with both its coordinates.
        spec = basic_spec(axes=(Axis("theta", 0.0, math.pi, 2), Axis("r", 0.0, math.pi / 4, 3)))
        rows = SweepRows(((0.0, math.inf), (0.1, 0.2, 0.3)), np.array([1.0] * 5 + [math.nan]),
                         np.zeros(6, dtype=bool))
        for fmt in ("csv", "json"):
            with pytest.raises(DomainError, match=r"non-finite coordinate inf at \(inf, 0\.1\)$"):
                render_rows(spec, rows, fmt)

    def test_every_figure_at_64_matches_reference(self):
        for fig_id, norm, method in itertools.product(FIGURE_IDS, NORM_NAMES, METHOD_NAMES):
            spec = figure_spec(fig_id, grid=64, norm=norm, method=method)
            rows = run_sweep(spec)
            assert rows_to_csv(spec, rows) == _reference_csv(spec, rows), (fig_id, norm, method)

    def test_json_of_every_figure_at_16_matches_reference(self):
        for fig_id, norm, method in itertools.product(FIGURE_IDS, NORM_NAMES, METHOD_NAMES):
            spec = figure_spec(fig_id, grid=16, norm=norm, method=method)
            rows = run_sweep(spec)
            assert rows_to_json(spec, rows) == _reference_json(spec, rows), (fig_id, norm, method)

    def test_a_sweep_past_65536_points_matches_reference(self, tmp_path, capsys):
        """257 x 256 points in JSON, and 129 x 65 in CSV: several rendered pieces, the
        last a short one, with pure rows, through the renderer, a file and stdout."""
        for fmt, counts in (("json", (257, 256)), ("csv", (129, 65))):
            spec = basic_spec(axes=(Axis("theta", 0.0, math.pi, counts[0]),
                                    Axis("r", 0.0, math.pi / 4, counts[1])))
            rows = run_sweep(spec)
            assert len(rows.fisher) > (1 << 16 if fmt == "json" else 1 << 13) and rows.pure.any()
            reference = {"csv": _reference_csv, "json": _reference_json}[fmt](spec, rows)
            assert render_rows(spec, rows, fmt) == reference, fmt
            emit(spec, rows, fmt, tmp_path / f"out.{fmt}")
            assert (tmp_path / f"out.{fmt}").read_text(encoding="utf-8") == reference, fmt
            emit(spec, rows, fmt)
            assert capsys.readouterr().out == reference, fmt

    # Pieces are runs of whole rows of at most 8,192 points, or 1-row slices of 8,192 where
    # a row is longer; one axis is one row. 4 x 4096 is 2 pieces of 2 rows, 150 x 100 is 81
    # rows and then 69, 8,195 points on one axis end on 3 points, 2 x 9000 cuts both rows
    # (4 pieces), and 3 x 5000 is a piece per row (3). Flags sit on both sides of every
    # piece edge and of every multiple of 8,192 points. Each row is one join of its column
    # slice's inner texts: "row-ends" flags the first and last line of every row, "all-pure"
    # all.
    PIECES = {"last-full": (4, 4096), "last-short": (150, 100), "one-axis": (8195,),
              "long-inner": (2, 9000), "inside-rows": (3, 5000), "row-ends": (150, 100),
              "all-pure": (150, 100)}

    @pytest.mark.parametrize("name", PIECES)
    def test_pure_flags_on_both_sides_of_a_piece_boundary(self, name):
        counts = self.PIECES[name]
        names = ("theta", "r")[: len(counts)]
        spec = basic_spec(axes=[Axis(v, *VARIABLE_DOMAINS[v], count=n) for v, n in zip(names, counts)],
                          fixed={k: v for k, v in {"phi": 0.5, "r": 0.1}.items() if k not in names})
        rng = np.random.default_rng(21)
        points = tuple(tuple(rng.choice(AWKWARD + (0.25, 1.0 / 3.0), n).tolist()) for n in counts)
        size = math.prod(counts)
        fisher = rng.choice(AWKWARD, size) * rng.choice((1.0, 3.0, 1.0 / 7.0), size)
        pure = np.full(counts, name == "all-pure")
        pure[..., [0, -1]] |= name == "row-ends"
        pure = pure.ravel()
        height, columns = max(8192 // counts[-1], 1), min(8192, counts[-1])
        edges = [i * counts[-1] + j for i in range(0, size // counts[-1], height)
                 for j in range(0, counts[-1], columns)]  # each piece's first point
        flat = range(8192, size, 8192)
        pure[[0, size - 1, *(b + k for b in (*flat, *edges[1:]) for k in (-1, 0))]] = True
        rows = SweepRows(points, fisher, pure)
        for fmt, reference in (("csv", _reference_csv), ("json", _reference_json)):
            pieces = list(sweep._pieces(spec, rows, fmt))
            assert len(pieces) == 1 + len(edges), fmt  # the head and the pieces
            assert b"".join(pieces).decode() == reference(spec, rows), fmt

    def test_no_piece_holds_more_than_8192_rows(self):
        # A lopsided 2 x 65,536 sweep, whose inner axis alone spans eight pieces.
        spec = basic_spec(axes=(Axis("theta", 0.0, math.pi, 2), Axis("r", 0.0, math.pi / 4, 65536)))
        rows = run_sweep(spec)
        for fmt, row_mark in (("csv", b"\n"), ("json", b'"fisher"')):
            counts = [piece.count(row_mark) for piece in list(sweep._pieces(spec, rows, fmt))[1:]]
            assert sum(counts) == len(rows.fisher) == 2 * 65536 and max(counts) <= 8192, (fmt, counts)

    @pytest.mark.parametrize("case", ("short-columns", "short-fisher", "short-pure",
                                      "long-columns", "extra-axis", "missing-axis",
                                      "three-points-two-values"))
    def test_columns_that_do_not_fit_the_spec_are_refused(self, case, tmp_path, capsys):
        # Columns whose lengths do not fit the axes are refused when SweepRows is built,
        # axes that do not fit the spec when the rows are rendered.
        spec = basic_spec(axes=(Axis("r", 0.0, math.pi / 4, 2),), fixed={"theta": 1.0, "phi": 0.5})
        rows = {
            "short-columns": lambda: SweepRows(((0.0, 0.1),), np.array([1.0]), np.array([False])),
            "short-fisher": lambda: SweepRows(((0.0, 0.1),), np.array([1.0]), np.array([False, False])),
            "short-pure": lambda: SweepRows(((0.0, 0.1),), np.array([1.0, 2.0]), np.array([False])),
            "long-columns": lambda: SweepRows(((0.0, 0.1),), np.ones(3), np.zeros(3, dtype=bool)),
            "extra-axis": lambda: SweepRows(((0.0, 0.1), (0.5,)), np.ones(2), np.zeros(2, dtype=bool)),
            "missing-axis": lambda: SweepRows((), np.ones(1), np.zeros(1, dtype=bool)),
            "three-points-two-values": lambda: SweepRows(
                ((0.0, 0.1, 0.2),), np.array([1.0, 2.0]), np.array([False, True, False])),
        }[case]
        if case not in ("extra-axis", "missing-axis"):
            with pytest.raises(DomainError, match="do not fit axes of"):
                rows()
        for fmt in ("csv", "json"):
            with pytest.raises(DomainError, match="do not fit"):
                next(sweep._pieces(spec, rows(), fmt))
            with pytest.raises(DomainError, match="do not fit"):
                emit(spec, rows(), fmt, tmp_path / f"out.{fmt}")
            with pytest.raises(DomainError, match="do not fit"):
                emit(spec, rows(), fmt)
        assert list(tmp_path.iterdir()) == []
        assert capsys.readouterr().out == ""


def _dyadic(rng, n):
    """m * 2**-j; the second half are exact ties, odd * 2**-(17 - e) in
    [10**e, 10**(e + 1)), whose 18 significant digits end in 5."""
    e = rng.integers(-4, 15, n - n // 2)
    scale = 2.0 ** (17 - e)
    m = rng.integers(np.ceil(10.0**e * scale).astype(np.int64), (10.0 ** (e + 1) * scale).astype(np.int64))
    return np.concatenate([rng.integers(1, 2**53, n // 2) * 2.0 ** -rng.integers(0, 64, n // 2),
                           (m | 1) / scale])


def _around(values, steps):
    """Each positive value and the ``steps`` doubles on either side of it."""
    return np.ravel(np.array(values)[:, None].view(np.int64) + np.arange(-steps, steps + 1)).view(float)


# Seeded draws for the CSV Fisher formatter, 300k or more in each random class.
G17_CLASSES = {
    "uniform": lambda rng, n: rng.random(n),
    "log-uniform": lambda rng, n: 10 ** rng.uniform(-4.5, 17.5, n),
    "integers": lambda rng, n: np.floor(10 ** rng.uniform(0, 17.5, n)),
    "dyadic-and-ties": _dyadic,
    "powers-of-ten": lambda rng, n: _around([float(f"1e{k}") for k in range(-4, 18)], 6818),
    # The range ends 1e-4 and 1e17 and their neighbours; the double below each
    # power of ten, the only candidate for rounding up to it at 17 digits; zeros,
    # subnormals and negatives, which go through %; and small integers.
    "edges": lambda rng, n: np.concatenate([
        _around([1e-4, 1e17], 1), np.nextafter([float(f"1e{k}") for k in range(-4, 18)], 0),
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, 4.0],
        rng.integers(1, 2**52, 1000) * 5e-324, -(10 ** rng.uniform(-4.5, 17.5, 1000)),
        np.arange(-100.0, 101.0)]),
}


@pytest.mark.parametrize("name", G17_CLASSES)
def test_g17_writes_the_bytes_of_format(name):
    x = G17_CLASSES[name](np.random.default_rng(17), 300_000)
    values = x.tolist()
    got, want = _g17(x), [format(v, ".17g").encode() for v in values]
    assert name == "edges" or len(got) >= 300_000
    if got != want:
        bad = [(v, g, w) for v, g, w in zip(values, got, want) if g != w]
        pytest.fail(f"{len(bad)} mismatches with format(x, '.17g'), first {bad[:3]}")


# The repr formatter's draws: every CSV class, plus where repr's shortest digits
# or its layout differ from %.17g. 300k or more in each class but the edges.
REPR_CLASSES = {
    **G17_CLASSES,
    # The doubles around 2**k: short dyadic tails put many candidates on or next
    # to the rounding interval's edge, and 2**k's own interval is lopsided.
    "powers-of-two": lambda rng, n: _around([2.0**k for k in range(-14, 54)], n // 136 + 1),
    # repr's notation switches below 1e-4 and at 1e16; an integral value ends in ".0".
    "repr-edges": lambda rng, n: np.concatenate([
        _around([1e-4, 1e16], 1000), _around([float(f"1e{k}") for k in range(16)], 30),
        [0.0, -0.0, 2.0**53, 2.0**53 + 2, 1e16 - 2], np.arange(1.0, 10_001.0),
        np.floor(10 ** rng.uniform(0, 16, 10_000))]),
    # m / 10**k for m below 10**14: the double nearest a decimal of at most 14 digits.
    "short-decimals": lambda rng, n: (rng.integers(1, 10 ** rng.integers(1, 15, n))
                                      / 10.0 ** rng.integers(0, 20, n)),
}


@pytest.mark.parametrize("name", REPR_CLASSES)
def test_shortest_writes_the_bytes_of_repr(name):
    x = REPR_CLASSES[name](np.random.default_rng(17), 300_000)
    values = x.tolist()
    got, want = _shortest(x), [repr(v).encode() for v in values]
    assert name in ("edges", "repr-edges") or len(got) >= 300_000
    if got != want:
        bad = [(v, g, w) for v, g, w in zip(values, got, want) if g != w]
        pytest.fail(f"{len(bad)} mismatches with repr(x), first {bad[:3]}")


def test_shortest_needs_its_fallback(monkeypatch):
    """With every in-range value taken as sure (no fallback to repr for ties, edges
    of the rounding interval or powers of two), the powers-of-two class fails."""
    shortest17 = sweep._shortest17
    monkeypatch.setattr(sweep, "_shortest17", lambda *args: (shortest17(*args)[0], True))
    x = REPR_CLASSES["powers-of-two"](np.random.default_rng(17), 300_000)
    assert _shortest(x) != [repr(v).encode() for v in x.tolist()]


class TestSweepRows:
    """``run_sweep`` returns the kernel's columns, read-only: axis points and one Fisher value
    and pure flag per point of their product."""

    def _rows_and_reference(self):
        rows = run_sweep(basic_spec())
        return rows, rows_of(rows)

    def test_read_only(self):
        rows, _ = self._rows_and_reference()
        with pytest.raises(ValueError):
            rows.fisher[0] = 1.0
        with pytest.raises(ValueError):
            rows.pure[0] = True
        for axis in rows.points:
            with pytest.raises(ValueError):
                axis[0] = 1.0
        with pytest.raises(TypeError):
            rows[0] = SweepRow((0.0, 0.0), 1.0, False)

    def test_list_columns_become_read_only_arrays(self):
        rows = SweepRows(((0.0, 0.1),), [1.0, 2], [False, True])
        assert rows_of(rows) == [SweepRow((0.0,), 1.0, False), SweepRow((0.1,), 2.0, True)]
        assert (rows.fisher.dtype, rows.pure.dtype) == (np.float64, np.bool_)
        assert not rows.fisher.flags.writeable and not rows.pure.flags.writeable

    def test_integer_pure_flags_become_bools(self):
        rows = SweepRows(((0.0, 0.1, 0.2),), np.ones(3), np.array([0, 1, 0]))
        assert [type(row.pure_branch) for row in rows_of(rows)] == [bool] * 3
        assert [row.pure_branch for row in rows_of(rows)] == [False, True, False]
        assert rows.pure.dtype == np.bool_ and type(rows_of(rows)[1].pure_branch) is bool

    @pytest.mark.parametrize("fisher, pure", [
        (np.array(["1.0", "2.0"]), np.zeros(2, dtype=bool)),
        (np.array([1.0, 2.0j]), np.zeros(2, dtype=bool)),
        (np.array([1.0, None]), np.zeros(2, dtype=bool)),
        (np.ones((2, 1)), np.zeros(2, dtype=bool)),
        (np.ones(2), np.array(["false", "true"])),
    ], ids=["string-fisher", "complex-fisher", "object-fisher", "2d-fisher", "string-pure"])
    def test_columns_of_other_kinds_are_refused(self, fisher, pure):
        with pytest.raises(DomainError, match="sweep columns must be 1-d arrays of real numbers"):
            SweepRows(((0.0, 0.1),), fisher, pure)

    def test_a_ragged_column_is_refused(self):
        with pytest.raises(DomainError, match="must be 1-d arrays of real numbers, not ragged"):
            SweepRows(((0.0, 0.1),), [[1.0], [2.0, 3.0]], [False, True])

    @pytest.mark.parametrize("axis", [("a", "b"), (0.0, None), (0.0, 1j), ((0.0, 0.1), (0.2, 0.3))],
                             ids=["strings", "none", "complex", "2d"])
    def test_an_axis_of_other_kinds_is_refused_when_built(self, axis):
        # Each axis is checked as one column, before any row is rendered.
        with pytest.raises(DomainError, match="sweep columns must be 1-d arrays of real numbers"):
            SweepRows((axis, (0.0, 1.0)), np.ones(4), np.zeros(4, bool))

    @pytest.mark.parametrize("axis", [(True, False), (0, 1), np.array([0.1, 0.5], np.float32),
                                      np.array([0.1, 0.5])], ids=["bool", "int", "float32", "float64"])
    def test_an_axis_is_stored_and_written_as_floats(self, axis):
        spec = basic_spec(axes=(Axis("r", 0.0, math.pi / 4, 2),), fixed={"theta": 1.0, "phi": 0.5})
        rows = SweepRows((axis,), [1.0, 2.0], [False, True])
        floats = [float(x) for x in axis]
        (stored,) = rows.points
        assert (stored.dtype, stored.ndim, stored.flags.writeable) == (np.float64, 1, False)
        assert stored.tolist() == floats
        written = [entry["r"] for entry in json.loads(rows_to_json(spec, rows))["rows"]]
        assert written == floats and all(type(x) is float for x in written)
        from_csv = [row.coords[0] for row in parse_csv_rows(rows_to_csv(spec, rows))]
        assert from_csv == floats

    def test_emit_refuses_an_empty_sweep(self, tmp_path, capsys):
        empty = SweepRows(((),), np.array([]), np.array([], dtype=bool))
        for rows, refusal in (([], "takes a sweep's SweepRows columns, got list"), (empty, "empty")):
            for fmt in ("csv", "json"):
                with pytest.raises(DomainError, match=refusal):
                    next(sweep._pieces(basic_spec(), rows, fmt))
            with pytest.raises(DomainError, match=refusal):
                emit(basic_spec(), rows, "json", tmp_path / "nothing.json")
            with pytest.raises(DomainError, match=refusal):
                emit(basic_spec(), rows, "csv")
        assert list(tmp_path.iterdir()) == []
        assert capsys.readouterr().out == ""


class TestSingleSources:
    def test_figure_channels_are_the_named_presets(self):
        from unruh_teleport import preset_dyadic

        x_state = preset_dyadic("x-state", c11=-0.9, c22=-0.8, c33=-0.7)
        for fig_id in FIGURE_PRESETS:
            spec = figure_spec(fig_id, grid=2)
            preset = spec.channel_preset
            expected = x_state if preset == "x-state" else preset_dyadic(preset)
            assert spec.dyadic == expected, fig_id

    def test_every_emitted_spec_loads(self):
        for fig_id in FIGURE_PRESETS:
            spec = figure_spec(fig_id, grid=3)
            assert spec_from_dict(json.loads(json.dumps(spec_to_dict(spec)))) == spec
        # A named preset next to explicit coefficients, without the fidelity.
        payload = spec_to_dict(basic_spec(dyadic=CorrelationDyadic(-0.3, -0.3, -0.3),
                                          channel_preset="werner"))
        assert spec_from_dict(payload).dyadic == CorrelationDyadic(-0.3, -0.3, -0.3)

    def test_grid_size_bound(self):
        axes = (Axis("theta", 0.0, math.pi, 1024), Axis("r", 0.0, math.pi / 4, 1024))
        assert basic_spec(axes=axes).axes == axes
        with pytest.raises(DomainError, match="exceeds"):
            basic_spec(axes=(Axis("theta", 0.0, math.pi, 1025), axes[1]))
        with pytest.raises(DomainError, match="exceeds"):
            figure_spec("1a", grid=100000)


def _assert_rows_match_scalar_fisher(spec):
    """Every row equals, bit for bit, the scalar ``fisher`` at that point."""
    rows = run_sweep(spec)
    assert len(rows.fisher) == math.prod(axis.count for axis in spec.axes)
    for row in rows_of(rows):
        values = {**dict(spec.fixed), **dict(zip(spec.axis_names, row.coords))}
        expected = fisher(
            InputState(values["theta"], values["phi"]),
            spec.dyadic,
            UnruhParams(values["r"], spec.qr, spec.ql),
            spec.estimand,
            mode=spec.norm,
            method=spec.method,
        )
        assert (row.fisher, row.pure_branch) == (expected.value, expected.pure_branch), row


class TestOneKernel:
    """Grids and scalar points are the same kernel, so they agree exactly."""

    @pytest.mark.parametrize("fig_id", FIGURE_IDS)
    def test_figure_rows_equal_scalar_fisher(self, fig_id):
        for norm in ("normalized", "as-published"):
            for method in ("analytic", "fd"):
                _assert_rows_match_scalar_fisher(
                    figure_spec(fig_id, grid=9, norm=norm, method=method)
                )

    def test_fd_r_sweep_through_both_edges(self):
        # With the 1e-5 step, the narrow axes mix points whose central
        # difference steps past an edge (within a step of it) with inner ones.
        for start, stop in ((0.0, math.pi / 4), (0.0, 3e-5), (math.pi / 4 - 3e-5, math.pi / 4)):
            for norm in ("normalized", "as-published"):
                spec = basic_spec(
                    estimand="r",
                    norm=norm,
                    method="fd",
                    dyadic=CorrelationDyadic(-0.9, -0.8, -0.7),
                    qr=0.6 + 0.0j,
                    ql=0.48 + 0.64j,
                    axes=(Axis("r", start, stop, 7),),
                    fixed={"theta": 1.1, "phi": 2.3},
                    channel_preset=None,
                    unruh_mode=None,
                )
                _assert_rows_match_scalar_fisher(spec)


class TestSpecInputs:
    def test_count_must_be_an_integer(self):
        for count in (True, 3.9, "3"):
            with pytest.raises(DomainError, match="integer"):
                Axis("r", 0.0, 0.5, count)

    def test_unknown_fixed_name(self):
        with pytest.raises(DomainError, match="fixed variable"):
            basic_spec(fixed={"phi": 1.0, "bogus": 7.0})

    @pytest.mark.parametrize("method", ["analytic", "fd"])
    def test_estimand_must_be_named(self, method):
        # Unchecked, a null estimand reads as F_r (analytic) or ends in a KeyError (fd).
        with pytest.raises(DomainError, match="unknown estimand None"):
            basic_spec(estimand=None, method=method)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"channel_preset": "bogus"},
            {"channel_preset": "bell-psi-minus"},
            {"channel_preset": "werner", "dyadic": CorrelationDyadic(0.3, 0.3, 0.3)},
            {"unruh_mode": "bogus"},
            {"unruh_mode": "bsma"},
        ],
    )
    def test_preset_and_mode_names_must_give_the_numbers(self, overrides):
        with pytest.raises(DomainError, match="preset"):
            basic_spec(**overrides)

    @pytest.mark.parametrize(
        "figure,counts", [("bogus", (3, 3)), ("4d", (3, 3)), ("1a", (3, 3)), ("1b", (3, 4)),
                          ("1b", (2000,)), ("1b", (900, 1100))]
    )
    def test_figure_label_must_give_the_spec(self, figure, counts):
        payload = spec_to_dict(figure_spec("1b", grid=3))
        payload["figure"] = figure
        payload["axes"] = [{**axis, "count": n} for axis, n in zip(payload["axes"], counts)]
        if len(counts) == 1:
            payload["fixed"]["r"] = 0.1
        message = "unknown figure preset" if figure == "bogus" else "does not give this spec"
        with pytest.raises(DomainError, match=message):
            spec_from_dict(payload)

    def test_figure_label_is_checked_by_the_spec_itself(self):
        spec = figure_spec("1a", 8)
        assert dataclasses.replace(spec, norm="normalized", method="fd").figure == "1a"
        with pytest.raises(DomainError, match="figure 1a does not give this spec"):
            dataclasses.replace(spec, estimand="phi")
        with pytest.raises(DomainError, match="figure 1a does not give this spec"):
            dataclasses.replace(spec, fixed={"phi": 1.0})
        with pytest.raises(DomainError, match="figure 3c does not give this spec"):
            dataclasses.replace(figure_spec("3c", 8), dyadic=CorrelationDyadic(-0.5, -0.5, -0.5))

    @pytest.mark.parametrize("added", ["spec.fd_step", "channel.fidelity", "unruh.r",
                                       "axis.step", "spec.fd_step axis.step"])
    def test_unknown_keys_are_named(self, added):
        payload = spec_to_dict(figure_spec("1b", grid=3))
        blocks = {"spec": payload, "channel": payload["channel"], "unruh": payload["unruh"],
                  "axis": payload["axes"][-1]}
        keys = [entry.split(".") for entry in added.split()]
        for block, key in keys:
            blocks[block][key] = 0.5
        names = ", ".join(key for _, key in keys)
        with pytest.raises(DomainError, match=f"^unknown spec keys: {names}$"):
            spec_from_dict(payload)

    def test_optional_keys_may_be_left_out(self):
        payload = spec_to_dict(figure_spec("1b", grid=3))
        for block, key in ((payload, "figure"), (payload["channel"], "preset"),
                           (payload["unruh"], "mode")):
            del block[key]
        spec = spec_from_dict(payload)
        assert (spec.figure, spec.channel_preset, spec.unruh_mode) == (None, None, None)

    def test_named_presets_and_modes_load(self):
        for fidelity in (0.0, 0.37, 1.0):
            werner = preset_dyadic("werner", fidelity=fidelity)
            spec = basic_spec(dyadic=werner, channel_preset="werner")
            assert spec_from_dict(json.loads(json.dumps(spec_to_dict(spec)))) == spec
        qr, ql = MODE_WEIGHTS["bsma"]
        spec = basic_spec(qr=qr, ql=ql, unruh_mode="bsma")
        assert spec_from_dict(json.loads(json.dumps(spec_to_dict(spec)))) == spec
        assert basic_spec(qr=0.6 + 0.8j, ql=0.0j, unruh_mode=None).unruh_mode is None


class TestSpecCanonicalForm:
    """``fixed`` given as (name, value) pairs takes the path a mapping takes, and an
    axis stores float bounds and an int count, so every spec has one stored form."""

    PAIRS = (("r", 0.1), ("phi", 0.5))

    def _spec(self, fixed, axes=(Axis("theta", 0.0, math.pi, 3),)):
        return basic_spec(axes=axes, fixed=fixed, channel_preset=None, unruh_mode=None)

    def test_pairs_give_the_spec_of_a_mapping(self):
        spec = self._spec(self.PAIRS)
        assert spec == self._spec(dict(self.PAIRS))
        assert spec.fixed == (("phi", 0.5), ("r", 0.1))
        assert spec_from_dict(json.loads(json.dumps(spec_to_dict(spec)))) == spec

    def test_a_list_of_pairs_is_hashable(self):
        spec = self._spec([list(pair) for pair in self.PAIRS])
        assert hash(spec) == hash(self._spec(dict(self.PAIRS)))

    def test_repeated_fixed_names_are_refused(self):
        for fixed in ((("phi", 0.5), ("r", 0.1), ("r", 0.2)), [("phi", 0.5), ("phi", 0.5)]):
            with pytest.raises(DomainError, match="repeat a name") as error:
                self._spec(fixed)
            assert "\n" not in str(error.value)

    def test_an_iterator_of_pairs_gives_the_spec_of_a_mapping(self):
        spec = figure_spec("1a", 3)
        assert dataclasses.replace(spec, fixed=iter(spec.fixed)) == spec
        assert self._spec(iter(self.PAIRS)) == self._spec(dict(self.PAIRS))

    def test_repeated_names_from_an_iterator_are_refused_by_their_pairs(self):
        pairs = [("phi", 0.5), ("r", 0.1), ("r", 0.2)]
        for fixed in (pairs, iter(pairs)):
            with pytest.raises(DomainError, match="repeat a name") as error:
                self._spec(fixed)
            assert "('r', 0.1), ('r', 0.2)" in str(error.value)
            assert "iterator" not in str(error.value)

    @pytest.mark.parametrize(
        "fixed,axes",
        [
            ((("phi", 1), ("r", 0.1)), (Axis("theta", 0.0, math.pi, 3),)),
            ({"phi": 0.5, "r": 0.1}, (Axis("theta", 0, 1, 3),)),
        ],
    )
    def test_booleans_and_integers_are_written_as_numbers(self, fixed, axes):
        spec = self._spec(fixed, axes)
        payload = json.loads(json.dumps(spec_to_dict(spec)))
        assert spec_from_dict(payload) == spec
        numbers = [*payload["fixed"].values(), payload["axes"][0]["start"],
                   payload["axes"][0]["stop"]]
        assert all(type(x) is float for x in numbers)
        assert type(spec.axes[0].start) is type(spec.axes[0].stop) is float

    def test_numpy_count_emits_json(self, tmp_path):
        axis = Axis("theta", 0.0, math.pi, np.int64(3))
        spec = self._spec(dict(self.PAIRS), (axis,))
        emit(spec, run_sweep(spec), "json", tmp_path / "sweep.json")
        assert type(axis.count) is int
        payload = json.loads((tmp_path / "sweep.json").read_text())
        assert payload["spec"]["axes"][0]["count"] == 3 and len(payload["rows"]) == 3


@pytest.mark.parametrize("build", [
    lambda: basic_spec(axes=None),
    lambda: basic_spec(axes=5),
    lambda: basic_spec(fixed=None),
    lambda: basic_spec(fixed=5),
    lambda: basic_spec(fixed=[("phi", 1.0, 2.0)]),
    lambda: SweepRows(None, np.ones(1), np.zeros(1, dtype=bool)),
    lambda: SweepRows(5, np.ones(1), np.zeros(1, dtype=bool)),
], ids=["axes-none", "axes-int", "fixed-none", "fixed-int", "fixed-triple", "points-none",
        "points-int"])
def test_containers_that_do_not_convert_are_refused(build):
    with pytest.raises(DomainError, match="must be a"):
        build()
