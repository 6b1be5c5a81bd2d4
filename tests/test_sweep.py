import dataclasses
import importlib
import itertools
import json
import math

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
from unruh_teleport.sweep import (
    FIGURE_PRESETS,
    SweepRow,
    SweepRows,
    parse_csv_rows,
    parse_json_rows,
    rows_to_csv,
    rows_to_json,
    spec_from_dict,
    spec_to_dict,
)

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
        assert len(rows) == 25
        for row in rows:
            theta, r = row.coords
            assert abs(row.fisher - math.cos(r) ** 2) < 1e-9

    def test_two_point_axis(self):
        spec = basic_spec(axes=(Axis("r", 0.0, math.pi / 4, 2),), fixed={"theta": 1.0, "phi": 0.5})
        rows = run_sweep(spec)
        assert len(rows) == 2
        assert rows[0].coords == (0.0,)
        assert rows[1].coords == (math.pi / 4,)

    def test_lexicographic_ordering_outer_axis_first(self):
        rows = run_sweep(basic_spec())
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
        assert run_sweep(basic_spec()) == run_sweep(basic_spec())


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
        assert len(rows) == 64 * 64
        values = np.array([row.fisher for row in rows])
        assert np.all(np.isfinite(values))

    def test_unknown_figure(self):
        with pytest.raises(DomainError):
            figure_spec("7a")


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
        assert parse_csv_rows(rows_to_csv(spec, rows)) == rows

    def test_json_roundtrip_bit_exact(self):
        spec = basic_spec()
        rows = run_sweep(spec)
        assert parse_json_rows(rows_to_json(spec, rows)) == rows

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
        assert parse_csv_rows(target.read_text(encoding="utf-8")) == rows

    def test_emit_rejects_empty(self, tmp_path):
        spec = basic_spec()
        with pytest.raises(DomainError):
            emit(spec, [], "csv", tmp_path / "nothing.csv")

    def test_unknown_format(self):
        from unruh_teleport.sweep import render_rows

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
    for row in rows:
        cells = [format(float(x), ".17g") for x in (*row.coords, row.fisher)]
        cells.append("true" if row.pure_branch else "false")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _reference_json(spec, rows):
    """The whole payload through ``json.dumps(..., indent=2)``."""
    entries = [
        {**dict(zip(spec.axis_names, row.coords)), "fisher": row.fisher,
         "pure_branch": row.pure_branch}
        for row in rows
    ]
    return json.dumps({"spec": spec_to_dict(spec), "rows": entries}, indent=2) + "\n"


class TestRenderContract:
    """The one-template renderers write exactly the bytes of the references above."""

    SPECS = {
        "one-axis": dict(
            axes=(Axis("r", 0.0, math.pi / 4, 2),),
            fixed={"theta": 1.0, "phi": 0.5},
            qr=0.6 + 0.0j,
            ql=0.48 + 0.64j,
            channel_preset=None,
            unruh_mode=None,
        ),
        "two-axis": {},
    }

    @pytest.mark.parametrize("name", SPECS)
    @pytest.mark.parametrize("flags", ("mixed", "all-true", "all-false", "empty"))
    def test_bytes_match_reference(self, name, flags):
        spec = basic_spec(**self.SPECS[name])
        coords = list(itertools.product(AWKWARD, repeat=len(spec.axes)))
        pure = {"mixed": [i % 3 == 0 for i in range(len(coords))],
                "all-true": [True] * len(coords),
                "all-false": [False] * len(coords),
                "empty": []}[flags]
        rows = [SweepRow(c, AWKWARD[-1 - i % len(AWKWARD)], b)
                for i, (c, b) in enumerate(zip(coords, pure))]
        assert rows_to_csv(spec, rows) == _reference_csv(spec, rows)
        assert rows_to_json(spec, rows) == _reference_json(spec, rows)
        assert parse_csv_rows(rows_to_csv(spec, rows)) == rows
        assert parse_json_rows(rows_to_json(spec, rows)) == rows

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
        hand_built = [SweepRow((0.0,), 1.0, False), SweepRow((0.1,), value, False)]
        columns = SweepRows(((0.0, 0.1),), np.array([1.0, value]), np.array([False, False]))
        for rows in (hand_built, columns):
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
        hand_built = [SweepRow((0.0,), 1.0, False), SweepRow((value,), 2.0, False)]
        columns = SweepRows(((0.0, value),), np.array([1.0, 2.0]), np.array([False, False]))
        for rows in (hand_built, columns):
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


class TestSweepRows:
    """``run_sweep`` returns the kernel's columns as a read-only sequence of rows."""

    def _rows_and_reference(self):
        spec = basic_spec()
        rows = run_sweep(spec)
        grid = itertools.product(*(np.linspace(a.start, a.stop, a.count) for a in spec.axes))
        reference = [SweepRow((float(t), float(r)), f, b) for (t, r), f, b
                     in zip(grid, rows.fisher.tolist(), rows.pure.tolist())]
        return rows, reference

    def test_length_index_slice_and_iteration(self):
        rows, reference = self._rows_and_reference()
        assert len(rows) == len(reference) == 25
        assert 0 < sum(row.pure_branch for row in reference) < 25
        for i in range(-25, 25):
            assert rows[i] == reference[i] and type(rows[i]) is SweepRow, i
        for i in (25, -26):
            with pytest.raises(IndexError):
                rows[i]
        for cut in (slice(None), slice(3, 11), slice(-4, None), slice(None, None, -3),
                    slice(20, 2, -7), slice(30, 40)):
            assert rows[cut] == reference[cut], cut
        assert list(rows) == reference
        assert all(type(x) is float for row in rows for x in (*row.coords, row.fisher))

    def test_equal_to_the_list_of_its_rows_both_ways(self):
        rows, reference = self._rows_and_reference()
        assert rows == reference and reference == rows
        assert not (rows != reference or reference != rows)
        assert rows == run_sweep(basic_spec())
        changed = list(reference)
        changed[7] = changed[7]._replace(fisher=changed[7].fisher + 1e-12)
        assert rows != changed and changed != rows
        assert rows != reference[:-1] and reference[:-1] != rows
        assert rows != tuple(reference)

    def test_read_only(self):
        rows, _ = self._rows_and_reference()
        with pytest.raises(ValueError):
            rows.fisher[0] = 1.0
        with pytest.raises(ValueError):
            rows.pure[0] = True
        with pytest.raises(TypeError):
            rows[0] = SweepRow((0.0, 0.0), 1.0, False)

    def test_emit_refuses_an_empty_sweep(self, tmp_path, capsys):
        empty = SweepRows(((),), np.array([]), np.array([], dtype=bool))
        for rows in ([], empty):
            with pytest.raises(DomainError, match="empty"):
                emit(basic_spec(), rows, "json", tmp_path / "nothing.json")
            with pytest.raises(DomainError, match="empty"):
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
    assert len(rows) == math.prod(axis.count for axis in spec.axes)
    for row in rows:
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
        # With the 1e-5 step, the narrow axes mix points that take a
        # one-sided stencil (within a step of an edge) with central ones.
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

    def test_named_presets_and_modes_load(self):
        for fidelity in (0.0, 0.37, 1.0):
            werner = preset_dyadic("werner", fidelity=fidelity)
            spec = basic_spec(dyadic=werner, channel_preset="werner")
            assert spec_from_dict(json.loads(json.dumps(spec_to_dict(spec)))) == spec
        qr, ql = MODE_WEIGHTS["bsma"]
        spec = basic_spec(qr=qr, ql=ql, unruh_mode="bsma")
        assert spec_from_dict(json.loads(json.dumps(spec_to_dict(spec)))) == spec
        assert basic_spec(qr=0.6 + 0.8j, ql=0.0j, unruh_mode=None).unruh_mode is None
