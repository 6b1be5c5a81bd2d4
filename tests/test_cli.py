import hashlib
import importlib
import json
import math

import numpy as np
import pytest

from unruh_teleport import InputState, fisher, mode_params, preset_dyadic
from unruh_teleport.cli import main, parse_angle, parse_complex
from unruh_teleport.errors import DomainError
from unruh_teleport.sweep import FIGURE_IDS


class TestAngleParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("pi", math.pi),
            ("pi/4", math.pi / 4),
            ("3pi/2", 3 * math.pi / 2),
            ("2pi", 2 * math.pi),
            ("-pi/4", -math.pi / 4),
            ("0.5", 0.5),
            ("1e-3", 1e-3),
            ("PI/8", math.pi / 8),
        ],
    )
    def test_accepted_forms(self, text, expected):
        assert parse_angle(text) == expected

    def test_rejects_garbage(self):
        with pytest.raises(DomainError):
            parse_angle("tau/4")
        with pytest.raises(DomainError, match="zero denominator"):
            parse_angle("pi/0")


class TestComplexParsing:
    def test_forms(self):
        assert parse_complex("0.6+0.8i") == 0.6 + 0.8j
        assert parse_complex("1") == 1.0 + 0.0j
        assert parse_complex("0.5j") == 0.5j

    def test_rejects_garbage(self):
        with pytest.raises(DomainError):
            parse_complex("one half")


class TestChannelCommand:
    def test_json_output(self, capsys):
        code = main(["channel", "--preset", "bell-phi-plus", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["physical"] is True
        assert payload["channel"] == {"preset": "bell-phi-plus", "c11": 1.0, "c22": -1.0, "c33": 1.0}
        assert payload["density"][0][0] == [0.5, 0.0]

    def test_accelerated_block(self, capsys):
        code = main(
            ["channel", "--preset", "bell-psi-minus", "--r", "pi/4", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["unruh"]["mode"] == "wsma"
        b6 = payload["coefficients"]["b6"]
        assert abs(b6[0] - (-math.sqrt(2) / 4)) < 1e-12
        assert payload["coefficients"]["b7"] == b6  # real weights, conjugate pair

    def test_text_output(self, capsys):
        code = main(["channel", "--c11", "-0.9", "--c22", "-0.8", "--c33", "-0.7"])
        assert code == 0
        out = capsys.readouterr().out
        assert "physical: True" in out
        assert "density:" in out

    def test_unphysical_custom_channel_reported(self, capsys):
        code = main(["channel", "--c11", "1", "--c22", "1", "--c33", "1", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["physical"] is False


class TestTeleportCommand:
    def test_json_matches_library(self, capsys):
        code = main(
            [
                "teleport",
                "--theta",
                "pi/2",
                "--phi",
                "0",
                "--preset",
                "bell-phi-plus",
                "--r",
                "0",
                "--format",
                "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["outcome_prob"] - 0.25) < 1e-12
        assert abs(payload["bloch"]["sx"] - 1.0) < 1e-12
        assert abs(payload["rho_normalized"][0][1][0] - 0.5) < 1e-12

    def test_text_output(self, capsys):
        code = main(
            ["teleport", "--theta", "1", "--phi", "2", "--preset", "werner", "--fidelity",
             "0.8", "--r", "pi/8", "--mode", "bsma"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "outcome probability: 0.25" in out
        assert "bloch vector:" in out


class TestFisherCommand:
    def test_matches_library(self, capsys):
        code = main(
            ["fisher", "--param", "theta", "--theta", "pi/3", "--phi", "pi/4",
             "--preset", "bell-phi-plus", "--r", "pi/8"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        expected = fisher(
            InputState(math.pi / 3, math.pi / 4),
            preset_dyadic("bell-phi-plus"),
            mode_params(math.pi / 8, "wsma"),
            "theta",
        )
        assert payload["value"] == expected.value
        assert payload["norm"] == "normalized"
        assert payload["pure_branch"] == expected.pure_branch

    def test_as_published_and_fd(self, capsys):
        code = main(
            ["fisher", "--param", "r", "--norm", "as-published", "--method", "fd",
             "--theta", "1", "--phi", "1", "--preset", "bell-psi-minus", "--r", "0.3"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "fd"
        assert payload["fd_step"] == 1e-5

    def test_analytic_json_echoes_arguments(self, capsys):
        code = main(
            ["fisher", "--param", "phi", "--norm", "as-published", "--theta", "1", "--phi", "1",
             "--preset", "bell-phi-plus", "--r", "0.3"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["param"], payload["norm"], payload["method"]) == (
            "phi", "as-published", "analytic"
        )
        assert payload["fd_step"] is None

    def test_r_from_acceleration_triple(self, capsys):
        accel = math.pi / math.log(2.0)
        code = main(
            ["fisher", "--param", "theta", "--theta", "1", "--phi", "1",
             "--preset", "bell-phi-plus", "--omega", "1", "--accel", str(accel), "--c", "1"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["point"]["r"] - math.atan(0.5)) < 1e-12


class TestSweepCommand:
    def test_csv_to_stdout(self, capsys):
        code = main(
            ["sweep", "--param", "theta", "--grid", "r=0:pi/4:3", "--theta", "1",
             "--phi", "pi/4", "--preset", "bell-phi-plus"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "r,fisher,pure_branch"
        assert len(lines) == 4

    def test_two_axes_and_out_file(self, tmp_path, capsys):
        target = tmp_path / "data.json"
        code = main(
            ["sweep", "--param", "theta", "--grid", "theta=0:pi:3,r=0:pi/4:3",
             "--phi", "pi/4", "--preset", "bell-phi-plus", "--format", "json",
             "--out", str(target)]
        )
        assert code == 0
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert len(payload["rows"]) == 9

    def test_spec_file_round_trip(self, tmp_path, capsys):
        target = tmp_path / "data.json"
        code = main(
            ["sweep", "--param", "phi", "--grid", "phi=0:2pi:4", "--theta", "pi/4",
             "--r", "pi/8", "--preset", "bell-psi-minus", "--mode", "bsma",
             "--format", "json", "--out", str(target)]
        )
        assert code == 0
        payload = json.loads(target.read_text(encoding="utf-8"))
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(payload["spec"]), encoding="utf-8")
        code = main(["sweep", "--spec", str(spec_file), "--format", "json"])
        assert code == 0
        rerun = json.loads(capsys.readouterr().out)
        assert rerun["rows"] == payload["rows"]

    @pytest.mark.parametrize("grid", ["theta=0:pi:3,", ",theta=0:pi:3, ,"])
    def test_empty_grid_chunks_are_skipped(self, grid, capsys):
        argv = ["sweep", "--param", "theta", "--phi", "1", "--r", "0.1",
                "--preset", "bell-phi-plus", "--grid"]
        assert main([*argv, "theta=0:pi:3"]) == 0
        expected = capsys.readouterr().out
        assert main([*argv, grid]) == 0
        assert capsys.readouterr().out == expected

    def test_grid_of_empty_chunks_is_one_line_error(self, capsys):
        argv = ["sweep", "--param", "theta", "--grid", ",", "--phi", "1", "--r", "0.1",
                "--preset", "bell-phi-plus"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: a sweep takes 1 or 2 axes, got 0\n"

    def test_missing_fixed_value(self, capsys):
        code = main(
            ["sweep", "--param", "theta", "--grid", "theta=0:pi:3", "--phi", "1",
             "--preset", "bell-phi-plus"]
        )
        assert code == 1

    def test_spec_conflicts_with_flags(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text("{}", encoding="utf-8")
        code = main(["sweep", "--spec", str(spec_file), "--param", "theta"])
        assert code == 1


class TestFiguresCommand:
    def test_small_grid_csv(self, capsys):
        code = main(["figures", "--id", "1a", "--grid", "5"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "theta,r,fisher,pure_branch"
        assert len(lines) == 26

    def test_list(self, capsys):
        code = main(["figures", "--list"])
        assert code == 0
        out = capsys.readouterr().out
        for fig_id in ("1a", "3c", "6d"):
            assert fig_id in out

    def test_id_required(self, capsys):
        assert main(["figures"]) == 1

    def test_list_to_out_file_gets_the_stdout_bytes(self, tmp_path, capsys):
        assert main(["figures", "--list"]) == 0
        printed = capsys.readouterr().out
        target = tmp_path / "listed.txt"
        assert main(["figures", "--list", "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_bytes() == printed.encode("utf-8")

    @pytest.mark.parametrize("fmt", ("csv", "json"))
    def test_stdout_and_out_file_get_the_same_bytes(self, fmt, tmp_path, capsys):
        argv = ["figures", "--id", "1b", "--grid", "8", "--format", fmt]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        target = tmp_path / f"1b.{fmt}"
        assert main([*argv, "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_bytes() == printed.encode("utf-8")

    @pytest.mark.parametrize("fig_id", FIGURE_IDS)
    def test_spec_block_reruns_byte_identically(self, fig_id, tmp_path, capsys):
        assert main(["figures", "--id", fig_id, "--grid", "3", "--format", "json"]) == 0
        emitted = capsys.readouterr().out
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(json.loads(emitted)["spec"]), encoding="utf-8")
        assert main(["sweep", "--spec", str(spec_file), "--format", "json"]) == 0
        assert capsys.readouterr().out == emitted


class TestVerifyCommand:
    def test_small_run_contains_all_sections(self, capsys):
        code = main(["verify", "--trials", "3", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        for marker in ("[1]", "[2]", "[3]", "[4]", "[5]", "[6]"):
            assert marker in out
        assert "result: PASS" in out

    def test_deterministic(self, capsys):
        assert main(["verify", "--trials", "5", "--seed", "9"]) == 0
        first = capsys.readouterr().out
        assert main(["verify", "--trials", "5", "--seed", "9"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_trials_validated(self, capsys):
        assert main(["verify", "--trials", "0"]) == 1


class TestExitCodes:
    def test_missing_channel_is_validation_error(self, capsys):
        assert main(["fisher", "--param", "theta", "--theta", "1", "--phi", "1", "--r", "0"]) == 1

    def test_bad_angle_is_validation_error(self, capsys):
        assert main(["teleport", "--theta", "frog", "--phi", "0",
                     "--preset", "bell-phi-plus", "--r", "0"]) == 1

    def test_conflicting_r_flags(self, capsys):
        assert main(["fisher", "--param", "theta", "--theta", "1", "--phi", "1",
                     "--preset", "bell-phi-plus", "--r", "0", "--omega", "1",
                     "--accel", "1", "--c", "1"]) == 1

    def test_qr_without_ql(self, capsys):
        assert main(["teleport", "--theta", "1", "--phi", "1",
                     "--preset", "bell-phi-plus", "--r", "0", "--qr", "1"]) == 1

    def test_unnormalized_weights(self, capsys):
        assert main(["teleport", "--theta", "1", "--phi", "1", "--preset", "bell-phi-plus",
                     "--r", "0", "--qr", "0.707", "--ql", "0.707"]) == 1

    def test_unwritable_destination_is_io_error(self, capsys):
        code = main(
            ["sweep", "--param", "theta", "--grid", "r=0:pi/4:2", "--theta", "1",
             "--phi", "1", "--preset", "bell-phi-plus",
             "--out", "/nonexistent-dir/sweep.csv"]
        )
        assert code == 3

    def test_bare_invocation_is_one_line_error(self, capsys):
        assert main([]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the following arguments are required: command\n"

    def test_consistency_failure_is_exit_2(self, monkeypatch, capsys):
        # The Fisher kernel's branch entries get a NaN off-diagonal.
        fisher_module = importlib.import_module("unruh_teleport.fisher")
        original = fisher_module._branch_entries

        def nan_entries(**p):
            r00, r01, r10, r11 = original(**p)
            return r00, r01 * np.nan, r10, r11

        monkeypatch.setattr(fisher_module, "_branch_entries", nan_entries)
        with np.errstate(invalid="ignore"):
            code = main(["fisher", "--param", "theta", "--theta", "1", "--phi", "1",
                         "--r", "0.1", "--preset", "bell-phi-plus"])
        assert code == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == ""
        assert len(lines) == 1 and lines[0].startswith("internal consistency failure:")

    def test_explicit_weights_accepted(self, capsys):
        code = main(
            ["fisher", "--param", "r", "--theta", "1", "--phi", "1",
             "--preset", "bell-phi-plus", "--r", "0.2",
             "--qr", "0.6+0.8i", "--ql", "0"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["unruh"]["qr"] == [0.6, 0.8]


def _spec_payload(**changes):
    payload = {
        "estimand": "theta",
        "norm": "normalized",
        "method": "analytic",
        "channel": {"preset": "bell-phi-plus", "c11": 1.0, "c22": -1.0, "c33": 1.0},
        "unruh": {"mode": "wsma", "qr": [1.0, 0.0], "ql": [0.0, 0.0]},
        "axes": [{"name": "r", "start": 0.0, "stop": 0.5, "count": 3}],
        "fixed": {"theta": 1.0, "phi": 1.0},
    }
    return {**payload, **changes}


POINT = ["--theta", "1", "--phi", "1", "--r", "0.1"]
UNPHYSICAL = ["--c11", "1", "--c22", "1", "--c33", "1"]
FD = ["fisher", "--param", "theta", *POINT, "--preset", "bell-phi-plus", "--method", "fd"]


class TestInputBoundary:
    """Every bad input ends in exit 1 and a single ``error:`` line; good ones still run."""

    @pytest.mark.parametrize(
        "argv,spec",
        [
            (["sweep", "--param", "theta", "--grid", "theta=0:pi:abc", "--phi", "1",
              "--r", "0", "--preset", "bell-phi-plus"], None),
            (["sweep"], _spec_payload(channel={"c11": "x", "c22": -1.0, "c33": 1.0})),
            (["sweep"], _spec_payload(axes=[{"name": "r", "start": 0, "stop": 1, "count": "x"}])),
            (["sweep"], _spec_payload(fixed=[])),
            (["fisher", "--param", "theta", *POINT, *UNPHYSICAL], None),
            (["teleport", *POINT, *UNPHYSICAL], None),
            ([*FD, "--fd-step", "0"], None),
            ([*FD, "--fd-step", "nan"], None),
            ([*FD, "--fd-step=-1e-5"], None),
            ([*FD, "--fd-step", "0.3"], None),
            (["figures", "--id", "1a", "--grid", "100000"], None),
            (["verify", "--seed", "-5"], None),
            (["fisher", "--param", "theta", *POINT, "--preset", "bell-phi-plus",
              "--qr", "nan", "--ql", "0"], None),
            (["sweep"], _spec_payload(fixed={"theta": 1.0, "phi": 1.0, "bogus": 7})),
            (["sweep"], _spec_payload(axes=[{"name": "r", "start": 0, "stop": 0.5, "count": 3.9}])),
            (["sweep", "--theta", "1"], _spec_payload()),
            (["sweep", "--c11", "0.5"], _spec_payload()),
            (["sweep", "--fidelity", "0.5"], _spec_payload()),
            (["sweep", "--mode", "bsma"], _spec_payload()),
            (["sweep", "--qr", "1", "--ql", "0"], _spec_payload()),
            (["sweep", "--param", "theta", "--grid", "theta=0:pi:3", "--theta", "1", "--phi", "1",
              "--r", "0", "--preset", "bell-phi-plus"], None),
            (["fisher", "--param", "theta", *POINT, "--preset", "bell-phi-plus",
              "--fidelity", "0.3"], None),
            (["teleport", *POINT, "--c11", "-0.5", "--c22", "-0.5", "--c33", "-0.5",
              "--fidelity", "0.5"], None),
            (["verify", "--trials", str(2**20 + 1)], None),
            (["sweep", "--norm", "as-published"], _spec_payload()),
            (["sweep", "--method", "fd"], _spec_payload()),
            (["fisher", "--param", "theta", "--theta", "pi/0", "--phi", "1", "--r", "0.1",
              "--preset", "bell-phi-plus"], None),
            (["sweep", "--param", "theta", "--grid", "theta=0:pi/0:3", "--phi", "1",
              "--r", "0", "--preset", "bell-phi-plus"], None),
            (["sweep"], _spec_payload(
                channel={"preset": "bogus", "c11": 1.0, "c22": -1.0, "c33": 1.0})),
            (["sweep"], _spec_payload(
                channel={"preset": "bell-psi-minus", "c11": 1.0, "c22": -1.0, "c33": 1.0})),
            (["sweep"], _spec_payload(
                channel={"preset": "werner", "c11": -0.5, "c22": -0.5, "c33": -0.4})),
            (["sweep"], _spec_payload(
                channel={"preset": "werner", "c11": 0.3, "c22": 0.3, "c33": 0.3})),
            (["sweep"], _spec_payload(
                unruh={"mode": "bogus", "qr": [1.0, 0.0], "ql": [0.0, 0.0]})),
            (["sweep"], _spec_payload(
                unruh={"mode": "bsma", "qr": [1.0, 0.0], "ql": [0.0, 0.0]})),
            (["sweep"], _spec_payload(unruh={"qr": "1", "ql": [0.0, 0.0]})),
            (["sweep"], _spec_payload(unruh={"qr": [0.6], "ql": [0.8, 0.0]})),
            (["sweep"], _spec_payload(figure="bogus")),
            (["sweep"], _spec_payload(figure="1a")),
            (["channel", "--preset", "bell-phi-plus", "--mode", "bsma"], None),
            (["channel", "--preset", "bell-phi-plus", "--qr", "5", "--ql", "0"], None),
            (["figures", "--list", "--id", "1a", "--grid", "1"], None),
            (["fisher", "--param", "theta", *POINT, "--preset", "bell-phi-plus",
              "--c11", "0.5"], None),
            (["fisher", "--param", "theta", *POINT, "--preset", "bell-phi-plus",
              "--mode", "bsma", "--qr", "1", "--ql", "0"], None),
            (["channel", "--preset", "bell-phi-plus", "--omega", "1", "--accel", "2"], None),
            (["teleport", "--theta", "1", "--phi", "1", "--preset", "bell-phi-plus"], None),
            (["fisher", "--param", "r", "--theta", "1", "--phi", "1",
              "--preset", "bell-phi-plus"], None),
            (["sweep", "--grid", "theta=0:pi:3", "--phi", "1", "--r", "0",
              "--preset", "bell-phi-plus"], None),
            (["sweep", "--param", "theta", "--phi", "1", "--r", "0",
              "--preset", "bell-phi-plus"], None),
            (["sweep"], _spec_payload(fixed={}, axes=[
                {"name": name, "start": 0.0, "stop": 0.5, "count": 2}
                for name in ("theta", "phi", "r")])),
            (["figures", "--list", "--format", "json"], None),
            (["figures", "--list", "--grid", "8"], None),
            (["figures", "--list", "--norm", "normalized"], None),
            (["figures", "--list", "--method", "fd"], None),
            (["fisher", "--param", "theta", *POINT, "--preset", "bell-phi-plus",
              "--fd-step", "0.3"], None),
        ],
        ids=[
            "axis-count", "spec-c11", "spec-count", "spec-fixed", "fisher-unphysical",
            "teleport-unphysical", "fd-step-zero", "fd-step-nan", "fd-step-negative",
            "fd-step-too-large", "grid-too-large", "negative-seed", "nan-weight",
            "spec-unknown-fixed", "spec-count-float", "spec-with-theta",
            "spec-with-c11", "spec-with-fidelity", "spec-with-mode", "spec-with-weights",
            "swept-and-fixed", "fidelity-with-bell", "fidelity-with-x-state", "trials-too-many",
            "spec-with-norm", "spec-with-method", "angle-zero-denominator",
            "grid-zero-denominator", "spec-unknown-preset", "spec-preset-mismatch",
            "spec-werner-mismatch", "spec-werner-positive", "spec-unknown-mode",
            "spec-mode-mismatch", "spec-weight-string", "spec-weight-short",
            "spec-unknown-figure", "spec-figure-mismatch", "channel-mode-without-r",
            "channel-weights-without-r", "figures-list-with-id", "preset-with-coefficients",
            "mode-with-weights", "partial-triple", "teleport-without-acceleration",
            "fisher-without-acceleration", "sweep-without-param", "sweep-without-grid",
            "spec-three-axes", "figures-list-with-format", "figures-list-with-grid",
            "figures-list-with-norm", "figures-list-with-method", "fd-step-with-analytic",
        ],
    )
    def test_one_line_error(self, argv, spec, tmp_path, capsys):
        if spec is not None:
            spec_file = tmp_path / "spec.json"
            spec_file.write_text(json.dumps(spec), encoding="utf-8")
            argv = [*argv, "--spec", str(spec_file)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["figures", "--list", "--method", "fd", "--id", "1a"],
             "--id, --method not read with --list"),
            (["sweep", "--qr", "1", "--format", "json", "--theta", "1", "--grid", "r=0:1:2"],
             "--grid, --theta, --qr not read with --spec"),
            (["teleport", *POINT, "--c33", "0", "--fidelity", "0.5", "--preset", "bell-phi-plus"],
             "--fidelity, --c33 not read with --preset bell-phi-plus"),
            (["channel", "--preset", "werner", "--fidelity", "0.5", "--c11", "0", "--r", "0"],
             "--c11 not read with --preset werner"),
            (["fisher", "--param", "r", "--theta", "1", "--phi", "1", "--preset", "bell-phi-plus",
              "--c", "1", "--r", "0.1", "--omega", "1"], "--omega, --c not read with --r"),
            (["channel", "--preset", "bell-phi-plus", "--ql", "0", "--mode", "wsma"],
             "--mode, --ql not read without --r or --omega/--accel/--c"),
            (["fisher", "--param", "theta", "--fd-step", "1e-4", *POINT,
              "--preset", "bell-phi-plus"], "--fd-step not read with --method analytic"),
        ],
        ids=["list", "spec", "preset", "werner", "r", "no-acceleration", "fd-step"],
    )
    def test_unread_flags_are_named_in_parser_order(self, argv, message, tmp_path, capsys):
        if argv[0] == "sweep":
            spec_file = tmp_path / "spec.json"
            spec_file.write_text(json.dumps(_spec_payload()), encoding="utf-8")
            argv = [*argv, "--spec", str(spec_file)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_spec_file_not_utf8(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_bytes(b"\xff\xfe\x00")
        assert main(["sweep", "--spec", str(spec_file)]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1 and lines[0].startswith("error:")

    def test_sweep_flags_default_to_normalized_analytic(self, capsys):
        argv = ["sweep", "--param", "theta", "--grid", "theta=0:pi:3", "--phi", "1",
                "--r", "0.1", "--preset", "bell-phi-plus", "--format", "json"]
        assert main(argv) == 0
        spec = json.loads(capsys.readouterr().out)["spec"]
        assert (spec["norm"], spec["method"]) == ("normalized", "analytic")

    def test_channel_still_reports_unphysical(self, capsys):
        assert main(["channel", *UNPHYSICAL, "--r", "0.1"]) == 0
        assert "physical: False" in capsys.readouterr().out

    def test_largest_fd_step_keeps_r_stencils_in_domain(self, capsys):
        for r in ("0", "pi/8", "pi/4"):
            argv = ["fisher", "--param", "r", "--theta", "1", "--phi", "1", "--r", r,
                    "--preset", "bell-phi-plus", "--method", "fd", "--fd-step", repr(math.pi / 12)]
            assert main(argv) == 0
            assert math.isfinite(json.loads(capsys.readouterr().out)["value"])


def test_cli_choices_are_library_tuples():
    from unruh_teleport.channels import PRESET_NAMES
    from unruh_teleport.cli import REPORT_FORMATS, build_parser
    from unruh_teleport.fisher import METHOD_NAMES, NORM_NAMES, PARAM_NAMES
    from unruh_teleport.sweep import FIGURE_IDS, FORMATS
    from unruh_teleport.unruh import MODE_NAMES

    expected = {
        "param": PARAM_NAMES,
        "norm": NORM_NAMES,
        "method": METHOD_NAMES,
        "preset": PRESET_NAMES,
        "mode": MODE_NAMES,
        "id": FIGURE_IDS,
    }
    subparsers = build_parser()._subparsers._group_actions[0].choices
    seen = set()
    for name, sub in subparsers.items():
        for action in sub._actions:
            if action.choices is None:
                continue
            if action.dest == "format":
                assert action.choices in (FORMATS, REPORT_FORMATS), name
                continue
            assert action.choices is expected[action.dest], (name, action.dest)
            seen.add(action.dest)
    assert seen == set(expected)


# SHA-256 of `figures` outputs, pinned at the one-template renderer that the
# columnar renderer replaced: all 16 figures as published (analytic) at 64^2
# in both formats, and normalized fd sweeps with an r axis, which take the
# pure branch and both one-sided r stencils.
FIGURE_SHA256 = {
    ('--id', '1a', '--grid', '64', '--format', 'csv'):
        "6446f41a1b331c673c50a337d9d82b1d1d487519913a8f1d1ea0ca15fe9d830f",
    ('--id', '1a', '--grid', '64', '--format', 'json'):
        "e7665cafb00bbddaea79979202d3b287f09d503f0bb721064075aa3ad1e67e63",
    ('--id', '1b', '--grid', '64', '--format', 'csv'):
        "1ed2b21d68fd343054af8b9447c9148ce6644f1fabdab8d4b8f945be49ff3023",
    ('--id', '1b', '--grid', '64', '--format', 'json'):
        "01fcfd92eeef41a1e32a669137e736c775c834b690e055516c4e047c0208c939",
    ('--id', '2a', '--grid', '64', '--format', 'csv'):
        "19ae07556f06a09239c70bc03bab4e729631041e301524e442cebf7452a84f21",
    ('--id', '2a', '--grid', '64', '--format', 'json'):
        "f7abd494bd1ca696bc149b89b2f36896e5f0d76bad5c8d5608a6cf7684c6b93d",
    ('--id', '2c', '--grid', '64', '--format', 'csv'):
        "a4ce415813675019b67979d470ee01473c17f14d63e661b1a2ca9d582a22b639",
    ('--id', '2c', '--grid', '64', '--format', 'json'):
        "0b75ee07e52912f2b85a8133d1d74d2c11b891b2e49eb897387c4a6ad67e7fd8",
    ('--id', '3a', '--grid', '64', '--format', 'csv'):
        "7127219bf2331f7e88a74135a01156aa497b150bbfdf8ccb839dfe30d406bb0c",
    ('--id', '3a', '--grid', '64', '--format', 'json'):
        "f59a1026dc649c8359c75beca328dd3a0946d06aa39d59541571cd88bcce237f",
    ('--id', '3c', '--grid', '64', '--format', 'csv'):
        "17831e36a87df7aac346cc42eae4fbf8909f9232f6b1f50c1a981c535f5acac4",
    ('--id', '3c', '--grid', '64', '--format', 'json'):
        "37c9a4e4cf23598d61f4e7f9bdf9b45bcc31d14b5a9405fad6dfd8d05fdd016d",
    ('--id', '4a', '--grid', '64', '--format', 'csv'):
        "6d4553182ed60e580e5418fe7e4424b770bf2cb5367ba61296e7663badc942f1",
    ('--id', '4a', '--grid', '64', '--format', 'json'):
        "d73416b84c77cc1faf0d6d5aaf0982d275019a775d556ee14b4138a80666cb55",
    ('--id', '4b', '--grid', '64', '--format', 'csv'):
        "468e0a3ab6c4a21b3da0d6be12c12902175c62dcf256e1c3763f3e947685c045",
    ('--id', '4b', '--grid', '64', '--format', 'json'):
        "817e84fe88c3c1645c263fae4b90165f5d00c95a3a2fbaed101c6c47ea411525",
    ('--id', '4c', '--grid', '64', '--format', 'csv'):
        "cb28e5260f217b9dc320cc8e07017798c47104c06356832ffe967c4a8acb1580",
    ('--id', '4c', '--grid', '64', '--format', 'json'):
        "59e320b11719efa1794a76f24ddd39f63e8260e1b35b2fa385d0286cee655236",
    ('--id', '4d', '--grid', '64', '--format', 'csv'):
        "39a892c7432e2d4ab9eac40cc62c8b3adada6940e0da11127b66094775b7eb55",
    ('--id', '4d', '--grid', '64', '--format', 'json'):
        "5fa7ffb6e0a322d184ae5df005a5403b4386d1c3e9000c839bc8184c07cde199",
    ('--id', '5a', '--grid', '64', '--format', 'csv'):
        "ebf117863b426356b125dff2ac58ff374f47ad1e5b92a0c4f196fa00ec9b4729",
    ('--id', '5a', '--grid', '64', '--format', 'json'):
        "6405add1246fd71cd91fad84684636ef1c339c04b4adc20839fb974558d14f1a",
    ('--id', '5c', '--grid', '64', '--format', 'csv'):
        "3f667cdc6729cd4692bf68c32adc84ca5639b3eb732bd396df5b9d28e42f5475",
    ('--id', '5c', '--grid', '64', '--format', 'json'):
        "56bf9b4a5effb81322961e4036761df3a861c7ea97ba54d0ad780f795b189a64",
    ('--id', '6a', '--grid', '64', '--format', 'csv'):
        "19732114d23a0fe5c2b7e6e91a61dbc8a882555acc004205738faa5fda2bc23a",
    ('--id', '6a', '--grid', '64', '--format', 'json'):
        "1ee610e3013faffd1dccdf42e9d0300ead57c805b798b1b996677da43b10b06f",
    ('--id', '6b', '--grid', '64', '--format', 'csv'):
        "0b851642fcb212930d56a0242720bd1d5494d2ec52c97095c147c89dc1c83d81",
    ('--id', '6b', '--grid', '64', '--format', 'json'):
        "27b0f2b9c7da9adb7edfa509a3f2e75a07498d71b53a890cd4ddf6bfae43eb8a",
    ('--id', '6c', '--grid', '64', '--format', 'csv'):
        "abf9aaee938e69d3718de283f2ff8520e67c3f4f8cef9072258c77232ed17773",
    ('--id', '6c', '--grid', '64', '--format', 'json'):
        "9888c82879fa96844a758464dcb8fc56a40e2c242238b57ff43b99c4d9c1f1da",
    ('--id', '6d', '--grid', '64', '--format', 'csv'):
        "be2e8cf3c6a7808a1c7689cc469f84eb1534477a277f160a4fc75f74a716c580",
    ('--id', '6d', '--grid', '64', '--format', 'json'):
        "94c1bf9c66185dbc1cad89303f6be4e83d9e906023a4217f5834980f68631ed7",
    ('--id', '1a', '--grid', '48', '--format', 'json', '--norm', 'normalized', '--method', 'fd'):
        "807c5501e72c41ed2bc2eda84d1ed3c62211aa1c04b9d2762486d1a1e32aa132",
    ('--id', '4b', '--grid', '48', '--format', 'json', '--norm', 'normalized', '--method', 'fd'):
        "48b4024405767eef5e06604055887b435ffbd6363784463b274e6763b1935d62",
    ('--id', '6c', '--grid', '48', '--format', 'json', '--norm', 'normalized', '--method', 'fd'):
        "8004da82d448baed0ab2901d0f8d006397cff8feed60a98b1955b9c8808edede",
}


@pytest.mark.parametrize(
    "argv", list(FIGURE_SHA256), ids=lambda argv: "-".join(a.lstrip("-") for a in argv)
)
def test_figure_outputs_are_pinned(argv, capsys):
    assert main(["figures", *argv]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == FIGURE_SHA256[argv]


@pytest.mark.parametrize("fig_id", FIGURE_IDS)
def test_figure_defaults_are_grid_64_csv(fig_id, capsys):
    assert main(["figures", "--id", fig_id]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == FIGURE_SHA256["--id", fig_id, "--grid", "64", "--format", "csv"]


# Inputs of the pinned single-point reports: every channel preset, every way
# of giving the mode weights, and both ways of giving the acceleration.
REPORT_CHANNELS = {
    "bell-phi-plus": ["--preset", "bell-phi-plus"],
    "bell-psi-minus": ["--preset", "bell-psi-minus"],
    "werner": ["--preset", "werner", "--fidelity", "0.8"],
    "x-state": ["--preset", "x-state", "--c11", "-0.9", "--c22", "-0.8", "--c33", "-0.7"],
}
REPORT_WEIGHTS = {
    "wsma": ["--mode", "wsma"],
    "bsma": ["--mode", "bsma"],
    "qr-ql": ["--qr", "0.8", "--ql", "0.36+0.48i"],
}
REPORT_ACCELERATIONS = {
    "r": ["--r", "0.3"],
    "triple": ["--omega", "1", "--accel", "2", "--c", "1"],
}
REPORT_POINT = ["--theta", "pi/3", "--phi", "pi/5", "--r", "0.3"]


def _report_cases():
    cases = {"figures-list": ["figures", "--list"]}
    for preset, channel in REPORT_CHANNELS.items():
        for fmt in ("text", "json"):
            cases[f"channel-{preset}-{fmt}"] = ["channel", *channel, "--format", fmt]
        for weight, weights in REPORT_WEIGHTS.items():
            for fmt in ("text", "json"):
                for accel, acceleration in REPORT_ACCELERATIONS.items():
                    cases[f"channel-{preset}-{accel}-{weight}-{fmt}"] = [
                        "channel", *channel, *acceleration, *weights, "--format", fmt]
                cases[f"teleport-{preset}-{weight}-{fmt}"] = [
                    "teleport", *REPORT_POINT, *channel, *weights, "--format", fmt]
            for param in ("theta", "phi", "r"):
                for method in ("analytic", "fd"):
                    for norm in ("normalized", "as-published"):
                        cases[f"fisher-{preset}-{weight}-{param}-{method}-{norm}"] = [
                            "fisher", "--param", param, "--method", method, "--norm", norm,
                            *REPORT_POINT, *channel, *weights]
    return cases


REPORT_CASES = _report_cases()

# SHA-256 of stdout for REPORT_CASES, pinned before the report commands were
# rebuilt on one resolver per input group and one writer.
REPORT_SHA256 = {
    "figures-list":
        "ecd5816f94c6b6ecff2af48ee69f53333cd187143e919c3125f7744d07476895",
    "channel-bell-phi-plus-text":
        "b9d8139ee2021d0c2c1e95fde8f07aac05203a51384d4725e1ff23ab8bdfc2b7",
    "channel-bell-phi-plus-json":
        "29f36d48d6392f12dc50165bdea6d55d21717bffd2ba86ec1c9289c31a8c2cb7",
    "channel-bell-phi-plus-r-wsma-text":
        "31337fa9e09aeaf9b533971a5b150b7a79dd4be84a33bb407ab11bb9d7137f89",
    "channel-bell-phi-plus-triple-wsma-text":
        "7e885932bfc655e1d1523e1126d0b1d89781d82fd2c0d31942154efcba1e5a3f",
    "teleport-bell-phi-plus-wsma-text":
        "f09b0f9bbd7f57ce62dc0dfed9624eda874fc4a456a555c923245b5bf41fd035",
    "channel-bell-phi-plus-r-wsma-json":
        "fdea659478e87bbb9e693bf44d50ecf83dd1424150c64b1a3632aa330d7fa135",
    "channel-bell-phi-plus-triple-wsma-json":
        "0ccaf3591388f563fdf0450942dc2d32c5d8bafb18153288b925d24a513c3a6d",
    "teleport-bell-phi-plus-wsma-json":
        "ce1092a91d95539a03bb5042905be40b95df19677879c6f9560007b3038f685b",
    "fisher-bell-phi-plus-wsma-theta-analytic-normalized":
        "d2891edcefcba13c6da7221acc0d17e9385df9dc956a7f778a6595ceba959d3e",
    "fisher-bell-phi-plus-wsma-theta-analytic-as-published":
        "da1d14bb7eb5dd25d3d1a28faf6492f91922feaf2b3dc408588d4ae10d58688e",
    "fisher-bell-phi-plus-wsma-theta-fd-normalized":
        "c80ef84ab1cf2efdba35c37cd96fb259ae264f48195790b5a1eb165de20cd223",
    "fisher-bell-phi-plus-wsma-theta-fd-as-published":
        "13f5ba7946a6031e345bd699ddeb1a961da40049ba14a0d2443aa492e464ae24",
    "fisher-bell-phi-plus-wsma-phi-analytic-normalized":
        "15cd4981e39eb9dfbcc33ba1074d595057c5794d868a0ffb9101443f47548963",
    "fisher-bell-phi-plus-wsma-phi-analytic-as-published":
        "36c3b7803d873735eed323a3b80e5a3a7cc12085794ab8bd775c2e611941de96",
    "fisher-bell-phi-plus-wsma-phi-fd-normalized":
        "32856d1c9cab30988babc42f4c0483b9e9d43056f49ea2ed587cf4e4f5e8658e",
    "fisher-bell-phi-plus-wsma-phi-fd-as-published":
        "dfd232e70b2254ada8cda08ff00f4132964a230d137e28c6149ef61be842d2dd",
    "fisher-bell-phi-plus-wsma-r-analytic-normalized":
        "0b245fbd88b508533d548294af71f5565b940ba0eea2499d41d62dba49ae0ae6",
    "fisher-bell-phi-plus-wsma-r-analytic-as-published":
        "e031818eebb55a2977e04aa97d7dea429c8f35c8a7ad0f8e99f209fe2019a800",
    "fisher-bell-phi-plus-wsma-r-fd-normalized":
        "7ac4ba0c7fa9402a77fb7fb3571677183e17066e6d757293f91f67502d8be1da",
    "fisher-bell-phi-plus-wsma-r-fd-as-published":
        "6e88a9dadd81585262c9449b8194d00d6032f6a51cc87b46bc1d4ba1daa91536",
    "channel-bell-phi-plus-r-bsma-text":
        "fb233318d32e9ad9bc40cbafaed7334e83d7a9eea9ba976c61379b7311940f97",
    "channel-bell-phi-plus-triple-bsma-text":
        "d57297cea5094d4db4e0f73df176b4e576599379dc99540c23c1be4c2f6cab23",
    "teleport-bell-phi-plus-bsma-text":
        "c0374bfb5607e61bf07533f5d2f120e2102e0341d9d731319d395da0cae942f2",
    "channel-bell-phi-plus-r-bsma-json":
        "d9e1cacb41e25d5b10dd88f50d2ddd3fd6f2cb44dc9e168975d6dc335b0e1111",
    "channel-bell-phi-plus-triple-bsma-json":
        "257c09be7262cb1f7fd9eac3e9ab19a9b6b4da14cc86678e963049b746c78b8b",
    "teleport-bell-phi-plus-bsma-json":
        "52d6f051ad20cbfb7853ab32b35ff5b7674870ce5c0af830bfde195afba0c2f7",
    "fisher-bell-phi-plus-bsma-theta-analytic-normalized":
        "dd0a30e5c1b072fbbeb603df34052061273bfe306773cb12e5334789abd71361",
    "fisher-bell-phi-plus-bsma-theta-analytic-as-published":
        "8a02ab4d7f680129714b1cfe1aab670f219647ae76d09ebebc8c9f61f2d6b1da",
    "fisher-bell-phi-plus-bsma-theta-fd-normalized":
        "c3419e727b3004b539541756bf8765131954252b56c3bca792df0c928fc6f208",
    "fisher-bell-phi-plus-bsma-theta-fd-as-published":
        "6f756704a06322948145536ba35d01421a5e9026c97328d11c569c4dee17bef3",
    "fisher-bell-phi-plus-bsma-phi-analytic-normalized":
        "6125df6b55151c91f7d6b0653bf16c4b153042614fb32186c9933e7a561af7a0",
    "fisher-bell-phi-plus-bsma-phi-analytic-as-published":
        "1f4d61f4cf5aec2d23cbfa0dda88c15b221db8d000ff6795efac0de30387af16",
    "fisher-bell-phi-plus-bsma-phi-fd-normalized":
        "130d33b427efdc106b87899fc1933d2f8e46b0a6ab033b77db603fd2340716ec",
    "fisher-bell-phi-plus-bsma-phi-fd-as-published":
        "974c43e5f26c7d40d92e222d9778a198490664d718252cd3ffa8acb4a65c06e6",
    "fisher-bell-phi-plus-bsma-r-analytic-normalized":
        "d9812cfce01046124e84306200214c6423eb16fb13633d64dcf1fe3c94b523df",
    "fisher-bell-phi-plus-bsma-r-analytic-as-published":
        "b2b960672b2f51bf4a05b76d1f655428e0680fe2773058e277dd27d1cfa16b83",
    "fisher-bell-phi-plus-bsma-r-fd-normalized":
        "d5d565f5d77dc35683a79e61db30a6d0449fc0ab8dda86786961fbebdc89f63e",
    "fisher-bell-phi-plus-bsma-r-fd-as-published":
        "e0d53d43aeae466250d3038bd47b3b5d86ca2b2b297b12ff432d80b88586c441",
    "channel-bell-phi-plus-r-qr-ql-text":
        "2cb14e48d95647f568d7b282f50fb1829032fdc18142d6e89e7d5156c1b3df43",
    "channel-bell-phi-plus-triple-qr-ql-text":
        "d5723ecbd652c0ec699662ea684f43d81ea1ea9d4225c29ac9f0097a9f048ac9",
    "teleport-bell-phi-plus-qr-ql-text":
        "7fcc923e52ca9bc285e1fbec1cec22fea278d2162840499ae863eea9233e12ca",
    "channel-bell-phi-plus-r-qr-ql-json":
        "1ba8c8cc165fba4e0dcf1804cbd1987baa9af3adc1a8bf11b061ea03663daa38",
    "channel-bell-phi-plus-triple-qr-ql-json":
        "90d762ce114b5c644548f3b2f0565a8127c1404d1fd59eef4c814e935d21d4d3",
    "teleport-bell-phi-plus-qr-ql-json":
        "286a5a64f3768811ac19babe8e7241e26693e3ef95383982069dfbe30cc17bb5",
    "fisher-bell-phi-plus-qr-ql-theta-analytic-normalized":
        "3b629404cd277d6eaf9583ff77d2042568933a7f581781b076a99787714f10f9",
    "fisher-bell-phi-plus-qr-ql-theta-analytic-as-published":
        "24637b3adaa2d6ec8b1ab402c1c04c8caa2712a27edf5ae25b8bdcfef5e5a73b",
    "fisher-bell-phi-plus-qr-ql-theta-fd-normalized":
        "3eecc6be5a560ca27ffd720b93f314c0f41d4c2d3075bfefc5e37b50ad376a96",
    "fisher-bell-phi-plus-qr-ql-theta-fd-as-published":
        "97937c1f6c9252bbc53a0fccab11881a7e2801348f2c924edf753bcd88389e88",
    "fisher-bell-phi-plus-qr-ql-phi-analytic-normalized":
        "f4d6f643c2612c04387bd286319fdfa6dd07f0dabe661fd49ac36c2ac1b1008c",
    "fisher-bell-phi-plus-qr-ql-phi-analytic-as-published":
        "90ab767240ff43fbc6a3fb34e613eb1f2fe80110dfdc0760291fd740343dca31",
    "fisher-bell-phi-plus-qr-ql-phi-fd-normalized":
        "a5dc618080a610a5fe573979868b907a689897ba439082fd84e2aeeafecc0b08",
    "fisher-bell-phi-plus-qr-ql-phi-fd-as-published":
        "4aab3e6e8d74ef1cd21b672f6b73f9f7d6ca5c93968cf80a75642922d6170d55",
    "fisher-bell-phi-plus-qr-ql-r-analytic-normalized":
        "1391e93211dc129b59aedc5ab0efde4198aafc164bf08fe4cd5752cef2ef2938",
    "fisher-bell-phi-plus-qr-ql-r-analytic-as-published":
        "edf1186201801cb89239449b892f8098ac4ac82c5a15283e1df6265b61560909",
    "fisher-bell-phi-plus-qr-ql-r-fd-normalized":
        "4a0aaf2b0145c177dc77c309e034bb193040d96e830787c932c57c90d5e3ae33",
    "fisher-bell-phi-plus-qr-ql-r-fd-as-published":
        "9353f5f6547ca160e8e82e99ee7c4a73083800ee7a49d03c645eed5652c4fee2",
    "channel-bell-psi-minus-text":
        "2b56f3cd90e173c445c63a21dc5a1d77776f2e96aab0bfdba2be4893afc644d2",
    "channel-bell-psi-minus-json":
        "6f37f56e60740a5a8fa90e48b2fcaa199bbc966fc881d614378a5820af86b773",
    "channel-bell-psi-minus-r-wsma-text":
        "61887d7ae46c22db4156a4c0f84c1763b19e6d0ec71018bc82ffb669faca1320",
    "channel-bell-psi-minus-triple-wsma-text":
        "2efd3b8a4bbf174daef4014449fca8fe896be8851e8385fc4b4dcb3fde418894",
    "teleport-bell-psi-minus-wsma-text":
        "5fc9f86be76ab9281b2a8fdde2a050db5fccbf27824d854593c8fc60c08b0783",
    "channel-bell-psi-minus-r-wsma-json":
        "b12c26b0431112e33900958e7698ea734b672f322755293fef11eb53950d59a2",
    "channel-bell-psi-minus-triple-wsma-json":
        "3a0d7fb3d70856c35b7690b319d995bf91e5fdbd126f2fb949681c25b1ada91f",
    "teleport-bell-psi-minus-wsma-json":
        "0b413489190c4bb1426421a0b2e475afcbe80a3feb2c66fcb00f1979a45ebe7d",
    "fisher-bell-psi-minus-wsma-theta-analytic-normalized":
        "78b906a2db1531e1934efaed6fbc4941d8e5469eb557a223f59a9446eb8e0dc7",
    "fisher-bell-psi-minus-wsma-theta-analytic-as-published":
        "947431891ccd45e5d31c977454bffcb102924898110395a5a0ededdabe06365d",
    "fisher-bell-psi-minus-wsma-theta-fd-normalized":
        "eefac4c4de16699bc5067be83e4ae16baef1ec85d448b301a892d307a4a1667b",
    "fisher-bell-psi-minus-wsma-theta-fd-as-published":
        "04fed51439eb50dd1594055e7f816ef77d2279335133828dcb11defd286bddba",
    "fisher-bell-psi-minus-wsma-phi-analytic-normalized":
        "873e5d087f726b3bd0edc1cebc7f69436389e002442a2267af220e9fff134774",
    "fisher-bell-psi-minus-wsma-phi-analytic-as-published":
        "b225f60525f3c512cbd54039b0aa5ff874a7f490bff1b74c41100b102cc89cd3",
    "fisher-bell-psi-minus-wsma-phi-fd-normalized":
        "c2ab4cfe2cd07088f3d06e58eb4ad0f1b111a970b5a10b496eacd2bfff066ee1",
    "fisher-bell-psi-minus-wsma-phi-fd-as-published":
        "e57ec5270945dbe2160e0507a4c4ff4d927f961d7d2815867d20692cb5a10eb8",
    "fisher-bell-psi-minus-wsma-r-analytic-normalized":
        "0d390f16c16388ea1a6d0737958d388d1a454ff64fb94e776fa5e81ef6da00ee",
    "fisher-bell-psi-minus-wsma-r-analytic-as-published":
        "0f6dd5b0c8e0484aa6239f1e04d445ee5bb4c47544732fa9db5a84ee4b30b194",
    "fisher-bell-psi-minus-wsma-r-fd-normalized":
        "f7a8493790457bb5de869c8bc8d81c6be996d5ef4d90817346b87ba8314d0198",
    "fisher-bell-psi-minus-wsma-r-fd-as-published":
        "3811d742cabb4f284d37a3aa98355ffdcc1bc67358021c28723e24ecb6dc80fb",
    "channel-bell-psi-minus-r-bsma-text":
        "8fcf9bec37f3e43f9a4599472432fd716a218d763dc3ba5d0e545a29c9e47187",
    "channel-bell-psi-minus-triple-bsma-text":
        "780502abf522984941c0ac315241c02c21168648fb90dbb6fd93a5e460b1ce29",
    "teleport-bell-psi-minus-bsma-text":
        "b0b357ea32bcb80bedc5ae9e05720c8d287ecbb8894910bd53c540ed066dd53f",
    "channel-bell-psi-minus-r-bsma-json":
        "1f545d0306b4e5d2428ae41898ce5bd48f04db1573689a7aef956d7424e137e4",
    "channel-bell-psi-minus-triple-bsma-json":
        "698a4ed086c8bf7f044afd476f2a27a52d4220e4c21c98601b367138de628dff",
    "teleport-bell-psi-minus-bsma-json":
        "e9bbdda85bfd6878d90f67a6754baf3901aa1cd743a5e71ed4556f1b3075d82e",
    "fisher-bell-psi-minus-bsma-theta-analytic-normalized":
        "289e553700b1ae8f48d649fa3d1c189f28cc71ca957a32dc8085400429cb3017",
    "fisher-bell-psi-minus-bsma-theta-analytic-as-published":
        "f7df358dc52cd2d403ae481eb94df1e75125ac959ab4046bf3d629da3a2bd23c",
    "fisher-bell-psi-minus-bsma-theta-fd-normalized":
        "55693455644d4815af9bbd85623269fd394737450ad2f07e31d5367aef093803",
    "fisher-bell-psi-minus-bsma-theta-fd-as-published":
        "c4908af070d0ac83483a0631d838fc188cb98839adaab3e438c8756c759c96e0",
    "fisher-bell-psi-minus-bsma-phi-analytic-normalized":
        "e9f65ff6118d007f4ef6eea4c82097f02e20b806d26991931e855d05b93a24ab",
    "fisher-bell-psi-minus-bsma-phi-analytic-as-published":
        "21e37e37c172319a36a4a47f163394475ff772db8859f592540a5ec63cc60ec3",
    "fisher-bell-psi-minus-bsma-phi-fd-normalized":
        "55d4f39966766dcde7f6ee83510088a6b0b9d70ed68bd82a5a5f285e5d39b322",
    "fisher-bell-psi-minus-bsma-phi-fd-as-published":
        "b9f405c6a804e96a6e62e19b045f0caceb97e44ae894cdc7fca1512becd4a3da",
    "fisher-bell-psi-minus-bsma-r-analytic-normalized":
        "db983034fa28d7e59d1e1e36cd01d15c172404eb04bcacd3348d0c163f914243",
    "fisher-bell-psi-minus-bsma-r-analytic-as-published":
        "d06f457ba708e60f86905adc6031531fe1d14909cd7fd0acee1a993fec6ff8e1",
    "fisher-bell-psi-minus-bsma-r-fd-normalized":
        "90829fbca4975967f6dbe8390bdd45a1322e6dbbf4342fc3eb3f66321cf7b6c4",
    "fisher-bell-psi-minus-bsma-r-fd-as-published":
        "cde9490c5f8386a78025276d9163646182c18856df73ed6d11b211df9b76bb74",
    "channel-bell-psi-minus-r-qr-ql-text":
        "57fc66cd7368fe9b3da397f1ee6de9f6444afd7ab0c61a26d4b5bdaabcc43173",
    "channel-bell-psi-minus-triple-qr-ql-text":
        "0cccdc947b357fc3c104d14f8854de405c8eb061c10cce40a2190d907a23c412",
    "teleport-bell-psi-minus-qr-ql-text":
        "379f91f6b9d9ef9ffe7ba3ad84197b9e0ab834091407bcca612bb7f30a8da130",
    "channel-bell-psi-minus-r-qr-ql-json":
        "d6837b1ceed541dd3324f6f0cc0f525a3c59f401e00494927e21ff363a9403a8",
    "channel-bell-psi-minus-triple-qr-ql-json":
        "65cb4b4b7923c332db300f0ca394eab6c57072f084bf2ed936af8b08009a5d8c",
    "teleport-bell-psi-minus-qr-ql-json":
        "b168f94263b53d9a115d94c42ade8b034e4f29e313699da1f647b0aa609bac40",
    "fisher-bell-psi-minus-qr-ql-theta-analytic-normalized":
        "248259629b053712e21cda973590ca1d17da5cbb096986fca789c91af45fa220",
    "fisher-bell-psi-minus-qr-ql-theta-analytic-as-published":
        "be41acc1fe811c01fba689bc70c7fa0df55ceffe2f11b2b3cfc0507441b29c34",
    "fisher-bell-psi-minus-qr-ql-theta-fd-normalized":
        "4e7af094447980cf615dacb0e5f58562e39cae0f960830b2c596ab304b914bf9",
    "fisher-bell-psi-minus-qr-ql-theta-fd-as-published":
        "cad6ce188f60fedcf0bcd2492f6d4b92af440f30490bb3e5ac439a2fa5b6c463",
    "fisher-bell-psi-minus-qr-ql-phi-analytic-normalized":
        "b14d1a0e6fea8e2d26a8fc825086c9a8f2200cca99313640baa84790c99f48e5",
    "fisher-bell-psi-minus-qr-ql-phi-analytic-as-published":
        "612f19b7f890b690d01b6b7bd4f8b9c4a93d7f16d4771b8c4c944bd77dc7ca9f",
    "fisher-bell-psi-minus-qr-ql-phi-fd-normalized":
        "ffdb486020cb5a51a71cc6be6667318255f5890df11585ffa56dbd361529bb93",
    "fisher-bell-psi-minus-qr-ql-phi-fd-as-published":
        "176410c870413785e7c756a8341019d83725ad9495b6d6a3c012fe950e26dc7a",
    "fisher-bell-psi-minus-qr-ql-r-analytic-normalized":
        "c0e4218dafdf3404167569510071ab10a9ca66e5f1fdf5bfe9de63c419dd897c",
    "fisher-bell-psi-minus-qr-ql-r-analytic-as-published":
        "f98288702230476d940de9cbc31b4d5453f4a3cea14eecc2b4c5853a8afb6356",
    "fisher-bell-psi-minus-qr-ql-r-fd-normalized":
        "7ce8beed1a24d504df9cc9c0ae57729a8396ff420109bdd4840146e97752fd5f",
    "fisher-bell-psi-minus-qr-ql-r-fd-as-published":
        "89f230172425741b8b4691efa4a027f3ce47631192dfc7c18307526d7b2de620",
    "channel-werner-text":
        "357ee139e6766fb7ddea1f4a3489488cdb431c6a9ba532d23c3529f765bbacfa",
    "channel-werner-json":
        "ba0ee9abf7df09a73cab8d74defc809d62a6cbc2f7d3ff233f5ceaa166919488",
    "channel-werner-r-wsma-text":
        "6d9e59527f75e476b2cb840fc4ac510f22df330e36284260745173deed4e6046",
    "channel-werner-triple-wsma-text":
        "cbd2b8164e475d9c0f8870d10d322ebb161c687a0901adfb16d30ccd006886f9",
    "teleport-werner-wsma-text":
        "f47db22a2fcea9d41ec484bcd546f9073499cadb1b3b645a1d6cfacac034e91f",
    "channel-werner-r-wsma-json":
        "a8f2edae391e6077d9ea52c4cd8eeec742dadd7b4d86f438e97e34bdb1b54f33",
    "channel-werner-triple-wsma-json":
        "c1e1e91e9f993e348a298e35f9260635f4c16a2adb10902de9d4159768cff2bb",
    "teleport-werner-wsma-json":
        "0c8b009b95d4d9fe838b1a61da5478086be77cc140fc79e18311ec6b9bc045bb",
    "fisher-werner-wsma-theta-analytic-normalized":
        "6765502f7b02496ea61c3f4f7a87573c9879ac14614d790f7a1ca770dd8989ff",
    "fisher-werner-wsma-theta-analytic-as-published":
        "1f72657effd0b389470a3597207d0065fdcb28cd568af258a4c78cbbfbc6f59b",
    "fisher-werner-wsma-theta-fd-normalized":
        "ca8d2a2ae10bd977158362ab480177ad0842d54ef2a4089bea97917322a3bdac",
    "fisher-werner-wsma-theta-fd-as-published":
        "34f5ae70c426caf8ef91f61d31feb6e811b752ea85a3a210e2f45a9629498765",
    "fisher-werner-wsma-phi-analytic-normalized":
        "b5ac588c537a44e103ef8701f98e9296aadbea7bcf445d0d9fe727eb16bd39c8",
    "fisher-werner-wsma-phi-analytic-as-published":
        "11e225262f62128a7aa1e05c029be5d2c2f11fb9a00aec776ea43976ee07fdbe",
    "fisher-werner-wsma-phi-fd-normalized":
        "42ed4714d40a8b89f35aedd7a4775e0503cf1208d4b14f5b07fdd04d9d5a0a04",
    "fisher-werner-wsma-phi-fd-as-published":
        "cea226ffeafaf359310c2b608184d90776aae2b63fc9c84402250b3be0a45aed",
    "fisher-werner-wsma-r-analytic-normalized":
        "b91872093077e57bed1ca149c499119fc6a3f222ae46aadff66a39a136ef9fce",
    "fisher-werner-wsma-r-analytic-as-published":
        "417fe15c7d4f1a78a597c9f19c74ccaf5f31a9aa8478a0344b64bf98ca6d84d5",
    "fisher-werner-wsma-r-fd-normalized":
        "72662be4acd3f0bcbf241d30ac7030a6013a0dbb2bdf9100b186f81c8179ed5c",
    "fisher-werner-wsma-r-fd-as-published":
        "130bdfdd20459b35756c1732c6c275753710171f246a46b12c38ddfbdcf59bc8",
    "channel-werner-r-bsma-text":
        "ce1f7340a217f66da4d50a88f50860cc2dbf9c4cd97d83ca54f390ee2fe373fd",
    "channel-werner-triple-bsma-text":
        "8b83c5ec4c68412da61495589e63099ebd74a00a7738bb17c7e214c286a77609",
    "teleport-werner-bsma-text":
        "e55213a69cd79e0dd888300118f40b5439df862c3f244056532919e45cd66f6d",
    "channel-werner-r-bsma-json":
        "94b556ac4998c4c8ac46973ada8ac53a6a26631864a1ee467ed06f4cb8c7b440",
    "channel-werner-triple-bsma-json":
        "fea2a3276a66ec0bff783e851ff8b8c735e0eb511ac52946b1b76fa70a9d8219",
    "teleport-werner-bsma-json":
        "113c9c603e35988858ac335177af39a332fac4c90235fe18d77e6333908b9f89",
    "fisher-werner-bsma-theta-analytic-normalized":
        "374133eeaaf9badbf9a119bc8deedc38e8418cb6c752c527ba84a5a7f3234f58",
    "fisher-werner-bsma-theta-analytic-as-published":
        "0d68d08f8d8b1049b7ae7d2cd7a5af484668502ae182d03fa381c543966ac2f3",
    "fisher-werner-bsma-theta-fd-normalized":
        "e06a1eea6a90854d6011cbbae784c47cc6aa5a5f354547973f82134cb27c28c6",
    "fisher-werner-bsma-theta-fd-as-published":
        "03a0106e6d59f728f4a277da100fd755003d1b2ad18688de5f21286973d55895",
    "fisher-werner-bsma-phi-analytic-normalized":
        "e88cd23626f845f19785d32a2f22ab4e8df0d53073b0874982152399197b4576",
    "fisher-werner-bsma-phi-analytic-as-published":
        "d1346a3ce8157099bef5f36ba2b57905719715c752b108532ed289e2afc7762e",
    "fisher-werner-bsma-phi-fd-normalized":
        "0d757084652b49181e3fe576ee5396790fe5631d23ff3293a580d78070dc97d8",
    "fisher-werner-bsma-phi-fd-as-published":
        "6398f952f0707d36829f56afa9219bfbe592e1e721f8aab3ceb51cb2ee67c19f",
    "fisher-werner-bsma-r-analytic-normalized":
        "79c47dd779b861287d54d59ed861f3f9693656b0394d522ee6e74e6d3f94e630",
    "fisher-werner-bsma-r-analytic-as-published":
        "cf9f65fd5d3023548114c31bd4bc432187f5a02b14db779add54e7df3edba73d",
    "fisher-werner-bsma-r-fd-normalized":
        "d9f308ffe25c16443a489bdd277bf39118d49d5becbef7028acfe0b270ca01b2",
    "fisher-werner-bsma-r-fd-as-published":
        "dcec484e70b44b333e3afe2243963b45c375dc3473d049a8cdd9b95154a7458e",
    "channel-werner-r-qr-ql-text":
        "5c4c4f680af0562f16620737ff5f5a5aac17168e6107ce987909588e94ee591f",
    "channel-werner-triple-qr-ql-text":
        "eb544863d674b91eebb81fc82fb3b85bc685fa73004c1dc7799aaf80d4a1565b",
    "teleport-werner-qr-ql-text":
        "7eee10fa423e7ce77529a3203525d649886006ee40b5213e0a7dc30844240a7a",
    "channel-werner-r-qr-ql-json":
        "787855e469e5204a72beb70cae2cd6397a4d63e0285a3080ff08dbd3b8ac0bb1",
    "channel-werner-triple-qr-ql-json":
        "a4967640be1d2c271745b3a68be1352543f6268a28f84b1d29c4a2e325ed4884",
    "teleport-werner-qr-ql-json":
        "734b988e086eccbcbeae78308920681a8e5764b8bcdc0abf4391d6380927fad7",
    "fisher-werner-qr-ql-theta-analytic-normalized":
        "2a7c00681d435fa9b95dbf1ed95c70059a9ecc8f71ba4b9bf3e00cfe1f97dda3",
    "fisher-werner-qr-ql-theta-analytic-as-published":
        "30482d5530f75807a1fddb52887064d23578ebfceb806b6a945ec78ea7e21352",
    "fisher-werner-qr-ql-theta-fd-normalized":
        "10430d5f300263126bd00c8cb2f1d03993b48f90dddde682be2615974e42c37f",
    "fisher-werner-qr-ql-theta-fd-as-published":
        "91ca630e376e1c038e7154a87ff9db79cfbbb8aff1218314d709ddcf24cbbfd0",
    "fisher-werner-qr-ql-phi-analytic-normalized":
        "cdfeb55193003350cbe5af4a385f9bfbeacfc05a54f19982d31851d70dbe055c",
    "fisher-werner-qr-ql-phi-analytic-as-published":
        "155d6155b46abd4cf36f765ed0028bf3beb66bd31688301a5193284f67926afe",
    "fisher-werner-qr-ql-phi-fd-normalized":
        "f59556411cc0534de4b3dcdd9d1467bfc4e876b896b4550b36b9a1c52b232b3c",
    "fisher-werner-qr-ql-phi-fd-as-published":
        "a8bd7bc6de565ad85f2328fa97d20680c13aeab15915b0594451b1207cc8a368",
    "fisher-werner-qr-ql-r-analytic-normalized":
        "c8f5739cd55cacb45bb4d8fccc141d76427b427c604f334f3caebf72ee7cf59d",
    "fisher-werner-qr-ql-r-analytic-as-published":
        "ace27f4c8b508a23e753988222a815bb3eb55978b88118ece07fcea09008acca",
    "fisher-werner-qr-ql-r-fd-normalized":
        "eb378f96bc0c3882a41568949e64ef13798f1fb777932c9c8a479ea7a0c0a884",
    "fisher-werner-qr-ql-r-fd-as-published":
        "458ffef03385db90e27417bf705d55173aee9418f1b3371e8eb812a481b3237b",
    "channel-x-state-text":
        "66ac7d67bca498bd79db56e1422494c109189a94f57cc8ba46aff2400b52cb32",
    "channel-x-state-json":
        "60d65f13b414e444d4b1086ba7e125ea73bd50adf0762f06fb9ceeaf74658459",
    "channel-x-state-r-wsma-text":
        "79345337f4759219f396fd83c28c370f0e18f32ff3ce9a4b8b82aacecac20ede",
    "channel-x-state-triple-wsma-text":
        "9aa9b5c1896b4ed2d056965b0628f9c21227f4d03db5f55777b2aaf19b260f1a",
    "teleport-x-state-wsma-text":
        "37f11a5dfd9ab18271fc8adf78784260ed72a24f18ce44afc07319f97e477b63",
    "channel-x-state-r-wsma-json":
        "11590fd116a8e0c5bfecfe1b7e7e10f47f68c876804647b678d98582a84fc625",
    "channel-x-state-triple-wsma-json":
        "44544feed73940fc184bd2cb25ca9e5cd93548aef45e942365e5f2c9f67a594a",
    "teleport-x-state-wsma-json":
        "e40cbc049be6ccd8d3cdeaa4c3838f8547f6b58164de5092a45c74dd5466d24f",
    "fisher-x-state-wsma-theta-analytic-normalized":
        "c1d74d16cc00f4151b088cee5d811c2e579b98949c3cd5ad8d47f66679e2eac8",
    "fisher-x-state-wsma-theta-analytic-as-published":
        "7d50dd4ac2819d22fc399aa33933dd649eb0553beac7dc77a882ac7d598ae684",
    "fisher-x-state-wsma-theta-fd-normalized":
        "df13f8d3b4f3ed769135b7cbae64e118fcf4c09dc407af3ba0f9e19aecb4e6ae",
    "fisher-x-state-wsma-theta-fd-as-published":
        "b4addbf9d70a7180b845de2e43422e938c6c24b0c425e727a3ae34b7e52761e4",
    "fisher-x-state-wsma-phi-analytic-normalized":
        "72311b54f8d63ea8c9a12a22a44cb56b644d7576af3e505c2a2f7189e55054fc",
    "fisher-x-state-wsma-phi-analytic-as-published":
        "eadb8566f07aa674775a380663d956a99563c2a2b08cbb491e70beef43eff2f7",
    "fisher-x-state-wsma-phi-fd-normalized":
        "5828c176f409e487c6a5a8a07f51c5aecb4d0e9b3e766e51cec9cc1d36c3e36c",
    "fisher-x-state-wsma-phi-fd-as-published":
        "7ae3080fa518d13d44bca5212d2205a8be8e422440c697800bdf61179f4c1771",
    "fisher-x-state-wsma-r-analytic-normalized":
        "e98e4513ab82beb96b259e18f6c7a6bcc94a6d31bb39c575623f06e415240549",
    "fisher-x-state-wsma-r-analytic-as-published":
        "ab3a9b1e5dc3e00f1d87f4965579e7e5668241d7eada495a58a82b3f5fabcee6",
    "fisher-x-state-wsma-r-fd-normalized":
        "299d74b6be86fa2d2d45dcc2fd53eea6691ef559d8c8ff3996383099a870e0b6",
    "fisher-x-state-wsma-r-fd-as-published":
        "ec81f1f4aeea641fbb4185f7a4c761ebe12ba912008e2f10972a08a763c0cc9d",
    "channel-x-state-r-bsma-text":
        "d86afd46cb0c599906f321f6921fe3bab670015028ee8f26982dcfbe406145c4",
    "channel-x-state-triple-bsma-text":
        "b01a178933e45869a48c4d5fb055bd5993b89678421e4421550ca388be9697ae",
    "teleport-x-state-bsma-text":
        "a94cad92e755c992a16646bcc5c4ac32fc577cfe1d8acfa2d9876af1de4f429b",
    "channel-x-state-r-bsma-json":
        "30c4b7169747dd2e3958cebd871c90cacd2797e291e53c016360fbd36ae08fc3",
    "channel-x-state-triple-bsma-json":
        "c80d63073c17bb42bed460d5e6eaaf3a5213772be11c04bfd4e0bfcdaca215f0",
    "teleport-x-state-bsma-json":
        "7666db068765c85950e7b142b7d5d0bb680b3e56a941f83b8982b0d57b869188",
    "fisher-x-state-bsma-theta-analytic-normalized":
        "f82f6908d9bf19c8c12761680c335e502c345c10bcdab7e93c59b9cb8879ddd1",
    "fisher-x-state-bsma-theta-analytic-as-published":
        "8ca52f7bf3c1ce7baa8d56a2509858d23c548fb5792c2cc9d48a4e920d1cdd69",
    "fisher-x-state-bsma-theta-fd-normalized":
        "de692edb6866fda4a87fd339e9c6b349b3c38a8a9756ed698270ed0961cee8c9",
    "fisher-x-state-bsma-theta-fd-as-published":
        "f344fe4b5fea7b2696e7f86d93e0210c3e47258bebede75cd72308badec386c6",
    "fisher-x-state-bsma-phi-analytic-normalized":
        "11a5da9ff9e6a93e1318280daea8ae01ce10a2c8976551a09237555d64ff8894",
    "fisher-x-state-bsma-phi-analytic-as-published":
        "1a90c7eb6845f5f6df6a5c74f47aefaa4faf2abf06cc705b2238428a374410bd",
    "fisher-x-state-bsma-phi-fd-normalized":
        "e98af33b92b2f11666bc3c119d33de27423e16038a791391a25baa4018e77be9",
    "fisher-x-state-bsma-phi-fd-as-published":
        "9c0be2b3eb6bc0afe02bb265e8356612ed0635e4a1427936a424215da75ea7e2",
    "fisher-x-state-bsma-r-analytic-normalized":
        "fa01dd4f84b86e4a59ddd6159ecd685950f1dff5c81db81c00d93a0c6577a7ba",
    "fisher-x-state-bsma-r-analytic-as-published":
        "d27f761f5eee7b7f0aa18996fecd61569045ac6094564bb7de421514384fb322",
    "fisher-x-state-bsma-r-fd-normalized":
        "e388276c28c308a5b3ea4776c591481ff78b5d74c336126292e55a3e3d74ffe6",
    "fisher-x-state-bsma-r-fd-as-published":
        "d90cb6534b7b8710094a7c890f3d6a169aeb5c2475ad182c11f3b3736977ed1f",
    "channel-x-state-r-qr-ql-text":
        "c1f8844a286df696164dcf44cca36fb552bb00a0db441d2c925e3cb534be41a7",
    "channel-x-state-triple-qr-ql-text":
        "a00c24c834c8efa2964235cb1b3b071aa73237c8b9198fda28c1c722ca30dd85",
    "teleport-x-state-qr-ql-text":
        "e1dc736e8bec56a71a77c3bcf40abe769b95c24d5a97f1abb14b49d8c49b879b",
    "channel-x-state-r-qr-ql-json":
        "ba623c6bb35f3033219d620edc6ea4f4974bdf44d008d3ad8fddf438c29bc865",
    "channel-x-state-triple-qr-ql-json":
        "57906205ce1735289b20c2d23286feb871b143e24cc7bc4a022fb4ed9f1ef28c",
    "teleport-x-state-qr-ql-json":
        "f004a42b5866f7dc089563e99ffe09994df30c34ffc1dd39967b74243ad99a84",
    "fisher-x-state-qr-ql-theta-analytic-normalized":
        "431af0dfc50d944d23e5a5ca5e9cbbfdb21de6bf750d8e30b2791c43f18afb98",
    "fisher-x-state-qr-ql-theta-analytic-as-published":
        "4674219a4592c3faf2a19a32c852ebfd4b877dbf08a9917c53a4b9387319a964",
    "fisher-x-state-qr-ql-theta-fd-normalized":
        "eab70a2352957de57d2812834e5fd6f8fec13f79d3f3621eab976fd86f50fa18",
    "fisher-x-state-qr-ql-theta-fd-as-published":
        "3a64383ba31cc1b5cec6f4dd82359624dbe0c6117280a810af3ffa29b4d4558d",
    "fisher-x-state-qr-ql-phi-analytic-normalized":
        "e64e1a6d538e86c2efa92b705166525b37476c5a32b36704cbe53b46b1bd2b96",
    "fisher-x-state-qr-ql-phi-analytic-as-published":
        "c53e1fe215181d9ca7f23ea8b60af531e73df61c3e4734177fa25927b70141ee",
    "fisher-x-state-qr-ql-phi-fd-normalized":
        "5cc85904dd558d837a36cf8cbc8f5cc87490d0a74711a28019e77691f208391c",
    "fisher-x-state-qr-ql-phi-fd-as-published":
        "319cd7cb679b7943a5ee634839583977fd7f0be6726c21ede89f66d406b3342f",
    "fisher-x-state-qr-ql-r-analytic-normalized":
        "1a3a5210a08c7e0c37a9833d01a6960407437f7a430084f2099a142dd5557ca3",
    "fisher-x-state-qr-ql-r-analytic-as-published":
        "75fa21387d3eb15bc0019b440bb15e6d392a2f1a094de2df93e451ec3df1e980",
    "fisher-x-state-qr-ql-r-fd-normalized":
        "64edf80072fbd6d398928eb0f708283fcfbfc5ff7477617bf7058f3f7197fa30",
    "fisher-x-state-qr-ql-r-fd-as-published":
        "d5c833758e719e39664d7b448672cfcf9136176ae9cd83b6226295f091c36abf",
}


@pytest.mark.parametrize("case", list(REPORT_CASES))
def test_report_outputs_are_pinned(case, capsys):
    assert main(REPORT_CASES[case]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == REPORT_SHA256[case]
