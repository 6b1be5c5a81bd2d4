import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import unruh_teleport
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

    def test_only_a_trailing_i_is_the_imaginary_unit(self):
        assert parse_complex("inf") == complex("inf")
        z = parse_complex("nan+infi")
        assert math.isnan(z.real) and z.imag == math.inf
        assert parse_complex(" 0.6+0.8i ") == 0.6 + 0.8j

    @pytest.mark.parametrize("weight", ("inf", "-inf", "infi"))
    def test_infinite_weight_reaches_the_weight_check(self, weight, capsys):
        argv = ["fisher", "--param", "r", "--theta", "1", "--phi", "1", "--r", "0.1",
                "--preset", "bell-phi-plus", f"--qr={weight}", "--ql", "0"]
        assert main(argv) == 1
        assert "|qr|^2 + |ql|^2 must equal 1" in capsys.readouterr().err

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

    @pytest.mark.parametrize("omega,accel", [("1", "nan"), ("inf", "inf")])
    def test_undefined_acceleration_ratio_names_the_acceleration(self, omega, accel, capsys):
        # --r was never given, so the message must not be UnruhParams' range check on r.
        assert main(["channel", "--preset", "bell-phi-plus", "--omega", omega,
                     "--accel", accel, "--c", "1"]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == ""
        assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
        assert "accel" in lines[0] and "r must lie" not in lines[0]

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
        # The Fisher kernel's Bloch vectors get a NaN x component.
        fisher_module = importlib.import_module("unruh_teleport.fisher")
        original = fisher_module._branch_bloch

        def nan_bloch(**p):
            return [(np.nan * x, y, z) for x, y, z in original(**p)]

        monkeypatch.setattr(fisher_module, "_branch_bloch", nan_bloch)
        with np.errstate(invalid="ignore"):
            code = main(["fisher", "--param", "theta", "--theta", "1", "--phi", "1",
                         "--r", "0.1", "--preset", "bell-phi-plus"])
        assert code == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == ""
        assert len(lines) == 1 and lines[0].startswith("internal consistency failure:")

    def test_kernel_fault_in_a_figure_is_exit_2_and_writes_nothing(
            self, monkeypatch, capsys, tmp_path):
        # The NaN Bloch fault above, on the sweep path: run_sweep's finite check raises.
        fisher_module = importlib.import_module("unruh_teleport.fisher")
        original = fisher_module._branch_bloch
        monkeypatch.setattr(fisher_module, "_branch_bloch",
                            lambda **p: [(np.nan * x, y, z) for x, y, z in original(**p)])
        out = tmp_path / "F"
        with np.errstate(invalid="ignore"):
            code = main(["figures", "--id", "1a", "--grid", "4", "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("internal consistency failure:")
        assert captured.out == "" and not out.exists()

    def test_kernel_vector_past_the_unit_ball_is_exit_2(self, monkeypatch, capsys, tmp_path):
        # Normalized vectors scaled by 1.01 leave the unit ball at r = 0: the kernel marks
        # them NaN, a bug to report (exit 2), not a refusal of the user's input (exit 1).
        fisher_module = importlib.import_module("unruh_teleport.fisher")
        monkeypatch.setitem(fisher_module._MODE_SCALE, "normalized", 1.01)
        out = tmp_path / "F"
        code = main(["sweep", "--param", "theta", "--norm", "normalized",
                     "--grid", "theta=0:pi:4", "--phi", "1", "--r", "0",
                     "--preset", "bell-phi-plus", "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("internal consistency failure: Fisher information nan")
        assert not out.exists()

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
            (["sweep"], _spec_payload(estimand=None)),
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
            (["fisher", "--param", "r", *POINT, "--preset", "bell-phi-plus",
              "--qr", "1e200", "--ql", "0"], None),
            (["sweep"], _spec_payload(unruh={"qr": [1e200, 0.0], "ql": [0.0, 0.0]})),
            (["sweep"], _spec_payload(
                channel={"preset": "bell-phi-plus", "c11": "1", "c22": -1.0, "c33": 1.0})),
            (["sweep"], _spec_payload(
                axes=[{"name": "r", "start": False, "stop": 0.5, "count": 3}])),
            (["sweep"], _spec_payload(fixed={"theta": 1.0, "phi": "1"})),
            (["sweep"], _spec_payload(
                unruh={"mode": "wsma", "qr": [True, False], "ql": [0.0, 0.0]})),
            (["sweep"], _spec_payload(channel={"c11": 10**400, "c22": -1.0, "c33": 1.0})),
            (["sweep"], _spec_payload(fd_step=0.1)),
            (["sweep"], _spec_payload(axes=[{"name": "r", "start": 0.0, "stop": 0.5, "count": 3,
                                             "step": 5}])),
            (["sweep"], _spec_payload(
                unruh={"mode": "wsma", "qr": [1.0, 0.0], "ql": [0.0, 0.0], "r": 0.5})),
            (["sweep"], _spec_payload(channel={"preset": "werner", "c11": -0.9, "c22": -0.9,
                                               "c33": -0.9, "fidelity": 0.9})),
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
            "spec-unknown-figure", "spec-figure-mismatch", "spec-null-estimand",
            "channel-mode-without-r",
            "channel-weights-without-r", "figures-list-with-id", "preset-with-coefficients",
            "mode-with-weights", "partial-triple", "teleport-without-acceleration",
            "fisher-without-acceleration", "sweep-without-param", "sweep-without-grid",
            "spec-three-axes", "figures-list-with-format", "figures-list-with-grid",
            "figures-list-with-norm", "figures-list-with-method", "fd-step-with-analytic",
            "huge-weight", "spec-huge-weight", "spec-c11-string", "spec-start-bool",
            "spec-fixed-string", "spec-weight-bool", "spec-huge-integer",
            "spec-unknown-key", "spec-unknown-axis-key", "spec-unknown-unruh-key",
            "spec-unknown-channel-key",
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

    def test_largest_fd_step_at_r_edges(self, capsys):
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


ALL_COMMANDS = ["channel", "teleport", "fisher", "sweep", "figures", "verify"]


class TestParserScope:
    """``main`` parses every argv, from ``sys.argv`` too, with the one parser that holds
    all six subparsers, whatever its first word."""

    @staticmethod
    def _built(monkeypatch, argv):
        cli = importlib.import_module("unruh_teleport.cli")
        build, built = cli.build_parser, []
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(build()) or built[-1])
        try:
            cli.main(argv)
        except SystemExit:
            pass
        (parser,) = built
        return list(parser._subparsers._group_actions[0].choices)

    @pytest.mark.parametrize(
        "argv,names",
        [
            (["figures", "--list"], ALL_COMMANDS),
            (["channel", "--preset", "bell-phi-plus"], ALL_COMMANDS),
            (["sweep", "--bogus"], ALL_COMMANDS),
            (["bogus"], ALL_COMMANDS),
            ([], ALL_COMMANDS),
            (["-h", "figures"], ALL_COMMANDS),
            (["--", "figures"], ALL_COMMANDS),
        ],
    )
    def test_main_builds_the_named_subparser(self, argv, names, monkeypatch, capsys):
        assert self._built(monkeypatch, argv) == names

    def test_sys_argv_names_the_subparser(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.argv", ["unruh-teleport", "figures", "--list"])
        assert self._built(monkeypatch, None) == ALL_COMMANDS
        assert capsys.readouterr().out.startswith("1a: ")

    def test_build_parser_defaults_to_all_six(self):
        from unruh_teleport.cli import COMMANDS, build_parser

        assert list(COMMANDS) == ALL_COMMANDS
        assert list(build_parser()._subparsers._group_actions[0].choices) == ALL_COMMANDS


class TestParserReuse:
    """``build_parser`` is cached: every ``main`` call in a process reuses one parser,
    which gives the same exit code, stdout and stderr as a fresh one."""

    SWEEP = ["sweep", "--param", "theta", "--grid", "theta=0:pi:3", "--phi", "1", "--r", "0.1",
             "--preset", "bell-phi-plus"]
    CALLS = (
        SWEEP,
        ["sweep", "--param", "phi", "--grid", "r=0:pi/4:2", "--grid", "phi=0:pi:3",
         "--theta", "1", "--preset", "werner", "--fidelity", "0.8", "--format", "json"],
        ["sweep", "--grid"],
        ["figures", "-h"],
        ["verify", "--trials", "3"],
        SWEEP,
    )

    @staticmethod
    def _outcomes(capsys):
        outcomes = []
        for argv in TestParserReuse.CALLS:
            code = main(list(argv))
            outcomes.append((code, *capsys.readouterr()))
        return outcomes

    def test_reused_parsers_give_the_bytes_of_fresh_ones(self, monkeypatch, capsys):
        cli = importlib.import_module("unruh_teleport.cli")
        cli.build_parser.cache_clear()
        cached = self._outcomes(capsys)
        assert cli.build_parser.cache_info()[1:] == (1, None, 1)  # misses, maxsize, size
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        assert cached == self._outcomes(capsys)
        assert [code for code, _, _ in cached] == [0, 0, 1, 0, 0, 0]
        assert cached[0] == cached[-1]
        assert cached[2][2] == "error: argument --grid: expected one argument\n"

    def test_each_parser_is_built_once(self, capsys):
        cli = importlib.import_module("unruh_teleport.cli")
        cli.build_parser.cache_clear()
        for _ in range(20):
            assert main(["figures", "--list"]) == 0
        assert cli.build_parser.cache_info() == (19, 1, None, 1)  # hits, misses, maxsize, size
        for i in range(20):
            assert main([f"bogus-{i}"]) == 1
        assert cli.build_parser.cache_info() == (39, 1, None, 1)
        for command in (*ALL_COMMANDS, "-h", "--bogus"):
            main([command, "--bogus"])
        assert cli.build_parser.cache_info() == (47, 1, None, 1)

    def test_threads_share_the_parsers(self, tmp_path, capsys):
        # More threads than cores, switching often, starting from an empty cache: a race
        # may build the parser twice, but every call still writes the sequential bytes.
        cli = importlib.import_module("unruh_teleport.cli")
        calls = (
            ["figures", "--id", "1a", "--grid", "3"],
            ["sweep", "--grid", "r=0:pi/4:2", "--param", "theta", "--theta", "1", "--phi", "1",
             "--preset", "werner", "--fidelity", "0.9"],
            ["sweep", "--grid"],  # a usage error: --grid gets no value before --out
        )
        expected = []
        for k, argv in enumerate(calls):
            code = main([*argv, "--out", str(tmp_path / f"expected-{k}")])
            expected.append((code, (tmp_path / f"expected-{k}").read_bytes() if code == 0 else None))
        cli.build_parser.cache_clear()
        seen = {}

        def run(t):
            for j in range(9):
                k = (t + j) % len(calls)
                out = tmp_path / f"thread-{t}-{j}"
                code = main([*calls[k], "--out", str(out)])
                seen[t, j] = expected[k] == (code, out.read_bytes() if code == 0 else None)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(t,)) for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 36 and all(seen.values())
        assert cli.build_parser.cache_info().currsize == 1

    def test_import_builds_no_parser(self):
        probe = (
            "import argparse; made = []; init = argparse.ArgumentParser.__init__; "
            "argparse.ArgumentParser.__init__ = lambda self, *a, **k: made.append(self) or "
            "init(self, *a, **k); import unruh_teleport.cli as cli; "
            "print(len(made), cli.build_parser.cache_info().currsize)"
        )
        assert _run_probe(probe) == "0 0\n"


# SHA-256 of `figures` outputs, pinned at the one-template renderer that the
# columnar renderer replaced: all 16 figures as published (analytic) at 64^2
# in both formats, and normalized fd sweeps with an r axis, which take the
# pure branch and, for F_r (6c), central differences through both r edges.
FIGURE_SHA256 = {
    ('--id', '1a', '--grid', '64', '--format', 'csv'):
        "45c64621b3ae1f6a50ca133aad4b267f4c2bbc81883ded64538dba6d98400111",
    ('--id', '1a', '--grid', '64', '--format', 'json'):
        "81dde92b1db7e4939c2e76e499dc43c65ae1a31c5a136ec9c4349ce660892e6e",
    ('--id', '1b', '--grid', '64', '--format', 'csv'):
        "e97a5ba428d6c82e42ff66439ef70a1edc4033e4991af5ba7668ad316b8d2610",
    ('--id', '1b', '--grid', '64', '--format', 'json'):
        "9f095cfce1cdb9be49a948c0afb0c8481c310b5e833c8c9d1caa0ec50fc5c964",
    ('--id', '2a', '--grid', '64', '--format', 'csv'):
        "0a270c5a2159d6c29cd27786b9383bd824c09431ada69a7c2e7a63b62e826e2e",
    ('--id', '2a', '--grid', '64', '--format', 'json'):
        "9afa3c2b483db8480a0f2334709e7c305bc1d2d6f635f8ed15b3262cbafec579",
    ('--id', '2c', '--grid', '64', '--format', 'csv'):
        "3d6564137084d5e605573b82c220f9a1af8fb85d1bfafa9248d5c8f4e11bb3e9",
    ('--id', '2c', '--grid', '64', '--format', 'json'):
        "8aa31cee073a56d3f327cde055c921ea79f922546a958f9acabe226425e4abb0",
    ('--id', '3a', '--grid', '64', '--format', 'csv'):
        "fbe4f1d1a8ec451ee363d45b4db67ac06f819f15c2c6bd1fbba2ffc2c8fcbbc8",
    ('--id', '3a', '--grid', '64', '--format', 'json'):
        "a4cb98a91127213516f40a51069232560aa1249498f92d5371d4301d930b6113",
    ('--id', '3c', '--grid', '64', '--format', 'csv'):
        "2cec3ac306c5ed50e7c57f94d3854ec4fa35230d716fdb320e0ddeb76aadfda0",
    ('--id', '3c', '--grid', '64', '--format', 'json'):
        "30d4d69f836fa9b2ae6cdb1aa591f5f58fb0991b248742f08df61c2dc0f505f7",
    ('--id', '4a', '--grid', '64', '--format', 'csv'):
        "7fa29e8e9f810cfc97c69204644a38fdbfa2650faad633e31bfb9a20d0997c06",
    ('--id', '4a', '--grid', '64', '--format', 'json'):
        "21ddf842fe7aa0dc2848ae3e6675f053f14ddb0021f99e0eff53857e6d0ecdd4",
    ('--id', '4b', '--grid', '64', '--format', 'csv'):
        "2653ccccb6f09199300ed30a32aa8867bd25a1e54ff207911e93b98292eaf380",
    ('--id', '4b', '--grid', '64', '--format', 'json'):
        "399639d856e5f9999d19c49d9c9a7a2979d03bfbb685208e19ea10ec3232b381",
    ('--id', '4c', '--grid', '64', '--format', 'csv'):
        "73048cf980074535e5a5dc4da6c6f2a7e15b908c7e63f9a0594a88ecc6df0a5b",
    ('--id', '4c', '--grid', '64', '--format', 'json'):
        "becb10b8e25a089db48afa854a32ce4045729dd4f4235c948ed62dcbebcbe3b8",
    ('--id', '4d', '--grid', '64', '--format', 'csv'):
        "a1601b7d3f8ebe153081b5c35f8409b63fa354d0bc49370451bef50387a5d9d9",
    ('--id', '4d', '--grid', '64', '--format', 'json'):
        "e6583ebe93df79f77b2e19d00f550a11d75f2c4f080a1d3ee1acad2ce7d109a1",
    ('--id', '5a', '--grid', '64', '--format', 'csv'):
        "d5db04e218dcbac6fad76ced70c3b2e0878202295279f71d46bb6b0648c0aed8",
    ('--id', '5a', '--grid', '64', '--format', 'json'):
        "a375641712395e1f9899e384da537cf72b34f64ab0e4492d138d9be9f9c61e91",
    ('--id', '5c', '--grid', '64', '--format', 'csv'):
        "fd213967f752e5e10c3b9ee61c76cc6b6ec7e80d4702c3d77b1fb37f728a2305",
    ('--id', '5c', '--grid', '64', '--format', 'json'):
        "3a6af0860d2803e4d0d2e4ee0fcfced2f092b472f2adb0c36dba12ac8a036a7d",
    ('--id', '6a', '--grid', '64', '--format', 'csv'):
        "f6337cf62190c785cfbbee7c7ea775724a47bff58038e4c96aa91f6f29445921",
    ('--id', '6a', '--grid', '64', '--format', 'json'):
        "91d72cf7af14fddf73a364623b0bdb1d3e84d2e329ee515883489916e080993a",
    ('--id', '6b', '--grid', '64', '--format', 'csv'):
        "08fa4603152c2e3a9cc5980c077699cb0880de49f6b03bf89f592bb2b66a735f",
    ('--id', '6b', '--grid', '64', '--format', 'json'):
        "048628bbf521c5ffb4efb0d9c7a077f01327f01224d7253e2da88398cee18a44",
    ('--id', '6c', '--grid', '64', '--format', 'csv'):
        "80512c11ffe95b2431af0ffdd8ca96c1f63787eef86aaec011d43548dd539c80",
    ('--id', '6c', '--grid', '64', '--format', 'json'):
        "ca2be779c10bdb501a1292777a8f45ccfd07d8f55b36a8914a10c1395b0507c5",
    ('--id', '6d', '--grid', '64', '--format', 'csv'):
        "af420f10ec39dfca36e26999b2836c674dc5f9cb0364b12a54f3d1396d11b764",
    ('--id', '6d', '--grid', '64', '--format', 'json'):
        "0eca4c3a026783e0ee5a9b3d7b2814599b6ac4dd9beddabf82a04cf76d4568ae",
    ('--id', '1a', '--grid', '48', '--format', 'json', '--norm', 'normalized', '--method', 'fd'):
        "bcf7a3832d395ac8992045f4edbe61bd9f2972b725253547829bd83f743ffa36",
    ('--id', '4b', '--grid', '48', '--format', 'json', '--norm', 'normalized', '--method', 'fd'):
        "735e5991868613aac3e247c3d6187889947f414bb7aeb279cb363024d3bdaf82",
    ('--id', '6c', '--grid', '48', '--format', 'json', '--norm', 'normalized', '--method', 'fd'):
        "c04d97b843a193c8ea79dd899b73a360ecc81c4c7e5a20b545e3d439ac2d0152",
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
        "111cdbbc1a2cfe4779f5322844c244dfd5afa1d6d2982c8775f7380e7e5132c1",
    "fisher-bell-phi-plus-wsma-theta-analytic-as-published":
        "31f9a63a0c4105ae93a8beefa5e9ddf597742e3be06255bb47ca8c3c12caf114",
    "fisher-bell-phi-plus-wsma-theta-fd-normalized":
        "7b5fe6ef53f28457ca131fa5c6706cf3d5ab9bf7c5c58a5e48d534d76e24b5e3",
    "fisher-bell-phi-plus-wsma-theta-fd-as-published":
        "20f18c57cb44d98947df2b64d78f3b2fd3f3fae74d009a665b454d623bfdf561",
    "fisher-bell-phi-plus-wsma-phi-analytic-normalized":
        "15cd4981e39eb9dfbcc33ba1074d595057c5794d868a0ffb9101443f47548963",
    "fisher-bell-phi-plus-wsma-phi-analytic-as-published":
        "36c3b7803d873735eed323a3b80e5a3a7cc12085794ab8bd775c2e611941de96",
    "fisher-bell-phi-plus-wsma-phi-fd-normalized":
        "76cbc5feca72be7b00c1d2694f63dc2e2594e85b2f725484cf21d17f8a91e4af",
    "fisher-bell-phi-plus-wsma-phi-fd-as-published":
        "f890504d20f26da6743b3cedb01b66502cb68ed98e9972e49d49dc71ed232e08",
    "fisher-bell-phi-plus-wsma-r-analytic-normalized":
        "0b245fbd88b508533d548294af71f5565b940ba0eea2499d41d62dba49ae0ae6",
    "fisher-bell-phi-plus-wsma-r-analytic-as-published":
        "e031818eebb55a2977e04aa97d7dea429c8f35c8a7ad0f8e99f209fe2019a800",
    "fisher-bell-phi-plus-wsma-r-fd-normalized":
        "664e8156350a389a30ee4a88ab08398dc9595bdd6df32c094f961f43567a47ee",
    "fisher-bell-phi-plus-wsma-r-fd-as-published":
        "eed7707b129e306b23c26d98c14c15e63258f101c3ff5298435847d8ab1c6111",
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
        "a5f373aa0f3f57c01dc301f9be6bf699a083efee9cc278fb4a12884c0c541b4f",
    "fisher-bell-phi-plus-bsma-theta-fd-as-published":
        "17c9036d18a6456ac61af0709b5b9631bdcc3db722426955bc46f306da3fb563",
    "fisher-bell-phi-plus-bsma-phi-analytic-normalized":
        "6125df6b55151c91f7d6b0653bf16c4b153042614fb32186c9933e7a561af7a0",
    "fisher-bell-phi-plus-bsma-phi-analytic-as-published":
        "1f4d61f4cf5aec2d23cbfa0dda88c15b221db8d000ff6795efac0de30387af16",
    "fisher-bell-phi-plus-bsma-phi-fd-normalized":
        "5a81dc80bf78b34dba2d07d077f378ef06ff5f91b59bb8fed6724a2560bb5002",
    "fisher-bell-phi-plus-bsma-phi-fd-as-published":
        "e09ddcc66f2ca4fd2219f5610c3745acbdf60c368c70e92c85f2caea63e2bcea",
    "fisher-bell-phi-plus-bsma-r-analytic-normalized":
        "d9812cfce01046124e84306200214c6423eb16fb13633d64dcf1fe3c94b523df",
    "fisher-bell-phi-plus-bsma-r-analytic-as-published":
        "b2b960672b2f51bf4a05b76d1f655428e0680fe2773058e277dd27d1cfa16b83",
    "fisher-bell-phi-plus-bsma-r-fd-normalized":
        "2cb3d2a88d39bc61340573e2451d0fc2416f9a1f2a57e6b69dc27ef9af6590ba",
    "fisher-bell-phi-plus-bsma-r-fd-as-published":
        "43a082c9c9bfa41ee0fb2cf43d390c985c4710bc9115a97a2b983853156153de",
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
        "67cadd50f0c6edd2989fecb4fd1b3018bc394754b5f05efbc96bd33ac2dacbdf",
    "fisher-bell-phi-plus-qr-ql-theta-analytic-as-published":
        "d8f1989147bebdcb41dc5d09072cde084f98b07bca053477bef49e7502b35297",
    "fisher-bell-phi-plus-qr-ql-theta-fd-normalized":
        "14b6fad8c21b8240293405b9f0aaa85ea3d4c05db0c721ad7870be9808de305b",
    "fisher-bell-phi-plus-qr-ql-theta-fd-as-published":
        "a02369d464d0b87b89ef2edababb874bb03064b58b8d4018c0d27a03ecfa7276",
    "fisher-bell-phi-plus-qr-ql-phi-analytic-normalized":
        "bbbf856a1425eb73dc6da67e665428d6115809a6e94872c84d749f109ef7db99",
    "fisher-bell-phi-plus-qr-ql-phi-analytic-as-published":
        "7603aeb887f66e7f31be75e5d7be07bb03ffeccacb11aff0ac61dd50d0c120db",
    "fisher-bell-phi-plus-qr-ql-phi-fd-normalized":
        "79c8fe00202c6c12178bbd4b9f8eb3f780638f783ba55136fda86329f8cc4be0",
    "fisher-bell-phi-plus-qr-ql-phi-fd-as-published":
        "edc892cc250f1601addb3f1387f6bdd52693b58ec2038d0bf6e62da5738842c0",
    "fisher-bell-phi-plus-qr-ql-r-analytic-normalized":
        "2ac727e28b9b9be55984c153bfc9ed3f88af1fd088beb2cb8e87ff10db217ec2",
    "fisher-bell-phi-plus-qr-ql-r-analytic-as-published":
        "71a7cb2fa2ba1ad1b352d1b8caf8267225177ab0c794219a942abcfe2828093a",
    "fisher-bell-phi-plus-qr-ql-r-fd-normalized":
        "4b843b956e96fd9dc841d5a28f0dc6d0e73203aa18b343d5cdb900dde2a60e45",
    "fisher-bell-phi-plus-qr-ql-r-fd-as-published":
        "c31196756fd51f256b2314aac60c0cbd0eaab7a7b914dbd3b0733be404b7d53b",
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
        "db5896f2a9d020693cc1b3ef2cc23461fc73d23f598f3ddad4c106b48724d4ab",
    "fisher-bell-psi-minus-wsma-theta-analytic-as-published":
        "b86fd52c750a36ac5a395bd2dfb234e055a1a175d868a785edb937b10097ac88",
    "fisher-bell-psi-minus-wsma-theta-fd-normalized":
        "2b42cbdcd62630c0c532324d0b3eb15b930a210d006201271b66f2302607e858",
    "fisher-bell-psi-minus-wsma-theta-fd-as-published":
        "4b0470918a7b07864544ddb1a08574972798033efb1a14a57c23bbdbd29598ce",
    "fisher-bell-psi-minus-wsma-phi-analytic-normalized":
        "873e5d087f726b3bd0edc1cebc7f69436389e002442a2267af220e9fff134774",
    "fisher-bell-psi-minus-wsma-phi-analytic-as-published":
        "b225f60525f3c512cbd54039b0aa5ff874a7f490bff1b74c41100b102cc89cd3",
    "fisher-bell-psi-minus-wsma-phi-fd-normalized":
        "ddd2286178a8e387849e4856154b3277d7982899ba4f99bb28ed0205cd176231",
    "fisher-bell-psi-minus-wsma-phi-fd-as-published":
        "9cab1a472f0b70753b8f6f991eb6ce3a52a7731cdc57c16ad2207392f156428d",
    "fisher-bell-psi-minus-wsma-r-analytic-normalized":
        "6472d82efaa2f89c87bcd24985c32d7e0c9f754934e6d54d5f2dc184d2012448",
    "fisher-bell-psi-minus-wsma-r-analytic-as-published":
        "0f6dd5b0c8e0484aa6239f1e04d445ee5bb4c47544732fa9db5a84ee4b30b194",
    "fisher-bell-psi-minus-wsma-r-fd-normalized":
        "4a839d046f8ae194a72d19211f9cba9695b96dee48995b05ef0c60b9d8b95899",
    "fisher-bell-psi-minus-wsma-r-fd-as-published":
        "81abd3e2b8a655a10f1c99ba746bd3213c22b5c22b325d44f5687f425dcd9290",
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
        "1062e6427fd47526f2a6a56d689b2128878327d5c8171c2908e836658b1e0386",
    "fisher-bell-psi-minus-bsma-theta-analytic-as-published":
        "f7df358dc52cd2d403ae481eb94df1e75125ac959ab4046bf3d629da3a2bd23c",
    "fisher-bell-psi-minus-bsma-theta-fd-normalized":
        "28708dcab25319f77d1d267d91acfcc4ca9fb764ddb6175e7621340ba75a6d17",
    "fisher-bell-psi-minus-bsma-theta-fd-as-published":
        "14e59fc573fe2f3358970b2144f60091b6826ecae849397dcd21eb746c6a7ed8",
    "fisher-bell-psi-minus-bsma-phi-analytic-normalized":
        "444c3e4fe88fb2315d3fa53aba8bafba9d6d0080b18f8d191403318a71d43d38",
    "fisher-bell-psi-minus-bsma-phi-analytic-as-published":
        "21e37e37c172319a36a4a47f163394475ff772db8859f592540a5ec63cc60ec3",
    "fisher-bell-psi-minus-bsma-phi-fd-normalized":
        "640fb5777f174eecb6c648ff0814228843caf1bf49d8854cea790d4526103cb5",
    "fisher-bell-psi-minus-bsma-phi-fd-as-published":
        "9a9e546b4ab3fc1685fa2caf0cfa57e24c03b6c78808d0374dea46eced47ee8d",
    "fisher-bell-psi-minus-bsma-r-analytic-normalized":
        "db983034fa28d7e59d1e1e36cd01d15c172404eb04bcacd3348d0c163f914243",
    "fisher-bell-psi-minus-bsma-r-analytic-as-published":
        "d06f457ba708e60f86905adc6031531fe1d14909cd7fd0acee1a993fec6ff8e1",
    "fisher-bell-psi-minus-bsma-r-fd-normalized":
        "c40a2fefb7da3b29bc8641da4ade14173e776f29966cc09419522b452d73985c",
    "fisher-bell-psi-minus-bsma-r-fd-as-published":
        "8ba2f3a853a039e5073d8be30e44458091410e443e4e7bc184849bfbbe877d8d",
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
        "e9caef9cb606aa0cbc2490ff9843c4e48ce0370fd97b75a1176c561c0e9b77a1",
    "fisher-bell-psi-minus-qr-ql-theta-fd-normalized":
        "df4fc569622d631249c127ea4d0f184bfd5b4e81454d1b67fd490c1a66453496",
    "fisher-bell-psi-minus-qr-ql-theta-fd-as-published":
        "33380d9799cff61f8e1d951d8adfe9ddc13c4a4b3e9543c89a702a89a493fe3c",
    "fisher-bell-psi-minus-qr-ql-phi-analytic-normalized":
        "b14d1a0e6fea8e2d26a8fc825086c9a8f2200cca99313640baa84790c99f48e5",
    "fisher-bell-psi-minus-qr-ql-phi-analytic-as-published":
        "612f19b7f890b690d01b6b7bd4f8b9c4a93d7f16d4771b8c4c944bd77dc7ca9f",
    "fisher-bell-psi-minus-qr-ql-phi-fd-normalized":
        "efefe5f30ce79f95732dec73bb06abc2ff1f42717c6072a1e49182f2b94af724",
    "fisher-bell-psi-minus-qr-ql-phi-fd-as-published":
        "c91742fc9f795012b66105c76ffe4be1dee4ef662a869d0cfa326ac0eb3092da",
    "fisher-bell-psi-minus-qr-ql-r-analytic-normalized":
        "139c453314484e04a7ec75e5b859d2c39725026870f44be15f49a8c9c69ef7bb",
    "fisher-bell-psi-minus-qr-ql-r-analytic-as-published":
        "f98288702230476d940de9cbc31b4d5453f4a3cea14eecc2b4c5853a8afb6356",
    "fisher-bell-psi-minus-qr-ql-r-fd-normalized":
        "253808da246a03d1972d46788be5a1461c5cf87003ecd3c3f680b04bcf804338",
    "fisher-bell-psi-minus-qr-ql-r-fd-as-published":
        "3b61a464b18e289a01a48f99d61cae7d1a2ddbe5a8f204d10bea54d5a72cbf67",
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
        "22cd449830110fbd7cb82eefe548b34f5c442dc2ffc1af2c338b3c9bcf3a206f",
    "fisher-werner-wsma-theta-fd-as-published":
        "99fd336799358730712c9604a656d9cb1332bc960e98e513451a22bf3114e879",
    "fisher-werner-wsma-phi-analytic-normalized":
        "19a1ca5304fe8a134ed2bbe6fdd63fc4f089f5996b2ed0756217f000286ae566",
    "fisher-werner-wsma-phi-analytic-as-published":
        "6dba8d50f07a1f1fefb43dd4ee489a67bc1672a6af77522f6d9f20b37e22224d",
    "fisher-werner-wsma-phi-fd-normalized":
        "ad3aa41ab364490b7ff2928e89369c44515bdfe37e98324f13140d6d9b4ad031",
    "fisher-werner-wsma-phi-fd-as-published":
        "bcc22143e52eaf7eb9bcd3bb4f759d1b1fc0b817abd82a37a58c96419a0bffa3",
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
        "0925b0e0aae5bbc220930304fa18bdebfe8130f86aa05064337eb5ca071aaffd",
    "fisher-werner-bsma-theta-fd-normalized":
        "b9bfc6194fe7a9f4945b558f2905413d32cda918e1df4e3f65de6d1db4558f19",
    "fisher-werner-bsma-theta-fd-as-published":
        "da9f720199c6f912abaf2cc3fa2b1455640b338697563fe4b3953b66657dbf5d",
    "fisher-werner-bsma-phi-analytic-normalized":
        "e88cd23626f845f19785d32a2f22ab4e8df0d53073b0874982152399197b4576",
    "fisher-werner-bsma-phi-analytic-as-published":
        "d91e45dbc134156d0770f283cdb216fc0ddbce5685c85f2e0b0b0f042236fd5b",
    "fisher-werner-bsma-phi-fd-normalized":
        "916255f75ff11502fca8ea0963d5ced779df891607384a1ae0109060964cee2a",
    "fisher-werner-bsma-phi-fd-as-published":
        "0744837f5a3307b1ab387969d72a7494d7aaecb12743012c5a69696da16cba0f",
    "fisher-werner-bsma-r-analytic-normalized":
        "5b5b3b66c7bc72787ca7f60e622450f817e161c6c26585e1413622f0b002d427",
    "fisher-werner-bsma-r-analytic-as-published":
        "e44ab8c5688b4abb6c853eda0604f695ba4cfddcd847e7051fb2931d519ef93f",
    "fisher-werner-bsma-r-fd-normalized":
        "28acdd7a222719a3df7d5d02ccaa60f58ce46eb77b6ebbb24812fb7c1a78b7a9",
    "fisher-werner-bsma-r-fd-as-published":
        "1c2d9792e8fd7818b846a77e374f13b67519056d659c157ecc94279083eb3459",
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
        "f552c5b6a1dd76892e011659015557e37791fcb274fa96c47b45b6eff68f590f",
    "fisher-werner-qr-ql-theta-analytic-as-published":
        "310df7298a7b2258abb72cdfd7df0dbec7645593945d14a5b971adf319c68767",
    "fisher-werner-qr-ql-theta-fd-normalized":
        "8503cb3c9bc7092b0b43d2d99931aac0ad88c8812aa79b35a8ed07ac93f218b5",
    "fisher-werner-qr-ql-theta-fd-as-published":
        "a250fa2ede9187435eee970cbddb8509a5d98622e6ab168f131ee7d4b03a8f07",
    "fisher-werner-qr-ql-phi-analytic-normalized":
        "cdfeb55193003350cbe5af4a385f9bfbeacfc05a54f19982d31851d70dbe055c",
    "fisher-werner-qr-ql-phi-analytic-as-published":
        "155d6155b46abd4cf36f765ed0028bf3beb66bd31688301a5193284f67926afe",
    "fisher-werner-qr-ql-phi-fd-normalized":
        "1454feacab0a9a65e4a1ee3c419034a998c62acd2fdee50d19d0706bcdd7d4bd",
    "fisher-werner-qr-ql-phi-fd-as-published":
        "de5f7509475e285c52dd7d0d00466199c117a3c169d12db5b3e20a864d828f5d",
    "fisher-werner-qr-ql-r-analytic-normalized":
        "c04a24afed5d5f533a682e0cab13f8111305f2be78ce2f368931d04cb1c06d83",
    "fisher-werner-qr-ql-r-analytic-as-published":
        "ace27f4c8b508a23e753988222a815bb3eb55978b88118ece07fcea09008acca",
    "fisher-werner-qr-ql-r-fd-normalized":
        "e600e34d8efae382e7503aace95e995ccdde91877275fda30c1d8543433b5d86",
    "fisher-werner-qr-ql-r-fd-as-published":
        "e86d7ad04393b65858d4aa6179b61997dcc386319b32b78bceec53ed23dd6439",
    "channel-x-state-text":
        "8bd9c53cea2d3957c1656edf9b178c1b8bb7ad8793ad779cfb9fc04fc10d6094",
    "channel-x-state-json":
        "b119d80fb06d8bcdfaad01c973bffd2922e29ce44d4a035a0d17d04ba8909007",
    "channel-x-state-r-wsma-text":
        "e0627ad54b87a738fb63a312ca186708912bfbe5ae04bfbfc39c5b913d89a4cc",
    "channel-x-state-triple-wsma-text":
        "e0d74aecd08c3ac2a7b350d2f3553933bbe67d1368a2dc58bb3489793228ecd1",
    "teleport-x-state-wsma-text":
        "37f11a5dfd9ab18271fc8adf78784260ed72a24f18ce44afc07319f97e477b63",
    "channel-x-state-r-wsma-json":
        "6981ed4890c497e1ce4adc38716331a53a6c434d1cfac71164106fad064d4622",
    "channel-x-state-triple-wsma-json":
        "3d2da58dae7be980703cc2a14253142367d04dc268920bdf8740fa8764603665",
    "teleport-x-state-wsma-json":
        "e40cbc049be6ccd8d3cdeaa4c3838f8547f6b58164de5092a45c74dd5466d24f",
    "fisher-x-state-wsma-theta-analytic-normalized":
        "3e61c0109979968af21937ffa7a388d76595bd2b971b216975d94a21270b4342",
    "fisher-x-state-wsma-theta-analytic-as-published":
        "fddb275bbe313f9043d0569d786015e2c34ec932e272caea63ebf25f933f10c8",
    "fisher-x-state-wsma-theta-fd-normalized":
        "6400e3ab44d5411689fb5768e40170e7c659a375816326e1a1fefd869d0e5ca6",
    "fisher-x-state-wsma-theta-fd-as-published":
        "77c61784cc33eae6d6d916f86914944d9b9928aa094c4801c9d0e5a1dfcd0a76",
    "fisher-x-state-wsma-phi-analytic-normalized":
        "15d61de5b7909c096d8b8a4429d81c80b3e6d0b2b30528d2218a08fefa9d1c16",
    "fisher-x-state-wsma-phi-analytic-as-published":
        "99739d541ae3e3365e43206da51363614cb9140d07b265cdbe1742c973d74a74",
    "fisher-x-state-wsma-phi-fd-normalized":
        "54e0697ff9def07c35a98fee36b9df9315d0127e855b7d6acb2a46b5d2ea0b06",
    "fisher-x-state-wsma-phi-fd-as-published":
        "32fc3b66df831d1637cdeb877837b47a452862d91fbb53d1ab7065d556f42a3d",
    "fisher-x-state-wsma-r-analytic-normalized":
        "e98e4513ab82beb96b259e18f6c7a6bcc94a6d31bb39c575623f06e415240549",
    "fisher-x-state-wsma-r-analytic-as-published":
        "ab3a9b1e5dc3e00f1d87f4965579e7e5668241d7eada495a58a82b3f5fabcee6",
    "fisher-x-state-wsma-r-fd-normalized":
        "24ba860f4c1b2830efdfc43c7f3da3ffba00417b20e06e39a435d2297ab7dcad",
    "fisher-x-state-wsma-r-fd-as-published":
        "a90cf3d7d6024b4fe4dbc81bd5b91ea5c9c568a17578b6c40806e7182de12017",
    "channel-x-state-r-bsma-text":
        "16b5635d69740ee9aa46f3c1c987a98b81074a2ea41a003de66048785391ea2d",
    "channel-x-state-triple-bsma-text":
        "394e38a0315f001009b3f5b3af4c60cedfbcce088a2b74b8c5fa3509d43ec7c1",
    "teleport-x-state-bsma-text":
        "a94cad92e755c992a16646bcc5c4ac32fc577cfe1d8acfa2d9876af1de4f429b",
    "channel-x-state-r-bsma-json":
        "fcd4b9e8c8afde727811bfe15cad9cd1c55063c9d1056f3097ae527261d93944",
    "channel-x-state-triple-bsma-json":
        "8bfccdc79356baf9c53eb819fb5a147201ae031d5f1a2c1b95b4d234b1875fd0",
    "teleport-x-state-bsma-json":
        "7666db068765c85950e7b142b7d5d0bb680b3e56a941f83b8982b0d57b869188",
    "fisher-x-state-bsma-theta-analytic-normalized":
        "f31584683f2de7e45a96d73d90878a3504cf4ffee0af1c6d73dba7fea5a6b403",
    "fisher-x-state-bsma-theta-analytic-as-published":
        "77bae200c942585702f1e95b6610974b8e7dc835a9a7433987d9edf80da6844b",
    "fisher-x-state-bsma-theta-fd-normalized":
        "faa704a2fda5f06c76e6394928b10e541de233a4eb02e0e6ea6880343e9afff5",
    "fisher-x-state-bsma-theta-fd-as-published":
        "d02ddc3e15aacfe0dd4f894c9ad7d7ab01873b45807d744a0a932a1a60550cde",
    "fisher-x-state-bsma-phi-analytic-normalized":
        "a355c2fc91d278f60b29a199f225f3aa915edf7149672b2e4ccf57980d4cd005",
    "fisher-x-state-bsma-phi-analytic-as-published":
        "c772dfd47aaf99b3e2b5b33a7b0d68ad41511aa1b49d5530c22437aec095e92e",
    "fisher-x-state-bsma-phi-fd-normalized":
        "58ca3e4d00f2ed7a16863f4a457851df59cfef9a514aacaadedf46db7a6830c9",
    "fisher-x-state-bsma-phi-fd-as-published":
        "ec14813d1cb8b8871973301d135c156ff69bb554c5095003da39b566307a3e3e",
    "fisher-x-state-bsma-r-analytic-normalized":
        "5a855c4a59d4440387f2348e682afafffff781850274f086c6ad374039cb5047",
    "fisher-x-state-bsma-r-analytic-as-published":
        "9db420dc8db830fcf5fa02875f6c7ce04e1c0332846d517ca50628be1f39af4b",
    "fisher-x-state-bsma-r-fd-normalized":
        "5761a1223b7e1c44908e8b68e77bbe3f95d91208960644ded9612000b08bb42b",
    "fisher-x-state-bsma-r-fd-as-published":
        "593febc3e7c3c8c6343a5102db0f9e6563f2f03f226ea92be38b5bf560d291be",
    "channel-x-state-r-qr-ql-text":
        "4ba97f1ebe14b7c6db401594620fb8b0bde44326630a9eca06ecd990a73e8cf0",
    "channel-x-state-triple-qr-ql-text":
        "49e42860f27e728a244120f3e0b33d916173e7e52b56b976d9fa45351fd3a7b7",
    "teleport-x-state-qr-ql-text":
        "e1dc736e8bec56a71a77c3bcf40abe769b95c24d5a97f1abb14b49d8c49b879b",
    "channel-x-state-r-qr-ql-json":
        "bd8926a0063103945fda5891e100f5eae95db34eeb9db1f2954eeaf5d42e8389",
    "channel-x-state-triple-qr-ql-json":
        "f822f2ca1711eb936f24a8a04ec0aa9afec23c30f4d714f158a76a8cc0df0ef4",
    "teleport-x-state-qr-ql-json":
        "f004a42b5866f7dc089563e99ffe09994df30c34ffc1dd39967b74243ad99a84",
    "fisher-x-state-qr-ql-theta-analytic-normalized":
        "7d31fbdfa51475d0ed24b668d52272f91d95d88e295c6ebe1f8b331c13bacefb",
    "fisher-x-state-qr-ql-theta-analytic-as-published":
        "4674219a4592c3faf2a19a32c852ebfd4b877dbf08a9917c53a4b9387319a964",
    "fisher-x-state-qr-ql-theta-fd-normalized":
        "21572a2af8dceea1e64bebbe8be55e333213660c58e766a2e5d589920c7c8a76",
    "fisher-x-state-qr-ql-theta-fd-as-published":
        "889f24bc6d17d3fcf2f54a9891209c494fac2acfa7e7951884763cde47bce978",
    "fisher-x-state-qr-ql-phi-analytic-normalized":
        "187e0b9821a326dc3e9afad4af9a2fb2c552e879f7f1f9141525e257dec2718e",
    "fisher-x-state-qr-ql-phi-analytic-as-published":
        "c53e1fe215181d9ca7f23ea8b60af531e73df61c3e4734177fa25927b70141ee",
    "fisher-x-state-qr-ql-phi-fd-normalized":
        "87e9951eeb5119115f9d4c268461c8945ecc55008dccd4bc697fe484fcb6afcb",
    "fisher-x-state-qr-ql-phi-fd-as-published":
        "688eef1ad434865777e87a30a6a9bc275c5406d324524a2eeeb0671dbaa96a46",
    "fisher-x-state-qr-ql-r-analytic-normalized":
        "d468177fe48540a9aca2430e1e619bca06b76d569890351768a44d8ff32ca262",
    "fisher-x-state-qr-ql-r-analytic-as-published":
        "75fa21387d3eb15bc0019b440bb15e6d392a2f1a094de2df93e451ec3df1e980",
    "fisher-x-state-qr-ql-r-fd-normalized":
        "6d2a7058ff9dfb71f689d1da23d0847fbe0c5ae8d2bfe0df46d65dfe7b28fc55",
    "fisher-x-state-qr-ql-r-fd-as-published":
        "86e0cd57e25ef642cb5f981ba58d5254cf9ce0ba2afaa69b7fc49fbc2afc1ac0",
}


@pytest.mark.parametrize("case", list(REPORT_CASES))
def test_report_outputs_are_pinned(case, capsys):
    assert main(REPORT_CASES[case]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == REPORT_SHA256[case]


EMPTY_SHA256 = hashlib.sha256(b"").hexdigest()
TOP_HELP_SHA256 = "181b10a9809b1b660ea82f4acc1a304574c0aa858efe4cfe280d4e98239fb0c0"

# The parser's own text at COLUMNS=80: exit code, SHA-256 of stdout, stderr.
# Help returns 0; usage errors are one line on exit 1.
PARSER_TEXT = {
    ("--help",): (0, TOP_HELP_SHA256, ""),
    ("channel", "--help"):
        (0, "7ed3b6c90ce3d7b148197ae358284ddb16f5f72a76fd741eaea219b1f7725aeb", ""),
    ("teleport", "--help"):
        (0, "f330e886ca7c62a53a115830704d9c9bbefcc887e13c310ce8286b90f9d2202a", ""),
    ("fisher", "--help"):
        (0, "94b286b4b55ca434fde603d4379d95ba7ce1e0798e1c278cb480f9a754852ed4", ""),
    ("sweep", "--help"):
        (0, "53a3f35119565c9e572ceaa583688686c7222d04f67c4afd4f19d8c5ef38a3c3", ""),
    ("figures", "--help"):
        (0, "39e99dba0ae7ad82b14c57f5ed023d97e4f52063cda2d751fe98a8c923ec5834", ""),
    ("verify", "--help"):
        (0, "d24ba71af0e0d571b7a79f61bbd0136e785a1e501dcbd3c61a17d4fcca43ecd8", ""),
    (): (1, EMPTY_SHA256, "error: the following arguments are required: command\n"),
    ("bogus",): (1, EMPTY_SHA256, "error: argument command: invalid choice: 'bogus' (choose "
                 "from 'channel', 'teleport', 'fisher', 'sweep', 'figures', 'verify')\n"),
    ("-h", "figures"): (0, TOP_HELP_SHA256, ""),
    ("channel", "--format", "yaml"):
        (1, EMPTY_SHA256, "error: argument --format: invalid choice: 'yaml' "
         "(choose from 'json', 'text')\n"),
    ("teleport", "--phi", "1"):
        (1, EMPTY_SHA256, "error: the following arguments are required: --theta\n"),
    ("fisher", "--param", "x"):
        (1, EMPTY_SHA256, "error: argument --param: invalid choice: 'x' "
         "(choose from 'theta', 'phi', 'r')\n"),
    ("sweep", "--bogus"): (1, EMPTY_SHA256, "error: unrecognized arguments: --bogus\n"),
    ("figures", "--id", "zz"):
        (1, EMPTY_SHA256, "error: argument --id: invalid choice: 'zz' (choose from '1a', "
         "'1b', '2a', '2c', '3a', '3c', '4a', '4b', '4c', '4d', '5a', '5c', '6a', '6b', "
         "'6c', '6d')\n"),
    ("verify", "--trials", "many"):
        (1, EMPTY_SHA256, "error: argument --trials: invalid int value: 'many'\n"),
}


@pytest.mark.parametrize("argv", list(PARSER_TEXT), ids=lambda argv: " ".join(argv) or "bare")
def test_parser_text_is_pinned(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    digest = hashlib.sha256(captured.out.encode()).hexdigest()
    assert (code, digest, captured.err) == PARSER_TEXT[argv]


# argparse prints a converter's ArgumentTypeError as its message, and any other ValueError
# as "invalid parse_angle value: '1/2'", which drops the hint.
BAD_NUMBERS = {
    ("--theta", "1/2"): "cannot parse angle '1/2'; use radians or fractions like pi/4, 3pi/2",
    ("--theta", "pi/0"): "cannot parse angle 'pi/0': zero denominator",
    ("--qr", "abc"): "cannot parse complex number 'abc'; use forms like 0.6+0.8i",
}


@pytest.mark.parametrize("flag,text", list(BAD_NUMBERS))
def test_a_bad_number_is_refused_with_its_hint(flag, text, capsys):
    argv = ["fisher", "--param", "theta", "--theta", "1", "--phi", "0",
            "--preset", "bell-phi-plus", "--r", "0", "--ql", "0", flag, text]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: argument {flag}: {BAD_NUMBERS[flag, text]}\n")


# A refusal of a number out of its range writes the range as the library does: pi and its
# fractions by name, and an open end as "(".
BOUND_REFUSALS = {
    "theta": (["fisher", "--param", "theta", "--theta", "4", "--phi", "1", "--r", "0"],
              "theta must be a real number in [0, pi], got 4.0"),
    "phi": (["fisher", "--param", "theta", "--theta", "1", "--phi", "7", "--r", "0"],
            "phi must be a real number in [0, 2pi], got 7.0"),
    "r": (["fisher", "--param", "theta", "--theta", "1", "--phi", "1", "--r", "1"],
          "r must be a real number in [0, pi/4], got 1.0"),
    "fd-step": (["fisher", "--param", "r", "--theta", "1", "--phi", "1", "--r", "0.5",
                 "--method", "fd", "--fd-step", "0"],
                "fd_step must be a real number in (0, pi/12], got 0.0"),
    "omega": (["fisher", "--param", "theta", "--theta", "1", "--phi", "1", "--omega", "0",
               "--accel", "1", "--c", "1"], "omega must be a real number in (0, inf], got 0.0"),
    "c": (["fisher", "--param", "theta", "--theta", "1", "--phi", "1", "--omega", "1",
           "--accel", "1", "--c", "-1"], "c must be a real number in (0, inf], got -1.0"),
    "axis-stop": (["sweep", "--param", "theta", "--grid", "theta=0:4:3", "--phi", "1", "--r", "0"],
                  "axis theta stop must be a real number in [0, pi], got 4.0"),
    "axis-start": (["sweep", "--param", "theta", "--grid", "r=-1:0.5:3", "--theta", "1",
                    "--phi", "1"], "axis r start must be a real number in [0, pi/4], got -1.0"),
    "fixed": (["sweep", "--param", "theta", "--grid", "theta=0:3:3", "--phi", "9", "--r", "0"],
              "fixed phi must be a real number in [0, 2pi], got 9.0"),
}


@pytest.mark.parametrize("argv, message", BOUND_REFUSALS.values(), ids=BOUND_REFUSALS)
def test_a_refusal_writes_its_range_as_written(argv, message, capsys):
    assert main([*argv, "--preset", "bell-phi-plus"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("argv", [["--help"], ["figures", "-h"], ["-h", "figures"]])
def test_help_returns_zero(argv, capsys):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: unruh-teleport") and captured.err == ""


# A call of each subcommand that reads its numeric flags, as flag -> value.
NUMERIC_BASE = {
    "channel": {"preset": "bell-phi-plus", "r": "0.1"},
    "teleport": {"theta": "1", "phi": "1", "preset": "bell-phi-plus", "r": "0.1"},
    "fisher": {"param": "r", "method": "fd", "theta": "1", "phi": "1",
               "preset": "bell-phi-plus", "r": "0.1"},
    "sweep": {"param": "theta", "grid": "r=0:pi/4:3", "theta": "1", "phi": "1",
              "preset": "bell-phi-plus"},
    "figures": {"id": "6c", "grid": "4"},
    "verify": {"trials": "10", "seed": "1"},
}
# What a flag brings along so that it is read, and the base flags it displaces.
NUMERIC_COMPANIONS = {
    "fidelity": ({"preset": "werner"}, ()),
    "c11": ({"c22": "0", "c33": "0"}, ("preset",)),
    "c22": ({"c11": "0", "c33": "0"}, ("preset",)),
    "c33": ({"c11": "0", "c22": "0"}, ("preset",)),
    "omega": ({"accel": "1", "c": "1"}, ("r",)),
    "accel": ({"omega": "1", "c": "1"}, ("r",)),
    "c": ({"omega": "1", "accel": "1"}, ("r",)),
    "qr": ({"ql": "0"}, ()),
    "ql": ({"qr": "1"}, ()),
    ("sweep", "r"): ({"grid": "theta=0:pi:3"}, ("theta",)),
}
NUMERIC_VALUES = ("1e200", "-1e200", "nan", "inf", "1e-320")
WEIGHT_VALUES = ("1e200+1e200i", "1e308+1e308i")


def _numeric_cases():
    from unruh_teleport.cli import COMMANDS, build_parser

    for command in COMMANDS:
        sub = build_parser()._subparsers._group_actions[0].choices[command]
        for action in sub._actions:
            if action.type in (float, int, parse_angle, parse_complex):
                extra = WEIGHT_VALUES if action.type is parse_complex else ()
                for value in (*NUMERIC_VALUES, *extra):
                    yield command, action.dest, value


@pytest.mark.parametrize("command,name,value", list(_numeric_cases()))
def test_extreme_numeric_flag_never_raises(command, name, value, capsys):
    with_, displaced = NUMERIC_COMPANIONS.get(
        (command, name), NUMERIC_COMPANIONS.get(name, ({}, ()))
    )
    flags = {**NUMERIC_BASE[command], **with_, name: value}
    argv = [command] + [f"--{k.replace('_', '-')}={v}" for k, v in flags.items()
                        if k not in displaced]
    code = main(argv)
    captured = capsys.readouterr()
    assert code in (0, 1), argv
    if code == 1:
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), captured.err


def test_numpy_is_the_only_runtime_dependency():
    # Site hooks may preload modules (certifi, _distutils_hack) into a bare
    # interpreter, so only the top-level modules the import adds count.
    probe = (
        "import sys; before = set(sys.modules); import unruh_teleport.cli; "
        "print(*sorted({name.split('.')[0] for name in set(sys.modules) - before}))"
    )
    added = _run_probe(probe).split()
    assert set(added) - set(sys.stdlib_module_names) == {"numpy", "unruh_teleport"}


def test_usage_error_is_the_exit_code_of_a_real_process():
    # main's return value reaches the operating system through sys.exit.
    done = _run_python("-m", "unruh_teleport.cli", "figures", "--id", "9z")
    assert done.returncode == 1
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), done.stderr


# Runs each argv of the JSON list of [argv, path] pairs in argv[1] with --out path, then to stdout.
OUT_PROBE = """
import json, sys
from unruh_teleport.cli import main
for argv, path in json.loads(sys.argv[1]):
    assert main([*argv, "--out", path]) == 0 and main(argv) == 0, argv
"""


def test_stdout_and_out_file_of_a_real_process_get_the_same_bytes(tmp_path):
    # A process's stdout gets the pieces through its text stream, --out gets them unchanged.
    spec = _spec_payload(method="fd", unruh={"qr": [0.6, 0.8], "ql": [0.0, 0.0]},
                         axes=[{"name": "theta", "start": 0.0, "stop": 3.0, "count": 5},
                               {"name": "r", "start": 0.0, "stop": 0.5, "count": 4}],
                         fixed={"phi": 1.0})
    (tmp_path / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    cases = {
        "figure-csv": ["figures", "--id", "1b", "--grid", "96"],  # 9,216 points, two pieces
        "spec-sweep-json": ["sweep", "--spec", str(tmp_path / "spec.json"), "--format", "json"],
        "fisher-json": ["fisher", "--param", "r", *POINT, "--preset", "bell-phi-plus"],
    }
    jobs = [(argv, str(tmp_path / case)) for case, argv in cases.items()]
    done = _run_python("-c", OUT_PROBE, json.dumps(jobs), text=False)
    assert (done.returncode, done.stderr) == (0, b"")
    written = [(tmp_path / case).read_bytes() for case in cases]
    assert done.stdout == b"".join(written)
    assert all(out.endswith(b"\n") and b"\r" not in out for out in written)


def _dynamic_arch_openblas():
    """Whether numpy's BLAS is an OpenBLAS that picks its kernels by CPU at load time."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no "dicts" mode
        return False
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


# Writes the SHA-256 of the stdout of each named argv (a JSON mapping in argv[1]).
DIGEST_PROBE = """
import contextlib, hashlib, io, json, sys
from unruh_teleport.cli import main
digests = {}
for name, argv in json.loads(sys.argv[1]).items():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    digests[name] = hashlib.sha256(out.getvalue().encode()).hexdigest()
print(json.dumps(digests))
"""


@pytest.mark.skipif(
    not _dynamic_arch_openblas(), reason="numpy is not linked to a DYNAMIC_ARCH OpenBLAS"
)
def test_outputs_keep_their_bytes_under_openblas_prescott_kernels():
    # OPENBLAS_CORETYPE is read when OpenBLAS loads, so each setting needs its own
    # process. Prescott's pre-FMA kernels round a BLAS dot product differently.
    cases = {case: argv for case, argv in REPORT_CASES.items()
             if case.startswith("fisher-") and ("-bsma-" in case or "-qr-ql-" in case)}
    for fig_id in FIGURE_IDS:
        cases[f"figure-{fig_id}"] = ["figures", "--id", fig_id, "--grid", "16"]
        cases[f"figure-{fig_id}-normalized"] = [
            "figures", "--id", fig_id, "--grid", "16", "--norm", "normalized", "--format", "json"]
    digests = [
        json.loads(_run_probe(DIGEST_PROBE, json.dumps(cases), OPENBLAS_CORETYPE=coretype))
        for coretype in (None, "Prescott")
    ]
    assert [case for case in cases if digests[0][case] != digests[1][case]] == []


def _run_probe(probe, *args, **variables):
    """The stdout of ``probe`` run with ``args`` in a fresh interpreter that imports this
    package, with ``variables`` in its environment."""
    done = _run_python("-c", probe, *args, **variables)
    done.check_returncode()
    return done.stdout


def _run_python(*args, text=True, **variables):
    """A fresh interpreter run with ``args``, with this package on its path and
    ``variables`` set in its environment; a variable given as None is unset. Its
    output is captured as text, or as bytes if ``text`` is false."""
    path = [str(Path(unruh_teleport.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)), **variables}
    env = {name: value for name, value in env.items() if value is not None}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=text)
