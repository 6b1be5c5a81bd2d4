import hashlib
import json
import math

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
             "--preset", "bell-phi-plus", "--r", "0.3", "--fd-step", "0.01"]
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
            "spec-unknown-figure", "spec-figure-mismatch",
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
