import hashlib
import importlib
import math

import numpy as np
import pytest

from unruh_teleport import ConsistencyError, DomainError, verify
from unruh_teleport.cli import main
from unruh_teleport.sampling import sample_dyadic, sample_input, sample_unruh
from unruh_teleport.verify import VerifyReport

VERIFY_MODULE = importlib.import_module("unruh_teleport.verify")


def test_single_trial_contains_all_sections():
    report = verify(trials=1, seed=123)
    assert report.passed
    text = report.render()
    for marker in ("[1]", "[2]", "[3]", "[4]", "[5]", "[6]"):
        assert marker in text
    assert text.endswith("\n")


def test_render_deterministic():
    a = verify(trials=10, seed=4).render()
    b = verify(trials=10, seed=4).render()
    assert a == b


def test_different_seeds_differ_only_in_numbers():
    a = verify(trials=5, seed=1)
    b = verify(trials=5, seed=2)
    assert [c.name for c in a.checks] == [c.name for c in b.checks]
    assert a.passed and b.passed


def test_informational_check_does_not_gate():
    report = verify(trials=20, seed=7)
    info = [c for c in report.checks if c.tolerance is None]
    assert len(info) == 1
    # The swapped-b7 gap is large for generic channels yet never fails the run.
    assert info[0].max_error > 1e-3
    assert report.passed


def test_trials_validated():
    with pytest.raises(DomainError):
        verify(trials=0)


def test_trials_bounded_before_any_draw():
    # Rejected up front: the batched checks would hold arrays of this size.
    with pytest.raises(DomainError, match="trials"):
        verify(trials=2**20 + 1)


# The broadcasting forms verify runs over each block of draws, at verify's names.
BLOCK_FORMS = (
    "_accelerate", "_accelerated_density", "_bogoliubov_oracle", "_bogoliubov_isometry",
    "_teleport_analytic", "_teleport_circuit_oracle", "_branch_bloch",
)


def _count_block_forms(monkeypatch) -> dict[str, int]:
    calls = dict.fromkeys(BLOCK_FORMS, 0)

    def counted(name):
        original = getattr(VERIFY_MODULE, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(VERIFY_MODULE, name, counted(name))
    return calls


def test_one_pass_evaluates_each_per_draw_quantity_once(monkeypatch):
    # Each oracle and form runs once per block of draws, so once for 7 draws
    # (the inertial channel rides in the same _accelerate call as a stack of two).
    calls = _count_block_forms(monkeypatch)
    assert verify(trials=7, seed=3).passed
    assert calls == dict.fromkeys(BLOCK_FORMS, 1)


def test_each_form_runs_once_per_block(monkeypatch):
    calls = _count_block_forms(monkeypatch)
    monkeypatch.setattr(VERIFY_MODULE, "BLOCK", 3)
    assert verify(trials=7, seed=3).passed
    assert calls == dict.fromkeys(BLOCK_FORMS, 3)


def test_nan_error_fails_the_check(monkeypatch):
    # A running maximum must not drop a NaN error: max(worst, nan) keeps worst.
    original = VERIFY_MODULE._bogoliubov_oracle

    def nan_at_draw_one(*args):
        m = original(*args)
        m[1] = np.nan
        return m

    monkeypatch.setattr(VERIFY_MODULE, "_bogoliubov_oracle", nan_at_draw_one)
    with np.errstate(invalid="ignore"):
        report = verify(trials=5, seed=1)
    assert report.passed is False
    failed = [c for c in report.checks if not c.passed]
    assert [(c.section, c.name) for c in failed] == [
        (1, "max elementwise difference"), (2, "max elementwise difference")
    ]
    text = report.render()
    assert "result: FAIL" in text
    assert text.count("worst draw: 1 ") == 2


def test_check_sequence_is_pinned():
    expected = [
        (1, "max elementwise difference", 1e-12),
        (2, "max elementwise difference", 1e-12),
        (3, "max elementwise difference", 1e-12),
        (4, "max relative difference", 1e-6),
        (5, "preset states hermitian", 1e-12),
        (5, "preset states unit trace", 1e-12),
        (5, "preset states positive", 1e-12),
        (5, "dyadic grid eigenvalue sum", 1e-12),
        (5, "min channel eigenvalue: closed form vs eigvalsh", 1e-12),
        (5, "accelerated channel unit trace", 1e-12),
        (5, "accelerated channel hermitian", 1e-12),
        (5, "accelerated channel positive", 1e-12),
        (5, "identity channel at r=0 wsma", 1e-12),
        (5, "isometry columns orthonormal", 1e-12),
        (5, "branch probability equals 1/4", 1e-12),
        (5, "branch state hermitian", 1e-12),
        (5, "branch state positive", 1e-12),
        (5, "normalized bloch norm <= 1", 1e-12),
        (5, "as-published bloch norm <= 1/4", 1e-12),
        (5, "fisher finite and non-negative", 1e-9),
        (5, "fisher invariant under s_y reflection", 1e-15),
        (5, "anchor: weight information = cos(r)^2", 1e-9),
        (5, "mode scaling 1/16 at r=0", 1e-9),
        (5, "continuity near the pure shell", 1e-3),
        (6, "hermiticity gap |b7 - conj(b6)|", None),
    ]
    report = verify(trials=3, seed=1)
    assert [(c.section, c.name, c.tolerance) for c in report.checks] == expected
    assert report.render().endswith("result: PASS (24 gated checks)\n")


def test_block_size_does_not_change_the_report(monkeypatch):
    whole = verify(trials=7, seed=3).render()
    monkeypatch.setattr(VERIFY_MODULE, "BLOCK", 3)
    assert verify(trials=7, seed=3).render() == whole


def test_worst_draw_names_the_draw_in_a_later_block(monkeypatch):
    # Blocks of 2 over 5 draws: the NaN at draw 3 is index 1 of the second block.
    original = VERIFY_MODULE._bogoliubov_oracle
    blocks = []

    def nan_in_second_block(*args):
        m = original(*args)
        blocks.append(len(m))
        if len(blocks) == 2:
            m[1] = np.nan
        return m

    monkeypatch.setattr(VERIFY_MODULE, "BLOCK", 2)
    monkeypatch.setattr(VERIFY_MODULE, "_bogoliubov_oracle", nan_in_second_block)
    with np.errstate(invalid="ignore"):
        report = verify(trials=5, seed=1)
    assert blocks == [2, 2, 1]
    first = report.checks[0]
    assert first.passed is False
    rng = np.random.default_rng(1)
    draws = [(sample_input(rng), sample_dyadic(rng), sample_unruh(rng)) for _ in range(5)]
    state, d, u = draws[3]
    assert first.draw == (3, (*vars(state).items(), *vars(d).items(), *vars(u).items()))
    assert len({first}) == 1  # a Check stays hashable
    assert "      worst draw: 3 theta=" in report.render()


def test_a_mutated_closed_form_fails_the_eigenvalue_check(monkeypatch, capsys):
    # One row of the Bell signs negated: the sampler and validate_physical still
    # agree with each other, so only the eigvalsh check in [5] can tell.
    channels = importlib.import_module("unruh_teleport.channels")
    signs = channels._BELL_SIGNS
    monkeypatch.setattr(channels, "_BELL_SIGNS", (tuple(-s for s in signs[0]), *signs[1:]))
    report = verify(trials=20, seed=7)
    name = "min channel eigenvalue: closed form vs eigvalsh"
    check = next(c for c in report.checks if c.name == name)
    assert not check.passed and check.draw is not None
    lines = report.render().splitlines()
    at = next(i for i, line in enumerate(lines) if name in line)
    assert lines[at].endswith("FAIL")
    assert lines[at + 1].startswith(f"      worst draw: {check.draw[0]} theta=")
    assert main(["verify"]) == 2
    assert "result: FAIL (24 gated checks)" in capsys.readouterr().out


def test_pass_report_has_no_worst_draw_line():
    assert "worst draw" not in verify(trials=20, seed=7).render()


def _nan_off_diagonal(monkeypatch):
    # The Fisher kernel's Bloch vectors get a NaN x component; the oracle
    # sections use the teleport module's own name and stay finite.
    fisher_module = importlib.import_module("unruh_teleport.fisher")
    original = fisher_module._branch_bloch

    def nan_bloch(**p):
        return original(**p) * np.array([np.nan, 1.0, 1.0])

    monkeypatch.setattr(fisher_module, "_branch_bloch", nan_bloch)


def test_non_finite_fisher_value_fails_its_checks(monkeypatch):
    _nan_off_diagonal(monkeypatch)
    with np.errstate(invalid="ignore"):
        report = verify(trials=3, seed=1)
    assert isinstance(report, VerifyReport)
    assert report.passed is False
    failed = {c.name: c.max_error for c in report.checks if not c.passed}
    for name in (
        "fisher finite and non-negative",
        "fisher invariant under s_y reflection",
        "anchor: weight information = cos(r)^2",
        "mode scaling 1/16 at r=0",
        "continuity near the pure shell",
    ):
        assert failed[name] == math.inf
    assert "result: FAIL" in report.render()


def test_non_finite_fisher_value_report_from_the_cli(monkeypatch, capsys):
    _nan_off_diagonal(monkeypatch)
    with np.errstate(invalid="ignore"):
        code = main(["verify", "--trials", "3", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 2
    assert out.startswith("verification report: trials=3 seed=1\n")
    assert "[6] swapped-b7 variant (informational)" in out
    assert out.endswith("result: FAIL (24 gated checks)\n")


def _nan_at_draw_two(monkeypatch, name, hit):
    # verify's own name for a kernel function returns NaN at draw 2 on the calls
    # that ``hit`` picks from the arguments after the point mapping.
    original = getattr(VERIFY_MODULE, name)

    def nan_at_two(p, *args):
        out = original(p, *args)
        if hit(*args):
            out = out.copy()
            out[2] = np.nan
        return out

    monkeypatch.setattr(VERIFY_MODULE, name, nan_at_two)


def test_derivative_check_names_its_worst_draw(monkeypatch):
    _nan_at_draw_two(monkeypatch, "_partial", lambda param, mode, method: method == "fd")
    report = verify(trials=5, seed=1)
    failed = [c for c in report.checks if not c.passed]
    assert [(c.section, c.name, c.draw[0]) for c in failed] == [(4, "max relative difference", 2)]
    assert math.isnan(failed[0].max_error)
    assert "      worst draw: 2 theta=" in report.render()


def test_bloch_norm_check_names_its_worst_draw(monkeypatch):
    _nan_at_draw_two(monkeypatch, "_bloch", lambda mode: mode == "as-published")
    report = verify(trials=5, seed=1)
    failed = [c for c in report.checks if not c.passed]
    assert [(c.name, c.draw[0]) for c in failed] == [("as-published bloch norm <= 1/4", 2)]
    assert report.render().count("worst draw: 2 theta=") == 1


def test_kernel_failure_names_no_draw(monkeypatch):
    _nan_off_diagonal(monkeypatch)
    with np.errstate(invalid="ignore"):
        report = verify(trials=3, seed=1)
    infinite = [c for c in report.checks if c.max_error == math.inf]
    assert [c.name for c in infinite] == [
        "fisher finite and non-negative",
        "fisher invariant under s_y reflection",
        "anchor: weight information = cos(r)^2",
        "mode scaling 1/16 at r=0",
        "continuity near the pure shell",
    ]
    assert all(c.draw is None for c in infinite)


@pytest.mark.parametrize("checks", ["drop-last", "add-one", "repeat-one"])
def test_checks_table_matches_the_producers(monkeypatch, checks):
    table = VERIFY_MODULE.CHECKS
    changed = {
        "drop-last": table[:-1],
        "add-one": (*table, (5, "not produced", 1e-12)),
        "repeat-one": (*table, table[0]),
    }[checks]
    monkeypatch.setattr(VERIFY_MODULE, "CHECKS", changed)
    with pytest.raises(ConsistencyError, match="produced and listed once"):
        verify(trials=2, seed=1)


@pytest.mark.parametrize(
    "trials,seed", [(2.5, 1), (3, 1.5), (True, 1), (3, False), ("3", 1), (3, None)]
)
def test_trials_and_seed_must_be_integers(trials, seed):
    with pytest.raises(DomainError, match=r"(trials|seed) must be an integer, got "):
        verify(trials, seed)


def test_numpy_integers_are_accepted():
    report = verify(np.int64(2), np.int32(5))
    assert report.passed
    assert report.render().startswith("verification report: trials=2 seed=5\n")


# SHA-256 of `verify` reports. The draws, and so the rng stream, are those of
# the per-draw rejection sampler that sample_draws replaced.
REPORT_SHA256 = {
    (1, 42): "6842cf5918ad642800e89d8d4ad0f9c7ba86bc8d37d9d6bc27edf3326094e280",
    (1, 7): "7e059fe659cb9d9203e853bb602b4024528343613fb84e97c8bbad803860a5a6",
    (1, 123): "78316149d1d4880cf4edf5f3ba0fe0acb094380fcb838326bd61d1bd807d37a5",
    (1, 1): "734e7a6a304d34e8b895e60b264aa8d35a49646b67567f6d385e7b63439f303e",
    (1, 2): "31b2ffea3e57c5a18dc4a81646df321e892173c4444d880a06b1e208fee79437",
    (7, 42): "317249f0672342f407410bdd1c878facfaa51447c9c96df9cf3c2cebe3dd0021",
    (7, 7): "33a2da4d1182ace6051a3fff1ddb344998b16c74589048b7a3cd104e358a9eae",
    (7, 123): "ee49ad90280e7741b30d4acb6fcec08e749811b277defdb12b4d666903f866bd",
    (7, 1): "33855150074ffc7e17c43611a3a84647255bd49b974cd04bdef0eca52e77711d",
    (7, 2): "09f53de1f23db8fa7022139ca574b769864f3fcaf753b666c9bb19d809806a86",
    (1000, 42): "682682f8e966afa67a5c543432473d0222d527c9bb55a2d600973265cd1d0f32",
    (1000, 7): "0475cd2caa2a05f943872a0acb547fa0b412c55ecf4855087571cac8d8f14626",
    (1000, 123): "166e0ac19e1124ebf96114c530cb0f2e6734d62c1affbb135187e8699ae687cb",
    (1000, 1): "b02a8b885f3b693e8d0df1c5889ea8102531b165960122fe8088a46ddf5ec1cb",
    (1000, 2): "3d72f3b9d7460e6a5d24ee663f188049a78fa1b1cf2c6e76c63a3adaf63c09cd",
}


@pytest.mark.parametrize("trials,seed", list(REPORT_SHA256))
def test_reports_are_pinned(trials, seed, capsys):
    assert main(["verify", "--trials", str(trials), "--seed", str(seed)]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == REPORT_SHA256[trials, seed]


def test_report_defaults_are_1000_trials_seed_42(capsys):
    assert main(["verify"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == REPORT_SHA256[1000, 42]
